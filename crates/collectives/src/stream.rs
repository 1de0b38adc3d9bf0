//! Streaming schedule generation.
//!
//! This module decouples op *generation* from op *storage*:
//!
//! * [`OpSink`] is the push-based consumer interface. Every algorithm's
//!   generator emits ops **in dependency order** (the same topological
//!   insertion order [`ScheduleBuilder`] enforces) into any sink.
//!   [`ScheduleBuilder`] itself is a sink — materializing a schedule runs
//!   the *identical* generation code any other sink sees, so every sink
//!   observes exactly the materialized schedule's ops, ids and deps.
//! * [`Algorithm::emit_with`](crate::Algorithm::emit_with) drives a
//!   generator natively for Ring/RingBiEven/RingBiOdd/MultiTree/TTO and
//!   falls back to materialize-and-[`replay`] for the remaining baselines.
//!
//! A sink that keeps O(1) state — an op counter, a statistics accumulator
//! — consumes a 33.5M-op 64×64 schedule in constant memory. Timing a
//! schedule needs the whole DAG: the `meshcoll-sim` engine materializes the
//! schedule once and the packet engine reads it in place (a [`Schedule`]
//! is a [`TransferDag`](meshcoll_topo::TransferDag)), so a run holds the
//! schedule plus the engine's O(messages) scratch and no second copy.

use meshcoll_topo::NodeId;

use crate::schedule::{OpId, OpKind, Schedule, ScheduleBuilder};

/// Push-based consumer of a schedule's op stream.
///
/// Generators call [`OpSink::set_participants`] exactly once, *before* the
/// first op, then [`OpSink::push`] once per op in topological insertion
/// order (dependencies always refer to already-pushed ops). The returned
/// [`OpId`]s are dense (`0..n` in push order), mirroring
/// [`ScheduleBuilder::push`].
///
/// # Example
///
/// Counting a schedule's ops and wire bytes without retaining any op:
///
/// ```
/// use meshcoll_collectives::{Algorithm, OpId, OpKind, OpSink, ScheduleOptions};
/// use meshcoll_topo::{Mesh, NodeId};
///
/// #[derive(Default)]
/// struct Tally {
///     ops: u32,
///     bytes: u64,
/// }
///
/// impl OpSink for Tally {
///     fn push(
///         &mut self,
///         _src: NodeId,
///         _dst: NodeId,
///         _offset: u64,
///         bytes: u64,
///         _kind: OpKind,
///         _chunk: u32,
///         _deps: &[OpId],
///     ) -> OpId {
///         self.ops += 1;
///         self.bytes += bytes;
///         OpId(self.ops - 1)
///     }
///
///     fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
/// }
///
/// let mesh = Mesh::square(4)?;
/// let opts = ScheduleOptions::default();
/// let reference = Algorithm::Ring.schedule_with(&mesh, 4096, &opts)?;
/// let mut tally = Tally::default();
/// Algorithm::Ring.emit_with(&mesh, 4096, &opts, &mut tally)?;
/// assert_eq!(tally.ops as usize, reference.len());
/// assert_eq!(tally.bytes, reference.total_wire_bytes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait OpSink {
    /// Accepts one op; returns its dense id.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        offset: u64,
        bytes: u64,
        kind: OpKind,
        chunk: u32,
        deps: &[OpId],
    ) -> OpId;

    /// Accepts the participating (training) nodes. Called before any op.
    fn set_participants(&mut self, nodes: Vec<NodeId>);
}

impl OpSink for ScheduleBuilder {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        offset: u64,
        bytes: u64,
        kind: OpKind,
        chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        ScheduleBuilder::push(self, src, dst, offset, bytes, kind, chunk, deps)
    }

    fn set_participants(&mut self, nodes: Vec<NodeId>) {
        ScheduleBuilder::set_participants(self, nodes);
    }
}

/// Replays a materialized schedule into a sink, preserving ids verbatim
/// (op `k` of the schedule becomes push `k` of the sink). This is the
/// streaming fallback for algorithms without a native generator and for
/// fault-repaired schedules.
pub fn replay(schedule: &Schedule, sink: &mut dyn OpSink) {
    sink.set_participants(schedule.participants().to_vec());
    for id in schedule.op_ids() {
        let op = schedule.op(id);
        let got = sink.push(
            op.src,
            op.dst,
            op.offset,
            op.bytes,
            op.kind,
            op.chunk,
            schedule.deps(id),
        );
        debug_assert_eq!(got, id, "replay must preserve op ids");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, CollectiveError, ScheduleOptions};
    use meshcoll_topo::Mesh;

    /// One pushed op: `(src, dst, offset, bytes, kind, chunk, deps)`.
    type Pushed = (NodeId, NodeId, u64, u64, OpKind, u32, Vec<OpId>);

    /// Records every push verbatim.
    #[derive(Default)]
    struct Collect {
        participants: Vec<NodeId>,
        ops: Vec<Pushed>,
    }

    impl OpSink for Collect {
        fn push(
            &mut self,
            src: NodeId,
            dst: NodeId,
            offset: u64,
            bytes: u64,
            kind: OpKind,
            chunk: u32,
            deps: &[OpId],
        ) -> OpId {
            self.ops
                .push((src, dst, offset, bytes, kind, chunk, deps.to_vec()));
            OpId(self.ops.len() as u32 - 1)
        }

        fn set_participants(&mut self, nodes: Vec<NodeId>) {
            self.participants = nodes;
        }
    }

    fn assert_stream_matches(algorithm: Algorithm, mesh: &Mesh, data_bytes: u64) {
        let opts = ScheduleOptions {
            tto_chunk_bytes: 1024,
            dbtree_segment_bytes: 1024,
        };
        let reference = algorithm.schedule_with(mesh, data_bytes, &opts).unwrap();
        let mut sink = Collect::default();
        algorithm
            .emit_with(mesh, data_bytes, &opts, &mut sink)
            .unwrap();
        assert_eq!(sink.participants, reference.participants());
        assert_eq!(sink.ops.len(), reference.len());
        for (op, id) in sink.ops.iter().zip(reference.op_ids()) {
            let r = reference.op(id);
            let (src, dst, offset, bytes, kind, chunk, deps) = op;
            assert_eq!((*src, *dst), (r.src, r.dst));
            assert_eq!((*offset, *bytes), (r.offset, r.bytes));
            assert_eq!((*kind, *chunk), (r.kind, r.chunk));
            assert_eq!(deps.as_slice(), reference.deps(id));
        }
    }

    #[test]
    fn streamed_ops_are_bit_identical_to_materialized() {
        let even = Mesh::square(4).unwrap();
        let odd = Mesh::square(3).unwrap();
        for a in [
            Algorithm::Ring,
            Algorithm::RingBiEven,
            Algorithm::MultiTree,
            Algorithm::Tto,
            Algorithm::DBTree,
            Algorithm::Ring2D,
        ] {
            assert_stream_matches(a, &even, 9 * 512);
        }
        for a in [Algorithm::Ring, Algorithm::RingBiOdd, Algorithm::Tto] {
            assert_stream_matches(a, &odd, 9 * 512);
        }
    }

    #[test]
    fn construction_errors_surface_up_front() {
        let mesh = Mesh::square(5).unwrap();
        let mut sink = Collect::default();
        let err =
            Algorithm::RingBiEven.emit_with(&mesh, 1 << 20, &ScheduleOptions::default(), &mut sink);
        assert!(matches!(err, Err(CollectiveError::Inapplicable { .. })));
        assert!(sink.ops.is_empty());
    }

    #[test]
    fn replay_preserves_ids_and_deps() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::MultiTree.schedule(&mesh, 3600).unwrap();
        let mut b = Schedule::builder("replayed", s.data_bytes());
        replay(&s, &mut b);
        let r = b.build();
        assert_eq!(r.ops(), s.ops());
        assert_eq!(r.participants(), s.participants());
        for id in s.op_ids() {
            assert_eq!(r.deps(id), s.deps(id));
        }
    }
}
