//! The schedule representation shared by all AllReduce algorithms.
//!
//! A [`Schedule`] is a dependency DAG of point-to-point [`CollectiveOp`]s.
//! Timestep-synchronous algorithms (the ring family) encode their steps as
//! dependency chains; pipelined algorithms (TTO, DBTree) let independent
//! chunks float freely — the network simulator's per-link serialization then
//! produces exactly the chunk overlap the paper exploits.
//!
//! Every op carries the *byte range* of the gradient it moves, so the
//! functional verifier ([`crate::verify`]) can execute a schedule on concrete
//! data and check the AllReduce post-condition.

use std::fmt;

use meshcoll_topo::{NodeId, TransferDag};

/// Identifier of an op within one schedule (dense, `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub u32);

impl OpId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What a transfer does to the destination's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// ReduceScatter-phase transfer: the destination *adds* the received
    /// range to its partial sum.
    Reduce,
    /// AllGather-phase transfer: the destination *overwrites* the range with
    /// the received (fully reduced) values.
    Gather,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Reduce => f.write_str("reduce"),
            OpKind::Gather => f.write_str("gather"),
        }
    }
}

/// One point-to-point transfer of a gradient byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveOp {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Start of the gradient byte range this op moves.
    pub offset: u64,
    /// Length of the range in bytes (also the message size on the wire).
    pub bytes: u64,
    /// Reduce (add) or gather (overwrite).
    pub kind: OpKind,
    /// Chunk index, for pipelined algorithms (0 when unchunked).
    pub chunk: u32,
    deps_start: u32,
    deps_len: u32,
}

impl CollectiveOp {
    /// End of the byte range (`offset + bytes`).
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// A complete AllReduce schedule over a mesh.
///
/// # Example
///
/// ```
/// use meshcoll_collectives::{Schedule, OpKind};
/// use meshcoll_topo::NodeId;
///
/// let mut b = Schedule::builder("demo", 8);
/// b.set_participants(vec![NodeId(0), NodeId(1)]);
/// let first = b.push(NodeId(0), NodeId(1), 0, 4, OpKind::Reduce, 0, &[]);
/// b.push(NodeId(1), NodeId(0), 0, 4, OpKind::Gather, 0, &[first]);
/// let s = b.build();
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.deps(s.op_ids().nth(1).unwrap()), &[first]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    name: &'static str,
    data_bytes: u64,
    ops: Vec<CollectiveOp>,
    deps_arena: Vec<OpId>,
    participants: Vec<NodeId>,
}

impl Schedule {
    /// Starts building a schedule. `data_bytes` is the per-node gradient
    /// size `D` the schedule synchronizes.
    pub fn builder(name: &'static str, data_bytes: u64) -> ScheduleBuilder {
        ScheduleBuilder {
            inner: Schedule {
                name,
                data_bytes,
                ops: Vec::new(),
                deps_arena: Vec::new(),
                participants: Vec::new(),
            },
        }
    }

    /// The generating algorithm's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Per-node gradient bytes the schedule synchronizes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the schedule has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops, indexed by [`OpId`].
    #[inline]
    pub fn ops(&self) -> &[CollectiveOp] {
        &self.ops
    }

    /// The op with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn op(&self, id: OpId) -> &CollectiveOp {
        &self.ops[id.index()]
    }

    /// Dependencies of an op.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn deps(&self, id: OpId) -> &[OpId] {
        let op = &self.ops[id.index()];
        &self.deps_arena[op.deps_start as usize..(op.deps_start + op.deps_len) as usize]
    }

    /// Iterates over all op ids in insertion order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Nodes that contribute a gradient and must end with the full sum.
    ///
    /// For most algorithms this is every node; for TTO it is every node
    /// except the excluded corner (which only relays).
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// Total bytes moved over the network by the whole schedule.
    pub fn total_wire_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes).sum()
    }

    /// Boundaries of the schedule's *atoms*: the coarsest partition of
    /// `[0, data_bytes)` such that every op's byte range is a union of
    /// atoms. Returned sorted and deduplicated, always starting with `0`
    /// and ending with `data_bytes` (for non-empty gradients).
    ///
    /// Atoms are the natural granularity for functional checks — within an
    /// atom every byte is touched by exactly the same set of ops, so the
    /// verifier and the in-degree audit can reason per-atom instead of
    /// per-byte. Ranges extending past `data_bytes` still contribute their
    /// boundaries; callers that care validate ranges separately.
    pub fn atom_breaks(&self) -> Vec<u64> {
        let mut breaks = Vec::with_capacity(2 + 2 * self.ops.len());
        breaks.push(0);
        breaks.push(self.data_bytes);
        for op in &self.ops {
            breaks.push(op.offset);
            breaks.push(op.end());
        }
        breaks.sort_unstable();
        breaks.dedup();
        breaks
    }
}

/// A schedule is the transfer DAG the packet engines simulate, read in
/// place: op `i` is transfer `i`, its dependencies come straight from the
/// CSR arena, and every op is ready at time 0.
impl TransferDag for Schedule {
    #[inline]
    fn len(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn src(&self, i: usize) -> NodeId {
        self.ops[i].src
    }

    #[inline]
    fn dst(&self, i: usize) -> NodeId {
        self.ops[i].dst
    }

    #[inline]
    fn bytes(&self, i: usize) -> u64 {
        self.ops[i].bytes
    }

    #[inline]
    fn deps(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let op = &self.ops[i];
        let start = op.deps_start as usize;
        self.deps_arena[start..start + op.deps_len as usize]
            .iter()
            .map(|d| d.index())
    }
}

/// Incremental [`Schedule`] construction; see [`Schedule::builder`].
#[derive(Debug)]
pub struct ScheduleBuilder {
    inner: Schedule,
}

impl ScheduleBuilder {
    /// Appends an op and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`, `src == dst`, or a dependency id is not yet
    /// defined (forward references are disallowed — the DAG is built in
    /// topological insertion order).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        offset: u64,
        bytes: u64,
        kind: OpKind,
        chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        assert!(bytes > 0, "op with zero bytes");
        assert_ne!(src, dst, "op sends to itself");
        let id = OpId(u32::try_from(self.inner.ops.len()).expect("schedule exceeds u32 op ids"));
        for d in deps {
            assert!(d.0 < id.0, "forward dependency {d} in op {id}");
        }
        let deps_start =
            u32::try_from(self.inner.deps_arena.len()).expect("schedule exceeds u32 dep arena");
        self.inner.deps_arena.extend_from_slice(deps);
        self.inner.ops.push(CollectiveOp {
            src,
            dst,
            offset,
            bytes,
            kind,
            chunk,
            deps_start,
            deps_len: deps.len() as u32,
        });
        id
    }

    /// Sets the participating (training) nodes.
    pub fn set_participants(&mut self, nodes: Vec<NodeId>) -> &mut Self {
        self.inner.participants = nodes;
        self
    }

    /// Finalizes the schedule.
    ///
    /// # Panics
    ///
    /// Panics if no participants were set.
    pub fn build(self) -> Schedule {
        assert!(
            !self.inner.participants.is_empty(),
            "schedule has no participants"
        );
        self.inner
    }
}

/// Splits the byte range `[0, total)` into `parts` contiguous near-equal
/// ranges, returned as `(offset, bytes)` pairs. Earlier parts take the
/// remainder, so sizes differ by at most one byte.
///
/// # Errors
///
/// Returns [`crate::CollectiveError::DataTooSmall`] when `total < parts`
/// (a part would be empty) or `parts == 0`.
pub fn split_bytes(total: u64, parts: u64) -> Result<Vec<(u64, u64)>, crate::CollectiveError> {
    split_range(0, total, parts)
}

/// Splits `[start, end)` into `parts` contiguous near-equal ranges.
///
/// # Errors
///
/// Returns [`crate::CollectiveError::DataTooSmall`] when the range is shorter
/// than `parts` or `parts == 0`.
pub fn split_range(
    start: u64,
    end: u64,
    parts: u64,
) -> Result<Vec<(u64, u64)>, crate::CollectiveError> {
    let total = end.saturating_sub(start);
    if parts == 0 || total < parts {
        return Err(crate::CollectiveError::DataTooSmall {
            bytes: total,
            parts,
        });
    }
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut at = start;
    for i in 0..parts {
        let len = base + u64::from(i < extra);
        out.push((at, len));
        at += len;
    }
    debug_assert_eq!(at, end);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_contiguous_and_exact() {
        for (total, parts) in [(10u64, 3u64), (9, 9), (100, 7), (8192, 4)] {
            let ranges = split_bytes(total, parts).unwrap();
            assert_eq!(ranges.len(), parts as usize);
            let mut at = 0;
            for (off, len) in &ranges {
                assert_eq!(*off, at);
                assert!(*len > 0);
                at += len;
            }
            assert_eq!(at, total);
            let max = ranges.iter().map(|r| r.1).max().unwrap();
            let min = ranges.iter().map(|r| r.1).min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn split_rejects_too_small() {
        assert!(split_bytes(2, 3).is_err());
        assert!(split_bytes(10, 0).is_err());
        assert!(split_range(5, 5, 1).is_err());
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = Schedule::builder("t", 16);
        b.set_participants(vec![NodeId(0), NodeId(1)]);
        let a = b.push(NodeId(0), NodeId(1), 0, 8, OpKind::Reduce, 0, &[]);
        let c = b.push(NodeId(1), NodeId(0), 8, 8, OpKind::Reduce, 0, &[a]);
        assert_eq!(a, OpId(0));
        assert_eq!(c, OpId(1));
        let s = b.build();
        assert_eq!(s.total_wire_bytes(), 16);
        assert_eq!(s.deps(c), &[a]);
        assert_eq!(s.deps(a), &[] as &[OpId]);
    }

    #[test]
    fn atom_breaks_cover_every_op_boundary() {
        let mut b = Schedule::builder("t", 16);
        b.set_participants(vec![NodeId(0), NodeId(1)]);
        b.push(NodeId(0), NodeId(1), 0, 8, OpKind::Reduce, 0, &[]);
        b.push(NodeId(1), NodeId(0), 4, 8, OpKind::Gather, 0, &[]);
        let s = b.build();
        assert_eq!(s.atom_breaks(), vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn atom_breaks_on_empty_schedule_are_just_the_bounds() {
        let mut b = Schedule::builder("t", 32);
        b.set_participants(vec![NodeId(0)]);
        // Builder forbids empty schedules only via participants, so push one
        // op spanning the whole gradient: no interior breaks appear.
        b.push(NodeId(0), NodeId(1), 0, 32, OpKind::Reduce, 0, &[]);
        let s = b.build();
        assert_eq!(s.atom_breaks(), vec![0, 32]);
    }

    #[test]
    #[should_panic(expected = "forward dependency")]
    fn builder_rejects_forward_deps() {
        let mut b = Schedule::builder("t", 16);
        b.push(NodeId(0), NodeId(1), 0, 8, OpKind::Reduce, 0, &[OpId(5)]);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn builder_rejects_empty_ops() {
        let mut b = Schedule::builder("t", 16);
        b.push(NodeId(0), NodeId(1), 0, 0, OpKind::Reduce, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "sends to itself")]
    fn builder_rejects_self_sends() {
        let mut b = Schedule::builder("t", 16);
        b.push(NodeId(1), NodeId(1), 0, 8, OpKind::Reduce, 0, &[]);
    }
}
