//! Property sweep for streamed generation: over random mesh/torus shapes,
//! algorithms, gradient sizes, and fault masks, the op stream a generator
//! emits must be bit-identical to the materialized schedule — op for op at
//! the collectives layer — and `run_streamed` must return what `run` on
//! the materialized schedule returns (result for result, error for error).

use meshcoll_collectives::{Algorithm, OpId, OpKind, OpSink, ScheduleOptions};
use meshcoll_noc::NocConfig;
use meshcoll_sim::SimEngine;
use meshcoll_topo::{Mesh, NodeId};
use proptest::prelude::*;

/// One pushed op: `(src, dst, offset, bytes, kind, chunk, deps)`.
type Pushed = (NodeId, NodeId, u64, u64, OpKind, u32, Vec<OpId>);

/// An [`OpSink`] that records every push verbatim.
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

const ALGOS: [Algorithm; 6] = [
    Algorithm::Ring,
    Algorithm::RingBiEven,
    Algorithm::RingBiOdd,
    Algorithm::MultiTree,
    Algorithm::Tto,
    Algorithm::DBTree, // exercises the replay fallback for non-native streamers
];

fn opts() -> ScheduleOptions {
    ScheduleOptions {
        tto_chunk_bytes: 4096,
        dbtree_segment_bytes: 4096,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The op sequence `emit_with` pushes into a sink is the materialized
    /// schedule, id for id, dep for dep, in emission order.
    #[test]
    fn streamed_ops_equal_materialized_on_random_shapes(
        rows in 3usize..7,
        cols in 3usize..7,
        torus in 0usize..2,
        algo in 0usize..ALGOS.len(),
        data_kb in 16u64..256,
    ) {
        let mesh = if torus == 1 {
            Mesh::torus(rows, cols).unwrap()
        } else {
            Mesh::new(rows, cols).unwrap()
        };
        let a = ALGOS[algo];
        let d = data_kb * 1024;
        let mut sink = Collect::default();
        let emitted = a.emit_with(&mesh, d, &opts(), &mut sink);
        let materialized = match a.schedule_with(&mesh, d, &opts()) {
            Ok(s) => s,
            Err(e) => {
                // Emission must reject exactly what the materialized
                // constructor rejects, with the same error.
                prop_assert_eq!(emitted, Err(e));
                return Ok(());
            }
        };
        prop_assert_eq!(emitted, Ok(()));
        prop_assert_eq!(sink.participants.as_slice(), materialized.participants());
        prop_assert_eq!(sink.ops.len(), materialized.len());
        for (op, id) in sink.ops.iter().zip(materialized.op_ids()) {
            let want = materialized.op(id);
            let (src, dst, offset, bytes, kind, chunk, deps) = op;
            prop_assert_eq!(*src, want.src);
            prop_assert_eq!(*dst, want.dst);
            prop_assert_eq!(*offset, want.offset);
            prop_assert_eq!(*bytes, want.bytes);
            prop_assert_eq!(*kind, want.kind);
            prop_assert_eq!(*chunk, want.chunk);
            prop_assert_eq!(deps.as_slice(), materialized.deps(id));
        }
    }

    /// Through the engines — healthy or under a random static fault mask —
    /// the streamed run returns exactly what the materialized run returns:
    /// the same timing on success, the same diagnostic on failure.
    #[test]
    fn streamed_run_equals_materialized_under_fault_masks(
        side in 3usize..7,
        algo in 0usize..ALGOS.len(),
        data_kb in 16u64..128,
        dead_links in 0usize..3,
        degrade in 0usize..2,
        victim in 0usize..1024,
    ) {
        let mesh = Mesh::square(side).unwrap();
        let a = ALGOS[algo];
        let d = data_kb * 1024;
        if a.schedule_with(&mesh, d, &opts()).is_err() {
            return Ok(());
        }

        let mut noc = NocConfig::paper_default();
        let links: Vec<_> = mesh.links().collect();
        for k in 0..dead_links {
            let (_, _, l) = links[(victim + k * 37) % links.len()];
            noc.faults.fail_link(l);
        }
        if degrade == 1 {
            let (_, _, l) = links[(victim + 101) % links.len()];
            noc.faults.degrade_link(l, 0.5);
        }
        let engine = SimEngine::new(noc);

        let s = a.schedule_with(&mesh, d, &opts()).unwrap();
        let materialized = engine.run(&mesh, &s);
        let streamed = engine.run_streamed(&mesh, a, d, &opts());
        match (materialized, streamed) {
            (Ok(m), Ok(st)) => prop_assert_eq!(m, st),
            (Err(m), Err(st)) => prop_assert_eq!(format!("{m:?}"), format!("{st:?}")),
            (m, st) => {
                return Err(TestCaseError::fail(format!(
                    "{a} on {side}x{side}: materialized {m:?} vs streamed {st:?}"
                )));
            }
        }
    }
}
