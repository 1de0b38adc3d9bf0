//! Property tests on the packet simulator: physical sanity bounds that must
//! hold for arbitrary message DAGs.

use meshcoll_noc::{InvariantAuditor, Message, MsgId, NetworkSim, NocConfig, PacketSim};
use meshcoll_topo::{Mesh, NodeId};
use proptest::prelude::*;

/// Arbitrary DAG: deps only point backward, endpoints within a 4x4 mesh.
fn messages_strategy() -> impl Strategy<Value = Vec<Message>> {
    prop::collection::vec(
        (0usize..16, 0usize..16, 1u64..200_000, 0.0f64..10_000.0),
        1..24,
    )
    .prop_map(|raw| {
        let mut msgs = Vec::new();
        for (i, (s, d, bytes, ready)) in raw.into_iter().enumerate() {
            let dst = if s == d { (d + 1) % 16 } else { d };
            let mut m = Message::new(MsgId(i), NodeId(s), NodeId(dst), bytes).with_ready_at(ready);
            if i > 0 && i % 3 == 0 {
                m = m.with_deps([MsgId(i - 1)]);
            }
            msgs.push(m);
        }
        msgs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn physical_bounds_hold(msgs in messages_strategy()) {
        let mesh = Mesh::square(4).unwrap();
        let cfg = NocConfig::paper_default();
        let out = PacketSim::new(cfg.clone()).run(&mesh, &msgs).unwrap();

        for m in &msgs {
            let t = out.completion_ns(m.id).expect("simulated");
            // Completion respects readiness plus the zero-load latency.
            let hops = mesh.distance(m.src, m.dst) as f64;
            let min = m.ready_at_ns
                + cfg.serialization_ns(m.bytes.min(cfg.packet_bytes))
                + hops * cfg.per_flit_latency_ns;
            prop_assert!(t >= min - 1e-6, "{}: {t} < {min}", m.id);
            // Dependencies strictly precede dependents.
            for d in &m.deps {
                prop_assert!(out.completion_ns(*d).expect("simulated") < t);
            }
        }

        // No link can be busier than the makespan.
        let stats = out.link_stats();
        for (_, _, l) in mesh.links() {
            prop_assert!(stats.busy_ns(l) <= out.makespan_ns() + 1e-6);
        }
        prop_assert!(stats.utilization_percent(out.makespan_ns()) <= 100.0 + 1e-9);
    }

    // Dependency chains never interleave two trains on a link (at most one
    // message is in flight at a time), so the coalescing fast path must
    // accept them — and its completions and busy time must equal the exact
    // per-packet engine's bit for bit, so it can never beat it. The
    // reference's own trace streams through the invariant auditor.
    #[test]
    fn fast_path_never_beats_reference_on_contention_free_dags(
        raw in prop::collection::vec((0usize..16, 0usize..16, 1u64..400_000), 1..10),
        ready0 in 0.0f64..5_000.0,
    ) {
        let mesh = Mesh::square(4).unwrap();
        let msgs: Vec<Message> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (s, d, bytes))| {
                let dst = if s == d { (d + 1) % 16 } else { d };
                let m = Message::new(MsgId(i), NodeId(s), NodeId(dst), bytes);
                if i == 0 {
                    m.with_ready_at(ready0)
                } else {
                    m.with_deps([MsgId(i - 1)])
                }
            })
            .collect();
        let sim = PacketSim::new(NocConfig::paper_default());
        let fast = sim
            .run_coalesced(&mesh, &msgs)
            .unwrap()
            .expect("chain DAGs are contention-free; the fast path must accept");
        let mut auditor = InvariantAuditor::new();
        let exact = sim.run_reference_traced(&mesh, &msgs, &mut auditor).unwrap();

        prop_assert_eq!(
            fast.makespan_ns().to_bits(),
            exact.makespan_ns().to_bits(),
            "fast {} vs reference {}",
            fast.makespan_ns(),
            exact.makespan_ns()
        );
        for m in &msgs {
            let (a, b) = (
                fast.completion_ns(m.id).expect("simulated"),
                exact.completion_ns(m.id).expect("simulated"),
            );
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: fast {} vs reference {}", m.id, a, b);
        }
        for (_, _, l) in mesh.links() {
            let (a, b) = (fast.link_stats().busy_ns(l), exact.link_stats().busy_ns(l));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}: busy {} vs {}", l, a, b);
        }

        let audit = auditor.finish();
        prop_assert!(audit.is_clean(), "reference audit: {:?}", audit.violations);
    }

    #[test]
    fn makespan_is_monotone_in_message_size(bytes in 1u64..1_000_000) {
        let mesh = Mesh::new(1, 2).unwrap();
        let run = |b: u64| {
            PacketSim::new(NocConfig::paper_default())
                .run(&mesh, &[Message::new(MsgId(0), NodeId(0), NodeId(1), b)])
                .unwrap()
                .makespan_ns()
        };
        prop_assert!(run(bytes + 1) >= run(bytes));
    }
}
