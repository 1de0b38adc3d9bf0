//! Steady-state simulation must not touch the allocator.
//!
//! After a warmup run has sized every reusable pool (route cache, run and
//! worker scratch, event-queue buckets, curve arena, outcome buffers),
//! repeated `simulate`/`recycle` cycles on the same workload must perform
//! zero allocator acquisitions, and so must `SimEngine::run`, which reads
//! the schedule in place. [`CountingAlloc`] is installed as this binary's
//! global allocator to make the property a hard assertion; the file holds
//! exactly one test so no concurrent test can pollute the counters.

use meshcoll_collectives::Algorithm;
use meshcoll_noc::{Message, MsgId, NocConfig, PacketSim};
use meshcoll_sim::SimEngine;
use meshcoll_topo::Mesh;
use meshcoll_util::alloc::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_simulate_recycle_performs_zero_allocations() {
    let mesh = Mesh::square(5).expect("5x5 mesh");
    // 16 MB stays entirely on the packet-train fast path (the per-packet
    // fallback is exempt from the zero-alloc contract: a declined DAG
    // re-runs through the reference engine, which builds its per-packet
    // state afresh).
    let schedule = Algorithm::Tto
        .schedule(&mesh, 16 << 20)
        .expect("TTO 16MB schedule");
    let messages: Vec<Message> = schedule
        .op_ids()
        .map(|id| {
            let op = schedule.op(id);
            let deps = schedule.deps(id).iter().map(|d| MsgId(d.0 as usize));
            Message::new(MsgId(id.0 as usize), op.src, op.dst, op.bytes).with_deps(deps)
        })
        .collect();

    let sim = PacketSim::new(NocConfig::paper_default());
    for _ in 0..3 {
        let out = sim.simulate(&mesh, &messages).expect("warmup run");
        sim.recycle(out);
    }

    let before = ALLOC.stats();
    let reps = 5;
    for _ in 0..reps {
        let out = sim.simulate(&mesh, &messages).expect("steady-state run");
        sim.recycle(out);
    }
    assert_no_churn(
        &ALLOC.stats().since(&before),
        &format!("{reps} simulate/recycle cycles"),
    );

    // The engine simulates the schedule in place, with no lowered copy: a
    // warmed `SimEngine::run` allocates and frees nothing either.
    let engine = SimEngine::new(NocConfig::paper_default());
    let warm = engine.run(&mesh, &schedule).expect("warmup engine run");
    for _ in 0..2 {
        engine.run(&mesh, &schedule).expect("warmup engine run");
    }
    let before = ALLOC.stats();
    for _ in 0..reps {
        let run = engine
            .run(&mesh, &schedule)
            .expect("steady-state engine run");
        assert_eq!(run.total_time_ns.to_bits(), warm.total_time_ns.to_bits());
    }
    assert_no_churn(
        &ALLOC.stats().since(&before),
        &format!("{reps} SimEngine::run calls"),
    );
}

/// Asserts a steady-state loop neither acquired nor freed heap memory.
fn assert_no_churn(delta: &AllocStats, what: &str) {
    assert_eq!(
        delta.total_acquisitions(),
        0,
        "steady-state hot loop allocated: {} allocs + {} reallocs \
         ({} bytes) across {what}",
        delta.allocations,
        delta.reallocations,
        delta.bytes_allocated,
    );
    assert_eq!(
        delta.deallocations, 0,
        "steady-state hot loop freed memory ({} deallocs) across {what}, so \
         something is churning pool buffers instead of reusing them",
        delta.deallocations
    );
}
