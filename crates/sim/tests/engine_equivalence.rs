//! Golden equivalence tests through the full schedule pipeline: every
//! collective schedule this workspace generates must time identically, bit
//! for bit, whether the packet engine runs in `Auto` mode — the
//! packet-train fast path with per-packet fallback — or is forced onto the
//! exact per-packet reference.

use meshcoll_collectives::{Algorithm, ScheduleOptions};
use meshcoll_noc::{MemorySink, NocConfig, TraceEvent};
use meshcoll_sim::{SimEngine, SimMode};
use meshcoll_topo::Mesh;

/// Asserts two times are the same `f64`, bit for bit.
fn assert_same(a: f64, e: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        e.to_bits(),
        "{what}: auto {a} vs per-packet {e}"
    );
}

/// Times `algo` on `mesh` under both engine modes and checks the results
/// agree on makespan, per-schedule completion, and both link metrics.
fn assert_schedule_equivalent(mesh: &Mesh, algo: Algorithm, data: u64) {
    let schedule = algo
        .schedule(mesh, data)
        .unwrap_or_else(|e| panic!("{algo} schedule on {mesh}: {e}"));
    let auto = SimEngine::paper_default();
    let exact = SimEngine::paper_default().with_mode(SimMode::PerPacket);
    let (ra, ca) = auto.run_phased(mesh, &[(&schedule, 0.0)]).unwrap();
    let (re, ce) = exact.run_phased(mesh, &[(&schedule, 0.0)]).unwrap();
    let what = format!("{algo} on {mesh}");
    assert_same(ra.total_time_ns, re.total_time_ns, &what);
    assert_same(ca[0], ce[0], &format!("{what}: phase completion"));
    assert_same(
        ra.link_utilization_percent,
        re.link_utilization_percent,
        &format!("{what}: utilization"),
    );
    assert_same(
        ra.used_link_percent,
        re.used_link_percent,
        &format!("{what}: used-link"),
    );
}

#[test]
fn ring_schedules_time_identically() {
    let mesh = Mesh::square(5).unwrap();
    for data in [1 << 20, 4 << 20] {
        assert_schedule_equivalent(&mesh, Algorithm::Ring, data);
    }
}

#[test]
fn bidirectional_ring_schedules_time_identically() {
    assert_schedule_equivalent(&Mesh::square(5).unwrap(), Algorithm::RingBiOdd, 4 << 20);
    assert_schedule_equivalent(&Mesh::square(4).unwrap(), Algorithm::RingBiEven, 4 << 20);
}

#[test]
fn multitree_schedules_time_identically() {
    let mesh = Mesh::square(5).unwrap();
    for data in [1 << 20, 4 << 20] {
        assert_schedule_equivalent(&mesh, Algorithm::MultiTree, data);
    }
}

#[test]
fn tto_schedules_time_identically() {
    for n in [4usize, 5] {
        let mesh = Mesh::square(n).unwrap();
        assert_schedule_equivalent(&mesh, Algorithm::Tto, 4 << 20);
    }
}

/// Asserts the Auto engine carries `algo` at `data` bytes entirely on the
/// packet-train fast path: the trace must contain train hops and no
/// per-packet hop at all (i.e. the run did not fall back to the reference
/// engine).
fn assert_fast_path_carries(mesh: &Mesh, algo: Algorithm, data: u64) {
    let schedule = algo.schedule(mesh, data).unwrap();
    let engine = SimEngine::paper_default();
    let mut sink = MemorySink::new();
    engine.run_traced(mesh, &schedule, &mut sink).unwrap();
    let trains = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TrainHop { .. }))
        .count();
    let packets = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PacketHop { .. }))
        .count();
    assert!(
        trains > 0 && packets == 0,
        "{algo} {}MB on {mesh}: {trains} train hops, {packets} packet hops — \
         expected a pure fast-path run",
        data >> 20,
    );
}

#[test]
fn congested_tto_64mb_stays_on_fast_path() {
    // The paper's most contended schedule at full Fig 8 scale: ~97k
    // messages with same-instant injection ties on every column link. The
    // append/split tiers must keep the whole run coalesced.
    assert_fast_path_carries(&Mesh::square(5).unwrap(), Algorithm::Tto, 64 << 20);
}

#[test]
fn congested_ring_64mb_stays_on_fast_path() {
    assert_fast_path_carries(&Mesh::square(5).unwrap(), Algorithm::Ring, 64 << 20);
    assert_fast_path_carries(&Mesh::square(5).unwrap(), Algorithm::RingBiOdd, 64 << 20);
}

#[test]
fn congested_golden_schedules_time_identically() {
    // Bit-identity check at a size large enough to produce hundreds of
    // packets per train on every shared link (the 64 MB fast-path runs
    // above are cross-checked against the reference at full size by the
    // perf baseline, where the speedup gate also runs).
    let mesh = Mesh::square(5).unwrap();
    assert_schedule_equivalent(&mesh, Algorithm::Tto, 16 << 20);
    assert_schedule_equivalent(&mesh, Algorithm::Ring, 16 << 20);
}

#[test]
fn phased_overlap_runs_time_identically() {
    // Two staggered schedules sharing the network — the Fig 11 shape.
    let mesh = Mesh::square(4).unwrap();
    let s1 = Algorithm::RingBiEven.schedule(&mesh, 1 << 20).unwrap();
    let s2 = Algorithm::RingBiEven.schedule(&mesh, 2 << 20).unwrap();
    let phases = [(&s1, 0.0), (&s2, 25_000.0)];
    let (ra, ca) = SimEngine::paper_default()
        .run_phased(&mesh, &phases)
        .unwrap();
    let (re, ce) = SimEngine::paper_default()
        .with_mode(SimMode::PerPacket)
        .run_phased(&mesh, &phases)
        .unwrap();
    assert_same(ra.total_time_ns, re.total_time_ns, "phased makespan");
    for (a, e) in ca.iter().zip(&ce) {
        assert_same(*a, *e, "phase completion");
    }
}

#[test]
fn repaired_schedules_time_identically_under_faults() {
    // Fault-repair generates irregular relay-routed schedules; they must
    // agree across engine modes too.
    let mesh = Mesh::square(5).unwrap();
    let opts = ScheduleOptions::default();
    let mut noc = NocConfig::paper_default();
    noc.faults
        .fail_node(mesh.node_at(meshcoll_topo::Coord::new(2, 2)));
    for algo in [Algorithm::Ring, Algorithm::Tto] {
        let run_a = SimEngine::new(noc.clone())
            .run_degraded(&mesh, algo, 1 << 20, &opts)
            .unwrap();
        let run_e = SimEngine::new(noc.clone())
            .with_mode(SimMode::PerPacket)
            .run_degraded(&mesh, algo, 1 << 20, &opts)
            .unwrap();
        let (ta, te) = (
            run_a.result.as_ref().expect("repaired").total_time_ns,
            run_e.result.as_ref().expect("repaired").total_time_ns,
        );
        assert_same(ta, te, &format!("{algo} repaired"));
    }
}
