//! Property test for the online fault/repair orchestrator: for arbitrary
//! meshes, algorithms, and fault arrival times, [`SimEngine::run_online`]
//! must terminate in one of its typed verdicts — a completed run, a
//! cleanly-audited online repair, or a typed infeasibility — and never
//! panic, hang, or report a dirty invariant audit. The verdict and timing
//! must also be reproducible: host time spent on repair never reaches the
//! simulated result, and the per-packet loop alone reaches the same
//! verdict and the same result bits as the default engine, whichever
//! engine carried each segment.

use meshcoll_collectives::{Algorithm, ScheduleOptions};
use meshcoll_noc::NocConfig;
use meshcoll_sim::{OnlineOptions, RunResult, RunStatus, SimEngine, SimMode};
use meshcoll_topo::{Mesh, NodeId};
use proptest::prelude::*;

const ALGOS: [Algorithm; 4] = [
    Algorithm::Ring,
    Algorithm::RingBiOdd,
    Algorithm::MultiTree,
    Algorithm::Tto,
];

fn opts() -> ScheduleOptions {
    ScheduleOptions {
        tto_chunk_bytes: 2400,
        ..ScheduleOptions::default()
    }
}

/// Everything two runs of one point must agree on except the host-timed
/// repair telemetry: the verdict and, after a live repair, its attempts,
/// lost bytes and resumed ops.
fn verdict(status: &RunStatus) -> String {
    match status {
        RunStatus::RepairedOnline {
            attempts,
            lost_bytes,
            resumed_ops,
            ..
        } => {
            format!("repaired online: {attempts} attempts, {lost_bytes} B lost, {resumed_ops} ops")
        }
        other => format!("{other:?}"),
    }
}

/// A result's fields as raw bits, so equality is bit-identity.
fn bits(result: Option<&RunResult>) -> Option<[u64; 3]> {
    result.map(|r| {
        [
            r.total_time_ns.to_bits(),
            r.link_utilization_percent.to_bits(),
            r.used_link_percent.to_bits(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn run_online_always_reaches_a_typed_verdict(
        side in 3usize..6,
        algo in 0usize..ALGOS.len(),
        fault_kind in 0usize..2,
        victim in 0usize..25,
        at_ns in 0.0f64..400_000.0,
        data_kb in 24u64..120,
    ) {
        let mesh = Mesh::square(side).unwrap();
        let a = ALGOS[algo];
        let kill_link = fault_kind == 0;
        let d = data_kb * 1000;
        // Skip algorithm/mesh combinations the constructor rejects
        // (e.g. RingBiOdd on an even mesh) — applicability is not under
        // test here.
        if a.schedule_with(&mesh, d, &opts()).is_err() {
            return Ok(());
        }

        let mut noc = NocConfig::paper_default();
        if kill_link {
            let links: Vec<_> = mesh.links().collect();
            let (_, _, link) = links[victim % links.len()];
            noc.timeline.link_dies_at(link, at_ns);
        } else {
            noc.timeline.chiplet_dies_at(NodeId(victim % mesh.nodes()), at_ns);
        }
        let e = SimEngine::new(noc.clone());
        let run = e
            .run_online(&mesh, a, d, &opts(), &OnlineOptions::audited())
            .expect("run_online returns a verdict, not an error");

        // The simulated result is a pure function of the inputs: a second,
        // unaudited call reproduces it bit for bit, however long the host
        // took to repair either time.
        let again = e
            .run_online(&mesh, a, d, &opts(), &OnlineOptions::default())
            .expect("second run_online call");
        prop_assert_eq!(verdict(&again.status), verdict(&run.status));
        prop_assert_eq!(bits(again.result.as_ref()), bits(run.result.as_ref()));
        // The per-packet loop on its own reaches the verdict and the result
        // the default engine reaches with the fast path.
        let per_packet = SimEngine::new(noc)
            .with_mode(SimMode::PerPacket)
            .run_online(&mesh, a, d, &opts(), &OnlineOptions::default())
            .expect("per-packet run_online");
        prop_assert_eq!(verdict(&per_packet.status), verdict(&run.status));
        prop_assert_eq!(bits(per_packet.result.as_ref()), bits(run.result.as_ref()));

        match run.status {
            RunStatus::Completed => {
                // The fault arrived after the collective finished (or
                // missed its routes); the timing must be real.
                let r = run.result.expect("completed run has timing");
                prop_assert!(r.total_time_ns > 0.0);
            }
            RunStatus::RepairedOnline { at_ns: fault_at, attempts, .. } => {
                prop_assert!(attempts >= 1);
                prop_assert!(fault_at >= 0.0);
                let r = run.result.expect("repaired run has timing");
                prop_assert!(r.total_time_ns > 0.0);
                let audit = run.audit.expect("audited run has a report");
                prop_assert!(
                    audit.is_clean(),
                    "{a} on {side}x{side}, fault at {at_ns}: {:?}",
                    audit.violations
                );
            }
            RunStatus::Infeasible { reason } => {
                // Survivable dead-ends must carry a reason and no timing.
                prop_assert!(!reason.is_empty());
                prop_assert!(run.result.is_none());
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "unexpected verdict {other:?}"
                )));
            }
        }
    }
}
