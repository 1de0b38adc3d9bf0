//! Online fault-arrival ablation: kill a live link or chiplet *mid-run* at
//! 25/50/75% of each algorithm's healthy makespan and time the detect →
//! drain → repair → resume loop ([`meshcoll_sim::SimEngine::run_online`]).
//!
//! For every scenario the run must land in a typed verdict, and every
//! audited repair must pass the online audit: each segment's trace keeps
//! byte conservation, splice causality and dead-link exclusivity, and its
//! per-packet re-run reports the kept run's completions, busy time and
//! drain snapshot bit for bit (engine identity). The binary **panics** on
//! any violated expectation, so CI can run it as a chaos gate: a non-zero
//! exit means the online repair path broke an invariant. Each record notes
//! the engine that carried the scenario's first segment
//! (`first_segment_trains`: 1 for the packet-train fast path, 0 for the
//! per-packet loop).
//!
//! Scenarios per algorithm:
//!
//! - `link@25/50/75`: the directed link with the latest remaining traffic
//!   dies at that fraction of the healthy makespan. The prefix of the run
//!   is byte-identical to the healthy run, so the kill is guaranteed to
//!   interrupt — the expectation is a clean [`RunStatus::RepairedOnline`].
//! - `chiplet@50`: an interior chiplet dies mid-run. Survivable unless the
//!   victim's unmerged partial sum is unrecoverable, so the expectation is
//!   a clean repair *or* a typed infeasibility naming the lost data.
//! - `partition@25`: both directed link pairs out of corner (0,0) die,
//!   isolating a surviving contributor. Expectation: typed
//!   [`RunStatus::Infeasible`] naming the partition.

use std::collections::HashMap;

use meshcoll_bench::{
    fmt_bytes, mib, rule, Cli, Mesh, NocConfig, Record, ScheduleOptions, SimContext, SweepSize,
};
use meshcoll_collectives::{Algorithm, Schedule};
use meshcoll_noc::{Engine, MemorySink, Message, MsgId, PacketSim, TraceEvent, Violation};
use meshcoll_sim::{OnlineOptions, RunStatus};
use meshcoll_topo::{Coord, FaultTimeline, LinkId};

const FRACS: [f64; 3] = [0.25, 0.5, 0.75];

/// One fault scenario applied to one algorithm's run.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Kill the link with the latest remaining traffic at
    /// `frac * healthy_makespan`.
    Link {
        /// Fraction of the healthy makespan at which the link dies.
        frac: f64,
    },
    /// Kill interior chiplet (2,2) once half of its adjacent traffic has
    /// drained.
    Chiplet,
    /// Kill all four directed links out of / into corner (0,0), isolating
    /// a surviving contributor.
    Partition,
}

impl Scenario {
    fn label(self) -> String {
        match self {
            Scenario::Link { frac } => format!("link@{:.0}%", frac * 100.0),
            Scenario::Chiplet => "chiplet@50%".to_string(),
            Scenario::Partition => "partition@25%".to_string(),
        }
    }
}

/// The healthy (fault-free) run profile a scenario is anchored on.
struct Healthy {
    makespan_ns: f64,
    /// Per directed link, the latest packet-start time observed.
    last_start: HashMap<LinkId, f64>,
}

/// Lowers a schedule to the simulator's message DAG (same mapping as the
/// engine: one message per op, dependencies preserved).
fn messages_for(schedule: &Schedule) -> Vec<Message> {
    schedule
        .op_ids()
        .map(|id| {
            let op = schedule.op(id);
            let deps = schedule.deps(id).iter().map(|d| MsgId(d.0 as usize));
            Message::new(MsgId(id.0 as usize), op.src, op.dst, op.bytes).with_deps(deps)
        })
        .collect()
}

/// Runs the schedule fault-free under a traced packet sim and reduces the
/// event stream to the per-link latest-start profile.
fn healthy_profile(mesh: &Mesh, schedule: &Schedule) -> Healthy {
    let mut sink = MemorySink::new();
    let out = PacketSim::new(NocConfig::paper_default())
        .simulate_traced(mesh, &messages_for(schedule), &mut sink)
        .expect("healthy run simulates");
    let mut last_start: HashMap<LinkId, f64> = HashMap::new();
    let mut note = |link: LinkId, at: f64| {
        let e = last_start.entry(link).or_insert(at);
        *e = e.max(at);
    };
    for ev in sink.events() {
        match *ev {
            TraceEvent::PacketHop { link, start_ns, .. } => note(link, start_ns),
            TraceEvent::TrainHop {
                link,
                last_start_ns,
                ..
            }
            | TraceEvent::TrainSplit {
                link,
                last_start_ns,
                ..
            } => note(link, last_start_ns),
            _ => {}
        }
    }
    Healthy {
        makespan_ns: out.makespan_ns(),
        last_start,
    }
}

/// The directed link with the latest activity at or after `t_ns` — killing
/// it at `t_ns` is guaranteed to interrupt the run, because the pre-fault
/// prefix is identical to the healthy run.
fn link_active_after(h: &Healthy, t_ns: f64) -> LinkId {
    let (&link, _) = h
        .last_start
        .iter()
        .filter(|&(_, &at)| at >= t_ns)
        .max_by(|a, b| a.1.total_cmp(b.1).then(a.0 .0.cmp(&b.0 .0)))
        .unwrap_or_else(|| panic!("no link active after {t_ns} ns"));
    link
}

/// Builds the fault timeline for one scenario. Returns `None` when the
/// scenario does not apply (no adjacent traffic to anchor on).
fn timeline_for(mesh: &Mesh, h: &Healthy, sc: Scenario) -> FaultTimeline {
    let mut tl = FaultTimeline::default();
    match sc {
        Scenario::Link { frac } => {
            let t = frac * h.makespan_ns;
            tl.link_dies_at(link_active_after(h, t), t);
        }
        Scenario::Chiplet => {
            let victim = mesh.node_at(Coord::new(2, 2));
            let latest = mesh
                .links()
                .filter(|&(a, b, _)| a == victim || b == victim)
                .filter_map(|(_, _, l)| h.last_start.get(&l))
                .fold(0.0f64, |acc, &at| acc.max(at));
            tl.chiplet_dies_at(victim, 0.5 * latest.max(1.0));
        }
        Scenario::Partition => {
            let corner = mesh.node_at(Coord::new(0, 0));
            let right = mesh.node_at(Coord::new(0, 1));
            let below = mesh.node_at(Coord::new(1, 0));
            let mut latest = 0.0f64;
            for (a, b) in [
                (corner, right),
                (right, corner),
                (corner, below),
                (below, corner),
            ] {
                let l = mesh.link_between(a, b).expect("corner links exist");
                latest = latest.max(h.last_start.get(&l).copied().unwrap_or(0.0));
                tl.link_dies_at(l, 0.25 * h.makespan_ns);
            }
            assert!(
                latest >= 0.25 * h.makespan_ns,
                "corner traffic drains before the partition fires"
            );
        }
    }
    tl
}

/// One finished scenario row.
struct Row {
    algo: &'static str,
    scenario: String,
    status: String,
    healthy_ns: f64,
    total_ns: f64,
    repair_ns: f64,
    attempts: usize,
    lost_bytes: u64,
    audit_clean: bool,
    /// The engine that carried the first segment.
    first_engine: Option<Engine>,
}

fn main() {
    let cli = Cli::parse();
    let data = match cli.sweep {
        SweepSize::Quick => mib(1),
        SweepSize::Default => mib(16),
        SweepSize::Full => mib(64),
    };
    let mesh = Mesh::square(5).expect("5x5 mesh");
    let opts = ScheduleOptions::default();
    let ctx = SimContext::new();

    let algorithms = [
        Algorithm::Ring,
        Algorithm::RingBiOdd,
        Algorithm::MultiTree,
        Algorithm::Tto,
    ];
    let scenarios: Vec<Scenario> = FRACS
        .iter()
        .map(|&frac| Scenario::Link { frac })
        .chain([Scenario::Chiplet, Scenario::Partition])
        .collect();

    println!(
        "Online fault ablation: {mesh}, {} AllReduce, fault mid-run",
        fmt_bytes(data)
    );
    println!(
        "{:<10} {:<13} {:<16} {:>10} {:>10} {:>9} {:>8} {:>9}  {:<6} first segment",
        "algo", "scenario", "status", "healthy", "total", "repair", "attempts", "lost", "audit"
    );
    rule(112);

    // Healthy profiles are shared across scenarios; compute them once.
    let profiles: Vec<(Algorithm, Healthy)> = algorithms
        .iter()
        .map(|&a| {
            let s = a
                .schedule_with(&mesh, data, &opts)
                .expect("algorithm applies to 5x5");
            (a, healthy_profile(&mesh, &s))
        })
        .collect();

    let points: Vec<(usize, Scenario)> = profiles
        .iter()
        .enumerate()
        .flat_map(|(i, _)| scenarios.iter().map(move |&sc| (i, sc)))
        .collect();

    let rows: Vec<Row> = cli.runner().run(&points, |&(i, sc)| {
        let (algo, ref healthy) = profiles[i];
        let mut cfg = NocConfig::paper_default();
        cfg.timeline = timeline_for(&mesh, healthy, sc);
        let run = ctx
            .engine(cfg)
            .run_online(&mesh, algo, data, &opts, &OnlineOptions::audited())
            .expect("run_online returns a verdict");

        let audit_clean = run
            .audit
            .as_ref()
            .is_none_or(meshcoll_noc::TraceAudit::is_clean);
        let (status, repair_ns, attempts, lost_bytes) = match &run.status {
            RunStatus::Completed => ("Completed".to_string(), 0.0, 0, 0),
            RunStatus::RepairedOnline {
                repair_ns,
                attempts,
                lost_bytes,
                ..
            } => (
                "RepairedOnline".to_string(),
                *repair_ns,
                *attempts,
                *lost_bytes,
            ),
            RunStatus::Infeasible { reason } => (format!("Infeasible: {reason}"), 0.0, 0, 0),
            other => panic!("{algo:?} {sc:?}: unexpected verdict {other:?}"),
        };

        // Chaos-gate expectations — panic (non-zero exit) on any breach.
        let violations = run.audit.as_ref().map_or(&[][..], |a| &a.violations[..]);
        if let Some(v) = violations
            .iter()
            .find(|v| matches!(v, Violation::EngineMismatch { .. }))
        {
            panic!("{algo:?} {sc:?}: the fast path differs from the per-packet engine: {v}");
        }
        assert!(
            audit_clean,
            "{algo:?} {sc:?}: trace invariant audit reported violations: {violations:?}"
        );
        match sc {
            Scenario::Link { .. } => assert!(
                matches!(run.status, RunStatus::RepairedOnline { .. }),
                "{algo:?} {sc:?}: engineered link death must repair online, got {status}"
            ),
            Scenario::Chiplet => assert!(
                matches!(run.status, RunStatus::RepairedOnline { .. })
                    || matches!(run.status, RunStatus::Infeasible { reason }
                        if reason.contains("unrecoverable")),
                "{algo:?} {sc:?}: chiplet death must repair or name the lost data, got {status}"
            ),
            Scenario::Partition => assert!(
                matches!(run.status, RunStatus::Infeasible { .. }),
                "{algo:?} {sc:?}: partitioning fault must be typed infeasible, got {status}"
            ),
        }

        Row {
            algo: algo.name(),
            scenario: sc.label(),
            status,
            healthy_ns: healthy.makespan_ns,
            total_ns: run.result.map_or(0.0, |r| r.total_time_ns),
            repair_ns,
            attempts,
            lost_bytes,
            audit_clean,
            first_engine: run.engines.first().copied(),
        }
    });

    let mut records = Vec::new();
    for r in &rows {
        let engine = match r.first_engine {
            Some(Engine::Trains) => "trains".to_string(),
            Some(Engine::PerPacket(why)) => format!("per packet ({why:?})"),
            None => "-".to_string(),
        };
        println!(
            "{:<10} {:<13} {:<16} {:>9.0}n {:>9.0}n {:>8.0}n {:>8} {:>9}  {:<6} {engine}",
            r.algo,
            r.scenario,
            r.status.split(':').next().unwrap_or(&r.status),
            r.healthy_ns,
            r.total_ns,
            r.repair_ns,
            r.attempts,
            r.lost_bytes,
            if r.audit_clean { "clean" } else { "DIRTY" }
        );
        records.push(
            Record::new(
                "ablation_online_faults",
                &mesh.to_string(),
                r.algo,
                &r.scenario,
            )
            .with("healthy_ns", r.healthy_ns)
            .with("total_ns", r.total_ns)
            .with("repair_ns", r.repair_ns)
            .with("attempts", r.attempts as f64)
            .with("lost_bytes", r.lost_bytes as f64)
            .with("audit_clean", f64::from(u8::from(r.audit_clean)))
            .with(
                "first_segment_trains",
                f64::from(u8::from(r.first_engine == Some(Engine::Trains))),
            ),
        );
    }
    rule(112);
    println!(
        "all {} scenarios reached their expected verdicts with clean audits",
        rows.len()
    );
    cli.save("ablation_online_faults", &records);
}
