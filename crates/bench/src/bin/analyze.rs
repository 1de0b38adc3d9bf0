//! Analyze — static lower-bound sweep over every benchmark algorithm.
//!
//! Runs the static schedule analyzer on each applicable algorithm's
//! schedule for every paper mesh (3×3 through 8×8; `--quick` stops at
//! 5×5), healthy and fault-repaired, then simulates the same schedule and
//! reports bound tightness (simulated makespan over the best certified
//! lower bound). Any simulated makespan below a static bound aborts the
//! run with a nonzero exit — the analyzer's certificates must never claim
//! more than the physics delivers.
//!
//! Also demonstrates the two static rejection paths the synthesis pruning
//! oracle relies on: a hand-built cyclic message DAG rejected with its
//! cycle named, and a schedule routed over dead hardware rejected before
//! engine dispatch. Finishes by timing `analyze` itself, since its cost
//! ceiling is what makes it usable as a pruning oracle.

use std::time::Instant;

use meshcoll_bench::{
    applicable_benchmarks, fmt_bytes, mib, Cli, Mesh, NocConfig, Record, ScheduleOptions,
    SimEngine, SweepSize,
};
use meshcoll_collectives::{fault, Algorithm, CollectiveError, Schedule};
use meshcoll_noc::{Message, MsgId};
use meshcoll_sim::analyzer::{analyze, analyze_messages, AnalysisIssue, Report};
use meshcoll_sim::{RunOptions, SimError};
use meshcoll_topo::{Coord, NodeId};

fn main() {
    let cli = Cli::parse();
    let max_side = match cli.sweep {
        SweepSize::Quick => 5,
        SweepSize::Default | SweepSize::Full => 8,
    };
    let data = mib(1);
    let opts = ScheduleOptions::default();
    let mut records = Vec::new();
    let mut violations = 0usize;

    println!(
        "Analyze: static lower bounds vs simulation, meshes 3x3..{max_side}x{max_side}, {} AllReduce data",
        fmt_bytes(data)
    );
    println!(
        "{:<8} {:<12} {:<10} {:>12} {:>12} {:>10}",
        "mesh", "algorithm", "scenario", "sim ns", "bound ns", "tightness"
    );

    for side in 3..=max_side {
        let mesh = Mesh::square(side).expect("paper meshes are constructible");
        // Fault scenario: a central link dead in both directions.
        let a = mesh.node_at(Coord::new(side / 2, side / 2));
        let b = mesh.node_at(Coord::new(side / 2, side / 2 + 1));
        let mut faulted = NocConfig::paper_default();
        faulted
            .faults
            .fail_link_between(&mesh, a, b)
            .expect("central link exists");

        for algo in applicable_benchmarks(&mesh) {
            // Healthy schedule on the healthy package.
            let engine = SimEngine::paper_default();
            let schedule = algo
                .schedule(&mesh, data)
                .unwrap_or_else(|e| panic!("{algo} on {mesh}: {e}"));
            let tightness = check_point(
                &engine,
                &mesh,
                algo,
                "healthy",
                &schedule,
                &mut records,
                &mut violations,
            );
            if side == 5 && matches!(algo, Algorithm::Ring | Algorithm::Tto) {
                assert!(
                    tightness <= 3.0,
                    "{algo} on 5x5: bound tightness {tightness:.2} exceeds the 3x ceiling"
                );
            }

            // Repaired schedule on the degraded package.
            match fault::repair(algo, &mesh, &faulted.faults, data, &opts) {
                Ok(rep) => {
                    let engine = SimEngine::new(faulted.clone());
                    check_point(
                        &engine,
                        &mesh,
                        algo,
                        "dead link",
                        &rep.schedule,
                        &mut records,
                        &mut violations,
                    );
                }
                // One dead link never disconnects a mesh: every algorithm with a
                // repair strategy must repair it.
                Err(CollectiveError::Infeasible {
                    reason: reason @ fault::NO_REPAIR_STRATEGY,
                }) => {
                    println!(
                        "{:<8} {:<12} {:<10} {:>12} {:>12} {:>10}  ({reason})",
                        mesh.to_string(),
                        algo.name(),
                        "dead link",
                        "-",
                        "-",
                        "no repair"
                    );
                }
                Err(e) => panic!("{algo} repair on {mesh}: {e}"),
            }
        }
        println!();
    }

    demonstrate_cycle_rejection();
    demonstrate_dead_route_rejection();
    time_the_oracle(&mut records);

    cli.save("analyze", &records);
    assert_eq!(
        violations, 0,
        "{violations} schedules simulated below a certified lower bound"
    );
    println!("(expected: every simulated makespan at or above its certified lower bound)");
}

/// Analyzes and simulates one (mesh, schedule) point, printing and
/// recording the tightness of the best bound. Returns the tightness.
fn check_point(
    engine: &SimEngine,
    mesh: &Mesh,
    algo: Algorithm,
    scenario: &str,
    schedule: &Schedule,
    records: &mut Vec<Record>,
    violations: &mut usize,
) -> f64 {
    let report = analyze(mesh, schedule, engine.noc());
    assert!(
        report.is_feasible(),
        "{algo} {scenario} on {mesh}: analyzer rejected a runnable schedule: {:?}",
        report.issues
    );
    let run = engine
        .run(mesh, schedule)
        .unwrap_or_else(|e| panic!("{algo} {scenario} on {mesh}: {e}"));
    let makespan = run.total_time_ns;
    for (name, bound) in report.bounds() {
        if makespan < bound * (1.0 - 1e-9) - 1e-6 {
            eprintln!(
                "  VIOLATION [{mesh} {} {scenario}]: makespan {makespan} ns below {name} bound {bound} ns",
                algo.name()
            );
            *violations += 1;
        }
    }
    let best = report.lower_bound_ns();
    let tightness = if best > 0.0 {
        makespan / best
    } else {
        f64::NAN
    };
    println!(
        "{:<8} {:<12} {:<10} {:>12.0} {:>12.0} {:>9.2}x",
        mesh.to_string(),
        algo.name(),
        scenario,
        makespan,
        best,
        tightness
    );
    let mut rec = Record::new("analyze", &mesh.to_string(), algo.name(), scenario)
        .with("makespan_ns", makespan)
        .with("lower_bound_ns", best)
        .with("tightness", tightness);
    for (name, bound) in report.bounds() {
        rec = rec.with(&format!("bound_{name}_ns"), bound);
    }
    records.push(rec);
    tightness
}

/// A hand-built three-message dependency cycle must be rejected statically
/// with the cycle named — no engine, no stall watchdog.
fn demonstrate_cycle_rejection() {
    let mesh = Mesh::square(3).expect("3x3 mesh");
    let msgs = [
        Message::new(MsgId(0), NodeId(0), NodeId(1), 4096).with_deps([MsgId(2)]),
        Message::new(MsgId(1), NodeId(1), NodeId(2), 4096).with_deps([MsgId(0)]),
        Message::new(MsgId(2), NodeId(2), NodeId(3), 4096).with_deps([MsgId(1)]),
    ];
    let report = analyze_messages(&mesh, &msgs, &NocConfig::paper_default());
    assert!(!report.is_feasible(), "cyclic DAG must be rejected");
    let cycle = report
        .issues
        .iter()
        .find(|i| matches!(i, AnalysisIssue::DependencyCycle { .. }))
        .expect("the cycle must be named");
    println!("[static rejection] hand-built cyclic DAG: {cycle}");
}

/// A schedule routed over a dead link must be rejected before engine
/// dispatch when `RunOptions::statically_checked()` is in force.
fn demonstrate_dead_route_rejection() {
    let mesh = Mesh::square(3).expect("3x3 mesh");
    let schedule = Algorithm::Ring
        .schedule(&mesh, 4096)
        .expect("Ring applies to 3x3");
    let mut noc = NocConfig::paper_default();
    noc.faults
        .fail_link_between(&mesh, NodeId(0), NodeId(1))
        .expect("edge link exists");
    let engine = SimEngine::new(noc);
    match engine.run_with(&mesh, &schedule, &RunOptions::statically_checked()) {
        Err(SimError::Static { issues }) => {
            println!(
                "[static rejection] Ring over a dead link: {} issues, first: {}",
                issues.len(),
                issues.first().expect("at least one issue")
            );
        }
        Ok(_) => panic!("dead-route schedule must be rejected statically"),
        Err(e) => panic!("expected a static rejection, got: {e}"),
    }
}

/// Times `analyze` on the 5×5 TTO schedule — the oracle must stay cheap
/// enough to prune candidate schedules inside a synthesis loop.
fn time_the_oracle(records: &mut Vec<Record>) {
    let mesh = Mesh::square(5).expect("5x5 mesh");
    let schedule = Algorithm::Tto
        .schedule(&mesh, mib(1))
        .expect("TTO applies to 5x5");
    let noc = NocConfig::paper_default();
    let reps = 200u32;
    // One warm-up call keeps allocator effects out of the measurement.
    let mut best: Option<Report> = Some(analyze(&mesh, &schedule, &noc));
    let start = Instant::now();
    for _ in 0..reps {
        best = Some(analyze(&mesh, &schedule, &noc));
    }
    let per_call_ns = start.elapsed().as_nanos() as f64 / f64::from(reps);
    let ops = schedule.len();
    println!(
        "[oracle cost] analyze(TTO 5x5, {ops} ops): {per_call_ns:.0} ns/call ({:.0} ns/op), bound {:.0} ns",
        per_call_ns / ops as f64,
        best.expect("at least one rep").lower_bound_ns()
    );

    // A synthesis loop prunes small candidate DAGs, not full schedules:
    // time that shape too (one chunk exchanged along a candidate route).
    let candidate: Vec<Message> = (0..4)
        .map(|i| {
            let m = Message::new(MsgId(i), NodeId(i), NodeId(i + 1), 8192);
            if i == 0 {
                m
            } else {
                m.with_deps([MsgId(i - 1)])
            }
        })
        .collect();
    let cand_reps = 10_000u32;
    let mut last = analyze_messages(&mesh, &candidate, &noc);
    let start = Instant::now();
    for _ in 0..cand_reps {
        last = analyze_messages(&mesh, &candidate, &noc);
    }
    let cand_ns = start.elapsed().as_nanos() as f64 / f64::from(cand_reps);
    println!(
        "[oracle cost] analyze_messages(4-message candidate): {cand_ns:.0} ns/call, bound {:.0} ns",
        last.lower_bound_ns()
    );
    records.push(
        Record::new("analyze", "5x5", "tto", "oracle-cost")
            .with("analyze_ns", per_call_ns)
            .with("analyze_ns_per_op", per_call_ns / ops as f64)
            .with("candidate_analyze_ns", cand_ns),
    );
}
