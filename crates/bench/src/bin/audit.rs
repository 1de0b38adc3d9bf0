//! Audit — invariant sweep over every benchmark algorithm and mesh.
//!
//! Runs each applicable algorithm's schedule on every paper mesh (3×3
//! through 8×8; `--quick` stops at 5×5), healthy and fault-repaired, once
//! on the traced per-packet reference, and streams the events through the
//! invariant auditor: bytes conserved, causality respected, directed links
//! exclusive, dependencies honored, the `Auto` engine's completions and
//! busy times equal to the reference's bit for bit, and the AllReduce
//! contract satisfied. `--full` adds healthy Ring at 16×16 and 32×32. Any
//! violation aborts the run with a nonzero exit — this binary is the
//! always-on correctness harness behind the figure sweeps.
//!
//! Also writes a demonstration JSONL trace (`audit_trace.jsonl`) of one
//! schedule, the export format documented in DESIGN.md §6.

use std::fs::File;
use std::io::BufWriter;

use meshcoll_bench::{
    applicable_benchmarks, fmt_bytes, mib, Cli, Mesh, NocConfig, Record, ScheduleOptions,
    SimEngine, SweepSize,
};
use meshcoll_collectives::{fault, Algorithm, CollectiveError};
use meshcoll_noc::JsonlSink;
use meshcoll_topo::Coord;

fn main() {
    let cli = Cli::parse();
    let max_side = match cli.sweep {
        SweepSize::Quick => 5,
        SweepSize::Default | SweepSize::Full => 8,
    };
    let data = mib(1);
    let opts = ScheduleOptions::default();
    let mut records = Vec::new();
    let mut dirty = 0usize;

    println!(
        "Audit: simulator invariants, meshes 3x3..{max_side}x{max_side}{}, {} AllReduce data",
        if cli.sweep == SweepSize::Full {
            " (+ Ring 16x16, 32x32)"
        } else {
            ""
        },
        fmt_bytes(data)
    );
    println!(
        "{:<8} {:<12} {:<10} {:>9} {:>8} {:>10}",
        "mesh", "algorithm", "scenario", "events", "checks", "violations"
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
            let report = engine
                .audit(&mesh, &schedule)
                .unwrap_or_else(|e| panic!("{algo} on {mesh}: {e}"));
            print_row(&mesh, algo, "healthy", &report, &mut records, &mut dirty);

            // Repaired schedule on the degraded package.
            match fault::repair(algo, &mesh, &faulted.faults, data, &opts) {
                Ok(rep) => {
                    let engine = SimEngine::new(faulted.clone());
                    let report = engine
                        .audit(&mesh, &rep.schedule)
                        .unwrap_or_else(|e| panic!("{algo} repaired on {mesh}: {e}"));
                    print_row(&mesh, algo, "dead link", &report, &mut records, &mut dirty);
                }
                // One dead link never disconnects a mesh: every algorithm with a
                // repair strategy must repair it.
                Err(CollectiveError::Infeasible {
                    reason: reason @ fault::NO_REPAIR_STRATEGY,
                }) => {
                    println!(
                        "{:<8} {:<12} {:<10} {:>9} {:>8} {:>10}  ({reason})",
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

    // The streaming auditor's memory stays O(links + live messages), so
    // the full sweep also audits Ring where the stream runs to millions
    // of events.
    if cli.sweep == SweepSize::Full {
        for side in [16, 32] {
            let mesh = Mesh::square(side).expect("square meshes are constructible");
            let schedule = Algorithm::Ring
                .schedule(&mesh, data)
                .unwrap_or_else(|e| panic!("Ring on {mesh}: {e}"));
            let report = SimEngine::paper_default()
                .audit(&mesh, &schedule)
                .unwrap_or_else(|e| panic!("Ring on {mesh}: {e}"));
            print_row(
                &mesh,
                Algorithm::Ring,
                "healthy",
                &report,
                &mut records,
                &mut dirty,
            );
        }
        println!();
    }

    // Demonstration JSONL trace: TTO on the smallest mesh, reductions and
    // all, in the export format of DESIGN.md §6.
    std::fs::create_dir_all(&cli.out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", cli.out_dir.display()));
    let trace_path = cli.out_dir.join("audit_trace.jsonl");
    let mesh = Mesh::square(3).expect("3x3 mesh");
    let schedule = Algorithm::Tto
        .schedule(&mesh, data)
        .expect("TTO applies to 3x3");
    let file = File::create(&trace_path)
        .unwrap_or_else(|e| panic!("creating {}: {e}", trace_path.display()));
    let mut sink = JsonlSink::new(BufWriter::new(file));
    SimEngine::paper_default()
        .run_traced(&mesh, &schedule, &mut sink)
        .expect("traced TTO run");
    let lines = sink.lines();
    sink.finish()
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    println!("[wrote {lines} trace events to {}]", trace_path.display());

    cli.save("audit", &records);
    assert_eq!(dirty, 0, "{dirty} audit rows reported violations");
    println!("(expected: every row clean — the auditor gates the other sweeps' credibility)");
}

fn print_row(
    mesh: &Mesh,
    algo: Algorithm,
    scenario: &str,
    report: &meshcoll_sim::AuditReport,
    records: &mut Vec<Record>,
    dirty: &mut usize,
) {
    println!(
        "{:<8} {:<12} {:<10} {:>9} {:>8} {:>10}",
        mesh.to_string(),
        algo.name(),
        scenario,
        report.events,
        report.checks,
        report.violations.len()
    );
    for v in &report.violations {
        eprintln!("  VIOLATION [{} {} {scenario}]: {v}", mesh, algo.name());
    }
    if !report.is_clean() {
        *dirty += 1;
    }
    records.push(
        Record::new("audit", &mesh.to_string(), algo.name(), scenario)
            .with("events", report.events as f64)
            .with("checks", report.checks as f64)
            .with("violations", report.violations.len() as f64),
    );
}
