//! Schedule synthesis — pareto fronts and the beats-TTO table.
//!
//! Runs the beam-search/annealing synthesizer on a set of mesh + fault
//! configurations, audits every pareto-front schedule with
//! `SimEngine::audit`, and prints the front (makespan vs. peak link
//! utilization) alongside the seeded baselines. Asserts, not just reports:
//!
//! * every emitted schedule audits clean,
//! * the best synthesized schedule never loses to the seeded TTO baseline,
//! * on at least one odd-mesh or faulted configuration it *strictly* beats
//!   seeded TTO,
//! * the pareto front is bit-identical across two different `--jobs`
//!   counts (the determinism contract of the candidate-id-keyed streams).

use meshcoll_bench::{fmt_bytes, kib, mib, Cli, Mesh, Record, SweepSize};
use meshcoll_noc::NocConfig;
use meshcoll_sim::synth::SynthConfig;
use meshcoll_sim::synthesize_audited;
use meshcoll_topo::{FaultModel, NodeId};

/// One synthesis target: a package and its fault mask.
struct Target {
    label: &'static str,
    mesh: Mesh,
    faults: FaultModel,
    /// Counts toward the beats-TTO requirement (odd mesh or faulted).
    contended: bool,
}

fn targets(sweep: SweepSize) -> Vec<Target> {
    let five = Mesh::square(5).expect("5x5 mesh");
    let mut dead_link = FaultModel::default();
    dead_link
        .fail_link_between(&five, NodeId(11), NodeId(12))
        .expect("central 5x5 link");
    let mut targets = vec![
        Target {
            label: "5x5 healthy",
            mesh: five.clone(),
            faults: FaultModel::default(),
            contended: true, // odd mesh
        },
        Target {
            label: "5x5 one dead link",
            mesh: five,
            faults: dead_link,
            contended: true,
        },
    ];
    if sweep != SweepSize::Quick {
        let four = Mesh::square(4).expect("4x4 mesh");
        let six = Mesh::square(6).expect("6x6 mesh");
        let mut six_dead = FaultModel::default();
        six_dead
            .fail_link_between(&six, NodeId(14), NodeId(15))
            .expect("central 6x6 link");
        targets.push(Target {
            label: "4x4 healthy",
            mesh: four,
            faults: FaultModel::default(),
            contended: false,
        });
        targets.push(Target {
            label: "6x6 one dead link",
            mesh: six,
            faults: six_dead,
            contended: true,
        });
    }
    targets
}

fn main() {
    let cli = Cli::parse();
    let data = match cli.sweep {
        SweepSize::Quick => kib(512),
        SweepSize::Default => mib(2),
        SweepSize::Full => mib(8),
    };
    let jobs = if cli.jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        cli.jobs
    };
    let alt_jobs = if jobs == 1 { 2 } else { 1 };

    println!(
        "Schedule synthesis: {} gradient, seed {}, beam {}, {} iterations, {jobs} jobs",
        fmt_bytes(data),
        cli.seed,
        cli.beam_width,
        cli.anneal_iters
    );

    let mut records = Vec::new();
    let mut strict_beat = false;
    for target in targets(cli.sweep) {
        let cfg = SynthConfig {
            data_bytes: data,
            seed: cli.seed,
            beam_width: cli.beam_width,
            anneal_iters: cli.anneal_iters,
            jobs,
            noc: NocConfig {
                faults: target.faults.clone(),
                ..NocConfig::paper_default()
            },
            opts: meshcoll_bench::ScheduleOptions::default(),
        };
        let (report, audits) = synthesize_audited(&target.mesh, &cfg)
            .unwrap_or_else(|e| panic!("synthesis on {}: {e}", target.label));
        for (scored, audit) in report.pareto.iter().zip(&audits) {
            assert!(
                audit.is_clean(),
                "{} on {}: audit violations {:?}",
                scored.origin,
                target.label,
                audit.violations
            );
        }

        // Determinism contract: a different worker count must reproduce
        // the front bit-for-bit and every search counter exactly.
        let alt = SynthConfig {
            jobs: alt_jobs,
            ..cfg.clone()
        };
        let (alt_report, _) = synthesize_audited(&target.mesh, &alt)
            .unwrap_or_else(|e| panic!("re-synthesis on {}: {e}", target.label));
        assert_eq!(
            report.fingerprint(),
            alt_report.fingerprint(),
            "{}: pareto front differs between {jobs} and {alt_jobs} jobs",
            target.label
        );
        assert_eq!(
            (report.evaluated, report.pruned, report.rejected),
            (alt_report.evaluated, alt_report.pruned, alt_report.rejected),
            "{}: search counters differ between {jobs} and {alt_jobs} jobs",
            target.label
        );

        println!("\n== {} ==", target.label);
        print!("seeds:");
        for (name, mk) in &report.seeds {
            print!("  {name} {mk:.0} ns");
        }
        println!(
            "\nsearch: {} simulated, {} pruned by certified bounds, {} rejected by validation",
            report.evaluated, report.pruned, report.rejected
        );
        println!(
            "{:<20} {:>14} {:>10} {:>14}",
            "pareto front", "makespan ns", "peak util", "bound ns"
        );
        for scored in &report.pareto {
            println!(
                "{:<20} {:>14.0} {:>9.1}% {:>14.0}",
                scored.origin,
                scored.makespan_ns,
                scored.peak_link_utilization * 100.0,
                scored.lower_bound_ns
            );
            records.push(
                Record::new("synth", target.label, &scored.origin, &fmt_bytes(data))
                    .with("makespan_ns", scored.makespan_ns)
                    .with("peak_link_utilization", scored.peak_link_utilization)
                    .with("lower_bound_ns", scored.lower_bound_ns),
            );
        }

        let best = report.best().expect("non-empty front").makespan_ns;
        if let Some(tto) = report.seed_makespan("TTO") {
            assert!(
                best <= tto * (1.0 + 1e-9),
                "{}: best {best} ns loses to seeded TTO at {tto} ns",
                target.label
            );
            let beat = best < tto * (1.0 - 1e-9);
            if beat && target.contended {
                strict_beat = true;
            }
            println!(
                "vs seeded TTO: {:+.2}% {}",
                (best - tto) / tto * 100.0,
                if beat { "(beats TTO)" } else { "(matches TTO)" }
            );
        }
    }

    assert!(
        strict_beat,
        "no odd-mesh or faulted configuration strictly beat seeded TTO"
    );
    println!("\nall fronts audit-clean, deterministic across job counts, and beat seeded TTO");
    cli.save("synth", &records);
}
