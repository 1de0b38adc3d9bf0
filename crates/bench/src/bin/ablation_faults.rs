//! Ablation — fault-aware schedule repair on a degraded package.
//!
//! Chiplet packages lose links and whole chiplets in the field. This
//! ablation sweeps 0–3 failed links and 1–3 failed chiplets on the paper's
//! 5×5 mesh and, for each algorithm, reports what the fault subsystem
//! delivers: the achieved AllReduce bandwidth of the repaired schedule and
//! the wall-clock overhead of generating the repair. A final
//! partition-inducing scenario demonstrates the typed `Infeasible` verdict
//! (no panic, no hang).
//!
//! A second section checks ring repair feasibility at scale: Ring and the
//! bidirectional ring are repaired (not simulated) under every single dead
//! link and every single dead chiplet of 6×6 through 16×16 meshes, and the
//! masked cycle alone under a seeded sample of 64×64 single faults (a
//! repaired 64×64 ring schedule is ~33.5M ops). It records the
//! repaired/infeasible counts and the median and maximum `masked_cycle`
//! host time, and panics if any single fault that leaves the survivors
//! connected comes back infeasible.
//!
//! An extension experiment beyond the paper, enabled by
//! `meshcoll_topo::FaultModel` and `meshcoll_collectives::fault`.

use std::time::Instant;

use meshcoll_bench::{
    fmt_bytes, mib, Cli, Mesh, NocConfig, Record, ScheduleOptions, SimContext, SweepSize,
};
use meshcoll_collectives::{fault, Algorithm};
use meshcoll_sim::RunStatus;
use meshcoll_topo::{masked, Coord, Direction, FaultModel};

/// Meshes whose every single link and chiplet fault is repaired.
const SINGLE_FAULT_SIDES: [usize; 5] = [6, 7, 8, 10, 16];
/// Side of the mesh whose single faults are sampled, cycle only.
const SAMPLED_SIDE: usize = 64;
/// Faults drawn from the sampled mesh.
const SAMPLED_FAULTS: usize = 64;
/// Seed of the sampled mesh's draws.
const SAMPLE_SEED: u64 = 0x5EED_0064;

/// One fault scenario of the sweep.
struct Scenario {
    label: &'static str,
    /// `(row_a, col_a, row_b, col_b)` channels to fail.
    links: &'static [(usize, usize, usize, usize)],
    /// `(row, col)` chiplets to fail.
    chiplets: &'static [(usize, usize)],
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        label: "healthy",
        links: &[],
        chiplets: &[],
    },
    Scenario {
        label: "1 link",
        links: &[(2, 2, 2, 3)],
        chiplets: &[],
    },
    Scenario {
        label: "2 links",
        links: &[(2, 2, 2, 3), (1, 1, 2, 1)],
        chiplets: &[],
    },
    Scenario {
        label: "3 links",
        links: &[(2, 2, 2, 3), (1, 1, 2, 1), (3, 3, 4, 3)],
        chiplets: &[],
    },
    Scenario {
        label: "1 chiplet",
        links: &[],
        chiplets: &[(2, 2)],
    },
    Scenario {
        label: "2 chiplets",
        links: &[],
        chiplets: &[(2, 2), (0, 1)],
    },
    Scenario {
        label: "3 chiplets",
        links: &[],
        chiplets: &[(2, 2), (0, 1), (4, 3)],
    },
    // Both links of the top-left corner: the corner is cut off, so no
    // repaired schedule can exist.
    Scenario {
        label: "partition",
        links: &[(0, 0, 0, 1), (0, 0, 1, 0)],
        chiplets: &[],
    },
];

fn faults_for(mesh: &Mesh, sc: &Scenario) -> FaultModel {
    let mut f = FaultModel::new();
    for &(ra, ca, rb, cb) in sc.links {
        let a = mesh.node_at(Coord::new(ra, ca));
        let b = mesh.node_at(Coord::new(rb, cb));
        f.fail_link_between(mesh, a, b)
            .unwrap_or_else(|e| panic!("scenario '{}': {a}->{b} is not a channel: {e}", sc.label));
    }
    for &(r, c) in sc.chiplets {
        f.fail_node(mesh.node_at(Coord::new(r, c)));
    }
    f
}

fn main() {
    let cli = Cli::parse();
    let data = match cli.sweep {
        SweepSize::Quick => mib(1),
        SweepSize::Default => mib(16),
        SweepSize::Full => mib(64),
    };
    let mesh = Mesh::square(5).expect("5x5 mesh is always constructible");
    let opts = ScheduleOptions::default();
    let ctx = SimContext::new();
    let mut records = Vec::new();

    println!(
        "Ablation: fault-aware schedule repair, {mesh}, {} AllReduce data",
        fmt_bytes(data)
    );
    println!(
        "{:<12} {:<12} {:>10} {:>12} {:>12} {:>10}  strategy",
        "scenario", "algorithm", "status", "GB/s", "repair us", "sidelined"
    );
    let algorithms = [
        Algorithm::Ring,
        Algorithm::RingBiOdd,
        Algorithm::MultiTree,
        Algorithm::Tto,
    ];
    let points: Vec<(&Scenario, Algorithm)> = SCENARIOS
        .iter()
        .flat_map(|sc| algorithms.iter().map(move |&algo| (sc, algo)))
        .collect();
    let opts_ref = &opts;
    let mesh_ref = &mesh;
    let runs = cli.runner().run(&points, |&(sc, algo)| {
        let mut cfg = NocConfig::paper_default();
        cfg.faults = faults_for(mesh_ref, sc);
        let engine = ctx.engine(cfg);
        engine
            .run_degraded(mesh_ref, algo, data, opts_ref)
            .unwrap_or_else(|e| panic!("{algo} under '{}' faults: {e}", sc.label))
    });

    for ((&(sc, algo), run), i) in points.iter().zip(&runs).zip(0usize..) {
        let bw = run.result.as_ref().map_or(0.0, |r| r.bandwidth_gbps(data));
        let (status, repair_us, sidelined, strategy) = match &run.status {
            RunStatus::Completed => ("ok", 0.0, 0usize, "original schedule"),
            RunStatus::Repaired {
                strategy,
                sidelined,
                repair_micros,
                ..
            } => ("repaired", *repair_micros, *sidelined, *strategy),
            RunStatus::Infeasible { reason } => ("infeasible", 0.0, 0, *reason),
            other => panic!("unexpected run status {other:?}"),
        };
        println!(
            "{:<12} {:<12} {:>10} {:>12.1} {:>12.1} {:>10}  {}",
            sc.label,
            algo.name(),
            status,
            bw,
            repair_us,
            sidelined,
            strategy
        );
        records.push(
            Record::new("ablation_faults", &mesh.to_string(), algo.name(), sc.label)
                .with("failed_links", sc.links.len() as f64)
                .with("failed_chiplets", sc.chiplets.len() as f64)
                .with("bandwidth_gbps", bw)
                .with("repair_micros", repair_us)
                .with("sidelined", sidelined as f64)
                .with(
                    "status",
                    match run.status {
                        RunStatus::Completed => 0.0,
                        RunStatus::Repaired { .. } => 1.0,
                        _ => 2.0,
                    },
                ),
        );
        if i % algorithms.len() == algorithms.len() - 1 {
            println!();
        }
    }

    println!(
        "(expected: repaired rings lose one part-width of bandwidth per dead chiplet; tree \
         repairs degrade more gently; the partition row returns 'infeasible' for every \
         algorithm instead of hanging)"
    );
    println!();
    single_fault_section(&cli, &mut records);
    cli.save("ablation_faults", &records);
}

/// Every single dead channel (both directions), then every single dead
/// chiplet, of `mesh`.
fn single_faults(mesh: &Mesh) -> Vec<FaultModel> {
    let mut out = Vec::new();
    for n in mesh.node_ids() {
        for d in [Direction::East, Direction::South] {
            if let Some(nb) = mesh.neighbor(n, d) {
                let mut f = FaultModel::new();
                f.fail_link_between(mesh, n, nb)
                    .expect("neighbors share a channel");
                out.push(f);
            }
        }
    }
    for n in mesh.node_ids() {
        let mut f = FaultModel::new();
        f.fail_node(n);
        out.push(f);
    }
    out
}

/// One single fault: the host time of its masked cycle (µs) and whether
/// each repair succeeds — Ring and the mesh's bidirectional ring, or the
/// masked cycle alone when `cycle_only`. Panics on an infeasible verdict
/// for a fault that leaves the survivors connected.
fn single_fault_point(mesh: &Mesh, faults: &FaultModel, cycle_only: bool) -> (f64, Vec<bool>) {
    let connected = masked::is_connected(mesh, faults);
    let timed = || {
        let t0 = Instant::now();
        let cycle = masked::masked_cycle(mesh, faults);
        (cycle, t0.elapsed().as_secs_f64() * 1e6)
    };
    // The fastest of three calls, so a preempted call does not read as a
    // slow fault.
    let (cycle, first_us) = timed();
    let cycle_us = (0..2).map(|_| timed().1).fold(first_us, f64::min);
    if let (Err(e), true) = (&cycle, connected) {
        panic!("{mesh} under {faults:?}: masked cycle failed on connected survivors: {e}");
    }
    if cycle_only {
        return (cycle_us, vec![cycle.is_ok()]);
    }
    let opts = ScheduleOptions::default();
    let repaired = [Algorithm::Ring, Algorithm::ring_bi_for(mesh)]
        .into_iter()
        .map(
            |algo| match fault::repair(algo, mesh, faults, mib(1), &opts) {
                Ok(_) => true,
                Err(e) if connected => panic!("{algo} on {mesh} under {faults:?}: {e}"),
                Err(_) => false,
            },
        )
        .collect();
    (cycle_us, repaired)
}

fn single_fault_section(cli: &Cli, records: &mut Vec<Record>) {
    println!(
        "Single faults: Ring and RingBi repaired under every dead link and chiplet \
         (no simulation); {SAMPLED_SIDE}x{SAMPLED_SIDE}: {SAMPLED_FAULTS} sampled faults, \
         masked cycle only"
    );
    println!(
        "{:<12} {:>7} {:<30} {:>14} {:>12}",
        "mesh", "faults", "repaired/infeasible", "cycle us p50", "cycle us max"
    );
    let mut meshes: Vec<(Mesh, Vec<FaultModel>, bool)> = SINGLE_FAULT_SIDES
        .iter()
        .map(|&side| {
            let mesh = Mesh::square(side).expect("square meshes are constructible");
            let faults = single_faults(&mesh);
            (mesh, faults, false)
        })
        .collect();
    let big = Mesh::square(SAMPLED_SIDE).expect("square meshes are constructible");
    let all = single_faults(&big);
    let mut state = SAMPLE_SEED;
    let sample = (0..SAMPLED_FAULTS)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            all[(state % all.len() as u64) as usize].clone()
        })
        .collect();
    meshes.push((big, sample, true));

    for (mesh, faults, cycle_only) in &meshes {
        let columns = if *cycle_only {
            vec!["masked cycle"]
        } else {
            vec![Algorithm::Ring.name(), Algorithm::ring_bi_for(mesh).name()]
        };
        let outcomes = cli
            .runner()
            .run(faults, |f| single_fault_point(mesh, f, *cycle_only));
        let mut times: Vec<f64> = outcomes.iter().map(|(us, _)| *us).collect();
        times.sort_by(f64::total_cmp);
        let (p50, max) = (times[times.len() / 2], times[times.len() - 1]);
        let mut cells = Vec::new();
        for (i, column) in columns.iter().enumerate() {
            let repaired = outcomes.iter().filter(|(_, ok)| ok[i]).count();
            let infeasible = faults.len() - repaired;
            cells.push(format!("{column} {repaired}/{infeasible}"));
            records.push(
                Record::new(
                    "ablation_faults",
                    &mesh.to_string(),
                    column,
                    "single faults",
                )
                .with("faults", faults.len() as f64)
                .with("repaired", repaired as f64)
                .with("infeasible", infeasible as f64)
                .with("cycle_micros_p50", p50)
                .with("cycle_micros_max", max),
            );
        }
        println!(
            "{:<12} {:>7} {:<30} {:>14.1} {:>12.1}",
            mesh.to_string(),
            faults.len(),
            cells.join(", "),
            p50,
            max
        );
    }
    println!(
        "(expected: 0 infeasible everywhere — one dead link or chiplet never disconnects a \
         mesh; cycle times are host wall-clock, recorded, not asserted)"
    );
}
