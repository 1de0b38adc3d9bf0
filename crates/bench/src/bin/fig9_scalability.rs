//! Figure 9 — scalability from 9 to 256 chiplets with `375 KB x N` of
//! AllReduce data, normalized to Ring AllReduce on the smallest mesh of the
//! same parity (4x4 for even-sized, 3x3 for odd-sized).
//!
//! The sweep ends with a 16x16 memory smoke test: the engine's retained
//! scratch (the reusable pools that persist across runs) must grow no
//! faster than the message count between an 8x8 and a 16x16 TTO schedule,
//! pinning per-run memory to `O(messages)` after the SoA/arena refactor.
//!
//! A scale section then pushes past the paper's 256 chiplets: Ring and TTO
//! AllReduce on 32x32 and (default/full sweeps) 64x64 fabrics — flat mesh,
//! torus, and a 2x2-package two-level hierarchy — all through
//! `SimEngine::run_streamed` on the packet-train fast path. Retained scratch
//! per op and per-op wall-clock are asserted
//! against the 16x16 reference in-process (within-run ratios, so they bind
//! on any machine), and `--gate` additionally fails the run when per-op
//! memory regresses against the committed baseline.

use meshcoll_bench::{applicable_benchmarks, Cli, Mesh, Record, SimContext, SweepSize};
use meshcoll_collectives::{Algorithm, Applicability, OpId, OpKind, OpSink, ScheduleOptions};
use meshcoll_noc::NocConfig;
use meshcoll_sim::{bandwidth, SimEngine};
use meshcoll_topo::{Hierarchy, NodeId};
use std::time::Instant;

/// Gradient size for the scale section. Fixed (rather than the Fig 9
/// `375 KB x N` rule) so the op count, not the payload, is what grows with
/// the fabric: 64x64 Ring emits ~33.5M ops either way, but fixed data keeps
/// the 16x16 reference comparable per-op.
const SCALE_DATA: u64 = 64 << 20;

/// Counts ops as an [`OpSink`] without retaining any of them, so the op
/// count of a 33.5M-op schedule costs O(1) memory to obtain.
#[derive(Default)]
struct CountingSink {
    count: u64,
}

impl OpSink for CountingSink {
    fn push(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _offset: u64,
        _bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        _deps: &[OpId],
    ) -> OpId {
        let id = OpId(u32::try_from(self.count).expect("schedule exceeds u32 op ids"));
        self.count += 1;
        id
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
}

/// One scale-section topology: how to build the fabric and its NoC config.
struct ScaleTopo {
    label: &'static str,
    build: fn(usize) -> (Mesh, NocConfig),
}

const SCALE_TOPOS: [ScaleTopo; 3] = [
    ScaleTopo {
        label: "mesh",
        build: |n| {
            let mesh = Mesh::square(n).unwrap_or_else(|e| panic!("{n}x{n} mesh: {e}"));
            (mesh, NocConfig::paper_default())
        },
    },
    ScaleTopo {
        label: "torus",
        build: |n| {
            let mesh = Mesh::torus(n, n).unwrap_or_else(|e| panic!("{n}x{n} torus: {e}"));
            (mesh, NocConfig::paper_default())
        },
    },
    ScaleTopo {
        label: "hier",
        build: |n| {
            // 2x2 packages of (n/2)x(n/2) chiplets; board links at 1/4 of
            // the interposer bandwidth (the two-level MCM-of-MCMs fabric).
            let h = Hierarchy::new(2, 2, n / 2, n / 2, 0.25)
                .unwrap_or_else(|e| panic!("{n}x{n} hierarchy: {e}"));
            let mut noc = NocConfig::paper_default();
            h.apply_to(&mut noc.faults)
                .unwrap_or_else(|e| panic!("{n}x{n} hierarchy faults: {e}"));
            (h.fabric().clone(), noc)
        },
    },
];

/// One measured scale point: streamed run plus memory/wall-clock telemetry.
fn scale_point(mesh: &Mesh, noc: NocConfig, algo: Algorithm) -> (u64, usize, f64, f64) {
    let opts = ScheduleOptions::default();
    let mut counter = CountingSink::default();
    algo.emit_with(mesh, SCALE_DATA, &opts, &mut counter)
        .unwrap_or_else(|e| panic!("{algo} on {mesh}: {e}"));
    let engine = SimEngine::new(noc);
    let start = Instant::now();
    let result = engine
        .run_streamed(mesh, algo, SCALE_DATA, &opts)
        .unwrap_or_else(|e| panic!("{algo} streamed on {mesh}: {e}"));
    let wall = start.elapsed().as_secs_f64();
    (
        counter.count,
        engine.retained_scratch_bytes(),
        wall,
        result.total_time_ns,
    )
}

fn main() {
    let cli = Cli::parse();
    let (even_sizes, odd_sizes): (Vec<usize>, Vec<usize>) = match cli.sweep {
        SweepSize::Quick => (vec![4, 6], vec![3, 5]),
        SweepSize::Default => (vec![4, 6, 8, 10, 16], vec![3, 5, 7, 9]),
        SweepSize::Full => (vec![4, 6, 8, 10, 12, 14, 16], vec![3, 5, 7, 9, 11, 13, 15]),
    };
    let engine = SimContext::new().paper_engine();
    let runner = cli.runner();
    let mut records = Vec::new();

    for (parity, sizes, base_n) in [("even", even_sizes, 4usize), ("odd", odd_sizes, 3usize)] {
        let base_mesh =
            Mesh::square(base_n).unwrap_or_else(|e| panic!("{base_n}x{base_n} mesh: {e}"));
        let base = bandwidth::measure(
            &engine,
            &base_mesh,
            Algorithm::Ring,
            bandwidth::scalability_data_bytes(&base_mesh),
        )
        .expect("baseline")
        .time_ns;

        println!("\nFig 9 ({parity}-sized meshes): communication time normalized to Ring on {base_n}x{base_n}");
        print!("{:<12}", "algorithm");
        for &n in &sizes {
            print!("{:>10}", format!("{n}x{n}"));
        }
        println!();
        meshcoll_bench::rule(12 + 10 * sizes.len());

        let all_algos = applicable_benchmarks(
            &Mesh::square(sizes[0]).expect("sweep sizes are valid mesh sizes"),
        );
        let points: Vec<(Algorithm, usize)> = all_algos
            .iter()
            .flat_map(|&algo| sizes.iter().map(move |&n| (algo, n)))
            .collect();
        let results = runner.run(&points, |&(algo, n)| {
            let mesh = Mesh::square(n).unwrap_or_else(|e| panic!("{n}x{n} mesh: {e}"));
            let data = bandwidth::scalability_data_bytes(&mesh);
            let p = bandwidth::measure(&engine, &mesh, algo, data).expect("measurement");
            (mesh, data, p)
        });

        let mut cells = results.iter();
        for algo in all_algos {
            print!("{:<12}", algo.name());
            for _ in &sizes {
                let (mesh, data, p) = cells.next().expect("one result per sweep point");
                let norm = p.time_ns / base;
                print!("{norm:>10.2}");
                records.push(
                    Record::new("fig9", &mesh.to_string(), algo.name(), parity)
                        .with("data_bytes", *data as f64)
                        .with("time_ns", p.time_ns)
                        .with("normalized_time", norm),
                );
            }
            println!();
        }
    }

    // Memory smoke: retained scratch must scale no worse than the message
    // count. A fresh engine (so earlier sweep points cannot pre-warm the
    // pools) runs TTO on 8x8 and then on 16x16; the pools' high-water
    // growth between the two is compared against the message-count growth
    // with 4x headroom for rounding in bucket counts and curve arenas.
    let engine = SimEngine::paper_default();
    let probe = |n: usize| {
        let mesh = Mesh::square(n).unwrap_or_else(|e| panic!("{n}x{n} mesh: {e}"));
        let data = bandwidth::scalability_data_bytes(&mesh);
        let schedule = Algorithm::Tto
            .schedule(&mesh, data)
            .unwrap_or_else(|e| panic!("TTO {n}x{n} schedule: {e}"));
        let ops = schedule.op_ids().count();
        engine.run(&mesh, &schedule).expect("TTO run");
        (ops, engine.retained_scratch_bytes())
    };
    let (ops_8, bytes_8) = probe(8);
    let (ops_16, bytes_16) = probe(16);
    let growth = bytes_16 as f64 / bytes_8 as f64;
    let bound = 4.0 * ops_16 as f64 / ops_8 as f64;
    println!(
        "\nMemory smoke (TTO): 8x8 {ops_8} msgs / {bytes_8} B retained, \
         16x16 {ops_16} msgs / {bytes_16} B retained ({growth:.2}x growth, bound {bound:.2}x)"
    );
    assert!(
        growth <= bound,
        "retained scratch grew {growth:.2}x between 8x8 and 16x16 but the message \
         count only grew {:.2}x — per-run memory is no longer O(messages)",
        ops_16 as f64 / ops_8 as f64
    );
    records.push(
        Record::new("fig9_memory", "16x16", "TTO", "smoke")
            .with("messages_8x8", ops_8 as f64)
            .with("retained_bytes_8x8", bytes_8 as f64)
            .with("messages_16x16", ops_16 as f64)
            .with("retained_bytes_16x16", bytes_16 as f64)
            .with("growth", growth),
    );

    // Scale section: 1,024- and 4,096-chiplet fabrics through `run_streamed`.
    // Every point uses a fresh engine so the retained-scratch reading
    // is the high-water mark of that point alone.
    let scale_sizes: &[usize] = match cli.sweep {
        SweepSize::Quick => &[32],
        SweepSize::Default | SweepSize::Full => &[32, 64],
    };
    let scale_algos = [Algorithm::Ring, Algorithm::Tto];
    println!(
        "\nScale ({} MiB AllReduce, streamed; per-op budgets vs 16x16 mesh):",
        SCALE_DATA >> 20
    );
    println!(
        "{:<8} {:<6} {:<10} {:>12} {:>16} {:>10} {:>9}",
        "fabric", "topo", "algorithm", "ops", "retained B", "B/op", "wall s"
    );
    meshcoll_bench::rule(76);

    for &algo in &scale_algos {
        // Reference: the paper-scale 16x16 flat mesh, same data, same path.
        // Its wall-clock is tens of milliseconds — small enough that one
        // scheduler hiccup skews every point's ratio — so take the fastest
        // of three runs (op count and retained bytes are deterministic).
        let (ref_mesh, ref_noc) = (SCALE_TOPOS[0].build)(16);
        let (ref_ops, ref_bytes, mut ref_wall, ref_time) = scale_point(&ref_mesh, ref_noc, algo);
        for _ in 0..2 {
            let (_, noc) = (SCALE_TOPOS[0].build)(16);
            let (_, _, wall, _) = scale_point(&ref_mesh, noc, algo);
            ref_wall = ref_wall.min(wall);
        }
        let ref_bpo = ref_bytes as f64 / ref_ops as f64;
        let ref_wpo = ref_wall / ref_ops as f64;
        println!(
            "{:<8} {:<6} {:<10} {:>12} {:>16} {:>10.1} {:>9.2}",
            "16x16",
            "mesh",
            algo.name(),
            ref_ops,
            ref_bytes,
            ref_bpo,
            ref_wall
        );
        records.push(
            Record::new("fig9_scale", "16x16", algo.name(), "mesh")
                .with("data_bytes", SCALE_DATA as f64)
                .with("ops", ref_ops as f64)
                .with("retained_bytes", ref_bytes as f64)
                .with("bytes_per_op", ref_bpo)
                .with("wall_s", ref_wall)
                .with("time_ns", ref_time),
        );

        for &n in scale_sizes {
            for topo in &SCALE_TOPOS {
                let (mesh, noc) = (topo.build)(n);
                if algo.applicability(&mesh) == Applicability::Inapplicable {
                    continue;
                }
                let (ops, bytes, wall, time_ns) = scale_point(&mesh, noc, algo);
                let bpo = bytes as f64 / ops as f64;
                let wpo = wall / ops as f64;
                println!(
                    "{:<8} {:<6} {:<10} {:>12} {:>16} {:>10.1} {:>9.2}",
                    format!("{n}x{n}"),
                    topo.label,
                    algo.name(),
                    ops,
                    bytes,
                    bpo,
                    wall
                );
                // Retained memory must grow no faster than the op count
                // (1.5x headroom for pool bucket rounding). Per-op
                // wall-clock is budgeted at 50x the 16x16 reference: the
                // 64x64 working set (~4 GB) falls out of cache levels the
                // 16x16 reference's tens of MB partly fit in, which has
                // cost 1.4-14x per op, and single-run noise on the large
                // point can add a factor on top — while an accidentally
                // quadratic path would be ~256x, which this still catches.
                // Both are within-run ratios, so they hold on any machine
                // and build profile.
                assert!(
                    bpo <= 1.5 * ref_bpo,
                    "{algo} on {n}x{n} {}: {bpo:.1} retained bytes/op vs {ref_bpo:.1} at 16x16 \
                     — memory is growing faster than the op count",
                    topo.label
                );
                assert!(
                    wpo <= 50.0 * ref_wpo,
                    "{algo} on {n}x{n} {}: {:.1}us/op vs {:.1}us/op at 16x16 \
                     — the fast path is no longer O(ops)",
                    topo.label,
                    wpo * 1e6,
                    ref_wpo * 1e6
                );
                records.push(
                    Record::new("fig9_scale", &format!("{n}x{n}"), algo.name(), topo.label)
                        .with("data_bytes", SCALE_DATA as f64)
                        .with("ops", ops as f64)
                        .with("retained_bytes", bytes as f64)
                        .with("bytes_per_op", bpo)
                        .with("wall_s", wall)
                        .with("time_ns", time_ns),
                );
            }
        }
    }

    if let Some(base_path) = &cli.gate {
        gate_scale(base_path, &records);
    }

    println!(
        "\n(paper Fig 9 shape: all algorithms scale linearly with node count; TTO has the \
         smallest slope, Ring the largest; RingBiOdd tracks RingBiEven)"
    );
    cli.save("fig9_scalability", &records);
}

/// Fails the run when a scale point's retained bytes per op regressed
/// against the committed baseline — deterministic for a given build, so
/// compared directly (25% slack for pool-shape variation).
///
/// Wall-clock is deliberately NOT gated against the baseline: the per-op
/// growth ratio is only stable when core count and memory bandwidth match
/// the baseline machine (large points are DRAM-bound, so a slower memory
/// system inflates them far more than small ones). The wall-clock budget
/// is instead the always-on 50x in-run assertion above, which compares a
/// point against the same run's 16x16 reference and therefore holds on
/// any machine — including the gated CI runs. Per-op wall growth is still
/// printed here next to the baseline's, for eyeballing trends across
/// commits.
fn gate_scale(base_path: &std::path::Path, records: &[Record]) {
    let baseline = meshcoll_sim::experiment::read_json(base_path)
        .unwrap_or_else(|e| panic!("reading gate baseline {}: {e}", base_path.display()));
    let find = |set: &[Record], mesh: &str, algo: &str, workload: &str| {
        set.iter()
            .find(|r| {
                r.experiment == "fig9_scale"
                    && r.mesh == mesh
                    && r.algorithm == algo
                    && r.workload == workload
            })
            .cloned()
    };
    let mut compared = 0;
    println!("\nScale gate vs {}:", base_path.display());
    for base in baseline.iter().filter(|r| r.experiment == "fig9_scale") {
        // Quick sweeps skip 64x64; gate only what this run measured.
        let Some(now) = find(records, &base.mesh, &base.algorithm, &base.workload) else {
            continue;
        };
        let (old_bpo, new_bpo) = (base.metrics["bytes_per_op"], now.metrics["bytes_per_op"]);
        assert!(
            new_bpo <= old_bpo * 1.25,
            "{} {} {}: retained bytes/op regressed ({new_bpo:.1} vs baseline {old_bpo:.1})",
            base.mesh,
            base.algorithm,
            base.workload
        );
        let mut wall_note = String::new();
        if base.mesh != "16x16" {
            let base_ref = find(&baseline, "16x16", &base.algorithm, "mesh")
                .unwrap_or_else(|| panic!("baseline lacks a 16x16 {} reference", base.algorithm));
            let now_ref = find(records, "16x16", &base.algorithm, "mesh")
                .unwrap_or_else(|| panic!("this run lacks a 16x16 {} reference", base.algorithm));
            let per_op = |r: &Record| r.metrics["wall_s"] / r.metrics["ops"];
            let old_ratio = per_op(base) / per_op(&base_ref);
            let new_ratio = per_op(&now) / per_op(&now_ref);
            wall_note = format!(", wall growth {new_ratio:.2}x (baseline {old_ratio:.2}x)");
        }
        println!(
            "  {:<6} {:<6} {:<10} {new_bpo:.1} B/op (baseline {old_bpo:.1}){wall_note}",
            base.mesh, base.workload, base.algorithm
        );
        compared += 1;
    }
    assert!(compared > 0, "gate baseline has no fig9_scale records");
    println!("  [{compared} scale points within budget]");
}
