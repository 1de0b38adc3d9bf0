//! Tier-1 invariant audit: every benchmark algorithm on every mesh size the
//! paper sweeps (3x3 through 8x8), healthy and fault-repaired, must execute
//! with a clean [`meshcoll_sim::AuditReport`] — bytes conserved, causality
//! respected, links exclusive, dependencies honored, the `Auto` engine
//! equal to the per-packet reference bit for bit, and the AllReduce
//! contract satisfied. Ring repairs are also audited under every single
//! dead link or chiplet of the 4x4 to 6x6 meshes and a fixed sample of 7x7
//! and 8x8 ones.

use meshcoll_collectives::{fault, Algorithm, Applicability, CollectiveError, ScheduleOptions};
use meshcoll_noc::NocConfig;
use meshcoll_sim::{RunOptions, SimEngine};
use meshcoll_topo::{Coord, Direction, FaultModel, Mesh};

/// Gradient size: large enough for multi-packet trains and every
/// algorithm's chunking, small enough to keep the per-packet reference
/// replay fast.
const DATA: u64 = 1 << 20;

fn violations(report: &meshcoll_sim::AuditReport) -> String {
    report
        .violations
        .iter()
        .map(|v| format!("\n  - {v}"))
        .collect()
}

#[test]
fn healthy_runs_audit_clean_on_all_paper_meshes() {
    for side in 3..=8 {
        let mesh = Mesh::square(side).unwrap();
        let engine = SimEngine::paper_default();
        for a in Algorithm::BENCHMARKS {
            if a.applicability(&mesh) == Applicability::Inapplicable {
                continue;
            }
            let s = a.schedule(&mesh, DATA).unwrap();
            let report = engine.audit(&mesh, &s).unwrap();
            assert!(
                report.is_clean(),
                "{a} on {side}x{side}: {} violations:{}",
                report.violations.len(),
                violations(&report)
            );
            assert!(report.events > 0, "{a} on {side}x{side}: empty trace");
        }
    }
}

#[test]
fn fault_repaired_runs_audit_clean_on_all_paper_meshes() {
    let opts = ScheduleOptions::default();
    for side in 3..=8 {
        let mesh = Mesh::square(side).unwrap();
        // Kill a central link (both directions): busy enough to break every
        // algorithm's healthy routes on most sizes, while keeping the
        // package connected so repairs exist.
        let a = mesh.node_at(Coord::new(side / 2, side / 2));
        let b = mesh.node_at(Coord::new(side / 2, side / 2 + 1));
        let mut noc = NocConfig::paper_default();
        noc.faults.fail_link_between(&mesh, a, b).unwrap();
        let engine = SimEngine::new(noc.clone());
        for algo in Algorithm::BENCHMARKS {
            if algo.applicability(&mesh) == Applicability::Inapplicable {
                continue;
            }
            let rep = match fault::repair(algo, &mesh, &noc.faults, DATA, &opts) {
                Ok(rep) => rep,
                // Only algorithms without a repair strategy may skip; one
                // dead link never disconnects a mesh.
                Err(CollectiveError::Infeasible {
                    reason: fault::NO_REPAIR_STRATEGY,
                }) => continue,
                Err(e) => panic!("{algo} on {side}x{side}: repair failed: {e}"),
            };
            let report = engine.audit(&mesh, &rep.schedule).unwrap();
            assert!(
                report.is_clean(),
                "{algo} (repaired, {}) on {side}x{side}: {} violations:{}",
                rep.strategy,
                report.violations.len(),
                violations(&report)
            );
        }
    }
}

/// Every single dead channel of `mesh` (both directions).
fn single_link_faults(mesh: &Mesh) -> Vec<FaultModel> {
    let mut out = Vec::new();
    for n in mesh.node_ids() {
        for d in [Direction::East, Direction::South] {
            if let Some(nb) = mesh.neighbor(n, d) {
                let mut f = FaultModel::new();
                f.fail_link_between(mesh, n, nb).unwrap();
                out.push(f);
            }
        }
    }
    out
}

/// Every single dead chiplet of `mesh`.
fn single_chiplet_faults(mesh: &Mesh) -> Vec<FaultModel> {
    mesh.node_ids()
        .map(|n| {
            let mut f = FaultModel::new();
            f.fail_node(n);
            f
        })
        .collect()
}

/// Repairs Ring and the mesh's bidirectional ring under `faults`; each
/// repair must lint clean against the faults and audit clean (the audit
/// includes `verify::check_reduce_indegree` and `check_allreduce`).
fn assert_ring_repairs_audit_clean(mesh: &Mesh, faults: &FaultModel) {
    // Every repaired ring splits this into parts of 2-16 KiB.
    const RING_DATA: u64 = 256 << 10;
    let mut noc = NocConfig::paper_default();
    noc.faults = faults.clone();
    let engine = SimEngine::new(noc.clone());
    for algo in [Algorithm::Ring, Algorithm::ring_bi_for(mesh)] {
        let rep = fault::repair(algo, mesh, faults, RING_DATA, &ScheduleOptions::default())
            .unwrap_or_else(|e| panic!("{algo} on {mesh} under {faults:?}: {e}"));
        let issues = fault::lint(mesh, faults, &rep.schedule, noc.routing);
        assert!(
            issues.is_empty(),
            "{algo} on {mesh} under {faults:?}: {issues:?}"
        );
        let report = engine.audit(mesh, &rep.schedule).unwrap();
        assert!(
            report.is_clean(),
            "{algo} on {mesh} under {faults:?}:{}",
            violations(&report)
        );
    }
}

#[test]
fn single_link_ring_repairs_audit_clean_on_4x4_to_6x6() {
    for side in 4..=6 {
        let mesh = Mesh::square(side).unwrap();
        for faults in single_link_faults(&mesh) {
            assert_ring_repairs_audit_clean(&mesh, &faults);
        }
    }
}

#[test]
fn single_chiplet_ring_repairs_audit_clean_on_4x4_to_6x6() {
    for side in 4..=6 {
        let mesh = Mesh::square(side).unwrap();
        for faults in single_chiplet_faults(&mesh) {
            assert_ring_repairs_audit_clean(&mesh, &faults);
        }
    }
}

#[test]
fn sampled_single_fault_ring_repairs_audit_clean_on_7x7_and_8x8() {
    // A fixed stride through each kind of fault: both link orientations
    // and both chiplet colors occur.
    for side in [7, 8] {
        let mesh = Mesh::square(side).unwrap();
        let links = single_link_faults(&mesh).into_iter().step_by(43);
        let chiplets = single_chiplet_faults(&mesh).into_iter().step_by(23);
        for faults in links.chain(chiplets) {
            assert_ring_repairs_audit_clean(&mesh, &faults);
        }
    }
}

#[test]
fn run_with_audit_option_reports_through_the_engine_api() {
    let mesh = Mesh::square(4).unwrap();
    let s = Algorithm::Tto.schedule(&mesh, DATA).unwrap();
    let engine = SimEngine::paper_default();
    let (run, report) = engine.run_with(&mesh, &s, &RunOptions::audited()).unwrap();
    let report = report.expect("audit requested");
    assert!(run.total_time_ns > 0.0);
    assert!(report.is_clean(), "TTO 4x4:{}", violations(&report));
    // The timing of the audited run matches the unaudited one exactly.
    let plain = engine.run(&mesh, &s).unwrap();
    assert_eq!(plain, run);
}
