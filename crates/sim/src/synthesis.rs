//! The audited entry point into schedule synthesis.
//!
//! [`meshcoll_synth`] validates every emitted schedule structurally and
//! functionally, but its scoring loop runs the *fast* engine only. This
//! wrapper closes the loop: after the search returns, every pareto-front
//! schedule is replayed through [`SimEngine::audit`] — the exact per-packet
//! reference with conservation, causality, link-exclusivity, dependency,
//! and AllReduce checks — under the same fault mask the schedule was
//! synthesized for.

use meshcoll_synth::{synthesize, SynthConfig, SynthReport};
use meshcoll_topo::Mesh;

use crate::audit::AuditReport;
use crate::engine::SimEngine;
use crate::error::SimError;

/// Runs [`synthesize`] and audits every pareto-front schedule with
/// [`SimEngine::audit`]. `audits[i]` is the audit of `report.pareto[i]`.
///
/// # Errors
///
/// * [`SimError::Synth`] when the search itself fails (bad knobs, no
///   feasible seed),
/// * [`SimError::Network`] when an emitted schedule cannot execute at all —
///   which the synthesis validation stack should have made impossible, so
///   treat it as a bug.
pub fn synthesize_audited(
    mesh: &Mesh,
    cfg: &SynthConfig,
) -> Result<(SynthReport, Vec<AuditReport>), SimError> {
    let report = synthesize(mesh, cfg)?;
    let engine = SimEngine::new(cfg.noc.clone());
    let mut audits = Vec::with_capacity(report.pareto.len());
    for scored in &report.pareto {
        audits.push(engine.audit(mesh, &scored.schedule)?);
    }
    Ok((report, audits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_front_schedule_audits_clean() {
        let mesh = Mesh::square(4).unwrap();
        let mut cfg = SynthConfig::quick(1 << 20);
        cfg.beam_width = 4;
        cfg.anneal_iters = 3;
        let (report, audits) = synthesize_audited(&mesh, &cfg).unwrap();
        assert_eq!(report.pareto.len(), audits.len());
        assert!(!audits.is_empty());
        for (scored, audit) in report.pareto.iter().zip(&audits) {
            assert!(
                audit.is_clean(),
                "{}: {:?}",
                scored.origin,
                audit.violations
            );
            assert!(audit.checks > 0);
        }
    }
}
