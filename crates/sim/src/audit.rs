//! Opt-in invariant auditing for schedule executions.
//!
//! [`SimEngine::audit`] runs a collective [`Schedule`] once on the traced
//! per-packet reference engine and streams its [`TraceEvent`]s through the
//! noc-level [`InvariantAuditor`], which checks each event as it arrives,
//! alongside the schedule-level checks the noc layer cannot know about:
//!
//! * **conservation / causality / link exclusivity** — every byte injected
//!   is delivered, no packet departs a hop before it arrives, no two
//!   packets hold one directed link at once ([`InvariantAuditor`]),
//! * **engine identity** — an untraced `Auto` run reports the reference's
//!   completions and per-link busy time bit for bit, whichever engine it
//!   kept ([`OnlineReport::first_difference`](meshcoll_noc::OnlineReport::first_difference);
//!   a difference is a [`Violation::EngineMismatch`]),
//! * **schedule conformance** — every declared dependency is honored: a
//!   dependent op's injection, checked as it happens, never precedes its
//!   dependency's delivery,
//! * **reduction contract** — each gradient atom receives at least
//!   `participants - 1` Reduce ops
//!   ([`verify::check_reduce_indegree`]) and the executed schedule
//!   leaves every participant holding the full sum
//!   ([`verify::check_allreduce`]),
//! * **bound invariant** — the simulated makespan is at or above every
//!   certified lower bound from the static analyzer
//!   (`meshcoll_analyzer::analyze`, re-exported as [`crate::analyzer`]);
//!   see [`InvariantAuditor::check_makespan_bound`].
//!
//! No trace is buffered: the audit holds the auditor's per-link and
//! per-live-message state and one delivery time per op. It still costs a
//! traced per-packet run, an untraced run, the functional checks and the
//! static analysis, a multiple of a plain [`SimEngine::run`]; it is off by
//! default and enabled per run via [`RunOptions::audit`] (or called
//! directly via [`SimEngine::audit`]).

use std::fmt;

use meshcoll_collectives::verify::{self, VerifyError};
use meshcoll_collectives::{OpId, OpKind, Schedule};
use meshcoll_noc::{InvariantAuditor, MsgId, NullSink, SimMode, TraceEvent, TraceSink, Violation};
use meshcoll_topo::Mesh;

use crate::{RunResult, SimEngine, SimError};

/// Per-run options for [`SimEngine::run_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Also run the invariant auditor over the schedule (slower: the
    /// schedule executes again on the traced reference engine).
    pub audit: bool,
    /// Statically analyze the schedule first and reject infeasible or
    /// cyclic ones with [`SimError::Static`] *before* engine dispatch —
    /// cheap insurance against burning the stall watchdog on a schedule
    /// that provably cannot complete.
    pub static_check: bool,
}

impl RunOptions {
    /// Options with auditing enabled.
    pub fn audited() -> Self {
        RunOptions {
            audit: true,
            ..RunOptions::default()
        }
    }

    /// Options with the static pre-check enabled.
    pub fn statically_checked() -> Self {
        RunOptions {
            static_check: true,
            ..RunOptions::default()
        }
    }
}

/// One violated invariant found while auditing a run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// A noc-level invariant failed: conservation, causality, link
    /// exclusivity, engine identity, or the makespan bound.
    Trace(Violation),
    /// A schedule dependency was not honored by the engine: the dependent
    /// op injected before its dependency delivered.
    DependencyViolated {
        /// The dependent op (its id is its message id in the run).
        op: u32,
        /// The dependency that should have completed first.
        dep: u32,
        /// When the dependent injected, ns.
        inject_ns: f64,
        /// When the dependency delivered, ns.
        dep_deliver_ns: f64,
    },
    /// The schedule itself breaks the collective's functional contract
    /// (too few reductions for an atom, or a wrong final value).
    Functional(VerifyError),
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Trace(v) => write!(f, "{v}"),
            AuditViolation::DependencyViolated {
                op,
                dep,
                inject_ns,
                dep_deliver_ns,
            } => write!(
                f,
                "op {op} injected at {inject_ns} ns before its dependency \
                 op {dep} delivered at {dep_deliver_ns} ns"
            ),
            AuditViolation::Functional(e) => write!(f, "schedule contract: {e}"),
        }
    }
}

/// The auditor's verdict over one schedule execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Trace events the per-packet reference run emitted.
    pub events: usize,
    /// Individual invariant checks performed.
    pub checks: usize,
    /// Everything that failed; empty on a correct run.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// `true` when every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Adds a noc-level audit's checks and violations.
    fn absorb(&mut self, audit: meshcoll_noc::TraceAudit) {
        self.checks += audit.checks;
        self.violations
            .extend(audit.violations.into_iter().map(AuditViolation::Trace));
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} checks, {} violations",
            self.events,
            self.checks,
            self.violations.len()
        )
    }
}

/// The reference run's sink: streams every event into the
/// [`InvariantAuditor`] and checks each op's dependencies as it injects.
struct ScheduleAuditor<'a> {
    schedule: &'a Schedule,
    auditor: InvariantAuditor,
    /// Each op's delivery time, NaN until it delivers.
    delivered: Vec<f64>,
    report: AuditReport,
}

impl TraceSink for ScheduleAuditor<'_> {
    fn record(&mut self, event: TraceEvent) {
        self.report.events += 1;
        match event {
            TraceEvent::Inject { msg, at_ns, .. } => {
                let op = OpId(msg.index() as u32);
                for &dep in self.schedule.deps(op) {
                    let dep_deliver_ns = self.delivered[dep.index()];
                    // An undelivered dependency (NaN) fails too.
                    let honored = at_ns >= dep_deliver_ns;
                    self.report.checks += 1;
                    if !honored {
                        self.report
                            .violations
                            .push(AuditViolation::DependencyViolated {
                                op: op.0,
                                dep: dep.0,
                                inject_ns: at_ns,
                                dep_deliver_ns,
                            });
                    }
                }
            }
            TraceEvent::Deliver { msg, at_ns, .. } => self.delivered[msg.index()] = at_ns,
            _ => {}
        }
        self.auditor.record(event);
    }
}

impl SimEngine {
    /// Times one schedule like [`SimEngine::run`], optionally auditing it.
    ///
    /// # Errors
    ///
    /// As for [`SimEngine::run`]; additionally [`SimError::Static`] when
    /// [`RunOptions::static_check`] is set and the analyzer proves the
    /// schedule infeasible. Audit *violations* are not errors — they come
    /// back in the report for the caller to assert on.
    pub fn run_with(
        &self,
        mesh: &Mesh,
        schedule: &Schedule,
        opts: &RunOptions,
    ) -> Result<(RunResult, Option<AuditReport>), SimError> {
        if opts.static_check {
            let report = meshcoll_analyzer::analyze(mesh, schedule, self.noc());
            if !report.is_feasible() {
                return Err(SimError::Static {
                    issues: report.issues,
                });
            }
        }
        let result = self.run(mesh, schedule)?;
        let report = if opts.audit {
            Some(self.audit(mesh, schedule)?)
        } else {
            None
        };
        Ok((result, report))
    }

    /// Runs `schedule` once on the traced per-packet reference and streams
    /// its events through the [`InvariantAuditor`], checking each op's
    /// dependencies as it injects; then compares an untraced `Auto` run
    /// with the reference bit for bit, and checks the reduction contract
    /// and the analyzer's makespan bound.
    ///
    /// Faults configured in this engine's [`NocConfig`](meshcoll_noc::NocConfig)
    /// apply, so fault-repaired schedules are audited under the very fault
    /// model they were repaired for.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] when the schedule cannot execute at
    /// all (e.g. it routes over a dead link); violations of invariants are
    /// reported, not errors.
    pub fn audit(&self, mesh: &Mesh, schedule: &Schedule) -> Result<AuditReport, SimError> {
        let sim = self.packet_sim();
        let mut sink = ScheduleAuditor {
            schedule,
            auditor: InvariantAuditor::new(),
            delivered: vec![f64::NAN; schedule.len()],
            report: AuditReport::default(),
        };
        let reference = sim
            .clone()
            .with_mode(SimMode::PerPacket)
            .simulate_dag(mesh, schedule, &mut sink)?;
        let ScheduleAuditor {
            auditor,
            mut report,
            ..
        } = sink;
        report.absorb(auditor.finish());

        // Engine identity: kept or declined, Auto's outcome is the
        // reference's, bit for bit.
        let diff = sim
            .simulate_dag(mesh, schedule, &mut NullSink)?
            .first_difference(mesh, &reference);
        report.checks += 1;
        report.violations.extend(
            diff.map(|diff| AuditViolation::Trace(Violation::EngineMismatch { segment: 0, diff })),
        );
        let makespan = reference.into_outcome()?.makespan_ns();

        // The collective's functional contract.
        report.checks += 1;
        if let Err(e) = verify::check_reduce_indegree(schedule) {
            report.violations.push(AuditViolation::Functional(e));
        }
        report.checks += 1;
        if let Err(e) = verify::check_allreduce(mesh, schedule) {
            report.violations.push(AuditViolation::Functional(e));
        }

        // Bound invariant: the simulated makespan may never undercut the
        // static analyzer's certified lower bound. A violation pinpoints
        // either an engine that teleported bytes or a broken bound
        // derivation.
        let static_report = meshcoll_analyzer::analyze(mesh, schedule, self.noc());
        report.absorb(
            InvariantAuditor::new().check_makespan_bound(makespan, static_report.lower_bound_ns()),
        );
        Ok(report)
    }

    /// Times one schedule while streaming its [`TraceEvent`]s into `sink`,
    /// augmenting the engine-level stream with the schedule layer's
    /// [`TraceEvent::Reduce`] events (one per Reduce op, timestamped at the
    /// delivery of its operands — reduction itself is modelled as free).
    ///
    /// # Errors
    ///
    /// As for [`SimEngine::run`].
    pub fn run_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        schedule: &Schedule,
        sink: &mut T,
    ) -> Result<RunResult, SimError> {
        let outcome = self.simulate(mesh, &[(schedule, 0.0)], sink)?;
        if T::ENABLED {
            for id in schedule.op_ids() {
                let op = schedule.op(id);
                if op.kind == OpKind::Reduce {
                    if let Some(at_ns) = outcome.completion_ns(MsgId(id.index())) {
                        sink.record(TraceEvent::Reduce {
                            op: id.0,
                            node: op.dst,
                            offset: op.offset,
                            bytes: op.bytes,
                            at_ns,
                        });
                    }
                }
            }
        }
        let makespan = outcome.makespan_ns();
        Ok(RunResult {
            total_time_ns: makespan,
            link_utilization_percent: outcome.link_stats().utilization_percent(makespan),
            used_link_percent: outcome.link_stats().used_link_percent(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_collectives::Algorithm;
    use meshcoll_noc::MemorySink;
    use meshcoll_topo::NodeId;

    #[test]
    fn ring_audit_is_clean() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let report = SimEngine::paper_default().audit(&mesh, &s).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.events > 0 && report.checks > 0);
    }

    #[test]
    fn run_with_attaches_a_report_only_when_asked() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let e = SimEngine::paper_default();
        let (_, none) = e.run_with(&mesh, &s, &RunOptions::default()).unwrap();
        assert!(none.is_none());
        let (timed, some) = e.run_with(&mesh, &s, &RunOptions::audited()).unwrap();
        assert!(some.expect("audited").is_clean());
        assert!(timed.total_time_ns > 0.0);
    }

    #[test]
    fn static_check_rejects_dead_route_before_dispatch() {
        // Kill the channel an op must route over: without the static check
        // the run only dies in the stall watchdog; with it, the engine is
        // never dispatched and the error names the analyzer's certificate.
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let mut noc = meshcoll_noc::NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, NodeId(0), NodeId(1))
            .unwrap();
        let e = SimEngine::new(noc);
        let err = e
            .run_with(&mesh, &s, &RunOptions::statically_checked())
            .expect_err("severed route must be rejected");
        match err {
            SimError::Static { issues } => {
                assert!(issues
                    .iter()
                    .any(|i| matches!(i, meshcoll_analyzer::AnalysisIssue::DeadRoute { .. })));
            }
            other => panic!("expected SimError::Static, got {other}"),
        }
        // The same options on a healthy engine pass through untouched.
        let healthy = SimEngine::paper_default();
        let (run, report) = healthy
            .run_with(&mesh, &s, &RunOptions::statically_checked())
            .unwrap();
        assert!(run.total_time_ns > 0.0 && report.is_none());
    }

    #[test]
    fn audit_enforces_the_static_bound_invariant() {
        let mesh = Mesh::square(4).unwrap();
        let e = SimEngine::paper_default();
        let s = Algorithm::Tto.schedule(&mesh, 1 << 16).unwrap();
        let report = e.audit(&mesh, &s).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        // And the bound itself is non-trivial: the analyzer certifies a
        // positive floor under the simulated makespan.
        let static_report = crate::analyzer::analyze(&mesh, &s, e.noc());
        let run = e.run(&mesh, &s).unwrap();
        let bound = static_report.lower_bound_ns();
        assert!(bound > 0.0);
        assert!(run.total_time_ns >= bound * (1.0 - 1e-9));
    }

    #[test]
    fn functionally_broken_schedule_is_flagged_not_erred() {
        // Reduce-only schedule: node 0 never gets the sum back, and the
        // third participant's contribution never enters the sum.
        let mesh = Mesh::square(2).unwrap();
        let mut b = Schedule::builder("broken", 8);
        b.set_participants(vec![NodeId(0), NodeId(1), NodeId(2)]);
        b.push(NodeId(0), NodeId(1), 0, 8, OpKind::Reduce, 0, &[]);
        let s = b.build();
        let report = SimEngine::paper_default().audit(&mesh, &s).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::Functional(_))));
    }

    #[test]
    fn run_traced_emits_one_reduce_event_per_reduce_op() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let e = SimEngine::paper_default();
        let mut sink = MemorySink::new();
        let run = e.run_traced(&mesh, &s, &mut sink).unwrap();
        let reduce_ops = s.ops().iter().filter(|o| o.kind == OpKind::Reduce).count();
        let reduce_events = sink
            .events()
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::Reduce { .. }))
            .count();
        assert_eq!(reduce_events, reduce_ops);
        for ev in sink.events() {
            if let TraceEvent::Reduce { at_ns, .. } = ev {
                assert!(*at_ns <= run.total_time_ns + 1e-6);
            }
        }
        // The untraced overload agrees with the plain run.
        let plain = e.run(&mesh, &s).unwrap();
        let untraced = e.run_traced(&mesh, &s, &mut NullSink).unwrap();
        assert_eq!(plain, untraced);
    }
}
