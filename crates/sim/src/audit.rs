//! Opt-in invariant auditing for schedule executions.
//!
//! The network engines can narrate a run as a [`TraceEvent`] stream; this
//! module replays a collective [`Schedule`] through the *traced* engines and
//! cross-examines the stream with the noc-level
//! [`InvariantAuditor`] plus schedule-level checks the noc layer cannot
//! know about:
//!
//! * **conservation / causality / link exclusivity** — every byte injected
//!   is delivered, no packet departs a hop before it arrives, no two
//!   packets hold one directed link at once (delegated to
//!   [`InvariantAuditor::check_trace`] over the exact per-packet engine),
//! * **fast-path lower bound** — when the packet-train fast path carried
//!   the run (it carries the whole DAG or none of it), its per-hop start
//!   curves may never precede the per-packet reference
//!   ([`InvariantAuditor::check_fast_path`]),
//! * **engine identity** — the `Auto` engine's completions and per-link
//!   busy time equal the per-packet reference's bit for bit, whichever
//!   engine it kept ([`AuditViolation::EngineMismatch`]),
//! * **schedule conformance** — every declared dependency is honored: a
//!   dependent op's injection never precedes its dependency's delivery,
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
//! Auditing re-runs the schedule on the reference engine with tracing
//! enabled, so it costs a multiple of a plain [`SimEngine::run`]; it is off
//! by default and enabled per run via [`RunOptions::audit`] (or called
//! directly via [`SimEngine::audit`]).

use std::fmt;

use meshcoll_collectives::verify::{self, VerifyError};
use meshcoll_collectives::{OpKind, Schedule};
use meshcoll_noc::{
    InvariantAuditor, MemorySink, MsgId, SimMode, SimOutcome, TraceEvent, TraceSink, Violation,
};
use meshcoll_topo::{LinkId, Mesh};

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
    /// A trace-level invariant failed: conservation, causality, link
    /// exclusivity, or the fast-path lower bound.
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
    /// The `Auto` engine's outcome differs from the per-packet reference's,
    /// which it must match bit for bit. Names the first differing value —
    /// an op's completion, else a link's busy time — and how many differ.
    EngineMismatch {
        /// The op whose completion differs first, if any does.
        op: Option<u32>,
        /// The first link whose busy time differs, when no completion does.
        link: Option<LinkId>,
        /// The `Auto` engine's value, ns.
        auto_ns: f64,
        /// The reference's value, ns.
        reference_ns: f64,
        /// Completions and busy times that differ.
        differing: usize,
    },
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
            AuditViolation::EngineMismatch {
                op,
                link,
                auto_ns,
                reference_ns,
                differing,
            } => {
                match (op, link) {
                    (Some(op), _) => write!(f, "op {op} completes")?,
                    (None, Some(link)) => write!(f, "link {} is busy", link.index())?,
                    (None, None) => write!(f, "the outcome differs")?,
                }
                write!(
                    f,
                    " at {auto_ns} ns under Auto but {reference_ns} ns per packet \
                     ({differing} values differ)"
                )
            }
        }
    }
}

/// One run's outcome as the values the engine-identity check compares:
/// every completion, then every link's busy time.
#[derive(Debug, Clone)]
struct OutcomeValues {
    completions: Vec<f64>,
    busy: Vec<(LinkId, f64)>,
}

impl OutcomeValues {
    fn of(mesh: &Mesh, outcome: &SimOutcome) -> Self {
        OutcomeValues {
            completions: outcome.completions().to_vec(),
            busy: mesh
                .links()
                .map(|(_, _, l)| (l, outcome.link_stats().busy_ns(l)))
                .collect(),
        }
    }

    /// Values compared.
    fn len(&self) -> usize {
        self.completions.len() + self.busy.len()
    }

    /// Compares `auto` with `reference` bit for bit; `None` when identical.
    fn mismatch(auto: &Self, reference: &Self) -> Option<AuditViolation> {
        let ops = auto
            .completions
            .iter()
            .zip(&reference.completions)
            .enumerate()
            .filter(|(_, (a, r))| a.to_bits() != r.to_bits())
            .map(|(i, (&a, &r))| (Some(i as u32), None, a, r));
        let links = auto
            .busy
            .iter()
            .zip(&reference.busy)
            .filter(|(a, r)| a.1.to_bits() != r.1.to_bits())
            .map(|(&(l, a), &(_, r))| (None, Some(l), a, r));
        let mut differing = ops.chain(links);
        let (op, link, auto_ns, reference_ns) = differing.next()?;
        Some(AuditViolation::EngineMismatch {
            op,
            link,
            auto_ns,
            reference_ns,
            differing: 1 + differing.count(),
        })
    }
}

/// The auditor's verdict over one schedule execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Trace events examined (reference engine, plus the fast path when it
    /// accepted the DAG).
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

    /// Replays `schedule` through the traced engines and checks every
    /// invariant listed in the [module docs](crate::audit).
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
        let parts = [(schedule, 0.0)];
        let auditor = InvariantAuditor::new();
        let mut report = AuditReport::default();

        // Exact per-packet reference: conservation, causality, exclusivity.
        let mut reference = MemorySink::new();
        let reference_outcome =
            self.clone()
                .with_mode(SimMode::PerPacket)
                .simulate(mesh, &parts, &mut reference)?;
        let trace = auditor.check_trace(reference.events());
        report.checks += trace.checks;
        report
            .violations
            .extend(trace.violations.into_iter().map(AuditViolation::Trace));

        // The Auto engine's trace: train claims when the fast path kept the
        // whole DAG, per-packet events when it fell back. Any train claim
        // is cross-checked against the per-packet lower bound; a trace with
        // no trains means the whole DAG ran per-packet and there is nothing
        // to cross-check.
        let mut fast = MemorySink::new();
        let auto_outcome = self.simulate(mesh, &parts, &mut fast)?;
        // Engine identity: kept or declined, Auto's outcome is the
        // reference's, bit for bit.
        let (auto_values, reference_values) = (
            OutcomeValues::of(mesh, &auto_outcome),
            OutcomeValues::of(mesh, &reference_outcome),
        );
        report.checks += reference_values.len();
        report
            .violations
            .extend(OutcomeValues::mismatch(&auto_values, &reference_values));
        if fast
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TrainHop { .. }))
        {
            let cross = auditor.check_fast_path(fast.events(), reference.events());
            report.checks += cross.checks;
            report
                .violations
                .extend(cross.violations.into_iter().map(AuditViolation::Trace));
        }
        report.events = reference.events().len() + fast.events().len();

        // Schedule conformance: dependencies honored in the reference run.
        let mut inject = vec![f64::NAN; schedule.len()];
        let mut deliver = vec![f64::NAN; schedule.len()];
        for ev in reference.events() {
            match *ev {
                TraceEvent::Inject { msg, at_ns, .. } => inject[msg.index()] = at_ns,
                TraceEvent::Deliver { msg, at_ns, .. } => deliver[msg.index()] = at_ns,
                _ => {}
            }
        }
        for id in schedule.op_ids() {
            for d in schedule.deps(id) {
                report.checks += 1;
                let (at, dep_done) = (inject[id.index()], deliver[d.index()]);
                // NaN (a message that never injected/delivered) fails too,
                // which `at < dep_done - tol` would silently pass.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(at >= dep_done - auditor.tolerance_ns) {
                    report.violations.push(AuditViolation::DependencyViolated {
                        op: id.0,
                        dep: d.0,
                        inject_ns: at,
                        dep_deliver_ns: dep_done,
                    });
                }
            }
        }

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
        let makespan = reference
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Deliver { at_ns, .. } => Some(at_ns),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let static_report = meshcoll_analyzer::analyze(mesh, schedule, self.noc());
        let bound = auditor.check_makespan_bound(makespan, static_report.lower_bound_ns());
        report.checks += bound.checks;
        report
            .violations
            .extend(bound.violations.into_iter().map(AuditViolation::Trace));
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
    use meshcoll_collectives::{Algorithm, OpKind, Schedule};
    use meshcoll_noc::NullSink;
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
    fn engine_identity_flags_a_one_ulp_difference() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Tto.schedule(&mesh, 1 << 16).unwrap();
        let run = |mode| {
            let e = SimEngine::paper_default().with_mode(mode);
            OutcomeValues::of(
                &mesh,
                &e.simulate(&mesh, &[(&s, 0.0)], &mut NullSink).unwrap(),
            )
        };
        let (reference, auto) = (run(SimMode::PerPacket), run(SimMode::Auto));
        assert_eq!(OutcomeValues::mismatch(&auto, &reference), None);
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);

        let mut late = auto.clone();
        late.completions[5] = ulp(late.completions[5]);
        match OutcomeValues::mismatch(&late, &reference) {
            Some(AuditViolation::EngineMismatch {
                op: Some(5),
                link: None,
                differing: 1,
                ..
            }) => {}
            other => panic!("expected op 5 to differ, got {other:?}"),
        }

        let mut busier = auto.clone();
        let (link, busy) = busier.busy[2];
        busier.busy[2].1 = ulp(busy);
        let v = OutcomeValues::mismatch(&busier, &reference).expect("one ulp of busy time");
        assert!(
            matches!(v, AuditViolation::EngineMismatch { op: None, link: Some(l), .. } if l == link),
            "{v:?}"
        );
        assert!(v.to_string().contains(&format!("link {}", link.index())));
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
