//! Schedule → network-simulation bridge.

use std::sync::{Arc, Mutex};

use meshcoll_collectives::{
    fault, Algorithm, CollectiveError, OpId, OpKind, OpSink, Schedule, ScheduleOptions,
};
use meshcoll_noc::{Message, MsgId, NocConfig, PacketSim, SimMode, SimOutcome};
use meshcoll_topo::{Mesh, NodeId};

use crate::{SimContext, SimError};

/// Times collective schedules on the packet-level network simulator.
///
/// Reduction at a receiving chiplet is modelled as free, matching the
/// paper's methodology (double buffering and sufficient memory bandwidth are
/// assumed, so aggregation keeps up with line rate).
///
/// The engine owns one [`PacketSim`] constructed up front (no per-run
/// configuration cloning) and is usable from several threads at once —
/// [`SweepRunner`](crate::SweepRunner) fans sweep points across a shared
/// engine. Lowered message buffers and simulation outcomes are pooled
/// across runs (clones share the pool), so steady-state sweeps reuse their
/// allocations instead of rebuilding ~10^5-entry DAG buffers per point.
#[derive(Debug, Clone)]
pub struct SimEngine {
    sim: PacketSim,
    /// Recycled schedule-lowering buffers; one per concurrently running
    /// thread at the high-water mark.
    lowered: Arc<Mutex<Vec<Vec<Message>>>>,
}

/// The timing result of one schedule execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Time from injection of the first op to delivery of the last, ns.
    pub total_time_ns: f64,
    /// Time-averaged fraction of directed links busy, in percent
    /// (the Fig 12 / Table I metric).
    pub link_utilization_percent: f64,
    /// Fraction of directed links that carried any traffic, in percent.
    pub used_link_percent: f64,
}

impl RunResult {
    /// Times `outcome` as a run of `total_time_ns`: its makespan, or later
    /// when an online run's last drain outlasts its last delivery.
    pub(crate) fn of(outcome: &SimOutcome, total_time_ns: f64) -> Self {
        RunResult {
            total_time_ns,
            link_utilization_percent: outcome.link_stats().utilization_percent(total_time_ns),
            used_link_percent: outcome.link_stats().used_link_percent(),
        }
    }

    /// Achieved AllReduce bandwidth for `data_bytes` of gradient:
    /// `bytes / time` in GB/s (the Fig 8 metric).
    pub fn bandwidth_gbps(&self, data_bytes: u64) -> f64 {
        if self.total_time_ns <= 0.0 {
            return 0.0;
        }
        data_bytes as f64 / self.total_time_ns
    }
}

/// How a fault-aware run ([`SimEngine::run_degraded`]) concluded.
///
/// Equality skips the host wall-clock telemetry (`repair_micros`,
/// `repair_ns`), so two identical runs compare equal.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RunStatus {
    /// The original schedule already executes under the configured faults
    /// (they only degrade bandwidth, or miss its routes entirely).
    Completed,
    /// The original schedule failed the fault lint; a repaired schedule was
    /// generated over the surviving topology and timed instead.
    Repaired {
        /// Lint issues found on the original schedule.
        lint_issues: usize,
        /// The repair strategy used (see
        /// [`fault::Repair`](meshcoll_collectives::fault::Repair)).
        strategy: &'static str,
        /// Surviving chiplets the repair sidelined as relays.
        sidelined: usize,
        /// Wall-clock time spent generating the repair, in microseconds
        /// (the schedule-regeneration overhead a runtime would pay).
        repair_micros: f64,
    },
    /// A fault timeline interrupted the run mid-collective; the schedule
    /// suffix was repaired live and resumed on the surviving topology
    /// (see [`SimEngine::run_online`]).
    RepairedOnline {
        /// Timestamp of the first fault arrival that interrupted a
        /// segment, ns.
        at_ns: f64,
        /// Host wall-clock spent repairing suffixes, ns. Telemetry only:
        /// it is not charged to the simulated makespan, which resumes
        /// each suffix at its drain time.
        repair_ns: f64,
        /// Online repairs performed (one per interrupting fault batch).
        attempts: usize,
        /// Payload bytes dropped in flight across all interruptions.
        lost_bytes: u64,
        /// Total ops across all resumed suffix schedules.
        resumed_ops: usize,
    },
    /// No repaired schedule exists on the fault-masked topology (e.g. the
    /// survivors are partitioned).
    Infeasible {
        /// Why no repair exists.
        reason: &'static str,
    },
}

impl PartialEq for RunStatus {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (RunStatus::Completed, RunStatus::Completed) => true,
            (
                RunStatus::Repaired {
                    lint_issues,
                    strategy,
                    sidelined,
                    repair_micros: _,
                },
                RunStatus::Repaired {
                    lint_issues: o_lint_issues,
                    strategy: o_strategy,
                    sidelined: o_sidelined,
                    repair_micros: _,
                },
            ) => lint_issues == o_lint_issues && strategy == o_strategy && sidelined == o_sidelined,
            (
                RunStatus::RepairedOnline {
                    at_ns,
                    repair_ns: _,
                    attempts,
                    lost_bytes,
                    resumed_ops,
                },
                RunStatus::RepairedOnline {
                    at_ns: o_at_ns,
                    repair_ns: _,
                    attempts: o_attempts,
                    lost_bytes: o_lost_bytes,
                    resumed_ops: o_resumed_ops,
                },
            ) => {
                at_ns == o_at_ns
                    && attempts == o_attempts
                    && lost_bytes == o_lost_bytes
                    && resumed_ops == o_resumed_ops
            }
            (RunStatus::Infeasible { reason }, RunStatus::Infeasible { reason: o_reason }) => {
                reason == o_reason
            }
            _ => false,
        }
    }
}

/// Result of [`SimEngine::run_degraded`]: the conclusion plus, when a
/// schedule actually executed, its timing. Achieved bandwidth under the
/// faults comes from [`RunResult::bandwidth_gbps`] on `result`.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// How the run concluded.
    pub status: RunStatus,
    /// Timing of whichever schedule executed (`None` when infeasible).
    pub result: Option<RunResult>,
}

impl SimEngine {
    /// Creates an engine with the given network configuration and a private
    /// route cache.
    pub fn new(noc: NocConfig) -> Self {
        SimEngine {
            sim: PacketSim::new(noc),
            lowered: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Creates an engine sharing `ctx`'s route cache, so repeated runs on
    /// the same mesh — including from other engines built on the same
    /// context — reuse each other's routes.
    pub fn with_context(noc: NocConfig, ctx: &SimContext) -> Self {
        SimEngine {
            sim: PacketSim::new(noc).with_route_cache(ctx.route_cache().clone()),
            lowered: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// An engine at the paper's Table II configuration.
    pub fn paper_default() -> Self {
        SimEngine::new(NocConfig::paper_default())
    }

    /// Selects the packet-engine mode ([`SimMode::Auto`] by default).
    ///
    /// [`SimMode::PerPacket`] forces the exact per-packet reference engine;
    /// the equivalence suite uses it to check the packet-train fast path
    /// against the reference through the full schedule pipeline.
    #[must_use]
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.sim = self.sim.with_mode(mode);
        self
    }

    /// The network configuration.
    pub fn noc(&self) -> &NocConfig {
        self.sim.config()
    }

    /// Bytes currently retained by this engine's reusable pools: the
    /// underlying packet engine's scratch (high-water capacities that
    /// persist across runs) plus the recycled schedule-lowering message
    /// buffers. Stays `O(messages)` of the largest schedule simulated so
    /// far; the scalability smoke test pins that down.
    pub fn retained_scratch_bytes(&self) -> usize {
        let lowered: usize = self
            .lowered
            .lock()
            .expect("message pool poisoned")
            .iter()
            .map(|buf| {
                buf.capacity() * std::mem::size_of::<Message>()
                    + buf
                        .iter()
                        .map(|m| m.deps.capacity() * std::mem::size_of::<MsgId>())
                        .sum::<usize>()
            })
            .sum();
        self.sim.retained_scratch_bytes() + lowered
    }

    /// Times one schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] if the schedule produces an invalid
    /// message DAG (cannot happen for schedules built by this workspace's
    /// algorithms; defensive).
    pub fn run(&self, mesh: &Mesh, schedule: &Schedule) -> Result<RunResult, SimError> {
        self.run_phased(mesh, &[(schedule, 0.0)])
            .map(|(result, _)| result)
    }

    /// Times `algorithm` under the faults configured in this engine's
    /// [`NocConfig::faults`], degrading gracefully:
    ///
    /// 1. the healthy schedule is linted against the fault model; if clean
    ///    it runs as-is ([`RunStatus::Completed`] — degraded links merely
    ///    lower the achieved bandwidth),
    /// 2. otherwise a repaired schedule is generated over the surviving
    ///    topology and timed ([`RunStatus::Repaired`], with the
    ///    wall-clock repair overhead),
    /// 3. when no repair exists the typed verdict is returned
    ///    ([`RunStatus::Infeasible`]) — no panic, no hang.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Collective`] when the healthy construction
    /// itself is invalid on this mesh (wrong size, data too small), and
    /// [`SimError::Network`] for malformed message DAGs (defensive).
    pub fn run_degraded(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<DegradedRun, SimError> {
        let (status, schedule) = self.lint_and_repair(mesh, algorithm, data_bytes, opts)?;
        let result = schedule.map(|s| self.run(mesh, &s)).transpose()?;
        Ok(DegradedRun { status, result })
    }

    /// The static fault phase of [`SimEngine::run_degraded`] and
    /// [`SimEngine::run_online`]: lints the healthy schedule against the
    /// configured faults and, when dirty, repairs it offline. Returns the
    /// verdict with the schedule to run — `None` when no repair exists.
    pub(crate) fn lint_and_repair(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<(RunStatus, Option<Schedule>), SimError> {
        let faults = &self.noc().faults;
        let schedule = algorithm.schedule_with(mesh, data_bytes, opts)?;
        let issues = fault::lint(mesh, faults, &schedule, self.noc().routing);
        if issues.is_empty() {
            return Ok((RunStatus::Completed, Some(schedule)));
        }
        let t0 = std::time::Instant::now();
        match fault::repair(algorithm, mesh, faults, data_bytes, opts) {
            Ok(rep) => Ok((
                RunStatus::Repaired {
                    lint_issues: issues.len(),
                    strategy: rep.strategy,
                    sidelined: rep.sidelined.len(),
                    repair_micros: t0.elapsed().as_secs_f64() * 1e6,
                },
                Some(rep.schedule),
            )),
            Err(CollectiveError::Infeasible { reason }) => {
                Ok((RunStatus::Infeasible { reason }, None))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Times `algorithm` without ever materializing its [`Schedule`]: ops
    /// stream from the generator straight into the pooled message buffer
    /// (one message per op, written in place), so peak retained memory is a
    /// single O(messages) buffer instead of schedule + deps arena +
    /// messages. This is the intended entry point for 1,000+ chiplet
    /// fabrics; results are bit-identical to
    /// [`SimEngine::run`] on the materialized schedule (the generators are
    /// shared — see [`meshcoll_collectives::stream`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Collective`] when the algorithm cannot run on
    /// `mesh` (as for [`Algorithm::schedule_with`]) and [`SimError::Network`]
    /// for malformed message DAGs (defensive).
    pub fn run_streamed(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<RunResult, SimError> {
        let mut messages = self
            .lowered
            .lock()
            .expect("message pool poisoned")
            .pop()
            .unwrap_or_default();
        let emitted = {
            let mut sink = MessageSink {
                messages: &mut messages,
                idx: 0,
            };
            algorithm
                .emit_with(mesh, data_bytes, opts, &mut sink)
                .map(|()| sink.idx)
        };
        let result = match emitted {
            Ok(count) => {
                messages.truncate(count);
                self.sim
                    .simulate(mesh, &messages)
                    .map(|outcome| {
                        let run = RunResult::of(&outcome, outcome.makespan_ns());
                        self.sim.recycle(outcome);
                        run
                    })
                    .map_err(SimError::from)
            }
            Err(e) => Err(e.into()),
        };
        self.lowered
            .lock()
            .expect("message pool poisoned")
            .push(messages);
        result
    }

    /// Times several schedules sharing the network, each with its own
    /// earliest-start time (used by the layer-wise overlap experiment, where
    /// layer `l`'s AllReduce may not start before its gradient exists).
    ///
    /// Returns the overall result plus each schedule's completion time.
    ///
    /// # Errors
    ///
    /// As for [`SimEngine::run`].
    pub fn run_phased(
        &self,
        mesh: &Mesh,
        schedules: &[(&Schedule, f64)],
    ) -> Result<(RunResult, Vec<f64>), SimError> {
        let mut messages = self
            .lowered
            .lock()
            .expect("message pool poisoned")
            .pop()
            .unwrap_or_default();
        let spans = schedule_messages_into(schedules, &mut messages);
        let result = self.sim.simulate(mesh, &messages).map(|outcome| {
            let per_schedule = spans
                .iter()
                .map(|&(a, b)| {
                    outcome.completions()[a..b]
                        .iter()
                        .copied()
                        .fold(0.0, f64::max)
                })
                .collect();
            let run = RunResult::of(&outcome, outcome.makespan_ns());
            self.sim.recycle(outcome);
            (run, per_schedule)
        });
        self.lowered
            .lock()
            .expect("message pool poisoned")
            .push(messages);
        result.map_err(Into::into)
    }

    /// The underlying packet engine, for the audit layer.
    pub(crate) fn packet_sim(&self) -> &PacketSim {
        &self.sim
    }
}

/// Lowers a streamed op sequence straight into a (possibly recycled)
/// message buffer, entry by entry — the streaming counterpart of
/// [`schedule_messages_into`]. Op `k` becomes message `k`; dependency ids
/// translate one-to-one, so the resulting DAG is byte-for-byte the DAG the
/// materialized path lowers.
struct MessageSink<'a> {
    messages: &'a mut Vec<Message>,
    idx: usize,
}

impl OpSink for MessageSink<'_> {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _offset: u64,
        bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        let idx = self.idx;
        let id = u32::try_from(idx).expect("streamed schedule exceeds u32 op ids");
        let dep_ids = deps.iter().map(|d| MsgId(d.index()));
        if let Some(m) = self.messages.get_mut(idx) {
            m.id = MsgId(idx);
            m.src = src;
            m.dst = dst;
            m.bytes = bytes;
            m.ready_at_ns = 0.0;
            m.deps.clear();
            m.deps.extend(dep_ids);
        } else {
            self.messages
                .push(Message::new(MsgId(idx), src, dst, bytes).with_deps(dep_ids));
        }
        self.idx += 1;
        OpId(id)
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {
        // Timing needs only the message DAG; participants matter to the
        // functional verifier and audits, which run on materialized
        // schedules.
    }
}

/// Lowers schedules to the simulator's message DAG: one [`Message`] per op,
/// dependencies preserved, ids offset so several schedules share one id
/// space. Returns the messages plus each schedule's `[start, end)` span.
///
/// Shared by [`SimEngine::run_phased`] and the audit layer, so the audited
/// DAG is byte-for-byte the DAG production runs time.
pub(crate) fn schedule_messages(
    schedules: &[(&Schedule, f64)],
) -> (Vec<Message>, Vec<(usize, usize)>) {
    let mut messages = Vec::new();
    let spans = schedule_messages_into(schedules, &mut messages);
    (messages, spans)
}

/// In-place variant of [`schedule_messages`]: rewrites `messages` entry by
/// entry so a recycled buffer keeps both its spine and its per-message
/// dependency-list allocations — the congested schedules lower ~10^5 ops,
/// and rebuilding that buffer from scratch costs more than a third of the
/// fast path's whole simulation time.
pub(crate) fn schedule_messages_into(
    schedules: &[(&Schedule, f64)],
    messages: &mut Vec<Message>,
) -> Vec<(usize, usize)> {
    let total_ops: usize = schedules.iter().map(|(s, _)| s.len()).sum();
    messages.truncate(total_ops);
    let mut base = 0u32;
    let mut idx = 0usize;
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(schedules.len());
    for (schedule, ready_at) in schedules {
        let start = idx;
        for id in schedule.op_ids() {
            let op = schedule.op(id);
            let deps = schedule
                .deps(id)
                .iter()
                .map(|d| MsgId((base + d.0) as usize));
            if let Some(m) = messages.get_mut(idx) {
                m.id = MsgId((base + id.0) as usize);
                m.src = op.src;
                m.dst = op.dst;
                m.bytes = op.bytes;
                m.ready_at_ns = *ready_at;
                m.deps.clear();
                m.deps.extend(deps);
            } else {
                let mut m = Message::new(MsgId((base + id.0) as usize), op.src, op.dst, op.bytes)
                    .with_deps(deps);
                m.ready_at_ns = *ready_at;
                messages.push(m);
            }
            idx += 1;
        }
        base += schedule.len() as u32;
        spans.push((start, idx));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_collectives::Algorithm;

    #[test]
    fn ring_bi_beats_unidirectional_ring() {
        let mesh = Mesh::square(4).unwrap();
        let e = SimEngine::paper_default();
        let d = 8 << 20;
        let ring = e
            .run(&mesh, &Algorithm::Ring.schedule(&mesh, d).unwrap())
            .unwrap();
        let bi = e
            .run(&mesh, &Algorithm::RingBiEven.schedule(&mesh, d).unwrap())
            .unwrap();
        let speedup = ring.total_time_ns / bi.total_time_ns;
        assert!(
            (1.6..2.4).contains(&speedup),
            "bidirectional speedup {speedup}"
        );
    }

    #[test]
    fn link_utilization_orders_match_paper() {
        // TTO > RingBi > Ring in time-averaged link utilization.
        let mesh = Mesh::square(5).unwrap();
        let e = SimEngine::paper_default();
        let d = 4 << 20;
        let util = |a: Algorithm| {
            e.run(&mesh, &a.schedule(&mesh, d).unwrap())
                .unwrap()
                .link_utilization_percent
        };
        let (ring, bi, tto) = (
            util(Algorithm::Ring),
            util(Algorithm::RingBiOdd),
            util(Algorithm::Tto),
        );
        assert!(tto > bi && bi > ring, "tto={tto} bi={bi} ring={ring}");
        assert!(tto > 60.0, "tto utilization {tto}");
        assert!(ring < 40.0, "ring utilization {ring}");
    }

    #[test]
    fn streamed_run_is_bit_identical_to_materialized() {
        let e = SimEngine::paper_default();
        let opts = ScheduleOptions::default();
        for (dims, algorithms) in [
            (
                (4, 4),
                &[
                    Algorithm::Ring,
                    Algorithm::RingBiEven,
                    Algorithm::MultiTree,
                    Algorithm::Tto,
                    Algorithm::DBTree,
                ][..],
            ),
            ((5, 5), &[Algorithm::RingBiOdd, Algorithm::Tto][..]),
        ] {
            let mesh = Mesh::new(dims.0, dims.1).unwrap();
            let d = 1 << 20;
            for &a in algorithms {
                let s = a.schedule_with(&mesh, d, &opts).unwrap();
                let materialized = e.run(&mesh, &s).unwrap();
                let streamed = e.run_streamed(&mesh, a, d, &opts).unwrap();
                assert_eq!(materialized, streamed, "{a} on {dims:?}");
            }
        }
    }

    #[test]
    fn streamed_run_surfaces_construction_errors() {
        let e = SimEngine::paper_default();
        let mesh = Mesh::square(5).unwrap();
        let err = e.run_streamed(&mesh, Algorithm::RingBiEven, 1 << 20, &Default::default());
        assert!(matches!(err, Err(crate::SimError::Collective(_))));
    }

    #[test]
    fn phased_runs_respect_ready_times() {
        let mesh = Mesh::square(3).unwrap();
        let e = SimEngine::paper_default();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let (solo, _) = e.run_phased(&mesh, &[(&s, 0.0)]).unwrap();
        let (delayed, per) = e.run_phased(&mesh, &[(&s, 50_000.0)]).unwrap();
        assert!(delayed.total_time_ns >= solo.total_time_ns + 50_000.0 - 1.0);
        assert_eq!(per.len(), 1);
    }

    #[test]
    fn dead_links_are_excluded_from_percent_denominators() {
        // Regression for the `ablation_faults` sweep: the percent metrics
        // are over *usable* links. On a 1x3 row with the right channel dead
        // in both directions, a 2-node exchange saturates every usable link
        // — 100%, not the 50% a stale all-links denominator would report.
        use meshcoll_collectives::{OpKind, Schedule};
        use meshcoll_topo::NodeId;

        let mesh = Mesh::new(1, 3).unwrap();
        let mut noc = NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, NodeId(1), NodeId(2))
            .unwrap();
        let e = SimEngine::new(noc);
        let mut b = Schedule::builder("pair", 8192);
        b.set_participants(vec![NodeId(0), NodeId(1)]);
        let r = b.push(NodeId(0), NodeId(1), 0, 8192, OpKind::Reduce, 0, &[]);
        b.push(NodeId(1), NodeId(0), 0, 8192, OpKind::Gather, 0, &[r]);
        let run = e.run(&mesh, &b.build()).unwrap();
        assert_eq!(run.used_link_percent, 100.0);
        assert!(run.link_utilization_percent <= 100.0);
    }

    #[test]
    fn degraded_run_repairs_and_completes_with_nonzero_bandwidth() {
        // Kill the first link each algorithm's healthy schedule actually
        // routes over, so the lint is guaranteed dirty and the repair path
        // is guaranteed to execute.
        let mesh = Mesh::square(5).unwrap();
        let d = 1 << 20;
        let opts = ScheduleOptions::default();
        for a in [
            Algorithm::Ring,
            Algorithm::RingBiOdd,
            Algorithm::MultiTree,
            Algorithm::Tto,
        ] {
            let s = a.schedule_with(&mesh, d, &opts).unwrap();
            let op = &s.ops()[0];
            let link = meshcoll_topo::routing::route(
                &mesh,
                op.src,
                op.dst,
                meshcoll_topo::RoutingAlgorithm::Xy,
            )
            .unwrap()[0];
            let (x, y) = mesh.link_endpoints(link);
            let mut noc = NocConfig::paper_default();
            noc.faults.fail_link_between(&mesh, x, y).unwrap();
            let e = SimEngine::new(noc);
            let run = e.run_degraded(&mesh, a, d, &opts).unwrap();
            assert!(
                matches!(run.status, RunStatus::Repaired { .. }),
                "{a}: {:?}",
                run.status
            );
            let bw = run
                .result
                .expect("repaired run has timing")
                .bandwidth_gbps(d);
            assert!(bw > 0.0, "{a}: bandwidth {bw}");
        }
    }

    #[test]
    fn repeated_repaired_runs_compare_equal() {
        // The ablation's one-dead-link Ring case: a repaired verdict whose
        // repair time is host wall-clock and differs between the calls.
        let mesh = Mesh::square(5).unwrap();
        let at = |r, c| mesh.node_at(meshcoll_topo::Coord::new(r, c));
        let mut noc = NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, at(2, 2), at(2, 3))
            .unwrap();
        let e = SimEngine::new(noc);
        let opts = ScheduleOptions::default();
        let a = e
            .run_degraded(&mesh, Algorithm::Ring, 1 << 20, &opts)
            .unwrap();
        let b = e
            .run_degraded(&mesh, Algorithm::Ring, 1 << 20, &opts)
            .unwrap();
        assert!(matches!(a.status, RunStatus::Repaired { .. }), "{a:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_package_is_infeasible_not_a_panic() {
        let mesh = Mesh::square(5).unwrap();
        let corner = mesh.node_at(meshcoll_topo::Coord::new(0, 0));
        let mut noc = NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, corner, mesh.node_at(meshcoll_topo::Coord::new(0, 1)))
            .unwrap();
        noc.faults
            .fail_link_between(&mesh, corner, mesh.node_at(meshcoll_topo::Coord::new(1, 0)))
            .unwrap();
        let e = SimEngine::new(noc);
        let run = e
            .run_degraded(&mesh, Algorithm::Ring, 1 << 20, &ScheduleOptions::default())
            .unwrap();
        assert!(matches!(run.status, RunStatus::Infeasible { .. }));
        assert!(run.result.is_none());
    }

    #[test]
    fn pure_degradation_completes_unrepaired_at_lower_bandwidth() {
        let mesh = Mesh::square(4).unwrap();
        let d = 1 << 20;
        let opts = ScheduleOptions::default();
        let healthy = SimEngine::paper_default()
            .run_degraded(&mesh, Algorithm::Ring, d, &opts)
            .unwrap();
        let mut noc = NocConfig::paper_default();
        for (_, _, link) in mesh.links() {
            noc.faults.degrade_link(link, 0.25);
        }
        let degraded = SimEngine::new(noc)
            .run_degraded(&mesh, Algorithm::Ring, d, &opts)
            .unwrap();
        assert_eq!(healthy.status, RunStatus::Completed);
        assert_eq!(degraded.status, RunStatus::Completed);
        let hb = healthy.result.unwrap().bandwidth_gbps(d);
        let db = degraded.result.unwrap().bandwidth_gbps(d);
        assert!(
            db < hb / 3.0 && db > 0.0,
            "healthy {hb} GB/s vs degraded {db} GB/s"
        );
    }
}
