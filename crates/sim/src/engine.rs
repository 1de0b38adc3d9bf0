//! Schedule → network-simulation bridge.

use meshcoll_collectives::{fault, Algorithm, CollectiveError, Schedule, ScheduleOptions};
use meshcoll_noc::{NocConfig, NullSink, PacketSim, SimMode, SimOutcome, TraceSink};
use meshcoll_topo::{Mesh, NodeId, TransferDag};

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
/// engine. The packet engine reads each schedule in place (a [`Schedule`]
/// is a [`TransferDag`]), so a run copies nothing out of it, and its
/// scratch and outcome buffers are pooled across runs (clones share the
/// pool): after a warmup run, [`SimEngine::run`] allocates nothing.
#[derive(Debug, Clone)]
pub struct SimEngine {
    sim: PacketSim,
}

/// Schedules laid end to end as one transfer DAG, read in place: each
/// part's ops follow every earlier part's (their ids, and so their
/// dependency ids, are offset by the ops before them) and become ready at
/// the part's own time. Phased runs and `run_online`'s resumed segments
/// simulate through it.
pub(crate) struct PhasedDag<'a> {
    parts: &'a [(&'a Schedule, f64)],
    /// Each part's end in the joint id space.
    ends: Vec<usize>,
}

impl<'a> PhasedDag<'a> {
    pub(crate) fn new(parts: &'a [(&'a Schedule, f64)]) -> Self {
        let ends = parts
            .iter()
            .scan(0, |end, (s, _)| {
                *end += s.len();
                Some(*end)
            })
            .collect();
        PhasedDag { parts, ends }
    }

    /// The schedule holding joint id `i`, its ready time, and its id offset.
    #[inline]
    fn locate(&self, i: usize) -> (&'a Schedule, f64, usize) {
        let p = self.ends.partition_point(|&end| end <= i);
        let base = if p == 0 { 0 } else { self.ends[p - 1] };
        let (schedule, ready_at) = self.parts[p];
        (schedule, ready_at, base)
    }
}

impl TransferDag for PhasedDag<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    #[inline]
    fn src(&self, i: usize) -> NodeId {
        let (s, _, base) = self.locate(i);
        s.src(i - base)
    }

    #[inline]
    fn dst(&self, i: usize) -> NodeId {
        let (s, _, base) = self.locate(i);
        s.dst(i - base)
    }

    #[inline]
    fn bytes(&self, i: usize) -> u64 {
        let (s, _, base) = self.locate(i);
        s.bytes(i - base)
    }

    #[inline]
    fn ready_at_ns(&self, i: usize) -> f64 {
        self.locate(i).1
    }

    #[inline]
    fn deps(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let (s, _, base) = self.locate(i);
        TransferDag::deps(s, i - base).map(move |d| base + d)
    }
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
        }
    }

    /// Creates an engine sharing `ctx`'s route cache, so repeated runs on
    /// the same mesh — including from other engines built on the same
    /// context — reuse each other's routes.
    pub fn with_context(noc: NocConfig, ctx: &SimContext) -> Self {
        SimEngine {
            sim: PacketSim::new(noc).with_route_cache(ctx.route_cache().clone()),
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
    /// persist across runs). Stays `O(messages)` of the largest schedule
    /// simulated so far; the scalability smoke test pins that down.
    pub fn retained_scratch_bytes(&self) -> usize {
        self.sim.retained_scratch_bytes()
    }

    /// Times one schedule, simulating it in place.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] if the schedule is an invalid message
    /// DAG (cannot happen for schedules built by this workspace's
    /// algorithms; defensive).
    pub fn run(&self, mesh: &Mesh, schedule: &Schedule) -> Result<RunResult, SimError> {
        let outcome = self.simulate(mesh, &[(schedule, 0.0)], &mut NullSink)?;
        let run = RunResult::of(&outcome, outcome.makespan_ns());
        self.sim.recycle(outcome);
        Ok(run)
    }

    /// Simulates schedules laid end to end ([`PhasedDag`]) on the packet
    /// engine in place, tracing into `sink`. A lone schedule ready at 0 —
    /// almost every run — is read directly as its own [`TransferDag`],
    /// without the per-access part lookup. An interruption by the
    /// configured fault timeline is the stall error a completion-only run
    /// reports; `run_online` drains and repairs instead.
    pub(crate) fn simulate<T: TraceSink>(
        &self,
        mesh: &Mesh,
        parts: &[(&Schedule, f64)],
        sink: &mut T,
    ) -> Result<SimOutcome, SimError> {
        let report = match parts {
            [(schedule, ready_at)] if *ready_at == 0.0 => {
                self.sim.simulate_dag(mesh, *schedule, sink)?
            }
            _ => self.sim.simulate_dag(mesh, &PhasedDag::new(parts), sink)?,
        };
        Ok(report.into_outcome()?)
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

    /// Generates `algorithm`'s schedule and times it: exactly
    /// [`Algorithm::schedule_with`] followed by [`SimEngine::run`], so the
    /// result is bit-identical to a run of the materialized schedule. Peak
    /// memory is the schedule (ops plus its dependency arena) and the
    /// engine's O(messages) scratch; the engine reads the schedule in place
    /// rather than copying it into a message list.
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
        let schedule = algorithm.schedule_with(mesh, data_bytes, opts)?;
        self.run(mesh, &schedule)
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
        let outcome = self.simulate(mesh, schedules, &mut NullSink)?;
        let mut start = 0;
        let per_schedule = schedules
            .iter()
            .map(|(s, _)| {
                let span = start..start + s.len();
                start = span.end;
                outcome.completions()[span]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max)
            })
            .collect();
        let run = RunResult::of(&outcome, outcome.makespan_ns());
        self.sim.recycle(outcome);
        Ok((run, per_schedule))
    }

    /// The underlying packet engine, for the audit layer.
    pub(crate) fn packet_sim(&self) -> &PacketSim {
        &self.sim
    }
}

/// Test support: the DAG a [`PhasedDag`] reads, hand-lowered into a
/// message list (ids and dependency ids offset by the ops before each part,
/// each part ready at its own time), and an outcome's values as bits.
#[cfg(test)]
pub(crate) mod lowered {
    use meshcoll_collectives::Schedule;
    use meshcoll_noc::{Message, MsgId, SimOutcome};
    use meshcoll_topo::Mesh;

    pub(crate) fn lower(parts: &[(&Schedule, f64)]) -> Vec<Message> {
        let mut messages = Vec::new();
        for &(s, ready_at) in parts {
            let base = messages.len();
            for id in s.op_ids() {
                let op = s.op(id);
                let deps = s.deps(id).iter().map(|d| MsgId(base + d.index()));
                messages.push(
                    Message::new(MsgId(base + id.index()), op.src, op.dst, op.bytes)
                        .with_deps(deps)
                        .with_ready_at(ready_at),
                );
            }
        }
        messages
    }

    /// Every completion, then every link's busy time, as bits.
    pub(crate) fn bits(mesh: &Mesh, o: &SimOutcome) -> Vec<u64> {
        let busy = mesh.links().map(|(_, _, l)| o.link_stats().busy_ns(l));
        o.completions()
            .iter()
            .copied()
            .chain(busy)
            .map(f64::to_bits)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::lowered::{bits, lower};
    use super::*;
    use meshcoll_collectives::Algorithm;

    #[test]
    fn schedules_read_in_place_match_their_hand_lowered_messages() {
        let opts = ScheduleOptions {
            tto_chunk_bytes: 8192,
            dbtree_segment_bytes: 8192,
        };
        for side in [4, 5] {
            let mesh = Mesh::square(side).unwrap();
            for a in Algorithm::BENCHMARKS {
                let Ok(s) = a.schedule_with(&mesh, 1 << 18, &opts) else {
                    continue;
                };
                let messages = lower(&[(&s, 0.0)]);
                for mode in [SimMode::Auto, SimMode::PerPacket] {
                    let sim = PacketSim::new(NocConfig::paper_default()).with_mode(mode);
                    let in_place = sim.simulate_dag(&mesh, &s, &mut NullSink).unwrap();
                    assert!(in_place.interruption.is_none());
                    let lowered = sim.simulate(&mesh, &messages).unwrap();
                    assert_eq!(
                        bits(&mesh, &in_place.outcome),
                        bits(&mesh, &lowered),
                        "{a} on {side}x{side}, {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn phased_runs_are_bit_identical_to_hand_lowered_messages() {
        let mesh = Mesh::square(4).unwrap();
        let ring = Algorithm::Ring.schedule(&mesh, 1 << 18).unwrap();
        let tto = Algorithm::Tto.schedule(&mesh, 1 << 18).unwrap();
        let parts = [(&ring, 0.0), (&tto, 12_345.6)];
        let messages = lower(&parts);
        for mode in [SimMode::Auto, SimMode::PerPacket] {
            let e = SimEngine::paper_default().with_mode(mode);
            let lowered = e.packet_sim().simulate(&mesh, &messages).unwrap();
            let in_place = e.simulate(&mesh, &parts, &mut NullSink).unwrap();
            assert_eq!(bits(&mesh, &in_place), bits(&mesh, &lowered), "{mode:?}");

            // `run_phased` reports exactly that outcome.
            let (run, per_schedule) = e.run_phased(&mesh, &parts).unwrap();
            let makespan = lowered.makespan_ns();
            let stats = lowered.link_stats();
            assert_eq!(run.total_time_ns.to_bits(), makespan.to_bits());
            assert_eq!(
                run.link_utilization_percent.to_bits(),
                stats.utilization_percent(makespan).to_bits()
            );
            assert_eq!(
                run.used_link_percent.to_bits(),
                stats.used_link_percent().to_bits()
            );
            let last = |r: std::ops::Range<usize>| {
                lowered.completions()[r]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max)
                    .to_bits()
            };
            let split = ring.len();
            assert_eq!(
                per_schedule.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                vec![last(0..split), last(split..messages.len())]
            );
        }
    }

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
