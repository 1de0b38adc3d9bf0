//! Online fault injection: running a message DAG under timed deaths.
//!
//! The static fault machinery ([`FaultModel`](meshcoll_topo::FaultModel))
//! describes a degraded-but-stable network: dead links are known before the
//! run starts, so the engines reject traffic routed over them up front. The
//! *online* engine in this module instead applies a
//! [`FaultTimeline`](meshcoll_topo::FaultTimeline) — links and chiplets that
//! die at simulation timestamps — while the run is in flight:
//!
//! * Transmissions already serialized onto a link when it dies complete;
//!   nothing new starts at or after the death time. A packet whose link-win
//!   time would fall at or past its link's death is **dropped** there (a
//!   [`TraceEvent::PacketDrop`]), and a message that becomes ready after a
//!   route link has died is withheld entirely (it belongs to the
//!   un-executed suffix).
//! * Instead of hanging into the stall watchdog, the run **drains**: every
//!   in-flight packet delivers or drops, and the engine returns a typed
//!   [`DrainSnapshot`] — which messages completed, the byte-level loss, and
//!   the fault overlay/remaining timeline a repair layer needs to regenerate
//!   the suffix on the surviving topology.
//! * There is no separate online engine: the run follows the same rule as
//!   a static one (see [`PacketSim`]). Under [`SimMode::Auto`](crate::SimMode)
//!   one fast-path pass over the whole DAG applies the death rule to whole
//!   trains — it drops the suffix of a train whose starts reach its link's
//!   death and withholds messages released after a death on their route —
//!   and fills the drain tally the per-packet loop fills, so its snapshot is
//!   that loop's bit for bit. A split the pass cannot prove under the
//!   deaths ([`Decline::DyingLink`](crate::Decline::DyingLink),
//!   [`Decline::Truncated`](crate::Decline::Truncated)) and transient flaps
//!   drain the whole DAG through the per-packet loop with the death times
//!   armed.
//!   [`OnlineReport::engine`] names the engine that ran, and
//!   [`OnlineReport::first_difference`] finds the first value on which two
//!   reports disagree.
//! * A repaired suffix resumes under the drained overlay and the remaining
//!   timeline through [`PacketSim::simulate_dag_under`], on the same
//!   simulator's pooled scratch.
//!
//! Schedule-level repair and resume orchestration live above the NoC (in
//! `meshcoll-collectives` and `meshcoll-sim`); this module's contract ends
//! at the drained snapshot plus [`splice_outcomes`] for merging the
//! per-segment results of a resumed run.

use std::fmt;

use meshcoll_topo::{FaultEvent, FaultModel, FaultTimeline, LinkId, Mesh};

use crate::config::Net;
use crate::message::MessageDag;
use crate::time::{ns_to_ps, ps_to_ns};
use crate::trace::{TraceEvent, TraceSink};
use crate::{Engine, LinkStats, Message, MsgId, NocError, PacketSim, SimOutcome};

/// The drained state of a run interrupted by a timed fault arrival: what
/// completed, what was lost, and the world the repaired suffix must run in.
#[derive(Debug, Clone)]
pub struct DrainSnapshot {
    /// Timestamp of the earliest timeline event absorbed by this drain, ns.
    pub first_fault_ns: f64,
    /// Drain completion time, ns: no completed activity (delivery, drop, or
    /// link busy interval) extends past it, so a suffix resumed at or after
    /// this time cannot violate causality against the executed prefix.
    pub drain_ns: f64,
    /// Per message: did it deliver in full before the drain?
    pub delivered: Vec<bool>,
    /// Per message: payload bytes that physically reached the destination
    /// (partial for messages interrupted mid-flight).
    pub delivered_bytes: Vec<u64>,
    /// Payload bytes dropped in flight across the run.
    pub lost_bytes: u64,
    /// Messages left undelivered (dropped in flight or withheld).
    pub lost_msgs: usize,
    /// Timeline events folded into [`overlay`](Self::overlay) by this drain.
    pub faults_applied: usize,
    /// The static fault model *after* the drain: the configured faults plus
    /// every timeline event at or before [`drain_ns`](Self::drain_ns). The
    /// repaired suffix must be feasible on this overlay.
    pub overlay: FaultModel,
    /// Timeline events still in the future at the drain; the resumed run
    /// carries them so later faults keep firing.
    pub remaining: FaultTimeline,
    /// The first message lost (earliest drop, else the lowest-id
    /// undelivered message).
    pub first_lost_msg: Option<MsgId>,
    /// The dead link that claimed the first dropped packet, when a packet
    /// was dropped in flight (None when every loss was a withheld message).
    pub first_dead_link: Option<LinkId>,
}

impl DrainSnapshot {
    /// Collapses the snapshot into the stall error a completion-only caller
    /// (one that cannot repair) reports: the interruption's byte-level
    /// detail is folded into the enriched [`NocError::Stalled`] fields.
    pub fn into_stall_error(self) -> NocError {
        NocError::Stalled {
            pending_msgs: self.lost_msgs,
            last_progress_ns: self.drain_ns as u64,
            first_blocked_msg: self.first_lost_msg,
            first_blocked_link: self.first_dead_link,
            stalled_at_ns: self.first_fault_ns as u64,
        }
    }
}

/// Result of an online simulation: the (possibly partial) outcome, plus the
/// drained interruption state when a timed fault cut the run short.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Completion times and link stats of everything that executed.
    /// Undelivered messages keep `NaN` completions, which the makespan
    /// ignores.
    pub outcome: SimOutcome,
    /// `None` when the run completed despite the timeline (all activity
    /// finished before the deaths, or the deaths missed every route);
    /// otherwise the drained snapshot for the repair layer.
    pub interruption: Option<DrainSnapshot>,
    /// The engine that produced the result.
    pub engine: Engine,
}

/// The first value on which two reports of one DAG differ, as
/// [`OnlineReport::first_difference`] finds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// The value: `"completion"`, `"busy_ns"`, `"interrupted"`, or a
    /// [`DrainSnapshot`] field's name.
    pub field: &'static str,
    /// The message (completions and per-message snapshot fields) or link
    /// (busy time) the value belongs to.
    pub index: Option<usize>,
    /// The first report's value, formatted.
    pub left: String,
    /// The second report's value, formatted.
    pub right: String,
}

impl fmt::Display for ReportDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.field)?;
        if let Some(i) = self.index {
            write!(f, "[{i}]")?;
        }
        write!(f, " is {} against {}", self.left, self.right)
    }
}

/// A [`ReportDiff`] when `same` is false.
fn differ<T: fmt::Debug>(
    field: &'static str,
    index: Option<usize>,
    (left, right): (T, T),
    same: bool,
) -> Option<ReportDiff> {
    (!same).then(|| ReportDiff {
        field,
        index,
        left: format!("{left:?}"),
        right: format!("{right:?}"),
    })
}

/// The first position where two per-item lists differ under `same`.
fn first_item<T: fmt::Debug + Copy>(
    field: &'static str,
    a: &[T],
    b: &[T],
    same: impl Fn(T, T) -> bool,
) -> Option<ReportDiff> {
    let len = differ(field, None, (a.len(), b.len()), a.len() == b.len());
    len.or_else(|| {
        a.iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (&x, &y))| differ(field, Some(i), (x, y), same(x, y)))
    })
}

impl OnlineReport {
    /// The first value on which this report and `other`, two runs of one
    /// DAG on `mesh`, differ: each completion and each link's busy time bit
    /// for bit, whether the run was interrupted, then every
    /// [`DrainSnapshot`] field in declaration order (times bit for bit).
    /// `None` when they agree on all of them; the engine that produced
    /// each report is not compared.
    pub fn first_difference(&self, mesh: &Mesh, other: &OnlineReport) -> Option<ReportDiff> {
        let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
        let busy = |o: &SimOutcome| -> Vec<f64> {
            mesh.links()
                .map(|(_, _, l)| o.link_stats().busy_ns(l))
                .collect()
        };
        let (a, b) = (&self.outcome, &other.outcome);
        if let Some(d) = first_item("completion", a.completions(), b.completions(), bits) {
            return Some(d);
        }
        if let Some(mut d) = first_item("busy_ns", &busy(a), &busy(b), bits) {
            // Name the link, not its position in the mesh's link order.
            d.index = d
                .index
                .and_then(|i| mesh.links().nth(i))
                .map(|(_, _, l)| l.index());
            return Some(d);
        }
        let (a, b) = match (&self.interruption, &other.interruption) {
            (Some(a), Some(b)) => (a, b),
            (a, b) => {
                let flags = (a.is_some(), b.is_some());
                return differ("interrupted", None, flags, flags.0 == flags.1);
            }
        };
        // One snapshot field, compared with `same` (times bit for bit).
        macro_rules! field {
            ($name:ident, $same:expr) => {
                || {
                    differ(
                        stringify!($name),
                        None,
                        (&a.$name, &b.$name),
                        $same(&a.$name, &b.$name),
                    )
                }
            };
            ($name:ident) => {
                field!($name, |x, y| x == y)
            };
        }
        let time = |x: &f64, y: &f64| bits(*x, *y);
        field!(first_fault_ns, time)()
            .or_else(field!(drain_ns, time))
            .or_else(|| first_item("delivered", &a.delivered, &b.delivered, |x, y| x == y))
            .or_else(|| {
                first_item(
                    "delivered_bytes",
                    &a.delivered_bytes,
                    &b.delivered_bytes,
                    |x, y| x == y,
                )
            })
            .or_else(field!(lost_bytes))
            .or_else(field!(lost_msgs))
            .or_else(field!(faults_applied))
            .or_else(field!(overlay))
            .or_else(field!(remaining))
            .or_else(field!(first_lost_msg))
            .or_else(field!(first_dead_link))
    }

    /// The outcome of a run that completed; an interrupted run becomes the
    /// stall error a completion-only caller (one that cannot repair)
    /// reports ([`DrainSnapshot::into_stall_error`]).
    ///
    /// # Errors
    ///
    /// [`NocError::Stalled`] when a timed fault interrupted the run.
    pub fn into_outcome(self) -> Result<SimOutcome, NocError> {
        match self.interruption {
            None => Ok(self.outcome),
            Some(snap) => Err(snap.into_stall_error()),
        }
    }
}

/// The tie-order key of the event that carried a packet to a link:
/// `(time, rank, message, packet)` in ps, as [`crate::time`] defines it.
pub(crate) type PacketKey = (u64, u64, u32, u64);

/// Drain bookkeeping of one run under a timeline, filled alike by the
/// per-packet loop and by a fast-path pass: bytes each message delivered,
/// what was lost, and the drain clock. Stays empty — and allocation-free —
/// for static runs. Times are in ps.
#[derive(Debug, Default)]
pub(crate) struct DrainTally {
    /// Per message: payload bytes that reached the destination.
    pub(crate) delivered_bytes: Vec<u64>,
    pub(crate) lost_bytes: u64,
    /// Max over completions, drop times, withhold decisions, and link
    /// busy-interval ends: the run's drain clock.
    pub(crate) end_ps: u64,
    pub(crate) interrupted: bool,
    /// First in-flight drop, ordered by drop time and then by the key of
    /// the dropped packet's own event: (time, key, message, dead link).
    pub(crate) first_drop: Option<(u64, PacketKey, MsgId, LinkId)>,
}

impl DrainTally {
    /// An empty tally for a timeline run of `n` messages.
    pub(crate) fn timed(n: usize) -> Self {
        DrainTally {
            delivered_bytes: vec![0; n],
            ..DrainTally::default()
        }
    }

    /// A message withheld at `at` because a route link had already died.
    /// The withhold decision is activity at `at`, so the drain clock must
    /// cover it (it is what guarantees `apply_through(drain_ns)` folds the
    /// killing event).
    pub(crate) fn withhold(&mut self, at: u64) {
        self.interrupted = true;
        self.end_ps = self.end_ps.max(at);
    }

    /// Packets of `msg` dropped on the dead `link`, `bytes` in all: the
    /// first at `first_at` from the event keyed `key`, the last at
    /// `last_at`. The per-packet loop drops one packet per call, in key
    /// order; the fast path drops a train's suffix at once.
    pub(crate) fn drop_packets(
        &mut self,
        (first_at, key): (u64, PacketKey),
        last_at: u64,
        msg: MsgId,
        link: LinkId,
        bytes: u64,
    ) {
        self.interrupted = true;
        self.lost_bytes += bytes;
        self.end_ps = self.end_ps.max(last_at);
        if self
            .first_drop
            .is_none_or(|(t, k, _, _)| (first_at, key) < (t, k))
        {
            self.first_drop = Some((first_at, key, msg, link));
        }
    }
}

/// Per-link death times implied by a timeline, in ps: the minimum over the
/// link's own `LinkDiesAt` events and the `ChipletDiesAt` of either
/// endpoint (a dead chiplet takes all its links down), as the first
/// picosecond at or past it. `u64::MAX` for links the timeline never
/// touches. A packet whose start `p` has `p >= death` is exactly one whose
/// start in ns is at or past the death in ns (see [`ns_to_ps`]).
fn link_death_times(mesh: &Mesh, timeline: &FaultTimeline) -> Vec<u64> {
    let mut death = vec![f64::INFINITY; mesh.link_id_space()];
    for e in timeline.events() {
        match *e {
            FaultEvent::LinkDiesAt { link, t_ns } => {
                let d = &mut death[link.index()];
                *d = d.min(t_ns);
            }
            FaultEvent::ChipletDiesAt { node, t_ns } => {
                for (a, b, l) in mesh.links() {
                    if a == node || b == node {
                        let d = &mut death[l.index()];
                        *d = d.min(t_ns);
                    }
                }
            }
        }
    }
    death.into_iter().map(ns_to_ps).collect()
}

/// Splices the per-segment outcomes of a resumed online run (the
/// interrupted prefix plus each repaired suffix) into one whole-run
/// outcome: completion vectors concatenate in segment order, per-link busy
/// time sums, and the makespan is the global maximum (all segment times are
/// absolute, so no re-basing is needed). Undelivered prefix messages keep
/// their `NaN` completions, which the makespan fold ignores.
pub fn splice_outcomes(mesh: &Mesh, faults: &FaultModel, segments: &[SimOutcome]) -> SimOutcome {
    let mut completion = Vec::new();
    let mut stats = LinkStats::new(mesh, faults);
    for s in segments {
        completion.extend_from_slice(s.completions());
        stats.absorb(s.link_stats());
    }
    SimOutcome::new(completion, stats)
}

impl PacketSim {
    /// Simulates the message DAG under the configured
    /// [`FaultTimeline`](meshcoll_topo::FaultTimeline), draining instead of
    /// stalling when a timed fault interrupts the run. See the
    /// [module docs](crate::online) for the semantics, and
    /// [`PacketSim::simulate_dag`] for the same run over any
    /// [`TransferDag`](meshcoll_topo::TransferDag).
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`PacketSim::simulate`], plus
    /// [`NocError::Stalled`] when the *static* fault model already blocks a
    /// route (a mis-linted schedule, not an online fault) and
    /// [`NocError::Topology`] when the timeline names an out-of-range
    /// link or chiplet. A timed interruption is **not** an error — it is
    /// reported through [`OnlineReport::interruption`].
    pub fn simulate_online<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<OnlineReport, NocError> {
        self.simulate_dag(mesh, &MessageDag(messages), sink)
    }
}

/// Each link's death time in ps under `timeline`, or `None` for a static run
/// (an empty timeline).
pub(crate) fn death_times(
    mesh: &Mesh,
    timeline: &FaultTimeline,
) -> Result<Option<Vec<u64>>, NocError> {
    if timeline.is_empty() {
        return Ok(None);
    }
    timeline.validate(mesh)?;
    Ok(Some(link_death_times(mesh, timeline)))
}

/// Wraps a finished run on `net` as a report: uninterrupted runs as they
/// are, an interrupted one with the drained snapshot (fault arrivals and
/// the drain traced into `sink`).
pub(crate) fn drain_report<T: TraceSink>(
    net: Net<'_>,
    outcome: SimOutcome,
    tally: DrainTally,
    engine: Engine,
    sink: &mut T,
) -> OnlineReport {
    if !tally.interrupted {
        return OnlineReport {
            outcome,
            interruption: None,
            engine,
        };
    }

    let drain_ns = ps_to_ns(tally.end_ps);
    if T::ENABLED {
        for e in net.timeline.events() {
            if e.at_ns() <= drain_ns {
                let (link, node) = match *e {
                    FaultEvent::LinkDiesAt { link, .. } => (Some(link), None),
                    FaultEvent::ChipletDiesAt { node, .. } => (None, Some(node)),
                };
                sink.record(TraceEvent::FaultArrival {
                    link,
                    node,
                    at_ns: e.at_ns(),
                });
            }
        }
    }
    let mut overlay = net.faults.clone();
    let mut remaining = net.timeline.clone();
    let faults_applied = remaining.apply_through(drain_ns, &mut overlay);
    let delivered: Vec<bool> = outcome.completions().iter().map(|c| !c.is_nan()).collect();
    let lost_msgs = delivered.iter().filter(|&&d| !d).count();
    let first_fault_ns = net.timeline.first_at_ns().unwrap_or(drain_ns).min(drain_ns);
    if T::ENABLED {
        sink.record(TraceEvent::Drain {
            at_ns: drain_ns,
            lost_msgs: lost_msgs as u64,
            lost_bytes: tally.lost_bytes,
        });
    }
    let first_lost_msg = tally
        .first_drop
        .map(|(_, _, m, _)| m)
        .or_else(|| delivered.iter().position(|&d| !d).map(MsgId));
    let snapshot = DrainSnapshot {
        first_fault_ns,
        drain_ns,
        delivered,
        delivered_bytes: tally.delivered_bytes,
        lost_bytes: tally.lost_bytes,
        lost_msgs,
        faults_applied,
        overlay,
        remaining,
        first_lost_msg,
        first_dead_link: tally.first_drop.map(|(_, _, _, l)| l),
    };
    OnlineReport {
        outcome,
        interruption: Some(snapshot),
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemorySink, NullSink};
    use crate::{NocConfig, SimMode};
    use meshcoll_topo::NodeId;

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    #[test]
    fn empty_timeline_matches_static_run() {
        let mesh = Mesh::new(1, 3).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(2), 1 << 16)];
        let sim = PacketSim::new(cfg());
        let report = sim.simulate_online(&mesh, &msgs, &mut NullSink).unwrap();
        assert!(report.interruption.is_none());
        let stat = sim.simulate(&mesh, &msgs).unwrap();
        assert_eq!(report.outcome.makespan_ns(), stat.makespan_ns());
    }

    #[test]
    fn late_death_does_not_interrupt() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.timeline.link_dies_at(link, 1e9); // far after completion
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        assert!(report.interruption.is_none());
        let expect = cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((report.outcome.makespan_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn immediate_death_drains_with_full_loss() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.timeline.link_dies_at(link, 0.0);
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let snap = report.interruption.expect("interrupted");
        assert_eq!(snap.lost_msgs, 1);
        assert!(!snap.delivered[0]);
        assert_eq!(snap.delivered_bytes[0], 0);
        assert!(snap.overlay.link_failed(link));
        assert!(snap.remaining.is_empty());
        assert_eq!(snap.first_dead_link, None); // withheld, not dropped
        assert_eq!(snap.first_lost_msg, Some(MsgId(0)));
    }

    #[test]
    fn mid_run_death_drops_in_flight_packets() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        // 4 packets x ~348.68 ns each; kill the link mid-stream.
        c.timeline.link_dies_at(link, 700.0);
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 4)];
        let mut sink = MemorySink::new();
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut sink)
            .unwrap();
        let snap = report.interruption.expect("interrupted");
        assert_eq!(snap.lost_msgs, 1);
        assert!(snap.lost_bytes > 0 && snap.lost_bytes < 8192 * 4);
        assert_eq!(snap.first_dead_link, Some(link));
        assert!(snap.drain_ns >= 700.0);
        // Partial bytes reached the destination before the death.
        assert!(snap.delivered_bytes[0] > 0);
        assert_eq!(snap.delivered_bytes[0] + snap.lost_bytes, 8192 * 4);
        let drops = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::PacketDrop { .. }))
            .count();
        assert!(drops >= 1);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Drain { .. })));
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultArrival { .. })));
    }

    #[test]
    fn unaffected_component_completes_alongside_interruption() {
        let mesh = Mesh::new(2, 2).unwrap();
        let dead = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.timeline.link_dies_at(dead, 0.0);
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 16),
            Message::new(MsgId(1), NodeId(2), NodeId(3), 1 << 16),
        ];
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let snap = report.interruption.expect("interrupted");
        assert_eq!(snap.delivered, vec![false, true]);
        assert!(report.outcome.completion_ns(MsgId(1)).unwrap().is_finite());
        assert_eq!(snap.lost_msgs, 1);
    }

    #[test]
    fn chiplet_death_kills_adjacent_links() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.timeline.chiplet_dies_at(NodeId(1), 0.0);
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(2), 8192)];
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let snap = report.interruption.expect("interrupted");
        assert_eq!(snap.lost_msgs, 1);
        assert!(snap.overlay.node_failed(NodeId(1)));
    }

    #[test]
    fn withheld_dependent_joins_the_suffix() {
        let mesh = Mesh::new(1, 3).unwrap();
        let link = mesh.link_between(NodeId(1), NodeId(2)).unwrap();
        let mut c = cfg();
        // Dies before the dependent (which needs 1->2) becomes ready.
        c.timeline.link_dies_at(link, 10.0);
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 16),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192).with_deps([MsgId(0)]),
        ];
        let report = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let snap = report.interruption.expect("interrupted");
        assert_eq!(snap.delivered, vec![true, false]);
        assert_eq!(snap.delivered_bytes[1], 0);
        assert_eq!(snap.lost_bytes, 0); // withheld, nothing dropped in flight
        assert!(snap.drain_ns >= report.outcome.completion_ns(MsgId(0)).unwrap());
    }

    #[test]
    fn per_packet_mode_agrees_with_auto_on_interruption() {
        let mesh = Mesh::new(2, 2).unwrap();
        let dead = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.timeline.link_dies_at(dead, 500.0);
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 8),
            Message::new(MsgId(1), NodeId(2), NodeId(3), 8192 * 8),
        ];
        let auto = PacketSim::new(c.clone())
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let per = PacketSim::new(c)
            .with_mode(SimMode::PerPacket)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let (sa, sp) = (
            auto.interruption.expect("auto interrupted"),
            per.interruption.expect("per-packet interrupted"),
        );
        assert_eq!(sa.delivered, sp.delivered);
        assert_eq!(sa.lost_bytes, sp.lost_bytes);
        let (a, p) = (
            auto.outcome.completion_ns(MsgId(1)).unwrap(),
            per.outcome.completion_ns(MsgId(1)).unwrap(),
        );
        assert_eq!(a.to_bits(), p.to_bits(), "auto {a} vs per-packet {p}");
    }

    #[test]
    fn first_difference_names_the_first_differing_value() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.timeline.link_dies_at(link, 700.0);
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 4)];
        let cut = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        let per_packet = PacketSim::new(cfg())
            .with_mode(SimMode::PerPacket)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap();
        // Same values from different engines: no difference.
        let mut same = cut.clone();
        same.engine = per_packet.engine;
        assert_eq!(cut.first_difference(&mesh, &same), None);

        let diff = cut.first_difference(&mesh, &per_packet).unwrap();
        assert_eq!((diff.field, diff.index), ("completion", Some(0)));

        let mut later = cut.clone();
        later.interruption.as_mut().unwrap().drain_ns += 1e-9;
        let diff = cut.first_difference(&mesh, &later).unwrap();
        assert_eq!((diff.field, diff.index), ("drain_ns", None));

        let mut short = cut.clone();
        short.interruption.as_mut().unwrap().delivered_bytes[0] -= 1;
        let diff = cut.first_difference(&mesh, &short).unwrap();
        assert_eq!((diff.field, diff.index), ("delivered_bytes", Some(0)));
        assert!(diff.to_string().starts_with("delivered_bytes[0] is "));

        let mut whole = cut.clone();
        whole.interruption = None;
        let diff = cut.first_difference(&mesh, &whole).unwrap();
        assert_eq!((diff.field, diff.left.as_str()), ("interrupted", "true"));
    }

    #[test]
    fn static_dead_route_is_still_a_typed_stall() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(1), NodeId(2))
            .unwrap();
        let far = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        c.timeline.link_dies_at(far, 1e9);
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(2), 8192)];
        let err = PacketSim::new(c)
            .simulate_online(&mesh, &msgs, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, NocError::Stalled { .. }), "got {err}");
    }

    #[test]
    fn splice_outcomes_merges_segments() {
        let mesh = Mesh::new(1, 3).unwrap();
        let sim = PacketSim::new(cfg());
        let a = sim
            .simulate(&mesh, &[Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)])
            .unwrap();
        let b = sim
            .simulate(
                &mesh,
                &[Message::new(MsgId(0), NodeId(1), NodeId(2), 8192).with_ready_at(5000.0)],
            )
            .unwrap();
        let whole = splice_outcomes(&mesh, &FaultModel::default(), &[a.clone(), b.clone()]);
        assert_eq!(whole.completions().len(), 2);
        assert_eq!(whole.makespan_ns(), b.makespan_ns());
        let l0 = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!((whole.link_stats().busy_ns(l0) - a.link_stats().busy_ns(l0)).abs() < 1e-9);
    }
}
