//! Event-driven packet-level network simulator (primary engine).
//!
//! Each transfer of the DAG — a [`Message`](crate::Message), or any
//! [`TransferDag`] entry read in place — is split into maximum-size packets
//! that traverse the XY route hop by hop under virtual cut-through
//! switching:
//!
//! * a packet occupies each directed link for its serialization time
//!   (`bytes / bandwidth`); contending packets queue FIFO in arrival order,
//! * forwarding on the next hop begins one per-flit (header) latency after
//!   the packet wins the current link — consecutive-hop occupancies overlap,
//!   as in cut-through switching, instead of store-and-forward,
//! * a stalled packet buffers at the blocked router (the paper's 318-flit VC
//!   buffers comfortably hold a 16-flit packet, so upstream links are not
//!   back-pressured — matching BookSim's virtual-cut-through configuration).
//!
//! Dependencies are honored at message granularity: a message is injected
//! when all messages it depends on have delivered their last packet.
//!
//! Two engines implement these semantics, both on the integer picosecond
//! clock of [`crate::time`], converting to `f64` ns only at the API
//! boundary, and both drain one kind of queue, the calendar of
//! [`crate::calendar`], in the model's tie-order key `(time, class, age,
//! message id, packet)`: deliveries before later-hop arrivals before
//! injections, and oldest-injected first within a class; no event is ever
//! ordered by when it was created. The exact per-packet engine queues one
//! event per injected message (a burst that serves every packet's first
//! link in packet order), one per later packet-hop, and one per message for
//! its last packet's delivery; earlier packets are delivered as they win
//! their final link. A burst's packets would carry consecutive keys as
//! separate events, so nothing could sort between them. Its calendar is
//! armed over the same horizon estimate as the fast path's, the busiest
//! link's total service time, and sized by the events parked at once. The
//! packet-train coalescing fast path (see [`crate::coalesce`]) advances
//! whole trains in O(messages × hops), decides every same-instant
//! contention with the same key, and is used by default whenever no two
//! trains interleave on a link beyond what its split tier can order. Where
//! it runs, its completions and per-link busy time are bit-identical to the
//! per-packet engine's. The [`SimMode`] policy selects between them.
//!
//! # One rule per run
//!
//! Every run — static or under a
//! [`FaultTimeline`](meshcoll_topo::FaultTimeline), traced or not — follows
//! one rule. Under [`SimMode::Auto`] without transient flaps, one coalescer
//! pass runs over the whole DAG and its result is kept unless it declines.
//! Under a timeline the pass applies the per-packet loop's death rule to
//! whole trains and fills the same drain tally (see
//! [`crate::coalesce`]), so a kept pass drains exactly as that loop would;
//! static runs carry no death times and skip every death check. A traced
//! pass is buffered, so a declined one leaves no partial trace. Otherwise —
//! a decline, a fast-path error, a flap, or [`SimMode::PerPacket`] — the
//! whole DAG runs once through the per-packet loop, in place on the same
//! outcome buffers, and its result or typed error is returned unchanged. A
//! declined run is therefore bit-identical to `SimMode::PerPacket`. The
//! report's [`Engine`] names the engine that ran and, for a per-packet
//! run, the [`Decline`] site that sent it there.
//!
//! All per-run working memory — route tables, coalescer curves/events,
//! outcome buffers — lives in pools on the `PacketSim` and is
//! reused across runs; after a warmup run, the steady-state path allocates
//! nothing (asserted by the counting-allocator test in
//! `crates/sim/tests/zero_alloc.rs`). Callers that run in a tight loop can
//! hand finished outcomes back via [`PacketSim::recycle`].

use std::ops::Range;
use std::sync::{Arc, Mutex};

use meshcoll_topo::{FaultModel, FaultTimeline, LinkId, Mesh, RouteCache, TransferDag};

use crate::calendar::{horizon_ps, Calendar, Timed};
use crate::coalesce::{self, Attempt, WorkScratch};
use crate::config::Net;
use crate::message::{validate_one, MessageDag};
use crate::online::{death_times, drain_report, DrainTally, OnlineReport};
use crate::time::{link_carries, ns_to_ps, ps_to_ns, rank, LinkTiming, DELIVER, HOP, INJECT};
use crate::trace::{MemorySink, NullSink, TraceEvent, TraceSink};
use crate::{LinkStats, Message, MsgId, NetworkSim, NocConfig, NocError, SimOutcome};

/// Engine-selection policy for [`PacketSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Try the packet-train coalescing fast path and fall back to the exact
    /// per-packet engine when trains interleave on a link (or when transient
    /// link flaps are configured). This is the default; its completions and
    /// per-link busy time are bit-identical to the per-packet engine's.
    #[default]
    Auto,
    /// Always run the exact per-packet reference engine.
    PerPacket,
}

/// Which engine produced a run's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The packet-train fast path carried the whole DAG.
    Trains,
    /// The whole DAG ran through the per-packet loop, for this reason.
    PerPacket(Decline),
}

/// Why a run did not keep the packet-train fast path: the site that
/// declined it (the fast path's tiers are described in the `coalesce`
/// module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Decline {
    /// [`SimMode::PerPacket`] selects the reference engine.
    Mode,
    /// Transient link flaps are configured.
    Flaps,
    /// A zero header latency: an event could create a same-instant event
    /// that sorts before it.
    ZeroHeaderLatency,
    /// A route longer than a train event's hop index can hold.
    LongRoute,
    /// A second interloper in one committed window.
    SecondInterloper,
    /// A split whose re-served window reaches its link's death.
    DyingLink,
    /// A split whose owner or interloper lost packets to a death upstream.
    Truncated,
    /// An interloper whose own packets arrive over time (a sloped train).
    SlopedInterloper,
    /// An interloper inside a window with no splittable owner.
    UnownedWindow,
    /// An owner whose next hop (or delivery) is already committed.
    OwnerCommitted,
    /// The fast path returned an error; the per-packet run reports it.
    Error,
}

/// The event-driven packet-granularity simulator. See the module docs.
#[derive(Debug, Clone)]
pub struct PacketSim {
    pub(crate) cfg: NocConfig,
    pub(crate) routes: Arc<RouteCache>,
    pub(crate) mode: SimMode,
    /// Reusable per-run buffers, shared by clones of this simulator.
    pools: Arc<ScratchPools>,
}

/// Per-run preparation shared by both engines: deduplicated cached routes
/// and the flags for messages whose route crosses a permanently dead link.
///
/// Routes are stored once per distinct `(src, dst)` pair in `unique`, with
/// `route_of[i]` mapping message `i` to its entry — large schedules repeat
/// the same few hundred pairs tens of thousands of times, so this keeps
/// per-run route storage O(pairs), not O(messages).
#[derive(Debug, Default)]
pub(crate) struct RunSetup {
    pub(crate) unique: Vec<Arc<[LinkId]>>,
    pub(crate) route_of: Vec<u32>,
    pub(crate) blocked: Vec<bool>,
}

impl RunSetup {
    /// Message `i`'s route.
    #[inline]
    pub(crate) fn route(&self, i: usize) -> &[LinkId] {
        &self.unique[self.route_of[i] as usize]
    }
}

/// Whole-run scratch: the prepared setup and the route memos behind it.
#[derive(Debug, Default)]
struct RunScratch {
    setup: RunSetup,
    /// Dense `(src, dst) → unique route` memo (`u32::MAX` = unset), rebuilt
    /// each run (the mesh may differ between runs of one simulator). Used
    /// only up to 256 nodes — beyond that the dense table is O(nodes²) and
    /// the hashed `pair_memo` takes over, sized by *touched* pairs.
    memo: Vec<u32>,
    /// Hashed `(src, dst) → unique route` memo for >256-node fabrics.
    /// Cleared (capacity kept) per run, so the steady state allocates
    /// nothing once warmed up.
    pair_memo: std::collections::HashMap<u64, u32>,
    /// Blocked flag per unique route, computed once and fanned out.
    unique_blocked: Vec<bool>,
}

impl RunScratch {
    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.setup.unique.capacity() * size_of::<Arc<[LinkId]>>()
            + self.setup.route_of.capacity() * size_of::<u32>()
            + self.setup.blocked.capacity()
            + self.memo.capacity() * size_of::<u32>()
            + self.pair_memo.capacity() * (size_of::<u64>() + size_of::<u32>() + 1)
            + self.unique_blocked.capacity()
    }
}

/// Buffer pools persisting across runs (and shared by clones) so the
/// steady-state simulate path allocates nothing after warmup.
#[derive(Debug, Default)]
struct ScratchPools {
    run: Mutex<Vec<RunScratch>>,
    /// The coalescer's working memory.
    work: Mutex<Vec<WorkScratch>>,
    /// Recycled `(completion, busy)` outcome buffers (see `recycle`).
    outcome: Mutex<Vec<(Vec<f64>, Vec<f64>)>>,
}

impl ScratchPools {
    fn take_run(&self) -> RunScratch {
        self.run.lock().expect("run pool").pop().unwrap_or_default()
    }

    fn put_run(&self, rs: RunScratch) {
        self.run.lock().expect("run pool").push(rs);
    }

    fn take_work(&self) -> WorkScratch {
        self.work
            .lock()
            .expect("work pool")
            .pop()
            .unwrap_or_default()
    }

    fn put_work(&self, ws: WorkScratch) {
        self.work.lock().expect("work pool").push(ws);
    }

    fn take_outcome(&self) -> (Vec<f64>, Vec<f64>) {
        self.outcome
            .lock()
            .expect("outcome pool")
            .pop()
            .unwrap_or_default()
    }

    fn put_outcome(&self, bufs: (Vec<f64>, Vec<f64>)) {
        self.outcome.lock().expect("outcome pool").push(bufs);
    }
}

/// A timeline run's death times in ps (`u64::MAX` where nothing dies).
#[derive(Debug)]
pub(crate) struct Deaths {
    /// Per link id.
    pub(crate) link: Vec<u64>,
    /// Per unique route of the run: the earliest death among its links.
    route: Vec<u64>,
}

impl Deaths {
    fn new(link: Vec<u64>, setup: &RunSetup) -> Self {
        let route = setup
            .unique
            .iter()
            .map(|r| r.iter().map(|l| link[l.index()]).min().unwrap_or(u64::MAX))
            .collect();
        Deaths { link, route }
    }

    /// Whether message `i`, released at `at`, routes over a link that has
    /// already died: it belongs to the un-executed suffix and is withheld.
    #[inline]
    pub(crate) fn withholds(&self, setup: &RunSetup, i: usize, at: u64) -> bool {
        self.route[setup.route_of[i] as usize] <= at
    }
}

impl PacketSim {
    /// Creates a simulator with the given configuration and a fresh private
    /// route cache.
    pub fn new(cfg: NocConfig) -> Self {
        PacketSim {
            cfg,
            routes: Arc::new(RouteCache::new()),
            mode: SimMode::Auto,
            pools: Arc::new(ScratchPools::default()),
        }
    }

    /// Shares an existing route cache, e.g. across engines or sweep threads.
    #[must_use]
    pub fn with_route_cache(mut self, routes: Arc<RouteCache>) -> Self {
        self.routes = routes;
        self
    }

    /// Selects the engine policy (see [`SimMode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The route cache in use.
    pub fn route_cache(&self) -> &Arc<RouteCache> {
        &self.routes
    }

    /// The engine policy in use.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Returns a finished outcome's buffers to the simulator's pool, so the
    /// next `simulate` call can reuse them instead of allocating. Optional —
    /// dropping an outcome is always correct — but a tight
    /// simulate/inspect/recycle loop stays allocation-free after warmup.
    pub fn recycle(&self, outcome: SimOutcome) {
        let (completion, stats) = outcome.into_parts();
        self.pools.put_outcome((completion, stats.into_busy()));
    }

    /// Total bytes currently retained by the reusable run/coalescer/outcome
    /// pools (capacity high-water marks). Used by the scalability smoke test
    /// to check that per-run memory stays O(messages).
    pub fn retained_scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        let run: usize = self
            .pools
            .run
            .lock()
            .expect("run pool")
            .iter()
            .map(RunScratch::retained_bytes)
            .sum();
        let work: usize = self
            .pools
            .work
            .lock()
            .expect("work pool")
            .iter()
            .map(WorkScratch::retained_bytes)
            .sum();
        let outcome: usize = self
            .pools
            .outcome
            .lock()
            .expect("outcome pool")
            .iter()
            .map(|(c, b)| (c.capacity() + b.capacity()) * size_of::<f64>())
            .sum();
        run + work + outcome
    }

    /// Simulates the message DAG to completion.
    ///
    /// Unlike [`NetworkSim::run`] this takes `&self`, so one simulator can
    /// serve many runs — including concurrently from several threads (the
    /// route cache and scratch pools are internally synchronized).
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] when a message references an out-of-range node,
    /// a missing or cyclic dependency, or a zero-byte payload, and when
    /// messages can never deliver because their route crosses a dead link.
    pub fn simulate(&self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.simulate_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::simulate`], but emits the run's [`TraceEvent`]
    /// stream into `sink`. With the default [`NullSink`] this monomorphizes
    /// to the untraced hot path, and a traced run takes the same path as an
    /// untraced one. Because the fast path may decline mid-run, an enabled
    /// sink only receives events of the engine whose result was kept: a
    /// declined fast-path attempt's partial trace is discarded, never
    /// replayed into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn simulate_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        self.simulate_dag(mesh, &MessageDag(messages), sink)?
            .into_outcome()
    }

    /// Simulates any [`TransferDag`] in place — a message slice, a
    /// collective schedule, several schedules laid end to end — tracing
    /// into `sink`, under the configured fault model and timeline. With
    /// [`simulate_dag_under`](PacketSim::simulate_dag_under), which takes
    /// them as arguments, it is the one entry point behind every static and
    /// timeline run: [`simulate`](PacketSim::simulate),
    /// [`simulate_traced`](PacketSim::simulate_traced) and
    /// [`simulate_online`](PacketSim::simulate_online) wrap it for message
    /// slices. The report's [`OnlineReport::engine`] names the engine that
    /// ran.
    ///
    /// Without a [`FaultTimeline`](meshcoll_topo::FaultTimeline) the report
    /// is never interrupted. Under one, a timed fault that interrupts the
    /// run drains it instead of stalling, as described in the
    /// [online module docs](crate::online); [`OnlineReport::into_outcome`]
    /// turns such an interruption into the stall error a completion-only
    /// caller reports.
    ///
    /// # Errors
    ///
    /// As for [`PacketSim::simulate_online`].
    pub fn simulate_dag<D: TransferDag + ?Sized, T: TraceSink>(
        &self,
        mesh: &Mesh,
        dag: &D,
        sink: &mut T,
    ) -> Result<OnlineReport, NocError> {
        self.simulate_dag_under(mesh, dag, &self.cfg.faults, &self.cfg.timeline, sink)
    }

    /// Like [`simulate_dag`](PacketSim::simulate_dag), but under `faults`
    /// and `timeline` in place of the configured fault model and timeline.
    /// An online run's resumed segment runs this way, under the drained
    /// overlay and the remaining timeline, on this simulator's own pooled
    /// scratch rather than on a fresh simulator built from a copy of the
    /// configuration.
    ///
    /// # Errors
    ///
    /// As for [`PacketSim::simulate_online`].
    pub fn simulate_dag_under<D: TransferDag + ?Sized, T: TraceSink>(
        &self,
        mesh: &Mesh,
        dag: &D,
        faults: &FaultModel,
        timeline: &FaultTimeline,
        sink: &mut T,
    ) -> Result<OnlineReport, NocError> {
        let net = Net {
            cfg: &self.cfg,
            faults,
            timeline,
        };
        let mut rs = self.pools.take_run();
        let run = self.prepare_into(net, mesh, dag, &mut rs).and_then(|()| {
            let deaths = death_times(mesh, timeline)?.map(|d| Deaths::new(d, &rs.setup));
            self.run_prepared(net, mesh, dag, &rs.setup, deaths.as_ref(), sink)
        });
        self.pools.put_run(rs);
        let (outcome, tally, engine) = run?;
        Ok(drain_report(net, outcome, tally, engine, sink))
    }

    /// One run over a prepared DAG, static (`deaths` = `None`) or under a
    /// timeline's death times, by the module's one rule: under
    /// [`SimMode::Auto`] without flaps, keep one fast-path pass over the
    /// whole DAG unless it declines, and otherwise run the whole DAG through
    /// the per-packet loop and return its result or typed error unchanged.
    /// A fast-path error (a static dead route, a dependency cycle) also
    /// falls through, so typed errors are always the reference engine's.
    /// Either engine fills the drain tally the same way.
    fn run_prepared<D: TransferDag + ?Sized, T: TraceSink>(
        &self,
        net: Net<'_>,
        mesh: &Mesh,
        dag: &D,
        setup: &RunSetup,
        deaths: Option<&Deaths>,
        sink: &mut T,
    ) -> Result<(SimOutcome, DrainTally, Engine), NocError> {
        let (mut completion, mut stats) = self.outcome_buffers(mesh, net.faults, dag.len());
        let declined = if self.mode == SimMode::PerPacket {
            Decline::Mode
        } else if !net.faults.flaps().is_empty() {
            Decline::Flaps
        } else {
            let fast = self.run_fast(
                net,
                mesh,
                dag,
                setup,
                deaths,
                &mut completion,
                stats.busy_mut(),
                sink,
            );
            match fast {
                Ok(Attempt::Done(tally)) => {
                    return Ok((SimOutcome::new(completion, stats), tally, Engine::Trains));
                }
                Ok(Attempt::Declined(site)) => site,
                Err(_) => Decline::Error,
            }
        };
        let run = self.run_per_packet_into(
            net,
            mesh,
            dag,
            setup,
            deaths,
            &mut completion,
            stats.busy_mut(),
            sink,
        );
        match run {
            Ok(tally) => Ok((
                SimOutcome::new(completion, stats),
                tally,
                Engine::PerPacket(declined),
            )),
            Err(e) => {
                self.pools.put_outcome((completion, stats.into_busy()));
                Err(e)
            }
        }
    }

    /// One coalescer pass over the whole DAG on pooled scratch, into the
    /// caller's buffers (`busy` zeroed), under `deaths` when given. A traced
    /// pass is buffered, so `sink` receives its events only when the pass
    /// completes; a declined pass leaves partial results in the buffers.
    #[allow(clippy::too_many_arguments)]
    fn run_fast<D: TransferDag + ?Sized, T: TraceSink>(
        &self,
        net: Net<'_>,
        mesh: &Mesh,
        dag: &D,
        setup: &RunSetup,
        deaths: Option<&Deaths>,
        completion: &mut [f64],
        busy: &mut [f64],
        sink: &mut T,
    ) -> Result<Attempt, NocError> {
        let mut ws = self.pools.take_work();
        let mut buf = MemorySink::new();
        let attempt = if T::ENABLED {
            coalesce::run(
                net, mesh, dag, setup, deaths, &mut ws, completion, busy, &mut buf,
            )
        } else {
            coalesce::run(
                net, mesh, dag, setup, deaths, &mut ws, completion, busy, sink,
            )
        };
        self.pools.put_work(ws);
        if let Ok(Attempt::Done(_)) = attempt {
            for ev in buf.events() {
                sink.record(*ev);
            }
        }
        attempt
    }

    /// Pooled outcome buffers for a run of `n` messages under `faults`:
    /// completions unset (NaN), busy time zeroed.
    fn outcome_buffers(&self, mesh: &Mesh, faults: &FaultModel, n: usize) -> (Vec<f64>, LinkStats) {
        let (mut completion, busy) = self.pools.take_outcome();
        completion.clear();
        completion.resize(n, f64::NAN);
        (completion, LinkStats::recycled(mesh, faults, busy))
    }

    /// Runs the exact per-packet reference engine unconditionally.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_reference(&self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.run_reference_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::run_reference`], but traced into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_reference_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        let dag = MessageDag(messages);
        let net = Net::of(&self.cfg);
        let mut rs = self.pools.take_run();
        let result = self.prepare_into(net, mesh, &dag, &mut rs).and_then(|()| {
            let mut completion = vec![f64::NAN; messages.len()];
            let mut stats = LinkStats::new(mesh, &self.cfg.faults);
            self.run_per_packet_into(
                net,
                mesh,
                &dag,
                &rs.setup,
                None,
                &mut completion,
                stats.busy_mut(),
                sink,
            )?;
            Ok(SimOutcome::new(completion, stats))
        });
        self.pools.put_run(rs);
        result
    }

    /// Attempts only the coalescing fast path on the whole DAG, under the
    /// static fault model (the timeline is not applied), returning
    /// `Ok(None)` when it declines (interleaved contention, or transient
    /// flaps configured) and the fast path's own typed error otherwise.
    /// Used by the equivalence tests to assert which engine actually ran.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_coalesced(
        &self,
        mesh: &Mesh,
        messages: &[Message],
    ) -> Result<Option<SimOutcome>, NocError> {
        self.run_coalesced_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::run_coalesced`], but traced into `sink`. On a
    /// declined attempt (`Ok(None)`), nothing reaches `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_coalesced_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<Option<SimOutcome>, NocError> {
        let dag = MessageDag(messages);
        let net = Net::of(&self.cfg);
        let mut rs = self.pools.take_run();
        let result = self.prepare_into(net, mesh, &dag, &mut rs).and_then(|()| {
            if !self.cfg.faults.flaps().is_empty() {
                return Ok(None);
            }
            let (mut completion, mut stats) =
                self.outcome_buffers(mesh, &self.cfg.faults, messages.len());
            let fast = self.run_fast(
                net,
                mesh,
                &dag,
                &rs.setup,
                None,
                &mut completion,
                stats.busy_mut(),
                sink,
            );
            if let Ok(Attempt::Done(_)) = fast {
                return Ok(Some(SimOutcome::new(completion, stats)));
            }
            self.pools.put_outcome((completion, stats.into_busy()));
            fast.map(|_| None)
        });
        self.pools.put_run(rs);
        result
    }

    /// Validates the DAG, resolves routes through the shared cache, and
    /// flags messages that can never deliver because their route crosses a
    /// permanently dead link (or dead chiplet, or a link too slow to carry a
    /// packet) — rather than waiting forever the engines report those as
    /// stalled — all into pooled scratch. The dense per-pair memo keeps the
    /// shared cache's lock+hash cost off the per-message path, the blocked
    /// flag is computed once per unique route, and DAG validation is folded
    /// into the same pass (per message: dense-id/payload/endpoint/dep
    /// checks first, then node-range checks — one sweep instead of two).
    fn prepare_into<D: TransferDag + ?Sized>(
        &self,
        net: Net<'_>,
        mesh: &Mesh,
        dag: &D,
        rs: &mut RunScratch,
    ) -> Result<(), NocError> {
        let RunScratch {
            setup,
            memo,
            pair_memo,
            unique_blocked,
            ..
        } = rs;
        let n = dag.len();
        crate::message::check_count(n)?;
        setup.unique.clear();
        setup.route_of.clear();
        setup.route_of.reserve(n);
        setup.blocked.clear();
        setup.blocked.reserve(n);
        unique_blocked.clear();
        let nn = mesh.rows() * mesh.cols();
        if nn <= 256 {
            memo.clear();
            memo.resize(nn * nn, u32::MAX);
            for i in 0..n {
                let (src, dst) = validate_one(dag, i)?;
                mesh.check_node(src)?;
                mesh.check_node(dst)?;
                let slot = src.index() * nn + dst.index();
                let mut u = memo[slot];
                if u == u32::MAX {
                    let r = self.routes.route(mesh, src, dst, self.cfg.routing)?;
                    u = setup.unique.len() as u32;
                    unique_blocked.push(r.iter().any(|&l| !link_carries(net, mesh, l)));
                    setup.unique.push(r);
                    memo[slot] = u;
                }
                setup.route_of.push(u);
                setup.blocked.push(unique_blocked[u as usize]);
            }
        } else {
            // Past 256 nodes the dense memo would be O(nodes²) — 64 MB of
            // table for a 64×64 fabric — so pairs are deduplicated through a
            // hash map sized by the pairs the DAG actually touches. Route
            // storage stays O(pairs), exactly as on small meshes.
            pair_memo.clear();
            for i in 0..n {
                let (src, dst) = validate_one(dag, i)?;
                mesh.check_node(src)?;
                mesh.check_node(dst)?;
                let key = src.index() as u64 * nn as u64 + dst.index() as u64;
                let u = match pair_memo.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let r = self.routes.route(mesh, src, dst, self.cfg.routing)?;
                        let u = setup.unique.len() as u32;
                        unique_blocked.push(r.iter().any(|&l| !link_carries(net, mesh, l)));
                        setup.unique.push(r);
                        *e.insert(u)
                    }
                };
                setup.route_of.push(u);
                setup.blocked.push(unique_blocked[u as usize]);
            }
        }
        Ok(())
    }

    /// The exact per-packet event loop: the reference engine, and the whole
    /// DAG's run whenever the fast path is not kept. Overwrites `completion`
    /// (one entry per message) and `busy` (one per link id).
    ///
    /// With `deaths` = `None` it simulates the static fault model. Under a
    /// timeline's death times it additionally drops a packet whose link-win
    /// time falls at or past its link's death, withholds a message that
    /// becomes ready at or after the death of a link on its route (never
    /// injecting it), and tallies delivered/lost bytes and the drain clock.
    /// Static-fault stalls and watchdog trips stay typed errors either way.
    ///
    /// The loop queues one event per injected message (a burst that serves
    /// every packet's first link in packet order), one per later packet-hop,
    /// and one for each message's last delivery; see [`Event`] and
    /// [`PacketLoop::serve`]. Events pop in tie-order key order, exactly as
    /// they would if every packet-hop and delivery were its own event.
    #[allow(clippy::too_many_arguments)]
    fn run_per_packet_into<D: TransferDag + ?Sized, T: TraceSink>(
        &self,
        net: Net<'_>,
        mesh: &Mesh,
        dag: &D,
        setup: &RunSetup,
        deaths: Option<&Deaths>,
        completion: &mut [f64],
        busy: &mut [f64],
        sink: &mut T,
    ) -> Result<DrainTally, NocError> {
        // Slack on the stall watchdog's structural bound (below). The bound
        // is exact, so any slack keeps a correct run clear of it; the slack
        // only decides at which event a stuck loop is caught, and so the
        // `stalled_at_ns` a trip reports. 16 is a small margin that every
        // recorded `Stalled` value was produced with.
        const STALL_BUDGET_SLACK: u64 = 16;
        // Packets per queue bucket. The queue is sized by the events
        // parked at once, which the packet count bounds (a packet has at
        // most one event parked at a time), and a bucket's chunks fill
        // only where parked events crowd it: on the 3x3 DBTree schedules
        // a bucket per 4 packets left the chunk slab mostly empty (peak
        // RSS ~2x a binary heap's), while 16 stayed near the heap's and
        // ran fastest.
        const PACKETS_PER_BUCKET: u64 = 16;
        let n = dag.len();
        let blocked = &setup.blocked;
        completion.fill(f64::NAN);
        let mut timing = LinkTiming::default();
        timing.reset(net, mesh);

        // Per-message state, plus each message's dependents in one CSR slab
        // (each list in message order). The same sweep charges every link
        // its packets' service time for the queue's horizon estimate, and
        // counts the watchdog budget: every packet takes exactly hops + 1
        // steps (its hops, then its delivery), so exceeding this count
        // means the loop is no longer making forward progress (defensive;
        // cannot trip on well-formed input).
        let mut busy_ps = vec![0u64; mesh.link_id_space()];
        let (mut max_ready, mut packets, mut budget) = (0u64, 0u64, STALL_BUDGET_SLACK);
        let mut msgs: Vec<MsgRun> = (0..n)
            .map(|i| {
                let bytes = dag.bytes(i);
                let count = self.cfg.packets_for(bytes);
                let earliest = ns_to_ps(dag.ready_at_ns(i));
                let route = setup.route(i);
                for &l in route {
                    let s = timing.full(l.index()).saturating_add(timing.overhead);
                    let b = &mut busy_ps[l.index()];
                    *b = b.saturating_add(count.saturating_mul(s));
                }
                max_ready = max_ready.max(earliest);
                packets = packets.saturating_add(count);
                budget = budget.saturating_add(count.saturating_mul(route.len() as u64 + 1));
                MsgRun {
                    count,
                    last_bytes: last_packet_bytes(&self.cfg, bytes, count),
                    left: count,
                    earliest,
                    age: 0,
                    pending: dag.deps(i).len() as u32,
                    dep_start: 0,
                    dep_end: 0,
                }
            })
            .collect();
        // The horizon fold leaves `busy_ps` zeroed for the loop's own
        // busy time.
        let mut queue = Calendar::default();
        queue.reset(
            horizon_ps(&mut busy_ps, max_ready),
            (packets / PACKETS_PER_BUCKET) as usize,
        );
        // `dep_end` first counts each message's dependents, then serves as
        // the cursor that fills its list.
        for i in 0..n {
            for d in dag.deps(i) {
                msgs[d].dep_end += 1;
            }
        }
        let mut offset = 0;
        for r in &mut msgs {
            let count = r.dep_end;
            r.dep_start = offset;
            r.dep_end = offset;
            offset += count;
        }
        let mut dependents = vec![0u32; offset as usize];
        for i in 0..n {
            for d in dag.deps(i) {
                let r = &mut msgs[d];
                dependents[r.dep_end as usize] = i as u32;
                r.dep_end += 1;
            }
        }
        let mut st = PacketLoop {
            net,
            dag,
            setup,
            death: deaths.map(|d| &d.link[..]),
            flaps: !net.faults.flaps().is_empty(),
            timing,
            msgs,
            link_free: vec![0; mesh.link_id_space()],
            busy: busy_ps,
            queue,
            injections: 0,
            served: 0,
            tally: deaths.map_or_else(DrainTally::default, |_| DrainTally::timed(n)),
        };

        let mut injected = 0usize;
        let mut stalled = 0usize;
        let mut delivered = 0usize;
        let mut last_progress: u64 = 0;
        // A message becoming ready at `at` after a route link has already
        // died belongs to the un-executed suffix: it is withheld rather
        // than injected to die downstream.
        let dies = |i: usize, at: u64| deaths.is_some_and(|d| d.withholds(setup, i, at));

        for (i, &is_blocked) in blocked.iter().enumerate() {
            if st.msgs[i].pending == 0 {
                injected += 1;
                let at = st.msgs[i].earliest;
                if is_blocked {
                    stalled += 1;
                } else if dies(i, at) {
                    st.tally.withhold(at);
                } else {
                    st.inject(sink, i, at, 0);
                }
            }
        }

        while let Some(ev) = st.queue.pop() {
            if st.served > budget {
                // Watchdog trip: no single culprit message/link to name.
                return Err(NocError::Stalled {
                    pending_msgs: n - delivered,
                    last_progress_ns: last_progress / 1000,
                    first_blocked_msg: None,
                    first_blocked_link: None,
                    stalled_at_ns: ev.at / 1000,
                });
            }
            let mi = ev.msg as usize;
            if ev.hop == 0 {
                // Injections pop in key order; each takes the next age.
                st.injections += 1;
                st.msgs[mi].age = st.injections;
                st.serve(sink, mi, 0..st.msgs[mi].count, 0, (ev.at, ev.rank));
                continue;
            }
            if (ev.hop as usize) < setup.route(mi).len() {
                let p = u64::from(ev.packet);
                st.serve(sink, mi, p..p + 1, ev.hop, (ev.at, ev.rank));
                continue;
            }
            // The message's last packet is delivered at its destination.
            st.served += 1;
            st.msgs[mi].left -= 1;
            if deaths.is_some() {
                st.tally.delivered_bytes[mi] += st.msgs[mi].last_bytes;
                st.tally.end_ps = st.tally.end_ps.max(ev.at);
            }
            if st.msgs[mi].left > 0 {
                // An earlier packet was dropped: the message never completes.
                continue;
            }
            let done_ns = ps_to_ns(ev.at);
            completion[mi] = done_ns;
            delivered += 1;
            last_progress = last_progress.max(ev.at);
            if T::ENABLED {
                sink.record(TraceEvent::Deliver {
                    msg: MsgId(mi),
                    bytes: dag.bytes(mi),
                    at_ns: done_ns,
                });
            }
            let MsgRun {
                dep_start,
                dep_end,
                age,
                ..
            } = st.msgs[mi];
            for &d in &dependents[dep_start as usize..dep_end as usize] {
                let di = d as usize;
                let r = &mut st.msgs[di];
                r.earliest = r.earliest.max(ev.at);
                r.pending -= 1;
                if r.pending == 0 {
                    let at = r.earliest;
                    injected += 1;
                    if blocked[di] {
                        stalled += 1;
                    } else if dies(di, at) {
                        st.tally.withhold(at);
                    } else {
                        // Released at this very instant: the injection
                        // inherits this delivery's age.
                        let released_by = if at == ev.at { age } else { 0 };
                        st.inject(sink, di, at, released_by);
                    }
                }
            }
        }
        for (b, &ps) in busy.iter_mut().zip(&st.busy) {
            *b = ps_to_ns(ps);
        }
        let tally = st.tally;

        if stalled > 0 {
            // Some ready messages route over dead links; everything awaiting
            // them (transitively) is pending too. Name the first blocked
            // message (in id order) and the first dead link on its route so
            // a dead-route stall is distinguishable from a watchdog trip.
            // Static dead routes are a schedule-lint failure, not an online
            // fault, so this stays an error under a timeline too.
            let culprit = (0..n).find(|&i| blocked[i] && completion[i].is_nan());
            let culprit_link = culprit.and_then(|i| {
                setup
                    .route(i)
                    .iter()
                    .copied()
                    .find(|&l| !link_carries(net, mesh, l))
            });
            return Err(NocError::Stalled {
                pending_msgs: n - delivered,
                last_progress_ns: last_progress / 1000,
                first_blocked_msg: culprit.map(MsgId),
                first_blocked_link: culprit_link,
                stalled_at_ns: last_progress / 1000,
            });
        }
        if !tally.interrupted && injected < n {
            return Err(NocError::DependencyCycle {
                stuck: n - injected,
            });
        }
        Ok(tally)
    }
}

/// One queued event of the per-packet loop, ordered by the tie-order key
/// of [`crate::time`]: `(at, rank, msg, packet)`, where `rank` packs the
/// class (delivery, later hop, injection) above the age. `hop` tells the
/// three kinds apart:
///
/// * `0` — a burst: every packet of `msg` contends for its first link at
///   `at`, in packet order (`packet` is unused);
/// * below the route length — packet `packet` contends for route link
///   `hop`;
/// * the route length — `msg`'s last packet is delivered.
///
/// A packet's arrivals at successive hops are strictly later in time, so
/// no two events share `(at, rank, msg, packet)` and the queue's order is
/// total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    /// Time in ps.
    at: u64,
    rank: u64,
    msg: u32,
    packet: u32,
    hop: u32,
}

impl Timed for Event {
    #[inline]
    fn at(self) -> u64 {
        self.at
    }
}

/// One message's state in a per-packet run.
#[derive(Debug, Clone, Copy)]
struct MsgRun {
    /// Packets the message is split into, and the size of the last one.
    count: u64,
    last_bytes: u64,
    /// Packets not yet delivered.
    left: u64,
    /// Earliest injection (ps): the ready time, then each dependency's
    /// delivery.
    earliest: u64,
    /// Rank in the run's injection order (0 until injected): the age in
    /// the tie-order key of its deliveries and packet arrivals.
    age: u32,
    /// Dependencies not yet delivered.
    pending: u32,
    /// The message's dependents are `dependents[dep_start..dep_end]`.
    dep_start: u32,
    dep_end: u32,
}

/// The state of one per-packet run that injecting and serving packets
/// share (see [`PacketSim::run_per_packet_into`]). Every time is in ps.
struct PacketLoop<'a, D: ?Sized> {
    net: Net<'a>,
    dag: &'a D,
    setup: &'a RunSetup,
    /// Death time per link id under a timeline, ps.
    death: Option<&'a [u64]>,
    /// Whether any transient flap is configured (else `available_at` is the
    /// identity and is skipped).
    flaps: bool,
    /// Service times per link, looked up once per run.
    timing: LinkTiming,
    msgs: Vec<MsgRun>,
    link_free: Vec<u64>,
    busy: Vec<u64>,
    queue: Calendar<Event>,
    /// Injections popped so far: the last age handed out.
    injections: u32,
    /// Watchdog count: packet-hops served plus packets delivered.
    served: u64,
    tally: DrainTally,
}

impl<D: TransferDag + ?Sized> PacketLoop<'_, D> {
    /// Injects message `mi` at `at` as one burst event, keyed by the age of
    /// the delivery that released it at `at` (`released_by`, 0 if none). As
    /// separate hop-0 events its packets would carry consecutive keys (same
    /// time, class, age and message, packets in order), so nothing else
    /// could sort between them: they would pop back to back, exactly as the
    /// burst serves them.
    fn inject<T: TraceSink>(&mut self, sink: &mut T, mi: usize, at: u64, released_by: u32) {
        if T::ENABLED {
            sink.record(TraceEvent::Inject {
                msg: MsgId(mi),
                src: self.dag.src(mi),
                dst: self.dag.dst(mi),
                bytes: self.dag.bytes(mi),
                packets: self.msgs[mi].count,
                at_ns: ps_to_ns(at),
            });
        }
        self.queue.push(Event {
            at,
            rank: rank(INJECT, released_by),
            msg: mi as u32,
            packet: 0,
            hop: 0,
        });
    }

    /// The first instant at or after `ready` at which `link` is up.
    fn available(&self, link: LinkId, ready: u64) -> u64 {
        let mut at = ready;
        loop {
            let ns = ps_to_ns(at);
            let up = self.net.faults.available_at(link, ns);
            if up <= ns {
                return at;
            }
            at = ns_to_ps(up);
        }
    }

    /// Packets `packets` of message `mi` arrive at route link `hop` at `at`
    /// from an event of rank `rank`, and win it FIFO, in packet order: a
    /// burst's whole message at hop 0, or one packet at a later hop. A
    /// transient flap defers a packet until the link's next up window. A
    /// packet that wins its final link and is not the message's last is
    /// delivered on the spot: its delivery only counts down the message's
    /// undelivered packets and folds order-independent sums and maxima into
    /// the tally, and it always lands before the last packet's, which stays
    /// a queue event.
    fn serve<T: TraceSink>(
        &mut self,
        sink: &mut T,
        mi: usize,
        packets: Range<u64>,
        hop: u32,
        (at, rank_at): (u64, u64),
    ) {
        let route = self.setup.route(mi);
        let link = route[hop as usize];
        let li = link.index();
        let final_hop = hop as usize + 1 == route.len();
        let MsgRun {
            count,
            last_bytes,
            age,
            ..
        } = self.msgs[mi];
        let death = self.death.map(|d| d[li]);
        let overhead = self.timing.overhead;
        let hop_lat = self.timing.hop;
        // No other event touches this link while these packets are served,
        // so its state stays local until they are done.
        let mut free = self.link_free[li];
        let mut busy = self.busy[li];
        let mut folded = 0;
        for packet in packets {
            self.served += 1;
            let (bytes, ser) = if packet + 1 < count {
                (self.net.cfg.packet_bytes, self.timing.full(li))
            } else {
                (last_bytes, self.timing.ser(li, last_bytes))
            };
            let ready = at.max(free);
            let start = if self.flaps {
                self.available(link, ready)
            } else {
                ready
            };
            if let Some(d) = death.filter(|&d| start >= d) {
                // The link died before this packet could win it; the
                // packet is lost where it stands.
                let dropped = at.max(d);
                let key = (at, rank_at, mi as u32, packet);
                self.tally
                    .drop_packets((dropped, key), dropped, MsgId(mi), link, bytes);
                if T::ENABLED {
                    sink.record(TraceEvent::PacketDrop {
                        msg: MsgId(mi),
                        packet,
                        hop,
                        link,
                        bytes,
                        at_ns: ps_to_ns(dropped),
                    });
                }
                continue;
            }
            // The link is held for the payload serialization plus the
            // per-packet router pipeline overhead before the next packet
            // can follow.
            free = start + ser + overhead;
            busy += ser + overhead;
            if self.death.is_some() {
                self.tally.end_ps = self.tally.end_ps.max(free);
            }
            if T::ENABLED {
                sink.record(TraceEvent::PacketHop {
                    msg: MsgId(mi),
                    packet,
                    hop,
                    link,
                    bytes,
                    arrive_ns: ps_to_ns(at),
                    start_ns: ps_to_ns(start),
                    busy_until_ns: ps_to_ns(free),
                });
            }
            if !final_hop {
                // Cut-through: the header reaches the next router after
                // one per-flit latency; occupancies overlap.
                self.queue.push(Event {
                    at: start + hop_lat,
                    rank: rank(HOP, age),
                    msg: mi as u32,
                    packet: packet as u32,
                    hop: hop + 1,
                });
                continue;
            }
            // Final hop: the tail is delivered after full serialization
            // plus the hop latency.
            let done = start + ser + hop_lat;
            if packet + 1 < count {
                folded += 1;
                if self.death.is_some() {
                    self.tally.delivered_bytes[mi] += bytes;
                    self.tally.end_ps = self.tally.end_ps.max(done);
                }
            } else {
                self.queue.push(Event {
                    at: done,
                    rank: rank(DELIVER, age),
                    msg: mi as u32,
                    packet: packet as u32,
                    hop: hop + 1,
                });
            }
        }
        self.link_free[li] = free;
        self.busy[li] = busy;
        self.served += folded;
        self.msgs[mi].left -= folded;
    }
}

impl NetworkSim for PacketSim {
    fn run(&mut self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.simulate(mesh, messages)
    }
}

/// Size of the final packet of a `total_bytes` message split into `count`
/// packets (the last packet carries the remainder).
pub(crate) fn last_packet_bytes(cfg: &NocConfig, total_bytes: u64, count: u64) -> u64 {
    let rem = total_bytes - (count - 1) * cfg.packet_bytes;
    if rem == 0 {
        cfg.packet_bytes
    } else {
        rem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgId;
    use meshcoll_topo::NodeId;

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    fn sim(mesh: &Mesh, msgs: &[Message]) -> SimOutcome {
        PacketSim::new(cfg()).run(mesh, msgs).unwrap()
    }

    #[test]
    fn single_hop_latency_matches_model() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let out = sim(&mesh, &msgs);
        let expect = cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn multi_hop_is_cut_through_not_store_and_forward() {
        let mesh = Mesh::new(1, 5).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(4), 8192)];
        let out = sim(&mesh, &msgs);
        let c = cfg();
        // 4 hops: 3 header latencies + final (ser + hop latency).
        let cut_through =
            3.0 * c.per_flit_latency_ns + c.serialization_ns(8192) + c.per_flit_latency_ns;
        let store_fwd = 4.0 * (c.serialization_ns(8192) + c.per_flit_latency_ns);
        assert!((out.makespan_ns() - cut_through).abs() < 1e-6);
        assert!(out.makespan_ns() < store_fwd / 2.0);
    }

    #[test]
    fn big_message_achieves_link_bandwidth() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 64 * 1024 * 1024;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let out = sim(&mesh, &msgs);
        let bw = out.bandwidth_gbps(bytes);
        // Sustained throughput is the 25 GB/s wire rate minus the per-packet
        // router overhead (21 ns per 8 KiB packet, ~6%).
        let c = cfg();
        let expect =
            c.packet_bytes as f64 / (c.serialization_ns(c.packet_bytes) + c.per_packet_overhead_ns);
        assert!(
            (bw - expect).abs() < 0.1 && bw < c.link_bandwidth,
            "bandwidth {bw} not near {expect} GB/s"
        );
    }

    #[test]
    fn contending_messages_serialize_on_shared_link() {
        let mesh = Mesh::new(1, 3).unwrap();
        // Both messages need link 1->2.
        let msgs = vec![
            Message::new(MsgId(0), NodeId(1), NodeId(2), 8192 * 10),
            Message::new(MsgId(1), NodeId(0), NodeId(2), 8192 * 10),
        ];
        let out = sim(&mesh, &msgs);
        let solo = sim(
            &mesh,
            &[Message::new(MsgId(0), NodeId(1), NodeId(2), 8192 * 10)],
        );
        // Shared-link makespan is roughly double the solo time.
        assert!(out.makespan_ns() > 1.8 * solo.makespan_ns());
    }

    #[test]
    fn disjoint_messages_run_in_parallel() {
        let mesh = Mesh::new(2, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20),
            Message::new(MsgId(1), NodeId(2), NodeId(3), 1 << 20),
        ];
        let out = sim(&mesh, &msgs);
        let solo = sim(
            &mesh,
            &[Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20)],
        );
        assert!((out.makespan_ns() - solo.makespan_ns()).abs() < 1.0);
    }

    #[test]
    fn dependencies_are_honored() {
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192).with_deps([MsgId(0)]),
            Message::new(MsgId(2), NodeId(2), NodeId(3), 8192).with_deps([MsgId(1)]),
        ];
        let out = sim(&mesh, &msgs);
        assert!(out.completion_ns(MsgId(0)).unwrap() < out.completion_ns(MsgId(1)).unwrap());
        assert!(out.completion_ns(MsgId(1)).unwrap() < out.completion_ns(MsgId(2)).unwrap());
        let step = cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - 3.0 * step).abs() < 1e-6);
    }

    #[test]
    fn ready_at_delays_injection() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192).with_ready_at(1000.0)];
        let out = sim(&mesh, &msgs);
        let expect = 1000.0 + cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn cyclic_deps_are_an_error() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8).with_deps([MsgId(1)]),
            Message::new(MsgId(1), NodeId(1), NodeId(0), 8).with_deps([MsgId(0)]),
        ];
        let err = PacketSim::new(cfg()).run(&mesh, &msgs).unwrap_err();
        assert!(matches!(err, NocError::DependencyCycle { stuck: 2 }));
    }

    #[test]
    fn link_stats_account_busy_time() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 8192 * 4;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let out = sim(&mesh, &msgs);
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let expect = cfg().serialization_ns(bytes) + 4.0 * cfg().per_packet_overhead_ns;
        assert!((out.link_stats().busy_ns(link) - expect).abs() < 1e-6);
        assert_eq!(out.link_stats().used_links(), 1);
        assert_eq!(out.link_stats().used_link_percent(), 50.0);
    }

    #[test]
    fn degraded_link_slows_only_its_traffic() {
        let mesh = Mesh::new(1, 3).unwrap();
        let slow = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.link_overrides.push((slow, 5.0)); // 5 GB/s instead of 25
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 1 << 20),
        ];
        let out = PacketSim::new(c.clone()).run(&mesh, &msgs).unwrap();
        let slow_t = out.completion_ns(MsgId(0)).unwrap();
        let fast_t = out.completion_ns(MsgId(1)).unwrap();
        assert!(slow_t > 4.0 * fast_t, "slow {slow_t} vs fast {fast_t}");
        assert!((c.bandwidth_of(slow) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_are_ordered() {
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs: Vec<Message> = (0..6)
            .map(|i| Message::new(MsgId(i), NodeId(i % 3), NodeId(3), 8192))
            .collect();
        let out = sim(&mesh, &msgs);
        let stats = out.latency_stats(|_| 0.0);
        assert!(stats.p50_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.max_ns);
        assert!(stats.mean_ns > 0.0 && stats.mean_ns <= stats.max_ns);
    }

    #[test]
    fn packet_bytes_splits_remainder() {
        let c = cfg();
        assert_eq!(last_packet_bytes(&c, 8192, 1), 8192);
        assert_eq!(last_packet_bytes(&c, 8192 * 3, 3), 8192);
        assert_eq!(last_packet_bytes(&c, 10000, 2), 1808);
        assert_eq!(last_packet_bytes(&c, 100, 1), 100);
    }

    #[test]
    fn dead_link_stalls_instead_of_spinning() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(1), NodeId(2))
            .unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(0), NodeId(2), 8192),
        ];
        let dead = mesh.link_between(NodeId(1), NodeId(2)).unwrap();
        let err = PacketSim::new(c).run(&mesh, &msgs).unwrap_err();
        match err {
            NocError::Stalled {
                pending_msgs,
                last_progress_ns,
                first_blocked_msg,
                first_blocked_link,
                ..
            } => {
                // Message 0 delivers; message 1 is routed over the dead link.
                assert_eq!(pending_msgs, 1);
                assert!(last_progress_ns > 0, "message 0 should have delivered");
                assert_eq!(first_blocked_msg, Some(MsgId(1)));
                assert_eq!(first_blocked_link, Some(dead));
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn zero_bandwidth_link_stalls_like_a_dead_one() {
        // A 0 GB/s override, and a degradation to almost nothing, would need
        // more picoseconds than the clock holds: both engines report the
        // message over it as blocked instead of wrapping its times.
        let mesh = Mesh::new(1, 3).unwrap();
        let slow = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(2), 8192 * 2),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192),
        ];
        let mut zero = cfg();
        zero.link_overrides.push((slow, 0.0));
        let mut faded = cfg();
        faded.faults.degrade_link(slow, 0.0);
        for c in [zero, faded] {
            for mode in [SimMode::Auto, SimMode::PerPacket] {
                let err = PacketSim::new(c.clone())
                    .with_mode(mode)
                    .simulate(&mesh, &msgs)
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        NocError::Stalled {
                            pending_msgs: 1,
                            first_blocked_msg: Some(MsgId(0)),
                            first_blocked_link: Some(l),
                            ..
                        } if l == slow
                    ),
                    "{mode:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn stall_counts_transitive_dependents_as_pending() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(0), NodeId(1))
            .unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192).with_deps([MsgId(0)]),
        ];
        let err = PacketSim::new(c).run(&mesh, &msgs).unwrap_err();
        assert!(
            matches!(
                err,
                NocError::Stalled {
                    pending_msgs: 2,
                    last_progress_ns: 0,
                    first_blocked_msg: Some(MsgId(0)),
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn degraded_link_fraction_halves_throughput() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 1 << 20;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let healthy = sim(&mesh, &msgs).makespan_ns();
        let mut c = cfg();
        c.faults
            .degrade_link_between(&mesh, NodeId(0), NodeId(1), 0.5)
            .unwrap();
        let degraded = PacketSim::new(c).run(&mesh, &msgs).unwrap().makespan_ns();
        // Serialization dominates at 1 MiB, so half the bandwidth is close
        // to double the time (per-packet overhead keeps it under 2x).
        assert!(
            degraded > 1.8 * healthy && degraded < 2.0 * healthy,
            "healthy {healthy}, degraded {degraded}"
        );
    }

    #[test]
    fn link_flap_defers_packets_until_recovery() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.faults.add_flap(meshcoll_topo::LinkFlap {
            link,
            down_ns: 0.0,
            up_ns: 5000.0,
        });
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let out = PacketSim::new(c).run(&mesh, &msgs).unwrap();
        let expect = 5000.0 + cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!(
            (out.makespan_ns() - expect).abs() < 1e-6,
            "got {}",
            out.makespan_ns()
        );
    }

    #[test]
    fn fast_path_handles_uncongested_runs() {
        // A dependency chain of multi-packet trains on disjoint links has no
        // interleaved contention: the fast path must accept it and agree
        // with the reference engine.
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 7 + 100),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192 * 7 + 100).with_deps([MsgId(0)]),
            Message::new(MsgId(2), NodeId(2), NodeId(3), 8192 * 7 + 100).with_deps([MsgId(1)]),
        ];
        let sim = PacketSim::new(cfg());
        let fast = sim.run_coalesced(&mesh, &msgs).unwrap().expect("fast path");
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        assert_bits_eq(&mesh, &fast, &exact);
    }

    /// Completions and per-link busy time agree bit for bit.
    fn assert_bits_eq(mesh: &Mesh, a: &SimOutcome, b: &SimOutcome) {
        let bits = |o: &SimOutcome| -> Vec<u64> {
            let busy = mesh.links().map(|(_, _, l)| o.link_stats().busy_ns(l));
            o.completions()
                .iter()
                .copied()
                .chain(busy)
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn fast_path_arbitrates_exact_injection_ties() {
        // Several sources inject onto shared links at the same instant.
        // Both engines serve the trains back-to-back in message-id order,
        // so the fast path accepts the tie and matches the per-packet
        // reference bit for bit.
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs: Vec<Message> = (0..6)
            .map(|i| Message::new(MsgId(i), NodeId(i % 3), NodeId(3), 8192 * 3))
            .collect();
        let sim = PacketSim::new(cfg());
        let fast = sim.run_coalesced(&mesh, &msgs).unwrap().expect("fast path");
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        assert_bits_eq(&mesh, &fast, &exact);
    }

    #[test]
    fn fast_path_orders_near_ties_exactly() {
        // Heads one picosecond apart, and a later-id head at the same
        // instant as an earlier one's window: integer time orders both, so
        // the fast path keeps the run and matches the reference bit for bit.
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 3).with_ready_at(2e-3),
            Message::new(MsgId(1), NodeId(0), NodeId(1), 8192 * 3).with_ready_at(5e-7),
            Message::new(MsgId(2), NodeId(0), NodeId(1), 8192).with_ready_at(2e-3),
        ];
        let sim = PacketSim::new(cfg());
        let fast = sim.run_coalesced(&mesh, &msgs).unwrap().expect("fast path");
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        assert_bits_eq(&mesh, &fast, &exact);
        // Message 1 (1 ps) goes first, then 0 and 2 tie at 2 ps by id.
        let c = |i| exact.completion_ns(MsgId(i)).unwrap();
        assert!(c(1) < c(0) && c(0) < c(2));
    }

    #[test]
    fn per_packet_mode_forces_reference_engine() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20)];
        let sim = PacketSim::new(cfg()).with_mode(SimMode::PerPacket);
        assert_eq!(sim.mode(), SimMode::PerPacket);
        let forced = sim.simulate(&mesh, &msgs).unwrap();
        let reference = sim.run_reference(&mesh, &msgs).unwrap();
        assert_eq!(forced.makespan_ns(), reference.makespan_ns());
    }

    #[test]
    fn route_cache_is_shared_and_populated() {
        let mesh = Mesh::new(2, 2).unwrap();
        let cache = std::sync::Arc::new(meshcoll_topo::RouteCache::new());
        let sim = PacketSim::new(cfg()).with_route_cache(cache.clone());
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(3), 8192)];
        sim.simulate(&mesh, &msgs).unwrap();
        assert_eq!(cache.len(), 1);
        sim.simulate(&mesh, &msgs).unwrap();
        assert!(cache.hits() >= 1);
        assert_eq!(
            std::sync::Arc::as_ptr(sim.route_cache()),
            std::sync::Arc::as_ptr(&cache)
        );
    }

    #[test]
    fn recycle_keeps_steady_state_buffers_warm() {
        let mesh = Mesh::new(1, 3).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 3),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192 * 3).with_deps([MsgId(0)]),
        ];
        let sim = PacketSim::new(cfg());
        let first = sim.simulate(&mesh, &msgs).unwrap();
        let makespan = first.makespan_ns();
        sim.recycle(first);
        assert!(sim.retained_scratch_bytes() > 0);
        let second = sim.simulate(&mesh, &msgs).unwrap();
        assert_eq!(second.makespan_ns(), makespan);
    }
}
