//! Packet-train coalescing fast path for [`PacketSim`](crate::PacketSim).
//!
//! The exact per-packet engine serves every packet at every hop: it queues
//! one burst event per injected message, one event per later packet-hop and
//! one per final delivery, and pays each packet's service arithmetic on
//! every link it crosses. A 64 MB transfer (8192 packets) across 8 hops is
//! ~65k packet-hops, ~57k of them queue events. In the common case that
//! per-packet work is pure overhead: the train's timing is fully determined
//! by a small recurrence. This module advances whole trains, one event per
//! (message, hop), collapsing the cost from O(packets × hops) to
//! O(messages × hops). Both engines drain the same calendar queue
//! ([`crate::calendar`]), so an event costs about the same in each and the
//! fast path's saving is in how many it queues: on single-hop routes the
//! per-packet engine already queues two events per message, as trains do.
//!
//! # The start-curve recurrence
//!
//! Within one train on one link, packet `k` starts at
//! `start[k] = max(arrival[k], start[k-1] + s)` where `s` is the full-packet
//! service time (serialization + per-packet overhead) on that link. With
//! `start[0] = max(arrival[0], link_free)` this unrolls to a piecewise-linear
//! curve in `k` ([`serve_curve_into`]) with at most one segment added per
//! hop, so a train's passage through a hop is O(segments), independent of
//! packet count. Arrival curves are monotone but — after a train split — not
//! necessarily convex, so [`serve_curve_into`] walks segments instead of
//! assuming a single line/curve crossing.
//!
//! # When coalescing is sound
//!
//! Both engines run on the integer picosecond clock of [`crate::time`] and
//! order same-instant events by its one tie-order key `(time, class, age,
//! message id, packet)`. The per-packet engine serves each link FIFO in that
//! key order, so a train's packets at a link hold the key range from its
//! head's key to its last packet's, and the fast path compares keys, never
//! times within a tolerance. Train events pop in ascending key order, so an
//! arriving head always sorts after the head of the link's latest
//! committed window. Contention is arbitrated at link granularity, in two
//! tiers plus a decline:
//!
//! 1. **Append.** A head whose key sorts after the window's last packet —
//!    later in time, or at the same instant with a later class, a later age
//!    or a higher message id, at any hop — is served after everything
//!    committed, which is exactly the per-packet FIFO order. Collective
//!    schedules routinely put several trains onto one link at one instant;
//!    they append in key order. A window whose packets all arrive at one instant (a hop-0
//!    injection, or a single packet) holds one key range no other train's
//!    key can fall inside, so such windows only ever take appends.
//! 2. **FIFO train splitting.** When a flat train's head sorts inside
//!    another train's *sloped* committed window, the per-packet FIFO order
//!    is still provable: the owner's first `split_index` packets (those
//!    whose keys sort before the head), then the whole interloper, then the
//!    owner's tail. The fast path re-serves the owner's tail behind the
//!    interloper, amends the owner's downstream curve (or re-arms its
//!    delivery), and emits a [`TraceEvent::TrainSplit`].
//! 3. **Decline.** Everything else — a second interloper in one window, a
//!    sloped interloper, an owner whose next hop already committed — returns
//!    [`Attempt::Declined`] with its [`Decline`] site, and the caller runs
//!    the whole DAG through the per-packet engine instead (see
//!    [`PacketSim`](crate::PacketSim)). So do a zero header latency (events
//!    could then create same-instant events that sort before them) and
//!    transient link flaps (each packet must individually re-check the
//!    outage windows).
//!
//! Each kept run's arithmetic is the per-packet engine's, term for term, in
//! integers, so its completions and per-link busy time are bit-identical to
//! the per-packet engine's.
//!
//! # Timed deaths
//!
//! Under a [`FaultTimeline`](meshcoll_topo::FaultTimeline) the pass applies
//! the per-packet loop's death rule to whole trains. A train's starts on a
//! link grow with the packet index, and a dropped packet leaves the link as
//! it was, so the packets whose start is at or past the link's death are
//! always a suffix of the train: the pass drops that suffix (one
//! [`TraceEvent::PacketDrop`] per packet when traced), charges the link
//! only for the served prefix (its [`TraceEvent::TrainHop`] carries the
//! served count), and lets the prefix travel on as a shorter, *truncated*
//! train. A truncated message never completes, but its packets that reach
//! the destination count as delivered bytes. A message released at or
//! after the death of a link on its route is withheld. The drain tally —
//! delivered and lost bytes, the drain clock, and the first drop, ordered
//! by drop time and then by the tie-order key of the dropped packet's own
//! event — comes out exactly as the per-packet loop's. Two shapes decline
//! on top of the static ones: a split whose re-served window reaches its
//! link's death, and a split of a truncated train. A static run is its
//! own instantiation of the pass, with every death check compiled away.
//!
//! # Scratch-backed runs
//!
//! [`run`] simulates the whole message DAG entirely out of a caller-owned
//! [`WorkScratch`]. All per-message state lives in one structure-of-runs
//! array indexed by message id, start curves are committed into a
//! structure-of-arrays [`CurveStore`] arena, the calendar queue reuses its
//! buckets and chunk slab (armed with a bucket per four train events of the
//! run), and completions/busy time are written into
//! caller-provided slices. After the scratch warms up (one run at each size
//! high-water mark), steady-state runs perform **zero heap allocations** —
//! asserted by `sim/tests/zero_alloc.rs` through the counting allocator in
//! `meshcoll_util::alloc`.

use meshcoll_topo::{Mesh, TransferDag};

use crate::calendar::{horizon_ps, Calendar, Timed};
use crate::config::Net;
use crate::online::DrainTally;
use crate::packet_sim::{last_packet_bytes, Deaths, RunSetup};
use crate::time::{
    link_carries, ns_to_ps, ps_to_ns, rank, rank_class, LinkTiming, DELIVER, HOP, INJECT,
};
use crate::trace::{TraceEvent, TraceSink};
use crate::{Decline, MsgId, NocError};

/// Outcome of one fast-path attempt, with results written into the
/// caller's buffers.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// The run completed; completions and busy time were written, and the
    /// tally holds a timeline run's drain (empty for static runs).
    Done(DrainTally),
    /// FIFO order unprovable at this site; the caller must re-run the whole
    /// DAG through the per-packet engine.
    Declined(Decline),
}

/// One train-level event, ordered like the per-packet engine's events by
/// the tie-order key of [`crate::time`]: `(at, rank, msg)`, where `rank`
/// packs the class above the age. An arrival at hop 0 is an injection
/// (class [`INJECT`]), a later arrival is its head packet's hop event
/// ([`HOP`]), and a delivery is its last packet's ([`DELIVER`]); `hop` and
/// `gen` only make the order total. Kept to 24 bytes so queue traffic stays
/// cheap — the congested sweeps move hundreds of thousands of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    /// Time in ps.
    at: u64,
    rank: u64,
    msg: u32,
    /// The route hop the head arrives at (arrivals), or the final hop
    /// (deliveries).
    hop: u16,
    /// Delivery generation: a final-hop train split supersedes a queued
    /// delivery by bumping the message's generation (stale events drop
    /// lazily).
    gen: u16,
}

impl Event {
    #[inline]
    fn is_delivery(self) -> bool {
        rank_class(self.rank) == DELIVER
    }
}

impl Timed for Event {
    #[inline]
    fn at(self) -> u64 {
        self.at
    }
}

/// One linear piece of a per-hop curve: packets `k0..` start (or arrive) at
/// `t + (k - k0) · slope` ps until the next segment's `k0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    k0: u64,
    t: u64,
    slope: u64,
}

/// Evaluates a piecewise-linear curve at packet index `k`. Committed curves
/// are overwhelmingly single-segment (uncontended trains), so that case
/// skips the binary search.
#[inline]
fn eval(curve: &[Seg], k: u64) -> u64 {
    curve.eval_at(k)
}

/// Appends `seg`, merging when it is an exact continuation of the last
/// segment (same slope, collinear) so curves stay minimal.
fn push_seg(out: &mut Vec<Seg>, seg: Seg) {
    if let Some(last) = out.last() {
        if last.slope == seg.slope && last.t + (seg.k0 - last.k0) * last.slope == seg.t {
            return;
        }
    }
    out.push(seg);
}

/// Read-only access to a piecewise-linear curve, abstracting over the
/// borrowed-slice form used by scratch buffers and the structure-of-arrays
/// form used by the [`CurveStore`] arena. Methods take `self` by value (the
/// implementors are thin `Copy` handles).
trait CurveLike: Copy {
    /// Number of segments.
    fn nsegs(self) -> usize;
    /// The `i`-th segment.
    fn seg_at(self, i: usize) -> Seg;
    /// Index of the segment covering packet `k`.
    fn search(self, k: u64) -> usize;
    /// Evaluates the curve at packet index `k`. Uncontended trains commit
    /// single-segment curves, so that case skips the binary search.
    #[inline]
    fn eval_at(self, k: u64) -> u64 {
        let sg = if self.nsegs() == 1 {
            self.seg_at(0)
        } else {
            self.seg_at(self.search(k))
        };
        sg.t + (k - sg.k0) * sg.slope
    }
}

impl CurveLike for &[Seg] {
    #[inline]
    fn nsegs(self) -> usize {
        self.len()
    }
    #[inline]
    fn seg_at(self, i: usize) -> Seg {
        self[i]
    }
    #[inline]
    fn search(self, k: u64) -> usize {
        self.partition_point(|s| s.k0 <= k) - 1
    }
}

/// A committed curve's extent inside the [`CurveStore`] arena.
#[derive(Debug, Clone, Copy, Default)]
struct CurveRef {
    off: u32,
    len: u32,
}

impl CurveRef {
    /// The not-yet-committed / released marker (hop-0 curves stay implicit).
    const EMPTY: CurveRef = CurveRef { off: 0, len: 0 };

    #[inline]
    fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Structure-of-arrays arena for committed start/arrival curves. Each
/// message holds at most one live curve at a time (its pending next-hop
/// arrival curve); superseded extents become garbage and the whole store is
/// truncated per run, so memory stays O(events) with capacity reused across
/// runs — the hot loop never allocates once warm.
#[derive(Debug, Default)]
struct CurveStore {
    k0: Vec<u64>,
    t: Vec<u64>,
    slope: Vec<u64>,
}

impl CurveStore {
    fn clear(&mut self) {
        self.k0.clear();
        self.t.clear();
        self.slope.clear();
    }

    /// Commits `segs` with every segment's time shifted by `dt` (the
    /// cut-through hop latency: a start curve becomes the next hop's
    /// arrival curve) and returns its extent.
    fn commit_shifted(&mut self, segs: &[Seg], dt: u64) -> CurveRef {
        let off = self.k0.len() as u32;
        for sg in segs {
            self.k0.push(sg.k0);
            self.t.push(sg.t + dt);
            self.slope.push(sg.slope);
        }
        CurveRef {
            off,
            len: segs.len() as u32,
        }
    }

    #[inline]
    fn view(&self, r: CurveRef) -> CurveView<'_> {
        let (a, b) = (r.off as usize, (r.off + r.len) as usize);
        CurveView {
            k0: &self.k0[a..b],
            t: &self.t[a..b],
            slope: &self.slope[a..b],
        }
    }
}

/// Borrowed view of one committed curve in the [`CurveStore`].
#[derive(Debug, Clone, Copy)]
struct CurveView<'a> {
    k0: &'a [u64],
    t: &'a [u64],
    slope: &'a [u64],
}

impl CurveLike for CurveView<'_> {
    #[inline]
    fn nsegs(self) -> usize {
        self.k0.len()
    }
    #[inline]
    fn seg_at(self, i: usize) -> Seg {
        Seg {
            k0: self.k0[i],
            t: self.t[i],
            slope: self.slope[i],
        }
    }
    #[inline]
    fn search(self, k: u64) -> usize {
        self.k0.partition_point(|&k0| k0 <= k) - 1
    }
}

/// Serves the recurrence `start[k] = max(arrival[k], start[k-1] + s)` with
/// `start[0] = st0` over `k ∈ [0, pcount)`, where `arr` is a monotone
/// non-decreasing piecewise-linear arrival curve (convexity is *not*
/// required — post-split curves carry upward steps). Requires
/// `st0 >= arr(0)`, which holds because `st0 = max(arr(0), link_free)`.
/// Writes into a caller-owned buffer so the hot loop reuses one allocation
/// across every commit.
///
/// Within each arrival segment the service alternates between two regimes:
/// *queued* (starts follow the burst line at slope `s`) and
/// *arrival-following* (starts equal arrivals, possible only when the
/// arrival slope is ≥ `s`). The crossing inside a segment is found by
/// binary search on the sign of `arrival − line`, which is linear there.
/// Every value is the recurrence's own, exactly: integer times do not
/// depend on how the additions are grouped.
fn serve_curve_into<C: CurveLike>(st0: u64, s: u64, arr: C, pcount: u64, out: &mut Vec<Seg>) {
    debug_assert!(st0 >= arr.eval_at(0));
    out.clear();
    let mut k: u64 = 0;
    let mut prev: u64 = 0; // start of packet k-1 (meaningful once k > 0)
    while k < pcount {
        let i = arr.search(k);
        let seg = arr.seg_at(i);
        let end = if i + 1 < arr.nsegs() {
            arr.seg_at(i + 1).k0.min(pcount) // exclusive
        } else {
            pcount
        };
        let m = seg.slope;
        let a_k = seg.t + (k - seg.k0) * m;
        let q0 = if k == 0 { st0 } else { (prev + s).max(a_k) };
        let a_end = seg.t + (end - 1 - seg.k0) * m;
        if q0 <= a_k && m >= s {
            // No backlog and arrivals at least service-spaced: starts track
            // arrivals through the rest of this segment.
            push_seg(
                out,
                Seg {
                    k0: k,
                    t: a_k,
                    slope: m,
                },
            );
            prev = a_end;
            k = end;
        } else {
            let line = |kk: u64| q0 + (kk - k) * s;
            push_seg(
                out,
                Seg {
                    k0: k,
                    t: q0,
                    slope: s,
                },
            );
            if m > s && a_end > line(end - 1) {
                // The backlog drains inside this segment: find the first
                // packet whose arrival overtakes the burst line.
                let (mut lo, mut hi) = (k, end - 1);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    let a_mid = seg.t + (mid - seg.k0) * m;
                    if a_mid > line(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                prev = line(hi - 1);
                k = hi;
            } else {
                // Queued through the whole segment.
                prev = line(end - 1);
                k = end;
            }
        }
    }
}

/// The sub-curve of `curve` covering packets `from..pcount`, re-indexed so
/// the first remaining packet is index 0, written into a reusable buffer.
fn slice_curve_into(curve: &[Seg], from: u64, pcount: u64, out: &mut Vec<Seg>) {
    let i = curve.partition_point(|s| s.k0 <= from) - 1;
    out.clear();
    out.push(Seg {
        k0: 0,
        t: eval(curve, from),
        slope: curve[i].slope,
    });
    for seg in &curve[i + 1..] {
        if seg.k0 >= pcount {
            break;
        }
        push_seg(
            out,
            Seg {
                k0: seg.k0 - from,
                t: seg.t,
                slope: seg.slope,
            },
        );
    }
}

/// Per-link occupancy bookkeeping for the train engine. Times are in ps.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// When the link can next begin serving a packet.
    free: u64,
    /// Tie-order key `(time, rank, message)` of the latest committed packet
    /// arrival: the last packet of the link's committed window.
    last_at: u64,
    last_rank: u64,
    last_msg: u32,
    /// Whether any train has been committed to this link yet (this run).
    used: bool,
    /// The committed window has already absorbed one split; a second
    /// interloper cannot be ordered.
    split: bool,
    /// Owner of the committed window (meaningful when `owner_arr` is
    /// non-empty, i.e. the window is sloped and splittable).
    owner: u32,
    /// The owner's hop index on this link.
    owner_hop: u16,
    /// The owner's arrival curve on this link (sloped windows only; cleared
    /// for flat windows, which only ever take appends).
    owner_arr: Vec<Seg>,
    /// The owner's committed start curve on this link (sloped windows only).
    owner_starts: Vec<Seg>,
}

impl LinkState {
    /// Returns the link to its pristine state while keeping the curve
    /// buffers' capacity for the next run.
    fn reset(&mut self) {
        self.free = 0;
        self.last_at = 0;
        self.last_rank = 0;
        self.last_msg = 0;
        self.used = false;
        self.split = false;
        self.owner = 0;
        self.owner_hop = 0;
        self.owner_arr.clear();
        self.owner_starts.clear();
    }
}

/// Per-message simulation state, indexed by message id: one compact record
/// per message, so an event touches one or two cache lines instead of one
/// per field.
#[derive(Debug, Clone)]
struct MsgState {
    /// Injection-eligible time (ps): `ready_at` folded with dependency
    /// completions.
    earliest: u64,
    /// Rank in the run's injection order (0 until injected): the age in
    /// the tie-order key of its deliveries and arrivals.
    age: u32,
    bytes: u64,
    /// Packets still in flight: the whole train, until a death truncates
    /// it to a prefix.
    pcount: u64,
    /// Pending next-hop arrival curve ([`CurveRef::EMPTY`] while at hop 0 or
    /// after delivery release).
    curve: CurveRef,
    pending_deps: u32,
    /// Delivery generation: a final-hop train split supersedes the queued
    /// delivery by bumping this (stale events drop lazily).
    gen: u16,
    /// Which hop the pending curve (and queue event) is for.
    pending_hop: u16,
    /// Route crosses a dead link; never injected.
    blocked: bool,
    completed: bool,
    /// A timeline death dropped some of the train's packets, its last one
    /// among them: the message can no longer complete.
    truncated: bool,
}

/// Reusable working memory for [`run`], pooled on `PacketSim` (one per
/// concurrent run); after warmup every buffer retains its high-water
/// capacity, so steady-state runs allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct WorkScratch {
    /// Service times per link, looked up once per run.
    timing: LinkTiming,
    msgs: Vec<MsgState>,
    /// Dependents in CSR layout (offsets + one flat slab of message ids).
    dep_off: Vec<u32>,
    dep_flat: Vec<u32>,
    dep_cursor: Vec<u32>,
    links: Vec<LinkState>,
    /// Links committed to during the current run, reset lazily at the start
    /// of the next one (covers declined passes without a scan).
    touched: Vec<u32>,
    /// Per-link busy time (ps), all-zero between runs: the links a run
    /// touched are zeroed again when the next one begins.
    busy: Vec<u64>,
    /// Horizon estimation accumulator; zeroed again before the loop starts
    /// (fold-and-zero) so the buffer is all-zero between runs.
    busy_est: Vec<u64>,
    curves: CurveStore,
    queue: Calendar<Event>,
    starts: Vec<Seg>,
    split_arr: Vec<Seg>,
    split_starts: Vec<Seg>,
    tail_arr: Vec<Seg>,
    tail_starts: Vec<Seg>,
    amended: Vec<Seg>,
}

impl WorkScratch {
    /// Prepares the scratch for a run on a mesh with `link_space` link ids:
    /// undoes the previous run's per-link state and sizes the link arrays.
    fn begin_run(&mut self, link_space: usize) {
        for &li in &self.touched {
            self.links[li as usize].reset();
            self.busy[li as usize] = 0;
        }
        self.touched.clear();
        if self.links.len() < link_space {
            self.links.resize_with(link_space, LinkState::default);
        }
        if self.busy.len() < link_space {
            self.busy.resize(link_space, 0);
        }
        if self.busy_est.len() < link_space {
            self.busy_est.resize(link_space, 0);
        }
        self.curves.clear();
    }

    /// Bytes currently retained across runs (capacity high-water marks), for
    /// the O(messages) memory smoke test in `fig9_scalability`.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let seg = size_of::<Seg>();
        self.timing.retained_bytes()
            + self.msgs.capacity() * size_of::<MsgState>()
            + (self.dep_off.capacity() + self.dep_flat.capacity() + self.dep_cursor.capacity())
                * size_of::<u32>()
            + self.links.capacity() * size_of::<LinkState>()
            + self
                .links
                .iter()
                .map(|l| (l.owner_arr.capacity() + l.owner_starts.capacity()) * seg)
                .sum::<usize>()
            + self.touched.capacity() * size_of::<u32>()
            + (self.busy.capacity() + self.busy_est.capacity()) * size_of::<u64>()
            + (self.curves.k0.capacity() + self.curves.t.capacity() + self.curves.slope.capacity())
                * size_of::<u64>()
            + self.queue.retained_bytes()
            + (self.starts.capacity()
                + self.split_arr.capacity()
                + self.split_starts.capacity()
                + self.tail_arr.capacity()
                + self.tail_starts.capacity()
                + self.amended.capacity())
                * seg
    }
}

/// Emits the inject trace event and queues the hop-0 arrival, keyed by the
/// age of the delivery that released it at `at` (`released_by`, 0 if
/// none). Every packet of the train is eligible at the injection instant,
/// so the hop-0 arrival curve is the constant `at` — it stays implicit (the
/// arrival handler synthesizes it from the event time) to keep injection
/// allocation-free.
#[inline]
fn inject_event<D: TransferDag + ?Sized, T: TraceSink>(
    queue: &mut Calendar<Event>,
    sink: &mut T,
    dag: &D,
    local: usize,
    pcount: u64,
    at: u64,
    released_by: u32,
) {
    if T::ENABLED {
        sink.record(TraceEvent::Inject {
            msg: MsgId(local),
            src: dag.src(local),
            dst: dag.dst(local),
            bytes: dag.bytes(local),
            packets: pcount,
            at_ns: ps_to_ns(at),
        });
    }
    queue.push(Event {
        at,
        rank: rank(INJECT, released_by),
        msg: local as u32,
        hop: 0,
        gen: 0,
    });
}

/// The first packet in `0..pcount` whose time on the increasing curve is at
/// or past `t`; packet `pcount - 1`'s must be.
fn first_at_or_past(curve: &[Seg], pcount: u64, t: u64) -> u64 {
    let (mut lo, mut hi) = (0, pcount - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if eval(curve, mid) >= t {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Runs the whole message DAG at train granularity, entirely out of `ws`,
/// under `deaths` when the run has a timeline.
///
/// `completion` (one entry per message) and `busy` (one per link id,
/// zeroed) are the caller's output slices, and a completed run returns its
/// drain tally (empty for static runs). The fault model must have no
/// transient flaps (the caller checks). On an [`Attempt::Declined`] return
/// `completion` and `sink` hold a partial run, so callers wanting clean
/// traces buffer into a temporary sink first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<D: TransferDag + ?Sized, T: TraceSink>(
    net: Net<'_>,
    mesh: &Mesh,
    dag: &D,
    setup: &RunSetup,
    deaths: Option<&Deaths>,
    ws: &mut WorkScratch,
    completion: &mut [f64],
    busy: &mut [f64],
    sink: &mut T,
) -> Result<Attempt, NocError> {
    // A static run is its own instantiation, with every death check
    // compiled away.
    if deaths.is_some() {
        run_pass::<true, D, T>(net, mesh, dag, setup, deaths, ws, completion, busy, sink)
    } else {
        run_pass::<false, D, T>(net, mesh, dag, setup, None, ws, completion, busy, sink)
    }
}

/// [`run`], with `TIMED` telling whether `deaths` is given.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_pass<const TIMED: bool, D: TransferDag + ?Sized, T: TraceSink>(
    net: Net<'_>,
    mesh: &Mesh,
    dag: &D,
    setup: &RunSetup,
    deaths: Option<&Deaths>,
    ws: &mut WorkScratch,
    completion: &mut [f64],
    busy: &mut [f64],
    sink: &mut T,
) -> Result<Attempt, NocError> {
    let deaths = if TIMED { deaths } else { None };
    let cfg = net.cfg;
    debug_assert!(net.faults.flaps().is_empty());
    let n = dag.len();
    ws.begin_run(mesh.link_id_space());
    let WorkScratch {
        timing,
        msgs,
        dep_off,
        dep_flat,
        dep_cursor,
        links,
        touched,
        busy: busy_ps,
        busy_est,
        curves,
        queue,
        starts,
        split_arr,
        split_starts,
        tail_arr,
        tail_starts,
        amended,
    } = ws;
    timing.reset(net, mesh);
    let hop_lat = timing.hop;
    let ovh = timing.overhead;
    if hop_lat == 0 {
        // Without a header latency an injection could create a same-instant
        // arrival that sorts before it, and the key comparisons below
        // assume events pop in ascending key order.
        return Ok(Attempt::Declined(Decline::ZeroHeaderLatency));
    }
    let mut tally = deaths.map_or_else(DrainTally::default, |_| DrainTally::timed(n));

    // Pass A: per-message state, fused with the horizon estimate's per-link
    // service accumulation and the dependent-count pass — the congested
    // schedules carry ~10^5 messages, so every extra full sweep over the
    // routes costs real milliseconds. The u16 route-length guard must
    // restore `busy_est` to all-zero before aborting (`begin_run` relies on
    // the invariant instead of re-zeroing the buffer each run).
    msgs.clear();
    msgs.reserve(n);
    dep_off.clear();
    dep_off.resize(n + 1, 0);
    let mut max_ready = 0u64;
    let mut expected_events = n;
    let (mut memo_bytes, mut memo_pcount) = (0u64, 0u64);
    for i in 0..n {
        let r = setup.route(i);
        if r.len() >= usize::from(u16::MAX) {
            // Event hop indices are u16; no physical mesh route gets close.
            busy_est.fill(0);
            return Ok(Attempt::Declined(Decline::LongRoute));
        }
        let ready = ns_to_ps(dag.ready_at_ns(i));
        max_ready = max_ready.max(ready);
        expected_events += r.len() + 1;
        // Wave-synchronous schedules repeat a handful of message sizes, so
        // one memoized division covers almost every packetization.
        let bytes = dag.bytes(i);
        let pcount = if bytes == memo_bytes {
            memo_pcount
        } else {
            memo_bytes = bytes;
            memo_pcount = cfg.packets_for(bytes);
            memo_pcount
        };
        for &lk in r {
            let s = timing.full(lk.index()).saturating_add(ovh);
            let b = &mut busy_est[lk.index()];
            *b = b.saturating_add(pcount.saturating_mul(s));
        }
        let deps = dag.deps(i);
        let pending_deps = deps.len() as u32;
        for d in deps {
            dep_off[d + 1] += 1;
        }
        msgs.push(MsgState {
            earliest: ready,
            age: 0,
            bytes,
            pcount,
            curve: CurveRef::EMPTY,
            pending_deps,
            gen: 0,
            pending_hop: 0,
            blocked: setup.blocked[i],
            completed: false,
            truncated: false,
        });
    }

    // Arm the event queue over the horizon estimate, aiming for a handful
    // of train events per bucket.
    queue.reset(horizon_ps(busy_est, max_ready), expected_events / 4);

    // Dependents in CSR layout (offsets + one flat slab, counted during
    // Pass A): per-message Vecs would cost an allocation apiece. The fill
    // pass doubles as the injection scan for dependency-free messages.
    for i in 0..n {
        dep_off[i + 1] += dep_off[i];
    }
    dep_flat.clear();
    dep_flat.resize(dep_off[n] as usize, 0);
    dep_cursor.clear();
    dep_cursor.extend_from_slice(&dep_off[..n]);

    let mut injected = 0usize;
    let mut stalled = 0usize;
    let mut delivered = 0usize;
    let mut last_progress = 0u64;
    // Injections popped so far: the last age handed out.
    let mut injections = 0u32;

    for (l, st) in msgs.iter().enumerate() {
        for d in dag.deps(l) {
            let c = &mut dep_cursor[d];
            dep_flat[*c as usize] = l as u32;
            *c += 1;
        }
        if st.pending_deps == 0 {
            if st.blocked {
                stalled += 1;
            } else if deaths.is_some_and(|dd| dd.withholds(setup, l, st.earliest)) {
                tally.withhold(st.earliest);
            } else {
                inject_event(queue, sink, dag, l, st.pcount, st.earliest, 0);
            }
            injected += 1;
        }
    }

    while let Some(ev) = queue.pop() {
        let mi = ev.msg as usize;
        let t = ev.at;
        if ev.is_delivery() {
            if ev.gen != msgs[mi].gen {
                continue; // superseded by a final-hop split
            }
            // The train's last packet is delivered: it completes and
            // releases its dependents, whose injections sort after every
            // delivery and arrival at this instant.
            msgs[mi].completed = true;
            let done_ns = ps_to_ns(t);
            completion[mi] = done_ns;
            delivered += 1;
            last_progress = last_progress.max(t);
            if deaths.is_some() {
                tally.delivered_bytes[mi] = msgs[mi].bytes;
                tally.end_ps = tally.end_ps.max(t);
            }
            if T::ENABLED {
                sink.record(TraceEvent::Deliver {
                    msg: MsgId(mi),
                    bytes: msgs[mi].bytes,
                    at_ns: done_ns,
                });
            }
            let age = msgs[mi].age;
            for &dep in &dep_flat[dep_off[mi] as usize..dep_off[mi + 1] as usize] {
                let dl = dep as usize;
                let d = &mut msgs[dl];
                d.earliest = d.earliest.max(t);
                d.pending_deps -= 1;
                if d.pending_deps == 0 {
                    if d.blocked {
                        stalled += 1;
                    } else if deaths.is_some_and(|dd| dd.withholds(setup, dl, d.earliest)) {
                        tally.withhold(d.earliest);
                    } else {
                        // Released at this very instant: the injection
                        // inherits this delivery's age.
                        let released_by = if d.earliest == t { age } else { 0 };
                        inject_event(queue, sink, dag, dl, d.pcount, d.earliest, released_by);
                    }
                    injected += 1;
                }
            }
            continue;
        }

        // An arrival: the train's head reaches hop `ev.hop`. Injections
        // pop in key order; each takes the next age.
        if ev.hop == 0 {
            injections += 1;
            msgs[mi].age = injections;
        }
        let route = setup.route(mi);
        let j = ev.hop as usize;
        let link = route[j];
        let li = link.index();
        let total = msgs[mi].bytes;
        // The packets still in flight: the whole train, or the prefix a
        // death upstream left of it.
        let pcount = msgs[mi].pcount;
        let truncated = TIMED && msgs[mi].truncated;
        // Hop-0 curves are implicitly the constant injection instant (never
        // materialized); deeper hops read the stored curve.
        let arr_ref = msgs[mi].curve;
        let arrive = |curves: &CurveStore, k: u64| {
            if ev.hop == 0 {
                t
            } else {
                curves.view(arr_ref).eval_at(k)
            }
        };
        let a_last = arrive(curves, pcount - 1);
        let flat_instant = a_last == t;

        // A truncated train has lost its last packet, so every packet still
        // in flight is a full one.
        let last_bytes = if truncated {
            cfg.packet_bytes
        } else {
            last_packet_bytes(cfg, total, pcount)
        };
        let ser_last = timing.ser(li, last_bytes);
        let s = timing.full(li) + ovh;

        let head = (t, ev.rank, ev.msg);
        let link_last = (links[li].last_at, links[li].last_rank, links[li].last_msg);
        if links[li].used && head < link_last {
            // --- FIFO train split: the head sorts inside the owner's
            // sloped window. Serve this flat train between two of the
            // owner's packets, re-serving the owner's tail behind it.
            // Every unprovable shape declines, and so does a split of a
            // train a death truncated or one the link's death cuts. ---
            let site = if links[li].split {
                Some(Decline::SecondInterloper)
            } else if !flat_instant {
                Some(Decline::SlopedInterloper)
            } else if links[li].owner_arr.is_empty() {
                Some(Decline::UnownedWindow)
            } else {
                None
            };
            if let Some(site) = site {
                return Ok(Attempt::Declined(site));
            }
            let am = links[li].owner as usize;
            if truncated || (TIMED && msgs[am].truncated) {
                return Ok(Attempt::Declined(Decline::Truncated));
            }
            let a_hop = links[li].owner_hop;
            let a_final = (a_hop as usize) + 1 == setup.route(am).len();
            // The owner's downstream bookkeeping must still be pending
            // (its next-hop event or delivery not yet processed).
            let amendable = if a_final {
                !msgs[am].completed
            } else {
                !msgs[am].curve.is_empty() && msgs[am].pending_hop == a_hop + 1
            };
            if !amendable {
                return Ok(Attempt::Declined(Decline::OwnerCommitted));
            }
            let a_total = msgs[am].bytes;
            let a_pcount = msgs[am].pcount;
            // The split index: how many owner packets sort before the
            // head. Packet 0 does (its head popped first) and the last
            // does not (the head sorts inside the window).
            let before = |k: u64| (eval(&links[li].owner_arr, k), link_last.1, link_last.2) < head;
            debug_assert!(before(0) && !before(a_pcount - 1));
            let (mut lo, mut hi) = (0u64, a_pcount - 1);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if before(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let k_a = hi;

            // Copy the owner's window into scratch (instead of moving
            // the LinkState out) so the link's curve buffers keep their
            // capacity for later runs.
            split_arr.clear();
            split_arr.extend_from_slice(&links[li].owner_arr);
            split_starts.clear();
            split_starts.extend_from_slice(&links[li].owner_starts);
            let a_last_bytes = last_packet_bytes(cfg, a_total, a_pcount);
            let a_ser_last = timing.ser(li, a_last_bytes);

            // The interloper's head queues behind owner packet k_a - 1
            // (always a full packet, since k_a < a_pcount).
            let free_head = eval(split_starts, k_a - 1) + s;
            let st0_b = t.max(free_head);
            let b_slope = if pcount > 1 { s } else { 0 };
            let b_last_start = st0_b + (pcount - 1) * b_slope;
            let free_after_b = b_last_start + ser_last + ovh;

            // Re-serve the owner's tail behind the interloper.
            let tail_len = a_pcount - k_a;
            slice_curve_into(split_arr, k_a, a_pcount, tail_arr);
            let st0_tail = eval(tail_arr, 0).max(free_after_b);
            tail_starts.clear();
            if tail_len == 1 {
                tail_starts.push(Seg {
                    k0: 0,
                    t: st0_tail,
                    slope: 0,
                });
            } else {
                serve_curve_into(st0_tail, s, tail_arr.as_slice(), tail_len, tail_starts);
            }
            let a_new_last = eval(tail_starts, tail_len - 1);
            let free_final = a_new_last + a_ser_last + ovh;
            if deaths.is_some_and(|dd| a_new_last >= dd.link[li]) {
                // The re-served window reaches the link's death.
                return Ok(Attempt::Declined(Decline::DyingLink));
            }

            if a_final {
                // Supersede the owner's queued delivery.
                msgs[am].gen += 1;
                queue.push(Event {
                    at: a_new_last + a_ser_last + hop_lat,
                    rank: rank(DELIVER, msgs[am].age),
                    msg: am as u32,
                    hop: a_hop,
                    gen: msgs[am].gen,
                });
            } else {
                // Amend the owner's pending next-hop arrival curve. Its
                // head start is unchanged (k_a ≥ 1), so the queued event's
                // time and key stay valid.
                amended.clear();
                for sg in split_starts.iter().filter(|sg| sg.k0 < k_a) {
                    push_seg(amended, *sg);
                }
                for sg in tail_starts.iter() {
                    push_seg(
                        amended,
                        Seg {
                            k0: sg.k0 + k_a,
                            ..*sg
                        },
                    );
                }
                msgs[am].curve = curves.commit_shifted(amended, hop_lat);
            }

            // The owner's per-link busy time is order-independent and
            // was accounted at its commit; only the interloper adds.
            busy_ps[li] += (pcount - 1) * s + ser_last + ovh;
            if T::ENABLED {
                sink.record(TraceEvent::TrainSplit {
                    msg: MsgId(am),
                    hop: u32::from(a_hop),
                    link,
                    split_index: k_a,
                    first_start_ns: ps_to_ns(eval(split_starts, 0)),
                    last_start_ns: ps_to_ns(a_new_last),
                });
                sink.record(TraceEvent::TrainHop {
                    msg: MsgId(mi),
                    hop: u32::from(ev.hop),
                    link,
                    packets: pcount,
                    arrive_ns: ps_to_ns(t),
                    first_start_ns: ps_to_ns(st0_b),
                    last_start_ns: ps_to_ns(b_last_start),
                });
            }
            {
                // The window keeps the owner's last key.
                let stl = &mut links[li];
                stl.free = free_final;
                stl.split = true;
                stl.owner = 0;
                stl.owner_hop = 0;
                stl.owner_arr.clear();
                stl.owner_starts.clear();
            }

            // Advance the interloper.
            if j + 1 < route.len() {
                starts.clear();
                starts.push(Seg {
                    k0: 0,
                    t: st0_b,
                    slope: b_slope,
                });
                msgs[mi].curve = curves.commit_shifted(starts, hop_lat);
                msgs[mi].pending_hop = ev.hop + 1;
                queue.push(Event {
                    at: st0_b + hop_lat,
                    rank: rank(HOP, msgs[mi].age),
                    msg: ev.msg,
                    hop: ev.hop + 1,
                    gen: 0,
                });
            } else {
                msgs[mi].curve = CurveRef::EMPTY;
                queue.push(Event {
                    at: b_last_start + ser_last + hop_lat,
                    rank: rank(DELIVER, msgs[mi].age),
                    msg: ev.msg,
                    hop: ev.hop,
                    gen: msgs[mi].gen,
                });
            }
            continue;
        }

        // Append: the head sorts after every packet committed to the link,
        // so the train owns it after them — exactly the per-packet FIFO
        // order, same-instant ties included.
        let st0 = t.max(links[li].free);
        starts.clear();
        if pcount == 1 {
            starts.push(Seg {
                k0: 0,
                t: st0,
                slope: 0,
            });
        } else if ev.hop == 0 {
            // Flat arrivals: the train queues behind `st0` at service
            // spacing — the recurrence degenerates to one burst segment.
            starts.push(Seg {
                k0: 0,
                t: st0,
                slope: s,
            });
        } else {
            let arr = curves.view(msgs[mi].curve);
            let s0 = arr.seg_at(0);
            let (a0, m) = (s0.t, s0.slope);
            if arr.nsegs() == 1 && (m <= s || st0 == a0) {
                // Single arrival segment that either never overtakes the
                // service line (m ≤ s ⇒ queued throughout) or is followed
                // from packet 0 (head started on time with m ≥ s): one
                // output segment, computed without the general walk.
                starts.push(Seg {
                    k0: 0,
                    t: st0,
                    slope: m.max(s),
                });
            } else {
                serve_curve_into(st0, s, arr, pcount, starts);
            }
        }
        let mut start_last = eval(starts, pcount - 1);

        // Under a timeline the packets whose start falls at or past the
        // link's death are lost here, exactly as the per-packet loop drops
        // them: a suffix, since starts grow with the packet index and a
        // dropped packet leaves the link as it was. The served prefix
        // travels on as a shorter train.
        let mut served = pcount;
        let (mut a_served, mut ser_served) = (a_last, ser_last);
        if let Some(death) = deaths.map(|dd| dd.link[li]).filter(|&d| start_last >= d) {
            served = first_at_or_past(starts, pcount, death);
            let first = arrive(curves, served);
            let lost = (pcount - served - 1) * cfg.packet_bytes + last_bytes;
            tally.drop_packets(
                (first.max(death), (first, ev.rank, ev.msg, served)),
                a_last.max(death),
                MsgId(mi),
                link,
                lost,
            );
            if T::ENABLED {
                for k in served..pcount {
                    sink.record(TraceEvent::PacketDrop {
                        msg: MsgId(mi),
                        packet: k,
                        hop: u32::from(ev.hop),
                        link,
                        bytes: if k + 1 == pcount {
                            last_bytes
                        } else {
                            cfg.packet_bytes
                        },
                        at_ns: ps_to_ns(arrive(curves, k).max(death)),
                    });
                }
            }
            msgs[mi].truncated = true;
            msgs[mi].pcount = served;
            if served == 0 {
                // The whole train is lost: nothing commits to the link and
                // the message never completes.
                msgs[mi].curve = CurveRef::EMPTY;
                continue;
            }
            start_last = eval(starts, served - 1);
            a_served = arrive(curves, served - 1);
            ser_served = timing.full(li);
        }

        busy_ps[li] += (served - 1) * s + ser_served + ovh;
        if T::ENABLED {
            sink.record(TraceEvent::TrainHop {
                msg: MsgId(mi),
                hop: u32::from(ev.hop),
                link,
                packets: served,
                arrive_ns: ps_to_ns(t),
                first_start_ns: ps_to_ns(st0),
                last_start_ns: ps_to_ns(start_last),
            });
        }

        {
            let stl = &mut links[li];
            if !stl.used {
                touched.push(li as u32);
            }
            stl.free = start_last + ser_served + ovh;
            stl.used = true;
            stl.last_at = a_served;
            stl.last_rank = ev.rank;
            stl.last_msg = ev.msg;
            stl.split = false;
            stl.owner_arr.clear();
            stl.owner_starts.clear();
            if a_served != t {
                stl.owner = ev.msg;
                stl.owner_hop = ev.hop;
                let v = curves.view(msgs[mi].curve);
                for i in 0..v.nsegs() {
                    stl.owner_arr.push(v.seg_at(i));
                }
                stl.owner_starts.extend_from_slice(starts);
            }
        }

        if j + 1 < route.len() {
            // Cut-through: each packet's header reaches the next router one
            // per-flit latency after it wins this link.
            msgs[mi].curve = curves.commit_shifted(starts, hop_lat);
            msgs[mi].pending_hop = ev.hop + 1;
            queue.push(Event {
                at: st0 + hop_lat,
                rank: rank(HOP, msgs[mi].age),
                msg: ev.msg,
                hop: ev.hop + 1,
                gen: 0,
            });
        } else if TIMED && msgs[mi].truncated {
            // A truncated train's packets reach the destination, each on
            // winning this link, but the message never completes.
            msgs[mi].curve = CurveRef::EMPTY;
            tally.delivered_bytes[mi] += served * cfg.packet_bytes;
            tally.end_ps = tally.end_ps.max(start_last + timing.full(li) + hop_lat);
        } else {
            // Final hop: the train's last packet is delivered after its full
            // serialization plus the hop latency. Delivery (and dependent
            // release) goes through the queue so it happens in key order —
            // matching the per-packet engine's injection order. Release the
            // curve so the split amendability probe can't mistake the stale
            // state for a pending next-hop curve.
            msgs[mi].curve = CurveRef::EMPTY;
            queue.push(Event {
                at: start_last + ser_last + hop_lat,
                rank: rank(DELIVER, msgs[mi].age),
                msg: ev.msg,
                hop: ev.hop,
                gen: msgs[mi].gen,
            });
        }
    }

    if stalled > 0 {
        let culprit = msgs.iter().position(|m| m.blocked);
        let culprit_link = culprit.and_then(|l| {
            setup
                .route(l)
                .iter()
                .copied()
                .find(|&lk| !link_carries(net, mesh, lk))
        });
        return Err(NocError::Stalled {
            pending_msgs: n - delivered,
            last_progress_ns: last_progress / 1000,
            first_blocked_msg: culprit.map(crate::MsgId),
            first_blocked_link: culprit_link,
            stalled_at_ns: last_progress / 1000,
        });
    }
    if !tally.interrupted && injected < n {
        return Err(NocError::DependencyCycle {
            stuck: n - injected,
        });
    }
    for &li in touched.iter() {
        let li = li as usize;
        busy[li] = ps_to_ns(busy_ps[li]);
        if deaths.is_some() {
            // Each link's busy intervals end by its final free time.
            tally.end_ps = tally.end_ps.max(links[li].free);
        }
    }
    Ok(Attempt::Done(tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_util::Rng;

    fn seg(k0: u64, t: u64, slope: u64) -> Seg {
        Seg { k0, t, slope }
    }

    fn serve_curve(st0: u64, s: u64, arr: &[Seg], pcount: u64) -> Vec<Seg> {
        let mut out = Vec::new();
        serve_curve_into(st0, s, arr, pcount, &mut out);
        out
    }

    fn slice_curve(curve: &[Seg], from: u64, pcount: u64) -> Vec<Seg> {
        let mut out = Vec::new();
        slice_curve_into(curve, from, pcount, &mut out);
        out
    }

    /// The recurrence, computed packet by packet.
    fn brute_serve(st0: u64, s: u64, arr: &[Seg], pcount: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(pcount as usize);
        out.push(st0);
        for k in 1..pcount {
            let prev = out[(k - 1) as usize];
            out.push((prev + s).max(eval(arr, k)));
        }
        out
    }

    #[test]
    fn eval_walks_segments() {
        let c = vec![seg(0, 10, 2), seg(4, 18, 5)];
        assert_eq!(eval(&c, 0), 10);
        assert_eq!(eval(&c, 3), 16);
        assert_eq!(eval(&c, 4), 18);
        assert_eq!(eval(&c, 6), 28);
    }

    #[test]
    fn curve_store_views_match_slices() {
        let mut store = CurveStore::default();
        let segs = vec![seg(0, 10, 2), seg(4, 18, 5)];
        let r = store.commit_shifted(&segs, 0);
        let shifted = store.commit_shifted(&segs, 15);
        let v = store.view(r);
        for k in [0, 3, 4, 6] {
            assert_eq!(v.eval_at(k), eval(&segs, k));
            assert_eq!(store.view(shifted).eval_at(k) - eval(&segs, k), 15);
        }
        assert!(CurveRef::EMPTY.is_empty());
        store.clear();
        assert_eq!(store.k0.len(), 0);
    }

    #[test]
    fn burst_line_dominates_slow_arrivals() {
        // Arrivals spaced 1 ps, service 5 ps: the queue line wins everywhere.
        let arr = vec![seg(0, 0, 1)];
        let out = serve_curve(0, 5, &arr, 100);
        assert_eq!(out, [seg(0, 0, 5)]);
        assert_eq!(eval(&out, 99), 495);
    }

    #[test]
    fn fast_arrivals_overtake_burst_line() {
        // Head waited (st0 = 100) but arrivals stream at 10 ps spacing with
        // only 2 ps service: packets 0..=12 drain the backlog, then starts
        // track arrivals.
        let arr = vec![seg(0, 0, 10)];
        let out = serve_curve(100, 2, &arr, 1000);
        assert_eq!(out, [seg(0, 100, 2), seg(13, 130, 10)]);
        assert_eq!(eval(&out, 999), eval(&arr, 999));
    }

    #[test]
    fn crossing_respects_later_segments() {
        // Arrival curve flat then steep; crossing falls in the steep tail.
        let arr = vec![seg(0, 0, 0), seg(10, 0, 20)];
        let out = serve_curve(5, 3, &arr, 40);
        let brute = brute_serve(5, 3, &arr, 40);
        for (k, want) in brute.iter().enumerate() {
            assert_eq!(eval(&out, k as u64), *want, "k={k}");
        }
        assert!(out[1].k0 > 10, "cross={}", out[1].k0);
    }

    #[test]
    fn serve_curve_handles_nonconvex_steps() {
        // A post-split shape: arrivals ramp, jump upward (the interloper's
        // service gap), then ramp again — non-convex, with the queue
        // emptying and refilling across the step.
        let arr = vec![seg(0, 0, 4), seg(5, 100, 4), seg(9, 130, 1)];
        let out = serve_curve(10, 3, &arr, 14);
        let brute = brute_serve(10, 3, &arr, 14);
        for (k, want) in brute.iter().enumerate() {
            assert_eq!(eval(&out, k as u64), *want, "k={k}");
        }
    }

    #[test]
    fn serve_curve_matches_bruteforce_on_random_monotone_curves() {
        let mut rng = Rng::new(0x5eed);
        for case in 0..400 {
            // Random monotone non-decreasing arrival curve with upward
            // jumps at segment boundaries.
            let nsegs = rng.range_usize(1, 5);
            let pcount = rng.range_u64(1, 60);
            let mut arr = Vec::new();
            let mut k0 = 0u64;
            let mut t = rng.range_u64(0, 50_000);
            for i in 0..nsegs {
                let slope = rng.range_u64(0, 8_000);
                arr.push(seg(k0, t, slope));
                let span = rng.range_u64(1, 20);
                t = eval(&arr, k0 + span - 1) + rng.range_u64(0, 30_000);
                k0 += span;
                if i + 1 < nsegs && k0 >= pcount {
                    break;
                }
            }
            let s = rng.range_u64(100, 6_000);
            let st0 = eval(&arr, 0) + rng.range_u64(0, 40_000);
            let out = serve_curve(st0, s, &arr, pcount);
            let brute = brute_serve(st0, s, &arr, pcount);
            for (k, want) in brute.iter().enumerate() {
                assert_eq!(
                    eval(&out, k as u64),
                    *want,
                    "case {case}, k={k} (arr={arr:?}, s={s}, st0={st0})"
                );
            }
        }
    }

    #[test]
    fn slice_curve_reindexes_the_tail() {
        let arr = vec![seg(0, 0, 2), seg(6, 20, 5), seg(10, 50, 1)];
        let tail = slice_curve(&arr, 8, 14);
        assert_eq!(tail[0].k0, 0);
        for k in 8..14u64 {
            assert_eq!(eval(&tail, k - 8), eval(&arr, k), "k={k}");
        }
        // Slicing exactly at a segment boundary keeps it minimal.
        let at_boundary = slice_curve(&arr, 6, 14);
        assert_eq!(at_boundary.len(), 2);
        assert_eq!(at_boundary[0].t, 20);
    }
}
