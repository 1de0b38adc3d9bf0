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
//! O(messages × hops).
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
//! The per-packet engine serves each link FIFO in event `(arrival, seq)`
//! order. A train's packet events at a link span the window
//! `[arrival[0], arrival[P-1]]`. Contention is arbitrated at link
//! granularity, in three tiers:
//!
//! 1. **Exact flat ties at injection.** Collective schedules routinely
//!    inject several trains onto one link at the *bit-identical* instant
//!    (same ready time or same dependency completion). Both engines then
//!    serve the trains back-to-back in injection (`seq`) order, which the
//!    fast path reproduces by appending the tying train behind the committed
//!    window. This only holds when injection order itself is provable:
//!    dependents released by deliveries that are within the equivalence
//!    tolerance of each other are *tainted* (the engines may disagree on
//!    their relative order) and may not claim a tie.
//! 2. **FIFO train splitting.** When a flat train's head lands strictly
//!    inside another train's *sloped* committed window — cleanly between two
//!    of its packet arrivals — the per-packet FIFO order is still provable:
//!    the owner's first `split_index` packets, then the whole interloper,
//!    then the owner's tail. The fast path re-serves the owner's tail behind
//!    the interloper, amends the owner's downstream curve (or re-arms its
//!    delivery), and emits a [`TraceEvent::TrainSplit`].
//! 3. **Decline.** Everything else — near-ties inside the equivalence
//!    tolerance, ≥2 interlopers in one window, heads landing within the
//!    tolerance of a packet arrival — returns [`Attempt::Contended`], and
//!    the caller runs the whole DAG through the per-packet engine instead
//!    (see [`PacketSim`](crate::PacketSim)). Transient link flaps are also
//!    left to the per-packet engine (each packet must individually re-check
//!    the outage windows).
//!
//! # Scratch-backed runs
//!
//! [`run`] simulates the whole message DAG entirely out of a caller-owned
//! [`WorkScratch`]. All per-message state lives in one structure-of-runs
//! array indexed by message id, start curves are committed into a
//! structure-of-arrays [`CurveStore`] arena, the two-level event queue
//! reuses its buckets, and completions/busy time are written into
//! caller-provided slices. After the scratch warms up (one run at each size
//! high-water mark), steady-state runs perform **zero heap allocations** —
//! asserted by `sim/tests/zero_alloc.rs` through the counting allocator in
//! `meshcoll_util::alloc`.

use meshcoll_topo::{LinkId, Mesh};

use crate::audit::DEFAULT_TOLERANCE_NS;
use crate::packet_sim::{last_packet_bytes, RunSetup};
use crate::trace::{TraceEvent, TraceSink};
use crate::{Message, NocConfig, NocError};

/// Ambiguity margin, matched to the equivalence/audit tolerance: two event
/// times closer than this may be ordered differently by the two engines
/// (floating-point reassociation), so the fast path refuses to arbitrate.
const EPS: f64 = DEFAULT_TOLERANCE_NS;

/// Outcome of one fast-path attempt, with results written into the
/// caller's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attempt {
    /// The run completed; completions/busy time were written.
    Done,
    /// FIFO order unprovable somewhere in the DAG; the caller must re-run
    /// it through the per-packet engine.
    Contended,
}

/// Train-level event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// The head packet of `msg` arrives at hop `hop` of its route.
    Arrive,
    /// The last packet of `msg` reaches its destination (generation `gen`;
    /// superseded deliveries are lazily dropped).
    Deliver,
}

/// Monotone order-preserving bit image of an event time: for any two
/// non-NaN `f64`s, `tkey(a) < tkey(b)` iff `a.total_cmp(&b)` is `Less`.
/// Pre-computing it once per event turns every queue comparison (sorts,
/// overflow scans, two-source pops) into a plain integer compare instead of
/// a sign-magnitude `total_cmp` dance.
#[inline]
fn tkey(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// One train-level event. Ordering is `(key, seq)` — `key` is the event
/// time's [`tkey`] image and `seq` is unique. Kept to 24 bytes (`hop` as
/// `u16`, `seq` as `u32`) so queue traffic stays cheap — the congested
/// sweeps move hundreds of thousands of these. `msg` is the message id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    key: u64,
    seq: u32,
    msg: u32,
    gen: u32,
    hop: u16,
    kind: Kind,
}

impl Event {
    /// The event time in ns (inverts [`tkey`]).
    #[inline]
    fn at(self) -> f64 {
        let k = self.key;
        f64::from_bits(k ^ ((((!k) as i64 >> 63) as u64) | 0x8000_0000_0000_0000))
    }
}

/// Two-level event queue tuned for wave-synchronous collective schedules.
///
/// The paper's congested schedules release trains in large same-instant
/// waves, so a flat binary heap spends most of its time sifting through
/// tens of thousands of far-future events. This queue buckets events by
/// coarse time (O(1) push). The bucket being drained is sorted **once**
/// into `active` and consumed by index — one contiguous `sort_unstable`
/// per wave costs far less than per-event heap sifts on a wave-sized heap.
/// Events pushed while a bucket drains (cut-through next-hop arrivals land
/// a fraction of a bucket later) go to the small `overflow` heap, and
/// `pop`/`peek` take the minimum of the two sources, so ordering is exact:
/// `bucket(t1) < bucket(t2)` implies `t1 < t2`, same-bucket order is
/// restored by the sort, and the overflow merge handles intra-bucket
/// arrivals. Events past the estimated horizon clamp into the last bucket,
/// degrading gracefully to sorted-array behaviour.
///
/// The queue is reusable: [`EventQueue::reset`] re-arms it for a new run
/// without deallocating. `buckets` only ever grows; `nbuckets` is the
/// logical prefix in use for the current run, so shrinking runs never
/// release (and re-acquire) the inner bucket vectors.
#[derive(Debug, Default)]
struct EventQueue {
    inv_width: f64,
    buckets: Vec<Vec<Event>>,
    /// Logical bucket count for the current run (`<= buckets.len()`).
    nbuckets: usize,
    /// Drain floor: one past the bucket currently draining. Pushes into
    /// buckets strictly before it go to `overflow`; event times never
    /// precede the current drain time, so nothing is ever lost behind the
    /// drain point. Starts at 0 so the initial injection wave parks in
    /// buckets and gets batch-sorted instead of trickling through the
    /// overflow one insert at a time. Kept tight (`cur + 1`, not advanced
    /// over empty buckets) so in-flight events a few buckets out still
    /// park in O(1) instead of paying a sorted-overflow insert.
    floor: usize,
    /// Refill's empty-bucket scan cursor: buckets in `floor..hint` were
    /// empty when last inspected, and any later push into that range pulls
    /// `hint` back down, so each refill resumes scanning from `hint`
    /// instead of re-walking the same empty run.
    hint: usize,
    /// The current bucket's events, sorted ascending; `head` indexes the
    /// next unconsumed one.
    active: Vec<Event>,
    head: usize,
    /// Events pushed into the current (or an earlier) bucket mid-drain,
    /// sorted ascending so the minimum pops from the front in O(1). It
    /// stays small (tens of events — one bucket's cascade), and nearly
    /// every push is either a same-instant cascade (the new minimum →
    /// `push_front`) or a fresh delivery beyond everything pending (the new
    /// maximum → `push_back`), so the ring buffer absorbs both ends in O(1)
    /// and the interior binary-search insert is rare.
    overflow: std::collections::VecDeque<Event>,
    /// Events parked in buckets at or after `next`.
    parked: usize,
}

impl EventQueue {
    /// Re-arms the queue for a new run of `expected_events` over
    /// `horizon_ns`, sweeping any events left by a `Contended` abort.
    fn reset(&mut self, horizon_ns: f64, expected_events: usize) {
        if self.parked > 0 {
            for b in &mut self.buckets[..self.nbuckets] {
                b.clear();
            }
            self.parked = 0;
        }
        self.active.clear();
        self.head = 0;
        self.overflow.clear();
        self.floor = 0;
        self.hint = 0;
        // Aim for a handful of events per bucket; the clamp bounds memory
        // for degenerate inputs.
        let nbuckets = (expected_events / 4).clamp(16, 1 << 19);
        if nbuckets > self.buckets.len() {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
        self.nbuckets = nbuckets;
        let width = (horizon_ns / nbuckets as f64).max(1e-3);
        self.inv_width = 1.0 / width;
    }

    #[inline]
    fn bucket_of(&self, at: f64) -> usize {
        // The `as` cast saturates: negative times clamp to bucket 0.
        ((at * self.inv_width) as usize).min(self.nbuckets - 1)
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let b = self.bucket_of(ev.at());
        if b < self.floor {
            match self.overflow.front() {
                Some(front) if ev < *front => self.overflow.push_front(ev),
                None => self.overflow.push_front(ev),
                _ => {
                    if *self.overflow.back().expect("front exists") < ev {
                        self.overflow.push_back(ev);
                    } else {
                        // Interior landings sit a few slots from the front
                        // (behind the same-instant events draining now), so
                        // a forward scan beats a binary search's scattered
                        // probes through the ring buffer.
                        let pos = self
                            .overflow
                            .iter()
                            .position(|x| ev < *x)
                            .expect("back is greater");
                        self.overflow.insert(pos, ev);
                    }
                }
            }
        } else {
            self.hint = self.hint.min(b);
            self.buckets[b].push(ev);
            self.parked += 1;
        }
    }

    /// Advances to the next non-empty bucket and sorts it into `active`.
    /// Only sound when both `active` and `overflow` are exhausted — every
    /// remaining event then lives in a bucket at or after `floor`.
    fn refill(&mut self) {
        debug_assert!(self.head == self.active.len() && self.overflow.is_empty());
        if self.parked == 0 {
            return;
        }
        let mut cur = self.hint.max(self.floor);
        while self.buckets[cur].is_empty() {
            cur += 1;
        }
        self.floor = cur + 1;
        self.hint = cur + 1;
        self.parked -= self.buckets[cur].len();
        self.active.clear();
        self.head = 0;
        self.active.append(&mut self.buckets[cur]);
        self.active.sort_unstable();
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        loop {
            match (self.active.get(self.head), self.overflow.front()) {
                (Some(&a), Some(&o)) => {
                    if a <= o {
                        self.head += 1;
                        return Some(a);
                    }
                    self.overflow.pop_front();
                    return Some(o);
                }
                (Some(&a), None) => {
                    self.head += 1;
                    return Some(a);
                }
                (None, Some(&o)) => {
                    self.overflow.pop_front();
                    return Some(o);
                }
                (None, None) => {
                    if self.parked == 0 {
                        return None;
                    }
                    self.refill();
                }
            }
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<Event> {
        loop {
            match (self.active.get(self.head), self.overflow.front()) {
                (Some(&a), Some(&o)) => return Some(if a <= o { a } else { o }),
                (Some(&a), None) => return Some(a),
                (None, Some(&o)) => return Some(o),
                (None, None) => {
                    if self.parked == 0 {
                        return None;
                    }
                    self.refill();
                }
            }
        }
    }
}

/// One linear piece of a per-hop curve: packets `k0..` start (or arrive) at
/// `t + (k - k0) · slope` until the next segment's `k0`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    k0: u64,
    t: f64,
    slope: f64,
}

/// Evaluates a piecewise-linear curve at packet index `k`. Committed curves
/// are overwhelmingly single-segment (uncontended trains), so that case
/// skips the binary search.
#[inline]
fn eval(curve: &[Seg], k: u64) -> f64 {
    let seg = if curve.len() == 1 {
        &curve[0]
    } else {
        &curve[curve.partition_point(|s| s.k0 <= k) - 1]
    };
    seg.t + (k - seg.k0) as f64 * seg.slope
}

/// Appends `seg`, merging when it is a bit-exact continuation of the last
/// segment (same slope, collinear) so curves stay minimal.
fn push_seg(out: &mut Vec<Seg>, seg: Seg) {
    if let Some(last) = out.last() {
        if last.slope == seg.slope && last.t + (seg.k0 - last.k0) as f64 * last.slope == seg.t {
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
    fn eval_at(self, k: u64) -> f64 {
        let sg = if self.nsegs() == 1 {
            self.seg_at(0)
        } else {
            self.seg_at(self.search(k))
        };
        sg.t + (k - sg.k0) as f64 * sg.slope
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
    t: Vec<f64>,
    slope: Vec<f64>,
}

impl CurveStore {
    fn clear(&mut self) {
        self.k0.clear();
        self.t.clear();
        self.slope.clear();
    }

    /// Commits `segs` verbatim and returns its extent.
    fn commit(&mut self, segs: &[Seg]) -> CurveRef {
        let off = self.k0.len() as u32;
        for sg in segs {
            self.k0.push(sg.k0);
            self.t.push(sg.t);
            self.slope.push(sg.slope);
        }
        CurveRef {
            off,
            len: segs.len() as u32,
        }
    }

    /// Commits `segs` with every segment's time shifted by `dt` (the
    /// cut-through hop latency), preserving the exact per-segment arithmetic
    /// of shifting start curves into next-hop arrival curves.
    fn commit_shifted(&mut self, segs: &[Seg], dt: f64) -> CurveRef {
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
    t: &'a [f64],
    slope: &'a [f64],
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
fn serve_curve_into<C: CurveLike>(st0: f64, s: f64, arr: C, pcount: u64, out: &mut Vec<Seg>) {
    debug_assert!(st0 >= arr.eval_at(0));
    out.clear();
    let mut k: u64 = 0;
    let mut prev: f64 = 0.0; // start of packet k-1 (meaningful once k > 0)
    while k < pcount {
        let i = arr.search(k);
        let seg = arr.seg_at(i);
        let end = if i + 1 < arr.nsegs() {
            arr.seg_at(i + 1).k0.min(pcount) // exclusive
        } else {
            pcount
        };
        let m = seg.slope;
        let a_k = seg.t + (k - seg.k0) as f64 * m;
        let q0 = if k == 0 { st0 } else { (prev + s).max(a_k) };
        let a_end = seg.t + (end - 1 - seg.k0) as f64 * m;
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
            let line = |kk: u64| q0 + (kk - k) as f64 * s;
            if m > s && a_end > line(end - 1) {
                // The backlog drains inside this segment: find the first
                // packet whose arrival overtakes the burst line.
                let (mut lo, mut hi) = (k, end - 1);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    let a_mid = seg.t + (mid - seg.k0) as f64 * m;
                    if a_mid > line(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                push_seg(
                    out,
                    Seg {
                        k0: k,
                        t: q0,
                        slope: s,
                    },
                );
                prev = line(hi - 1);
                k = hi;
            } else {
                // Queued through the whole segment.
                push_seg(
                    out,
                    Seg {
                        k0: k,
                        t: q0,
                        slope: s,
                    },
                );
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

/// Per-link occupancy bookkeeping for the train engine.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// When the link can next begin serving a packet.
    free: f64,
    /// Latest committed packet-arrival time on this link.
    last_event: f64,
    /// Whether any train has been committed to this link yet (this run).
    used: bool,
    /// The committed window is a flat hop-0 injection whose injection order
    /// is provable, so a bit-identical flat hop-0 arrival may append.
    tie_head: bool,
    /// The committed window has already absorbed one split; a second
    /// interloper cannot be ordered.
    split: bool,
    /// Owner of the committed window (meaningful when `owner_arr` is
    /// non-empty, i.e. the window is sloped and splittable).
    owner: u32,
    /// The owner's hop index on this link.
    owner_hop: u16,
    /// The owner's arrival curve on this link (sloped windows only; cleared
    /// for flat windows, which have no strict interior to split at).
    owner_arr: Vec<Seg>,
    /// The owner's committed start curve on this link (sloped windows only).
    owner_starts: Vec<Seg>,
}

impl LinkState {
    /// Returns the link to its pristine state while keeping the curve
    /// buffers' capacity for the next run.
    fn reset(&mut self) {
        self.free = 0.0;
        self.last_event = 0.0;
        self.used = false;
        self.tie_head = false;
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
    /// Injection-eligible time: `ready_at` folded with dependency
    /// completions.
    earliest: f64,
    bytes: u64,
    pcount: u64,
    /// Pending next-hop arrival curve ([`CurveRef::EMPTY`] while at hop 0 or
    /// after delivery release).
    curve: CurveRef,
    pending_deps: u32,
    /// Delivery generation: a final-hop train split supersedes the queued
    /// Deliver by bumping this (stale events drop lazily).
    gen: u32,
    /// Which hop the pending curve (and queue event) is for.
    pending_hop: u16,
    /// Route crosses a dead link; never injected.
    blocked: bool,
    /// Injection-order provability: cleared once the injection instant came
    /// from an ambiguous (EPS-close) group of deliveries.
    tie_ok: bool,
    completed: bool,
}

/// Reusable working memory for [`run`], pooled on `PacketSim` (one per
/// concurrent run); after warmup every buffer retains its high-water
/// capacity, so steady-state runs allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct WorkScratch {
    /// Reciprocal bandwidth per link id: serialization times multiply
    /// instead of divide on the per-event path (tens of cycles saved per
    /// event; any sub-EPS reordering this could cause declines through the
    /// EPS checks, so equivalence is unaffected).
    inv_bw: Vec<f64>,
    msgs: Vec<MsgState>,
    /// Dependents in CSR layout (offsets + one flat slab of message ids).
    dep_off: Vec<u32>,
    dep_flat: Vec<u32>,
    dep_cursor: Vec<u32>,
    links: Vec<LinkState>,
    /// Links committed to during the current run, reset lazily at the start
    /// of the next one (covers `Contended` aborts without a scan).
    touched: Vec<u32>,
    /// Horizon estimation accumulator; zeroed again before the loop starts
    /// (fold-and-zero) so the buffer is all-zero between runs.
    busy_est: Vec<f64>,
    curves: CurveStore,
    queue: EventQueue,
    /// EPS-close delivery group `(message id, completion)` scratch.
    group: Vec<(u32, f64)>,
    stash: Vec<Event>,
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
        }
        self.touched.clear();
        if self.links.len() < link_space {
            self.links.resize_with(link_space, LinkState::default);
        }
        if self.busy_est.len() < link_space {
            self.busy_est.resize(link_space, 0.0);
        }
        self.curves.clear();
    }

    /// Bytes currently retained across runs (capacity high-water marks), for
    /// the O(messages) memory smoke test in `fig9_scalability`.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let seg = size_of::<Seg>();
        self.inv_bw.capacity() * size_of::<f64>()
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
            + self.busy_est.capacity() * size_of::<f64>()
            + self.curves.k0.capacity() * size_of::<u64>()
            + (self.curves.t.capacity() + self.curves.slope.capacity()) * size_of::<f64>()
            + self.queue.buckets.capacity() * size_of::<Vec<Event>>()
            + self
                .queue
                .buckets
                .iter()
                .map(|b| b.capacity() * size_of::<Event>())
                .sum::<usize>()
            + (self.queue.active.capacity() + self.queue.overflow.capacity()) * size_of::<Event>()
            + self.group.capacity() * size_of::<(u32, f64)>()
            + self.stash.capacity() * size_of::<Event>()
            + (self.starts.capacity()
                + self.split_arr.capacity()
                + self.split_starts.capacity()
                + self.tail_arr.capacity()
                + self.tail_starts.capacity()
                + self.amended.capacity())
                * seg
    }
}

/// Emits the inject trace event and queues the hop-0 arrival. Every packet
/// of the train is eligible at the injection instant, so the hop-0 arrival
/// curve is the constant `at` — it stays implicit (the Arrive handler
/// synthesizes it from the event time) to keep injection allocation-free.
#[inline]
fn inject_event<T: TraceSink>(
    queue: &mut EventQueue,
    seq: &mut u32,
    sink: &mut T,
    msg: &Message,
    local: u32,
    pcount: u64,
    at: f64,
) {
    if T::ENABLED {
        sink.record(TraceEvent::Inject {
            msg: msg.id,
            src: msg.src,
            dst: msg.dst,
            bytes: msg.bytes,
            packets: pcount,
            at_ns: at,
        });
    }
    *seq += 1;
    queue.push(Event {
        key: tkey(at),
        seq: *seq,
        kind: Kind::Arrive,
        msg: local,
        hop: 0,
        gen: 0,
    });
}

/// Runs the whole message DAG at train granularity, entirely out of `ws`.
///
/// `completion` (one entry per message) and `busy` (one per link id) are
/// the caller's output slices; busy time is *added*. The fault model must
/// have no transient flaps (the caller checks). On an
/// [`Attempt::Contended`] return both slices and `sink` hold a partial
/// run, so callers wanting clean traces buffer into a temporary sink first.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn run<T: TraceSink>(
    cfg: &NocConfig,
    mesh: &Mesh,
    messages: &[Message],
    setup: &RunSetup,
    ws: &mut WorkScratch,
    completion: &mut [f64],
    busy: &mut [f64],
    sink: &mut T,
) -> Result<Attempt, NocError> {
    debug_assert!(cfg.faults.flaps().is_empty());
    let n = messages.len();
    ws.begin_run(mesh.link_id_space());
    let WorkScratch {
        inv_bw,
        msgs,
        dep_off,
        dep_flat,
        dep_cursor,
        links,
        touched,
        busy_est,
        curves,
        queue,
        group,
        stash,
        starts,
        split_arr,
        split_starts,
        tail_arr,
        tail_starts,
        amended,
    } = ws;

    // Pass A: per-message state, fused with the horizon estimate's per-link
    // service accumulation and the dependent-count pass — the congested
    // schedules carry ~10^5 messages, so every extra full sweep over the
    // routes costs real milliseconds. The u16 route-length guard must
    // restore `busy_est` to all-zero before aborting (`begin_run` relies on
    // the invariant instead of re-zeroing the buffer each run).
    inv_bw.clear();
    inv_bw.extend((0..mesh.link_id_space()).map(|i| 1.0 / cfg.bandwidth_of(LinkId(i))));
    msgs.clear();
    msgs.reserve(n);
    dep_off.clear();
    dep_off.resize(n + 1, 0);
    let mut max_ready: f64 = 0.0;
    let mut expected_events = n;
    let (mut memo_bytes, mut memo_pcount) = (0u64, 0u64);
    for (i, m) in messages.iter().enumerate() {
        let r = setup.route(i);
        if r.len() >= usize::from(u16::MAX) {
            // Event hop indices are u16; no physical mesh route gets close.
            for b in busy_est.iter_mut() {
                *b = 0.0;
            }
            return Ok(Attempt::Contended);
        }
        max_ready = max_ready.max(m.ready_at_ns);
        expected_events += r.len() + 1;
        // Wave-synchronous schedules repeat a handful of message sizes, so
        // one memoized division covers almost every packetization.
        let pcount = if m.bytes == memo_bytes {
            memo_pcount
        } else {
            memo_bytes = m.bytes;
            memo_pcount = cfg.packets_for(m.bytes);
            memo_pcount
        };
        for &lk in r {
            let s = cfg.packet_bytes as f64 * inv_bw[lk.index()] + cfg.per_packet_overhead_ns;
            busy_est[lk.index()] += pcount as f64 * s;
        }
        for d in &m.deps {
            dep_off[d.index() + 1] += 1;
        }
        msgs.push(MsgState {
            earliest: m.ready_at_ns,
            bytes: m.bytes,
            pcount,
            curve: CurveRef::EMPTY,
            pending_deps: m.deps.len() as u32,
            gen: 0,
            pending_hop: 0,
            blocked: setup.blocked[i],
            tie_ok: true,
            completed: false,
        });
    }

    // Size the event queue from an arrival-agnostic horizon estimate (the
    // busiest link's total service time), folding-and-zeroing in one sweep
    // over the link space so `busy_est` returns to all-zero for the next
    // run. Underestimates only crowd the last bucket; order is unaffected
    // either way.
    let mut max_busy = 0.0f64;
    for b in busy_est.iter_mut() {
        max_busy = max_busy.max(*b);
        *b = 0.0;
    }
    let horizon = 2.0 * (max_ready + max_busy) + 1.0;
    queue.reset(horizon, expected_events);

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

    let mut seq: u32 = 0;
    let mut injected = 0usize;
    let mut stalled = 0usize;
    let mut delivered = 0usize;
    let mut last_progress: f64 = 0.0;

    for (l, st) in msgs.iter().enumerate() {
        for d in &messages[l].deps {
            let c = &mut dep_cursor[d.index()];
            dep_flat[*c as usize] = l as u32;
            *c += 1;
        }
        if st.pending_deps == 0 {
            if st.blocked {
                stalled += 1;
            } else {
                inject_event(
                    queue,
                    &mut seq,
                    sink,
                    &messages[l],
                    l as u32,
                    st.pcount,
                    st.earliest,
                );
            }
            injected += 1;
        }
    }

    let hop_lat = cfg.per_flit_latency_ns;
    let ovh = cfg.per_packet_overhead_ns;
    while let Some(ev) = queue.pop() {
        let mi = ev.msg as usize;
        let ev_at = ev.at();
        if ev.kind == Kind::Deliver {
            if ev.gen != msgs[mi].gen {
                continue; // superseded by a final-hop split
            }
            // Deliveries within EPS of each other process as one group: the
            // engines may disagree on their relative order, so dependents
            // they release are tainted and may not claim exact-tie windows.
            group.clear();
            group.push((ev.msg, ev_at));
            let mut window_end = ev_at + EPS;
            while let Some(top) = queue.peek() {
                if top.at() > window_end {
                    break;
                }
                let e = queue.pop().expect("peeked");
                match e.kind {
                    Kind::Deliver if e.gen == msgs[e.msg as usize].gen => {
                        let e_at = e.at();
                        window_end = window_end.max(e_at + EPS);
                        group.push((e.msg, e_at));
                    }
                    Kind::Deliver => {} // stale: drop
                    Kind::Arrive => stash.push(e),
                }
            }
            for e in stash.drain(..) {
                queue.push(e);
            }
            let taint = group.len() > 1;
            for &(gl, done) in group.iter() {
                let gl = gl as usize;
                msgs[gl].completed = true;
                completion[gl] = done;
                delivered += 1;
                last_progress = last_progress.max(done);
                if T::ENABLED {
                    let gm = &messages[gl];
                    sink.record(TraceEvent::Deliver {
                        msg: gm.id,
                        bytes: gm.bytes,
                        at_ns: done,
                    });
                }
                for &dep in &dep_flat[dep_off[gl] as usize..dep_off[gl + 1] as usize] {
                    let dl = dep as usize;
                    msgs[dl].earliest = msgs[dl].earliest.max(done);
                    msgs[dl].pending_deps -= 1;
                    if msgs[dl].pending_deps == 0 {
                        if taint {
                            msgs[dl].tie_ok = false;
                        }
                        if msgs[dl].blocked {
                            stalled += 1;
                        } else {
                            inject_event(
                                queue,
                                &mut seq,
                                sink,
                                &messages[dl],
                                dl as u32,
                                msgs[dl].pcount,
                                msgs[dl].earliest,
                            );
                        }
                        injected += 1;
                    }
                }
            }
            continue;
        }

        // Kind::Arrive: the train's head reaches hop `ev.hop`.
        let route = setup.route(mi);
        let j = ev.hop as usize;
        let link = route[j];
        let li = link.index();
        let total = msgs[mi].bytes;
        let pcount = msgs[mi].pcount;
        // Hop-0 curves are implicitly the constant injection instant (never
        // materialized); deeper hops read the stored curve. Bit-exact
        // equality is deliberate: a tie is only provable when both engines
        // compute the identical instant.
        let a_last = if ev.hop == 0 {
            ev_at
        } else {
            curves.view(msgs[mi].curve).eval_at(pcount - 1)
        };
        let flat_instant = a_last == ev_at;

        let full_bytes = if pcount > 1 { cfg.packet_bytes } else { total };
        let last_bytes = last_packet_bytes(cfg, total, pcount);
        let ser_full = full_bytes as f64 * inv_bw[li];
        let ser_last = last_bytes as f64 * inv_bw[li];
        let s = ser_full + ovh;

        let mut tie_append = false;
        if links[li].used && ev_at <= links[li].last_event {
            tie_append = ev_at == links[li].last_event
                && ev.hop == 0
                && flat_instant
                && links[li].tie_head
                && msgs[mi].tie_ok;
            if !tie_append {
                // --- FIFO train split: serve this flat train between two of
                // the owner's packet arrivals, re-serving the owner's tail
                // behind it. Every unprovable shape declines. ---
                if links[li].split || !flat_instant || links[li].owner_arr.is_empty() {
                    return Ok(Attempt::Contended);
                }
                let am = links[li].owner as usize;
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
                    return Ok(Attempt::Contended);
                }
                let t = ev_at;
                let a0 = eval(&links[li].owner_arr, 0);
                if t <= a0 + EPS || t >= links[li].last_event - EPS {
                    return Ok(Attempt::Contended);
                }
                let a_total = msgs[am].bytes;
                let a_pcount = msgs[am].pcount;
                // Smallest owner packet index arriving strictly after `t`.
                let (mut lo, mut hi) = (0u64, a_pcount - 1);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if eval(&links[li].owner_arr, mid) > t {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                let k_a = hi;
                // The head must land cleanly between two arrivals, else the
                // per-packet FIFO order at the boundary is ambiguous.
                if eval(&links[li].owner_arr, k_a) <= t + EPS
                    || eval(&links[li].owner_arr, k_a - 1) >= t - EPS
                {
                    return Ok(Attempt::Contended);
                }

                // Copy the owner's window into scratch (instead of moving
                // the LinkState out) so the link's curve buffers keep their
                // capacity for later runs.
                split_arr.clear();
                split_arr.extend_from_slice(&links[li].owner_arr);
                split_starts.clear();
                split_starts.extend_from_slice(&links[li].owner_starts);
                let owner_last_event = links[li].last_event;
                let a_last_bytes = last_packet_bytes(cfg, a_total, a_pcount);
                let a_ser_full = cfg.packet_bytes as f64 * inv_bw[li];
                let a_ser_last = a_last_bytes as f64 * inv_bw[li];
                let a_s = a_ser_full + ovh;

                // The interloper's head queues behind owner packet k_a - 1
                // (always a full packet, since k_a < a_pcount).
                let free_head = eval(split_starts, k_a - 1) + a_s;
                let st0_b = t.max(free_head);
                let b_slope = if pcount > 1 { s } else { 0.0 };
                let b_last_start = st0_b + (pcount - 1) as f64 * b_slope;
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
                        slope: 0.0,
                    });
                } else {
                    serve_curve_into(st0_tail, a_s, tail_arr.as_slice(), tail_len, tail_starts);
                }
                let a_new_last = eval(tail_starts, tail_len - 1);
                let free_final = a_new_last + a_ser_last + ovh;

                if a_final {
                    // Supersede the owner's queued delivery.
                    msgs[am].gen += 1;
                    seq += 1;
                    queue.push(Event {
                        key: tkey(a_new_last + a_ser_last + hop_lat),
                        seq,
                        kind: Kind::Deliver,
                        msg: am as u32,
                        hop: a_hop,
                        gen: msgs[am].gen,
                    });
                } else {
                    // Amend the owner's pending next-hop arrival curve. Its
                    // head start is unchanged (k_a ≥ 1), so the queued heap
                    // event's time stays valid.
                    amended.clear();
                    for sg in split_starts.iter().filter(|sg| sg.k0 < k_a) {
                        push_seg(
                            amended,
                            Seg {
                                t: sg.t + hop_lat,
                                ..*sg
                            },
                        );
                    }
                    for sg in tail_starts.iter() {
                        push_seg(
                            amended,
                            Seg {
                                k0: sg.k0 + k_a,
                                t: sg.t + hop_lat,
                                slope: sg.slope,
                            },
                        );
                    }
                    msgs[am].curve = curves.commit(amended);
                }

                // The owner's per-link busy time is order-independent and
                // was accounted at its commit; only the interloper adds.
                busy[li] += (pcount - 1) as f64 * s + ser_last + ovh;
                if T::ENABLED {
                    sink.record(TraceEvent::TrainSplit {
                        msg: messages[am].id,
                        hop: u32::from(a_hop),
                        link,
                        split_index: k_a,
                        first_start_ns: eval(split_starts, 0),
                        last_start_ns: a_new_last,
                    });
                    sink.record(TraceEvent::TrainHop {
                        msg: messages[mi].id,
                        hop: u32::from(ev.hop),
                        link,
                        packets: pcount,
                        arrive_ns: t,
                        first_start_ns: st0_b,
                        last_start_ns: b_last_start,
                    });
                }
                {
                    let stl = &mut links[li];
                    stl.free = free_final;
                    stl.last_event = owner_last_event;
                    stl.used = true;
                    stl.tie_head = false;
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
                    seq += 1;
                    queue.push(Event {
                        key: tkey(st0_b + hop_lat),
                        seq,
                        kind: Kind::Arrive,
                        msg: ev.msg,
                        hop: ev.hop + 1,
                        gen: 0,
                    });
                } else {
                    msgs[mi].curve = CurveRef::EMPTY;
                    seq += 1;
                    queue.push(Event {
                        key: tkey(b_last_start + ser_last + hop_lat),
                        seq,
                        kind: Kind::Deliver,
                        msg: ev.msg,
                        hop: ev.hop,
                        gen: msgs[mi].gen,
                    });
                }
                continue;
            }
        } else if links[li].used && ev_at - links[li].last_event <= EPS {
            // Near-tie just past the window: the engines may disagree on
            // which head goes first.
            return Ok(Attempt::Contended);
        }

        // Serial commit: the train owns the link after everything already
        // committed (tie appends land here too — `free` points behind the
        // tying window, which is exactly the per-packet FIFO order).
        let st0 = ev_at.max(links[li].free);
        starts.clear();
        if pcount == 1 {
            starts.push(Seg {
                k0: 0,
                t: st0,
                slope: 0.0,
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
                    slope: if m > s { m } else { s },
                });
            } else {
                serve_curve_into(st0, s, arr, pcount, starts);
            }
        }
        let start_last = eval(starts, pcount - 1);

        busy[li] += (pcount - 1) as f64 * s + ser_last + ovh;
        if T::ENABLED {
            sink.record(TraceEvent::TrainHop {
                msg: messages[mi].id,
                hop: u32::from(ev.hop),
                link,
                packets: pcount,
                arrive_ns: ev_at,
                first_start_ns: st0,
                last_start_ns: start_last,
            });
        }

        {
            let stl = &mut links[li];
            if !stl.used {
                touched.push(li as u32);
            }
            stl.free = start_last + ser_last + ovh;
            stl.used = true;
            if !tie_append {
                stl.last_event = a_last;
                stl.tie_head = ev.hop == 0 && flat_instant && msgs[mi].tie_ok;
                stl.split = false;
                if flat_instant {
                    // Flat windows have no strict interior to split at.
                    stl.owner_arr.clear();
                    stl.owner_starts.clear();
                } else {
                    stl.owner = ev.msg;
                    stl.owner_hop = ev.hop;
                    stl.owner_arr.clear();
                    let v = curves.view(msgs[mi].curve);
                    for i in 0..v.nsegs() {
                        stl.owner_arr.push(v.seg_at(i));
                    }
                    stl.owner_starts.clear();
                    stl.owner_starts.extend_from_slice(starts);
                }
            }
            // On a tie append the window instant, tie_head, and cleared
            // owner fields all carry over unchanged.
        }

        if j + 1 < route.len() {
            // Cut-through: each packet's header reaches the next router one
            // per-flit latency after it wins this link.
            let next_at = st0 + hop_lat;
            msgs[mi].curve = curves.commit_shifted(starts, hop_lat);
            msgs[mi].pending_hop = ev.hop + 1;
            seq += 1;
            queue.push(Event {
                key: tkey(next_at),
                seq,
                kind: Kind::Arrive,
                msg: ev.msg,
                hop: ev.hop + 1,
                gen: 0,
            });
        } else {
            // Final hop: the train's last packet is delivered after its full
            // serialization plus the hop latency. Delivery (and dependent
            // release) goes through the heap so it happens in global time
            // order — matching the per-packet engine's injection order.
            // Release the curve so the split amendability probe can't
            // mistake the stale state for a pending next-hop curve.
            msgs[mi].curve = CurveRef::EMPTY;
            let done = start_last + ser_last + hop_lat;
            seq += 1;
            queue.push(Event {
                key: tkey(done),
                seq,
                kind: Kind::Deliver,
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
                .find(|&lk| !cfg.faults.link_usable(mesh, lk))
        });
        return Err(NocError::Stalled {
            pending_msgs: n - delivered,
            last_progress_ns: last_progress as u64,
            first_blocked_msg: culprit.map(crate::MsgId),
            first_blocked_link: culprit_link,
            stalled_at_ns: last_progress as u64,
        });
    }
    if injected < n {
        return Err(NocError::DependencyCycle {
            stuck: n - injected,
        });
    }
    Ok(Attempt::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_util::Rng;

    fn seg(k0: u64, t: f64, slope: f64) -> Seg {
        Seg { k0, t, slope }
    }

    fn serve_curve(st0: f64, s: f64, arr: &[Seg], pcount: u64) -> Vec<Seg> {
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
    fn brute_serve(st0: f64, s: f64, arr: &[Seg], pcount: u64) -> Vec<f64> {
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
        let c = vec![seg(0, 10.0, 2.0), seg(4, 18.0, 5.0)];
        assert_eq!(eval(&c, 0), 10.0);
        assert_eq!(eval(&c, 3), 16.0);
        assert_eq!(eval(&c, 4), 18.0);
        assert_eq!(eval(&c, 6), 28.0);
    }

    #[test]
    fn curve_store_views_match_slices() {
        let mut store = CurveStore::default();
        let segs = vec![seg(0, 10.0, 2.0), seg(4, 18.0, 5.0)];
        let r = store.commit(&segs);
        let shifted = store.commit_shifted(&segs, 1.5);
        let v = store.view(r);
        for k in [0, 3, 4, 6] {
            assert_eq!(v.eval_at(k), eval(&segs, k));
            assert_eq!(store.view(shifted).eval_at(k) - eval(&segs, k), 1.5);
        }
        assert!(CurveRef::EMPTY.is_empty());
        store.clear();
        assert_eq!(store.k0.len(), 0);
    }

    #[test]
    fn burst_line_dominates_slow_arrivals() {
        // Arrivals spaced 1 ns, service 5 ns: the queue line wins everywhere.
        let arr = vec![seg(0, 0.0, 1.0)];
        let out = serve_curve(0.0, 5.0, &arr, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(eval(&out, 99), 495.0);
    }

    #[test]
    fn fast_arrivals_overtake_burst_line() {
        // Head waited (st0 = 100) but arrivals stream at 10 ns spacing with
        // only 2 ns service: packets 0..=45 drain the backlog, then starts
        // track arrivals.
        let arr = vec![seg(0, 0.0, 10.0)];
        let out = serve_curve(100.0, 2.0, &arr, 1000);
        assert_eq!(out.len(), 2);
        let cross = out[1].k0;
        // Before the crossing the queue line rules, after it the arrivals.
        assert!(eval(&arr, cross) > 100.0 + cross as f64 * 2.0);
        assert!(eval(&arr, cross - 1) <= 100.0 + (cross - 1) as f64 * 2.0);
        assert_eq!(eval(&out, 999), eval(&arr, 999));
    }

    #[test]
    fn crossing_respects_later_segments() {
        // Arrival curve flat then steep; crossing falls in the steep tail.
        let arr = vec![seg(0, 0.0, 0.0), seg(10, 0.0, 20.0)];
        let out = serve_curve(5.0, 3.0, &arr, 40);
        let cross = out[1].k0;
        assert!(cross > 10, "cross={cross}");
        for k in [cross - 1, cross, cross + 1, 39] {
            let expect = (5.0 + k as f64 * 3.0).max(eval(&arr, k));
            assert!((eval(&out, k) - expect).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn serve_curve_handles_nonconvex_steps() {
        // A post-split shape: arrivals ramp, jump upward (the interloper's
        // service gap), then ramp again — non-convex, with the queue
        // emptying and refilling across the step.
        let arr = vec![seg(0, 0.0, 4.0), seg(5, 100.0, 4.0), seg(9, 130.0, 1.0)];
        let st0 = 10.0;
        let s = 3.0;
        let out = serve_curve(st0, s, &arr, 14);
        let brute = brute_serve(st0, s, &arr, 14);
        for (k, want) in brute.iter().enumerate() {
            let got = eval(&out, k as u64);
            assert!((got - want).abs() < 1e-9, "k={k}: got {got}, want {want}");
        }
    }

    #[test]
    fn serve_curve_matches_bruteforce_on_random_monotone_curves() {
        let mut rng = Rng::new(0x5eed);
        for case in 0..200 {
            // Random monotone non-decreasing arrival curve with upward
            // jumps at segment boundaries.
            let nsegs = rng.range_usize(1, 5);
            let pcount = rng.range_u64(1, 60);
            let mut arr = Vec::new();
            let mut k0 = 0u64;
            let mut t = rng.range_f64(0.0, 50.0);
            for i in 0..nsegs {
                let slope = rng.range_f64(0.0, 8.0);
                arr.push(seg(k0, t, slope));
                let span = rng.range_u64(1, 20);
                t = eval(&arr, k0 + span - 1) + rng.range_f64(0.0, 30.0);
                k0 += span;
                if i + 1 < nsegs && k0 >= pcount {
                    break;
                }
            }
            let s = rng.range_f64(0.1, 6.0);
            let st0 = eval(&arr, 0) + rng.range_f64(0.0, 40.0);
            let out = serve_curve(st0, s, &arr, pcount);
            let brute = brute_serve(st0, s, &arr, pcount);
            for (k, want) in brute.iter().enumerate() {
                let got = eval(&out, k as u64);
                assert!(
                    (got - want).abs() < 1e-9,
                    "case {case}, k={k}: got {got}, want {want} (arr={arr:?}, s={s}, st0={st0})"
                );
            }
            // Starts must be monotone with at least service spacing.
            for k in 1..pcount {
                assert!(eval(&out, k) >= eval(&out, k - 1) + s - 1e-9);
            }
        }
    }

    #[test]
    fn slice_curve_reindexes_the_tail() {
        let arr = vec![seg(0, 0.0, 2.0), seg(6, 20.0, 5.0), seg(10, 50.0, 1.0)];
        let tail = slice_curve(&arr, 8, 14);
        assert_eq!(tail[0].k0, 0);
        for k in 8..14u64 {
            assert!((eval(&tail, k - 8) - eval(&arr, k)).abs() < 1e-12, "k={k}");
        }
        // Slicing exactly at a segment boundary keeps it minimal.
        let at_boundary = slice_curve(&arr, 6, 14);
        assert_eq!(at_boundary.len(), 2);
        assert_eq!(at_boundary[0].t, 20.0);
    }

    #[test]
    fn event_queue_reset_reuses_buckets_and_sweeps_leftovers() {
        let mut q = EventQueue::default();
        q.reset(1000.0, 400);
        let mk = |at: f64, seq: u32| Event {
            key: tkey(at),
            seq,
            kind: Kind::Arrive,
            msg: 0,
            hop: 0,
            gen: 0,
        };
        for i in 0..50u32 {
            q.push(mk(f64::from(i) * 17.0, i));
        }
        // Drain half, then abandon (a Contended abort mid-run).
        for _ in 0..25 {
            q.pop().unwrap();
        }
        let cap_before = q.buckets.len();
        q.reset(100.0, 40);
        assert_eq!(q.buckets.len(), cap_before, "buckets must never shrink");
        assert!(q.pop().is_none(), "stale events must be swept");
        // And the queue still orders correctly after reuse.
        q.push(mk(30.0, 2));
        q.push(mk(10.0, 1));
        q.push(mk(95.0, 3));
        assert_eq!(q.pop().unwrap().at(), 10.0);
        assert_eq!(q.pop().unwrap().at(), 30.0);
        assert_eq!(q.pop().unwrap().at(), 95.0);
        assert!(q.pop().is_none());
    }
}
