//! The calendar event queue both packet engines run on.
//!
//! Both engines pop their events in the tie-order key of [`crate::time`],
//! `(time, class, age, message id, packet)`, and push each new event at or
//! after the instant being handled: a next-hop arrival one header latency
//! after its packet wins a link, a delivery one serialization later, an
//! injection at the instant a delivery releases it. A binary heap pays
//! O(log n) sifts per pop over every event parked in the future; this
//! queue buckets events by coarse time instead, so a push is an O(1)
//! append and each bucket is sorted once when the drain reaches it.
//!
//! # Exactness
//!
//! [`Calendar`] is an exact priority queue over any [`Timed`] total order,
//! for any sequence of pushes and pops:
//!
//! * the bucket of a time is monotone in it, so `bucket(t1) < bucket(t2)`
//!   implies `t1 < t2`, and buckets drain in index order;
//! * the bucket being drained is sorted once into `active` and consumed by
//!   index, which restores the full order within it;
//! * an event pushed into the bucket being drained, or into an earlier one,
//!   goes to the small sorted `overflow`, and a pop takes the smaller of the
//!   two fronts.
//!
//! # Horizon and re-arming
//!
//! The caller arms the queue over an estimated time span and a bucket
//! count. Events past the span clamp into the last bucket. When the drain
//! reaches that clamp bucket, the queue re-arms over the remaining time
//! span — from the earliest event left to the latest, and at least as wide
//! as before — and parks them again, instead of sorting them into one
//! array that every later push past the span would have to enter through
//! the overflow's sorted insert. A span estimate that is too short (link
//! flaps that outlast it, say) therefore costs one pass over the parked
//! events per span of simulated time, never a degraded queue.
//!
//! # Memory
//!
//! A bucket is a list of fixed-size chunks from one shared slab, and a
//! drained bucket returns its chunks to the free list, so the slab follows
//! the events parked at once, not every event of a run. The queue is
//! reusable: [`Calendar::reset`] re-arms it for a new run without
//! deallocating; `buckets` and the slab only ever grow, and `nbuckets` is
//! the prefix in use.

use std::collections::VecDeque;

/// An event [`Calendar`] can order: a total order whose leading key is the
/// event's time, so `a.at() < b.at()` implies `a < b`.
pub(crate) trait Timed: Copy + Ord {
    /// The event's time, ps.
    fn at(self) -> u64;
}

/// Events per bucket chunk.
const CHUNK: usize = 8;
/// The end of a chunk list.
const NONE: u32 = u32::MAX;
/// Bucket counts a run may ask for: enough buckets to spread a small run,
/// and a cap that bounds the bucket array for degenerate inputs.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 19;

/// A fixed-size block of one bucket's events. A bucket is a linked list of
/// chunks drawn from the queue's shared slab.
#[derive(Debug, Clone, Copy)]
struct Chunk<E> {
    events: [E; CHUNK],
    len: u32,
    next: u32,
}

/// A two-level bucketed priority queue over [`Timed`] events; see the
/// module docs.
#[derive(Debug)]
pub(crate) struct Calendar<E> {
    /// Start of bucket 0, ps: 0 when armed by [`Calendar::reset`], the
    /// earliest parked event after a re-arm.
    base: u64,
    /// The time span the queue is armed over, ps.
    span: u64,
    inv_width: f64,
    /// First and last chunk of each bucket (`NONE` when empty).
    buckets: Vec<(u32, u32)>,
    /// Logical bucket count for the current run (`<= buckets.len()`).
    nbuckets: usize,
    /// The chunk slab all buckets draw from, and its free chunks.
    chunks: Vec<Chunk<E>>,
    free: Vec<u32>,
    /// Drain floor: one past the bucket currently draining. Pushes into
    /// buckets strictly before it go to `overflow`. Starts at 0 so the
    /// initial injection wave parks in buckets and gets batch-sorted
    /// instead of trickling through the overflow one insert at a time.
    /// Kept tight (`cur + 1`, not advanced over empty buckets) so events a
    /// few buckets out still park in O(1) instead of paying a sorted insert.
    floor: usize,
    /// Refill's empty-bucket scan cursor: buckets in `floor..hint` were
    /// empty when last inspected, and any later push into that range pulls
    /// `hint` back down, so each refill resumes scanning from `hint`
    /// instead of re-walking the same empty run.
    hint: usize,
    /// The current bucket's events, sorted ascending; `head` indexes the
    /// next unconsumed one.
    active: Vec<E>,
    head: usize,
    /// Events pushed into the current (or an earlier) bucket mid-drain,
    /// sorted ascending so the minimum pops from the front in O(1). It
    /// stays small (one bucket's cascade), and nearly every push is either
    /// a same-instant cascade (the new minimum → `push_front`) or a fresh
    /// event beyond everything pending (the new maximum → `push_back`), so
    /// the ring buffer absorbs both ends in O(1) and the interior insert is
    /// rare.
    overflow: VecDeque<E>,
    /// Events parked in buckets at or after `floor`.
    parked: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar {
            base: 0,
            span: 0,
            inv_width: 0.0,
            buckets: Vec::new(),
            nbuckets: 0,
            chunks: Vec::new(),
            free: Vec::new(),
            floor: 0,
            hint: 0,
            active: Vec::new(),
            head: 0,
            overflow: VecDeque::new(),
            parked: 0,
        }
    }
}

impl<E: Timed> Calendar<E> {
    /// Re-arms the queue for a new run over `horizon_ps` from time 0 with
    /// `nbuckets` buckets (clamped to a sane range), sweeping any events
    /// left by an abandoned run.
    pub(crate) fn reset(&mut self, horizon_ps: u64, nbuckets: usize) {
        if self.parked > 0 {
            self.buckets[..self.nbuckets].fill((NONE, NONE));
            self.free.clear();
            self.free.extend(0..self.chunks.len() as u32);
            self.parked = 0;
        }
        self.active.clear();
        self.head = 0;
        self.overflow.clear();
        let nbuckets = nbuckets.clamp(MIN_BUCKETS, MAX_BUCKETS);
        if nbuckets > self.buckets.len() {
            self.buckets.resize(nbuckets, (NONE, NONE));
        }
        self.nbuckets = nbuckets;
        self.arm(0, horizon_ps);
    }

    /// Spreads the `nbuckets` buckets over `[base, base + span)`, with the
    /// drain floor back at bucket 0. Every bucket must be empty.
    fn arm(&mut self, base: u64, span: u64) {
        self.base = base;
        self.span = span;
        let width = (span as f64 / self.nbuckets as f64).max(1.0);
        self.inv_width = 1.0 / width;
        self.floor = 0;
        self.hint = 0;
    }

    /// The bucket of time `at` (ps): monotone in `at`, so `bucket(t1) <
    /// bucket(t2)` implies `t1 < t2`.
    #[inline]
    fn bucket_of(&self, at: u64) -> usize {
        ((at.saturating_sub(self.base) as f64 * self.inv_width) as usize).min(self.nbuckets - 1)
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: E) {
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
            let last = self.buckets[b].1;
            match self.chunks.get_mut(last as usize) {
                Some(c) if (c.len as usize) < CHUNK => {
                    c.events[c.len as usize] = ev;
                    c.len += 1;
                }
                _ => {
                    let fresh = self.take_chunk(ev);
                    if last == NONE {
                        self.buckets[b] = (fresh, fresh);
                    } else {
                        self.chunks[last as usize].next = fresh;
                        self.buckets[b].1 = fresh;
                    }
                }
            }
            self.parked += 1;
        }
    }

    /// A chunk holding just `ev` (its other slots are filler): a free one,
    /// else a new one on the slab.
    fn take_chunk(&mut self, ev: E) -> u32 {
        let chunk = Chunk {
            events: [ev; CHUNK],
            len: 1,
            next: NONE,
        };
        match self.free.pop() {
            Some(c) => {
                self.chunks[c as usize] = chunk;
                c
            }
            None => {
                self.chunks.push(chunk);
                (self.chunks.len() - 1) as u32
            }
        }
    }

    /// Advances to the next non-empty bucket and sorts it into `active`,
    /// re-arming instead when that bucket is the clamp bucket. Only sound
    /// when both `active` and `overflow` are exhausted — every remaining
    /// event then lives in a bucket at or after `floor`.
    fn refill(&mut self) {
        debug_assert!(self.head == self.active.len() && self.overflow.is_empty());
        while self.parked > 0 {
            let mut cur = self.hint.max(self.floor);
            while self.buckets[cur].0 == NONE {
                cur += 1;
            }
            self.floor = cur + 1;
            self.hint = cur + 1;
            self.active.clear();
            self.head = 0;
            let mut c = self.buckets[cur].0;
            while c != NONE {
                let chunk = &self.chunks[c as usize];
                self.active
                    .extend_from_slice(&chunk.events[..chunk.len as usize]);
                self.free.push(c);
                c = chunk.next;
            }
            self.buckets[cur] = (NONE, NONE);
            self.parked -= self.active.len();
            if cur + 1 < self.nbuckets {
                self.active.sort_unstable();
                return;
            }
            self.rearm();
        }
    }

    /// The drain took the clamp bucket into `active`, and every other
    /// bucket is empty: re-arms over the remaining time span — from the
    /// earliest event left to the latest, and no narrower than before, so
    /// later pushes past it park in buckets too — and parks them again.
    fn rearm(&mut self) {
        let (mut lo, mut hi) = (u64::MAX, 0);
        for ev in &self.active {
            lo = lo.min(ev.at());
            hi = hi.max(ev.at());
        }
        self.arm(lo, (hi - lo).saturating_add(1).max(self.span));
        let mut parked = std::mem::take(&mut self.active);
        for &ev in &parked {
            self.push(ev);
        }
        parked.clear();
        self.active = parked;
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<E> {
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

    /// Bytes retained across runs (capacity high-water marks).
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.buckets.capacity() * size_of::<(u32, u32)>()
            + self.chunks.capacity() * size_of::<Chunk<E>>()
            + self.free.capacity() * size_of::<u32>()
            + (self.active.capacity() + self.overflow.capacity()) * size_of::<E>()
    }
}

/// The time span to arm a run's calendar over, ps: twice the latest ready
/// time plus the busiest link's total service time, an arrival-agnostic
/// estimate of the makespan. `busy_est` holds each link's service time
/// summed over every packet routed across it; the fold zeroes it, so the
/// buffer is all-zero between runs. An estimate that falls short only
/// costs a re-arm; order is exact either way.
pub(crate) fn horizon_ps(busy_est: &mut [u64], max_ready: u64) -> u64 {
    let mut max_busy = 0u64;
    for b in busy_est.iter_mut() {
        max_busy = max_busy.max(*b);
        *b = 0;
    }
    max_ready.saturating_add(max_busy).saturating_mul(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{rank, rank_class, DELIVER, HOP, INJECT};
    use meshcoll_util::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A per-packet-shaped event: time, then class-and-age rank, then id.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Ev {
        at: u64,
        rank: u64,
        id: u32,
    }

    impl Timed for Ev {
        fn at(self) -> u64 {
            self.at
        }
    }

    fn ev(at: u64, class: u64, id: u32) -> Ev {
        Ev {
            at,
            rank: rank(class, 0),
            id,
        }
    }

    #[test]
    fn events_pop_in_tie_order() {
        // At one instant: deliveries, then later-hop arrivals, then
        // injections, each by id.
        let mut q = Calendar::default();
        q.reset(1000, 10);
        for e in [
            ev(500, INJECT, 1),
            ev(500, HOP, 7),
            ev(500, INJECT, 0),
            ev(499, INJECT, 9),
            ev(500, DELIVER, 3),
            ev(500, HOP, 2),
        ] {
            q.push(e);
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (rank_class(e.rank), e.id))
            .collect();
        assert_eq!(
            order,
            [
                (INJECT, 9),
                (DELIVER, 3),
                (HOP, 2),
                (HOP, 7),
                (INJECT, 0),
                (INJECT, 1)
            ]
        );
    }

    #[test]
    fn reset_reuses_buckets_and_sweeps_leftovers() {
        let mut q = Calendar::default();
        q.reset(1000, 100);
        for i in 0..50u32 {
            q.push(ev(u64::from(i) * 17, HOP, i));
        }
        // Drain half, then abandon (a declined pass mid-run).
        for _ in 0..25 {
            q.pop().unwrap();
        }
        let cap_before = q.buckets.len();
        q.reset(100, 10);
        assert_eq!(q.buckets.len(), cap_before, "buckets must never shrink");
        assert!(q.pop().is_none(), "stale events must be swept");
        // And the queue still orders correctly after reuse.
        q.push(ev(30, HOP, 2));
        q.push(ev(10, HOP, 1));
        q.push(ev(95, HOP, 3));
        assert_eq!(q.pop().unwrap().at, 10);
        assert_eq!(q.pop().unwrap().at, 30);
        assert_eq!(q.pop().unwrap().at, 95);
        assert!(q.pop().is_none());
    }

    /// Which paths a run of [`pops_like_a_binary_heap`] took.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Same-instant pushes per class (deliver, hop, inject).
        ties: [usize; 3],
        /// Pushes behind the drain floor landing at the overflow's front,
        /// back and interior.
        front: usize,
        back: usize,
        interior: usize,
        rearms: usize,
        /// Resets of a half-drained queue.
        abandoned: usize,
    }

    /// Records where `e` is about to land, then pushes it.
    fn push(q: &mut Calendar<Ev>, heap: &mut BinaryHeap<Reverse<Ev>>, e: Ev, cov: &mut Coverage) {
        if q.bucket_of(e.at) < q.floor {
            match (q.overflow.front(), q.overflow.back()) {
                (Some(&f), _) if e < f => cov.front += 1,
                (None, _) => cov.front += 1,
                (_, Some(&b)) if b < e => cov.back += 1,
                _ => cov.interior += 1,
            }
        }
        q.push(e);
        heap.push(Reverse(e));
    }

    /// Pops both queues and asserts they agree; counts re-arms.
    fn pop(
        q: &mut Calendar<Ev>,
        heap: &mut BinaryHeap<Reverse<Ev>>,
        cov: &mut Coverage,
    ) -> Option<Ev> {
        let base = q.base;
        let got = q.pop();
        if q.base != base {
            cov.rearms += 1;
        }
        assert_eq!(got, heap.pop().map(|Reverse(e)| e));
        got
    }

    #[test]
    fn pops_like_a_binary_heap() {
        let mut cov = Coverage::default();
        let mut q = Calendar::default();
        for seed in 0..200u64 {
            let mut rng = Rng::new(seed);
            let horizon = 1_000 + rng.below(20_000);
            q.reset(horizon, rng.range_usize(1, 200));
            let mut heap = BinaryHeap::new();
            let width = (horizon / q.nbuckets as u64).max(1);
            let mut now = 0;
            let mut id = 0u32;
            let ops = rng.range_usize(50, 1_500);
            // Every fourth seed abandons its queue half-drained and resets
            // it for a second run; the heap starts over empty.
            let abandon_at = if seed % 4 == 3 { ops / 2 } else { usize::MAX };
            for op in 0..ops {
                if op == abandon_at {
                    cov.abandoned += 1;
                    q.reset(rng.range_u64(1, 5_000), rng.range_usize(1, 64));
                    heap.clear();
                    now = 0;
                }
                if rng.below(100) < 55 {
                    let at = match rng.below(10) {
                        // Same instant as the last pop, in any class.
                        0..=2 => now,
                        // A bucket or three ahead of the drain.
                        3..=5 => now + rng.below(3 * width),
                        // Anywhere in the horizon, earlier ones included.
                        6 | 7 => rng.below(horizon),
                        // Just behind the last pop.
                        8 => now.saturating_sub(rng.below(width)),
                        // Far past the horizon.
                        _ => horizon + rng.below(20 * horizon),
                    };
                    let class = rng.below(3);
                    if at == now {
                        cov.ties[class as usize] += 1;
                    }
                    let e = Ev {
                        at,
                        rank: rank(class, rng.below(4) as u32),
                        id,
                    };
                    id += 1;
                    push(&mut q, &mut heap, e, &mut cov);
                } else if let Some(e) = pop(&mut q, &mut heap, &mut cov) {
                    now = e.at;
                }
            }
            while pop(&mut q, &mut heap, &mut cov).is_some() {}
            assert!(heap.is_empty());
        }
        assert!(cov.ties.iter().all(|&t| t > 0), "{cov:?}");
        assert!(cov.front > 0 && cov.back > 0 && cov.interior > 0, "{cov:?}");
        assert!(cov.rearms > 0 && cov.abandoned > 0, "{cov:?}");
    }
}
