//! Exact simulation time and the one same-instant tie order.
//!
//! # Integer picoseconds
//!
//! Both packet engines keep their clocks in `u64` picoseconds and convert
//! to `f64` nanoseconds only at the API boundary: [`Message::ready_at_ns`]
//! and timeline death times come in through [`ns_to_ps`], completions,
//! busy time, trace timestamps and drain clocks go out through
//! [`ps_to_ns`]. Every sum, maximum and comparison in between is exact, so
//! the order in which an engine adds up a train's service times cannot
//! move a result: the packet-train fast path and the per-packet loop agree
//! bit for bit wherever the fast path runs.
//!
//! At the paper's Table II every quantity is an exact integer: 25 GB/s is
//! 40 ps per byte (an 8 KiB packet serializes in 327,680 ps) and the 21 ns
//! header latency and per-packet overhead are 21,000 ps. Any other
//! bandwidth is rounded *up* to the next picosecond once per (link, packet
//! size) by [`ser_ps`], so a simulated service time is never shorter than
//! the `f64` one the static analyzer's lower bounds are derived from.
//!
//! # One tie order
//!
//! Events at the same picosecond are ordered by a key the model defines,
//! never by when an engine happened to create them: `(time, class, age,
//! message id, packet)`. The class puts deliveries before later-hop packet
//! arrivals before injections ([`DELIVER`] < [`HOP`] < [`INJECT`]), so
//! within an instant deliveries release their dependents first and
//! in-flight packets win a link ahead of freshly injected ones. The age
//! makes arbitration oldest-first:
//!
//! * a message's *age* is its rank in the run's injection order (1 for the
//!   first message injected), and it orders the message's deliveries and
//!   packet arrivals;
//! * an injection's age is the age of the message whose delivery released
//!   it at that very instant (0 when its ready time, not a delivery, set the
//!   instant), so same-instant injections go in the order of the deliveries
//!   that released them, then by message id.
//!
//! Ages are defined by the key order itself: injections are processed in
//! key order, and each one takes the next rank. With a positive header
//! latency an event only ever creates events that sort after it — a
//! delivery creates same-instant injections, everything else creates
//! strictly later events — so both engines process events in ascending key
//! order, hand out the same ages, and the fast path can decide any
//! same-instant contention by comparing keys. For schedules of one-hop
//! messages this order is the one in which a FIFO event queue would have
//! created the events.

use meshcoll_topo::{LinkId, Mesh};

use crate::config::Net;

/// Picoseconds per nanosecond.
const PS_PER_NS: f64 = 1000.0;

/// Largest picosecond count whose neighbours still have distinct `f64`
/// nanosecond images; [`ns_to_ps`] stops adjusting past it.
const EXACT_PS: f64 = 9.0e15;

/// Engine time `ps` (picoseconds) as API time in nanoseconds, correctly
/// rounded.
#[inline]
pub fn ps_to_ns(ps: u64) -> f64 {
    ps as f64 / PS_PER_NS
}

/// API time `ns` (nanoseconds) as engine time: the first picosecond whose
/// nanosecond image is at or past `ns`, i.e. the smallest `p` with
/// `ps_to_ns(p) >= ns`. So `ns_to_ps(ps_to_ns(p)) == p` for every
/// picosecond count a run can reach, and `p >= ns_to_ps(t)` holds exactly
/// when `ps_to_ns(p) >= t`. Zero, negative and NaN inputs map to 0, and
/// `+∞` (a link that never dies) to `u64::MAX`.
#[inline]
pub fn ns_to_ps(ns: f64) -> u64 {
    if ns.is_nan() || ns <= 0.0 {
        return 0;
    }
    let guess = (ns * PS_PER_NS).round();
    if guess > EXACT_PS {
        // The `as` cast saturates, so `+∞` becomes `u64::MAX`.
        return guess as u64;
    }
    let mut p = guess as u64;
    while ps_to_ns(p) < ns {
        p += 1;
    }
    while p > 0 && ps_to_ns(p - 1) >= ns {
        p -= 1;
    }
    p
}

/// Longest full-packet serialization time a link may have, ns (2^52 ps,
/// ~75 simulated minutes per packet).
const MAX_SERVICE_NS: f64 = 4_503_599_627_370.496;

/// Whether `link` can carry packets: usable under the fault model, with a
/// positive bandwidth whose full-packet serialization time stays below
/// [`MAX_SERVICE_NS`]. A zero or near-zero bandwidth (a `0.0` override, or
/// a degradation to almost nothing) would push the picosecond clock past
/// its range, so the engines treat such a link like a dead one.
pub(crate) fn link_carries(net: Net<'_>, mesh: &Mesh, link: LinkId) -> bool {
    let bw = net.bandwidth_of(link);
    net.faults.link_usable(mesh, link)
        && bw > 0.0
        && net.cfg.packet_bytes as f64 / bw < MAX_SERVICE_NS
}

/// Serialization time of `bytes` over a link of `bandwidth` bytes/ns: the
/// `f64` time `bytes / bandwidth` rounded up to the next picosecond.
#[inline]
pub(crate) fn ser_ps(bytes: u64, bandwidth: f64) -> u64 {
    ns_to_ps(bytes as f64 / bandwidth)
}

/// Tie-order class of a message's last-packet delivery.
pub(crate) const DELIVER: u64 = 0;
/// Tie-order class of a packet arriving at a route link past the first.
pub(crate) const HOP: u64 = 1;
/// Tie-order class of an injection (arrivals at a message's first link).
pub(crate) const INJECT: u64 = 2;

/// The `(class, age)` part of the tie-order key as one integer.
#[inline]
pub(crate) fn rank(class: u64, age: u32) -> u64 {
    class << 32 | u64::from(age)
}

/// The class of a [`rank`].
#[inline]
pub(crate) fn rank_class(rank: u64) -> u64 {
    rank >> 32
}

/// Picoseconds per byte at `bandwidth` when that is an exact integer `p`
/// (`p · bandwidth = 1000` with no rounding, as at 25 GB/s), else 0. Then
/// `bytes / bandwidth` is the real `bytes · p / 1000`, whose correctly
/// rounded `f64` image is `ps_to_ns(bytes · p)`, so [`ser_ps`] returns
/// `bytes · p` for every size below [`EXACT_PS`].
fn exact_ps_per_byte(bandwidth: f64) -> u64 {
    let p = (PS_PER_NS / bandwidth).round();
    if (1.0..=f64::from(u32::MAX)).contains(&p) && p.mul_add(bandwidth, -PS_PER_NS) == 0.0 {
        p as u64
    } else {
        0
    }
}

/// One run's link timing in picoseconds: per-link full-packet service
/// times, looked up once, and each link's exact picoseconds per byte, so
/// other packet sizes cost one multiply (links of other bandwidths round
/// per call).
#[derive(Debug, Default)]
pub(crate) struct LinkTiming {
    /// Bandwidth per link id, bytes/ns.
    bw: Vec<f64>,
    /// Serialization time of a full packet per link id.
    full: Vec<u64>,
    /// Exact picoseconds per byte per link id (0 where not an integer).
    per_byte: Vec<u64>,
    /// Per-flit header latency.
    pub(crate) hop: u64,
    /// Per-packet router overhead.
    pub(crate) overhead: u64,
}

impl LinkTiming {
    /// Re-fills the tables for a run on `net` over `mesh`, keeping capacity.
    pub(crate) fn reset(&mut self, net: Net<'_>, mesh: &Mesh) {
        let cfg = net.cfg;
        self.bw.clear();
        self.bw
            .extend((0..mesh.link_id_space()).map(|i| net.bandwidth_of(LinkId(i))));
        // Links mostly share one bandwidth: round once per run of equal ones.
        let mut last = (f64::NAN, 0, 0);
        self.full.clear();
        self.per_byte.clear();
        for &bw in &self.bw {
            if bw != last.0 {
                last = (bw, ser_ps(cfg.packet_bytes, bw), exact_ps_per_byte(bw));
            }
            self.full.push(last.1);
            self.per_byte.push(last.2);
        }
        self.hop = ns_to_ps(cfg.per_flit_latency_ns);
        self.overhead = ns_to_ps(cfg.per_packet_overhead_ns);
    }

    /// Serialization time of a full packet on link `li`.
    #[inline]
    pub(crate) fn full(&self, li: usize) -> u64 {
        self.full[li]
    }

    /// Serialization time of a `bytes` packet on link `li`: [`ser_ps`].
    #[inline]
    pub(crate) fn ser(&self, li: usize, bytes: u64) -> u64 {
        match bytes.checked_mul(self.per_byte[li]) {
            Some(ps) if ps != 0 && (ps as f64) < EXACT_PS => ps,
            _ => ser_ps(bytes, self.bw[li]),
        }
    }

    /// Bytes retained across runs.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.bw.capacity() * std::mem::size_of::<f64>()
            + (self.full.capacity() + self.per_byte.capacity()) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NocConfig;

    #[test]
    fn table_ii_quantities_are_exact() {
        assert_eq!(ser_ps(8192, 25.0), 327_680);
        assert_eq!(ser_ps(1808, 25.0), 72_320);
        assert_eq!(ser_ps(1, 25.0), 40);
        assert_eq!(ns_to_ps(21.0), 21_000);
        assert_eq!(ns_to_ps(20.48), 20_480);
        assert_eq!(ps_to_ns(327_680), 327.68);
    }

    #[test]
    fn other_bandwidths_round_up() {
        // 7 GB/s: 8192 B take 1170.2857… ns.
        let ps = ser_ps(8192, 7.0);
        assert_eq!(ps, 1_170_286);
        assert!(ps_to_ns(ps) >= 8192.0 / 7.0);
        assert!(ps_to_ns(ps - 1) < 8192.0 / 7.0);
    }

    #[test]
    fn exact_per_byte_rates_match_rounding() {
        // 25, 12.5 and 6.25 GB/s (full, half and quarter speed) and 50 GB/s
        // take the multiply; 7 and 7.5 GB/s round per call. Both agree with
        // `ser_ps` for every size.
        assert_eq!(exact_ps_per_byte(25.0), 40);
        assert_eq!(exact_ps_per_byte(12.5), 80);
        assert_eq!(exact_ps_per_byte(6.25), 160);
        assert_eq!(exact_ps_per_byte(50.0), 20);
        assert_eq!(exact_ps_per_byte(7.0), 0);
        assert_eq!(exact_ps_per_byte(7.5), 0);
        assert_eq!(exact_ps_per_byte(25.0 * 0.3), 0);
        let mut cfg = NocConfig::paper_default();
        let mesh = Mesh::new(1, 7).unwrap();
        let links: Vec<LinkId> = mesh.links().map(|(_, _, l)| l).collect();
        for (l, bw) in links.iter().zip([25.0, 12.5, 6.25, 50.0, 7.0, 7.5]) {
            cfg.link_overrides.push((*l, bw));
        }
        let mut t = LinkTiming::default();
        t.reset(Net::of(&cfg), &mesh);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bytes = 1 + x % (1 << 30);
            for l in &links {
                let bw = cfg.bandwidth_of(*l);
                assert_eq!(
                    t.ser(l.index(), bytes),
                    ser_ps(bytes, bw),
                    "{bytes} B at {bw}"
                );
            }
        }
    }

    #[test]
    fn edge_values_saturate() {
        assert_eq!(ns_to_ps(0.0), 0);
        assert_eq!(ns_to_ps(-5.0), 0);
        assert_eq!(ns_to_ps(f64::NAN), 0);
        assert_eq!(ns_to_ps(f64::INFINITY), u64::MAX);
        assert_eq!(ns_to_ps(1e-9), 1);
    }

    #[test]
    fn drain_resume_time_round_trips() {
        // A drain clock leaves the engine as ns and comes back as the
        // resumed suffix's ready time: it must land on the same picosecond.
        for ps in [
            0,
            1,
            999,
            1_000,
            327_681,
            12_345_678_901,
            987_654_321_987_654,
            (1 << 52) + 7,
        ] {
            assert_eq!(ns_to_ps(ps_to_ns(ps)), ps, "{ps} ps");
        }
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ps = x % (1 << 50);
            assert_eq!(ns_to_ps(ps_to_ns(ps)), ps, "{ps} ps");
        }
    }

    #[test]
    fn conversion_matches_f64_comparisons() {
        // `p >= ns_to_ps(t)` iff `ps_to_ns(p) >= t`: a death time converted
        // once per run drops exactly the packets the f64 rule would.
        for t in [700.0, 700.0004, 1e-3, 0.0015, 12_345.678_9, 3.0e6 + 1e-4] {
            let d = ns_to_ps(t);
            assert!(ps_to_ns(d) >= t, "{t}");
            assert!(d == 0 || ps_to_ns(d - 1) < t, "{t}");
        }
    }

    #[test]
    fn ranks_order_classes_before_ages() {
        assert!(rank(DELIVER, u32::MAX) < rank(HOP, 0));
        assert!(rank(HOP, u32::MAX) < rank(INJECT, 0));
        assert!(rank(INJECT, 3) < rank(INJECT, 4));
        assert_eq!(rank_class(rank(INJECT, 77)), INJECT);
    }
}
