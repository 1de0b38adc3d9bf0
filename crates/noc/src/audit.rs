//! Trace-level invariant auditing for the network engines.
//!
//! The [`InvariantAuditor`] consumes the [`TraceEvent`] stream of a run
//! (collected through a [`MemorySink`](crate::trace::MemorySink)) and checks
//! the physical invariants every correct simulation must satisfy:
//!
//! * **Conservation** — every injected message is delivered, with the same
//!   byte count, and in the per-packet engine every hop of the route sees
//!   exactly the injected packet count and byte total (nothing is lost or
//!   duplicated mid-route).
//! * **Causality** — no packet wins a link before it arrives there, no
//!   link's busy interval ends before it starts, and a packet cannot reach
//!   hop `h+1` before it started crossing hop `h`.
//! * **Link exclusivity** — in the per-packet engine, the busy intervals
//!   committed on one directed link never overlap (each link serves one
//!   packet at a time).
//! * **Fast-path lower bound** — comparing a fast-path trace against the
//!   per-packet reference trace of the same DAG, no train's start curve may
//!   precede the reference engine's packet starts, and deliveries must
//!   agree (see [`InvariantAuditor::check_fast_path`]).
//!
//! All comparisons use a configurable absolute tolerance (default 1e-6 ns,
//! the same bound the equivalence suites enforce) so floating-point
//! reassociation between the two engines is not reported as a violation.
//! Schedule-level conformance (dependencies, reduce in-degree, the
//! AllReduce post-condition) lives above the NoC, in `meshcoll-sim`.

use std::collections::HashMap;
use std::fmt;

use meshcoll_topo::LinkId;

use crate::online::ReportDiff;
use crate::trace::TraceEvent;
use crate::MsgId;

/// Default audit tolerance, ns — matches the fast-path equivalence bound.
pub const DEFAULT_TOLERANCE_NS: f64 = 1e-6;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// An injected message never delivered.
    MissingDelivery {
        /// The undelivered message.
        msg: MsgId,
    },
    /// A message delivered a different byte count than it injected.
    Conservation {
        /// The message.
        msg: MsgId,
        /// Bytes injected at the source.
        injected: u64,
        /// Bytes delivered at the destination.
        delivered: u64,
    },
    /// A hop of a message's route saw the wrong packet count or byte total.
    PacketLoss {
        /// The message.
        msg: MsgId,
        /// The hop with the mismatch.
        hop: u32,
        /// Packets observed at this hop.
        packets_seen: u64,
        /// Packets injected.
        packets_injected: u64,
    },
    /// A packet (or train head) won a link before arriving at it, or its
    /// busy interval ended before it started.
    Causality {
        /// The message.
        msg: MsgId,
        /// Packet index (0 for train-level events).
        packet: u64,
        /// The offending hop.
        hop: u32,
        /// Arrival time, ns.
        arrive_ns: f64,
        /// Link-win time, ns.
        start_ns: f64,
    },
    /// A packet arrived at hop `h+1` before it started crossing hop `h`.
    HopOrder {
        /// The message.
        msg: MsgId,
        /// Packet index.
        packet: u64,
        /// The later hop (`h+1`).
        hop: u32,
        /// Start time at hop `h`, ns.
        prev_start_ns: f64,
        /// Arrival time at hop `h+1`, ns.
        arrive_ns: f64,
    },
    /// Two packets' busy intervals overlap on one directed link.
    LinkOverlap {
        /// The shared link.
        link: LinkId,
        /// The packet holding the link.
        first: (MsgId, u64),
        /// The packet that started before the link freed.
        second: (MsgId, u64),
        /// Overlap length, ns.
        overlap_ns: f64,
    },
    /// A fast-path train start precedes its per-packet lower bound.
    FastPathEarly {
        /// The message (train).
        msg: MsgId,
        /// The hop where the curve undercuts the reference.
        hop: u32,
        /// Fast-path start, ns.
        fast_ns: f64,
        /// Per-packet reference start, ns.
        reference_ns: f64,
    },
    /// Fast-path and per-packet delivery times disagree beyond tolerance.
    DeliveryMismatch {
        /// The message.
        msg: MsgId,
        /// Fast-path delivery, ns.
        fast_ns: f64,
        /// Per-packet reference delivery, ns.
        reference_ns: f64,
    },
    /// A simulated makespan undercuts a certified static lower bound —
    /// either the engine teleported bytes or the bound derivation is wrong.
    MakespanBelowBound {
        /// Simulated makespan, ns.
        makespan_ns: f64,
        /// The static lower bound it undercuts, ns.
        bound_ns: f64,
    },
    /// Online byte accounting broke for one message: a delivered message
    /// also dropped packets, or a lost message's drops exceed its injection
    /// (every injected byte must end up delivered or dropped, never both,
    /// never more).
    DropAccounting {
        /// The message.
        msg: MsgId,
        /// Bytes injected.
        injected: u64,
        /// Bytes delivered (0 when undelivered).
        delivered: u64,
        /// Bytes dropped in flight.
        dropped: u64,
    },
    /// A [`TraceEvent::Drain`] summary disagrees with the drops actually
    /// recorded in its segment.
    DrainMismatch {
        /// Bytes the drain event claims were lost.
        lost_bytes: u64,
        /// Bytes the segment's drop events account for.
        dropped_bytes: u64,
    },
    /// An event of a resumed segment precedes the splice point: the online
    /// orchestration let repaired-suffix traffic start before the drain
    /// plus charged repair latency.
    SpliceCausality {
        /// The offending event's time, ns.
        at_ns: f64,
        /// The governing resume time, ns.
        resume_ns: f64,
    },
    /// An online segment's `Auto` run reports a value its per-packet re-run
    /// does not, which it must match bit for bit.
    EngineMismatch {
        /// The segment (0 for the first).
        segment: usize,
        /// The first differing completion, busy time or snapshot field,
        /// `Auto`'s value first.
        diff: ReportDiff,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingDelivery { msg } => write!(f, "{msg} injected but never delivered"),
            Violation::Conservation {
                msg,
                injected,
                delivered,
            } => write!(f, "{msg} injected {injected} B but delivered {delivered} B"),
            Violation::PacketLoss {
                msg,
                hop,
                packets_seen,
                packets_injected,
            } => write!(
                f,
                "{msg} hop {hop} saw {packets_seen} packets, injected {packets_injected}"
            ),
            Violation::Causality {
                msg,
                packet,
                hop,
                arrive_ns,
                start_ns,
            } => write!(
                f,
                "{msg} packet {packet} hop {hop} starts at {start_ns} ns before arriving at {arrive_ns} ns"
            ),
            Violation::HopOrder {
                msg,
                packet,
                hop,
                prev_start_ns,
                arrive_ns,
            } => write!(
                f,
                "{msg} packet {packet} reaches hop {hop} at {arrive_ns} ns before starting hop {} at {prev_start_ns} ns",
                hop - 1
            ),
            Violation::LinkOverlap {
                link,
                first,
                second,
                overlap_ns,
            } => write!(
                f,
                "link {link:?}: {} packet {} overlaps {} packet {} by {overlap_ns} ns",
                first.0, first.1, second.0, second.1
            ),
            Violation::FastPathEarly {
                msg,
                hop,
                fast_ns,
                reference_ns,
            } => write!(
                f,
                "{msg} hop {hop}: fast-path start {fast_ns} ns precedes per-packet {reference_ns} ns"
            ),
            Violation::DeliveryMismatch {
                msg,
                fast_ns,
                reference_ns,
            } => write!(
                f,
                "{msg}: fast-path delivery {fast_ns} ns vs per-packet {reference_ns} ns"
            ),
            Violation::MakespanBelowBound {
                makespan_ns,
                bound_ns,
            } => write!(
                f,
                "simulated makespan {makespan_ns} ns undercuts static lower bound {bound_ns} ns"
            ),
            Violation::DropAccounting {
                msg,
                injected,
                delivered,
                dropped,
            } => write!(
                f,
                "{msg} injected {injected} B but delivered {delivered} B and dropped {dropped} B"
            ),
            Violation::DrainMismatch {
                lost_bytes,
                dropped_bytes,
            } => write!(
                f,
                "drain claims {lost_bytes} B lost but drop events account for {dropped_bytes} B"
            ),
            Violation::SpliceCausality { at_ns, resume_ns } => write!(
                f,
                "event at {at_ns} ns precedes the governing resume at {resume_ns} ns"
            ),
            Violation::EngineMismatch { segment, diff } => write!(
                f,
                "segment {segment}: {diff} per packet (Auto's value first)"
            ),
        }
    }
}

/// Result of auditing one trace: how many individual comparisons ran and
/// every violation found.
#[derive(Debug, Clone, Default)]
pub struct TraceAudit {
    /// Individual invariant comparisons performed.
    pub checks: usize,
    /// Violations found (empty for a correct engine).
    pub violations: Vec<Violation>,
}

impl TraceAudit {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-message byte accounting within one online-run segment, reset at each
/// [`TraceEvent::Resume`] marker by
/// [`InvariantAuditor::check_online_trace`].
#[derive(Default)]
struct SegMsg {
    injected: Option<u64>,
    delivered: Option<u64>,
    dropped: u64,
}

#[derive(Default)]
struct MsgLedger {
    injected_bytes: u64,
    injected_packets: u64,
    injected: bool,
    delivered_bytes: Option<u64>,
    deliver_ns: f64,
    /// Bytes dropped mid-route by an online fault arrival.
    dropped_bytes: u64,
    /// Per hop: (packets seen, bytes seen).
    hops: Vec<(u64, u64)>,
}

/// Checks the engine invariants over recorded traces. See the module docs
/// for the invariant catalogue.
#[derive(Debug, Clone, Copy)]
pub struct InvariantAuditor {
    /// Absolute comparison tolerance, ns.
    pub tolerance_ns: f64,
}

impl Default for InvariantAuditor {
    fn default() -> Self {
        InvariantAuditor {
            tolerance_ns: DEFAULT_TOLERANCE_NS,
        }
    }
}

impl InvariantAuditor {
    /// An auditor at the default 1e-6 ns tolerance.
    pub fn new() -> Self {
        InvariantAuditor::default()
    }

    /// Audits one engine trace: conservation, causality, and (for
    /// per-packet traces) link exclusivity.
    pub fn check_trace(&self, events: &[TraceEvent]) -> TraceAudit {
        let tol = self.tolerance_ns;
        let mut audit = TraceAudit::default();
        let mut ledger: HashMap<usize, MsgLedger> = HashMap::new();
        // (start, busy_until, msg, packet) per link, for exclusivity.
        let mut intervals: HashMap<usize, Vec<(f64, f64, MsgId, u64)>> = HashMap::new();
        // Last start per (msg, packet) to order consecutive hops.
        let mut last_start: HashMap<(usize, u64), (u32, f64)> = HashMap::new();

        for ev in events {
            match *ev {
                TraceEvent::Inject {
                    msg,
                    bytes,
                    packets,
                    ..
                } => {
                    let l = ledger.entry(msg.index()).or_default();
                    l.injected = true;
                    l.injected_bytes = bytes;
                    l.injected_packets = packets;
                }
                TraceEvent::PacketHop {
                    msg,
                    packet,
                    hop,
                    link,
                    bytes,
                    arrive_ns,
                    start_ns,
                    busy_until_ns,
                } => {
                    audit.checks += 1;
                    if start_ns < arrive_ns - tol || busy_until_ns < start_ns - tol {
                        audit.violations.push(Violation::Causality {
                            msg,
                            packet,
                            hop,
                            arrive_ns,
                            start_ns,
                        });
                    }
                    if hop > 0 {
                        audit.checks += 1;
                        if let Some(&(ph, ps)) = last_start.get(&(msg.index(), packet)) {
                            if ph + 1 == hop && arrive_ns < ps - tol {
                                audit.violations.push(Violation::HopOrder {
                                    msg,
                                    packet,
                                    hop,
                                    prev_start_ns: ps,
                                    arrive_ns,
                                });
                            }
                        }
                    }
                    last_start.insert((msg.index(), packet), (hop, start_ns));
                    let l = ledger.entry(msg.index()).or_default();
                    if l.hops.len() <= hop as usize {
                        l.hops.resize(hop as usize + 1, (0, 0));
                    }
                    l.hops[hop as usize].0 += 1;
                    l.hops[hop as usize].1 += bytes;
                    intervals.entry(link.index()).or_default().push((
                        start_ns,
                        busy_until_ns,
                        msg,
                        packet,
                    ));
                }
                TraceEvent::TrainHop {
                    msg,
                    hop,
                    arrive_ns,
                    first_start_ns,
                    last_start_ns,
                    packets,
                    ..
                } => {
                    audit.checks += 1;
                    if first_start_ns < arrive_ns - tol || last_start_ns < first_start_ns - tol {
                        audit.violations.push(Violation::Causality {
                            msg,
                            packet: 0,
                            hop,
                            arrive_ns,
                            start_ns: first_start_ns,
                        });
                    }
                    let l = ledger.entry(msg.index()).or_default();
                    if l.hops.len() <= hop as usize {
                        l.hops.resize(hop as usize + 1, (0, 0));
                    }
                    l.hops[hop as usize].0 += packets;
                    // Train events carry no per-hop byte total; mirror the
                    // injected bytes so the cross-hop check stays uniform.
                    l.hops[hop as usize].1 += l.injected_bytes;
                }
                TraceEvent::TrainSplit {
                    msg,
                    hop,
                    first_start_ns,
                    last_start_ns,
                    ..
                } => {
                    // Supersedes the matching TrainHop's tail timing; the
                    // packets and bytes were already counted there, so only
                    // the causal ordering is re-checked.
                    audit.checks += 1;
                    if last_start_ns < first_start_ns - tol {
                        audit.violations.push(Violation::Causality {
                            msg,
                            packet: 0,
                            hop,
                            arrive_ns: first_start_ns,
                            start_ns: last_start_ns,
                        });
                    }
                }
                TraceEvent::Deliver { msg, bytes, at_ns } => {
                    let l = ledger.entry(msg.index()).or_default();
                    l.delivered_bytes = Some(bytes);
                    l.deliver_ns = at_ns;
                }
                // Online-run events: the legacy single-segment audit treats
                // markers as inert and tolerates drops (an interrupted run is
                // audited with `check_online_trace`, which accounts for them).
                TraceEvent::PacketDrop { msg, bytes, .. } => {
                    let l = ledger.entry(msg.index()).or_default();
                    l.dropped_bytes += bytes;
                }
                TraceEvent::Reduce { .. }
                | TraceEvent::FaultArrival { .. }
                | TraceEvent::Drain { .. }
                | TraceEvent::Resume { .. } => {}
            }
        }

        for (mi, l) in &ledger {
            let msg = MsgId(*mi);
            audit.checks += 1;
            match l.delivered_bytes {
                None if l.dropped_bytes == 0 => {
                    audit.violations.push(Violation::MissingDelivery { msg });
                }
                Some(d) if l.injected && d != l.injected_bytes => {
                    audit.violations.push(Violation::Conservation {
                        msg,
                        injected: l.injected_bytes,
                        delivered: d,
                    });
                }
                _ => {}
            }
            // Every hop of the route must carry the full message. A message
            // partially dropped by an online fault legitimately thins out
            // downstream, so the per-hop census only applies to clean runs.
            for (hop, &(pk, by)) in l.hops.iter().enumerate() {
                if l.dropped_bytes > 0 {
                    break;
                }
                audit.checks += 1;
                if l.injected && (pk != l.injected_packets || by != l.injected_bytes) {
                    audit.violations.push(Violation::PacketLoss {
                        msg,
                        hop: hop as u32,
                        packets_seen: pk,
                        packets_injected: l.injected_packets,
                    });
                }
            }
        }

        // Link exclusivity: sort each link's busy intervals by start and
        // require them pairwise disjoint.
        for (_, mut iv) in intervals {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in iv.windows(2) {
                audit.checks += 1;
                let (_, prev_end, pm, pp) = w[0];
                let (next_start, _, nm, np) = w[1];
                if next_start < prev_end - tol {
                    audit.violations.push(Violation::LinkOverlap {
                        link: link_of(events, pm, pp).unwrap_or(LinkId(0)),
                        first: (pm, pp),
                        second: (nm, np),
                        overlap_ns: prev_end - next_start,
                    });
                }
            }
        }
        audit
    }

    /// Audits the spliced trace of an online run (interrupted prefix, then
    /// one segment per repaired suffix, separated by
    /// [`TraceEvent::Resume`] markers). Message ids restart at 0 in every
    /// segment, so per-message invariants reset at each splice point while
    /// the physical invariants span the whole stream:
    ///
    /// * **Online conservation** (per segment) — a delivered message
    ///   delivers exactly its injected bytes and drops nothing; an
    ///   injected-but-undelivered message accounts for the interruption
    ///   with at least one drop (a packet never dropped always arrives),
    ///   and never drops more than it injected. Each segment's
    ///   [`TraceEvent::Drain`] summary must equal the drops it recorded.
    /// * **Drop causality** (per segment) — a packet drops at or after its
    ///   last link win, at the hop following it, and every hop's win time
    ///   respects arrival order as in [`InvariantAuditor::check_trace`].
    /// * **Splice causality** (whole stream) — every event after a
    ///   [`TraceEvent::Resume`] occurs at or after its resume time: repair
    ///   latency is charged before any suffix traffic moves.
    /// * **Link exclusivity** (whole stream) — busy intervals on one
    ///   directed link stay pairwise disjoint *across* segments: resumed
    ///   traffic may not overlap the drained prefix's tail occupancies.
    pub fn check_online_trace(&self, events: &[TraceEvent]) -> TraceAudit {
        let tol = self.tolerance_ns;
        let mut audit = TraceAudit::default();
        // Whole-stream state.
        let mut intervals: HashMap<usize, Vec<(f64, f64, MsgId, u64)>> = HashMap::new();
        let mut resume_ns = 0.0f64;
        // Per-segment state, reset at each Resume marker.
        let mut ledger: HashMap<usize, SegMsg> = HashMap::new();
        let mut last_start: HashMap<(usize, u64), (u32, f64)> = HashMap::new();
        let mut seg_dropped: u64 = 0;

        let finalize = |audit: &mut TraceAudit, ledger: &mut HashMap<usize, SegMsg>| {
            for (mi, m) in ledger.drain() {
                let msg = MsgId(mi);
                audit.checks += 1;
                let injected = m.injected.unwrap_or(0);
                match m.delivered {
                    Some(d) => {
                        if m.dropped > 0 {
                            audit.violations.push(Violation::DropAccounting {
                                msg,
                                injected,
                                delivered: d,
                                dropped: m.dropped,
                            });
                        }
                        if m.injected.is_some() && d != injected {
                            audit.violations.push(Violation::Conservation {
                                msg,
                                injected,
                                delivered: d,
                            });
                        }
                    }
                    None if m.injected.is_some() => {
                        if m.dropped == 0 {
                            // No drop and no delivery: an undropped packet
                            // always arrives, so the message vanished.
                            audit.violations.push(Violation::MissingDelivery { msg });
                        } else if m.dropped > injected {
                            audit.violations.push(Violation::DropAccounting {
                                msg,
                                injected,
                                delivered: 0,
                                dropped: m.dropped,
                            });
                        }
                    }
                    None => {}
                }
            }
        };

        for ev in events {
            // Splice causality: nothing in a resumed segment may precede
            // its resume time.
            let at = event_time(ev);
            audit.checks += 1;
            if at < resume_ns - tol {
                audit.violations.push(Violation::SpliceCausality {
                    at_ns: at,
                    resume_ns,
                });
            }
            match *ev {
                TraceEvent::Inject { msg, bytes, .. } => {
                    ledger.entry(msg.index()).or_default().injected = Some(bytes);
                }
                TraceEvent::PacketHop {
                    msg,
                    packet,
                    hop,
                    link,
                    arrive_ns,
                    start_ns,
                    busy_until_ns,
                    ..
                } => {
                    audit.checks += 1;
                    if start_ns < arrive_ns - tol || busy_until_ns < start_ns - tol {
                        audit.violations.push(Violation::Causality {
                            msg,
                            packet,
                            hop,
                            arrive_ns,
                            start_ns,
                        });
                    }
                    last_start.insert((msg.index(), packet), (hop, start_ns));
                    intervals.entry(link.index()).or_default().push((
                        start_ns,
                        busy_until_ns,
                        msg,
                        packet,
                    ));
                }
                TraceEvent::PacketDrop {
                    msg,
                    packet,
                    hop,
                    bytes,
                    at_ns,
                    ..
                } => {
                    let m = ledger.entry(msg.index()).or_default();
                    m.dropped += bytes;
                    seg_dropped += bytes;
                    if let Some(&(ph, ps)) = last_start.get(&(msg.index(), packet)) {
                        audit.checks += 2;
                        if at_ns < ps - tol {
                            // A drop cannot precede the packet's last win.
                            audit.violations.push(Violation::Causality {
                                msg,
                                packet,
                                hop,
                                arrive_ns: at_ns,
                                start_ns: ps,
                            });
                        }
                        if hop != ph + 1 {
                            audit.violations.push(Violation::HopOrder {
                                msg,
                                packet,
                                hop: hop.max(1),
                                prev_start_ns: ps,
                                arrive_ns: at_ns,
                            });
                        }
                    }
                }
                TraceEvent::Deliver { msg, bytes, .. } => {
                    ledger.entry(msg.index()).or_default().delivered = Some(bytes);
                }
                TraceEvent::Drain { lost_bytes, .. } => {
                    audit.checks += 1;
                    if lost_bytes != seg_dropped {
                        audit.violations.push(Violation::DrainMismatch {
                            lost_bytes,
                            dropped_bytes: seg_dropped,
                        });
                    }
                }
                TraceEvent::Resume { at_ns, .. } => {
                    finalize(&mut audit, &mut ledger);
                    last_start.clear();
                    seg_dropped = 0;
                    resume_ns = resume_ns.max(at_ns);
                }
                _ => {}
            }
        }
        finalize(&mut audit, &mut ledger);

        // Link exclusivity across the whole spliced stream.
        for (_, mut iv) in intervals {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in iv.windows(2) {
                audit.checks += 1;
                let (_, prev_end, pm, pp) = w[0];
                let (next_start, _, nm, np) = w[1];
                if next_start < prev_end - tol {
                    audit.violations.push(Violation::LinkOverlap {
                        link: link_of(events, pm, pp).unwrap_or(LinkId(0)),
                        first: (pm, pp),
                        second: (nm, np),
                        overlap_ns: prev_end - next_start,
                    });
                }
            }
        }
        audit
    }

    /// Checks the bound invariant *simulated makespan ≥ static lower
    /// bound*. The comparison allows the auditor's absolute tolerance plus
    /// a small relative slack, so the ns-scale float accumulation of a long
    /// run is not reported as a violation.
    pub fn check_makespan_bound(&self, makespan_ns: f64, bound_ns: f64) -> TraceAudit {
        let mut audit = TraceAudit {
            checks: 1,
            ..TraceAudit::default()
        };
        if makespan_ns < bound_ns * (1.0 - 1e-9) - self.tolerance_ns {
            audit.violations.push(Violation::MakespanBelowBound {
                makespan_ns,
                bound_ns,
            });
        }
        audit
    }

    /// Audits a fast-path trace against the per-packet reference trace of
    /// the same DAG: every train's first/last start must be at or after the
    /// reference engine's corresponding packet starts (the per-packet lower
    /// bound), and deliveries must agree within tolerance.
    pub fn check_fast_path(&self, fast: &[TraceEvent], reference: &[TraceEvent]) -> TraceAudit {
        let tol = self.tolerance_ns;
        let mut audit = TraceAudit::default();
        // Reference per (msg, hop): start of packet 0 and of the last packet.
        let mut ref_first: HashMap<(usize, u32), f64> = HashMap::new();
        let mut ref_last: HashMap<(usize, u32), (u64, f64)> = HashMap::new();
        let mut ref_deliver: HashMap<usize, f64> = HashMap::new();
        for ev in reference {
            match *ev {
                TraceEvent::PacketHop {
                    msg,
                    packet,
                    hop,
                    start_ns,
                    ..
                } => {
                    if packet == 0 {
                        ref_first.insert((msg.index(), hop), start_ns);
                    }
                    let e = ref_last.entry((msg.index(), hop)).or_insert((0, start_ns));
                    if packet >= e.0 {
                        *e = (packet, start_ns);
                    }
                }
                TraceEvent::Deliver { msg, at_ns, .. } => {
                    ref_deliver.insert(msg.index(), at_ns);
                }
                _ => {}
            }
        }
        // Fast-path per (msg, hop) first/last starts. A TrainSplit
        // supersedes the tail timing of the matching TrainHop (the split
        // re-serves the tail behind an interloper), so the maps are built
        // first and compared after.
        let mut fast_trains: HashMap<(usize, u32), (f64, f64)> = HashMap::new();
        for ev in fast {
            match *ev {
                TraceEvent::TrainHop {
                    msg,
                    hop,
                    first_start_ns,
                    last_start_ns,
                    ..
                } => {
                    fast_trains.insert((msg.index(), hop), (first_start_ns, last_start_ns));
                }
                TraceEvent::TrainSplit {
                    msg,
                    hop,
                    last_start_ns,
                    ..
                } => {
                    if let Some(e) = fast_trains.get_mut(&(msg.index(), hop)) {
                        e.1 = last_start_ns;
                    }
                }
                TraceEvent::Deliver { msg, at_ns, .. } => {
                    if let Some(&r) = ref_deliver.get(&msg.index()) {
                        audit.checks += 1;
                        if (at_ns - r).abs() > tol {
                            audit.violations.push(Violation::DeliveryMismatch {
                                msg,
                                fast_ns: at_ns,
                                reference_ns: r,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        for (&(mi, hop), &(first_start_ns, last_start_ns)) in &fast_trains {
            let msg = MsgId(mi);
            if let Some(&r0) = ref_first.get(&(mi, hop)) {
                audit.checks += 1;
                if first_start_ns < r0 - tol {
                    audit.violations.push(Violation::FastPathEarly {
                        msg,
                        hop,
                        fast_ns: first_start_ns,
                        reference_ns: r0,
                    });
                }
            }
            if let Some(&(_, rl)) = ref_last.get(&(mi, hop)) {
                audit.checks += 1;
                if last_start_ns < rl - tol {
                    audit.violations.push(Violation::FastPathEarly {
                        msg,
                        hop,
                        fast_ns: last_start_ns,
                        reference_ns: rl,
                    });
                }
            }
        }
        audit
    }
}

/// The primary timestamp of an event, for splice-causality ordering.
fn event_time(ev: &TraceEvent) -> f64 {
    match *ev {
        TraceEvent::Inject { at_ns, .. }
        | TraceEvent::Deliver { at_ns, .. }
        | TraceEvent::Reduce { at_ns, .. }
        | TraceEvent::FaultArrival { at_ns, .. }
        | TraceEvent::PacketDrop { at_ns, .. }
        | TraceEvent::Drain { at_ns, .. }
        | TraceEvent::Resume { at_ns, .. } => at_ns,
        TraceEvent::PacketHop { arrive_ns, .. } | TraceEvent::TrainHop { arrive_ns, .. } => {
            arrive_ns
        }
        TraceEvent::TrainSplit { first_start_ns, .. } => first_start_ns,
    }
}

/// The link a given (msg, packet) traversed, for overlap diagnostics.
fn link_of(events: &[TraceEvent], m: MsgId, p: u64) -> Option<LinkId> {
    events.iter().find_map(|e| match *e {
        TraceEvent::PacketHop {
            msg, packet, link, ..
        } if msg == m && packet == p => Some(link),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_topo::NodeId;

    fn inject(i: usize, bytes: u64, packets: u64, at: f64) -> TraceEvent {
        TraceEvent::Inject {
            msg: MsgId(i),
            src: NodeId(0),
            dst: NodeId(1),
            bytes,
            packets,
            at_ns: at,
        }
    }

    fn hop(
        i: usize,
        p: u64,
        h: u32,
        bytes: u64,
        arrive: f64,
        start: f64,
        until: f64,
    ) -> TraceEvent {
        TraceEvent::PacketHop {
            msg: MsgId(i),
            packet: p,
            hop: h,
            link: LinkId(0),
            bytes,
            arrive_ns: arrive,
            start_ns: start,
            busy_until_ns: until,
        }
    }

    fn deliver(i: usize, bytes: u64, at: f64) -> TraceEvent {
        TraceEvent::Deliver {
            msg: MsgId(i),
            bytes,
            at_ns: at,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let a = InvariantAuditor::new();
        let events = vec![
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 100, 46.0),
        ];
        let audit = a.check_trace(&events);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.checks >= 3);
    }

    #[test]
    fn missing_delivery_is_flagged() {
        let a = InvariantAuditor::new();
        let audit = a.check_trace(&[inject(0, 100, 1, 0.0)]);
        assert!(matches!(
            audit.violations[..],
            [Violation::MissingDelivery { msg: MsgId(0) }]
        ));
    }

    #[test]
    fn byte_mismatch_is_conservation_violation() {
        let a = InvariantAuditor::new();
        let audit = a.check_trace(&[
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 64, 46.0),
        ]);
        assert!(audit.violations.iter().any(|v| matches!(
            v,
            Violation::Conservation {
                injected: 100,
                delivered: 64,
                ..
            }
        )));
    }

    #[test]
    fn lost_packet_is_flagged_per_hop() {
        let a = InvariantAuditor::new();
        // Two packets injected, only one crosses the link.
        let audit = a.check_trace(&[
            inject(0, 16384, 2, 0.0),
            hop(0, 0, 0, 8192, 0.0, 0.0, 348.0),
            deliver(0, 16384, 700.0),
        ]);
        assert!(audit.violations.iter().any(|v| matches!(
            v,
            Violation::PacketLoss {
                packets_seen: 1,
                ..
            }
        )));
    }

    #[test]
    fn start_before_arrival_is_causality_violation() {
        let a = InvariantAuditor::new();
        let audit = a.check_trace(&[
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 50.0, 40.0, 70.0),
            deliver(0, 100, 91.0),
        ]);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Causality { .. })));
    }

    #[test]
    fn overlapping_busy_intervals_are_flagged() {
        let a = InvariantAuditor::new();
        let audit = a.check_trace(&[
            inject(0, 100, 1, 0.0),
            inject(1, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            hop(1, 0, 0, 100, 0.0, 10.0, 35.0), // starts mid-occupancy
            deliver(0, 100, 46.0),
            deliver(1, 100, 56.0),
        ]);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LinkOverlap { .. })));
    }

    #[test]
    fn tolerance_suppresses_float_noise() {
        let a = InvariantAuditor::new();
        let audit = a.check_trace(&[
            inject(0, 100, 1, 0.0),
            // Start "before" arrival by well under the tolerance.
            hop(0, 0, 0, 100, 10.0, 10.0 - 1e-9, 35.0),
            deliver(0, 100, 56.0),
        ]);
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn makespan_bound_invariant() {
        let a = InvariantAuditor::new();
        assert!(a.check_makespan_bound(1000.0, 900.0).is_clean());
        assert!(a.check_makespan_bound(1000.0, 1000.0).is_clean());
        // Sub-tolerance undercut is float noise, not a violation.
        assert!(a.check_makespan_bound(1000.0 - 1e-8, 1000.0).is_clean());
        let bad = a.check_makespan_bound(900.0, 1000.0);
        assert!(matches!(
            bad.violations[..],
            [Violation::MakespanBelowBound { .. }]
        ));
    }

    fn drop_ev(i: usize, p: u64, h: u32, bytes: u64, at: f64) -> TraceEvent {
        TraceEvent::PacketDrop {
            msg: MsgId(i),
            packet: p,
            hop: h,
            link: LinkId(0),
            bytes,
            at_ns: at,
        }
    }

    #[test]
    fn online_trace_clean_splice_passes() {
        let a = InvariantAuditor::new();
        let events = vec![
            // Prefix: one message delivers, one drops mid-route.
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 100, 46.0),
            inject(1, 50, 1, 0.0),
            drop_ev(1, 0, 0, 50, 60.0),
            TraceEvent::FaultArrival {
                link: Some(LinkId(0)),
                node: None,
                at_ns: 60.0,
            },
            TraceEvent::Drain {
                at_ns: 60.0,
                lost_msgs: 1,
                lost_bytes: 50,
            },
            TraceEvent::Resume {
                at_ns: 100.0,
                suffix_msgs: 1,
            },
            // Suffix segment: ids restart at 0.
            inject(0, 50, 1, 100.0),
            hop(0, 0, 0, 50, 100.0, 100.0, 125.0),
            deliver(0, 50, 146.0),
        ];
        let audit = a.check_online_trace(&events);
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn online_trace_flags_pre_resume_suffix_traffic() {
        let a = InvariantAuditor::new();
        let events = vec![
            TraceEvent::Resume {
                at_ns: 500.0,
                suffix_msgs: 1,
            },
            inject(0, 100, 1, 400.0), // starts before the resume point
            hop(0, 0, 0, 100, 400.0, 400.0, 425.0),
            deliver(0, 100, 446.0),
        ];
        let audit = a.check_online_trace(&events);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SpliceCausality { .. })));
    }

    #[test]
    fn online_trace_flags_vanished_message() {
        let a = InvariantAuditor::new();
        // Injected, never delivered, never dropped: bytes vanished.
        let audit = a.check_online_trace(&[inject(0, 100, 1, 0.0)]);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDelivery { .. })));
    }

    #[test]
    fn online_trace_flags_delivered_message_with_drops() {
        let a = InvariantAuditor::new();
        let audit = a.check_online_trace(&[
            inject(0, 100, 2, 0.0),
            drop_ev(0, 1, 0, 50, 10.0),
            deliver(0, 100, 46.0),
        ]);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DropAccounting { .. })));
    }

    #[test]
    fn online_trace_flags_drain_summary_mismatch() {
        let a = InvariantAuditor::new();
        let audit = a.check_online_trace(&[
            inject(0, 100, 1, 0.0),
            drop_ev(0, 0, 0, 100, 10.0),
            TraceEvent::Drain {
                at_ns: 10.0,
                lost_msgs: 1,
                lost_bytes: 64, // should be 100
            },
        ]);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DrainMismatch { .. })));
    }

    #[test]
    fn online_trace_flags_cross_segment_link_overlap() {
        let a = InvariantAuditor::new();
        let events = vec![
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 500.0),
            deliver(0, 100, 46.0),
            TraceEvent::Resume {
                at_ns: 100.0,
                suffix_msgs: 1,
            },
            inject(0, 100, 1, 100.0),
            // Wins the same link while the prefix's tail still holds it.
            hop(0, 0, 0, 100, 100.0, 100.0, 525.0),
            deliver(0, 100, 146.0),
        ];
        let audit = a.check_online_trace(&events);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LinkOverlap { .. })));
    }

    #[test]
    fn fast_path_start_before_reference_is_flagged() {
        let a = InvariantAuditor::new();
        let reference = vec![
            inject(0, 8192, 1, 0.0),
            hop(0, 0, 0, 8192, 0.0, 100.0, 448.68),
            deliver(0, 8192, 469.0),
        ];
        let fast = vec![
            inject(0, 8192, 1, 0.0),
            TraceEvent::TrainHop {
                msg: MsgId(0),
                hop: 0,
                link: LinkId(0),
                packets: 1,
                arrive_ns: 0.0,
                first_start_ns: 50.0, // beats the reference's 100.0
                last_start_ns: 50.0,
            },
            deliver(0, 8192, 419.0),
        ];
        let audit = a.check_fast_path(&fast, &reference);
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FastPathEarly { .. })));
        assert!(audit
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeliveryMismatch { .. })));
    }
}
