//! Streaming invariant auditing for the network engines.
//!
//! The [`InvariantAuditor`] is a [`TraceSink`]: pass it to any traced run
//! and it checks each [`TraceEvent`] as the engine emits it, keeping only
//! each directed link's last busy window and a ledger per message not yet
//! delivered; [`InvariantAuditor::finish`] closes the stream and returns
//! the verdict. One stream may splice the segments of an online run,
//! separated by [`TraceEvent::Resume`] markers; message ids restart at 0 in
//! each segment, so per-message state resets there while the physical
//! invariants span the whole stream:
//!
//! * **Conservation** — a delivered message delivers exactly its injected
//!   bytes and drops nothing, and every hop of its route carried all of its
//!   packets and bytes (the per-hop census). An undelivered message
//!   accounts for the loss with at least one drop and never drops more than
//!   it injected. Each [`TraceEvent::Drain`] equals the bytes its segment
//!   dropped, and no event names a message after its delivery.
//! * **Causality and hop order** — no packet or train head wins a link
//!   before arriving there, and no busy window ends before it starts. Each
//!   packet (of a train, its head) crosses its route's hops in order, and
//!   reaches hop `h+1`, or drops there, no earlier than it won hop `h`.
//! * **Splice causality** — no event precedes the latest resume time: a
//!   repaired suffix moves no traffic before it resumes.
//! * **Link exclusivity** — each packet's busy window on a directed link
//!   starts at or after the previous window there ended, across segments
//!   too. Checking against the link's last window alone is sound because
//!   the per-packet engine serves each link FIFO: in emission order, a
//!   link's windows are disjoint exactly when each follows the one before.
//!   Trains carry no busy windows, so a fast-path stream is not checked for
//!   exclusivity.
//!
//! The engines keep exact picosecond clocks and convert to nanoseconds
//! monotonically, so every comparison is exact: a correct run needs no
//! tolerance. [`InvariantAuditor::check_makespan_bound`] compares a
//! makespan with a static lower bound. Schedule-level conformance
//! (dependencies, reduce in-degree, the AllReduce post-condition) lives
//! above the NoC, in `meshcoll-sim`.

use std::fmt;

use meshcoll_topo::LinkId;

use crate::online::ReportDiff;
use crate::trace::{TraceEvent, TraceSink};
use crate::MsgId;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// An injected message was neither delivered nor dropped.
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
    /// A hop of a delivered message's route saw the wrong packet count or
    /// byte total.
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
    /// A packet reached (or dropped at) a hop out of route order, or before
    /// it won the previous hop.
    HopOrder {
        /// The message.
        msg: MsgId,
        /// Packet index (0 for a train's head).
        packet: u64,
        /// The hop reached.
        hop: u32,
        /// The hop the packet was due at next (`None` once it dropped).
        expected: Option<u32>,
        /// When it won the previous hop, ns (`-inf` before its first).
        prev_start_ns: f64,
        /// When it reached `hop`, ns.
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
    /// A simulated makespan undercuts a certified static lower bound —
    /// either the engine teleported bytes or the bound derivation is wrong.
    MakespanBelowBound {
        /// Simulated makespan, ns.
        makespan_ns: f64,
        /// The static lower bound it undercuts, ns.
        bound_ns: f64,
    },
    /// Byte accounting broke for one message: a delivered message also
    /// dropped packets, or a lost message's drops exceed its injection
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
    /// An event names a message its segment already delivered.
    AfterDelivery {
        /// The message.
        msg: MsgId,
        /// The event's time, ns.
        at_ns: f64,
    },
    /// A run's `Auto` engine reports a value its per-packet re-run does
    /// not, which it must match bit for bit.
    EngineMismatch {
        /// The segment (0 for the first, or for a static run).
        segment: usize,
        /// The first differing completion, busy time or snapshot field,
        /// `Auto`'s value first.
        diff: ReportDiff,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingDelivery { msg } => {
                write!(f, "{msg} injected but neither delivered nor dropped")
            }
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
                expected,
                prev_start_ns,
                arrive_ns,
            } => {
                write!(f, "{msg} packet {packet} reaches hop {hop} at {arrive_ns} ns")?;
                match expected {
                    Some(e) => write!(f, "; due at hop {e} after winning at {prev_start_ns} ns"),
                    None => write!(f, " after it dropped"),
                }
            }
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
            Violation::AfterDelivery { msg, at_ns } => {
                write!(f, "{msg} has an event at {at_ns} ns after its delivery")
            }
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

    /// Counts one comparison, recording `violation` when it fails.
    fn check(&mut self, holds: bool, violation: impl FnOnce() -> Violation) {
        self.checks += 1;
        if !holds {
            self.violations.push(violation());
        }
    }
}

/// The busy window last committed on one directed link.
#[derive(Debug, Clone, Copy)]
struct Window {
    until_ns: f64,
    holder: (MsgId, u64),
}

/// Where one packet (or a train's head) stands on its route.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// The hop it may cross or drop at next; `None` once it dropped.
    next: Option<u32>,
    /// When it won the hop before `next`, ns.
    won_ns: f64,
}

impl Cursor {
    const START: Cursor = Cursor {
        next: Some(0),
        won_ns: f64::NEG_INFINITY,
    };

    /// Checks that packet `packet` of `msg` may reach `hop` at `at_ns`.
    fn check(self, audit: &mut TraceAudit, (msg, packet, hop): (MsgId, u64, u32), at_ns: f64) {
        audit.check(self.next == Some(hop) && at_ns >= self.won_ns, || {
            Violation::HopOrder {
                msg,
                packet,
                hop,
                expected: self.next,
                prev_start_ns: self.won_ns,
                arrive_ns: at_ns,
            }
        });
    }
}

/// One message of the current segment, from its first event to its
/// delivery.
#[derive(Debug)]
struct Ledger {
    /// Bytes and packets injected (0 before its `Inject`).
    bytes: u64,
    packets: u64,
    /// Bytes dropped in flight.
    dropped: u64,
    /// Per hop: packets and bytes that crossed it.
    census: Vec<(u64, u64)>,
    /// The train's head, which `TrainHop`s advance.
    head: Cursor,
    /// Per packet, from the first `PacketHop` or `PacketDrop` of a message
    /// with no `TrainHop`.
    packets_at: Vec<Cursor>,
}

impl Ledger {
    /// Counts `packets` packets and `bytes` bytes across `hop`.
    fn count(&mut self, hop: u32, packets: u64, bytes: u64) {
        let hop = hop as usize;
        if self.census.len() <= hop {
            self.census.resize(hop + 1, (0, 0));
        }
        self.census[hop].0 += packets;
        self.census[hop].1 += bytes;
    }

    /// Packet `packet`'s cursor; `None` past the injected count.
    fn packet(&mut self, packet: u64) -> Option<&mut Cursor> {
        if self.packets_at.is_empty() {
            self.packets_at.resize(self.packets as usize, Cursor::START);
        }
        usize::try_from(packet)
            .ok()
            .and_then(|p| self.packets_at.get_mut(p))
    }
}

/// A message id's state within the current segment.
#[derive(Debug, Default)]
enum Slot {
    #[default]
    Unseen,
    /// Released at its delivery.
    Live(Box<Ledger>),
    Delivered,
}

/// The per-message state of the current segment.
#[derive(Debug, Default)]
struct Segment {
    /// Indexed by message id.
    msgs: Vec<Slot>,
    /// Bytes the segment's drops account for.
    dropped: u64,
}

impl Segment {
    /// The ledger of `msg`, opened at its first event. After its delivery
    /// there is none: the event at `at_ns` is a violation.
    fn ledger(&mut self, audit: &mut TraceAudit, msg: MsgId, at_ns: f64) -> Option<&mut Ledger> {
        let i = msg.index();
        if self.msgs.len() <= i {
            self.msgs.resize_with(i + 1, Slot::default);
        }
        let slot = &mut self.msgs[i];
        if let Slot::Unseen = slot {
            *slot = Slot::Live(Box::new(Ledger {
                bytes: 0,
                packets: 0,
                dropped: 0,
                census: Vec::new(),
                head: Cursor::START,
                packets_at: Vec::new(),
            }));
        }
        match slot {
            Slot::Live(l) => Some(l.as_mut()),
            _ => {
                audit
                    .violations
                    .push(Violation::AfterDelivery { msg, at_ns });
                None
            }
        }
    }

    /// Checks `msg`'s byte accounting and hop census at its delivery, then
    /// releases its ledger.
    fn deliver(&mut self, audit: &mut TraceAudit, msg: MsgId, bytes: u64, at_ns: f64) {
        let Some(l) = self.ledger(audit, msg, at_ns) else {
            return;
        };
        let (injected, dropped) = (l.bytes, l.dropped);
        audit.check(bytes == injected, || Violation::Conservation {
            msg,
            injected,
            delivered: bytes,
        });
        audit.check(dropped == 0, || Violation::DropAccounting {
            msg,
            injected,
            delivered: bytes,
            dropped,
        });
        if dropped == 0 {
            for (hop, &(packets, seen)) in l.census.iter().enumerate() {
                audit.check(packets == l.packets && seen == injected, || {
                    Violation::PacketLoss {
                        msg,
                        hop: hop as u32,
                        packets_seen: packets,
                        packets_injected: l.packets,
                    }
                });
            }
        }
        self.msgs[msg.index()] = Slot::Delivered;
    }

    /// Ends the segment: every message still undelivered must account for
    /// its loss with drops.
    fn close(&mut self, audit: &mut TraceAudit) {
        for (i, slot) in self.msgs.drain(..).enumerate() {
            let Slot::Live(l) = slot else {
                continue;
            };
            let msg = MsgId(i);
            audit.check(l.dropped > 0, || Violation::MissingDelivery { msg });
            if l.dropped > 0 {
                audit.check(l.dropped <= l.bytes, || Violation::DropAccounting {
                    msg,
                    injected: l.bytes,
                    delivered: 0,
                    dropped: l.dropped,
                });
            }
        }
        self.dropped = 0;
    }
}

/// Checks the engine invariants over a trace as it streams in. See the
/// module docs for the invariant catalogue.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    audit: TraceAudit,
    /// The latest resume time seen, ns.
    resume_ns: f64,
    /// Per link index: its last busy window.
    links: Vec<Option<Window>>,
    segment: Segment,
}

impl InvariantAuditor {
    /// An auditor that has seen no events.
    pub fn new() -> Self {
        InvariantAuditor::default()
    }

    /// Closes the stream, accounting for every message its last segment
    /// left undelivered, and returns the verdict.
    pub fn finish(mut self) -> TraceAudit {
        self.segment.close(&mut self.audit);
        self.audit
    }

    /// Checks the bound invariant *simulated makespan ≥ static lower
    /// bound*. The bound is derived in floating point, so the comparison
    /// allows 1e-6 ns plus a relative slack of 1e-9.
    pub fn check_makespan_bound(&self, makespan_ns: f64, bound_ns: f64) -> TraceAudit {
        let undercut = makespan_ns < bound_ns * (1.0 - 1e-9) - 1e-6;
        let mut audit = TraceAudit::default();
        audit.check(!undercut, || Violation::MakespanBelowBound {
            makespan_ns,
            bound_ns,
        });
        audit
    }
}

impl TraceSink for InvariantAuditor {
    fn record(&mut self, event: TraceEvent) {
        let InvariantAuditor {
            audit,
            resume_ns,
            links,
            segment,
        } = self;
        let at_ns = event_time(&event);
        let resume = *resume_ns;
        audit.check(at_ns >= resume, || Violation::SpliceCausality {
            at_ns,
            resume_ns: resume,
        });
        match event {
            TraceEvent::Inject {
                msg,
                bytes,
                packets,
                ..
            } => {
                if let Some(l) = segment.ledger(audit, msg, at_ns) {
                    l.bytes = bytes;
                    l.packets = packets;
                }
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
                audit.check(arrive_ns <= start_ns && start_ns <= busy_until_ns, || {
                    Violation::Causality {
                        msg,
                        packet,
                        hop,
                        arrive_ns,
                        start_ns,
                    }
                });
                let li = link.index();
                if links.len() <= li {
                    links.resize(li + 1, None);
                }
                if let Some(w) = links[li] {
                    audit.check(start_ns >= w.until_ns, || Violation::LinkOverlap {
                        link,
                        first: w.holder,
                        second: (msg, packet),
                        overlap_ns: w.until_ns - start_ns,
                    });
                }
                links[li] = Some(Window {
                    until_ns: busy_until_ns,
                    holder: (msg, packet),
                });
                if let Some(l) = segment.ledger(audit, msg, at_ns) {
                    l.count(hop, 1, bytes);
                    if let Some(c) = l.packet(packet) {
                        c.check(audit, (msg, packet, hop), arrive_ns);
                        *c = Cursor {
                            next: Some(hop + 1),
                            won_ns: start_ns,
                        };
                    }
                }
            }
            TraceEvent::TrainHop {
                msg,
                hop,
                packets,
                arrive_ns,
                first_start_ns,
                last_start_ns,
                ..
            } => {
                audit.check(
                    arrive_ns <= first_start_ns && first_start_ns <= last_start_ns,
                    || Violation::Causality {
                        msg,
                        packet: 0,
                        hop,
                        arrive_ns,
                        start_ns: first_start_ns,
                    },
                );
                if let Some(l) = segment.ledger(audit, msg, at_ns) {
                    // A train event carries no byte total: count the
                    // injected bytes, so the census compares packets.
                    l.count(hop, packets, l.bytes);
                    l.head.check(audit, (msg, 0, hop), arrive_ns);
                    l.head = Cursor {
                        next: Some(hop + 1),
                        won_ns: first_start_ns,
                    };
                }
            }
            TraceEvent::TrainSplit {
                msg,
                hop,
                first_start_ns,
                last_start_ns,
                ..
            } => {
                // Supersedes the tail timing of the matching TrainHop,
                // whose packets were already counted.
                audit.check(first_start_ns <= last_start_ns, || Violation::Causality {
                    msg,
                    packet: 0,
                    hop,
                    arrive_ns: first_start_ns,
                    start_ns: last_start_ns,
                });
                segment.ledger(audit, msg, at_ns);
            }
            TraceEvent::PacketDrop {
                msg,
                packet,
                hop,
                bytes,
                ..
            } => {
                segment.dropped += bytes;
                if let Some(l) = segment.ledger(audit, msg, at_ns) {
                    l.dropped += bytes;
                    // A train's packets drop where its head is due next.
                    if l.head.next != Some(0) {
                        l.head.check(audit, (msg, packet, hop), at_ns);
                    } else if let Some(c) = l.packet(packet) {
                        c.check(audit, (msg, packet, hop), at_ns);
                        c.next = None;
                    }
                }
            }
            TraceEvent::Deliver { msg, bytes, .. } => segment.deliver(audit, msg, bytes, at_ns),
            TraceEvent::Drain { lost_bytes, .. } => {
                let dropped_bytes = segment.dropped;
                audit.check(lost_bytes == dropped_bytes, || Violation::DrainMismatch {
                    lost_bytes,
                    dropped_bytes,
                });
            }
            TraceEvent::Resume { at_ns, .. } => {
                segment.close(audit);
                *resume_ns = resume.max(at_ns);
            }
            TraceEvent::Reduce { .. } | TraceEvent::FaultArrival { .. } => {}
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_topo::NodeId;

    /// Streams `events` through a fresh auditor.
    fn audit(events: &[TraceEvent]) -> TraceAudit {
        let mut a = InvariantAuditor::new();
        for &e in events {
            a.record(e);
        }
        a.finish()
    }

    /// Whether auditing `events` reports a violation matching `pred`.
    fn flags(events: &[TraceEvent], pred: impl Fn(&Violation) -> bool) -> bool {
        audit(events).violations.iter().any(pred)
    }

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
            link: LinkId(h as usize),
            bytes,
            arrive_ns: arrive,
            start_ns: start,
            busy_until_ns: until,
        }
    }

    fn train(i: usize, h: u32, packets: u64, arrive: f64, first: f64, last: f64) -> TraceEvent {
        TraceEvent::TrainHop {
            msg: MsgId(i),
            hop: h,
            link: LinkId(h as usize),
            packets,
            arrive_ns: arrive,
            first_start_ns: first,
            last_start_ns: last,
        }
    }

    fn deliver(i: usize, bytes: u64, at: f64) -> TraceEvent {
        TraceEvent::Deliver {
            msg: MsgId(i),
            bytes,
            at_ns: at,
        }
    }

    fn drop_ev(i: usize, p: u64, h: u32, bytes: u64, at: f64) -> TraceEvent {
        TraceEvent::PacketDrop {
            msg: MsgId(i),
            packet: p,
            hop: h,
            link: LinkId(h as usize),
            bytes,
            at_ns: at,
        }
    }

    fn drain(at: f64, lost_msgs: u64, lost_bytes: u64) -> TraceEvent {
        TraceEvent::Drain {
            at_ns: at,
            lost_msgs,
            lost_bytes,
        }
    }

    fn resume(at: f64) -> TraceEvent {
        TraceEvent::Resume {
            at_ns: at,
            suffix_msgs: 1,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let audit = audit(&[
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 100, 46.0),
        ]);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.checks >= 3);
    }

    #[test]
    fn missing_delivery_is_flagged() {
        let audit = audit(&[inject(0, 100, 1, 0.0)]);
        assert!(matches!(
            audit.violations[..],
            [Violation::MissingDelivery { msg: MsgId(0) }]
        ));
    }

    #[test]
    fn byte_mismatch_is_conservation_violation() {
        assert!(flags(
            &[
                inject(0, 100, 1, 0.0),
                hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
                deliver(0, 64, 46.0),
            ],
            |v| matches!(
                v,
                Violation::Conservation {
                    injected: 100,
                    delivered: 64,
                    ..
                }
            )
        ));
    }

    #[test]
    fn lost_packet_is_flagged_per_hop() {
        // Two packets injected, only one crosses the link.
        assert!(flags(
            &[
                inject(0, 16384, 2, 0.0),
                hop(0, 0, 0, 8192, 0.0, 0.0, 348.0),
                deliver(0, 16384, 700.0),
            ],
            |v| matches!(
                v,
                Violation::PacketLoss {
                    packets_seen: 1,
                    ..
                }
            )
        ));
    }

    #[test]
    fn start_before_arrival_is_causality_violation() {
        assert!(flags(
            &[
                inject(0, 100, 1, 0.0),
                hop(0, 0, 0, 100, 50.0, 40.0, 70.0),
                deliver(0, 100, 91.0),
            ],
            |v| matches!(v, Violation::Causality { .. })
        ));
    }

    #[test]
    fn overlapping_busy_intervals_are_flagged() {
        assert!(flags(
            &[
                inject(0, 100, 1, 0.0),
                inject(1, 100, 1, 0.0),
                hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
                hop(1, 0, 0, 100, 0.0, 10.0, 35.0), // starts mid-occupancy
                deliver(0, 100, 46.0),
                deliver(1, 100, 56.0),
            ],
            |v| matches!(
                v,
                Violation::LinkOverlap {
                    link: LinkId(0),
                    first: (MsgId(0), 0),
                    second: (MsgId(1), 0),
                    ..
                }
            )
        ));
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

    #[test]
    fn online_trace_clean_splice_passes() {
        let audit = audit(&[
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
            drain(60.0, 1, 50),
            resume(100.0),
            // Suffix segment: ids restart at 0.
            inject(0, 50, 1, 100.0),
            hop(0, 0, 0, 50, 100.0, 100.0, 125.0),
            deliver(0, 50, 146.0),
        ]);
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn online_trace_flags_pre_resume_suffix_traffic() {
        assert!(flags(
            &[
                resume(500.0),
                inject(0, 100, 1, 400.0), // starts before the resume point
                hop(0, 0, 0, 100, 400.0, 400.0, 425.0),
                deliver(0, 100, 446.0),
            ],
            |v| matches!(v, Violation::SpliceCausality { .. })
        ));
    }

    #[test]
    fn online_trace_flags_vanished_message() {
        // Injected, never delivered, never dropped: bytes vanished.
        assert!(flags(&[inject(0, 100, 1, 0.0)], |v| matches!(
            v,
            Violation::MissingDelivery { .. }
        )));
    }

    #[test]
    fn online_trace_flags_delivered_message_with_drops() {
        assert!(flags(
            &[
                inject(0, 100, 2, 0.0),
                drop_ev(0, 1, 0, 50, 10.0),
                deliver(0, 100, 46.0),
            ],
            |v| matches!(v, Violation::DropAccounting { .. })
        ));
    }

    #[test]
    fn online_trace_flags_drain_summary_mismatch() {
        assert!(flags(
            &[
                inject(0, 100, 1, 0.0),
                drop_ev(0, 0, 0, 100, 10.0),
                drain(10.0, 1, 64), // should be 100
            ],
            |v| matches!(v, Violation::DrainMismatch { .. })
        ));
    }

    #[test]
    fn online_trace_flags_cross_segment_link_overlap() {
        assert!(flags(
            &[
                inject(0, 100, 1, 0.0),
                hop(0, 0, 0, 100, 0.0, 0.0, 500.0),
                deliver(0, 100, 46.0),
                resume(100.0),
                inject(0, 100, 1, 100.0),
                // Wins the same link while the prefix's tail still holds it.
                hop(0, 0, 0, 100, 100.0, 100.0, 525.0),
                deliver(0, 100, 146.0),
            ],
            |v| matches!(v, Violation::LinkOverlap { .. })
        ));
    }

    #[test]
    fn online_trace_flags_hops_out_of_order() {
        let prefix = [
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 100, 46.0),
            resume(100.0),
            inject(0, 100, 1, 100.0),
        ];
        let hop_order = |v: &Violation| matches!(v, Violation::HopOrder { msg: MsgId(0), .. });
        // The suffix's packet reaches hop 1 before it wins hop 0 ...
        let early = [
            hop(0, 0, 0, 100, 100.0, 150.0, 175.0),
            hop(0, 0, 1, 100, 121.0, 171.0, 196.0),
            deliver(0, 100, 217.0),
        ];
        assert!(flags(&[&prefix[..], &early].concat(), hop_order));
        // ... or skips hop 1 on its way to hop 2.
        let skip = [
            hop(0, 0, 0, 100, 100.0, 100.0, 125.0),
            hop(0, 0, 2, 100, 121.0, 121.0, 146.0),
            deliver(0, 100, 167.0),
        ];
        assert!(flags(&[&prefix[..], &skip].concat(), hop_order));
        // In order, the same stream is clean.
        let ordered = [
            hop(0, 0, 0, 100, 100.0, 100.0, 125.0),
            hop(0, 0, 1, 100, 121.0, 121.0, 146.0),
            deliver(0, 100, 167.0),
        ];
        let clean = audit(&[&prefix[..], &ordered].concat());
        assert!(clean.is_clean(), "{:?}", clean.violations);
    }

    #[test]
    fn online_trace_flags_a_packet_lost_at_one_hop() {
        // A suffix message with no drops whose second packet never crosses
        // hop 1, yet delivers in full.
        assert!(flags(
            &[
                resume(100.0),
                inject(0, 16384, 2, 100.0),
                hop(0, 0, 0, 8192, 100.0, 100.0, 450.0),
                hop(0, 1, 0, 8192, 100.0, 450.0, 800.0),
                hop(0, 0, 1, 8192, 121.0, 121.0, 471.0),
                deliver(0, 16384, 1200.0),
            ],
            |v| matches!(
                v,
                Violation::PacketLoss {
                    hop: 1,
                    packets_seen: 1,
                    packets_injected: 2,
                    ..
                }
            )
        ));
    }

    #[test]
    fn single_segment_drain_must_match_its_drops() {
        let run = |lost_bytes| {
            audit(&[
                inject(0, 100, 1, 0.0),
                hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
                deliver(0, 100, 46.0),
                inject(1, 8192 * 2, 2, 0.0),
                hop(1, 0, 0, 8192, 0.0, 25.0, 375.0),
                drop_ev(1, 1, 0, 8192, 375.0),
                drop_ev(1, 0, 1, 8192, 400.0),
                drain(400.0, 1, lost_bytes),
            ])
        };
        let exact = run(16384);
        assert!(exact.is_clean(), "{:?}", exact.violations);
        assert!(matches!(
            run(8192).violations[..],
            [Violation::DrainMismatch {
                lost_bytes: 8192,
                dropped_bytes: 16384
            }]
        ));
    }

    #[test]
    fn an_event_after_delivery_is_a_violation_not_a_panic() {
        let audit = audit(&[
            inject(0, 100, 1, 0.0),
            hop(0, 0, 0, 100, 0.0, 0.0, 25.0),
            deliver(0, 100, 46.0),
            hop(0, 0, 1, 100, 21.0, 50.0, 75.0),
            deliver(0, 100, 96.0),
        ]);
        assert!(matches!(
            audit.violations[..],
            [
                Violation::AfterDelivery {
                    msg: MsgId(0),
                    at_ns: 21.0
                },
                Violation::AfterDelivery {
                    msg: MsgId(0),
                    at_ns: 96.0
                }
            ]
        ));
    }

    #[test]
    fn truncated_train_stream_is_clean() {
        // A four-packet train crosses hop 0; its last two packets drop at
        // hop 1, where the served pair travels on.
        let audit = audit(&[
            inject(0, 8192 * 4, 4, 0.0),
            train(0, 0, 4, 0.0, 0.0, 1050.0),
            drop_ev(0, 2, 1, 8192, 720.0),
            drop_ev(0, 3, 1, 8192, 1071.0),
            train(0, 1, 2, 21.0, 21.0, 371.0),
            drain(1071.0, 1, 16384),
        ]);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        // Dropping a packet where the head has not yet been is out of order.
        assert!(flags(
            &[
                inject(0, 8192 * 4, 4, 0.0),
                train(0, 0, 4, 0.0, 0.0, 1050.0),
                drop_ev(0, 3, 2, 8192, 1071.0),
            ],
            |v| matches!(v, Violation::HopOrder { hop: 2, .. })
        ));
    }

    #[test]
    fn engine_identity_flags_a_one_ulp_difference() {
        use crate::{NocConfig, NullSink, OnlineReport, PacketSim, SimMode, SimOutcome};
        use meshcoll_collectives::Algorithm;
        use meshcoll_topo::Mesh;

        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Tto.schedule(&mesh, 1 << 16).unwrap();
        let run = |mode| {
            PacketSim::new(NocConfig::paper_default())
                .with_mode(mode)
                .simulate_dag(&mesh, &s, &mut NullSink)
                .unwrap()
        };
        let (reference, auto) = (run(SimMode::PerPacket), run(SimMode::Auto));
        // Engine identity: `Auto`'s report against the reference's, bit
        // for bit.
        let mismatch = |auto: &OnlineReport| {
            auto.first_difference(&mesh, &reference)
                .map(|diff| Violation::EngineMismatch { segment: 0, diff })
        };
        assert_eq!(mismatch(&auto), None);
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);

        let (mut completion, stats) = auto.outcome.clone().into_parts();
        completion[5] = ulp(completion[5]);
        let mut late = auto.clone();
        late.outcome = SimOutcome::new(completion, stats);
        match mismatch(&late) {
            Some(Violation::EngineMismatch { segment: 0, diff }) => {
                assert_eq!((diff.field, diff.index), ("completion", Some(5)));
            }
            other => panic!("expected op 5 to differ, got {other:?}"),
        }

        // A busy time is named by its link.
        let (_, _, link) = mesh.links().nth(2).unwrap();
        let (completion, mut stats) = auto.outcome.clone().into_parts();
        stats.busy_mut()[link.index()] = ulp(stats.busy_ns(link));
        let mut busier = auto.clone();
        busier.outcome = SimOutcome::new(completion, stats);
        let v = mismatch(&busier).expect("one ulp of busy time");
        assert!(
            matches!(&v, Violation::EngineMismatch { diff, .. }
                if (diff.field, diff.index) == ("busy_ns", Some(link.index()))),
            "{v:?}"
        );
        assert!(v
            .to_string()
            .contains(&format!("busy_ns[{}] is ", link.index())));
    }
}
