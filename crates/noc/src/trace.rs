//! Structured event tracing for the network engines.
//!
//! Both engines can narrate a run as a stream of [`TraceEvent`]s — message
//! injections, per-packet and per-train link traversals (with the busy
//! interval each one holds on its directed link), deliveries, and the
//! schedule layer's reductions. Events flow through a [`TraceSink`] chosen
//! by the caller:
//!
//! * [`NullSink`] — the default. Its `record` is an inlined no-op and its
//!   [`TraceSink::ENABLED`] constant is `false`, so the engines' generic
//!   tracing code monomorphizes to nothing: the untraced hot path is
//!   bit-identical to an engine with no tracing compiled in at all.
//! * [`MemorySink`] — collects every event in a `Vec`, for inspecting a
//!   run after the fact. The [invariant auditor](crate::audit) is a sink of
//!   its own and checks the stream without buffering it.
//! * [`RingSink`] — keeps only the last `capacity` events (a flight
//!   recorder for long runs, counting what it dropped).
//! * [`JsonlSink`] — serializes each event as one JSON object per line to
//!   any `io::Write`, for offline analysis.
//!
//! Times are in nanoseconds, matching the engines throughout.

use std::collections::VecDeque;
use std::io::{self, Write};

use meshcoll_topo::{LinkId, NodeId};

use crate::MsgId;

/// One structured simulation event. See the module docs for the stream's
/// overall shape; which variants appear depends on the engine (the
/// per-packet engine emits [`TraceEvent::PacketHop`], the coalescing fast
/// path [`TraceEvent::TrainHop`], the flit engine neither — it traces at
/// message granularity only).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A message became ready and its packets entered the network.
    Inject {
        /// The message.
        msg: MsgId,
        /// Sending chiplet.
        src: NodeId,
        /// Receiving chiplet.
        dst: NodeId,
        /// Payload bytes.
        bytes: u64,
        /// Packets the payload was split into.
        packets: u64,
        /// Injection time, ns.
        at_ns: f64,
    },
    /// One packet won one directed link (per-packet engine). The link is
    /// occupied for `[start_ns, busy_until_ns)`.
    PacketHop {
        /// The message the packet belongs to.
        msg: MsgId,
        /// Packet index within the message.
        packet: u64,
        /// Hop index along the route (0 = first link).
        hop: u32,
        /// The directed link traversed.
        link: LinkId,
        /// This packet's payload bytes.
        bytes: u64,
        /// When the packet arrived at this hop, ns.
        arrive_ns: f64,
        /// When it won the link, ns (`>= arrive_ns`).
        start_ns: f64,
        /// When the link frees again (serialization + per-packet overhead).
        busy_until_ns: f64,
    },
    /// One whole packet train traversed one directed link (coalescing fast
    /// path). Individual packet starts lie on the train's start curve
    /// between `first_start_ns` and `last_start_ns`.
    TrainHop {
        /// The message (train).
        msg: MsgId,
        /// Hop index along the route.
        hop: u32,
        /// The directed link traversed.
        link: LinkId,
        /// Packets in the train.
        packets: u64,
        /// Head-packet arrival at this hop, ns.
        arrive_ns: f64,
        /// Head-packet link-win time, ns.
        first_start_ns: f64,
        /// Tail-packet link-win time, ns.
        last_start_ns: f64,
    },
    /// A later train's head landed inside this train's committed arrival
    /// window on `link`; the fast path split the train at packet
    /// `split_index` and re-served the tail behind the interloper
    /// (coalescing fast path). Supersedes the `last_start_ns` of the
    /// matching earlier [`TraceEvent::TrainHop`]; packets and bytes are
    /// *not* re-counted.
    TrainSplit {
        /// The message (train) whose committed window was split.
        msg: MsgId,
        /// Hop index along the route.
        hop: u32,
        /// The directed link the split happened on.
        link: LinkId,
        /// First packet index served after the interloper.
        split_index: u64,
        /// Head-packet link-win time, ns (unchanged by the split).
        first_start_ns: f64,
        /// Tail-packet link-win time after the split, ns.
        last_start_ns: f64,
    },
    /// A message's last packet arrived at its destination.
    Deliver {
        /// The message.
        msg: MsgId,
        /// Payload bytes delivered.
        bytes: u64,
        /// Delivery time, ns.
        at_ns: f64,
    },
    /// A timed fault from the configured
    /// [`FaultTimeline`](meshcoll_topo::FaultTimeline) fired mid-run
    /// (online engine only). Exactly one of `link`/`node` is set.
    FaultArrival {
        /// The dying directed link, for a link-death event.
        link: Option<LinkId>,
        /// The dying chiplet, for a chiplet-death event.
        node: Option<NodeId>,
        /// Death timestamp, ns.
        at_ns: f64,
    },
    /// A packet was lost: the link at this hop died before the packet could
    /// start its transmission (online engine only). The packet's bytes
    /// leave the network here — the byte-conservation audit counts them
    /// against the injection.
    PacketDrop {
        /// The message the packet belongs to.
        msg: MsgId,
        /// Packet index within the message.
        packet: u64,
        /// Hop index along the route where the packet was lost.
        hop: u32,
        /// The dead directed link the packet needed.
        link: LinkId,
        /// This packet's payload bytes.
        bytes: u64,
        /// When the packet was lost, ns.
        at_ns: f64,
    },
    /// The online engine finished draining after a mid-run fault: every
    /// in-flight packet has either delivered or dropped, and the remaining
    /// messages form the un-executed suffix handed to repair.
    Drain {
        /// Drain completion time (last event processed), ns.
        at_ns: f64,
        /// Messages of the interrupted segment left undelivered.
        lost_msgs: u64,
        /// Payload bytes dropped in flight across the segment.
        lost_bytes: u64,
    },
    /// A repaired schedule suffix resumed execution after a drain (emitted
    /// by the orchestration layer). Every later event in the stream must
    /// occur at or after `at_ns`.
    Resume {
        /// Resume time (drain time plus charged repair latency), ns.
        at_ns: f64,
        /// Messages in the repaired suffix.
        suffix_msgs: u64,
    },
    /// A reduction was applied at a chiplet (emitted by the schedule layer,
    /// which models aggregation as free — the event's time is the delivery
    /// of the operands).
    Reduce {
        /// The schedule op performing the reduction.
        op: u32,
        /// The chiplet adding the received range into its partial sum.
        node: NodeId,
        /// Start of the reduced byte range.
        offset: u64,
        /// Length of the reduced byte range.
        bytes: u64,
        /// When the reduction's input was delivered, ns.
        at_ns: f64,
    },
}

/// Receives the event stream of a traced run.
///
/// Engines guard every emission with `if T::ENABLED`, so a sink whose
/// `ENABLED` is `false` (the [`NullSink`]) costs nothing — the event is
/// never even constructed.
pub trait TraceSink {
    /// Whether this sink wants events at all. Sinks that collect events
    /// keep the default `true`.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// The do-nothing sink used by the untraced default paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects every event in order.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A fixed-capacity flight recorder: keeps the most recent `capacity`
/// events and counts how many older ones it evicted.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink needs capacity > 0");
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Streams each event as one JSON object per line (JSONL). Field names
/// match the [`TraceEvent`] variants; ids are raw indices. Write errors are
/// sticky: the first one is retained and later events are discarded.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first write error.
    ///
    /// # Errors
    ///
    /// Returns the sticky error if any write failed.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        match *event {
            TraceEvent::Inject {
                msg,
                src,
                dst,
                bytes,
                packets,
                at_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"inject","msg":{},"src":{},"dst":{},"bytes":{bytes},"packets":{packets},"at_ns":{at_ns}}}"#,
                msg.index(),
                src.index(),
                dst.index(),
            ),
            TraceEvent::PacketHop {
                msg,
                packet,
                hop,
                link,
                bytes,
                arrive_ns,
                start_ns,
                busy_until_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"packet_hop","msg":{},"packet":{packet},"hop":{hop},"link":{},"bytes":{bytes},"arrive_ns":{arrive_ns},"start_ns":{start_ns},"busy_until_ns":{busy_until_ns}}}"#,
                msg.index(),
                link.index(),
            ),
            TraceEvent::TrainHop {
                msg,
                hop,
                link,
                packets,
                arrive_ns,
                first_start_ns,
                last_start_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"train_hop","msg":{},"hop":{hop},"link":{},"packets":{packets},"arrive_ns":{arrive_ns},"first_start_ns":{first_start_ns},"last_start_ns":{last_start_ns}}}"#,
                msg.index(),
                link.index(),
            ),
            TraceEvent::TrainSplit {
                msg,
                hop,
                link,
                split_index,
                first_start_ns,
                last_start_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"train_split","msg":{},"hop":{hop},"link":{},"split_index":{split_index},"first_start_ns":{first_start_ns},"last_start_ns":{last_start_ns}}}"#,
                msg.index(),
                link.index(),
            ),
            TraceEvent::Deliver { msg, bytes, at_ns } => writeln!(
                self.out,
                r#"{{"ev":"deliver","msg":{},"bytes":{bytes},"at_ns":{at_ns}}}"#,
                msg.index(),
            ),
            TraceEvent::Reduce {
                op,
                node,
                offset,
                bytes,
                at_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"reduce","op":{op},"node":{},"offset":{offset},"bytes":{bytes},"at_ns":{at_ns}}}"#,
                node.index(),
            ),
            TraceEvent::FaultArrival { link, node, at_ns } => writeln!(
                self.out,
                r#"{{"ev":"fault_arrival","link":{},"node":{},"at_ns":{at_ns}}}"#,
                link.map_or(-1i64, |l| l.index() as i64),
                node.map_or(-1i64, |n| n.index() as i64),
            ),
            TraceEvent::PacketDrop {
                msg,
                packet,
                hop,
                link,
                bytes,
                at_ns,
            } => writeln!(
                self.out,
                r#"{{"ev":"packet_drop","msg":{},"packet":{packet},"hop":{hop},"link":{},"bytes":{bytes},"at_ns":{at_ns}}}"#,
                msg.index(),
                link.index(),
            ),
            TraceEvent::Drain {
                at_ns,
                lost_msgs,
                lost_bytes,
            } => writeln!(
                self.out,
                r#"{{"ev":"drain","at_ns":{at_ns},"lost_msgs":{lost_msgs},"lost_bytes":{lost_bytes}}}"#,
            ),
            TraceEvent::Resume { at_ns, suffix_msgs } => writeln!(
                self.out,
                r#"{{"ev":"resume","at_ns":{at_ns},"suffix_msgs":{suffix_msgs}}}"#,
            ),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match self.write_event(&event) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(i: usize, at: f64) -> TraceEvent {
        TraceEvent::Deliver {
            msg: MsgId(i),
            bytes: 8,
            at_ns: at,
        }
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut s = MemorySink::new();
        s.record(deliver(0, 1.0));
        s.record(deliver(1, 2.0));
        assert_eq!(s.events().len(), 2);
        assert!(matches!(
            s.events()[0],
            TraceEvent::Deliver { msg: MsgId(0), .. }
        ));
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let mut s = RingSink::new(2);
        for i in 0..5 {
            s.record(deliver(i, i as f64));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let kept: Vec<usize> = s
            .events()
            .map(|e| match e {
                TraceEvent::Deliver { msg, .. } => msg.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_one_valid_object_per_line() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(TraceEvent::Inject {
            msg: MsgId(3),
            src: NodeId(0),
            dst: NodeId(5),
            bytes: 8192,
            packets: 1,
            at_ns: 0.0,
        });
        s.record(deliver(3, 348.68));
        assert_eq!(s.lines(), 2);
        let text = String::from_utf8(s.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ev":"inject""#) && lines[0].contains(r#""msg":3"#));
        assert!(lines[1].contains(r#""ev":"deliver""#) && lines[1].contains("348.68"));
        // Each line must parse as a JSON object.
        for l in lines {
            assert!(meshcoll_util::json::parse(l).unwrap().is_object(), "{l}");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the consts ARE the contract
    fn null_sink_is_disabled() {
        assert!(!NullSink::ENABLED);
        assert!(MemorySink::ENABLED);
        NullSink.record(deliver(0, 0.0)); // must be callable and do nothing
    }
}
