//! Instruments the benchmark wraps around the layers' public calls: a
//! schedule lowering it can time on its own, counting op and trace sinks,
//! and an in-memory span recorder.

use std::fmt::Write as _;
use std::time::Instant;

use meshcoll_collectives::{
    Algorithm, CollectiveError, OpId, OpKind, OpSink, Schedule, ScheduleOptions,
};
use meshcoll_noc::{Message, MsgId, NocConfig, TraceEvent, TraceSink};
use meshcoll_topo::{Mesh, NodeId};

/// Lowers an op stream into the packet engine's message DAG: op `k`
/// becomes message `k` with its dependencies, which is the mapping
/// `SimEngine` applies internally. Lowering in the benchmark lets it time
/// `PacketSim::simulate` apart from the lowering `SimEngine::run` does.
#[derive(Debug, Default)]
pub struct Lowering {
    /// The lowered DAG.
    pub messages: Vec<Message>,
}

impl Lowering {
    /// Lowers a materialized schedule.
    pub fn of(schedule: &Schedule) -> Vec<Message> {
        let mut sink = Lowering::default();
        meshcoll_collectives::stream::replay(schedule, &mut sink);
        sink.messages
    }
}

impl OpSink for Lowering {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _offset: u64,
        bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        let id = self.messages.len();
        self.messages.push(
            Message::new(MsgId(id), src, dst, bytes)
                .with_deps(deps.iter().map(|d| MsgId(d.index()))),
        );
        OpId(u32::try_from(id).expect("schedule exceeds u32 op ids"))
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
}

/// Counts ops without keeping them.
#[derive(Debug, Default)]
struct OpCounter(u64);

/// Ops in `algorithm`'s schedule, counted as they stream out of the
/// generator (nothing is materialized).
///
/// # Errors
///
/// As for [`Algorithm::emit_with`].
pub fn count_ops(
    algorithm: Algorithm,
    mesh: &Mesh,
    bytes: u64,
    opts: &ScheduleOptions,
) -> Result<u64, CollectiveError> {
    let mut counter = OpCounter::default();
    algorithm.emit_with(mesh, bytes, opts, &mut counter)?;
    Ok(counter.0)
}

impl OpSink for OpCounter {
    fn push(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _offset: u64,
        _bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        _deps: &[OpId],
    ) -> OpId {
        let id = OpId(u32::try_from(self.0).expect("schedule exceeds u32 op ids"));
        self.0 += 1;
        id
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
}

/// Per-kind totals of a traced run's events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub injects: u64,
    /// Per-packet link traversals: the per-packet engine did this work.
    pub packet_hops: u64,
    /// Whole-train link traversals: the coalescing fast path did this work.
    pub train_hops: u64,
    pub train_splits: u64,
}

impl EventCounts {
    /// Adds another run's totals.
    pub fn add(&mut self, o: &EventCounts) {
        self.injects += o.injects;
        self.packet_hops += o.packet_hops;
        self.train_hops += o.train_hops;
        self.train_splits += o.train_splits;
    }
}

impl TraceSink for EventCounts {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Inject { .. } => self.injects += 1,
            TraceEvent::PacketHop { .. } => self.packet_hops += 1,
            TraceEvent::TrainHop { .. } => self.train_hops += 1,
            TraceEvent::TrainSplit { .. } => self.train_splits += 1,
            _ => {}
        }
    }
}

/// Latest link-win time seen on each directed link (negative: never used).
#[derive(Debug)]
pub struct LinkActivity(pub Vec<f64>);

impl LinkActivity {
    /// An empty profile for `mesh`.
    pub fn new(mesh: &Mesh) -> Self {
        LinkActivity(vec![-1.0; mesh.link_id_space()])
    }

    fn note(&mut self, link: meshcoll_topo::LinkId, at: f64) {
        let slot = &mut self.0[link.index()];
        *slot = slot.max(at);
    }
}

impl TraceSink for LinkActivity {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PacketHop { link, start_ns, .. } => self.note(link, start_ns),
            TraceEvent::TrainHop {
                link,
                last_start_ns,
                ..
            }
            | TraceEvent::TrainSplit {
                link,
                last_start_ns,
                ..
            } => self.note(link, last_start_ns),
            _ => {}
        }
    }
}

/// Packet-hops the per-packet reference engine would simulate for `dag`:
/// its cost model, used to keep reference checks within a budget.
pub fn packet_hops(mesh: &Mesh, noc: &NocConfig, dag: &[Message]) -> u64 {
    dag.iter()
        .map(|m| noc.packets_for(m.bytes) * mesh.distance(m.src, m.dst) as u64)
        .sum()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the sweep point the span belongs to.
    pub point: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Part of the call sequence the timed pass makes for this point.
    pub core: bool,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder: spans are pushed on entry, closed on exit, and
/// written out once at the end of the run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, point: usize) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            point,
            start_us,
            end_us: start_us,
            core: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let point = self.spans[parent].point;
        let id = self.open(name, Some(parent), point);
        let r = f();
        self.close(id);
        r
    }

    /// Like [`Spans::time`], for a call the timed pass also makes.
    pub fn time_core<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let r = self.time(name, parent, f);
        let last = self.spans.len() - 1;
        self.spans[last].core = true;
        r
    }

    /// Total milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty f64 `sum` is -0.0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |t, s| t + s.ms())
    }

    /// Self time per span name, in milliseconds: each span's duration minus
    /// the time its children cover (children never overlap here), sorted by
    /// decreasing self time.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ms) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += s.ms() - child,
                None => by_name.push((s.name, s.ms() - child)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// The spans as a JSON array of `{id, name, parent, point, start_us,
    /// end_us}` objects; root spans also carry their point's `label`.
    pub fn to_json(&self, label: impl Fn(usize) -> String) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"point":{},"start_us":{:.3},"end_us":{:.3}"#,
                s.name, s.point, s.start_us, s.end_us
            );
            if s.parent.is_none() {
                out.push_str(r#","label":"#);
                meshcoll_util::json::write_escaped(&mut out, &label(s.point));
            }
            out.push_str(if id + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push(']');
        out
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_noc::PacketSim;
    use meshcoll_sim::SimEngine;

    #[test]
    fn lowering_reproduces_engine_makespans_bit_for_bit() {
        let opts = ScheduleOptions::default();
        for n in [4, 5] {
            let mesh = Mesh::square(n).unwrap();
            let engine = SimEngine::paper_default();
            let sim = PacketSim::new(NocConfig::paper_default());
            for algorithm in crate::points::applicable(&mesh) {
                let s = algorithm.schedule_with(&mesh, 1 << 20, &opts).unwrap();
                let run = engine.run(&mesh, &s).unwrap();
                let ours = sim.simulate(&mesh, &Lowering::of(&s)).unwrap();
                assert_eq!(
                    run.total_time_ns.to_bits(),
                    ours.makespan_ns().to_bits(),
                    "{algorithm} on {mesh}"
                );
                // Streaming into the lowering gives the same DAG.
                let mut streamed = Lowering::default();
                algorithm
                    .emit_with(&mesh, 1 << 20, &opts, &mut streamed)
                    .unwrap();
                assert_eq!(streamed.messages, Lowering::of(&s), "{algorithm} on {mesh}");
            }
        }
    }

    #[test]
    fn counting_sink_totals_are_exact() {
        // A 1x3 row: m0 crosses two hops with 3 packets (20 KiB over 8 KiB
        // packets), m1 depends on it and crosses one hop with 1 packet.
        let mesh = Mesh::new(1, 3).unwrap();
        let dag = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(2), 20 << 10),
            Message::new(MsgId(1), NodeId(2), NodeId(1), 4 << 10).with_deps([MsgId(0)]),
        ];
        let sim = PacketSim::new(NocConfig::paper_default());
        let mut reference = EventCounts::default();
        sim.run_reference_traced(&mesh, &dag, &mut reference)
            .unwrap();
        let expect = EventCounts {
            injects: 2,
            packet_hops: 3 * 2 + 1,
            train_hops: 0,
            train_splits: 0,
        };
        assert_eq!(reference, expect);
        assert_eq!(packet_hops(&mesh, sim.config(), &dag), 7);
        // The fast path moves each message as one train per hop.
        let mut fast = EventCounts::default();
        sim.simulate_traced(&mesh, &dag, &mut fast).unwrap();
        assert_eq!(
            fast,
            EventCounts {
                packet_hops: 0,
                train_hops: 3,
                ..expect
            }
        );
        let mut total = reference;
        total.add(&fast);
        assert_eq!(total.injects, 4);
        assert_eq!(total.packet_hops, 7);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let root = spans.open("point", None, 0);
        spans.time("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        spans.close(root);
        let st = spans.self_times();
        let root_self = st.iter().find(|(n, _)| *n == "point").unwrap().1;
        let child = st.iter().find(|(n, _)| *n == "child").unwrap().1;
        assert!(child >= 2.0);
        assert!((root_self + child - spans.spans[root].ms()).abs() < 1e-9);
        let json = meshcoll_util::json::parse(&spans.to_json(|p| format!("p\"{p}"))).unwrap();
        let json = json.as_array().unwrap();
        assert_eq!(json.len(), 2);
        let label = |i: usize| {
            json[i]
                .get("label")
                .and_then(|l| l.as_str().map(str::to_owned))
        };
        assert_eq!(label(0).as_deref(), Some("p\"0"));
        assert_eq!(label(1), None);
    }
}
