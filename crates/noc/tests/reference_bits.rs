//! Golden bit patterns of the exact per-packet reference engine.
//!
//! The equivalence suites compare the fast path with the reference, so
//! they cannot see a change to the arithmetic or the same-instant tie order
//! the two engines share. This suite pins the reference bit for bit: each case hashes the `to_bits()` of every completion and every
//! link's busy time, the whole trace event stream, and the fields of
//! `simulate_online`'s `DrainSnapshot`, and compares the hashes with
//! digests recorded from an earlier build. A mismatch prints the full
//! table of fresh digests.
//!
//! The cases cover multi-packet messages injected onto one link at the
//! same instant, short last packets, multi-hop cut-through, degraded and
//! overridden links, transient flaps (one outage outlasting the per-packet
//! queue's horizon estimate), a static dead link, and link and chiplet
//! timelines that drop packets in flight and withhold dependents, and a
//! drain whose clock is set by a delivery rather than a link.

mod common;

use meshcoll_collectives::Algorithm;
use meshcoll_noc::{
    Message, MsgId, NocConfig, NocError, NullSink, OnlineReport, PacketSim, SimMode, SimOutcome,
    TraceEvent, TraceSink,
};
use meshcoll_topo::{LinkFlap, LinkId, Mesh, NodeId};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn time(&mut self, t: f64) {
        self.word(t.to_bits());
    }

    fn index(&mut self, i: Option<usize>) {
        self.word(i.map_or(u64::MAX, |i| i as u64));
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Completions, then busy time per link in `mesh.links()` order.
    fn outcome(&mut self, mesh: &Mesh, o: &SimOutcome) {
        for &c in o.completions() {
            self.time(c);
        }
        for (_, _, l) in mesh.links() {
            self.time(o.link_stats().busy_ns(l));
        }
    }
}

/// Hashes every event of the per-packet engine, field by field.
struct DigestSink {
    d: Digest,
    drops: usize,
    injected: Vec<bool>,
    delivered: Vec<bool>,
}

impl TraceSink for DigestSink {
    fn record(&mut self, event: TraceEvent) {
        let d = &mut self.d;
        match event {
            TraceEvent::Inject {
                msg,
                src,
                dst,
                bytes,
                packets,
                at_ns,
            } => {
                self.injected[msg.index()] = true;
                d.word(1);
                d.word(msg.index() as u64);
                d.word(src.index() as u64);
                d.word(dst.index() as u64);
                d.word(bytes);
                d.word(packets);
                d.time(at_ns);
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
                d.word(2);
                d.word(msg.index() as u64);
                d.word(packet);
                d.word(u64::from(hop));
                d.word(link.index() as u64);
                d.word(bytes);
                d.time(arrive_ns);
                d.time(start_ns);
                d.time(busy_until_ns);
            }
            TraceEvent::PacketDrop {
                msg,
                packet,
                hop,
                link,
                bytes,
                at_ns,
            } => {
                self.drops += 1;
                d.word(3);
                d.word(msg.index() as u64);
                d.word(packet);
                d.word(u64::from(hop));
                d.word(link.index() as u64);
                d.word(bytes);
                d.time(at_ns);
            }
            TraceEvent::Deliver { msg, bytes, at_ns } => {
                self.delivered[msg.index()] = true;
                d.word(4);
                d.word(msg.index() as u64);
                d.word(bytes);
                d.time(at_ns);
            }
            TraceEvent::FaultArrival { link, node, at_ns } => {
                d.word(5);
                d.index(link.map(LinkId::index));
                d.index(node.map(NodeId::index));
                d.time(at_ns);
            }
            TraceEvent::Drain {
                at_ns,
                lost_msgs,
                lost_bytes,
            } => {
                d.word(6);
                d.time(at_ns);
                d.word(lost_msgs);
                d.word(lost_bytes);
            }
            other => panic!("the per-packet engine emitted {other:?}"),
        }
    }
}

/// Digest of an online report: the outcome, then every snapshot field.
fn online_digest(mesh: &Mesh, r: &Result<OnlineReport, NocError>) -> u64 {
    let mut d = Digest::new();
    match r {
        Ok(rep) => {
            d.outcome(mesh, &rep.outcome);
            match &rep.interruption {
                None => d.word(0),
                Some(s) => {
                    d.word(1);
                    d.time(s.first_fault_ns);
                    d.time(s.drain_ns);
                    for &b in &s.delivered {
                        d.word(u64::from(b));
                    }
                    for &b in &s.delivered_bytes {
                        d.word(b);
                    }
                    d.word(s.lost_bytes);
                    d.word(s.lost_msgs as u64);
                    d.word(s.faults_applied as u64);
                    d.index(s.first_lost_msg.map(MsgId::index));
                    d.index(s.first_dead_link.map(LinkId::index));
                    d.word(s.overlay.failed_link_count() as u64);
                    d.word(s.overlay.failed_node_count() as u64);
                    d.word(s.remaining.events().len() as u64);
                }
            }
        }
        Err(e) => d.text(&format!("{e:?}")),
    }
    d.0
}

/// The four digests of one case: `simulate`'s completions and busy time,
/// the traced run's event stream, and `simulate_online`'s report under
/// the per-packet engine and under `Auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    outcome: u64,
    trace: u64,
    online: u64,
    online_auto: u64,
}

/// What running one case saw, besides its digests.
struct Seen {
    digests: Digests,
    drops: usize,
    withheld: bool,
}

fn run_case(cfg: &NocConfig, mesh: &Mesh, msgs: &[Message]) -> Seen {
    let exact = PacketSim::new(cfg.clone()).with_mode(SimMode::PerPacket);
    let mut d = Digest::new();
    match exact.simulate(mesh, msgs) {
        Ok(o) => d.outcome(mesh, &o),
        Err(e) => d.text(&format!("{e:?}")),
    }
    let outcome = d.0;
    let mut sink = DigestSink {
        d: Digest::new(),
        drops: 0,
        injected: vec![false; msgs.len()],
        delivered: vec![false; msgs.len()],
    };
    let traced = exact.simulate_online(mesh, msgs, &mut sink);
    sink.d.word(online_digest(mesh, &traced));
    let online = exact.simulate_online(mesh, msgs, &mut NullSink);
    let auto = PacketSim::new(cfg.clone()).simulate_online(mesh, msgs, &mut NullSink);
    // A message whose dependencies all delivered but that never injected
    // was withheld.
    let withheld = msgs
        .iter()
        .any(|m| !sink.injected[m.id.index()] && m.deps.iter().all(|d| sink.delivered[d.index()]));
    Seen {
        digests: Digests {
            outcome,
            trace: sink.d.0,
            online: online_digest(mesh, &online),
            online_auto: online_digest(mesh, &auto),
        },
        drops: sink.drops,
        withheld,
    }
}

/// Splitmix-style deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random backward-dependency DAG over `nodes` chiplets: whole-packet,
/// sub-packet and ragged sizes, many messages ready at the same instant.
fn random_dag(nodes: usize, n: usize, seed: u64) -> Vec<Message> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let s = rng.below(nodes as u64) as usize;
            let d = (s + 1 + rng.below(nodes as u64 - 1) as usize) % nodes;
            let bytes = match rng.below(3) {
                0 => 8192 * (1 + rng.below(8)),
                1 => 1 + rng.below(8192),
                _ => 1 + rng.below(120_000),
            };
            let ready = if rng.below(2) == 0 {
                0.0
            } else {
                (rng.below(16) * 250) as f64
            };
            let mut m = Message::new(MsgId(i), NodeId(s), NodeId(d), bytes).with_ready_at(ready);
            if i > 0 && rng.below(2) == 0 {
                m = m.with_deps([MsgId(rng.below(i as u64) as usize)]);
            }
            m
        })
        .collect()
}

/// One golden case: a name, its configuration, mesh and DAG.
fn cases() -> Vec<(&'static str, NocConfig, Mesh, Vec<Message>)> {
    let paper = NocConfig::paper_default;
    let mut out = Vec::new();

    // Three multi-packet messages (two with a short last packet) injected
    // onto link 0->1 at the same instant, a fourth joining at node 1 at the
    // same instant, and a dependent sub-packet message.
    let line3 = Mesh::new(1, 3).unwrap();
    out.push((
        "same_instant_bursts",
        paper(),
        line3.clone(),
        vec![
            Message::new(MsgId(0), NodeId(0), NodeId(2), 8192 * 4 + 100),
            Message::new(MsgId(1), NodeId(0), NodeId(2), 8192 * 3),
            Message::new(MsgId(2), NodeId(0), NodeId(1), 8192 * 5 + 1),
            Message::new(MsgId(3), NodeId(1), NodeId(2), 8192 * 2 + 4000),
            Message::new(MsgId(4), NodeId(1), NodeId(2), 500).with_deps([MsgId(0)]),
        ],
    ));

    // Four-hop cut-through in both directions, with dependencies that
    // inject mid-run onto busy links.
    let line5 = Mesh::new(1, 5).unwrap();
    out.push((
        "multi_hop_cut_through",
        paper(),
        line5.clone(),
        vec![
            Message::new(MsgId(0), NodeId(0), NodeId(4), 8192 * 6 + 17),
            Message::new(MsgId(1), NodeId(4), NodeId(0), 8192 * 3),
            Message::new(MsgId(2), NodeId(1), NodeId(3), 4000).with_ready_at(300.0),
            Message::new(MsgId(3), NodeId(0), NodeId(4), 8192 * 2).with_deps([MsgId(2)]),
            Message::new(MsgId(4), NodeId(2), NodeId(4), 8192 * 8 + 9)
                .with_deps([MsgId(0), MsgId(2)]),
            Message::new(MsgId(5), NodeId(3), NodeId(1), 8192).with_deps([MsgId(1)]),
        ],
    ));

    let m3 = Mesh::square(3).unwrap();
    let m4 = Mesh::square(4).unwrap();
    out.push(("random_4x4", paper(), m4.clone(), random_dag(16, 32, 7)));

    let mut degraded = paper();
    for (i, (_, _, l)) in m3.links().enumerate() {
        match i % 3 {
            0 => degraded.faults.degrade_link(l, 0.3),
            1 => degraded.link_overrides.push((l, 7.0)),
            _ => {}
        }
    }
    out.push((
        "degraded_and_overridden",
        degraded,
        m3.clone(),
        random_dag(9, 24, 11),
    ));

    let mut flaps = paper();
    for (i, (_, _, l)) in m3.links().enumerate() {
        if i % 3 == 0 {
            flaps.faults.add_flap(LinkFlap {
                link: l,
                down_ns: 1_000.0,
                up_ns: 6_000.0,
            });
            flaps.faults.add_flap(LinkFlap {
                link: l,
                down_ns: 9_000.0,
                up_ns: 9_500.0,
            });
        }
    }
    out.push(("flaps", flaps, m3.clone(), random_dag(9, 24, 13)));

    let mut dead = paper();
    dead.faults
        .fail_link_between(&m3, NodeId(4), NodeId(5))
        .unwrap();
    out.push(("static_dead_link", dead, m3.clone(), random_dag(9, 16, 17)));

    // Link 2->3 dies while the first message streams over it: its later
    // packets drop in flight, and the dependent that needs the link is
    // withheld.
    let line4 = Mesh::new(1, 4).unwrap();
    let mut link_death = paper();
    link_death
        .timeline
        .link_dies_at(line4.link_between(NodeId(2), NodeId(3)).unwrap(), 1_500.0);
    out.push((
        "link_timeline",
        link_death,
        line4,
        vec![
            Message::new(MsgId(0), NodeId(0), NodeId(3), 8192 * 8),
            Message::new(MsgId(1), NodeId(1), NodeId(3), 8192 * 4 + 77),
            Message::new(MsgId(2), NodeId(1), NodeId(0), 8192 * 6),
            Message::new(MsgId(3), NodeId(2), NodeId(3), 8192).with_deps([MsgId(2)]),
            Message::new(MsgId(4), NodeId(3), NodeId(2), 8192 * 3).with_deps([MsgId(2)]),
        ],
    ));

    // A header latency above the per-packet overhead: a delivered packet's
    // tail outlives its link's busy interval, so the drain clock is set by
    // the last delivery before the death, not by a link.
    let line2 = Mesh::new(1, 2).unwrap();
    let mut slow_header = paper();
    slow_header.per_flit_latency_ns = 40.0;
    slow_header
        .timeline
        .link_dies_at(line2.link_between(NodeId(0), NodeId(1)).unwrap(), 700.0);
    out.push((
        "slow_header_drain",
        slow_header,
        line2,
        vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 4)],
    ));

    // A 64 MiB DBTree whose every link goes down at 5 % of the healthy
    // makespan and comes back at 20x it: the outage outlasts the
    // per-packet queue's horizon estimate, so the run drains its backlog
    // past that horizon.
    let dbtree = common::lower(&Algorithm::DBTree.schedule(&m3, 64 << 20).unwrap());
    let healthy = PacketSim::new(paper())
        .simulate(&m3, &dbtree)
        .unwrap()
        .makespan_ns();
    let mut outage = paper();
    for (_, _, l) in m3.links() {
        outage.faults.add_flap(LinkFlap {
            link: l,
            down_ns: 0.05 * healthy,
            up_ns: 20.0 * healthy,
        });
    }
    out.push(("flaps_past_horizon", outage, m3.clone(), dbtree));

    let mut chiplet_death = paper();
    chiplet_death.timeline.chiplet_dies_at(NodeId(4), 2_000.0);
    out.push(("chiplet_timeline", chiplet_death, m3, random_dag(9, 24, 19)));

    out
}

/// Digests recorded from the reference engine, per case.
const GOLDEN: &[(&str, Digests)] = &[
    (
        "same_instant_bursts",
        Digests {
            outcome: 0x106ba4a188d17f6f,
            trace: 0x72879fd16fdee578,
            online: 0x5b7098d68078834f,
            online_auto: 0x5b7098d68078834f,
        },
    ),
    (
        "multi_hop_cut_through",
        Digests {
            outcome: 0xe1d5161a2cecf0a8,
            trace: 0x5ce6e3a7eda4e63f,
            online: 0xd483aadf84f395a8,
            online_auto: 0xd483aadf84f395a8,
        },
    ),
    (
        "random_4x4",
        Digests {
            outcome: 0x03bd4fbd3ffd2bd3,
            trace: 0x24c31c3d91f57532,
            online: 0x9da82c61964aa433,
            online_auto: 0x9da82c61964aa433,
        },
    ),
    (
        "degraded_and_overridden",
        Digests {
            outcome: 0xab4392bd1415c0ee,
            trace: 0xeca7954f49c15b55,
            online: 0xe797f6644ac4aaae,
            online_auto: 0xe797f6644ac4aaae,
        },
    ),
    (
        "flaps",
        Digests {
            outcome: 0x088740da31856d77,
            trace: 0xcf331998ce60d9d3,
            online: 0x91d03a77cbf08257,
            online_auto: 0x91d03a77cbf08257,
        },
    ),
    (
        "static_dead_link",
        Digests {
            outcome: 0x39ab03536b3737f7,
            trace: 0x4ce325388ce4205e,
            online: 0x39ab03536b3737f7,
            online_auto: 0x39ab03536b3737f7,
        },
    ),
    (
        "link_timeline",
        Digests {
            outcome: 0x1fe90a52315648a1,
            trace: 0x687b029e3010818b,
            online: 0x148ea69515f502fa,
            online_auto: 0x148ea69515f502fa,
        },
    ),
    (
        "slow_header_drain",
        Digests {
            outcome: 0xda6528c7a2ae2fd5,
            trace: 0x5f8e203a6e5e1407,
            online: 0x8a8ae02efc444299,
            online_auto: 0x8a8ae02efc444299,
        },
    ),
    (
        "flaps_past_horizon",
        Digests {
            outcome: 0xe76314ab67ca15c5,
            trace: 0xc2439ca7e884f295,
            online: 0x8b3be789d042c065,
            online_auto: 0x8b3be789d042c065,
        },
    ),
    (
        "chiplet_timeline",
        Digests {
            outcome: 0xa5a1c3a20b299eab,
            trace: 0xae097a03dc8f0f94,
            online: 0xeafaf6ef082459ec,
            online_auto: 0xeafaf6ef082459ec,
        },
    ),
];

#[test]
fn reference_engine_matches_golden_bits() {
    let mut fresh = Vec::new();
    for (name, cfg, mesh, msgs) in cases() {
        let seen = run_case(&cfg, &mesh, &msgs);
        if name.ends_with("timeline") {
            assert!(seen.drops > 0, "{name}: no packet dropped in flight");
            assert!(seen.withheld, "{name}: no message withheld");
        }
        // Whichever engine `Auto` keeps, its report is the reference's.
        assert_eq!(
            seen.digests.online, seen.digests.online_auto,
            "{name}: Auto differs from the per-packet engine"
        );
        fresh.push((name, seen.digests));
    }
    let table: String = fresh
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\n        \"{name}\",\n        Digests {{\n            outcome: {:#018x},\n            trace: {:#018x},\n            online: {:#018x},\n            online_auto: {:#018x},\n        }},\n    ),\n",
                d.outcome, d.trace, d.online, d.online_auto
            )
        })
        .collect();
    assert_eq!(
        fresh.len(),
        GOLDEN.len(),
        "case list and golden table differ in length; fresh digests:\n{table}"
    );
    for ((name, got), (gname, want)) in fresh.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            name, gname,
            "golden table out of order; fresh digests:\n{table}"
        );
        assert_eq!(
            got, want,
            "{name}: reference engine bits changed; fresh digests:\n{table}"
        );
    }
}
