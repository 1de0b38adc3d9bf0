//! The equivalence corpus: seeded message DAGs and fault configurations
//! shared by the equivalence and metamorphic suites.

#![allow(dead_code)]

use meshcoll_collectives::Schedule;
use meshcoll_noc::{Message, MsgId, NocConfig, PacketSim};
use meshcoll_topo::{FaultTimeline, LinkFlap, LinkId, Mesh, NodeId};

/// Splitmix-style deterministic generator — same seed, same DAG, on every
/// platform.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random backward-dependency DAG on a 4x4 mesh: up to 24 messages, sizes
/// spanning sub-packet to multi-packet trains, staggered readiness.
pub fn random_dag(seed: u64) -> Vec<Message> {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(24) as usize;
    (0..n)
        .map(|i| {
            let s = rng.below(16) as usize;
            let mut d = rng.below(16) as usize;
            if s == d {
                d = (d + 1) % 16;
            }
            let bytes = 1 + rng.below(500_000);
            let ready = rng.below(10_000) as f64;
            let mut m = Message::new(MsgId(i), NodeId(s), NodeId(d), bytes).with_ready_at(ready);
            if i > 0 && rng.below(3) == 0 {
                m = m.with_deps([MsgId(rng.below(i as u64) as usize)]);
            }
            m
        })
        .collect()
}

/// A funnel DAG on a 1x4 path: every message targets the last node, so the
/// trains from node 0 cross three links with sloped arrival curves while
/// later sources inject flat trains straight into their committed windows.
/// Tight random readiness staggers force 2-way (and, with all three
/// sources firing, 3-way) interleavings on the shared tail links.
pub fn congested_funnel_dag(seed: u64, sources: usize) -> Vec<Message> {
    let mut rng = Rng(seed);
    let n = 6 + rng.below(12) as usize;
    (0..n)
        .map(|i| {
            let s = rng.below(sources as u64) as usize;
            let bytes = 4_000 + rng.below(200_000);
            let ready = rng.below(20_000) as f64;
            let mut m = Message::new(MsgId(i), NodeId(s), NodeId(3), bytes).with_ready_at(ready);
            if i > 1 && rng.below(4) == 0 {
                m = m.with_deps([MsgId(rng.below(i as u64) as usize)]);
            }
            m
        })
        .collect()
}

/// Degrades a third of the links and overrides another third's bandwidth:
/// per-link serialization asymmetry stresses the train recurrence.
pub fn degraded_cfg(mesh: &Mesh) -> NocConfig {
    let mut cfg = NocConfig::paper_default();
    for (i, (_, _, l)) in mesh.links().enumerate() {
        match i % 3 {
            0 => cfg.faults.degrade_link(l, 0.5),
            1 => cfg.link_overrides.push((l, cfg.link_bandwidth / 4.0)),
            _ => {}
        }
    }
    cfg
}

/// A dead cross-column link on a 4x4 mesh that blocks some XY routes.
pub fn dead_link_cfg(mesh: &Mesh) -> NocConfig {
    let mut cfg = NocConfig::paper_default();
    cfg.faults
        .fail_link_between(mesh, NodeId(5), NodeId(6))
        .unwrap();
    cfg
}

/// Transient outages on every fifth link.
pub fn flaps_cfg(mesh: &Mesh) -> NocConfig {
    let mut cfg = NocConfig::paper_default();
    for (i, (_, _, l)) in mesh.links().enumerate() {
        if i % 5 == 0 {
            cfg.faults.add_flap(LinkFlap {
                link: l,
                down_ns: 2_000.0,
                up_ns: 15_000.0,
            });
        }
    }
    cfg
}

/// Several multi-packet trains all crossing the same column links.
pub fn contended_trains() -> (Mesh, Vec<Message>) {
    let msgs = (0..6)
        .map(|i| {
            Message::new(MsgId(i), NodeId(i % 3), NodeId(6 + (i % 3)), 40_000)
                .with_ready_at(10.0 * i as f64)
        })
        .collect();
    (Mesh::square(3).unwrap(), msgs)
}

/// 8 MB trains (1024 packets each) on disjoint directed paths.
pub fn long_trains() -> (Mesh, Vec<Message>) {
    let msgs = vec![
        Message::new(MsgId(0), NodeId(0), NodeId(7), 8 << 20),
        Message::new(MsgId(1), NodeId(7), NodeId(0), 8 << 20),
    ];
    (Mesh::new(1, 8).unwrap(), msgs)
}

/// Train A (32 packets from node 0) is mid-flight on the tail link when
/// B's head (from node 1) lands inside its window, and C's head (from node
/// 2) lands inside the re-served tail: a forced 3-way interleave on link
/// 2->3.
pub fn three_way_interleave() -> (Mesh, Vec<Message>) {
    let msgs = vec![
        Message::new(MsgId(0), NodeId(0), NodeId(3), 8192 * 32),
        Message::new(MsgId(1), NodeId(1), NodeId(3), 8192 * 8).with_ready_at(2_000.0),
        Message::new(MsgId(2), NodeId(2), NodeId(3), 8192 * 8).with_ready_at(6_000.0),
    ];
    (Mesh::new(1, 4).unwrap(), msgs)
}

/// Two link-disjoint halves on a 2x4 mesh: on the top row a long train from
/// node 0 streams over link 2->3 while two flat trains inject into its
/// window there — the second interloper is contention the fast path must
/// refuse — and an uncontended multi-packet chain runs on the bottom row.
pub fn declined_dag() -> (Mesh, Vec<Message>) {
    let msgs = vec![
        Message::new(MsgId(0), NodeId(0), NodeId(3), 8192 * 32),
        Message::new(MsgId(1), NodeId(2), NodeId(3), 8192 * 2).with_ready_at(2_000.0),
        Message::new(MsgId(2), NodeId(2), NodeId(3), 8192 * 2).with_ready_at(4_000.0),
        Message::new(MsgId(3), NodeId(4), NodeId(7), 8192 * 16),
        Message::new(MsgId(4), NodeId(4), NodeId(7), 8192 * 16).with_deps([MsgId(3)]),
    ];
    (Mesh::new(2, 4).unwrap(), msgs)
}

/// A pipeline of dependent trains (the shape every collective schedule
/// produces): completion of each stage feeds the next's injection time.
pub fn dependency_chain() -> (Mesh, Vec<Message>) {
    let msgs = (0..12)
        .map(|i| {
            let m = Message::new(MsgId(i), NodeId(i % 16), NodeId((i + 5) % 16), 100_000);
            if i == 0 {
                m
            } else {
                m.with_deps([MsgId(i - 1)])
            }
        })
        .collect();
    (Mesh::square(4).unwrap(), msgs)
}

/// One corpus case: a name, its configuration, mesh and DAG.
pub struct Case {
    pub name: String,
    pub cfg: NocConfig,
    pub mesh: Mesh,
    pub msgs: Vec<Message>,
}

/// Every DAG the equivalence suite runs, with its configuration.
pub fn corpus() -> Vec<Case> {
    let mut out = Vec::new();
    let m4 = Mesh::square(4).unwrap();
    let mut push = |name: String, cfg: NocConfig, mesh: &Mesh, msgs: Vec<Message>| {
        out.push(Case {
            name,
            cfg,
            mesh: mesh.clone(),
            msgs,
        });
    };
    let paper = NocConfig::paper_default;
    for seed in 0..40 {
        push(format!("random {seed}"), paper(), &m4, random_dag(seed));
    }
    for seed in 100..125 {
        push(
            format!("degraded {seed}"),
            degraded_cfg(&m4),
            &m4,
            random_dag(seed),
        );
    }
    for seed in 200..225 {
        push(
            format!("dead link {seed}"),
            dead_link_cfg(&m4),
            &m4,
            random_dag(seed),
        );
    }
    for seed in 300..320 {
        push(
            format!("flaps {seed}"),
            flaps_cfg(&m4),
            &m4,
            random_dag(seed),
        );
    }
    let line4 = Mesh::new(1, 4).unwrap();
    for seed in 400..440 {
        push(
            format!("2-way {seed}"),
            paper(),
            &line4,
            congested_funnel_dag(seed, 2),
        );
    }
    for seed in 500..540 {
        push(
            format!("3-way {seed}"),
            paper(),
            &line4,
            congested_funnel_dag(seed, 3),
        );
    }
    for (name, (mesh, msgs)) in [
        ("contended trains", contended_trains()),
        ("long trains", long_trains()),
        ("3-way interleave", three_way_interleave()),
        ("declined DAG", declined_dag()),
        ("dependency chain", dependency_chain()),
    ] {
        push(name.to_string(), paper(), &mesh, msgs);
    }
    out
}

/// Lowers a schedule to its message DAG, one message per op.
pub fn lower(s: &Schedule) -> Vec<Message> {
    s.op_ids()
        .map(|id| {
            let op = s.op(id);
            Message::new(MsgId(id.0 as usize), op.src, op.dst, op.bytes)
                .with_deps(s.deps(id).iter().map(|d| MsgId(d.0 as usize)))
        })
        .collect()
}

/// The healthy run of `msgs` under `cfg`'s static faults: its makespan,
/// ns, and its links from busiest to idlest. A run that fails (a static
/// dead route) yields no makespan and the links in id order.
pub fn healthy_profile(
    cfg: &NocConfig,
    mesh: &Mesh,
    msgs: &[Message],
) -> (Option<f64>, Vec<LinkId>) {
    let mut links: Vec<LinkId> = mesh.links().map(|(_, _, l)| l).collect();
    let Ok(out) = PacketSim::new(cfg.clone()).simulate(mesh, msgs) else {
        return (None, links);
    };
    let busy = |l: LinkId| out.link_stats().busy_ns(l);
    links.sort_by(|&a, &b| busy(b).total_cmp(&busy(a)).then(a.cmp(&b)));
    (Some(out.makespan_ns()), links)
}

/// The timed faults the online corpus runs each case under, named. The
/// busiest link, then the source chiplet of that link, dies at 0, at 25,
/// 50 and 75 % of the healthy makespan, and after completion; then two
/// deaths at different times (the busiest link at 20 %, the next busiest
/// at 60 %). Every death time is a whole nanosecond, so halving it is
/// exact.
pub fn timelines(
    mesh: &Mesh,
    makespan_ns: f64,
    busiest: &[LinkId],
) -> Vec<(String, FaultTimeline)> {
    let at = |frac: f64| (frac * makespan_ns).round();
    let fracs = [
        (0.0, "0"),
        (0.25, "25%"),
        (0.5, "50%"),
        (0.75, "75%"),
        (2.0, "after"),
    ];
    let mut out = Vec::new();
    let link = busiest[0];
    let node = mesh.link_endpoints(link).0;
    for (frac, label) in fracs {
        let mut tl = FaultTimeline::new();
        tl.link_dies_at(link, at(frac));
        out.push((format!("link {} dies at {label}", link.index()), tl));
        let mut tl = FaultTimeline::new();
        tl.chiplet_dies_at(node, at(frac));
        out.push((format!("chiplet {} dies at {label}", node.index()), tl));
    }
    if let Some(&second) = busiest.get(1) {
        let mut tl = FaultTimeline::new();
        tl.link_dies_at(link, at(0.2));
        tl.link_dies_at(second, at(0.6));
        out.push((
            format!("links {} and {} die", link.index(), second.index()),
            tl,
        ));
    }
    out
}
