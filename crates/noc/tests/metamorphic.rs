//! Metamorphic checks: transformations of a run's input whose effect on
//! the output is known exactly. Both packet engines keep integer
//! picoseconds and order same-instant events by the model's tie-order key,
//! so each check is an exact `f64` equality:
//!
//! * mirroring mesh and DAG left↔right under XY routing leaves every
//!   completion and every (mirrored) link's busy time unchanged;
//! * transposing mesh and DAG while swapping XY↔YX routing does too;
//! * doubling every bandwidth while halving the header latency, the
//!   per-packet overhead, every ready time, every flap window and every
//!   timed death halves every completion, every link's busy time, the
//!   makespan and an interrupted run's drain and first-fault clocks.
//!
//! Under a timeline a link or chiplet death follows its link or node, and
//! every other field of the drain snapshot (delivered messages and bytes,
//! lost bytes and messages, the first lost message and dead link) must
//! come out unchanged.
//!
//! Each runs over the equivalence corpus and over every applicable
//! benchmark algorithm's schedule on 4x4 and 5x5 at 1 and 4 MiB, under both
//! `SimMode`s, and both again under the online corpus's timed deaths.

mod common;

use meshcoll_collectives::{Algorithm, Applicability};
use meshcoll_noc::{Message, NocConfig, NocError, NullSink, OnlineReport, PacketSim, SimMode};
use meshcoll_topo::routing::RoutingAlgorithm;
use meshcoll_topo::{Coord, FaultEvent, FaultModel, FaultTimeline, LinkFlap, LinkId, Mesh, NodeId};

/// A relabelling of one mesh's nodes onto another mesh's.
struct Relabel {
    from: Mesh,
    to: Mesh,
    node: fn(&Mesh, &Mesh, NodeId) -> NodeId,
}

impl Relabel {
    /// Left↔right mirror image.
    fn mirror(mesh: &Mesh) -> Self {
        Relabel {
            from: mesh.clone(),
            to: mesh.clone(),
            node: |from, to, n| {
                let c = from.coord(n);
                to.node_at(Coord::new(c.row, from.cols() - 1 - c.col))
            },
        }
    }

    /// Transpose: row r, column c becomes row c, column r.
    fn transpose(mesh: &Mesh) -> Self {
        Relabel {
            from: mesh.clone(),
            to: Mesh::new(mesh.cols(), mesh.rows()).expect("transposed mesh"),
            node: |from, to, n| {
                let c = from.coord(n);
                to.node_at(Coord::new(c.col, c.row))
            },
        }
    }

    /// The identity, for rescaling time on the same mesh.
    fn identity(mesh: &Mesh) -> Self {
        Relabel {
            from: mesh.clone(),
            to: mesh.clone(),
            node: |_, _, n| n,
        }
    }

    fn node(&self, n: NodeId) -> NodeId {
        (self.node)(&self.from, &self.to, n)
    }

    /// Every physical link of the source mesh and its image.
    fn links(&self) -> Vec<(LinkId, LinkId)> {
        self.from
            .links()
            .map(|(a, b, l)| {
                let image = self
                    .to
                    .link_between(self.node(a), self.node(b))
                    .expect("links map onto links");
                (l, image)
            })
            .collect()
    }

    fn link(&self, l: LinkId) -> LinkId {
        self.links()
            .into_iter()
            .find(|&(x, _)| x == l)
            .expect("a physical link")
            .1
    }

    fn messages(&self, msgs: &[Message], time_scale: f64) -> Vec<Message> {
        msgs.iter()
            .map(|m| Message {
                src: self.node(m.src),
                dst: self.node(m.dst),
                ready_at_ns: m.ready_at_ns * time_scale,
                ..m.clone()
            })
            .collect()
    }

    /// `cfg` carried onto the image mesh: every per-link and per-node
    /// setting follows its link or node, and flap windows and timed deaths
    /// scale with time.
    fn config(&self, cfg: &NocConfig, time_scale: f64) -> NocConfig {
        let mut timeline = FaultTimeline::new();
        for e in cfg.timeline.events() {
            match *e {
                FaultEvent::LinkDiesAt { link, t_ns } => {
                    timeline.link_dies_at(self.link(link), t_ns * time_scale);
                }
                FaultEvent::ChipletDiesAt { node, t_ns } => {
                    timeline.chiplet_dies_at(self.node(node), t_ns * time_scale);
                }
            }
        }
        let mut faults = FaultModel::default();
        for n in self.from.node_ids() {
            if cfg.faults.node_failed(n) {
                faults.fail_node(self.node(n));
            }
        }
        for (l, image) in self.links() {
            if cfg.faults.link_failed(l) {
                faults.fail_link(image);
            }
            let fraction = cfg.faults.degradation(l);
            if fraction != 1.0 {
                faults.degrade_link(image, fraction);
            }
        }
        for f in cfg.faults.flaps() {
            faults.add_flap(LinkFlap {
                link: self.link(f.link),
                down_ns: f.down_ns * time_scale,
                up_ns: f.up_ns * time_scale,
            });
        }
        NocConfig {
            link_overrides: cfg
                .link_overrides
                .iter()
                .map(|&(l, bw)| (self.link(l), bw))
                .collect(),
            faults,
            timeline,
            ..cfg.clone()
        }
    }
}

/// What a run reports, read back on the source mesh: its completions; its
/// times (the completions, each source link's busy time read on its image,
/// and an interrupted run's drain and first-fault clocks); and its drain's
/// counts (delivered messages and bytes, lost bytes and messages, faults
/// applied, the first lost message and the first dead link's source link).
/// Or its error.
struct Seen {
    completions: Vec<f64>,
    times: Vec<f64>,
    counts: Vec<u64>,
}

type Run = Result<Seen, String>;

fn run(mode: SimMode, cfg: &NocConfig, relabel: &Relabel, msgs: &[Message]) -> Run {
    let sim = PacketSim::new(cfg.clone()).with_mode(mode);
    let links = relabel.links();
    let read = |r: OnlineReport| {
        let o = &r.outcome;
        let mut times = o.completions().to_vec();
        times.extend(
            links
                .iter()
                .map(|&(_, image)| o.link_stats().busy_ns(image)),
        );
        let mut counts = Vec::new();
        if let Some(s) = &r.interruption {
            times.extend([s.drain_ns, s.first_fault_ns]);
            counts.extend(s.delivered.iter().map(|&d| u64::from(d)));
            counts.extend(&s.delivered_bytes);
            counts.extend([s.lost_bytes, s.lost_msgs as u64, s.faults_applied as u64]);
            counts.push(s.first_lost_msg.map_or(u64::MAX, |m| m.index() as u64));
            let source = |image: LinkId| links.iter().find(|l| l.1 == image).map(|l| l.0);
            counts.push(
                s.first_dead_link
                    .and_then(source)
                    .map_or(u64::MAX, |l| l.index() as u64),
            );
        }
        Seen {
            completions: o.completions().to_vec(),
            times,
            counts,
        }
    };
    sim.simulate_online(&relabel.to, msgs, &mut NullSink)
        .map(read)
        .map_err(|e: NocError| format!("{e:?}"))
}

/// Bit patterns of a run, every time scaled by `scale` (a power of two,
/// so scaling is exact), then its counts.
fn bits(run: &Run, scale: f64) -> Result<Vec<u64>, ()> {
    let seen = run.as_ref().map_err(|_| ())?;
    let times = seen.times.iter().map(|v| (v * scale).to_bits());
    Ok(times.chain(seen.counts.iter().copied()).collect())
}

/// Runs all three checks on one case under both engine modes.
fn check(name: &str, cfg: &NocConfig, mesh: &Mesh, msgs: &[Message]) {
    for mode in [SimMode::Auto, SimMode::PerPacket] {
        let id = Relabel::identity(mesh);
        let base = run(mode, cfg, &id, msgs);
        let want = bits(&base, 1.0);
        let what = format!("{name} ({mode:?})");

        let mirror = Relabel::mirror(mesh);
        let mirrored = run(
            mode,
            &mirror.config(cfg, 1.0),
            &mirror,
            &mirror.messages(msgs, 1.0),
        );
        assert_eq!(bits(&mirrored, 1.0), want, "{what}: mirrored run differs");

        let transpose = Relabel::transpose(mesh);
        let mut yx = transpose.config(cfg, 1.0);
        yx.routing = match cfg.routing {
            RoutingAlgorithm::Xy => RoutingAlgorithm::Yx,
            RoutingAlgorithm::Yx => RoutingAlgorithm::Xy,
        };
        let transposed = run(mode, &yx, &transpose, &transpose.messages(msgs, 1.0));
        assert_eq!(
            bits(&transposed, 1.0),
            want,
            "{what}: transposed run differs"
        );

        let mut fast = id.config(cfg, 0.5);
        fast.link_bandwidth *= 2.0;
        for o in &mut fast.link_overrides {
            o.1 *= 2.0;
        }
        fast.per_flit_latency_ns /= 2.0;
        fast.per_packet_overhead_ns /= 2.0;
        let doubled = run(mode, &fast, &id, &id.messages(msgs, 0.5));
        assert_eq!(
            bits(&doubled, 2.0),
            want,
            "{what}: doubled speed does not halve every time"
        );
        if let (Ok(b), Ok(d)) = (&base, &doubled) {
            let span = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
            assert_eq!(
                span(&d.completions).to_bits(),
                (span(&b.completions) / 2.0).to_bits(),
                "{what}"
            );
        }
    }
}

#[test]
fn equivalence_corpus_is_metamorphic() {
    for case in common::corpus() {
        check(&case.name, &case.cfg, &case.mesh, &case.msgs);
    }
}

#[test]
fn benchmark_schedules_are_metamorphic() {
    for n in [4, 5] {
        let mesh = Mesh::square(n).unwrap();
        for algo in Algorithm::BENCHMARKS {
            if algo.applicability(&mesh) == Applicability::Inapplicable {
                continue;
            }
            for data in [1 << 20, 4 << 20] {
                let s = algo
                    .schedule(&mesh, data)
                    .unwrap_or_else(|e| panic!("{algo} on {mesh}: {e}"));
                let name = format!("{algo} {}MiB on {mesh}", data >> 20);
                check(
                    &name,
                    &NocConfig::paper_default(),
                    &mesh,
                    &common::lower(&s),
                );
            }
        }
    }
}

/// Runs [`check`] on `msgs` under every timeline of the online corpus.
fn check_online(name: &str, cfg: &NocConfig, mesh: &Mesh, msgs: &[Message]) {
    let (makespan, busiest) = common::healthy_profile(cfg, mesh, msgs);
    for (tl_name, timeline) in common::timelines(mesh, makespan.unwrap_or(10_000.0), &busiest) {
        let cfg = NocConfig {
            timeline,
            ..cfg.clone()
        };
        check(&format!("{name}, {tl_name}"), &cfg, mesh, msgs);
    }
}

#[test]
fn online_corpus_is_metamorphic() {
    for case in common::corpus() {
        check_online(&case.name, &case.cfg, &case.mesh, &case.msgs);
    }
}

#[test]
fn benchmark_schedules_under_deaths_are_metamorphic() {
    for n in [4, 5] {
        let mesh = Mesh::square(n).unwrap();
        for algo in Algorithm::BENCHMARKS {
            if algo.applicability(&mesh) == Applicability::Inapplicable {
                continue;
            }
            let s = algo
                .schedule(&mesh, 1 << 20)
                .unwrap_or_else(|e| panic!("{algo} on {mesh}: {e}"));
            let name = format!("{algo} 1MiB on {mesh}");
            check_online(
                &name,
                &NocConfig::paper_default(),
                &mesh,
                &common::lower(&s),
            );
        }
    }
}
