//! Set-up, the timed pass, the untimed checks and the traced pass of one
//! workload.
//!
//! A point is timed exactly as a user would make the call (`epoch_time`,
//! `schedule_with` + `SimEngine::run`, `run_streamed`, `run_degraded` or
//! `run_online`). The checks and the traced pass then repeat each point one
//! crate call at a time — generate, lint, repair, run, then the bench's own
//! lowering into `PacketSim` — so every layer's share can be timed and every
//! makespan compared bit for bit with the timed pass.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use meshcoll_collectives::{fault, Algorithm, CollectiveError, ScheduleOptions};
use meshcoll_compute::{training, ChipletConfig};
use meshcoll_models::Model;
use meshcoll_noc::{InvariantAuditor, Message, NocConfig, PacketSim};
use meshcoll_sim::epoch::{epoch_time, EpochParams};
use meshcoll_sim::{
    analyzer, OnlineOptions, OnlineRun, RunResult, RunStatus, SimContext, SimEngine, SweepRunner,
};
use meshcoll_topo::{FaultTimeline, Hierarchy, Mesh, NodeId, RouteCacheStats};

use crate::points::square;
use crate::points::{self, Fault, Rng, Spec, Topo, Workload};
use crate::probe::{count_ops, packet_hops, EventCounts, LinkActivity, Lowering, Span, Spans};
use crate::stats;

/// Warm-up payload: enough to build every route and code path of a
/// (shape, algorithm) pair without simulating a full point.
const WARM_UP_BYTES: u64 = 1 << 20;
/// Largest makespan difference from the per-packet reference that still
/// counts as agreement: 1e-6 ns, or 1e-12 of the makespan once that is
/// larger. The two engines sum the same terms in different orders, so the
/// rounding error grows with the makespan: a 116 MB Ring on 15x15 drifts
/// 3.9e-6 ns over a ~9e6 ns makespan.
fn drift_tolerance_ns(makespan_ns: f64) -> f64 {
    (1e-12 * makespan_ns).max(1e-6)
}
/// Reference packet-hops one untimed check may simulate (the per-packet
/// engine runs ~3-5M hops/s on a 2-vCPU Xeon VM, so ~1-2 s). Points are
/// reference-checked in seeded order while their hops fit.
pub const CHECK_REF_HOPS: u64 = 5_000_000;
/// Reference packet-hop budget of the traced pass.
pub const TRACE_REF_HOPS: u64 = 40_000_000;

/// The fabric and network configuration of a `scale-stream` point.
fn fabric(n: usize, topo: Topo) -> (Mesh, NocConfig) {
    let mut noc = NocConfig::paper_default();
    let mesh = match topo {
        Topo::Mesh => square(n),
        Topo::Torus => Mesh::torus(n, n).expect("valid torus"),
        Topo::Hierarchy => {
            let h = Hierarchy::new(2, 2, n / 2, n / 2, 0.25).expect("valid hierarchy");
            h.apply_to(&mut noc.faults).expect("hierarchy seams exist");
            h.fabric().clone()
        }
    };
    (mesh, noc)
}

/// How a run concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Completed,
    Repaired,
    RepairedOnline {
        repair_ns: f64,
        attempts: usize,
        lost_bytes: u64,
        resumed_ops: usize,
    },
    Infeasible,
}

/// What one call returned.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Simulated makespan, ns; `None` when infeasible. Online repairs
    /// include host repair time, so only their verdict is compared.
    pub makespan_ns: Option<f64>,
    pub verdict: Verdict,
    /// Bit patterns of every output that must repeat exactly.
    pub key: Vec<u64>,
}

fn run_key(r: &RunResult) -> Vec<u64> {
    vec![
        r.total_time_ns.to_bits(),
        r.link_utilization_percent.to_bits(),
        r.used_link_percent.to_bits(),
    ]
}

impl Observed {
    fn run(r: &RunResult) -> Self {
        Observed {
            makespan_ns: Some(r.total_time_ns),
            verdict: Verdict::Completed,
            key: run_key(r),
        }
    }

    /// A static-fault outcome: `repaired` carries `(lint issues, sidelined
    /// chiplets)`; `run` is `None` when no repair exists.
    fn degraded(repaired: Option<(usize, usize)>, run: Option<&RunResult>) -> Self {
        let (verdict, mut key) = match (run, repaired) {
            (None, _) => (Verdict::Infeasible, vec![3]),
            (Some(_), None) => (Verdict::Completed, vec![0]),
            (Some(_), Some((issues, sidelined))) => {
                (Verdict::Repaired, vec![1, issues as u64, sidelined as u64])
            }
        };
        key.extend(run.map(run_key).unwrap_or_default());
        Observed {
            makespan_ns: run.map(|r| r.total_time_ns),
            verdict,
            key,
        }
    }

    fn online(run: &OnlineRun) -> Result<Self, String> {
        let result = run.result.as_ref();
        let (verdict, key) = match run.status {
            RunStatus::Completed => (
                Verdict::Completed,
                [vec![0], result.map(run_key).unwrap_or_default()].concat(),
            ),
            RunStatus::RepairedOnline {
                repair_ns,
                attempts,
                lost_bytes,
                resumed_ops,
                ..
            } => (
                Verdict::RepairedOnline {
                    repair_ns,
                    attempts,
                    lost_bytes,
                    resumed_ops,
                },
                vec![2, attempts as u64, lost_bytes, resumed_ops as u64],
            ),
            RunStatus::Infeasible { .. } => (Verdict::Infeasible, vec![3]),
            ref other => return Err(format!("unexpected online verdict {other:?}")),
        };
        Ok(Observed {
            makespan_ns: result.map(|r| r.total_time_ns),
            verdict,
            key,
        })
    }
}

/// One point with its fabric, engine and (for `train-sweep`) model.
#[derive(Debug)]
pub struct Point {
    pub spec: Spec,
    pub mesh: Mesh,
    engine: EngineRef,
    model: Option<Model>,
}

/// Where a point's engine comes from.
#[derive(Debug)]
enum EngineRef {
    /// One of the bench's long-lived engines.
    Shared(usize),
    /// A fault configuration only this point uses. Its engine is built for
    /// each call and dropped after it, as a sweep over fault scenarios
    /// does, so no scenario's scratch outlives its call.
    Own(Box<NocConfig>),
}

/// A workload after set-up: points, engines and the shared route cache.
#[derive(Debug)]
pub struct Bench {
    pub ctx: SimContext,
    pub points: Vec<Point>,
    /// One engine per distinct network configuration.
    engines: Vec<SimEngine>,
}

/// Healthy-run profile a fault is placed against.
struct Profile {
    makespan_ns: f64,
    activity: LinkActivity,
}

impl Bench {
    /// Builds the point list, engines, healthy profiles and warm-ups.
    ///
    /// # Errors
    ///
    /// Reports a warm-up or profile run that fails.
    pub fn setup(workload: Workload, seed: u64) -> Result<Bench, String> {
        let mut bench = Bench {
            ctx: SimContext::new(),
            points: Vec::new(),
            engines: Vec::new(),
        };
        let specs = points::generate(workload, seed);
        let profiles = bench.profiles(&specs)?;
        for spec in specs {
            let (mesh, noc, model) = match spec {
                Spec::Train { n, model, .. } => {
                    (square(n), NocConfig::paper_default(), Some(model.model()))
                }
                Spec::Ring { n, .. } => (square(n), NocConfig::paper_default(), None),
                Spec::Stream { n, topo, .. } => {
                    let (mesh, noc) = fabric(n, topo);
                    (mesh, noc, None)
                }
                Spec::Fault {
                    n,
                    algorithm,
                    bytes,
                    fault,
                } => {
                    let mesh = square(n);
                    let profile = &profiles[&(n, algorithm.name(), bytes)];
                    let noc = place_fault(&mesh, profile, fault)?;
                    bench.points.push(Point {
                        spec,
                        mesh,
                        engine: EngineRef::Own(Box::new(noc)),
                        model: None,
                    });
                    continue;
                }
            };
            let engine = EngineRef::Shared(bench.engine_for(noc));
            bench.points.push(Point {
                spec,
                mesh,
                engine,
                model,
            });
        }
        bench.warm_up()?;
        Ok(bench)
    }

    fn engine_for(&mut self, noc: NocConfig) -> usize {
        if let Some(i) = self.engines.iter().position(|e| *e.noc() == noc) {
            return i;
        }
        self.engines.push(self.ctx.engine(noc));
        self.engines.len() - 1
    }

    /// Traced healthy runs of every distinct `fault-repair` (shape,
    /// algorithm, size), the activity faults are placed against. They also
    /// serve as that workload's warm-up.
    fn profiles(
        &self,
        specs: &[Spec],
    ) -> Result<BTreeMap<(usize, &'static str, u64), Profile>, String> {
        let sim = self.packet_sim(NocConfig::paper_default());
        let mut profiles = BTreeMap::new();
        for spec in specs {
            let Spec::Fault {
                n,
                algorithm,
                bytes,
                ..
            } = *spec
            else {
                continue;
            };
            let key = (n, algorithm.name(), bytes);
            if profiles.contains_key(&key) {
                continue;
            }
            let mesh = square(n);
            let schedule = algorithm
                .schedule_with(&mesh, bytes, &ScheduleOptions::default())
                .map_err(|e| format!("{algorithm} on {mesh}: {e}"))?;
            let mut activity = LinkActivity::new(&mesh);
            let out = sim
                .simulate_traced(&mesh, &Lowering::of(&schedule), &mut activity)
                .map_err(|e| format!("{algorithm} on {mesh}: {e}"))?;
            profiles.insert(
                key,
                Profile {
                    makespan_ns: out.makespan_ns(),
                    activity,
                },
            );
        }
        Ok(profiles)
    }

    /// One small run per (shape, algorithm) so route caches and lazily
    /// built state are in place before timing.
    fn warm_up(&self) -> Result<(), String> {
        let opts = ScheduleOptions::default();
        let mut seen: Vec<(usize, &Mesh, Algorithm)> = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            let EngineRef::Shared(e) = p.engine else {
                continue;
            };
            let key = (e, &p.mesh, p.spec.algorithm());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let engine = &self.engines[e];
            let algorithm = p.spec.algorithm();
            let r = match p.spec {
                Spec::Stream { .. } => {
                    engine.run_streamed(&p.mesh, algorithm, WARM_UP_BYTES, &opts)
                }
                _ => algorithm
                    .schedule_with(&p.mesh, WARM_UP_BYTES, &opts)
                    .map_err(Into::into)
                    .and_then(|s| engine.run(&p.mesh, &s)),
            };
            r.map_err(|e| format!("warm-up of point {i} ({algorithm} on {}): {e}", p.mesh))?;
        }
        Ok(())
    }

    /// A packet engine with `noc` on the shared route cache, for the
    /// benchmark's own noc calls.
    fn packet_sim(&self, noc: NocConfig) -> PacketSim {
        PacketSim::new(noc).with_route_cache(self.ctx.route_cache().clone())
    }

    /// Point `p`'s network configuration.
    fn noc<'a>(&'a self, p: &'a Point) -> &'a NocConfig {
        match &p.engine {
            EngineRef::Shared(e) => self.engines[*e].noc(),
            EngineRef::Own(noc) => noc,
        }
    }

    /// Point `p`'s engine.
    fn engine(&self, p: &Point) -> Cow<'_, SimEngine> {
        match &p.engine {
            EngineRef::Shared(e) => Cow::Borrowed(&self.engines[*e]),
            EngineRef::Own(noc) => Cow::Owned(self.ctx.engine((**noc).clone())),
        }
    }

    /// The timed call of point `i`.
    pub fn execute(&self, i: usize) -> Result<Observed, String> {
        let p = &self.points[i];
        let engine = &*self.engine(p);
        let opts = ScheduleOptions::default();
        let err = |e: meshcoll_sim::SimError| e.to_string();
        match p.spec {
            Spec::Train { algorithm, .. } => {
                let model = p.model.as_ref().expect("train points carry a model");
                let b = epoch_time(
                    engine,
                    &p.mesh,
                    algorithm,
                    model,
                    &ChipletConfig::paper_default(),
                    &EpochParams::default(),
                )
                .map_err(err)?;
                Ok(Observed {
                    makespan_ns: Some(b.allreduce_ns),
                    verdict: Verdict::Completed,
                    key: vec![b.compute_ns.to_bits(), b.allreduce_ns.to_bits()],
                })
            }
            Spec::Ring {
                algorithm, bytes, ..
            } => {
                let s = algorithm
                    .schedule_with(&p.mesh, bytes, &opts)
                    .map_err(|e| e.to_string())?;
                engine
                    .run(&p.mesh, &s)
                    .map(|r| Observed::run(&r))
                    .map_err(err)
            }
            Spec::Stream {
                algorithm, bytes, ..
            } => engine
                .run_streamed(&p.mesh, algorithm, bytes, &opts)
                .map(|r| Observed::run(&r))
                .map_err(err),
            Spec::Fault {
                algorithm,
                bytes,
                fault,
                ..
            } if fault.is_online() => {
                let run = engine
                    .run_online(&p.mesh, algorithm, bytes, &opts, &OnlineOptions::default())
                    .map_err(err)?;
                Observed::online(&run)
            }
            Spec::Fault {
                algorithm, bytes, ..
            } => {
                let run = engine
                    .run_degraded(&p.mesh, algorithm, bytes, &opts)
                    .map_err(err)?;
                let repaired = match run.status {
                    RunStatus::Completed | RunStatus::Infeasible { .. } => None,
                    RunStatus::Repaired {
                        lint_issues,
                        sidelined,
                        ..
                    } => Some((lint_issues, sidelined)),
                    ref other => return Err(format!("unexpected verdict {other:?}")),
                };
                Ok(Observed::degraded(repaired, run.result.as_ref()))
            }
        }
    }

    /// Ops in point `i`'s healthy schedule, counted without keeping them.
    pub fn ops(&self, i: usize) -> u64 {
        let p = &self.points[i];
        count_ops(
            p.spec.algorithm(),
            &p.mesh,
            p.spec.bytes(),
            &ScheduleOptions::default(),
        )
        .unwrap_or(0)
    }

    /// Runs whole passes over the points, one at a time through a serial
    /// [`SweepRunner`], until `seconds` are spent (a pass is started only if
    /// it would end nearer the deadline than stopping now), at least
    /// `min_points` points ran, or `max_passes` passes ran.
    pub fn timed_phase(&self, seconds: f64, min_points: usize, max_passes: usize) -> Timed {
        let runner = SweepRunner::serial();
        let indices: Vec<usize> = (0..self.points.len()).collect();
        let mut t = Timed {
            point_secs: Vec::new(),
            pass_secs: Vec::new(),
            first: Vec::new(),
            failed: vec![false; indices.len()],
        };
        let start = Instant::now();
        loop {
            let pass_start = Instant::now();
            let results = runner.run(&indices, |&i| {
                let t0 = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| self.execute(i)))
                    .unwrap_or_else(|_| Err("panicked".to_string()));
                (t0.elapsed().as_secs_f64(), r)
            });
            let pass = pass_start.elapsed().as_secs_f64();
            t.pass_secs.push(pass);
            for (i, (secs, r)) in results.into_iter().enumerate() {
                t.point_secs.push((i, secs));
                match (&r, t.first.get(i)) {
                    (Err(e), _) => {
                        eprintln!("point {i} ({:?}) failed: {e}", self.points[i].spec);
                        t.failed[i] = true;
                    }
                    (Ok(o), Some(Ok(first))) if o.key != first.key => {
                        eprintln!("point {i} changed between passes");
                        t.failed[i] = true;
                    }
                    _ => {}
                }
                if t.first.len() == i {
                    t.first.push(r);
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let done = t.pass_secs.len() >= max_passes
                || (t.point_secs.len() >= min_points && elapsed + pass / 2.0 >= seconds);
            if done {
                return t;
            }
        }
    }

    /// Repeats point `i` one crate call at a time under a `point` span and
    /// checks it: the outcome must repeat the timed `timed` bit for bit,
    /// stay at or above the analyzer's lower bound, agree with the
    /// per-packet reference while `ref_hops` lasts, and (online) pass the
    /// trace audit. With `sim` set, also runs the noc probes (`sim` shares
    /// the point's configuration) and accumulates layer metrics. Returns
    /// the failures found.
    pub fn probe(
        &self,
        i: usize,
        timed: &Observed,
        spans: &mut Spans,
        sim: Option<&PacketSim>,
        ref_hops: &mut u64,
        acc: &mut Layers,
    ) -> Vec<String> {
        let root = spans.open("point", None, i);
        let mut fails = Vec::new();
        match self.decompose(i, spans, root, acc) {
            Err(e) => fails.push(format!("error: {e}")),
            Ok((observed, dag)) => {
                if observed.key != timed.key {
                    fails.push("outcome differs from the timed pass".into());
                }
                acc.verdict(observed.verdict);
                if let (Some(dag), Some(makespan)) = (dag, observed.makespan_ns) {
                    let p = &self.points[i];
                    let noc = self.noc(p);
                    if let EngineRef::Shared(e) = p.engine {
                        acc.max_ops[e] = acc.max_ops[e].max(dag.len() as u64);
                    }
                    if let Some(sim) = sim {
                        fails.extend(noc_probes(spans, root, sim, &p.mesh, &dag, makespan, acc));
                    }
                    fails.extend(self.bound_and_reference(
                        spans, root, noc, &p.mesh, &dag, makespan, ref_hops, acc,
                    ));
                }
            }
        }
        spans.close(root);
        fails
    }

    /// The timed call of point `i`, made one crate call at a time. Returns
    /// the outcome and, unless the point is online or infeasible, the
    /// lowered DAG of the schedule that ran.
    fn decompose(
        &self,
        i: usize,
        spans: &mut Spans,
        root: usize,
        acc: &mut Layers,
    ) -> Result<(Observed, Option<Vec<Message>>), String> {
        let p = &self.points[i];
        let engine = &*self.engine(p);
        let noc = engine.noc();
        let opts = ScheduleOptions::default();
        let (mesh, algorithm, bytes) = (&p.mesh, p.spec.algorithm(), p.spec.bytes());
        let text = |e: &dyn std::fmt::Display| e.to_string();
        let generate = |spans: &mut Spans| {
            spans
                .time_core("collectives.generate", root, || {
                    algorithm.schedule_with(mesh, bytes, &opts)
                })
                .map_err(|e| text(&e))
        };
        match p.spec {
            Spec::Train { .. } => {
                let model = p.model.as_ref().expect("train points carry a model");
                let samples = EpochParams::default().samples_per_chiplet;
                let compute_ns = spans.time_core("compute.train_model", root, || {
                    training::minibatch_train_ns(
                        model.layers(),
                        &ChipletConfig::paper_default(),
                        samples,
                    )
                });
                let schedule = generate(spans)?;
                let run = spans
                    .time_core("sim.run", root, || engine.run(mesh, &schedule))
                    .map_err(|e| text(&e))?;
                acc.ops += schedule.len() as u64;
                let observed = Observed {
                    makespan_ns: Some(run.total_time_ns),
                    verdict: Verdict::Completed,
                    key: vec![compute_ns.to_bits(), run.total_time_ns.to_bits()],
                };
                Ok((
                    observed,
                    Some(spans.time("bench.lower", root, || Lowering::of(&schedule))),
                ))
            }
            Spec::Ring { .. } => {
                let schedule = generate(spans)?;
                let run = spans
                    .time_core("sim.run", root, || engine.run(mesh, &schedule))
                    .map_err(|e| text(&e))?;
                acc.ops += schedule.len() as u64;
                Ok((
                    Observed::run(&run),
                    Some(spans.time("bench.lower", root, || Lowering::of(&schedule))),
                ))
            }
            Spec::Stream { .. } => {
                let run = spans
                    .time_core("sim.run_streamed", root, || {
                        engine.run_streamed(mesh, algorithm, bytes, &opts)
                    })
                    .map_err(|e| text(&e))?;
                let ops = spans
                    .time("collectives.generate", root, || {
                        count_ops(algorithm, mesh, bytes, &opts)
                    })
                    .map_err(|e| text(&e))?;
                acc.ops += ops;
                let dag = spans
                    .time("bench.lower", root, || {
                        let mut l = Lowering::default();
                        algorithm
                            .emit_with(mesh, bytes, &opts, &mut l)
                            .map(|()| l.messages)
                    })
                    .map_err(|e| text(&e))?;
                Ok((Observed::run(&run), Some(dag)))
            }
            Spec::Fault { fault, .. } if fault.is_online() => {
                let ops = spans
                    .time("collectives.generate", root, || {
                        count_ops(algorithm, mesh, bytes, &opts)
                    })
                    .map_err(|e| text(&e))?;
                acc.ops += ops;
                let run = spans
                    .time_core("sim.run_online", root, || {
                        engine.run_online(mesh, algorithm, bytes, &opts, &OnlineOptions::default())
                    })
                    .map_err(|e| text(&e))?;
                let observed = Observed::online(&run)?;
                let audited = spans
                    .time("sim.online_audit", root, || {
                        engine.run_online(mesh, algorithm, bytes, &opts, &OnlineOptions::audited())
                    })
                    .map_err(|e| text(&e))?;
                if Observed::online(&audited)?.key != observed.key {
                    return Err("audited online run reached another verdict".into());
                }
                if let Some(audit) = audited.audit.filter(|a| !a.is_clean()) {
                    return Err(format!("online trace audit: {:?}", audit.violations));
                }
                Ok((observed, None))
            }
            Spec::Fault { .. } => {
                let healthy = generate(spans)?;
                acc.ops += healthy.len() as u64;
                let issues = spans.time_core("collectives.lint", root, || {
                    fault::lint(mesh, &noc.faults, &healthy, noc.routing)
                });
                let (schedule, repaired) = if issues.is_empty() {
                    (healthy, None)
                } else {
                    match spans.time_core("collectives.repair", root, || {
                        fault::repair(algorithm, mesh, &noc.faults, bytes, &opts)
                    }) {
                        Ok(rep) => (rep.schedule, Some((issues.len(), rep.sidelined.len()))),
                        Err(CollectiveError::Infeasible { .. }) => {
                            return Ok((Observed::degraded(None, None), None));
                        }
                        Err(e) => return Err(text(&e)),
                    }
                };
                let run = spans
                    .time_core("sim.run", root, || engine.run(mesh, &schedule))
                    .map_err(|e| text(&e))?;
                let dag = spans.time("bench.lower", root, || Lowering::of(&schedule));
                Ok((Observed::degraded(repaired, Some(&run)), Some(dag)))
            }
        }
    }

    /// Lower-bound check, then the reference check if `dag` fits in the
    /// remaining hop budget.
    #[allow(clippy::too_many_arguments)]
    fn bound_and_reference(
        &self,
        spans: &mut Spans,
        root: usize,
        noc: &NocConfig,
        mesh: &Mesh,
        dag: &[Message],
        makespan: f64,
        ref_hops: &mut u64,
        acc: &mut Layers,
    ) -> Vec<String> {
        let mut fails = Vec::new();
        let report = spans.time("analyzer.analyze", root, || {
            analyzer::analyze_messages(mesh, dag, noc)
        });
        let bound = report.lower_bound_ns();
        if !InvariantAuditor::new()
            .check_makespan_bound(makespan, bound)
            .is_clean()
        {
            fails.push(format!(
                "makespan {makespan} ns below the certified bound {bound} ns"
            ));
        }
        if bound > 0.0 {
            acc.tightness.push(makespan / bound);
        }
        let hops = packet_hops(mesh, noc, dag);
        if hops <= *ref_hops {
            *ref_hops -= hops;
            let sim = self.packet_sim(noc.clone());
            match spans.time("noc.reference", root, || sim.run_reference(mesh, dag)) {
                Ok(out) => {
                    let drift = (out.makespan_ns() - makespan).abs();
                    acc.drift_max = acc.drift_max.max(drift);
                    acc.referenced += 1;
                    if drift > drift_tolerance_ns(makespan) {
                        fails.push(format!(
                            "makespan drifts {drift} ns from the per-packet reference"
                        ));
                    }
                }
                Err(e) => fails.push(format!("reference run: {e}")),
            }
        }
        fails
    }

    /// Bytes each long-lived engine retains per op of the largest DAG it
    /// ran, worst engine.
    fn retained_bytes_per_op(&self, acc: &Layers) -> f64 {
        self.engines
            .iter()
            .zip(&acc.max_ops)
            .filter(|(_, ops)| **ops > 0)
            .map(|(e, ops)| e.retained_scratch_bytes() as f64 / *ops as f64)
            .fold(0.0, f64::max)
    }

    /// The traced pass: probes every point with the noc probes on, grouped
    /// by engine so only one probe engine's scratch is alive at a time.
    pub fn traced_pass(&self, timed: &Timed) -> (Layers, Spans, usize) {
        let shared = |i: usize| match self.points[i].engine {
            EngineRef::Shared(e) => Some(e),
            EngineRef::Own(_) => None,
        };
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_by_key(|&i| shared(i).unwrap_or(usize::MAX));
        let mut spans = Spans::new();
        let mut acc = Layers::new(self.engines.len());
        let mut ref_hops = TRACE_REF_HOPS;
        let mut failed = 0;
        let mut sim: Option<(Option<usize>, PacketSim)> = None;
        for i in order {
            let engine = shared(i);
            if engine.is_none() || sim.as_ref().is_none_or(|(e, _)| *e != engine) {
                sim = Some((engine, self.packet_sim(self.noc(&self.points[i]).clone())));
            }
            let Ok(first) = &timed.first[i] else {
                failed += 1;
                continue;
            };
            let first_span = spans.spans.len();
            let fails = self.probe(
                i,
                first,
                &mut spans,
                sim.as_ref().map(|(_, s)| s),
                &mut ref_hops,
                &mut acc,
            );
            acc.core_ms += spans.spans[first_span..]
                .iter()
                .filter(|s| s.core)
                .map(Span::ms)
                .sum::<f64>();
            acc.timed_ms += timed.first_secs(i) * 1e3;
            if !fails.is_empty() || timed.failed[i] {
                eprintln!("point {i} ({:?}): {fails:?}", self.points[i].spec);
                failed += 1;
            }
        }
        acc.retained_per_op = self.retained_bytes_per_op(&acc);
        (acc, spans, failed)
    }

    /// Untimed checks of a seeded sample: `max(10, 10 %)` of the points.
    pub fn check_sample(&self, timed: &Timed, seed: u64) -> (usize, usize) {
        let n = self.points.len();
        let mut sample: Vec<usize> = (0..n).collect();
        Rng::new(seed, 2).shuffle(&mut sample);
        sample.truncate(n.div_ceil(10).max(10).min(n));
        let mut spans = Spans::new();
        let mut acc = Layers::new(self.engines.len());
        let mut ref_hops = CHECK_REF_HOPS;
        let mut failed = 0;
        for &i in &sample {
            let Ok(first) = &timed.first[i] else {
                continue;
            };
            let fails = self.probe(i, first, &mut spans, None, &mut ref_hops, &mut acc);
            if !fails.is_empty() {
                eprintln!("point {i} ({:?}): {fails:?}", self.points[i].spec);
                failed += 1;
            }
        }
        (sample.len(), failed)
    }
}

/// Kills the fault's target, placed against the healthy `profile`.
fn place_fault(mesh: &Mesh, profile: &Profile, fault: Fault) -> Result<NocConfig, String> {
    let mut noc = NocConfig::paper_default();
    let last = &profile.activity.0;
    let busy_after = |t: f64| -> Vec<usize> { (0..last.len()).filter(|&l| last[l] >= t).collect() };
    let pick_from =
        |candidates: &[usize], pick: u64| candidates[(pick % candidates.len() as u64) as usize];
    match fault {
        Fault::StaticLink { pick } => {
            let used = busy_after(0.0);
            if used.is_empty() {
                return Err("the healthy run used no link".into());
            }
            let (a, b) = mesh.link_endpoints(meshcoll_topo::LinkId(pick_from(&used, pick)));
            noc.faults
                .fail_link_between(mesh, a, b)
                .map_err(|e| e.to_string())?;
        }
        Fault::StaticChiplet { pick } => {
            noc.faults
                .fail_node(NodeId((pick % mesh.nodes() as u64) as usize));
        }
        Fault::OnlineLink { frac, pick } => {
            let t = frac * profile.makespan_ns;
            let active = busy_after(t);
            if active.is_empty() {
                return Err(format!("no link busy after {t} ns"));
            }
            let mut tl = FaultTimeline::default();
            tl.link_dies_at(meshcoll_topo::LinkId(pick_from(&active, pick)), t);
            noc.timeline = tl;
        }
        Fault::OnlineChiplet { frac, pick } => {
            let t = frac * profile.makespan_ns;
            let active = busy_after(t);
            let victims: Vec<usize> = mesh
                .node_ids()
                .filter(|&n| {
                    active.iter().any(|&l| {
                        let (a, b) = mesh.link_endpoints(meshcoll_topo::LinkId(l));
                        a == n || b == n
                    })
                })
                .map(NodeId::index)
                .collect();
            if victims.is_empty() {
                return Err(format!("no chiplet busy after {t} ns"));
            }
            let mut tl = FaultTimeline::default();
            tl.chiplet_dies_at(NodeId(pick_from(&victims, pick)), t);
            noc.timeline = tl;
        }
    }
    Ok(noc)
}

/// Times the bench-lowered DAG on `sim` untraced and with a counting sink;
/// both must reproduce `makespan` exactly.
fn noc_probes(
    spans: &mut Spans,
    root: usize,
    sim: &PacketSim,
    mesh: &Mesh,
    dag: &[Message],
    makespan: f64,
    acc: &mut Layers,
) -> Vec<String> {
    let mut fails = Vec::new();
    let start = spans.spans.len();
    match spans.time("noc.simulate", root, || sim.simulate(mesh, dag)) {
        Ok(out) => {
            if out.makespan_ns().to_bits() != makespan.to_bits() {
                fails.push("bench-lowered DAG gives another makespan".into());
            }
            sim.recycle(out);
        }
        Err(e) => fails.push(format!("noc.simulate: {e}")),
    }
    let simulate_ms = spans.spans[start].ms();
    let mut counts = EventCounts::default();
    match spans.time("noc.traced", root, || {
        sim.simulate_traced(mesh, dag, &mut counts)
    }) {
        Ok(out) if out.makespan_ns().to_bits() != makespan.to_bits() => {
            fails.push("traced run gives another makespan".into());
        }
        Ok(_) => {}
        Err(e) => fails.push(format!("noc.traced: {e}")),
    }
    if counts.packet_hops > 0 {
        acc.fallback_points += 1;
        acc.fallback_ms += simulate_ms;
    } else {
        acc.fastpath_ms += simulate_ms;
    }
    acc.events.add(&counts);
    fails
}

/// Per-point timings of the timed phase.
#[derive(Debug)]
pub struct Timed {
    /// `(point, seconds)` for every executed point, in execution order.
    pub point_secs: Vec<(usize, f64)>,
    /// Wall time of each pass.
    pub pass_secs: Vec<f64>,
    /// First outcome of each point.
    pub first: Vec<Result<Observed, String>>,
    /// Points that erred, panicked or changed between passes.
    pub failed: Vec<bool>,
}

impl Timed {
    /// Seconds of point `i`'s first timed run.
    pub fn first_secs(&self, i: usize) -> f64 {
        self.point_secs[i].1
    }
}

/// Layer metrics accumulated over probed points.
#[derive(Debug, Default)]
pub struct Layers {
    events: EventCounts,
    fallback_points: u64,
    fallback_ms: f64,
    fastpath_ms: f64,
    ops: u64,
    /// Largest DAG run on each engine.
    max_ops: Vec<u64>,
    retained_per_op: f64,
    verdicts: [u64; 4],
    online_repair_ms: f64,
    online_attempts: u64,
    lost_bytes: u64,
    resumed_ops: u64,
    drift_max: f64,
    referenced: u64,
    tightness: Vec<f64>,
    /// Milliseconds of the calls the timed pass also makes, traced.
    core_ms: f64,
    /// Milliseconds the same points took in the timed pass.
    timed_ms: f64,
}

impl Layers {
    fn new(engines: usize) -> Self {
        Layers {
            max_ops: vec![0; engines],
            ..Layers::default()
        }
    }

    fn verdict(&mut self, v: Verdict) {
        let slot = match v {
            Verdict::Completed => 0,
            Verdict::Repaired => 1,
            Verdict::RepairedOnline {
                repair_ns,
                attempts,
                lost_bytes,
                resumed_ops,
            } => {
                self.online_repair_ms += repair_ns / 1e6;
                self.online_attempts += attempts as u64;
                self.lost_bytes += lost_bytes;
                self.resumed_ops += resumed_ops as u64;
                2
            }
            Verdict::Infeasible => 3,
        };
        self.verdicts[slot] += 1;
    }

    /// Points the reference check covered.
    pub fn referenced(&self) -> u64 {
        self.referenced
    }

    /// Every per-layer metric, by name.
    pub fn values(&self, spans: &Spans, cache: &CacheDelta) -> Vec<(&'static str, f64)> {
        let simulate_ms = self.fallback_ms + self.fastpath_ms;
        let run_ms = spans.total_ms("sim.run") + spans.total_ms("sim.run_streamed");
        let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let tightness = |f: fn(&[f64]) -> f64| {
            if self.tightness.is_empty() {
                0.0
            } else {
                f(&self.tightness)
            }
        };
        vec![
            ("noc.fallback_ms", self.fallback_ms),
            ("noc.fallback_points", self.fallback_points as f64),
            ("noc.fallback_share", share(self.fallback_ms, simulate_ms)),
            ("noc.packet_hops", self.events.packet_hops as f64),
            ("noc.simulate_ms", simulate_ms),
            ("noc.fastpath_ms", self.fastpath_ms),
            ("noc.train_hops", self.events.train_hops as f64),
            ("noc.train_splits", self.events.train_splits as f64),
            ("noc.injects", self.events.injects as f64),
            ("sim.run_ms", run_ms),
            ("sim.lower_ms", run_ms - simulate_ms),
            (
                "collectives.generate_ms",
                spans.total_ms("collectives.generate"),
            ),
            ("collectives.ops", self.ops as f64),
            ("sim.retained_bytes_per_op", self.retained_per_op),
            ("topo.route_cache_hits", cache.hits as f64),
            ("topo.route_cache_misses", cache.misses as f64),
            (
                "topo.route_cache_hit_ratio",
                share(cache.hits as f64, (cache.hits + cache.misses) as f64),
            ),
            ("topo.route_cache_evictions", cache.evictions as f64),
            ("topo.route_cache_bytes", cache.bytes as f64),
            ("collectives.lint_ms", spans.total_ms("collectives.lint")),
            (
                "collectives.repair_ms",
                spans.total_ms("collectives.repair"),
            ),
            ("sim.online_repair_ms", self.online_repair_ms),
            ("sim.online_attempts", self.online_attempts as f64),
            ("sim.lost_bytes", self.lost_bytes as f64),
            ("sim.resumed_ops", self.resumed_ops as f64),
            ("sim.verdict_completed", self.verdicts[0] as f64),
            ("sim.verdict_repaired", self.verdicts[1] as f64),
            ("sim.verdict_repaired_online", self.verdicts[2] as f64),
            ("sim.verdict_infeasible", self.verdicts[3] as f64),
            (
                "compute.train_model_ms",
                spans.total_ms("compute.train_model"),
            ),
            ("noc.reference_ms", spans.total_ms("noc.reference")),
            ("noc.ref_drift_ns_max", self.drift_max),
            ("analyzer.analyze_ms", spans.total_ms("analyzer.analyze")),
            (
                "analyzer.tightness_geomean",
                tightness(|t| stats::geomean(t.iter().copied())),
            ),
            (
                "analyzer.tightness_max",
                tightness(|t| t.iter().copied().fold(0.0, f64::max)),
            ),
            ("noc.trace_overhead", share(self.core_ms, self.timed_ms)),
        ]
    }
}

/// Route-cache activity over the timed pass.
#[derive(Debug, Default)]
pub struct CacheDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes: usize,
}

impl CacheDelta {
    /// The counters between two snapshots; `bytes` is what `after` retains.
    pub fn between(before: &RouteCacheStats, after: &RouteCacheStats) -> Self {
        CacheDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            bytes: after.retained_bytes,
        }
    }
}
