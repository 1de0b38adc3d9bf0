//! Schedule synthesis: beam search over chunk routing with the fast packet
//! simulator as the inner-loop oracle.
//!
//! The search seeds its population from the repo's analytical
//! decompositions (Ring, the parity-matched bidirectional ring, MultiTree,
//! TTO — each regenerated for the configured [`FaultModel`] mask via
//! [`fault::repair`]), then explores by simulated-annealing mutation over
//! chunk routing and op ordering: relay-reroute a chunk onto the YX corner,
//! split and merge atoms, swap reduce-tree operands, reorder independent
//! ops. Every candidate must survive the full validation stack — structural
//! lint, fault lint, reduce in-degree, symbolic contribution flow, and the
//! executed AllReduce post-condition under several topological orders —
//! before it is scored. Candidates are then pruned against the static
//! analyzer's *certified* lower bounds: a child whose bound already meets
//! the beam's worst simulated makespan provably cannot improve the beam, so
//! it never reaches the simulator. Survivors are scored with
//! [`PacketSim::simulate_dag`] on the schedule itself (the coalescing fast
//! path with exact fallback) and folded into a pareto front of makespan
//! versus peak link utilization.
//!
//! The search is bit-identical for a fixed seed regardless of `jobs`:
//! every candidate's RNG stream is keyed by its deterministic candidate id,
//! never by the thread that happens to evaluate it.
//!
//! [`FaultModel`]: meshcoll_noc::config::NocConfig

mod ir;
mod pareto;

use std::fmt;

use ir::{mutate, Candidate};
use meshcoll_analyzer as analyzer;
use meshcoll_collectives::{fault, lint, verify, Algorithm, Schedule, ScheduleOptions};
use meshcoll_noc::{NocConfig, NocError, NullSink, PacketSim};
use meshcoll_topo::Mesh;
use meshcoll_util::rng::Rng;
use pareto::ParetoFront;

/// Children proposed per beam member per annealing iteration.
const CHILDREN_PER_PARENT: usize = 4;
/// Seeds for the randomized-topological-order functional checks.
const ORDER_SEEDS: [u64; 2] = [0x5EED_0001, 0x5EED_0002];
/// Golden-ratio–flavoured stream separation for per-candidate RNGs.
const STREAM_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// Separate stream for the annealer's acceptance draws.
const ACCEPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Gradient size in bytes; split across participants by each seed.
    pub data_bytes: u64,
    /// Master RNG seed; the whole search is a pure function of it.
    pub seed: u64,
    /// Beam width (parents kept per iteration); must be positive.
    pub beam_width: usize,
    /// Annealing iterations; must be positive.
    pub anneal_iters: usize,
    /// Worker threads for candidate evaluation; must be positive. Does not
    /// affect results, only wall-clock.
    pub jobs: usize,
    /// Interconnect model, including the fault mask to synthesize around.
    pub noc: NocConfig,
    /// Seed-decomposition tunables (TTO chunk size etc.).
    pub opts: ScheduleOptions,
}

impl SynthConfig {
    /// A small-budget configuration suitable for CI smoke runs.
    pub fn quick(data_bytes: u64) -> Self {
        SynthConfig {
            data_bytes,
            seed: 0xC0FFEE,
            beam_width: 6,
            anneal_iters: 8,
            jobs: 1,
            noc: NocConfig::paper_default(),
            opts: ScheduleOptions::default(),
        }
    }

    /// Rejects configurations the search cannot run with.
    ///
    /// # Errors
    ///
    /// [`SynthError::InvalidConfig`] naming the zero field.
    pub fn validate(&self) -> Result<(), SynthError> {
        for (what, ok) in [
            ("data_bytes", self.data_bytes > 0),
            ("beam_width", self.beam_width > 0),
            ("anneal_iters", self.anneal_iters > 0),
            ("jobs", self.jobs > 0),
        ] {
            if !ok {
                return Err(SynthError::InvalidConfig { what });
            }
        }
        Ok(())
    }
}

/// Errors from [`synthesize`].
#[derive(Debug)]
#[non_exhaustive]
pub enum SynthError {
    /// A configuration field was zero or otherwise unusable.
    InvalidConfig {
        /// The offending field.
        what: &'static str,
    },
    /// No seed decomposition produced a schedule that survives validation
    /// on this mesh + fault mask, so the search has nothing to grow from.
    NoFeasibleSeed,
    /// The scoring simulator rejected a message DAG.
    Network(
        /// The underlying simulator error.
        NocError,
    ),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidConfig { what } => {
                write!(f, "invalid synthesis config: {what} must be positive")
            }
            SynthError::NoFeasibleSeed => {
                f.write_str("no seed decomposition is feasible on this mesh + fault mask")
            }
            SynthError::Network(e) => write!(f, "scoring simulation failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NocError> for SynthError {
    fn from(e: NocError) -> Self {
        SynthError::Network(e)
    }
}

/// A validated, simulated schedule with its scores.
#[derive(Debug, Clone)]
pub struct ScoredSchedule {
    /// The emitted schedule (named `synth`); passes the full validation
    /// stack on the configured mesh + fault mask.
    pub schedule: Schedule,
    /// Provenance: `seed:<alg>` or `<alg>+<n>mut`.
    pub origin: String,
    /// Simulated makespan under the configured [`NocConfig`].
    pub makespan_ns: f64,
    /// Busiest link's busy time as a fraction of the makespan, in `[0, 1]`.
    pub peak_link_utilization: f64,
    /// The analyzer's certified lower bound for this schedule, in ns.
    pub lower_bound_ns: f64,
}

/// The outcome of a synthesis run.
#[derive(Debug)]
pub struct SynthReport {
    /// Mutually non-dominated schedules, ascending by makespan. Pareto
    /// status is among the candidates this run scored, not a global claim.
    pub pareto: Vec<ScoredSchedule>,
    /// `(algorithm name, simulated makespan)` for every feasible seed.
    pub seeds: Vec<(String, f64)>,
    /// Candidates that reached the simulator (seeds included).
    pub evaluated: usize,
    /// Candidates discarded by the analyzer before simulation: statically
    /// infeasible, or certified lower bound at or above the beam's worst
    /// simulated makespan.
    pub pruned: usize,
    /// Candidates discarded by the validation stack.
    pub rejected: usize,
}

impl SynthReport {
    /// The fastest schedule found.
    pub fn best(&self) -> Option<&ScoredSchedule> {
        self.pareto.first()
    }

    /// The simulated makespan of a named seed, if that seed was feasible.
    pub fn seed_makespan(&self, name: &str) -> Option<f64> {
        self.seeds
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, mk)| mk)
    }

    /// A determinism fingerprint: every front member's origin, exact
    /// makespan and utilization bits, and op count. Two runs with the same
    /// seed must produce identical fingerprints regardless of `jobs`.
    pub fn fingerprint(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for p in &self.pareto {
            let _ = writeln!(
                s,
                "{} mk={:016x} peak={:016x} ops={}",
                p.origin,
                p.makespan_ns.to_bits(),
                p.peak_link_utilization.to_bits(),
                p.schedule.len()
            );
        }
        s
    }
}

/// What evaluating one candidate produced.
enum Outcome {
    /// Failed the validation stack.
    Rejected,
    /// Discarded by the analyzer before simulation.
    Pruned,
    /// Validated and simulated.
    Scored(Box<(Candidate, ScoredSchedule)>),
    /// The simulator itself errored (propagated to the caller).
    Failed(NocError),
}

/// Synthesizes AllReduce schedules for `mesh` under `cfg`'s fault mask.
///
/// # Errors
///
/// * [`SynthError::InvalidConfig`] for zero knobs,
/// * [`SynthError::NoFeasibleSeed`] when no decomposition survives on the
///   masked topology,
/// * [`SynthError::Network`] if the scoring simulator rejects a DAG.
pub fn synthesize(mesh: &Mesh, cfg: &SynthConfig) -> Result<SynthReport, SynthError> {
    cfg.validate()?;
    let sim = PacketSim::new(cfg.noc.clone());
    let mut front = ParetoFront::default();
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    let mut rejected = 0usize;

    // Seed population: each decomposition regenerated for the fault mask.
    // Repair failures (no cycle, partition, unsupported) just drop a seed;
    // validation failures do too — the search only grows from schedules it
    // could have emitted itself.
    let mut beam: Vec<(Candidate, f64)> = Vec::new();
    let mut seeds: Vec<(String, f64)> = Vec::new();
    for alg in [
        Algorithm::Ring,
        Algorithm::ring_bi_for(mesh),
        Algorithm::MultiTree,
        Algorithm::Tto,
    ] {
        let Ok(repair) = fault::repair(alg, mesh, &cfg.noc.faults, cfg.data_bytes, &cfg.opts)
        else {
            continue;
        };
        let cand = Candidate::from_schedule(alg.name(), &repair.schedule);
        match evaluate(&cand, mesh, cfg, &sim, f64::INFINITY) {
            Outcome::Scored(boxed) => {
                let (cand, scored) = *boxed;
                evaluated += 1;
                seeds.push((alg.name().to_string(), scored.makespan_ns));
                beam.push((cand, scored.makespan_ns));
                front.insert(scored);
            }
            Outcome::Rejected => rejected += 1,
            Outcome::Pruned => pruned += 1,
            Outcome::Failed(e) => return Err(e.into()),
        }
    }
    if beam.is_empty() {
        return Err(SynthError::NoFeasibleSeed);
    }
    beam.sort_by(|a, b| a.1.total_cmp(&b.1));
    beam.truncate(cfg.beam_width);

    // Annealing temperature starts at a tenth of the best seed makespan
    // and cools geometrically; acceptance draws come from a dedicated
    // stream so they never interleave with mutation draws.
    let t0 = beam[0].1 * 0.1;
    let mut accept_rng = Rng::new(cfg.seed ^ ACCEPT_SALT);
    let mut next_id: u64 = 0;

    for iter in 0..cfg.anneal_iters {
        let temperature = t0 * 0.85f64.powi(iter as i32);
        // Worst beam makespan, fixed before scoring: any child whose
        // certified lower bound reaches it cannot enter the beam.
        let cutoff = beam.last().map_or(f64::INFINITY, |&(_, mk)| mk);

        // Propose children sequentially — candidate ids (and therefore RNG
        // streams) depend only on beam order, never on thread timing.
        let mut children: Vec<(usize, Candidate)> = Vec::new();
        for (parent_idx, (parent, _)) in beam.iter().enumerate() {
            for _ in 0..CHILDREN_PER_PARENT {
                let id = next_id;
                next_id += 1;
                let mut rng = Rng::new(cfg.seed.wrapping_add((id + 1).wrapping_mul(STREAM_SALT)));
                if let Some((child, _op)) = mutate(parent, mesh, &mut rng) {
                    children.push((parent_idx, child));
                }
            }
        }

        let outcomes = evaluate_all(&children, cfg.jobs, &|(_, cand)| {
            evaluate(cand, mesh, cfg, &sim, cutoff)
        });

        // Merge strictly in candidate-id order: counters, pareto inserts,
        // and acceptance draws are all jobs-independent.
        let mut accepted: Vec<(Candidate, f64)> = Vec::new();
        for ((parent_idx, _), outcome) in children.into_iter().zip(outcomes) {
            match outcome {
                Outcome::Rejected => rejected += 1,
                Outcome::Pruned => pruned += 1,
                Outcome::Failed(e) => return Err(e.into()),
                Outcome::Scored(boxed) => {
                    let (cand, scored) = *boxed;
                    evaluated += 1;
                    let parent_mk = beam[parent_idx].1;
                    let mk = scored.makespan_ns;
                    front.insert(scored);
                    let take = mk < parent_mk || {
                        let uphill = mk - parent_mk;
                        temperature > 0.0
                            && accept_rng.range_f64(0.0, 1.0) < (-uphill / temperature).exp()
                    };
                    if take {
                        accepted.push((cand, mk));
                    }
                }
            }
        }

        beam.extend(accepted);
        // Stable sort: equal makespans keep survivor-then-child id order.
        beam.sort_by(|a, b| a.1.total_cmp(&b.1));
        beam.truncate(cfg.beam_width);
    }

    Ok(SynthReport {
        pareto: front.into_sorted(),
        seeds,
        evaluated,
        pruned,
        rejected,
    })
}

/// Runs the full validation stack, the analyzer gate, and (for survivors)
/// the scoring simulation for one candidate.
fn evaluate(
    cand: &Candidate,
    mesh: &Mesh,
    cfg: &SynthConfig,
    sim: &PacketSim,
    cutoff: f64,
) -> Outcome {
    let schedule = cand.to_schedule();
    if !validates(mesh, cfg, &schedule) {
        return Outcome::Rejected;
    }
    let report = analyzer::analyze(mesh, &schedule, &cfg.noc);
    if !report.is_feasible() {
        return Outcome::Pruned;
    }
    let lower_bound_ns = report.lower_bound_ns();
    if lower_bound_ns >= cutoff {
        return Outcome::Pruned;
    }
    match score(sim, mesh, &schedule, lower_bound_ns, cand.origin()) {
        Ok(scored) => Outcome::Scored(Box::new((cand.clone(), scored))),
        Err(e) => Outcome::Failed(e),
    }
}

/// The emission gate: structural lint, fault lint, reduce in-degree,
/// symbolic contribution flow, and the executed AllReduce post-condition in
/// insertion order plus randomized topological orders.
fn validates(mesh: &Mesh, cfg: &SynthConfig, schedule: &Schedule) -> bool {
    lint::lint(mesh, schedule).is_empty()
        && fault::lint(mesh, &cfg.noc.faults, schedule, cfg.noc.routing).is_empty()
        && verify::check_reduce_indegree(schedule).is_ok()
        && verify::check_contribution_flow(mesh, schedule).is_ok()
        && verify::check_allreduce(mesh, schedule).is_ok()
        && ORDER_SEEDS
            .iter()
            .all(|&s| verify::check_allreduce_seeded(mesh, schedule, s).is_ok())
}

/// Simulates the schedule in place (it is the engine's transfer DAG) and
/// extracts makespan + peak link utilization.
fn score(
    sim: &PacketSim,
    mesh: &Mesh,
    schedule: &Schedule,
    lower_bound_ns: f64,
    origin: String,
) -> Result<ScoredSchedule, NocError> {
    let outcome = sim
        .simulate_dag(mesh, schedule, &mut NullSink)?
        .into_outcome()?;
    let makespan_ns = outcome.makespan_ns();
    let peak_link_utilization = if makespan_ns > 0.0 {
        mesh.links()
            .map(|(_, _, l)| outcome.link_stats().busy_ns(l) / makespan_ns)
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    sim.recycle(outcome);
    Ok(ScoredSchedule {
        schedule: schedule.clone(),
        origin,
        makespan_ns,
        peak_link_utilization,
        lower_bound_ns,
    })
}

/// Maps `eval` over `items` on up to `jobs` scoped threads, writing results
/// into index-addressed slots — output order (and therefore everything
/// derived from it) is independent of thread scheduling.
fn evaluate_all<T: Sync>(
    items: &[T],
    jobs: usize,
    eval: &(impl Fn(&T) -> Outcome + Sync),
) -> Vec<Outcome> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(eval).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    let mut slots: Vec<Option<Outcome>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (part, out) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in part.iter().zip(out.iter_mut()) {
                    *slot = Some(eval(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every evaluation slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_topo::NodeId;

    fn quick(mesh_bytes: u64) -> SynthConfig {
        let mut cfg = SynthConfig::quick(mesh_bytes);
        cfg.beam_width = 4;
        cfg.anneal_iters = 3;
        cfg
    }

    #[test]
    fn zero_knobs_are_rejected_by_name() {
        let mesh = Mesh::square(4).unwrap();
        for (field, apply) in [
            (
                "beam_width",
                (|c: &mut SynthConfig| c.beam_width = 0) as fn(&mut SynthConfig),
            ),
            ("anneal_iters", |c| c.anneal_iters = 0),
            ("jobs", |c| c.jobs = 0),
            ("data_bytes", |c| c.data_bytes = 0),
        ] {
            let mut cfg = quick(1 << 20);
            apply(&mut cfg);
            match synthesize(&mesh, &cfg) {
                Err(SynthError::InvalidConfig { what }) => assert_eq!(what, field),
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn analyzer_bound_prunes_before_simulation() {
        let mesh = Mesh::square(4).unwrap();
        let cfg = quick(1 << 20);
        let sim = PacketSim::new(cfg.noc.clone());
        let schedule = Algorithm::Ring.schedule(&mesh, cfg.data_bytes).unwrap();
        let cand = Candidate::from_schedule("Ring", &schedule);
        // A cutoff below any positive certified bound: the candidate is
        // discarded by the analyzer gate without reaching the simulator.
        assert!(matches!(
            evaluate(&cand, &mesh, &cfg, &sim, 1.0),
            Outcome::Pruned
        ));
        // With no cutoff the same candidate validates and scores.
        assert!(matches!(
            evaluate(&cand, &mesh, &cfg, &sim, f64::INFINITY),
            Outcome::Scored(_)
        ));
    }

    #[test]
    fn search_never_regresses_below_its_seeds() {
        let mesh = Mesh::square(4).unwrap();
        let report = synthesize(&mesh, &quick(1 << 20)).unwrap();
        assert!(!report.pareto.is_empty());
        assert!(!report.seeds.is_empty());
        let best = report.best().unwrap().makespan_ns;
        for (name, mk) in &report.seeds {
            assert!(best <= *mk, "best {best} worse than seed {name} at {mk}");
        }
        for p in &report.pareto {
            assert!(
                p.makespan_ns >= p.lower_bound_ns * (1.0 - 1e-9),
                "{}: makespan {} undercuts its certified bound {}",
                p.origin,
                p.makespan_ns,
                p.lower_bound_ns
            );
        }
    }

    #[test]
    fn search_is_bit_identical_across_job_counts() {
        let mesh = Mesh::square(4).unwrap();
        let mut one = quick(1 << 20);
        one.jobs = 1;
        let mut four = quick(1 << 20);
        four.jobs = 4;
        let a = synthesize(&mesh, &one).unwrap();
        let b = synthesize(&mesh, &four).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            (a.evaluated, a.pruned, a.rejected),
            (b.evaluated, b.pruned, b.rejected)
        );
    }

    #[test]
    fn faulted_mesh_synthesis_emits_fault_clean_schedules() {
        let mesh = Mesh::square(5).unwrap();
        let mut cfg = quick(1 << 20);
        cfg.noc
            .faults
            .fail_link_between(&mesh, NodeId(6), NodeId(7))
            .unwrap();
        let report = synthesize(&mesh, &cfg).unwrap();
        for p in &report.pareto {
            assert!(
                fault::lint(&mesh, &cfg.noc.faults, &p.schedule, cfg.noc.routing).is_empty(),
                "{} routes over the dead link",
                p.origin
            );
        }
    }
}
