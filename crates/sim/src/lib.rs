#![warn(missing_docs)]

//! Experiment engines for the `meshcoll` stack: everything the paper's
//! Python glue layer did between SCALE-Sim and BookSim.
//!
//! * [`SimEngine`] — times a collective [`Schedule`] on the packet-level
//!   network simulator, reporting makespan, achieved bandwidth, and link
//!   utilization (Figures 8, 9, 12, 14); under a configured fault model,
//!   [`SimEngine::run_degraded`] lints, repairs, and reports a
//!   [`RunStatus`] (completed / repaired / infeasible); opt-in
//!   ([`RunOptions::audit`]), [`SimEngine::audit`] streams one traced
//!   per-packet run of a schedule through the invariant auditor and checks
//!   conservation, causality, link exclusivity, engine identity,
//!   dependency conformance, and the AllReduce contract,
//!   while [`SimEngine::run_traced`] streams the structured event trace
//!   (including schedule-layer reductions) into any
//!   [`TraceSink`](meshcoll_noc::TraceSink); under a fault *timeline*
//!   (links/chiplets dying at run time), [`SimEngine::run_online`] drains
//!   the interrupted network, repairs the schedule suffix live from the
//!   salvaged partial sums, and resumes on the surviving topology (with
//!   [`OnlineOptions::audit`], streaming every segment through one
//!   auditor),
//! * [`SimContext`] / [`SweepRunner`] — a shared route cache for engines
//!   that repeat runs on the same mesh, and a scoped-thread fan-out over
//!   sweep points with deterministic result ordering (the `--jobs` flag of
//!   the figure binaries),
//! * [`synthesize_audited`] — the audited entry into the schedule-synthesis
//!   search ([`synth`], re-exported): beam search + annealing over chunk
//!   routing scored by the fast engine, with every pareto-front winner
//!   replayed through the full audit,
//! * [`epoch`] — the end-to-end one-epoch training-time model, including
//!   TTO's `N-1`-chiplet iteration-count adjustment and the §VIII-B overhead
//!   equations (Figures 10, 13),
//! * [`overlap`] — layer-wise AllReduce overlapped with back-propagation
//!   (Figure 11),
//! * [`theory`] — closed-form α–β cost models cross-checked against the
//!   simulator (the paper's step-count claims, §IV-B and §V-C),
//! * [`experiment`] — JSON result records, mirroring the paper artifact's
//!   output format.
//!
//! [`Schedule`]: meshcoll_collectives::Schedule
//!
//! # Example
//!
//! ```
//! use meshcoll_collectives::Algorithm;
//! use meshcoll_noc::NocConfig;
//! use meshcoll_sim::SimEngine;
//! use meshcoll_topo::Mesh;
//!
//! let mesh = Mesh::square(4)?;
//! let engine = SimEngine::new(NocConfig::paper_default());
//! let s = Algorithm::RingBiEven.schedule(&mesh, 1 << 20)?;
//! let run = engine.run(&mesh, &s)?;
//! assert!(run.bandwidth_gbps(1 << 20) > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod audit;
mod context;
mod engine;
mod error;
mod online;
mod sweep;
mod synthesis;

pub mod bandwidth;
pub mod epoch;
pub mod experiment;
pub mod overlap;
pub mod theory;

pub use audit::{AuditReport, AuditViolation, RunOptions};
pub use context::SimContext;
pub use engine::{DegradedRun, RunResult, RunStatus, SimEngine};
pub use error::SimError;
/// The static schedule analyzer, re-exported so experiment code can pair
/// every simulated run with its certified lower bounds.
pub use meshcoll_analyzer as analyzer;
pub use meshcoll_noc::SimMode;
/// The schedule-synthesis engine, re-exported so experiment code can search
/// for schedules and audit the winners without a separate dependency.
pub use meshcoll_synth as synth;
pub use online::{OnlineOptions, OnlineRun};
pub use sweep::SweepRunner;
pub use synthesis::synthesize_audited;
