#![warn(missing_docs)]

//! AllReduce schedule generation for mesh-based MCM accelerators.
//!
//! This is the core crate of the `meshcoll` stack: it implements the two
//! algorithms contributed by *"Enhancing Collective Communication in MCM
//! Accelerators for Deep Learning Training"* (HPCA 2024) —
//!
//! * [`ring_bi_odd`] (**RingBiOdd**, §IV): bidirectional ring AllReduce for
//!   odd-sized meshes, built on a corner-excluded Hamiltonian cycle with
//!   just-in-time merge scheduling for the excluded corner's gradient,
//! * [`tto`] (**TTO**, §V): three directed-link-disjoint spanning trees with
//!   chunk overlap, trading one training chiplet for near-total link
//!   utilization —
//!
//! plus every baseline the paper evaluates against: unidirectional [`ring`],
//! hierarchical [`ring2d`], topology-oblivious [`dbtree`], topology-aware
//! [`multitree`], even-mesh bidirectional [`ring_bi`], and the [`hdrm`]
//! applicability verdict.
//!
//! All algorithms emit the same artifact — a [`Schedule`]: a dependency DAG
//! of byte-range transfers that (a) the [`verify`] module can execute on
//! concrete data to prove the AllReduce post-condition, and (b) the
//! `meshcoll-noc` simulators can time under real link contention.
//!
//! Under chiplet/link faults, the [`fault`] module lints schedules against a
//! `FaultModel` and regenerates (repairs) them over the surviving topology;
//! the [`online`] module repairs the *suffix* of a collective interrupted
//! mid-run, salvaging the partial sums the completed prefix produced.
//!
//! # Example
//!
//! ```
//! use meshcoll_collectives::{verify, Algorithm};
//! use meshcoll_topo::Mesh;
//!
//! // The paper's headline case: a 5x5 mesh is odd-sized, so classic
//! // bidirectional rings don't exist — but RingBiOdd does.
//! let mesh = Mesh::square(5)?;
//! assert!(Algorithm::RingBiEven.schedule(&mesh, 1 << 20).is_err());
//! let s = Algorithm::RingBiOdd.schedule(&mesh, 1 << 20)?;
//! verify::check_allreduce(&mesh, &s)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod algorithm;
mod error;
mod ring_common;
mod tree_common;

pub mod analysis;
pub mod atoms;
pub mod bitset;
pub mod dbtree;
pub mod export;
pub mod fault;
pub mod hdrm;
pub mod link_usage;
pub mod lint;
pub mod multitree;
pub mod online;
pub mod primitives;
pub mod ring;
pub mod ring2d;
pub mod ring_bi;
pub mod ring_bi_odd;
pub mod schedule;
pub mod stream;
pub mod tto;
pub mod verify;

pub use algorithm::{Algorithm, Applicability, ScheduleOptions};
pub use error::CollectiveError;
pub use online::{repair_suffix, SuffixContext, SuffixRepair};
pub use schedule::{CollectiveOp, OpId, OpKind, Schedule, ScheduleBuilder};
pub use stream::OpSink;
