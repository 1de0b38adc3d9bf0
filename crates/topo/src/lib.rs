#![warn(missing_docs)]

//! Mesh topology substrate for the `meshcoll` simulation stack.
//!
//! This crate models the on-package interconnect topology of a multi-chip-module
//! (MCM) accelerator: a 2D mesh of chiplets connected by bidirectional
//! neighbor links (each modelled as a pair of directed links). It provides:
//!
//! * [`Mesh`] — the topology itself, with row-major [`NodeId`] numbering and
//!   dense [`LinkId`] numbering of directed links,
//! * [`routing`] — XY dimension-order routes between arbitrary node pairs,
//! * [`hamiltonian`] — Hamiltonian-cycle constructions used by the ring-based
//!   AllReduce algorithms, including the odd-mesh cycle that excludes one
//!   corner (paper §IV-A),
//! * [`tree`] — a rooted-tree container used by the tree-based AllReduce
//!   algorithms (DBTree, MultiTree, TTO),
//! * [`fault`] — a model of dead/degraded links and chiplets,
//! * [`masked`] — cycle/tree constructions on the fault-masked topology,
//!   which return a typed [`TopologyError::Infeasible`] when the survivors
//!   cannot support the structure, plus
//! * [`dag`] — [`TransferDag`], the read-only transfer-DAG view the packet
//!   engines simulate, so schedules and message lists run in place.
//!
//! # Example
//!
//! ```
//! use meshcoll_topo::{Mesh, Coord};
//!
//! let mesh = Mesh::new(3, 4)?;
//! assert_eq!(mesh.nodes(), 12);
//! assert_eq!(mesh.directed_links(), 2 * (3 * 3 + 2 * 4));
//! let n = mesh.node_at(Coord::new(1, 2));
//! assert_eq!(mesh.coord(n), Coord::new(1, 2));
//! # Ok::<(), meshcoll_topo::TopologyError>(())
//! ```

pub mod dag;
mod error;
pub mod fault;
pub mod hamiltonian;
pub mod hierarchy;
pub mod masked;
mod mesh;
pub mod routing;
pub mod timeline;
pub mod tree;

pub use dag::TransferDag;
pub use error::TopologyError;
pub use fault::{FaultModel, LinkFlap};
pub use hierarchy::Hierarchy;
pub use masked::MaskedCycle;
pub use mesh::{Coord, Direction, LinkId, Mesh, NodeId, MAX_NODES};
pub use routing::{RouteCache, RouteCacheStats, RoutingAlgorithm};
pub use timeline::{FaultEvent, FaultTimeline};
pub use tree::Tree;
