#![warn(missing_docs)]

//! On-package network simulators for mesh-based MCM accelerators.
//!
//! This crate is the BookSim substitute of the `meshcoll` stack: it models
//! the chiplet-to-chiplet interconnect of a multi-chip module as a 2D mesh
//! with XY dimension-order routing and virtual-cut-through flow control, at
//! the configuration the paper uses (Table II: 25 GB/s links, 8 KiB packets,
//! 512 B flits, 21 ns per-flit latency, 1 GHz routers, 4 VCs).
//!
//! Two engines share one input format — a DAG of transfers, written as
//! [`Message`]s — and one output format ([`SimOutcome`]). The packet engine
//! also reads any [`TransferDag`](meshcoll_topo::TransferDag) in place
//! ([`PacketSim::simulate_dag`]), so a collective schedule runs without
//! being copied into messages:
//!
//! * [`PacketSim`] — an event-driven packet-granularity simulator. Packets
//!   traverse their XY route hop by hop; each directed link serializes the
//!   packets that contend for it and charges `packet_bytes / bandwidth`
//!   of busy time per packet plus a per-hop header latency. This is the
//!   primary engine: fast enough for GB-scale AllReduce sweeps while
//!   capturing bandwidth, hop latency, and link contention — the three
//!   effects the paper's results hinge on. It keeps exact integer
//!   picoseconds internally ([`ns_to_ps`], [`ps_to_ns`]), so its
//!   packet-train fast path and its per-packet reference agree bit for bit.
//! * [`FlitSim`] — a cycle-driven flit-level router model with per-VC input
//!   buffers, credit-based flow control, and virtual cut-through switching.
//!   It is slower and exists to validate the packet engine (tests assert the
//!   two agree on latency/bandwidth for small transfers).
//!
//! # Example
//!
//! ```
//! use meshcoll_noc::{Message, MsgId, NocConfig, PacketSim, NetworkSim};
//! use meshcoll_topo::{Mesh, NodeId};
//!
//! let mesh = Mesh::square(4)?;
//! let cfg = NocConfig::paper_default();
//! // One 1 MiB transfer across the mesh, then a dependent reply.
//! let msgs = vec![
//!     Message::new(MsgId(0), NodeId(0), NodeId(15), 1 << 20),
//!     Message::new(MsgId(1), NodeId(15), NodeId(0), 1 << 20).with_deps([MsgId(0)]),
//! ];
//! let outcome = PacketSim::new(cfg).run(&mesh, &msgs)?;
//! let reply = outcome.completion_ns(MsgId(1)).expect("simulated");
//! assert!(reply > outcome.completion_ns(MsgId(0)).expect("simulated"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Tracing and auditing
//!
//! Both engines can emit a structured event stream ([`TraceEvent`]) through
//! any [`TraceSink`] via `run_traced`/`simulate_traced`. The default
//! [`NullSink`] compiles the emission paths out entirely, so untraced runs
//! pay nothing. The [`InvariantAuditor`] is itself a sink: it checks
//! conservation, causality, hop order, drop accounting and link
//! exclusivity as the events stream in, buffering none; see [`audit`].

pub mod audit;
mod calendar;
mod coalesce;
mod config;
mod error;
mod flit_sim;
mod message;
pub mod online;
mod packet_sim;
mod stats;
mod time;
pub mod trace;

pub use audit::{InvariantAuditor, TraceAudit, Violation};
pub use config::NocConfig;
pub use error::NocError;
pub use flit_sim::FlitSim;
pub use message::{Message, MsgId, MAX_MESSAGES};
pub use online::{splice_outcomes, DrainSnapshot, OnlineReport, ReportDiff};
pub use packet_sim::{Decline, Engine, PacketSim, SimMode};
pub use stats::{LatencySummary, LinkStats, SimOutcome};
pub use time::{ns_to_ps, ps_to_ns};
pub use trace::{JsonlSink, MemorySink, NullSink, RingSink, TraceEvent, TraceSink};

use meshcoll_topo::Mesh;

/// A network simulation engine: runs a DAG of [`Message`]s over a mesh and
/// reports completion times and link statistics.
///
/// Both [`PacketSim`] and [`FlitSim`] implement this trait, so experiment
/// code can be written engine-agnostically.
pub trait NetworkSim {
    /// Simulates the message DAG to completion.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] when a message references an out-of-range node,
    /// a missing or cyclic dependency, or a zero-byte payload.
    fn run(&mut self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError>;
}
