use meshcoll_topo::routing::RoutingAlgorithm;
use meshcoll_topo::{FaultModel, FaultTimeline, LinkId};

/// Network configuration (paper Table II).
///
/// All times are in nanoseconds; bandwidth is in bytes per nanosecond
/// (1 B/ns == 1 GB/s). The packet engines convert latencies and per-link
/// packet serialization times to integer picoseconds once per run,
/// rounding up; every Table II quantity is an exact picosecond count.
///
/// # Example
///
/// ```
/// use meshcoll_noc::NocConfig;
/// let cfg = NocConfig::paper_default();
/// assert_eq!(cfg.link_bandwidth, 25.0); // 25 GB/s
/// assert_eq!(cfg.packet_bytes, 8192);
/// assert_eq!(cfg.flits_per_packet(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Link bandwidth in bytes/ns (Table II: 25 GBps → 25.0).
    pub link_bandwidth: f64,
    /// Maximum packet size in bytes (Table II: 8192 B).
    pub packet_bytes: u64,
    /// Flit size in bytes (Table II: 512 B).
    pub flit_bytes: u64,
    /// Per-flit (per-hop header) latency in ns (Table II: 21 ns).
    pub per_flit_latency_ns: f64,
    /// Router clock frequency in GHz (Table II: 1 GHz).
    pub router_freq_ghz: f64,
    /// Number of virtual channels per input port (Table II: 4).
    pub num_vcs: usize,
    /// Per-VC buffer depth in flits (Table II: 318, covering the credit
    /// round-trip loop).
    pub vc_buffer_depth: usize,
    /// Dimension-order routing variant (paper: XY).
    pub routing: RoutingAlgorithm,
    /// Per-link bandwidth overrides in bytes/ns, for degraded-link studies
    /// (empty in the paper's homogeneous configuration). Links not listed
    /// run at [`link_bandwidth`](Self::link_bandwidth).
    pub link_overrides: Vec<(LinkId, f64)>,
    /// Per-packet router pipeline occupancy in ns: route computation and
    /// VC/switch allocation for each head flit hold the link for roughly one
    /// flit time before the next packet can follow. This is what makes
    /// sub-packet messages (tiny TTO chunks, Fig 14) pay relatively more
    /// overhead than full 8 KiB packets.
    pub per_packet_overhead_ns: f64,
    /// Fault model applied during simulation (empty in the healthy
    /// configuration). Failed links/chiplets stall the traffic routed over
    /// them (reported as [`NocError::Stalled`](crate::NocError::Stalled)),
    /// degraded links lose the configured bandwidth fraction, and transient
    /// flaps defer packets until the link comes back up.
    pub faults: FaultModel,
    /// Timed fault arrivals applied mid-run (empty in the healthy and
    /// statically-degraded configurations). Both packet engines honor a
    /// non-empty timeline (see [`crate::online`]); the flit engine rejects
    /// it with [`NocError::Unsupported`](crate::NocError::Unsupported).
    /// Timeline deaths are permanent, unlike
    /// [`LinkFlap`](meshcoll_topo::LinkFlap) windows.
    pub timeline: FaultTimeline,
}

impl NocConfig {
    /// The configuration of the paper's Table II.
    pub fn paper_default() -> Self {
        NocConfig {
            link_bandwidth: 25.0,
            packet_bytes: 8192,
            flit_bytes: 512,
            per_flit_latency_ns: 21.0,
            router_freq_ghz: 1.0,
            num_vcs: 4,
            vc_buffer_depth: 318,
            routing: RoutingAlgorithm::Xy,
            link_overrides: Vec::new(),
            per_packet_overhead_ns: 21.0,
            faults: FaultModel::default(),
            timeline: FaultTimeline::default(),
        }
    }

    /// Serialization time of `bytes` over one link, in ns.
    #[inline]
    pub fn serialization_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bandwidth
    }

    /// Number of flits a packet of `bytes` occupies (header rides in the
    /// first flit).
    #[inline]
    pub fn flits_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.flit_bytes).max(1)
    }

    /// Flits in a maximum-size packet.
    #[inline]
    pub fn flits_per_packet(&self) -> u64 {
        self.flits_for(self.packet_bytes)
    }

    /// Number of packets a message of `bytes` is split into.
    #[inline]
    pub fn packets_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.packet_bytes).max(1)
    }

    /// Time for one flit to cross a link at full bandwidth, in ns.
    #[inline]
    pub fn flit_slot_ns(&self) -> f64 {
        self.flit_bytes as f64 / self.link_bandwidth
    }

    /// Bandwidth of a specific link (bytes/ns), honoring overrides and any
    /// degradation recorded in [`faults`](Self::faults).
    pub fn bandwidth_of(&self, link: LinkId) -> f64 {
        Net::of(self).bandwidth_of(link)
    }

    /// Serialization time of `bytes` over a specific link, in ns.
    #[inline]
    pub fn serialization_on(&self, link: LinkId, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_of(link)
    }
}

/// One run's network: a configuration under a fault model and a timeline,
/// its own or an online segment's overlay and remaining timeline, so a
/// resumed segment runs without a copy of the configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Net<'a> {
    pub(crate) cfg: &'a NocConfig,
    pub(crate) faults: &'a FaultModel,
    pub(crate) timeline: &'a FaultTimeline,
}

impl<'a> Net<'a> {
    /// `cfg` under its own fault model and timeline.
    pub(crate) fn of(cfg: &'a NocConfig) -> Self {
        Net {
            cfg,
            faults: &cfg.faults,
            timeline: &cfg.timeline,
        }
    }

    /// Bandwidth of `link` (bytes/ns): its override or the configured
    /// bandwidth, times its degradation under this run's fault model.
    pub(crate) fn bandwidth_of(&self, link: LinkId) -> f64 {
        let base = self
            .cfg
            .link_overrides
            .iter()
            .find(|(l, _)| *l == link)
            .map_or(self.cfg.link_bandwidth, |&(_, bw)| bw);
        base * self.faults.degradation(link)
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_self_consistent() {
        let c = NocConfig::paper_default();
        // A 512 B flit at 25 GB/s serializes in 20.48 ns — the paper's 21 ns
        // per-flit latency is this serialization plus pipeline slack.
        assert!((c.flit_slot_ns() - 20.48).abs() < 1e-9);
        assert!((c.serialization_ns(8192) - 327.68).abs() < 1e-9);
    }

    #[test]
    fn packetization_rounds_up() {
        let c = NocConfig::paper_default();
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(8192), 1);
        assert_eq!(c.packets_for(8193), 2);
        assert_eq!(c.flits_for(1), 1);
        assert_eq!(c.flits_for(513), 2);
    }
}
