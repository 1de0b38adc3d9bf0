use meshcoll_topo::{FaultModel, LinkId, Mesh};

use crate::MsgId;

/// Per-link occupancy accounting for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStats {
    busy_ns: Vec<f64>,
    physical_links: usize,
}

impl LinkStats {
    /// Counts only links the fault model leaves usable: a dead link cannot
    /// carry traffic, so including it in the denominator would under-report
    /// the utilization of degraded runs.
    pub(crate) fn new(mesh: &Mesh, faults: &FaultModel) -> Self {
        let usable = mesh
            .links()
            .filter(|&(_, _, link)| faults.link_usable(mesh, link))
            .count();
        LinkStats {
            busy_ns: vec![0.0; mesh.link_id_space()],
            physical_links: usable.max(1),
        }
    }

    /// Like [`LinkStats::new`], but reusing a recycled busy-time buffer so
    /// steady-state runs do not allocate (see `PacketSim::recycle`).
    pub(crate) fn recycled(mesh: &Mesh, faults: &FaultModel, mut busy_ns: Vec<f64>) -> Self {
        let usable = mesh
            .links()
            .filter(|&(_, _, link)| faults.link_usable(mesh, link))
            .count();
        busy_ns.clear();
        busy_ns.resize(mesh.link_id_space(), 0.0);
        LinkStats {
            busy_ns,
            physical_links: usable.max(1),
        }
    }

    /// Releases the busy-time buffer for pooling.
    pub(crate) fn into_busy(self) -> Vec<f64> {
        self.busy_ns
    }

    /// Mutable access to the raw per-link busy accumulator, so the coalesce
    /// engine can charge busy time without owning a `LinkStats`.
    pub(crate) fn busy_mut(&mut self) -> &mut [f64] {
        &mut self.busy_ns
    }

    pub(crate) fn add_busy(&mut self, link: LinkId, ns: f64) {
        self.busy_ns[link.index()] += ns;
    }

    /// Folds another run's busy time in link-wise; used by
    /// [`splice_outcomes`](crate::splice_outcomes) to sum the segments of a
    /// resumed online run.
    pub(crate) fn absorb(&mut self, other: &LinkStats) {
        debug_assert_eq!(self.busy_ns.len(), other.busy_ns.len());
        for (a, b) in self.busy_ns.iter_mut().zip(&other.busy_ns) {
            *a += b;
        }
    }

    /// Total busy time accumulated on `link`, in ns.
    pub fn busy_ns(&self, link: LinkId) -> f64 {
        self.busy_ns.get(link.index()).copied().unwrap_or(0.0)
    }

    /// Number of directed links that carried at least one packet.
    pub fn used_links(&self) -> usize {
        self.busy_ns.iter().filter(|&&b| b > 0.0).count()
    }

    /// Fraction of the mesh's *usable* directed links that carried traffic,
    /// in percent (the Table I metric). Links killed by the fault model are
    /// excluded from the denominator.
    pub fn used_link_percent(&self) -> f64 {
        100.0 * self.used_links() as f64 / self.physical_links as f64
    }

    /// Time-averaged network occupancy in percent over a window of
    /// `makespan_ns`: `sum(busy) / (usable_links * makespan)`. This is the
    /// Fig 12 link-utilization metric — an algorithm keeping 83 % of links
    /// busy for the whole AllReduce scores ~83 %. Dead links are excluded
    /// from the denominator.
    pub fn utilization_percent(&self, makespan_ns: f64) -> f64 {
        if makespan_ns <= 0.0 {
            return 0.0;
        }
        let total: f64 = self.busy_ns.iter().sum();
        100.0 * total / (self.physical_links as f64 * makespan_ns)
    }
}

/// The result of simulating a message DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    completion_ns: Vec<f64>,
    makespan_ns: f64,
    link_stats: LinkStats,
}

impl SimOutcome {
    pub(crate) fn new(completion_ns: Vec<f64>, link_stats: LinkStats) -> Self {
        let makespan_ns = completion_ns.iter().copied().fold(0.0, f64::max);
        SimOutcome {
            completion_ns,
            makespan_ns,
            link_stats,
        }
    }

    /// Decomposes the outcome into its owned buffers for pooling (see
    /// `PacketSim::recycle`).
    pub(crate) fn into_parts(self) -> (Vec<f64>, LinkStats) {
        (self.completion_ns, self.link_stats)
    }

    /// Completion time of a message (delivery of its last packet), in ns,
    /// or `None` when the id was not part of the run — consistent with the
    /// guarded [`LinkStats::busy_ns`] accessor.
    pub fn completion_ns(&self, id: MsgId) -> Option<f64> {
        self.completion_ns.get(id.index()).copied()
    }

    /// Completion times of all messages, indexed by message id.
    pub fn completions(&self) -> &[f64] {
        &self.completion_ns
    }

    /// Time at which the last message completed, in ns.
    pub fn makespan_ns(&self) -> f64 {
        self.makespan_ns
    }

    /// Per-link statistics.
    pub fn link_stats(&self) -> &LinkStats {
        &self.link_stats
    }

    /// Achieved bandwidth for `payload_bytes` of collective data:
    /// `bytes / makespan`, in bytes/ns (== GB/s).
    pub fn bandwidth_gbps(&self, payload_bytes: u64) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        payload_bytes as f64 / self.makespan_ns
    }

    /// Latency distribution of the given messages' completions relative to
    /// their `ready` times: `(mean, p50, p99, max)` in ns. `ready(i)` should
    /// return message `i`'s injection-eligible time (0.0 for unconstrained
    /// runs).
    pub fn latency_stats(&self, ready: impl Fn(usize) -> f64) -> LatencySummary {
        let mut lat: Vec<f64> = self
            .completion_ns
            .iter()
            .enumerate()
            .map(|(i, &c)| c - ready(i))
            .collect();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        if n == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            mean_ns: lat.iter().sum::<f64>() / n as f64,
            p50_ns: lat[nearest_rank(n, 50)],
            p99_ns: lat[nearest_rank(n, 99)],
            max_ns: lat[n - 1],
        }
    }
}

/// Nearest-rank percentile index into a sorted sample of `n` elements:
/// `ceil(p/100 * n) - 1`. For even `n`, p50 lands on the lower-mid element
/// (rank n/2), and p99 never truncates down to p98 for small samples.
fn nearest_rank(n: usize, percentile: usize) -> usize {
    debug_assert!(n > 0 && (1..=100).contains(&percentile));
    (n * percentile).div_ceil(100).max(1) - 1
}

/// Message-latency distribution summary; see [`SimOutcome::latency_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean completion latency, ns.
    pub mean_ns: f64,
    /// Median completion latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile completion latency, ns.
    pub p99_ns: f64,
    /// Worst-case completion latency, ns.
    pub max_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_topo::Mesh;

    #[test]
    fn nearest_rank_median_is_lower_mid_for_even_n() {
        // n = 4: ranks 1..=4, p50 -> rank 2 -> index 1 (not index 2).
        assert_eq!(nearest_rank(4, 50), 1);
        // n = 5: rank ceil(2.5) = 3 -> index 2, the true middle.
        assert_eq!(nearest_rank(5, 50), 2);
        assert_eq!(nearest_rank(1, 50), 0);
    }

    #[test]
    fn nearest_rank_p99_does_not_truncate_to_p98() {
        // n = 100: rank 99 -> index 98 (the 99th smallest).
        assert_eq!(nearest_rank(100, 99), 98);
        // Small n: p99 must land on the max, not one below it.
        assert_eq!(nearest_rank(10, 99), 9);
        assert_eq!(nearest_rank(3, 99), 2);
        assert_eq!(nearest_rank(100, 100), 99);
    }

    #[test]
    fn latency_stats_uses_nearest_rank() {
        let mesh = Mesh::square(3).unwrap();
        let faults = FaultModel::default();
        // Completions 10, 20, 30, 40 with ready = 0.
        let out = SimOutcome::new(vec![40.0, 10.0, 30.0, 20.0], LinkStats::new(&mesh, &faults));
        let s = out.latency_stats(|_| 0.0);
        assert_eq!(s.p50_ns, 20.0); // lower-mid of even sample
        assert_eq!(s.p99_ns, 40.0); // max for n = 4
        assert_eq!(s.max_ns, 40.0);
        assert_eq!(s.mean_ns, 25.0);
    }

    #[test]
    fn completion_ns_is_none_for_unknown_id() {
        let mesh = Mesh::square(3).unwrap();
        let faults = FaultModel::default();
        let out = SimOutcome::new(vec![5.0], LinkStats::new(&mesh, &faults));
        assert_eq!(out.completion_ns(MsgId(0)), Some(5.0));
        assert_eq!(out.completion_ns(MsgId(7)), None);
    }

    #[test]
    fn dead_links_shrink_the_utilization_denominator() {
        let mesh = Mesh::square(3).unwrap();
        let healthy = LinkStats::new(&mesh, &FaultModel::default());
        let mut faults = FaultModel::default();
        let a = mesh.node_ids().next().unwrap();
        let b = mesh
            .node_ids()
            .find(|&n| mesh.link_between(a, n).is_ok())
            .unwrap();
        faults.fail_link_between(&mesh, a, b).unwrap();
        let degraded = LinkStats::new(&mesh, &faults);
        assert!(degraded.physical_links < healthy.physical_links);
        assert_eq!(healthy.physical_links, mesh.directed_links());
    }
}
