//! Fault model for degraded MCM packages.
//!
//! Interposer links and chiplets fail or degrade in the field. A
//! [`FaultModel`] records which directed links are dead, which chiplets are
//! dead, which links run below nominal bandwidth, and (optionally) transient
//! link flaps generated from a deterministic seed. The model is consumed by
//! the masked-topology constructions in [`crate::masked`], by the collective
//! schedule lint/repair passes, and by the NoC engines.

use std::collections::{BTreeMap, BTreeSet};

use crate::{LinkId, Mesh, NodeId, TopologyError};

/// A transient outage window on one directed link: the link accepts no new
/// transmissions in `[down_ns, up_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlap {
    /// The flapping directed link.
    pub link: LinkId,
    /// Start of the outage window (ns).
    pub down_ns: f64,
    /// End of the outage window (ns); the link is usable again from here.
    pub up_ns: f64,
}

/// The set of permanent and transient faults afflicting a mesh.
///
/// Node and link ids are stored as raw indices so the model is independent
/// of any particular [`Mesh`] instance; [`FaultModel::validate`] checks the
/// ids against a concrete mesh. Link failures are directed — use
/// [`FaultModel::fail_link_between`] to kill both directions of a physical
/// channel, which is what a broken interposer trace means in practice.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultModel {
    failed_nodes: BTreeSet<usize>,
    failed_links: BTreeSet<usize>,
    /// Fraction of nominal bandwidth remaining, per degraded directed link.
    degraded: BTreeMap<usize, f64>,
    flaps: Vec<LinkFlap>,
}

impl FaultModel {
    /// An empty fault set (a healthy package).
    pub fn new() -> Self {
        FaultModel::default()
    }

    /// True when no fault of any kind is recorded.
    pub fn is_empty(&self) -> bool {
        self.failed_nodes.is_empty()
            && self.failed_links.is_empty()
            && self.degraded.is_empty()
            && self.flaps.is_empty()
    }

    /// Marks a chiplet as dead. All its links become unusable implicitly.
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed_nodes.insert(node.index());
    }

    /// Marks a single directed link as dead.
    pub fn fail_link(&mut self, link: LinkId) {
        self.failed_links.insert(link.index());
    }

    /// Kills both directions of the physical channel between two neighbor
    /// chiplets.
    ///
    /// # Errors
    ///
    /// Fails when `a` and `b` are out of range or not neighbors on `mesh`.
    pub fn fail_link_between(
        &mut self,
        mesh: &Mesh,
        a: NodeId,
        b: NodeId,
    ) -> Result<(), TopologyError> {
        self.failed_links.insert(mesh.link_between(a, b)?.index());
        self.failed_links.insert(mesh.link_between(b, a)?.index());
        Ok(())
    }

    /// Degrades one directed link to `fraction` of its nominal bandwidth.
    ///
    /// `fraction` is clamped to `(0, 1]`; use [`FaultModel::fail_link`] for a
    /// dead link.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        let f = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        self.degraded.insert(link.index(), f);
    }

    /// Degrades both directions of the channel between two neighbor chiplets.
    ///
    /// # Errors
    ///
    /// Fails when `a` and `b` are out of range or not neighbors on `mesh`.
    pub fn degrade_link_between(
        &mut self,
        mesh: &Mesh,
        a: NodeId,
        b: NodeId,
        fraction: f64,
    ) -> Result<(), TopologyError> {
        self.degrade_link(mesh.link_between(a, b)?, fraction);
        self.degrade_link(mesh.link_between(b, a)?, fraction);
        Ok(())
    }

    /// Records a transient outage window on one directed link.
    pub fn add_flap(&mut self, flap: LinkFlap) {
        self.flaps.push(flap);
    }

    /// Adds `count` transient outage windows on random live links, generated
    /// deterministically from `seed` (same seed, same mesh → same flaps).
    /// Each outage starts uniformly in `[0, horizon_ns)` and lasts `down_ns`.
    pub fn add_random_flaps(
        &mut self,
        mesh: &Mesh,
        count: usize,
        horizon_ns: f64,
        down_ns: f64,
        seed: u64,
    ) {
        let candidates: Vec<LinkId> = mesh
            .links()
            .filter_map(|(_, _, l)| self.link_usable(mesh, l).then_some(l))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for _ in 0..count {
            let link = candidates[(xorshift(&mut state) as usize) % candidates.len()];
            let start = (xorshift(&mut state) as f64 / u64::MAX as f64) * horizon_ns;
            self.flaps.push(LinkFlap {
                link,
                down_ns: start,
                up_ns: start + down_ns,
            });
        }
    }

    /// True if the chiplet is dead.
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.failed_nodes.contains(&node.index())
    }

    /// True if the directed link itself is marked dead (endpoint failures
    /// are not consulted; see [`FaultModel::link_usable`]).
    pub fn link_failed(&self, link: LinkId) -> bool {
        self.failed_links.contains(&link.index())
    }

    /// True if traffic may use the directed link: the link is not dead and
    /// neither of its endpoints is a dead chiplet.
    ///
    /// `link` must be a real link of `mesh` (a boundary slot id panics, as
    /// in [`Mesh::link_endpoints`]).
    pub fn link_usable(&self, mesh: &Mesh, link: LinkId) -> bool {
        if self.link_failed(link) {
            return false;
        }
        let (src, dst) = mesh.link_endpoints(link);
        !self.node_failed(src) && !self.node_failed(dst)
    }

    /// Remaining bandwidth fraction of a directed link (`1.0` if healthy).
    pub fn degradation(&self, link: LinkId) -> f64 {
        self.degraded.get(&link.index()).copied().unwrap_or(1.0)
    }

    /// Earliest time `>= t_ns` at which the link is outside every transient
    /// outage window.
    pub fn available_at(&self, link: LinkId, t_ns: f64) -> f64 {
        let mut t = t_ns;
        let mut moved = true;
        while moved {
            moved = false;
            for f in &self.flaps {
                if f.link == link && t >= f.down_ns && t < f.up_ns {
                    t = f.up_ns;
                    moved = true;
                }
            }
        }
        t
    }

    /// Number of dead chiplets.
    pub fn failed_node_count(&self) -> usize {
        self.failed_nodes.len()
    }

    /// Number of dead directed links.
    pub fn failed_link_count(&self) -> usize {
        self.failed_links.len()
    }

    /// The dead chiplets, in id order.
    pub(crate) fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed_nodes.iter().map(|&n| NodeId(n))
    }

    /// The dead directed links, in id order.
    pub(crate) fn failed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed_links.iter().map(|&l| LinkId(l))
    }

    /// The transient outage windows.
    pub fn flaps(&self) -> &[LinkFlap] {
        &self.flaps
    }

    /// The chiplets of `mesh` that are alive, in id order.
    pub fn surviving_nodes(&self, mesh: &Mesh) -> Vec<NodeId> {
        mesh.node_ids().filter(|&n| !self.node_failed(n)).collect()
    }

    /// Checks that every recorded id is in range for `mesh`.
    ///
    /// # Errors
    ///
    /// Fails when a recorded node or link id does not exist on `mesh`.
    pub fn validate(&self, mesh: &Mesh) -> Result<(), TopologyError> {
        for &n in &self.failed_nodes {
            mesh.check_node(NodeId(n))?;
        }
        for &l in self.failed_links.iter().chain(self.degraded.keys()) {
            if l >= mesh.link_id_space() {
                return Err(TopologyError::NodeOutOfRange {
                    node: l,
                    nodes: mesh.link_id_space(),
                });
            }
        }
        Ok(())
    }
}

/// xorshift64* step — the same deterministic generator the schedule verifier
/// uses for seeded execution orders.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coord;

    #[test]
    fn channel_failure_kills_both_directions() {
        let mesh = Mesh::square(3).unwrap();
        let a = mesh.node_at(Coord::new(1, 1));
        let b = mesh.node_at(Coord::new(1, 2));
        let mut faults = FaultModel::new();
        faults.fail_link_between(&mesh, a, b).unwrap();
        assert!(faults.link_failed(mesh.link_between(a, b).unwrap()));
        assert!(faults.link_failed(mesh.link_between(b, a).unwrap()));
        assert_eq!(faults.failed_link_count(), 2);
    }

    #[test]
    fn node_failure_makes_adjacent_links_unusable() {
        let mesh = Mesh::square(3).unwrap();
        let center = mesh.node_at(Coord::new(1, 1));
        let east = mesh.node_at(Coord::new(1, 2));
        let mut faults = FaultModel::new();
        faults.fail_node(center);
        let l = mesh.link_between(east, center).unwrap();
        assert!(!faults.link_failed(l), "link itself is intact");
        assert!(
            !faults.link_usable(&mesh, l),
            "but a dead endpoint blocks it"
        );
        assert_eq!(faults.surviving_nodes(&mesh).len(), 8);
    }

    #[test]
    fn degradation_defaults_to_full_bandwidth() {
        let mesh = Mesh::square(3).unwrap();
        let (_, _, link) = mesh.links().next().unwrap();
        let mut faults = FaultModel::new();
        assert_eq!(faults.degradation(link), 1.0);
        faults.degrade_link(link, 0.5);
        assert_eq!(faults.degradation(link), 0.5);
        assert!(faults.link_usable(&mesh, link), "degraded is not dead");
    }

    #[test]
    fn flap_windows_defer_availability() {
        let mut faults = FaultModel::new();
        let link = LinkId(7);
        faults.add_flap(LinkFlap {
            link,
            down_ns: 100.0,
            up_ns: 250.0,
        });
        faults.add_flap(LinkFlap {
            link,
            down_ns: 250.0,
            up_ns: 300.0,
        });
        assert_eq!(faults.available_at(link, 50.0), 50.0);
        // Chained windows are skipped in one query.
        assert_eq!(faults.available_at(link, 120.0), 300.0);
        assert_eq!(faults.available_at(LinkId(8), 120.0), 120.0);
    }

    #[test]
    fn random_flaps_are_deterministic_per_seed() {
        let mesh = Mesh::square(4).unwrap();
        let mut a = FaultModel::new();
        let mut b = FaultModel::new();
        a.add_random_flaps(&mesh, 5, 10_000.0, 500.0, 42);
        b.add_random_flaps(&mesh, 5, 10_000.0, 500.0, 42);
        assert_eq!(a, b);
        let mut c = FaultModel::new();
        c.add_random_flaps(&mesh, 5, 10_000.0, 500.0, 43);
        assert_ne!(a, c);
        assert_eq!(a.flaps().len(), 5);
    }

    #[test]
    fn validate_rejects_out_of_range_ids() {
        let mesh = Mesh::square(3).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(NodeId(99));
        assert!(faults.validate(&mesh).is_err());
    }
}
