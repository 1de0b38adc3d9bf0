//! Fault-aware schedule validation and repair.
//!
//! Two capabilities live here:
//!
//! * [`lint`] — checks an existing [`Schedule`] against a [`FaultModel`]:
//!   every op's route is walked and any hop over a dead link, any op
//!   touching a dead chiplet, and any dead participant is reported.
//! * [`repair`] — regenerates a schedule for the surviving topology.
//!   Ring-family algorithms get a new cycle from the masked Hamiltonian
//!   construction, with survivors the cycle could not place attached as
//!   feeder/drain chains (the same mechanism RingBiOdd uses for its
//!   excluded corner). Tree-family algorithms get trees regrown over the
//!   usable links. In every case the gradient is re-split across the
//!   survivors, so the shares dead chiplets would have owned are
//!   redistributed — the Kumar-&-Jouppi degraded-allreduce approach
//!   ("Highly Available Data Parallel ML training on Mesh Networks").
//!
//! When the surviving topology cannot support any repaired schedule (e.g.
//! it is partitioned), [`repair`] returns the typed
//! [`CollectiveError::Infeasible`] — never a panic or a hang.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use meshcoll_topo::{
    masked, routing, FaultModel, LinkId, Mesh, NodeId, RoutingAlgorithm, TopologyError, Tree,
};

use crate::ring_common::{no_entry, ring_all_gather, ring_reduce_scatter, Feeder};
use crate::schedule::{split_bytes, split_range, OpId};
use crate::tree_common::TreePlan;
use crate::{multitree, Algorithm, CollectiveError, Schedule, ScheduleOptions};

/// One violation found by [`lint`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultLintIssue {
    /// An op's route crosses a link that is dead (or has a dead endpoint).
    DeadLink {
        /// The offending op.
        op: OpId,
        /// The unusable link on its route.
        link: LinkId,
    },
    /// An op sends from or to a dead chiplet.
    FailedEndpoint {
        /// The offending op.
        op: OpId,
        /// The dead chiplet.
        node: NodeId,
    },
    /// A dead chiplet is listed as a training participant.
    FailedParticipant {
        /// The dead chiplet.
        node: NodeId,
    },
}

impl fmt::Display for FaultLintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLintIssue::DeadLink { op, link } => {
                write!(f, "op {} routes over dead link {link}", op.index())
            }
            FaultLintIssue::FailedEndpoint { op, node } => {
                write!(f, "op {} touches dead chiplet {node}", op.index())
            }
            FaultLintIssue::FailedParticipant { node } => {
                write!(f, "dead chiplet {node} is a participant")
            }
        }
    }
}

/// Validates `schedule` against `faults`: walks every op's route under
/// `routing` and reports each hop over an unusable link, each op touching a
/// dead chiplet, and each dead participant, in that order per op. An empty
/// result means the schedule can execute on the degraded package.
///
/// Without a dead chiplet or link nothing can be reported past the
/// participants, so no route is walked. Otherwise each distinct (src, dst)
/// route is walked once while it stays clean (on meshes of up to 256
/// chiplets, where the pair table stays small): a schedule repeats a few
/// hundred pairs thousands of times, and only a dirty pair's route is
/// walked again, to report its dead links for every op that takes it.
pub fn lint(
    mesh: &Mesh,
    faults: &FaultModel,
    schedule: &Schedule,
    routing: RoutingAlgorithm,
) -> Vec<FaultLintIssue> {
    let mut issues = Vec::new();
    for &p in schedule.participants() {
        if faults.node_failed(p) {
            issues.push(FaultLintIssue::FailedParticipant { node: p });
        }
    }
    if faults.failed_node_count() == 0 && faults.failed_link_count() == 0 {
        return issues;
    }
    let mut usable = vec![true; mesh.link_id_space()];
    for (_, _, link) in mesh.links() {
        usable[link.index()] = faults.link_usable(mesh, link);
    }
    let nodes = mesh.nodes();
    let mut clean = vec![false; if nodes <= 256 { nodes * nodes } else { 0 }];
    for id in schedule.op_ids() {
        let op = schedule.op(id);
        for node in [op.src, op.dst] {
            if faults.node_failed(node) {
                issues.push(FaultLintIssue::FailedEndpoint { op: id, node });
            }
        }
        let (s, d) = (op.src.index(), op.dst.index());
        let pair = (s < nodes && d < nodes && !clean.is_empty()).then_some(s * nodes + d);
        if pair.is_some_and(|p| clean[p]) {
            continue;
        }
        // Malformed node ids are the base lint's concern, not ours.
        if let Ok(links) = routing::route(mesh, op.src, op.dst, routing) {
            let before = issues.len();
            for link in links {
                if !usable[link.index()] {
                    issues.push(FaultLintIssue::DeadLink { op: id, link });
                }
            }
            if let Some(p) = pair.filter(|_| issues.len() == before) {
                clean[p] = true;
            }
        }
    }
    issues
}

/// A schedule regenerated for the surviving topology.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The repaired schedule; its participants are the surviving training
    /// chiplets.
    pub schedule: Schedule,
    /// Surviving chiplets demoted to relay duty by the repair (e.g. the
    /// TTO three-tree exclusion); they no longer contribute a gradient.
    pub sidelined: Vec<NodeId>,
    /// Human-readable description of the strategy that produced the repair.
    pub strategy: &'static str,
}

/// Regenerates `algorithm`'s schedule on the fault-masked topology.
///
/// With an empty fault set this is exactly
/// [`Algorithm::schedule_with`]. Under faults, Ring and the bidirectional
/// rings rebuild their cycles with the masked Hamiltonian construction, MultiTree
/// regrows its conflict-free trees over the usable links, and TTO re-roots
/// disjoint trees around the faults (three trees with one sidelined relay
/// when possible, degrading to two trees or one). Gradient shares are
/// re-split over the survivors.
///
/// # Errors
///
/// * [`CollectiveError::Infeasible`] when the survivors cannot support any
///   repaired schedule (partition, no cycle, no repair strategy),
/// * [`CollectiveError::DataTooSmall`] when the gradient cannot be split
///   over the survivors,
/// * other [`CollectiveError`]s as for the healthy constructions.
pub fn repair(
    algorithm: Algorithm,
    mesh: &Mesh,
    faults: &FaultModel,
    data_bytes: u64,
    opts: &ScheduleOptions,
) -> Result<Repair, CollectiveError> {
    faults.validate(mesh)?;
    if faults.is_empty() {
        return Ok(Repair {
            schedule: algorithm.schedule_with(mesh, data_bytes, opts)?,
            sidelined: Vec::new(),
            strategy: "healthy package, original schedule",
        });
    }
    match algorithm {
        Algorithm::Ring => repaired_ring(mesh, faults, data_bytes),
        Algorithm::RingBiEven | Algorithm::RingBiOdd => repaired_ring_bi(mesh, faults, data_bytes),
        Algorithm::MultiTree => Ok(Repair {
            schedule: multitree::schedule_masked(mesh, faults, data_bytes)?,
            sidelined: Vec::new(),
            strategy: "conflict-free trees regrown over usable links",
        }),
        Algorithm::Tto => repaired_tto(mesh, faults, data_bytes, opts.tto_chunk_bytes),
        _ => Err(CollectiveError::Infeasible {
            reason: NO_REPAIR_STRATEGY,
        }),
    }
}

/// The [`CollectiveError::Infeasible`] reason [`repair`] gives for an
/// algorithm it has no strategy for (anything but Ring, the bidirectional
/// rings, MultiTree and TTO), whatever the faults.
pub const NO_REPAIR_STRATEGY: &str = "no fault-repair strategy for this algorithm";

/// Maps the masked-topology `Infeasible` into the collectives-level one so
/// callers can match a single variant.
fn from_topo(e: TopologyError) -> CollectiveError {
    match e {
        TopologyError::Infeasible { reason } => CollectiveError::Infeasible { reason },
        other => CollectiveError::Topology(other),
    }
}

/// A trivial schedule for a lone survivor: it already holds the only
/// gradient, so there is nothing to communicate.
fn lone_survivor(name: &'static str, survivor: NodeId, data_bytes: u64) -> Repair {
    let mut b = Schedule::builder(name, data_bytes);
    b.set_participants(vec![survivor]);
    Repair {
        schedule: b.build(),
        sidelined: Vec::new(),
        strategy: "single survivor, no communication needed",
    }
}

/// One feeder per off-cycle survivor, merging through a usable neighbor
/// found in `order`.
fn feeders_for(
    mesh: &Mesh,
    faults: &FaultModel,
    order: &[NodeId],
    excluded: &[NodeId],
) -> Result<Vec<Feeder>, CollectiveError> {
    excluded
        .iter()
        .map(|&e| {
            let merge_pos = masked::usable_neighbors(mesh, faults, e)
                .into_iter()
                .find_map(|nb| order.iter().position(|&m| m == nb))
                .ok_or(CollectiveError::Infeasible {
                    reason: "an off-cycle survivor has no usable neighbor on the cycle",
                })?;
            Ok(Feeder { node: e, merge_pos })
        })
        .collect()
}

fn repaired_ring(
    mesh: &Mesh,
    faults: &FaultModel,
    data_bytes: u64,
) -> Result<Repair, CollectiveError> {
    let mc = masked::masked_cycle(mesh, faults).map_err(from_topo)?;
    if mc.order.len() == 1 {
        return Ok(lone_survivor("Ring-repair", mc.order[0], data_bytes));
    }
    let feeders = feeders_for(mesh, faults, &mc.order, &mc.excluded)?;
    let mut participants = mc.order.clone();
    participants.extend_from_slice(&mc.excluded);
    participants.sort_by_key(|n| n.index());

    let mut b = Schedule::builder("Ring-repair", data_bytes);
    b.set_participants(participants);
    let rs = ring_reduce_scatter(&mut b, &mc.order, (0, data_bytes), 0, no_entry, &feeders)?;
    ring_all_gather(
        &mut b,
        &mc.order,
        (0, data_bytes),
        0,
        |p| &rs.completion[p][..],
        &feeders,
    )?;
    Ok(Repair {
        schedule: b.build(),
        sidelined: Vec::new(),
        strategy: "ring regenerated over the masked cycle",
    })
}

fn repaired_ring_bi(
    mesh: &Mesh,
    faults: &FaultModel,
    data_bytes: u64,
) -> Result<Repair, CollectiveError> {
    let mc = masked::masked_cycle(mesh, faults).map_err(from_topo)?;
    if mc.order.len() == 1 {
        return Ok(lone_survivor("RingBi-repair", mc.order[0], data_bytes));
    }
    let mut participants = mc.order.clone();
    participants.extend_from_slice(&mc.excluded);
    participants.sort_by_key(|n| n.index());

    let rev: Vec<NodeId> = mc.order.iter().rev().copied().collect();
    // Each off-cycle survivor merges through its first usable on-cycle
    // neighbor in direction A and (when it has one) a second, distinct
    // neighbor in direction B, so the two directions spread across its links
    // just as RingBiOdd's corner does.
    let mut feeders_a = Vec::with_capacity(mc.excluded.len());
    let mut feeders_b = Vec::with_capacity(mc.excluded.len());
    for &e in &mc.excluded {
        let on_cycle: Vec<NodeId> = masked::usable_neighbors(mesh, faults, e)
            .into_iter()
            .filter(|nb| mc.order.contains(nb))
            .collect();
        let first = *on_cycle.first().ok_or(CollectiveError::Infeasible {
            reason: "an off-cycle survivor has no usable neighbor on the cycle",
        })?;
        let second = on_cycle.get(1).copied().unwrap_or(first);
        let pos = |order: &[NodeId], n: NodeId| {
            order
                .iter()
                .position(|&m| m == n)
                .expect("neighbor is on the cycle")
        };
        feeders_a.push(Feeder {
            node: e,
            merge_pos: pos(&mc.order, first),
        });
        feeders_b.push(Feeder {
            node: e,
            merge_pos: pos(&rev, second),
        });
    }

    let mut b = Schedule::builder("RingBi-repair", data_bytes);
    b.set_participants(participants);
    let half = data_bytes / 2;
    let rs_a = ring_reduce_scatter(&mut b, &mc.order, (0, half), 0, no_entry, &feeders_a)?;
    ring_all_gather(
        &mut b,
        &mc.order,
        (0, half),
        0,
        |p| &rs_a.completion[p][..],
        &feeders_a,
    )?;
    let rs_b = ring_reduce_scatter(&mut b, &rev, (half, data_bytes), 0, no_entry, &feeders_b)?;
    ring_all_gather(
        &mut b,
        &rev,
        (half, data_bytes),
        0,
        |p| &rs_b.completion[p][..],
        &feeders_b,
    )?;
    Ok(Repair {
        schedule: b.build(),
        sidelined: Vec::new(),
        strategy: "bidirectional rings regenerated over the masked cycle",
    })
}

/// Attempts per tree-count rung of the TTO repair ladder.
const TTO_REPAIR_ATTEMPTS: u64 = 128;

fn repaired_tto(
    mesh: &Mesh,
    faults: &FaultModel,
    data_bytes: u64,
    chunk_bytes: u64,
) -> Result<Repair, CollectiveError> {
    let survivors = faults.surviving_nodes(mesh);
    if survivors.is_empty() {
        return Err(CollectiveError::Infeasible {
            reason: "no surviving chiplets",
        });
    }
    if survivors.len() == 1 {
        return Ok(lone_survivor("TTO-repair", survivors[0], data_bytes));
    }
    if !masked::is_connected(mesh, faults) {
        return Err(CollectiveError::Infeasible {
            reason: "surviving chiplets are partitioned",
        });
    }

    // Low-degree survivors must take the special roles (roots, sidelined
    // relay): a degree-2 chiplet cannot source three distinct up-links.
    let degree = |n: NodeId| masked::usable_neighbors(mesh, faults, n).len();
    let mut pool: Vec<NodeId> = survivors.clone();
    pool.sort_by_key(|&n| (degree(n), n.index()));
    pool.truncate(6);

    // Rung 1: three disjoint trees, one survivor sidelined as a pure relay
    // (the structure of healthy TTO). The canonical corner roles come first.
    if survivors.len() >= 4 {
        let at = |r: usize, c: usize| mesh.node_at(meshcoll_topo::Coord::new(r, c));
        let corners = [
            at(0, 0),
            at(mesh.rows() - 1, mesh.cols() - 1),
            at(0, mesh.cols() - 1),
            at(mesh.rows() - 1, 0),
        ];
        let canonical = corners.iter().all(|&c| !faults.node_failed(c));
        for attempt in 0..TTO_REPAIR_ATTEMPTS {
            let (roots, sidelined) = if canonical && attempt < 4 {
                // Rotate which corner sits out.
                let s = corners[(3 + attempt as usize) % 4];
                let r: Vec<NodeId> = corners.iter().copied().filter(|&c| c != s).collect();
                ([r[0], r[1], r[2]], s)
            } else {
                let picks = pick_distinct(&pool, 4, attempt);
                ([picks[0], picks[1], picks[2]], picks[3])
            };
            if let Some(trees) = grow_disjoint(mesh, faults, &roots, Some(sidelined), attempt) {
                let participants: Vec<NodeId> = survivors
                    .iter()
                    .copied()
                    .filter(|&n| n != sidelined)
                    .collect();
                let schedule =
                    emit_tto_schedule(mesh, &trees, participants, data_bytes, chunk_bytes)?;
                return Ok(Repair {
                    schedule,
                    sidelined: vec![sidelined],
                    strategy: "three disjoint trees re-rooted around the faults",
                });
            }
        }
    }

    // Rung 2: two disjoint trees, every survivor trains.
    if survivors.len() >= 2 {
        for attempt in 0..TTO_REPAIR_ATTEMPTS {
            let picks = pick_distinct(&pool, 2, attempt);
            if let Some(trees) = grow_disjoint(mesh, faults, &picks, None, attempt) {
                let schedule =
                    emit_tto_schedule(mesh, &trees, survivors.clone(), data_bytes, chunk_bytes)?;
                return Ok(Repair {
                    schedule,
                    sidelined: Vec::new(),
                    strategy: "two disjoint trees re-rooted around the faults",
                });
            }
        }
    }

    // Rung 3: a single BFS tree — always feasible on connected survivors.
    let root = survivors
        .iter()
        .copied()
        .max_by_key(|&n| (degree(n), std::cmp::Reverse(n.index())))
        .expect("survivors is non-empty");
    let tree = masked::masked_tree(mesh, faults, root).map_err(from_topo)?;
    let schedule = emit_tto_schedule(mesh, &[tree], survivors, data_bytes, chunk_bytes)?;
    Ok(Repair {
        schedule,
        sidelined: Vec::new(),
        strategy: "single spanning tree over the survivors",
    })
}

/// Chunk-pipelined reduce+gather over `trees`, exactly as healthy TTO.
fn emit_tto_schedule(
    mesh: &Mesh,
    trees: &[Tree],
    participants: Vec<NodeId>,
    data_bytes: u64,
    chunk_bytes: u64,
) -> Result<Schedule, CollectiveError> {
    let plans: Vec<TreePlan> = trees
        .iter()
        .map(|t| TreePlan::new(t, mesh.nodes()))
        .collect();
    let chunk_count = data_bytes.div_ceil(chunk_bytes.max(1)).max(1);
    let chunks = split_bytes(data_bytes, chunk_count)?;

    let mut b = Schedule::builder("TTO-repair", data_bytes);
    b.set_participants(participants);
    let mut scratch: Vec<OpId> = Vec::new();
    for (c, (coff, clen)) in chunks.iter().enumerate() {
        let parts = split_range(*coff, coff + clen, trees.len() as u64)?;
        for (plan, (off, len)) in plans.iter().zip(parts) {
            let range = (off, off + len);
            let root_done = plan.reduce_ops(&mut b, range, c as u32, &mut scratch);
            plan.gather_ops(&mut b, range, c as u32, &root_done, &mut scratch);
        }
    }
    Ok(b.build())
}

/// Grows `roots.len()` trees whose up-links are pairwise disjoint, each
/// spanning every survivor except `sidelined` (skipped only by the third
/// tree, mirroring TTO's relay corner). Returns `None` when the randomized
/// growth strands a node; callers retry with a different seed.
fn grow_disjoint(
    mesh: &Mesh,
    faults: &FaultModel,
    roots: &[NodeId],
    sidelined: Option<NodeId>,
    seed: u64,
) -> Option<Vec<Tree>> {
    let survivors = faults.surviving_nodes(mesh);
    let mut used: HashSet<LinkId> = HashSet::new();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut trees = Vec::with_capacity(roots.len());
    for (i, &root) in roots.iter().enumerate() {
        let skip = if i == 2 { sidelined } else { None };
        if Some(root) == skip {
            return None;
        }
        let want = survivors.len() - usize::from(skip.is_some());
        let mut tree = Tree::new(root, mesh.nodes());
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            let mut nbs = masked::usable_neighbors(mesh, faults, u);
            shuffle(&mut nbs, &mut state);
            for v in nbs {
                if Some(v) == skip || tree.contains(v) {
                    continue;
                }
                let up = mesh.link_between(v, u).ok()?;
                if used.contains(&up) {
                    continue;
                }
                used.insert(up);
                tree.attach(v, u);
                queue.push_back(v);
            }
        }
        if tree.len() != want {
            return None;
        }
        trees.push(tree);
    }
    Some(trees)
}

/// `count` distinct picks from `pool`, varied deterministically by `salt`.
fn pick_distinct(pool: &[NodeId], count: usize, salt: u64) -> Vec<NodeId> {
    let mut picks: Vec<NodeId> = pool.to_vec();
    let mut state = salt.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    shuffle(&mut picks, &mut state);
    picks.truncate(count);
    picks
}

fn shuffle(items: &mut [NodeId], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (xorshift(state) as usize) % (i + 1);
        items.swap(i, j);
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use meshcoll_topo::Coord;

    const ALGOS: [Algorithm; 4] = [
        Algorithm::Ring,
        Algorithm::RingBiOdd,
        Algorithm::MultiTree,
        Algorithm::Tto,
    ];

    fn opts() -> ScheduleOptions {
        ScheduleOptions {
            tto_chunk_bytes: 2400,
            ..ScheduleOptions::default()
        }
    }

    fn interior_link_fault(mesh: &Mesh) -> FaultModel {
        let mut faults = FaultModel::new();
        faults
            .fail_link_between(
                mesh,
                mesh.node_at(Coord::new(2, 2)),
                mesh.node_at(Coord::new(2, 3)),
            )
            .unwrap();
        faults
    }

    fn check_repair(mesh: &Mesh, faults: &FaultModel, r: &Repair) {
        let issues = lint(mesh, faults, &r.schedule, RoutingAlgorithm::Xy);
        assert!(issues.is_empty(), "{}: {:?}", r.schedule.name(), issues);
        verify::check_allreduce(mesh, &r.schedule)
            .unwrap_or_else(|e| panic!("{} ({}): {e}", r.schedule.name(), r.strategy));
        for seed in [7, 23] {
            verify::check_allreduce_seeded(mesh, &r.schedule, seed)
                .unwrap_or_else(|e| panic!("{} seeded: {e}", r.schedule.name()));
        }
    }

    #[test]
    fn all_algorithms_repair_around_a_dead_interior_channel() {
        // The headline acceptance scenario: 5x5 mesh, one failed interior
        // link, all four algorithms produce lint-clean, verify-correct
        // repairs.
        let mesh = Mesh::square(5).unwrap();
        let faults = interior_link_fault(&mesh);
        for a in ALGOS {
            let r =
                repair(a, &mesh, &faults, 24_000, &opts()).unwrap_or_else(|e| panic!("{a}: {e}"));
            check_repair(&mesh, &faults, &r);
            // Only links died: every survivor keeps training unless the
            // repair sidelined it as a relay.
            assert_eq!(
                r.schedule.participants().len() + r.sidelined.len(),
                mesh.nodes(),
                "{a}"
            );
        }
    }

    #[test]
    fn all_algorithms_repair_around_a_dead_chiplet() {
        let mesh = Mesh::square(5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(2, 2)));
        for a in ALGOS {
            let r =
                repair(a, &mesh, &faults, 24_000, &opts()).unwrap_or_else(|e| panic!("{a}: {e}"));
            check_repair(&mesh, &faults, &r);
            let dead = mesh.node_at(Coord::new(2, 2));
            assert!(!r.schedule.participants().contains(&dead), "{a}");
            assert!(
                r.schedule
                    .ops()
                    .iter()
                    .all(|o| o.src != dead && o.dst != dead),
                "{a}: op touches the dead chiplet"
            );
        }
    }

    #[test]
    fn combined_faults_are_repairable() {
        // A dead chiplet plus an unrelated dead channel.
        let mesh = Mesh::square(5).unwrap();
        let mut faults = interior_link_fault(&mesh);
        faults.fail_node(mesh.node_at(Coord::new(0, 1)));
        for a in ALGOS {
            let r =
                repair(a, &mesh, &faults, 24_000, &opts()).unwrap_or_else(|e| panic!("{a}: {e}"));
            check_repair(&mesh, &faults, &r);
        }
    }

    #[test]
    fn partition_returns_typed_infeasible_for_every_algorithm() {
        // Cut the corner chiplet off entirely: no repair can exist, and the
        // failure must be the typed Infeasible — no panic, no hang.
        let mesh = Mesh::square(5).unwrap();
        let corner = mesh.node_at(Coord::new(0, 0));
        let mut faults = FaultModel::new();
        faults
            .fail_link_between(&mesh, corner, mesh.node_at(Coord::new(0, 1)))
            .unwrap();
        faults
            .fail_link_between(&mesh, corner, mesh.node_at(Coord::new(1, 0)))
            .unwrap();
        for a in ALGOS {
            let err = repair(a, &mesh, &faults, 24_000, &opts()).unwrap_err();
            assert!(
                matches!(err, CollectiveError::Infeasible { .. }),
                "{a}: {err}"
            );
        }
    }

    #[test]
    fn empty_faults_return_the_original_schedule() {
        let mesh = Mesh::square(5).unwrap();
        let r = repair(Algorithm::Ring, &mesh, &FaultModel::new(), 25_000, &opts()).unwrap();
        assert_eq!(r.schedule.name(), "Ring");
    }

    #[test]
    fn lint_flags_routes_over_dead_links() {
        let mesh = Mesh::square(5).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 25_000).unwrap();
        // Kill the channel under the first op's first hop: the unrepaired
        // schedule must now fail the lint.
        let op = &s.ops()[0];
        let link = routing::route(&mesh, op.src, op.dst, RoutingAlgorithm::Xy).unwrap()[0];
        let (a, b) = mesh.link_endpoints(link);
        let mut faults = FaultModel::new();
        faults.fail_link_between(&mesh, a, b).unwrap();
        let issues = lint(&mesh, &faults, &s, RoutingAlgorithm::Xy);
        assert!(issues
            .iter()
            .any(|i| matches!(i, FaultLintIssue::DeadLink { .. })));
    }

    #[test]
    fn lint_flags_dead_participants_and_endpoints() {
        let mesh = Mesh::square(3).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 900).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(NodeId(4));
        let issues = lint(&mesh, &faults, &s, RoutingAlgorithm::Xy);
        assert!(issues
            .iter()
            .any(|i| matches!(i, FaultLintIssue::FailedParticipant { node } if node.index() == 4)));
        assert!(issues
            .iter()
            .any(|i| matches!(i, FaultLintIssue::FailedEndpoint { .. })));
    }

    /// The lint walked op by op, every route in full.
    fn brute_force_lint(
        mesh: &Mesh,
        faults: &FaultModel,
        schedule: &Schedule,
        routing: RoutingAlgorithm,
    ) -> Vec<FaultLintIssue> {
        let mut issues = Vec::new();
        for &p in schedule.participants() {
            if faults.node_failed(p) {
                issues.push(FaultLintIssue::FailedParticipant { node: p });
            }
        }
        for id in schedule.op_ids() {
            let op = schedule.op(id);
            for node in [op.src, op.dst] {
                if faults.node_failed(node) {
                    issues.push(FaultLintIssue::FailedEndpoint { op: id, node });
                }
            }
            if let Ok(links) = routing::route(mesh, op.src, op.dst, routing) {
                for link in links {
                    if !faults.link_usable(mesh, link) {
                        issues.push(FaultLintIssue::DeadLink { op: id, link });
                    }
                }
            }
        }
        issues
    }

    #[test]
    fn lint_matches_a_brute_force_walk() {
        // Random ops (repeated pairs, and nodes past the mesh) under random
        // dead chiplets and links (some ids past the mesh too), on meshes
        // and tori under both routings.
        let mut rng = meshcoll_util::Rng::new(0x11a7);
        let mut dirty = 0;
        for case in 0..300 {
            let (rows, cols) = (rng.range_usize(1, 7), rng.range_usize(2, 7));
            let mesh = if case % 3 == 0 {
                Mesh::torus(rows.max(3), cols.max(3))
            } else {
                Mesh::new(rows, cols)
            }
            .unwrap();
            let nodes = mesh.nodes();
            let node = |rng: &mut meshcoll_util::Rng| NodeId(rng.range_usize(0, nodes + 2));
            let mut faults = FaultModel::new();
            for _ in 0..rng.range_usize(0, 3) {
                faults.fail_node(node(&mut rng));
            }
            let links: Vec<LinkId> = mesh.links().map(|(_, _, l)| l).collect();
            for _ in 0..rng.range_usize(0, 4) {
                faults.fail_link(links[rng.range_usize(0, links.len())]);
            }
            if rng.below(4) == 0 {
                faults.fail_link(LinkId(mesh.link_id_space() + 3));
            }
            let mut b = Schedule::builder("random", 1);
            b.set_participants((0..nodes + 1).map(NodeId).collect());
            let pairs: Vec<(NodeId, NodeId)> = (0..rng.range_usize(1, 6))
                .map(|_| (node(&mut rng), node(&mut rng)))
                .filter(|(s, d)| s != d)
                .collect();
            for _ in 0..rng.range_usize(0, 40) {
                if let Some(&(s, d)) = pairs.get(rng.range_usize(0, pairs.len().max(1))) {
                    b.push(s, d, 0, 1, crate::OpKind::Reduce, 0, &[]);
                }
            }
            let s = b.build();
            for routing in [RoutingAlgorithm::Xy, RoutingAlgorithm::Yx] {
                let issues = lint(&mesh, &faults, &s, routing);
                assert_eq!(
                    issues,
                    brute_force_lint(&mesh, &faults, &s, routing),
                    "case {case}: {mesh}, {routing:?}, {faults:?}"
                );
                let dead = |i: &FaultLintIssue| matches!(i, FaultLintIssue::DeadLink { .. });
                dirty += usize::from(issues.iter().filter(|i| dead(i)).count() > 1);
            }
        }
        assert!(dirty > 50, "only {dirty} runs report a dead link twice");
    }

    #[test]
    fn ring_repair_feeds_every_off_cycle_survivor() {
        // Killing a minority-color chiplet forces two survivors off the
        // cycle; both must still send (feed) and receive (drain).
        let mesh = Mesh::square(5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(2, 1)));
        let r = repaired_ring(&mesh, &faults, 24_000).unwrap();
        check_repair(&mesh, &faults, &r);
        assert_eq!(r.schedule.participants().len(), 24);
        let on_cycle: HashSet<NodeId> = r
            .schedule
            .ops()
            .iter()
            .flat_map(|o| [o.src, o.dst])
            .collect();
        for &p in r.schedule.participants() {
            assert!(on_cycle.contains(&p), "{p} unreachable in the repair");
        }
    }

    #[test]
    fn degraded_links_do_not_trigger_repair_changes() {
        // Degradation slows a link but keeps it usable: lint stays clean on
        // the original schedule.
        let mesh = Mesh::square(4).unwrap();
        let s = Algorithm::Ring.schedule(&mesh, 16_000).unwrap();
        let mut faults = FaultModel::new();
        faults
            .degrade_link_between(
                &mesh,
                mesh.node_at(Coord::new(1, 1)),
                mesh.node_at(Coord::new(1, 2)),
                0.5,
            )
            .unwrap();
        assert!(lint(&mesh, &faults, &s, RoutingAlgorithm::Xy).is_empty());
    }
}
