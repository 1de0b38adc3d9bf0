//! Topology constructions on a fault-masked mesh.
//!
//! Every builder here sees the mesh through a [`FaultModel`]: dead chiplets
//! are not visited, and a channel is traversable only when *both* directed
//! links are usable (collectives push data both ways across each edge —
//! reduce-scatter one way, all-gather the other). When the surviving
//! topology cannot support the requested structure, the builders return
//! [`TopologyError::Infeasible`] instead of panicking or spinning.
//!
//! [`masked_cycle`] builds the repaired ring in three steps:
//!
//! 1. **Exclusions by rule.** A survivor with fewer than two usable channels
//!    cannot sit on a cycle, so it is fed in from a neighbor. A cycle
//!    alternates checkerboard colors, so the color imbalance of the rest
//!    fixes how many majority-color survivors sit out; candidates are tried
//!    fewest-usable-channels first.
//! 2. **A 2-factor.** Every member gets exactly two chosen channels, by
//!    augmenting paths on the black/white degree-2 matching. The matching is
//!    warm-started from the surviving edges of the healthy closed-form cycle,
//!    so only members next to a fault are augmented.
//! 3. **One cycle.** The 2-factor's cycles merge by unit-square flips under
//!    union-find: a mesh face whose two parallel chosen edges lie in
//!    different cycles, and whose other two channels are usable, swaps that
//!    pair for the other.
//!
//! The construction repairs every single dead link or chiplet of the
//! meshes the property tests sweep (4×4–16×16, rectangles, a 64×64 sample)
//! with the minimum exclusions, in O(faults × links) time. When its flips
//! cannot merge at the minimum exclusion size (dense fault masks, and tori,
//! whose wrap channels the bipartite step leaves out), a budget-bounded
//! depth-first search with a dead-end prune takes over at that size, before
//! one more excluded pair is tried.
//!
//! An `Infeasible` reason is a proof unless it says the search gave up:
//! the survivors are partitioned, the color imbalance cannot be absorbed by
//! any exclusion set, or the fallback search covered every exclusion set of
//! the minimum size and one pair more without finding a cycle.

use std::collections::VecDeque;

use crate::fault::FaultModel;
use crate::tree::Tree;
use crate::{hamiltonian, Direction, LinkId, Mesh, NodeId, TopologyError};

/// Global step budget for the fallback cycle search, across all candidate
/// exclusion sets. Each step is one DFS extension attempt.
const CYCLE_SEARCH_BUDGET: i64 = 2_000_000;

/// Cap on the candidate exclusion sets of one size that each stage
/// (construction, fallback search) examines.
const MAX_EXCLUSION_CANDIDATES: usize = 4_000;

const PARTITIONED: &str = "surviving chiplets are partitioned";
const IMBALANCE: &str = "checkerboard color imbalance cannot be absorbed by any exclusion set";
const NO_CYCLE: &str = "no cycle exists over the surviving chiplets with the minimum exclusion \
                        set or one more excluded pair";
const GAVE_UP: &str = "cycle search gave up before finding or ruling out a cycle";

/// A Hamiltonian-style cycle over the fault-masked mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCycle {
    /// The cycle, in visiting order; consecutive nodes (and last→first) are
    /// joined by usable links.
    pub order: Vec<NodeId>,
    /// Surviving chiplets that could not be placed on the cycle (fewer than
    /// two usable channels, or bipartite color imbalance); each is
    /// usable-adjacent to at least one cycle member so its data can still be
    /// fed in and drained out.
    pub excluded: Vec<NodeId>,
}

/// The neighbors of `n` reachable over channels whose *both* directions are
/// usable, skipping dead chiplets.
pub fn usable_neighbors(mesh: &Mesh, faults: &FaultModel, n: NodeId) -> Vec<NodeId> {
    if faults.node_failed(n) {
        return Vec::new();
    }
    Direction::ALL
        .iter()
        .filter_map(|&d| {
            let nb = mesh.neighbor(n, d)?;
            let there = LinkId(n.index() * 4 + d.slot());
            let back = LinkId(nb.index() * 4 + d.opposite().slot());
            (!faults.node_failed(nb) && !faults.link_failed(there) && !faults.link_failed(back))
                .then_some(nb)
        })
        .collect()
}

/// True when every surviving chiplet can reach every other over usable
/// channels (vacuously true for zero or one survivor).
pub fn is_connected(mesh: &Mesh, faults: &FaultModel) -> bool {
    Graph::new(mesh, faults).is_connected()
}

/// Builds a BFS tree rooted at `root` spanning every surviving chiplet.
///
/// # Errors
///
/// Returns [`TopologyError::Infeasible`] when the root is dead or the
/// survivors are partitioned.
pub fn masked_tree(mesh: &Mesh, faults: &FaultModel, root: NodeId) -> Result<Tree, TopologyError> {
    mesh.check_node(root)?;
    if faults.node_failed(root) {
        return Err(TopologyError::Infeasible {
            reason: "tree root is a dead chiplet",
        });
    }
    let survivors = faults.surviving_nodes(mesh);
    let mut tree = Tree::new(root, mesh.nodes());
    let mut queue = std::collections::VecDeque::from([root]);
    let mut reached = 1usize;
    while let Some(n) = queue.pop_front() {
        for nb in usable_neighbors(mesh, faults, n) {
            if !tree.contains(nb) {
                tree.attach(nb, n);
                reached += 1;
                queue.push_back(nb);
            }
        }
    }
    if reached != survivors.len() {
        return Err(TopologyError::Infeasible {
            reason: PARTITIONED,
        });
    }
    Ok(tree)
}

/// Finds a cycle over the surviving chiplets using only usable channels.
///
/// On a healthy mesh this defers to the closed-form constructions
/// ([`hamiltonian::hamiltonian_cycle`] for even meshes, the corner-excluded
/// cycle for odd ones). Under faults it builds the cycle as the module
/// documentation describes: exclusions by rule, a warm-started 2-factor,
/// and square flips, with a budget-bounded search as the fallback.
///
/// # Errors
///
/// Returns [`TopologyError::Infeasible`] when the survivors are
/// partitioned, their color imbalance cannot be absorbed, no cycle exists
/// with the minimum exclusion set or one more excluded pair, or the
/// fallback search gave up; propagates invalid fault records from
/// [`FaultModel::validate`].
pub fn masked_cycle(mesh: &Mesh, faults: &FaultModel) -> Result<MaskedCycle, TopologyError> {
    search_cycle(mesh, faults, CYCLE_SEARCH_BUDGET)
}

/// [`masked_cycle`] with an explicit fallback step budget.
fn search_cycle(
    mesh: &Mesh,
    faults: &FaultModel,
    mut budget: i64,
) -> Result<MaskedCycle, TopologyError> {
    faults.validate(mesh)?;
    if faults.is_empty() && mesh.rows() >= 2 && mesh.cols() >= 2 {
        if let Ok(order) = hamiltonian::hamiltonian_cycle(mesh) {
            return Ok(MaskedCycle {
                order,
                excluded: Vec::new(),
            });
        }
        if let Ok((order, corner)) = hamiltonian::corner_excluded_cycle(mesh) {
            return Ok(MaskedCycle {
                order,
                excluded: vec![corner],
            });
        }
    }

    let g = Graph::new(mesh, faults);
    let survivors: Vec<NodeId> = mesh.node_ids().filter(|&n| !g.dead[n.index()]).collect();
    if survivors.is_empty() {
        return Err(TopologyError::Infeasible {
            reason: "no surviving chiplets",
        });
    }
    if survivors.len() == 1 {
        return Ok(MaskedCycle {
            order: survivors,
            excluded: Vec::new(),
        });
    }
    if !g.is_connected() {
        return Err(TopologyError::Infeasible {
            reason: PARTITIONED,
        });
    }
    if survivors.len() == 2 {
        // Connectivity over usable channels implies direct adjacency here;
        // a two-node "cycle" uses the two directed links of one channel.
        return Ok(MaskedCycle {
            order: survivors,
            excluded: Vec::new(),
        });
    }

    let plan = Exclusions::new(&g, &survivors);
    if plan.proven_unabsorbable(&g) {
        return Err(TopologyError::Infeasible { reason: IMBALANCE });
    }
    let warm = warm_start(mesh);
    let mut gave_up = false;
    // The minimum exclusion size, then one more node of each color (the
    // next size that keeps the cycle's colors balanced).
    for extra in [0usize, 1] {
        let mut found: Option<MaskedCycle> = None;
        let mut tried = 0usize;
        plan.for_each(extra, &mut |excluded| {
            tried += 1;
            if let Some((in_cycle, members)) = admissible(&g, &survivors, excluded) {
                if let Some(order) = construct_cycle(&g, &in_cycle, &members, &warm) {
                    found = Some(MaskedCycle {
                        order,
                        excluded: excluded.to_vec(),
                    });
                }
            }
            found.is_some() || tried == MAX_EXCLUSION_CANDIDATES
        });
        if let Some(cycle) = found {
            return Ok(cycle);
        }

        let mut tried = 0usize;
        plan.for_each(extra, &mut |excluded| {
            if tried == MAX_EXCLUSION_CANDIDATES || budget <= 0 {
                gave_up = true;
                return true;
            }
            tried += 1;
            if let Some((in_cycle, members)) = admissible(&g, &survivors, excluded) {
                match search_members(&g, &in_cycle, &members, &mut budget) {
                    Search::Found(order) => {
                        found = Some(MaskedCycle {
                            order,
                            excluded: excluded.to_vec(),
                        });
                    }
                    Search::GaveUp => gave_up = true,
                    Search::Exhausted => {}
                }
            }
            found.is_some() || gave_up
        });
        if let Some(cycle) = found {
            return Ok(cycle);
        }
    }
    Err(TopologyError::Infeasible {
        reason: if gave_up { GAVE_UP } else { NO_CYCLE },
    })
}

/// The usable-channel graph of a fault-masked mesh, with the checkerboard
/// colors, built in one division-free pass.
struct Graph {
    rows: usize,
    cols: usize,
    torus: bool,
    dead: Vec<bool>,
    black: Vec<bool>,
    /// Each chiplet's usable neighbors, in [`usable_neighbors`] order.
    nbrs: Vec<[NodeId; 4]>,
    degree: Vec<u8>,
    /// Bit `i` marks `nbrs[i]` as reached over a torus wrap channel.
    wrap: Vec<u8>,
}

impl Graph {
    fn new(mesh: &Mesh, faults: &FaultModel) -> Self {
        let (rows, cols) = (mesh.rows(), mesh.cols());
        let nodes = rows * cols;
        // Ids outside the mesh are ignored, as per-id lookups would;
        // `FaultModel::validate` is where they are rejected.
        let mut dead = vec![false; nodes];
        for n in faults.failed_nodes() {
            if let Some(d) = dead.get_mut(n.index()) {
                *d = true;
            }
        }
        let mut link_dead = vec![false; mesh.link_id_space()];
        for l in faults.failed_links() {
            if let Some(dead) = link_dead.get_mut(l.index()) {
                *dead = true;
            }
        }
        let mut g = Graph {
            rows,
            cols,
            torus: mesh.is_torus(),
            black: Vec::with_capacity(nodes),
            nbrs: vec![[NodeId(0); 4]; nodes],
            degree: vec![0; nodes],
            wrap: vec![0; nodes],
            dead,
        };
        let torus = g.torus;
        for r in 0..rows {
            for c in 0..cols {
                let n = r * cols + c;
                g.black.push((r + c).is_multiple_of(2));
                if g.dead[n] {
                    continue;
                }
                for d in Direction::ALL {
                    // (neighbor row, neighbor col, over a wrap channel)
                    let step = match d {
                        Direction::East if c + 1 < cols => Some((r, c + 1, false)),
                        Direction::West if c > 0 => Some((r, c - 1, false)),
                        Direction::North if r > 0 => Some((r - 1, c, false)),
                        Direction::South if r + 1 < rows => Some((r + 1, c, false)),
                        Direction::East if torus => Some((r, 0, true)),
                        Direction::West if torus => Some((r, cols - 1, true)),
                        Direction::North if torus => Some((rows - 1, c, true)),
                        Direction::South if torus => Some((0, c, true)),
                        _ => None,
                    };
                    let Some((nr, nc, wrapped)) = step else {
                        continue;
                    };
                    let nb = nr * cols + nc;
                    if g.dead[nb]
                        || link_dead[n * 4 + d.slot()]
                        || link_dead[nb * 4 + d.opposite().slot()]
                    {
                        continue;
                    }
                    let k = usize::from(g.degree[n]);
                    g.nbrs[n][k] = NodeId(nb);
                    g.wrap[n] |= u8::from(wrapped) << k;
                    g.degree[n] += 1;
                }
            }
        }
        g
    }

    fn neighbors(&self, n: usize) -> &[NodeId] {
        &self.nbrs[n][..usize::from(self.degree[n])]
    }

    /// Neighbors over non-wrap channels, where the checkerboard coloring
    /// is proper.
    fn grid_neighbors(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let wrap = self.wrap[n];
        self.neighbors(n)
            .iter()
            .enumerate()
            .filter(move |&(i, _)| wrap & (1 << i) == 0)
            .map(|(_, nb)| nb.index())
    }

    fn usable(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).contains(&NodeId(b))
    }

    /// True when every survivor reaches every other (vacuously for zero or
    /// one survivor).
    fn is_connected(&self) -> bool {
        let Some(start) = self.dead.iter().position(|&d| !d) else {
            return true;
        };
        let mut seen = vec![false; self.dead.len()];
        seen[start] = true;
        let mut stack = vec![start];
        let mut reached = 1;
        while let Some(n) = stack.pop() {
            for nb in self.neighbors(n).iter().map(|nb| nb.index()) {
                if !seen[nb] {
                    seen[nb] = true;
                    reached += 1;
                    stack.push(nb);
                }
            }
        }
        reached == self.dead.iter().filter(|&&d| !d).count()
    }
}

/// Step 1: which survivors sit out. `forced` ones have fewer than two
/// usable channels; `imbalance` of `majority` (the majority color of the
/// rest, fewest usable channels first) must join them so a cycle over the
/// rest balances its colors.
struct Exclusions {
    forced: Vec<NodeId>,
    majority: Vec<NodeId>,
    minority: Vec<NodeId>,
    imbalance: usize,
    majority_black: bool,
}

impl Exclusions {
    fn new(g: &Graph, survivors: &[NodeId]) -> Self {
        let black = |n: &NodeId| g.black[n.index()];
        let (forced, rest): (Vec<NodeId>, Vec<NodeId>) = survivors
            .iter()
            .copied()
            .partition(|n| g.degree[n.index()] < 2);
        let blacks = rest.iter().filter(|n| black(n)).count();
        let whites = rest.len() - blacks;
        let majority_black = blacks >= whites;
        let (mut majority, minority): (Vec<NodeId>, Vec<NodeId>) = rest
            .iter()
            .copied()
            .partition(|n| black(n) == majority_black);
        // Already in id order, so a stable sort by degree orders by
        // (degree, id).
        majority.sort_by_key(|n| g.degree[n.index()]);
        Exclusions {
            forced,
            majority,
            minority,
            imbalance: blacks.abs_diff(whites),
            majority_black,
        }
    }

    /// A counting certificate that no exclusion set works. A cycle holds at
    /// least two members of each color and equally many of both, so at
    /// least `imbalance` majority-color survivors of the rest sit out, and
    /// so do the forced ones of that color. On a bipartite topology each of
    /// them must be fed by a minority-color member, and a member can feed at
    /// most its usable channels beyond the two the cycle takes.
    fn proven_unabsorbable(&self, g: &Graph) -> bool {
        let bipartite = !g.torus || (g.rows.is_multiple_of(2) && g.cols.is_multiple_of(2));
        if !bipartite {
            return false;
        }
        let forced_majority = self
            .forced
            .iter()
            .filter(|n| g.black[n.index()] == self.majority_black)
            .count();
        let spare: usize = self
            .minority
            .iter()
            .map(|n| usize::from(g.degree[n.index()]).saturating_sub(2))
            .sum();
        self.minority.len() < 2 || self.imbalance + forced_majority > spare
    }

    /// Calls `f` on every exclusion set of size `forced + imbalance +
    /// 2·extra`: the forced survivors, `imbalance + extra` of the majority
    /// and `extra` of the minority, in lexicographic order of the pools.
    /// Stops as soon as `f` returns true.
    fn for_each(&self, extra: usize, f: &mut dyn FnMut(&[NodeId]) -> bool) {
        let mut acc = self.forced.clone();
        let pools = [
            (&self.majority[..], self.imbalance + extra),
            (&self.minority[..], extra),
        ];
        pick(&pools, &mut acc, f);
    }
}

/// Extends `acc` by every combination of `take` nodes from each pool in
/// turn, calling `f` on each full set; true once `f` asked to stop.
fn pick(
    pools: &[(&[NodeId], usize)],
    acc: &mut Vec<NodeId>,
    f: &mut dyn FnMut(&[NodeId]) -> bool,
) -> bool {
    let Some((&(pool, take), rest)) = pools.split_first() else {
        return f(acc);
    };
    combos(pool, take, 0, acc, &mut |acc| pick(rest, acc, f))
}

fn combos(
    pool: &[NodeId],
    take: usize,
    from: usize,
    acc: &mut Vec<NodeId>,
    f: &mut dyn FnMut(&mut Vec<NodeId>) -> bool,
) -> bool {
    if take == 0 {
        return f(acc);
    }
    for i in from..pool.len() {
        if pool.len() - i < take {
            break;
        }
        acc.push(pool[i]);
        let stop = combos(pool, take - 1, i + 1, acc, f);
        acc.pop();
        if stop {
            return true;
        }
    }
    false
}

/// The cycle members left by `excluded`, with a membership mask, when the
/// set can carry a cycle: every spared survivor keeps a usable neighbor on
/// the cycle, every member has two usable member neighbors, and at least
/// four members remain, an even number.
fn admissible(
    g: &Graph,
    survivors: &[NodeId],
    excluded: &[NodeId],
) -> Option<(Vec<bool>, Vec<NodeId>)> {
    let mut in_cycle: Vec<bool> = g.dead.iter().map(|&d| !d).collect();
    for &e in excluded {
        in_cycle[e.index()] = false;
    }
    let member_degree = |n: &NodeId| {
        g.neighbors(n.index())
            .iter()
            .filter(|nb| in_cycle[nb.index()])
            .count()
    };
    if excluded.iter().any(|e| member_degree(e) == 0) {
        return None;
    }
    let members: Vec<NodeId> = survivors
        .iter()
        .copied()
        .filter(|n| in_cycle[n.index()])
        .collect();
    if members.len() < 4
        || !members.len().is_multiple_of(2)
        || members.iter().any(|m| member_degree(m) < 2)
    {
        return None;
    }
    Some((in_cycle, members))
}

/// Consecutive pairs (closing pair included) of the healthy closed-form
/// cycle of a plain mesh of `mesh`'s shape — the serpentine, or the
/// corner-excluded cycle when both sides are odd. Empty when the shape has
/// neither. Every pair is a grid step, also on a torus.
fn warm_start(mesh: &Mesh) -> Vec<(usize, usize)> {
    let Ok(plain) = Mesh::new(mesh.rows(), mesh.cols()) else {
        return Vec::new();
    };
    let order = hamiltonian::hamiltonian_cycle(&plain)
        .or_else(|_| hamiltonian::corner_excluded_cycle(&plain).map(|(order, _)| order))
        .unwrap_or_default();
    (0..order.len())
        .map(|i| (order[i].index(), order[(i + 1) % order.len()].index()))
        .collect()
}

const NONE: usize = usize::MAX;

/// A partial 2-factor: each node's (at most two) chosen partners.
struct TwoFactor {
    mate: Vec<[usize; 2]>,
}

impl TwoFactor {
    fn has(&self, a: usize, b: usize) -> bool {
        self.mate[a].contains(&b)
    }

    fn degree(&self, a: usize) -> usize {
        self.mate[a].iter().filter(|&&m| m != NONE).count()
    }

    fn link(&mut self, a: usize, b: usize) {
        for (x, y) in [(a, b), (b, a)] {
            let slot = self.mate[x]
                .iter()
                .position(|&m| m == NONE)
                .expect("a node has at most two chosen channels");
            self.mate[x][slot] = y;
        }
    }

    fn unlink(&mut self, a: usize, b: usize) {
        for (x, y) in [(a, b), (b, a)] {
            let slot = self.mate[x]
                .iter()
                .position(|&m| m == y)
                .expect("unlinked channel was chosen");
            self.mate[x][slot] = NONE;
        }
    }
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Steps 2 and 3 over `members` (marked in `in_cycle`): a 2-factor over
/// grid channels, warm-started from `warm` and completed by augmenting
/// paths, then merged into one cycle by unit-square flips. `None` when the
/// members have no such 2-factor or flips cannot merge its cycles.
fn construct_cycle(
    g: &Graph,
    in_cycle: &[bool],
    members: &[NodeId],
    warm: &[(usize, usize)],
) -> Option<Vec<NodeId>> {
    let nodes = in_cycle.len();
    let mut tf = TwoFactor {
        mate: vec![[NONE; 2]; nodes],
    };
    for &(a, b) in warm {
        if in_cycle[a] && in_cycle[b] && g.usable(a, b) {
            tf.link(a, b);
        }
    }

    // Augment every deficient black member: breadth-first over alternating
    // paths (an unchosen channel to a white, a chosen one back to a black)
    // until a deficient white is reached, then flip the path. Colors are
    // balanced, so saturating the blacks saturates the whites.
    let mut seen = vec![0u32; nodes];
    let mut prev = vec![NONE; nodes];
    let mut queue = VecDeque::new();
    let mut path = Vec::new();
    let mut epoch = 0u32;
    for b in members.iter().map(|m| m.index()).filter(|&m| g.black[m]) {
        while tf.degree(b) < 2 {
            epoch += 1;
            seen[b] = epoch;
            queue.clear();
            queue.push_back(b);
            let mut end = NONE;
            'bfs: while let Some(x) = queue.pop_front() {
                for y in g.grid_neighbors(x) {
                    if !in_cycle[y] || seen[y] == epoch || tf.has(x, y) {
                        continue;
                    }
                    seen[y] = epoch;
                    prev[y] = x;
                    if tf.degree(y) < 2 {
                        end = y;
                        break 'bfs;
                    }
                    for z in tf.mate[y] {
                        if z != NONE && seen[z] != epoch {
                            seen[z] = epoch;
                            prev[z] = y;
                            queue.push_back(z);
                        }
                    }
                }
            }
            if end == NONE {
                return None;
            }
            // path = [white end, black, white, ..., b]: even pairs are
            // unchosen channels to add, odd pairs chosen ones to drop.
            path.clear();
            path.push(end);
            while path[path.len() - 1] != b {
                path.push(prev[path[path.len() - 1]]);
            }
            for w in path[1..].chunks_exact(2) {
                tf.unlink(w[0], w[1]);
            }
            for w in path.chunks_exact(2) {
                tf.link(w[0], w[1]);
            }
        }
    }

    // Step 3: merge the 2-factor's cycles by square flips.
    let mut parent: Vec<usize> = (0..nodes).collect();
    for &m in members {
        for p in tf.mate[m.index()] {
            let (ra, rb) = (find(&mut parent, m.index()), find(&mut parent, p));
            parent[ra] = rb;
        }
    }
    let mut cycles = members
        .iter()
        .filter(|m| find(&mut parent, m.index()) == m.index())
        .count();
    let cols = g.cols;
    while cycles > 1 {
        let before = cycles;
        for r in 0..g.rows.saturating_sub(1) {
            for c in 0..cols - 1 {
                let (a, b) = (r * cols + c, r * cols + c + 1);
                let (d, e) = (a + cols, b + cols);
                if ![a, b, d, e].iter().all(|&n| in_cycle[n]) {
                    continue;
                }
                // (a-b, d-e) horizontal pair or (a-d, b-e) vertical pair.
                for [(p, q), (s, t)] in [[(a, b), (d, e)], [(a, d), (b, e)]] {
                    if !tf.has(p, q) || !tf.has(s, t) {
                        continue;
                    }
                    let (rp, rs) = (find(&mut parent, p), find(&mut parent, s));
                    if rp != rs && g.usable(p, s) && g.usable(q, t) {
                        tf.unlink(p, q);
                        tf.unlink(s, t);
                        tf.link(p, s);
                        tf.link(q, t);
                        parent[rp] = rs;
                        cycles -= 1;
                        break;
                    }
                }
            }
        }
        if cycles == before {
            return None;
        }
    }

    // Walk the cycle from the lowest-numbered member, heading first for the
    // neighbor the fallback search would try first (fewest onward options).
    let start = members[0].index();
    let rank = |n: usize| {
        let options = g
            .neighbors(n)
            .iter()
            .filter(|nb| in_cycle[nb.index()] && nb.index() != start)
            .count();
        let pos = g.neighbors(start).iter().position(|nb| nb.index() == n);
        (options, pos)
    };
    let [x, y] = tf.mate[start];
    let mut next = if rank(x) <= rank(y) { x } else { y };
    let mut order = Vec::with_capacity(members.len());
    let mut cur = start;
    order.push(NodeId(start));
    while next != start {
        order.push(NodeId(next));
        let [p, q] = tf.mate[next];
        (cur, next) = (next, if p == cur { q } else { p });
    }
    debug_assert_eq!(order.len(), members.len());
    Some(order)
}

/// Outcome of the fallback search over one exclusion set.
enum Search {
    Found(Vec<NodeId>),
    /// Every extension was tried: no cycle over these members.
    Exhausted,
    /// The step budget ran out first.
    GaveUp,
}

/// One DFS level: the head's candidate successors and the next to try.
struct Frame {
    cands: [NodeId; 4],
    len: usize,
    next: usize,
}

/// Budget-bounded Hamiltonian-cycle DFS over `members` from the
/// lowest-numbered one, trying fewest-options-first (Warnsdorff)
/// successors. Dead-end prune: every unvisited member must keep two
/// available neighbors (unvisited ones, the path's head or its start);
/// a step that would leave one with fewer is not taken.
fn search_members(g: &Graph, in_cycle: &[bool], members: &[NodeId], budget: &mut i64) -> Search {
    let start = members[0];
    let mut visited = vec![false; in_cycle.len()];
    let mut avail = vec![0isize; in_cycle.len()];
    for &m in members {
        avail[m.index()] = g
            .neighbors(m.index())
            .iter()
            .filter(|nb| in_cycle[nb.index()])
            .count() as isize;
    }
    let open = |visited: &[bool], n: NodeId| in_cycle[n.index()] && !visited[n.index()];
    let frame = |visited: &[bool], n: NodeId| {
        let mut f = Frame {
            cands: [n; 4],
            len: 0,
            next: 0,
        };
        for &c in g.neighbors(n.index()).iter().filter(|&&c| open(visited, c)) {
            f.cands[f.len] = c;
            f.len += 1;
        }
        f.cands[..f.len].sort_by_key(|&c| {
            g.neighbors(c.index())
                .iter()
                .filter(|&&x| open(visited, x))
                .count()
        });
        f
    };
    // Moving the head off `cur` (toward `c`) costs `cur`'s other open
    // neighbors one option each; the start stays available to close.
    let leave = |visited: &[bool], avail: &mut [isize], cur: NodeId, c: NodeId, delta: isize| {
        let mut ok = true;
        if cur != start {
            for &u in g.neighbors(cur.index()) {
                if u != c && open(visited, u) {
                    avail[u.index()] += delta;
                    ok &= avail[u.index()] >= 2;
                }
            }
        }
        ok
    };

    visited[start.index()] = true;
    let mut path = vec![start];
    let mut frames = vec![frame(&visited, start)];
    while let Some(top) = frames.last_mut() {
        if top.next == top.len {
            frames.pop();
            if frames.is_empty() {
                break;
            }
            let c = path.pop().expect("a frame per path node");
            visited[c.index()] = false;
            let cur = path[path.len() - 1];
            leave(&visited, &mut avail, cur, c, 1);
            continue;
        }
        let c = top.cands[top.next];
        top.next += 1;
        if *budget <= 0 {
            return Search::GaveUp;
        }
        *budget -= 1;
        let cur = path[path.len() - 1];
        if !leave(&visited, &mut avail, cur, c, -1) {
            leave(&visited, &mut avail, cur, c, 1);
            continue;
        }
        visited[c.index()] = true;
        path.push(c);
        if path.len() == members.len() {
            if g.usable(c.index(), start.index()) {
                return Search::Found(path);
            }
            path.pop();
            visited[c.index()] = false;
            leave(&visited, &mut avail, cur, c, 1);
            continue;
        }
        frames.push(frame(&visited, c));
    }
    Search::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coord;

    fn cycle_uses_only_usable_links(mesh: &Mesh, faults: &FaultModel, order: &[NodeId]) -> bool {
        (0..order.len()).all(|i| {
            let a = order[i];
            let b = order[(i + 1) % order.len()];
            mesh.link_between(a, b)
                .is_ok_and(|l| faults.link_usable(mesh, l))
        })
    }

    #[test]
    fn healthy_even_mesh_uses_the_closed_form_cycle() {
        let mesh = Mesh::square(4).unwrap();
        let cycle = masked_cycle(&mesh, &FaultModel::new()).unwrap();
        assert_eq!(cycle.order.len(), 16);
        assert!(cycle.excluded.is_empty());
        assert!(hamiltonian::is_hamiltonian_cycle(&mesh, &cycle.order, &[]));
    }

    #[test]
    fn healthy_odd_mesh_spares_the_corner() {
        let mesh = Mesh::square(5).unwrap();
        let cycle = masked_cycle(&mesh, &FaultModel::new()).unwrap();
        assert_eq!(cycle.order.len(), 24);
        assert_eq!(cycle.excluded.len(), 1);
    }

    #[test]
    fn cycle_avoids_a_failed_interior_channel() {
        let mesh = Mesh::square(4).unwrap();
        let mut faults = FaultModel::new();
        faults
            .fail_link_between(
                &mesh,
                mesh.node_at(Coord::new(1, 1)),
                mesh.node_at(Coord::new(1, 2)),
            )
            .unwrap();
        let cycle = masked_cycle(&mesh, &faults).unwrap();
        assert_eq!(cycle.order.len(), 16, "all nodes survive");
        assert!(cycle.excluded.is_empty());
        assert!(cycle_uses_only_usable_links(&mesh, &faults, &cycle.order));
    }

    #[test]
    fn cycle_routes_around_a_dead_majority_color_chiplet() {
        // The 5x5 center is majority-colored; its death rebalances the
        // checkerboard, so all 24 survivors fit on the cycle.
        let mesh = Mesh::square(5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(2, 2)));
        let cycle = masked_cycle(&mesh, &faults).unwrap();
        assert_eq!(cycle.order.len(), 24);
        assert!(cycle.excluded.is_empty());
        assert!(cycle_uses_only_usable_links(&mesh, &faults, &cycle.order));
    }

    #[test]
    fn cycle_spares_two_nodes_after_a_minority_color_death() {
        // Killing a minority-color chiplet on a 5x5 widens the imbalance to
        // two, so two majority-color survivors must sit out — and stay
        // feedable from the cycle.
        let mesh = Mesh::square(5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(2, 1)));
        let cycle = masked_cycle(&mesh, &faults).unwrap();
        assert_eq!(cycle.order.len(), 22);
        assert_eq!(cycle.excluded.len(), 2);
        assert!(cycle_uses_only_usable_links(&mesh, &faults, &cycle.order));
        for &e in &cycle.excluded {
            assert!(usable_neighbors(&mesh, &faults, e)
                .iter()
                .any(|nb| cycle.order.contains(nb)));
        }
    }

    fn reason(result: Result<MaskedCycle, TopologyError>) -> &'static str {
        match result {
            Err(TopologyError::Infeasible { reason }) => reason,
            other => panic!("expected an infeasible verdict, got {other:?}"),
        }
    }

    fn fail_channel(mesh: &Mesh, faults: &mut FaultModel, a: (usize, usize), b: (usize, usize)) {
        faults
            .fail_link_between(
                mesh,
                mesh.node_at(Coord::new(a.0, a.1)),
                mesh.node_at(Coord::new(b.0, b.1)),
            )
            .unwrap();
    }

    #[test]
    fn partition_is_a_typed_infeasible_error() {
        let mesh = Mesh::square(3).unwrap();
        let mut faults = FaultModel::new();
        fail_channel(&mesh, &mut faults, (0, 0), (0, 1));
        fail_channel(&mesh, &mut faults, (0, 0), (1, 0));
        assert!(!is_connected(&mesh, &faults));
        assert_eq!(reason(masked_cycle(&mesh, &faults)), PARTITIONED);
        let err = masked_tree(&mesh, &faults, mesh.node_at(Coord::new(1, 1))).unwrap_err();
        assert!(matches!(err, TopologyError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn unabsorbable_color_imbalance_is_proven() {
        // Four dead corners leave a plus: each arm has one usable channel
        // and is fed in, and the lone center cannot form a cycle.
        let mesh = Mesh::square(3).unwrap();
        let mut faults = FaultModel::new();
        for c in mesh.corners() {
            faults.fail_node(c);
        }
        assert!(is_connected(&mesh, &faults));
        assert_eq!(reason(masked_cycle(&mesh, &faults)), IMBALANCE);
    }

    /// A 2x5 mesh with (0,2) dead: two 2x2 squares joined through (1,2).
    /// One white must sit out, only sparing (1,2) leaves every member two
    /// channels, and that splits the members into two squares.
    fn dumbbell() -> (Mesh, FaultModel) {
        let mesh = Mesh::new(2, 5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(0, 2)));
        (mesh, faults)
    }

    #[test]
    fn exhausted_fallback_search_is_proven() {
        let (mesh, faults) = dumbbell();
        assert!(is_connected(&mesh, &faults));
        assert_eq!(reason(masked_cycle(&mesh, &faults)), NO_CYCLE);
    }

    #[test]
    fn budget_cut_fallback_search_gives_up() {
        let (mesh, faults) = dumbbell();
        assert_eq!(reason(search_cycle(&mesh, &faults, 1)), GAVE_UP);
    }

    #[test]
    fn single_faults_an_8x8_search_gave_up_on_now_repair() {
        let mesh = Mesh::square(8).unwrap();
        let mut link = FaultModel::new();
        fail_channel(&mesh, &mut link, (1, 1), (1, 2));
        let mut other_link = FaultModel::new();
        fail_channel(&mesh, &mut other_link, (3, 3), (3, 4));
        let mut chiplet = FaultModel::new();
        chiplet.fail_node(mesh.node_at(Coord::new(3, 3)));
        for (faults, excluded) in [(link, 0), (other_link, 0), (chiplet, 1)] {
            let cycle = masked_cycle(&mesh, &faults).unwrap();
            assert_eq!(cycle.excluded.len(), excluded);
            assert_eq!(
                cycle.order.len() + excluded,
                faults.surviving_nodes(&mesh).len()
            );
            assert!(cycle_uses_only_usable_links(&mesh, &faults, &cycle.order));
        }
    }

    #[test]
    fn torus_wrap_channels_are_left_to_the_fallback_search() {
        // (0,0) keeps only its two wrap channels, which the bipartite
        // construction does not use; the search closes the cycle over them.
        let mesh = Mesh::torus(4, 4).unwrap();
        let mut faults = FaultModel::new();
        fail_channel(&mesh, &mut faults, (0, 0), (0, 1));
        fail_channel(&mesh, &mut faults, (0, 0), (1, 0));
        let cycle = masked_cycle(&mesh, &faults).unwrap();
        assert_eq!(cycle.order.len(), 16);
        assert!(cycle.excluded.is_empty());
        assert!(cycle_uses_only_usable_links(&mesh, &faults, &cycle.order));
    }

    #[test]
    fn masked_tree_spans_exactly_the_survivors() {
        let mesh = Mesh::square(5).unwrap();
        let mut faults = FaultModel::new();
        faults.fail_node(mesh.node_at(Coord::new(2, 2)));
        faults
            .fail_link_between(
                &mesh,
                mesh.node_at(Coord::new(0, 1)),
                mesh.node_at(Coord::new(0, 2)),
            )
            .unwrap();
        let root = mesh.node_at(Coord::new(0, 0));
        let tree = masked_tree(&mesh, &faults, root).unwrap();
        assert_eq!(tree.len(), 24);
        assert!(!tree.contains(mesh.node_at(Coord::new(2, 2))));
        for &n in tree.members() {
            if let Some(p) = tree.parent(n) {
                let l = mesh.link_between(p, n).unwrap();
                assert!(faults.link_usable(&mesh, l));
            }
        }
    }

    #[test]
    fn dead_root_is_infeasible() {
        let mesh = Mesh::square(3).unwrap();
        let mut faults = FaultModel::new();
        let root = mesh.node_at(Coord::new(1, 1));
        faults.fail_node(root);
        let err = masked_tree(&mesh, &faults, root).unwrap_err();
        assert!(matches!(err, TopologyError::Infeasible { .. }));
    }
}
