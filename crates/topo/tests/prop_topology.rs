//! Property tests on the topology substrate: Hamiltonian constructions and
//! XY routing must hold their invariants for arbitrary mesh shapes, and the
//! fault-masked cycle must repair every single dead link or chiplet.

use meshcoll_topo::{
    hamiltonian, masked, routing, Direction, FaultModel, Mesh, NodeId, TopologyError,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serpentine_path_is_always_hamiltonian(rows in 1usize..16, cols in 1usize..16) {
        let mesh = Mesh::new(rows, cols).unwrap();
        let path = hamiltonian::serpentine_path(&mesh);
        prop_assert_eq!(path.len(), mesh.nodes());
        let mut seen = vec![false; mesh.nodes()];
        for n in &path {
            prop_assert!(!seen[n.index()]);
            seen[n.index()] = true;
        }
        for w in path.windows(2) {
            prop_assert!(mesh.are_adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn even_meshes_have_valid_cycles(rows in 2usize..16, cols in 2usize..16) {
        let mesh = Mesh::new(rows, cols).unwrap();
        match hamiltonian::hamiltonian_cycle(&mesh) {
            Ok(cycle) => {
                prop_assert!(!mesh.is_odd_sized());
                prop_assert!(hamiltonian::is_hamiltonian_cycle(&mesh, &cycle, &[]));
            }
            Err(_) => prop_assert!(mesh.is_odd_sized()),
        }
    }

    #[test]
    fn odd_meshes_have_valid_corner_excluded_cycles(
        ri in 0usize..7,
        ci in 0usize..7,
    ) {
        let (rows, cols) = (2 * ri + 3, 2 * ci + 3);
        let mesh = Mesh::new(rows, cols).unwrap();
        let (cycle, excluded) = hamiltonian::corner_excluded_cycle(&mesh).unwrap();
        prop_assert_eq!(excluded, *mesh.corners().last().unwrap());
        prop_assert!(hamiltonian::is_hamiltonian_cycle(&mesh, &cycle, &[excluded]));
    }

    #[test]
    fn xy_routes_are_shortest_and_contiguous(
        rows in 1usize..10,
        cols in 1usize..10,
        a in 0usize..100,
        b in 0usize..100,
    ) {
        let mesh = Mesh::new(rows, cols).unwrap();
        let a = NodeId(a % mesh.nodes());
        let b = NodeId(b % mesh.nodes());
        let route = routing::xy_route(&mesh, a, b).unwrap();
        prop_assert_eq!(route.len(), mesh.distance(a, b));
        let mut at = a;
        for l in route {
            let (s, d) = mesh.link_endpoints(l);
            prop_assert_eq!(s, at);
            prop_assert!(mesh.are_adjacent(s, d));
            at = d;
        }
        prop_assert_eq!(at, b);
    }

    #[test]
    fn link_ids_are_stable_bijections(rows in 1usize..10, cols in 1usize..10) {
        let mesh = Mesh::new(rows, cols).unwrap();
        for (s, d, l) in mesh.links() {
            prop_assert_eq!(mesh.link_between(s, d).unwrap(), l);
            prop_assert_eq!(mesh.link_endpoints(l), (s, d));
            // The reverse direction is a different physical link.
            let rev = mesh.link_between(d, s).unwrap();
            prop_assert_ne!(rev, l);
        }
    }
}

/// Every single dead channel (both directions) and every single dead
/// chiplet of `mesh`.
fn single_faults(mesh: &Mesh) -> Vec<FaultModel> {
    let mut out = Vec::new();
    for n in mesh.node_ids() {
        for d in [Direction::East, Direction::South] {
            if let Some(nb) = mesh.neighbor(n, d) {
                let mut f = FaultModel::new();
                f.fail_link_between(mesh, n, nb).unwrap();
                out.push(f);
            }
        }
    }
    for n in mesh.node_ids() {
        let mut f = FaultModel::new();
        f.fail_node(n);
        out.push(f);
    }
    out
}

/// Checks a repaired cycle's structure: consecutive members (and
/// last->first) share a usable channel, members plus excluded are exactly
/// the survivors, and every excluded survivor has a usable neighbor on the
/// cycle. Returns the usable-neighbor lists.
fn assert_well_formed(
    mesh: &Mesh,
    faults: &FaultModel,
    cycle: &masked::MaskedCycle,
) -> Vec<Vec<NodeId>> {
    let adj: Vec<Vec<NodeId>> = mesh
        .node_ids()
        .map(|n| masked::usable_neighbors(mesh, faults, n))
        .collect();
    let order = &cycle.order;
    for i in 0..order.len() {
        let (a, b) = (order[i], order[(i + 1) % order.len()]);
        assert!(
            adj[a.index()].contains(&b),
            "{mesh} {faults:?}: {a}-{b} is not a usable channel"
        );
    }
    let mut all: Vec<NodeId> = order.iter().chain(&cycle.excluded).copied().collect();
    all.sort();
    assert_eq!(
        all,
        faults.surviving_nodes(mesh),
        "{mesh} {faults:?}: members + excluded != survivors"
    );
    let mut on_cycle = vec![false; mesh.nodes()];
    for n in order {
        on_cycle[n.index()] = true;
    }
    for e in &cycle.excluded {
        assert!(
            adj[e.index()].iter().any(|nb| on_cycle[nb.index()]),
            "{mesh} {faults:?}: excluded {e} has no usable neighbor on the cycle"
        );
    }
    adj
}

/// The full single-fault contract: `Ok`, well formed, and exactly the
/// forced survivors (fewer than two usable channels) plus the color
/// imbalance of the rest sit out.
fn assert_minimal_repair(mesh: &Mesh, faults: &FaultModel) {
    let cycle =
        masked::masked_cycle(mesh, faults).unwrap_or_else(|e| panic!("{mesh} {faults:?}: {e}"));
    let adj = assert_well_formed(mesh, faults, &cycle);
    let survivors = faults.surviving_nodes(mesh);
    let forced = survivors
        .iter()
        .filter(|n| adj[n.index()].len() < 2)
        .count();
    let rest: Vec<NodeId> = survivors
        .iter()
        .copied()
        .filter(|n| adj[n.index()].len() >= 2)
        .collect();
    let blacks = rest
        .iter()
        .filter(|&&n| (mesh.coord(n).row + mesh.coord(n).col).is_multiple_of(2))
        .count();
    let imbalance = blacks.abs_diff(rest.len() - blacks);
    assert_eq!(
        cycle.excluded.len(),
        forced + imbalance,
        "{mesh} {faults:?}: excluded {:?}",
        cycle.excluded
    );
}

/// xorshift64 draws for seeded samples.
fn draws(mut state: u64) -> impl FnMut(usize) -> usize {
    move |below| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    }
}

#[test]
fn every_single_fault_repairs_on_squares_4_to_16() {
    for side in 4..=16 {
        let mesh = Mesh::square(side).unwrap();
        for faults in single_faults(&mesh) {
            assert_minimal_repair(&mesh, &faults);
        }
    }
}

#[test]
fn every_single_fault_repairs_on_rectangles() {
    for (rows, cols) in [(4, 7), (5, 8), (6, 9), (7, 4), (9, 6)] {
        let mesh = Mesh::new(rows, cols).unwrap();
        for faults in single_faults(&mesh) {
            assert_minimal_repair(&mesh, &faults);
        }
    }
}

#[test]
fn sampled_single_faults_repair_on_64x64() {
    let mesh = Mesh::square(64).unwrap();
    let faults = single_faults(&mesh);
    let mut draw = draws(0x5EED_0064);
    for _ in 0..24 {
        assert_minimal_repair(&mesh, &faults[draw(faults.len())]);
    }
}

#[test]
fn multi_fault_masks_on_64x64_are_repaired_or_typed() {
    let mesh = Mesh::square(64).unwrap();
    let singles = single_faults(&mesh);
    let mut draw = draws(0x5EED_0640);
    for _ in 0..12 {
        let mut faults = FaultModel::new();
        for _ in 0..2 + draw(2) {
            let one = &singles[draw(singles.len())];
            for n in mesh.node_ids().filter(|&n| one.node_failed(n)) {
                faults.fail_node(n);
            }
            for (_, _, l) in mesh.links().filter(|&(_, _, l)| one.link_failed(l)) {
                faults.fail_link(l);
            }
        }
        match masked::masked_cycle(&mesh, &faults) {
            Ok(cycle) => {
                assert_well_formed(&mesh, &faults, &cycle);
            }
            Err(TopologyError::Infeasible { reason }) => {
                assert!(!reason.is_empty());
            }
            Err(e) => panic!("{faults:?}: untyped failure {e}"),
        }
    }
}
