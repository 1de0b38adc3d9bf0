//! RingBiOdd — Bidirectional Ring AllReduce for odd-sized meshes
//! (paper §IV, Algorithm 1; the first of the paper's two contributions).
//!
//! An odd-sized mesh has no Hamiltonian cycle, so a classic bidirectional
//! ring cannot include every node. RingBiOdd instead:
//!
//! 1. builds a cycle over `N - 1` nodes, excluding one corner (§IV-A),
//! 2. runs two opposite unidirectional rings over that cycle, each carrying
//!    half the gradient split into `N - 1` parts,
//! 3. schedules the excluded corner's data through its two bidirectional
//!    neighbor links: during ReduceScatter it streams each part to a *merge
//!    node* (one per direction) exactly one step before the merge node must
//!    forward that part; during AllGather the merge node returns every final
//!    part to the excluded corner as it arrives.
//!
//! The result completes in the same `2(N-1)` steps as RingBiEven on an
//! even mesh, at `D/(N-1)` bytes per step instead of `D/N` — the paper's
//! headline property. The excluded corner still *trains* (it contributes a
//! gradient and receives the result); it is only excluded from the ring.

use meshcoll_topo::{hamiltonian, Coord, Mesh, NodeId};

use crate::ring_common::{no_entry, ring_all_gather, ring_reduce_scatter, Feeder};
use crate::stream::OpSink;
use crate::{CollectiveError, Schedule};

/// Builds the RingBiOdd schedule for `data_bytes` of gradient per node.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] unless both mesh dimensions are odd
///   and at least 3 (RingBiEven covers even meshes),
/// * [`CollectiveError::DataTooSmall`] when a half cannot split into `N - 1`
///   parts.
pub fn schedule(mesh: &Mesh, data_bytes: u64) -> Result<Schedule, CollectiveError> {
    let mut b = Schedule::builder("RingBiOdd", data_bytes);
    emit(mesh, data_bytes, &mut b)?;
    Ok(b.build())
}

/// Streams the RingBiOdd ops into `sink`; the generation code behind
/// [`schedule`].
pub(crate) fn emit(
    mesh: &Mesh,
    data_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    if mesh.is_torus() {
        return Err(CollectiveError::Inapplicable {
            algorithm: "RingBiOdd",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "a torus has a full Hamiltonian cycle; use RingBiEven",
        });
    }
    let (cycle, excluded) =
        hamiltonian::corner_excluded_cycle(mesh).map_err(|_| CollectiveError::Inapplicable {
            algorithm: "RingBiOdd",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "RingBiOdd targets odd-sized meshes of at least 3x3",
        })?;

    // The excluded corner is bottom-right; its two neighbors are the merge
    // nodes, one per ring direction.
    let west = mesh.node_at(Coord::new(mesh.rows() - 1, mesh.cols() - 2));
    let north = mesh.node_at(Coord::new(mesh.rows() - 2, mesh.cols() - 1));
    debug_assert!(mesh.are_adjacent(excluded, west) && mesh.are_adjacent(excluded, north));

    sink.set_participants(mesh.node_ids().collect());
    let half = data_bytes / 2;

    let pos_of = |order: &[NodeId], n: NodeId| {
        order
            .iter()
            .position(|&m| m == n)
            .expect("merge node is on the cycle")
    };

    // Direction A: cycle order, first half, merging through the west neighbor.
    let feeder_a = Feeder {
        node: excluded,
        merge_pos: pos_of(&cycle, west),
    };
    let rs_a = ring_reduce_scatter(sink, &cycle, (0, half), 0, no_entry, &[feeder_a])?;
    ring_all_gather(
        sink,
        &cycle,
        (0, half),
        0,
        |p| &rs_a.completion[p][..],
        &[feeder_a],
    )?;

    // Direction B: reversed order, second half, merging through the north
    // neighbor (so the two directions use disjoint excluded-corner links).
    let rev: Vec<_> = cycle.iter().rev().copied().collect();
    let feeder_b = Feeder {
        node: excluded,
        merge_pos: pos_of(&rev, north),
    };
    let rs_b = ring_reduce_scatter(sink, &rev, (half, data_bytes), 0, no_entry, &[feeder_b])?;
    ring_all_gather(
        sink,
        &rev,
        (half, data_bytes),
        0,
        |p| &rs_b.completion[p][..],
        &[feeder_b],
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{link_usage, verify};

    #[test]
    fn ring_bi_odd_is_correct() {
        for (r, c) in [(3, 3), (3, 5), (5, 5), (5, 3)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = schedule(&mesh, 8192).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap();
            for seed in 0..3 {
                verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
            }
        }
    }

    #[test]
    fn even_mesh_is_inapplicable() {
        let mesh = Mesh::square(4).unwrap();
        assert!(matches!(
            schedule(&mesh, 4096),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }

    #[test]
    fn excluded_corner_still_participates() {
        let mesh = Mesh::square(3).unwrap();
        let s = schedule(&mesh, 1600).unwrap();
        assert_eq!(s.participants().len(), 9);
        // The corner both sends (ReduceScatter feed) and receives (AllGather
        // drain).
        let corner = NodeId(8);
        assert!(s.ops().iter().any(|o| o.src == corner));
        assert!(s.ops().iter().any(|o| o.dst == corner));
    }

    #[test]
    fn link_usage_matches_paper_table1() {
        // Paper Table I: ~57% on a 9x9 mesh (164 of 288 directed links).
        let mesh = Mesh::square(9).unwrap();
        let s = schedule(&mesh, 1 << 20).unwrap();
        let pct = link_usage::used_link_percent(&mesh, &s);
        assert!((56.0..58.0).contains(&pct), "got {pct}%");
    }

    #[test]
    fn parts_are_split_n_minus_1_ways() {
        let mesh = Mesh::square(3).unwrap();
        let d = 1600; // half = 800, 8 ring nodes -> 100-byte parts
        let s = schedule(&mesh, d).unwrap();
        assert!(s.ops().iter().all(|o| o.bytes == 100));
    }

    #[test]
    fn step_count_matches_2n_minus_2() {
        // Every ring node sends once per step; plus K feeder sends and K
        // drain receives per direction.
        let mesh = Mesh::square(3).unwrap();
        let s = schedule(&mesh, 1600).unwrap();
        let k = 8; // N - 1
        let per_direction = (k - 1) * k  // RS ring ops
            + k                          // feeder ops
            + (k - 1) * k                // AG ring ops
            + k; // drain ops
        assert_eq!(s.len(), 2 * per_direction);
    }
}
