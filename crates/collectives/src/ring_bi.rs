//! Bidirectional Ring AllReduce for even-sized meshes (RingBiEven).
//!
//! The Hamiltonian cycle is used in both directions simultaneously, each
//! direction carrying half the gradient — doubling link usage (and, on a
//! contention-free cycle, bandwidth) over the unidirectional ring. This is
//! the NCCL-style scheme the paper uses as its even-mesh baseline; it cannot
//! run on odd-sized meshes (no Hamiltonian cycle), which is exactly the gap
//! RingBiOdd fills.

use meshcoll_topo::{hamiltonian, Mesh};

use crate::ring_common::{no_entry, ring_all_gather, ring_reduce_scatter};
use crate::stream::OpSink;
use crate::{CollectiveError, Schedule};

/// Builds the RingBiEven schedule for `data_bytes` of gradient per node.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] on odd-sized or degenerate meshes
///   (paper Table I),
/// * [`CollectiveError::DataTooSmall`] when a half cannot split into `N`
///   parts.
pub fn schedule(mesh: &Mesh, data_bytes: u64) -> Result<Schedule, CollectiveError> {
    let mut b = Schedule::builder("RingBiEven", data_bytes);
    emit(mesh, data_bytes, &mut b)?;
    Ok(b.build())
}

/// Streams the RingBiEven ops into `sink`; the generation code behind
/// [`schedule`].
pub(crate) fn emit(
    mesh: &Mesh,
    data_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    let cycle =
        hamiltonian::hamiltonian_cycle(mesh).map_err(|_| CollectiveError::Inapplicable {
            algorithm: "RingBiEven",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "bidirectional rings need a Hamiltonian cycle, which odd-sized meshes lack",
        })?;
    sink.set_participants(mesh.node_ids().collect());
    let half = data_bytes / 2;

    // Direction A: cycle order, first half of the gradient.
    let rs_a = ring_reduce_scatter(sink, &cycle, (0, half), 0, no_entry, &[])?;
    ring_all_gather(sink, &cycle, (0, half), 0, |p| &rs_a.completion[p][..], &[])?;

    // Direction B: reversed order (opposite directed links), second half.
    let rev: Vec<_> = cycle.iter().rev().copied().collect();
    let rs_b = ring_reduce_scatter(sink, &rev, (half, data_bytes), 0, no_entry, &[])?;
    ring_all_gather(
        sink,
        &rev,
        (half, data_bytes),
        0,
        |p| &rs_b.completion[p][..],
        &[],
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{link_usage, verify, CollectiveOp};

    #[test]
    fn bi_ring_is_correct() {
        for (r, c) in [(2, 2), (4, 4), (3, 4), (2, 5)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = schedule(&mesh, 4096).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap();
            verify::check_allreduce_seeded(&mesh, &s, 7).unwrap();
        }
    }

    #[test]
    fn odd_mesh_is_inapplicable() {
        let mesh = Mesh::square(5).unwrap();
        assert!(matches!(
            schedule(&mesh, 4096),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }

    #[test]
    fn uses_both_directions_of_cycle_links() {
        // Paper Table I: 57% of directed links on an 8x8 mesh.
        let mesh = Mesh::square(8).unwrap();
        let s = schedule(&mesh, 1 << 20).unwrap();
        let pct = link_usage::used_link_percent(&mesh, &s);
        assert!((56.0..59.0).contains(&pct), "got {pct}%");
    }

    #[test]
    fn halves_are_disjoint_ranges() {
        let mesh = Mesh::square(2).unwrap();
        let s = schedule(&mesh, 800).unwrap();
        let a_max = s
            .ops()
            .iter()
            .filter(|o| o.offset < 400)
            .map(CollectiveOp::end)
            .max()
            .unwrap();
        assert!(a_max <= 400);
    }
}
