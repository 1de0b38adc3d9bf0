//! Unidirectional Ring AllReduce (Baidu ring [18]).
//!
//! The gradient is split into `N` parts that circulate once around a ring in
//! `N - 1` ReduceScatter steps plus `N - 1` AllGather steps, `D/N` bytes per
//! node per step. On an even-sized mesh the ring is the Hamiltonian cycle
//! (all hops are single links); an odd-sized mesh has no such cycle, so the
//! ring follows the serpentine Hamiltonian *path* and closes with one
//! multi-hop link from the last node back to the first — the long, contended
//! return the paper identifies as a weakness of ring algorithms on meshes.

use meshcoll_topo::{hamiltonian, Mesh};

use crate::ring_common::{no_entry, ring_all_gather, ring_reduce_scatter};
use crate::stream::OpSink;
use crate::{CollectiveError, Schedule};

/// Builds the unidirectional Ring AllReduce schedule for `data_bytes` of
/// gradient per node.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] on a single-node mesh,
/// * [`CollectiveError::DataTooSmall`] when `data_bytes < N`.
pub fn schedule(mesh: &Mesh, data_bytes: u64) -> Result<Schedule, CollectiveError> {
    let mut b = Schedule::builder("Ring", data_bytes);
    emit(mesh, data_bytes, &mut b)?;
    Ok(b.build())
}

/// Streams the Ring ops into `sink`; the generation code behind
/// [`schedule`], shared so streamed and materialized schedules are
/// identical by construction.
pub(crate) fn emit(
    mesh: &Mesh,
    data_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    if mesh.nodes() < 2 {
        return Err(CollectiveError::Inapplicable {
            algorithm: "Ring",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "a ring needs at least two nodes",
        });
    }
    let order = ring_order(mesh);
    sink.set_participants(mesh.node_ids().collect());
    let rs = ring_reduce_scatter(sink, &order, (0, data_bytes), 0, no_entry, &[])?;
    ring_all_gather(
        sink,
        &order,
        (0, data_bytes),
        0,
        |p| &rs.completion[p][..],
        &[],
    )?;
    Ok(())
}

/// The ring node order: a Hamiltonian cycle when one exists, otherwise the
/// serpentine path (whose closing hop is multi-hop).
pub fn ring_order(mesh: &Mesh) -> Vec<meshcoll_topo::NodeId> {
    hamiltonian::hamiltonian_cycle(mesh).unwrap_or_else(|_| hamiltonian::serpentine_path(mesh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn ring_allreduce_is_correct_even_mesh() {
        let mesh = Mesh::square(4).unwrap();
        let s = schedule(&mesh, 16 * 13).unwrap();
        verify::check_allreduce(&mesh, &s).unwrap();
        for seed in 0..3 {
            verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
        }
    }

    #[test]
    fn ring_allreduce_is_correct_odd_mesh() {
        let mesh = Mesh::square(3).unwrap();
        let s = schedule(&mesh, 900).unwrap();
        verify::check_allreduce(&mesh, &s).unwrap();
    }

    #[test]
    fn op_count_is_2n_minus_2_steps() {
        let mesh = Mesh::square(4).unwrap();
        let n = mesh.nodes();
        let s = schedule(&mesh, 4096).unwrap();
        // (N-1) RS steps + (N-1) AG steps, N sends each.
        assert_eq!(s.len(), 2 * (n - 1) * n);
    }

    #[test]
    fn wire_bytes_match_theory() {
        // Each of N nodes sends D/N bytes for 2(N-1) steps.
        let mesh = Mesh::new(2, 3).unwrap();
        let d = 6000;
        let s = schedule(&mesh, d).unwrap();
        assert_eq!(s.total_wire_bytes(), 2 * (6 - 1) * d);
    }

    #[test]
    fn single_node_is_inapplicable() {
        let mesh = Mesh::new(1, 1).unwrap();
        assert!(matches!(
            schedule(&mesh, 1024),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }

    #[test]
    fn tiny_data_is_rejected() {
        let mesh = Mesh::square(4).unwrap();
        assert!(matches!(
            schedule(&mesh, 3),
            Err(CollectiveError::DataTooSmall { .. })
        ));
    }
}
