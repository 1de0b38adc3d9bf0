//! Ring-2D — hierarchical two-dimensional Ring AllReduce [84].
//!
//! The gradient is split into two halves processed concurrently:
//!
//! * half A: ReduceScatter along each **row**, then along each **column**;
//!   AllGather back up in reverse order,
//! * half B: the same with dimensions swapped (columns first),
//!
//! so the two halves use orthogonal links in each phase. Every 1D ring in a
//! mesh row/column is imperfect: it closes with a multi-hop link between the
//! two far ends that contends with the single-hop traffic of the same
//! row/column — the "slowest pair of nodes" effect that makes Ring-2D a weak
//! mesh algorithm in the paper's evaluation.

use meshcoll_topo::{Coord, Mesh, NodeId};

use crate::ring_common::{no_entry, ring_all_gather, ring_reduce_scatter};
use crate::schedule::split_range;
use crate::{CollectiveError, Schedule, ScheduleBuilder};

/// Builds the Ring-2D schedule for `data_bytes` of gradient per node.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] unless both dimensions are at least 2,
/// * [`CollectiveError::DataTooSmall`] when a half cannot be split
///   hierarchically (roughly `data_bytes < 2 * rows * cols`).
pub fn schedule(mesh: &Mesh, data_bytes: u64) -> Result<Schedule, CollectiveError> {
    if mesh.rows() < 2 || mesh.cols() < 2 {
        return Err(CollectiveError::Inapplicable {
            algorithm: "Ring-2D",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "hierarchical rings need both dimensions of size at least 2",
        });
    }
    let mut b = Schedule::builder("Ring-2D", data_bytes);
    b.set_participants(mesh.node_ids().collect());
    let half = data_bytes / 2;
    // Half A: rows (x) first, then columns (y).
    hierarchical_half(&mut b, mesh, (0, half), true)?;
    // Half B: columns first, then rows.
    hierarchical_half(&mut b, mesh, (half, data_bytes), false)?;
    Ok(b.build())
}

/// One half of the hierarchical AllReduce. `rows_first` selects which
/// dimension runs the outer (full-range) rings.
fn hierarchical_half(
    b: &mut ScheduleBuilder,
    mesh: &Mesh,
    range: (u64, u64),
    rows_first: bool,
) -> Result<(), CollectiveError> {
    let (outer_count, inner_count) = if rows_first {
        (mesh.rows(), mesh.cols())
    } else {
        (mesh.cols(), mesh.rows())
    };
    // Node at (outer line index, position within line).
    let node = |line: usize, pos: usize| -> NodeId {
        if rows_first {
            mesh.node_at(Coord::new(line, pos))
        } else {
            mesh.node_at(Coord::new(pos, line))
        }
    };
    // The orthogonal line through position `pos`, ordered by outer index.
    let cross_order =
        |pos: usize| -> Vec<NodeId> { (0..outer_count).map(|l| node(l, pos)).collect() };

    let outer_parts = split_range(range.0, range.1, inner_count as u64)?;

    // Phase 1: ReduceScatter along each outer line (e.g. each row).
    let mut rs_outer = Vec::with_capacity(outer_count);
    for line in 0..outer_count {
        let order: Vec<NodeId> = (0..inner_count).map(|p| node(line, p)).collect();
        rs_outer.push(ring_reduce_scatter(b, &order, range, 0, no_entry, &[])?);
    }

    // Phase 2: ReduceScatter along each orthogonal line. After phase 1, the
    // node at position `pos` of every outer line holds part (pos+1) mod inner.
    let mut rs_inner = Vec::with_capacity(inner_count);
    for pos in 0..inner_count {
        let part = outer_parts[(pos + 1) % inner_count];
        let order = cross_order(pos);
        let entry = |l: usize| &rs_outer[l].completion[pos][..];
        rs_inner.push(ring_reduce_scatter(
            b,
            &order,
            (part.0, part.0 + part.1),
            0,
            entry,
            &[],
        )?);
    }

    // Phase 3: AllGather along each orthogonal line.
    let mut ag_inner = Vec::with_capacity(inner_count);
    for pos in 0..inner_count {
        let part = outer_parts[(pos + 1) % inner_count];
        let order = cross_order(pos);
        let entry = |l: usize| &rs_inner[pos].completion[l][..];
        ag_inner.push(ring_all_gather(
            b,
            &order,
            (part.0, part.0 + part.1),
            0,
            entry,
            &[],
        )?);
    }

    // Phase 4: AllGather along each outer line.
    for line in 0..outer_count {
        let order: Vec<NodeId> = (0..inner_count).map(|p| node(line, p)).collect();
        let entry = |pos: usize| &ag_inner[pos].completion[line][..];
        ring_all_gather(b, &order, range, 0, entry, &[])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn ring2d_is_correct() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (2, 4), (3, 2), (4, 3)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = schedule(&mesh, 8 * 1024).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            for seed in 0..3 {
                verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
            }
        }
    }

    #[test]
    fn one_dimensional_mesh_is_inapplicable() {
        let mesh = Mesh::new(1, 8).unwrap();
        assert!(matches!(
            schedule(&mesh, 4096),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }

    #[test]
    fn phase2_messages_are_smaller_than_phase1() {
        // Hierarchical splitting: phase 1 moves D/(2c) per step, phase 2
        // moves D/(2cr).
        let mesh = Mesh::square(4).unwrap();
        let s = schedule(&mesh, 32 * 1024).unwrap();
        let sizes: std::collections::BTreeSet<u64> = s.ops().iter().map(|o| o.bytes).collect();
        assert!(sizes.len() >= 2);
        let min = *sizes.iter().next().unwrap();
        let max = *sizes.iter().last().unwrap();
        assert_eq!(max / min, 4); // outer part / inner part = rows
    }

    #[test]
    fn tiny_data_is_rejected() {
        let mesh = Mesh::square(4).unwrap();
        assert!(matches!(
            schedule(&mesh, 8),
            Err(CollectiveError::DataTooSmall { .. })
        ));
    }
}
