//! The uniform entry point over all AllReduce algorithms, including the
//! paper's Table I applicability matrix.

use std::fmt;

use meshcoll_topo::Mesh;

use crate::stream::{replay, OpSink};
use crate::{dbtree, hdrm, multitree, ring, ring2d, ring_bi, ring_bi_odd, tto};
use crate::{CollectiveError, Schedule};

/// Every AllReduce algorithm in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Unidirectional Ring AllReduce [18].
    Ring,
    /// Hierarchical two-dimensional Ring AllReduce [84].
    Ring2D,
    /// Topology-oblivious Double Binary Tree [59].
    DBTree,
    /// Halving-doubling with rank mapping [14] (BiGraph only).
    HalvingDoubling,
    /// Topology-aware MultiTree [31].
    MultiTree,
    /// Bidirectional Ring AllReduce for even-sized meshes.
    RingBiEven,
    /// Paper contribution 1: Bidirectional Ring AllReduce for odd-sized
    /// meshes (§IV).
    RingBiOdd,
    /// Paper contribution 2: Three Tree Overlap (§V).
    Tto,
}

/// How readily an algorithm maps onto a mesh (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Applicability {
    /// Maps naturally.
    Easy,
    /// Maps, but awkwardly (long rings / poorly embedded trees).
    Hard,
    /// Cannot run on this mesh at all.
    Inapplicable,
}

impl fmt::Display for Applicability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Applicability::Easy => "Easy",
            Applicability::Hard => "Hard",
            Applicability::Inapplicable => "Inapplicable",
        };
        f.write_str(s)
    }
}

/// Options for algorithms with tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Chunk size for TTO's pipelining (paper default: 98304 B).
    pub tto_chunk_bytes: u64,
    /// Pipeline segment size for DBTree.
    pub dbtree_segment_bytes: u64,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            tto_chunk_bytes: tto::DEFAULT_CHUNK_BYTES,
            dbtree_segment_bytes: dbtree::DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl Algorithm {
    /// All algorithms, in the paper's benchmark order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Ring,
        Algorithm::Ring2D,
        Algorithm::DBTree,
        Algorithm::HalvingDoubling,
        Algorithm::MultiTree,
        Algorithm::RingBiEven,
        Algorithm::RingBiOdd,
        Algorithm::Tto,
    ];

    /// The algorithms actually runnable on meshes (everything but HDRM), the
    /// set the paper's figures sweep.
    pub const BENCHMARKS: [Algorithm; 7] = [
        Algorithm::Ring,
        Algorithm::Ring2D,
        Algorithm::DBTree,
        Algorithm::MultiTree,
        Algorithm::RingBiEven,
        Algorithm::RingBiOdd,
        Algorithm::Tto,
    ];

    /// Short display name, matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ring => "Ring",
            Algorithm::Ring2D => "Ring-2D",
            Algorithm::DBTree => "DBTree",
            Algorithm::HalvingDoubling => "HDRM",
            Algorithm::MultiTree => "MultiTree",
            Algorithm::RingBiEven => "RingBiEven",
            Algorithm::RingBiOdd => "RingBiOdd",
            Algorithm::Tto => "TTO",
        }
    }

    /// The Table I applicability verdict for this algorithm on `mesh`.
    pub fn applicability(self, mesh: &Mesh) -> Applicability {
        let odd = mesh.is_odd_sized();
        let one_dim = mesh.rows() < 2 || mesh.cols() < 2;
        match self {
            Algorithm::Ring | Algorithm::MultiTree => {
                if mesh.nodes() < 2 {
                    Applicability::Inapplicable
                } else {
                    Applicability::Easy
                }
            }
            Algorithm::Ring2D | Algorithm::DBTree => {
                let blocked = mesh.nodes() < 2 || (one_dim && self == Algorithm::Ring2D);
                if blocked {
                    Applicability::Inapplicable
                } else {
                    Applicability::Hard
                }
            }
            Algorithm::HalvingDoubling => Applicability::Inapplicable,
            Algorithm::RingBiEven => {
                // Applicable wherever a Hamiltonian cycle exists: even-sized
                // meshes, and tori of any parity (the wrap-around links are
                // exactly what restores the cycle — the paper's §III-B
                // motivation).
                if one_dim || (odd && !mesh.is_torus()) {
                    Applicability::Inapplicable
                } else {
                    Applicability::Easy
                }
            }
            Algorithm::RingBiOdd => {
                if odd && !mesh.is_torus() && mesh.rows() >= 3 && mesh.cols() >= 3 {
                    Applicability::Easy
                } else {
                    Applicability::Inapplicable
                }
            }
            Algorithm::Tto => {
                if one_dim {
                    Applicability::Inapplicable
                } else {
                    Applicability::Easy
                }
            }
        }
    }

    /// Generates this algorithm's AllReduce schedule for `data_bytes` of
    /// gradient per node, with default options.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Inapplicable`] when the algorithm cannot
    /// run on `mesh` and [`CollectiveError::DataTooSmall`] when the gradient
    /// cannot be split as required.
    ///
    /// # Example
    ///
    /// ```
    /// use meshcoll_collectives::Algorithm;
    /// use meshcoll_topo::Mesh;
    /// let mesh = Mesh::square(4)?;
    /// let s = Algorithm::Tto.schedule(&mesh, 1 << 20)?;
    /// assert_eq!(s.name(), "TTO");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn schedule(self, mesh: &Mesh, data_bytes: u64) -> Result<Schedule, CollectiveError> {
        self.schedule_with(mesh, data_bytes, &ScheduleOptions::default())
    }

    /// Like [`Algorithm::schedule`] with explicit options.
    ///
    /// # Errors
    ///
    /// As for [`Algorithm::schedule`].
    pub fn schedule_with(
        self,
        mesh: &Mesh,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<Schedule, CollectiveError> {
        match self {
            Algorithm::Ring => ring::schedule(mesh, data_bytes),
            Algorithm::Ring2D => ring2d::schedule(mesh, data_bytes),
            Algorithm::DBTree => dbtree::schedule_with(mesh, data_bytes, opts.dbtree_segment_bytes),
            Algorithm::HalvingDoubling => hdrm::schedule(mesh, data_bytes),
            Algorithm::MultiTree => multitree::schedule(mesh, data_bytes),
            Algorithm::RingBiEven => ring_bi::schedule(mesh, data_bytes),
            Algorithm::RingBiOdd => ring_bi_odd::schedule(mesh, data_bytes),
            Algorithm::Tto => tto::schedule_with(mesh, data_bytes, opts.tto_chunk_bytes),
        }
    }

    /// Streams this algorithm's ops into `sink` instead of materializing a
    /// [`Schedule`] — the entry point for consumers that keep O(1) state per
    /// op, such as op counters, at 1,000+ chiplets (see [`crate::stream`]).
    ///
    /// Ring, RingBiEven, RingBiOdd, MultiTree, and TTO generate natively
    /// into the sink (no intermediate schedule); the remaining baselines
    /// materialize internally and [`replay`] — their op sequences are
    /// identical either way, only the peak memory differs.
    ///
    /// # Errors
    ///
    /// As for [`Algorithm::schedule_with`]. Errors detected mid-generation
    /// (e.g. a pipelined chunk too small to split) leave the sink holding a
    /// valid prefix of the schedule; callers must discard it.
    pub fn emit_with(
        self,
        mesh: &Mesh,
        data_bytes: u64,
        opts: &ScheduleOptions,
        sink: &mut dyn OpSink,
    ) -> Result<(), CollectiveError> {
        match self {
            Algorithm::Ring => ring::emit(mesh, data_bytes, sink),
            Algorithm::RingBiEven => ring_bi::emit(mesh, data_bytes, sink),
            Algorithm::RingBiOdd => ring_bi_odd::emit(mesh, data_bytes, sink),
            Algorithm::MultiTree => multitree::emit(mesh, data_bytes, sink),
            Algorithm::Tto => tto::emit_with(mesh, data_bytes, opts.tto_chunk_bytes, sink),
            Algorithm::Ring2D | Algorithm::DBTree | Algorithm::HalvingDoubling => {
                let s = self.schedule_with(mesh, data_bytes, opts)?;
                replay(&s, sink);
                Ok(())
            }
        }
    }

    /// `true` when [`Algorithm::emit_with`] generates directly into the
    /// sink (O(live ops) generation state); `false` for the baselines that
    /// materialize internally and replay.
    pub fn streams_natively(self) -> bool {
        !matches!(
            self,
            Algorithm::Ring2D | Algorithm::DBTree | Algorithm::HalvingDoubling
        )
    }

    /// The bidirectional ring variant matching the mesh parity, the pairing
    /// the paper's "Bidirectional Ring" label means on each topology.
    pub fn ring_bi_for(mesh: &Mesh) -> Algorithm {
        if mesh.is_odd_sized() && !mesh.is_torus() {
            Algorithm::RingBiOdd
        } else {
            Algorithm::RingBiEven
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn applicability_matches_table1() {
        use Applicability::*;
        let even = Mesh::square(8).unwrap();
        let odd = Mesh::square(9).unwrap();
        let expect = [
            (Algorithm::Ring, Easy, Easy),
            (Algorithm::Ring2D, Hard, Hard),
            (Algorithm::DBTree, Hard, Hard),
            (Algorithm::HalvingDoubling, Inapplicable, Inapplicable),
            (Algorithm::MultiTree, Easy, Easy),
            (Algorithm::RingBiEven, Easy, Inapplicable),
            (Algorithm::RingBiOdd, Inapplicable, Easy),
        ];
        for (a, on_even, on_odd) in expect {
            assert_eq!(a.applicability(&even), on_even, "{a} on 8x8");
            assert_eq!(a.applicability(&odd), on_odd, "{a} on 9x9");
        }
    }

    #[test]
    fn schedule_agrees_with_applicability() {
        for dims in [(4, 4), (5, 5), (8, 8), (9, 9)] {
            let mesh = Mesh::new(dims.0, dims.1).unwrap();
            for a in Algorithm::ALL {
                let result = a.schedule(&mesh, 1 << 20);
                match a.applicability(&mesh) {
                    Applicability::Inapplicable => assert!(result.is_err(), "{a} on {dims:?}"),
                    _ => {
                        assert!(result.is_ok(), "{a} on {dims:?}: {result:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_applicable_algorithm_is_functionally_correct() {
        for dims in [(4, 4), (3, 3)] {
            let mesh = Mesh::new(dims.0, dims.1).unwrap();
            for a in Algorithm::BENCHMARKS {
                if a.applicability(&mesh) == Applicability::Inapplicable {
                    continue;
                }
                let opts = ScheduleOptions {
                    tto_chunk_bytes: 1024,
                    dbtree_segment_bytes: 1024,
                };
                let s = a.schedule_with(&mesh, 9 * 512, &opts).unwrap();
                verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{a}: {e}"));
            }
        }
    }

    #[test]
    fn ring_bi_for_picks_by_parity() {
        assert_eq!(
            Algorithm::ring_bi_for(&Mesh::square(8).unwrap()),
            Algorithm::RingBiEven
        );
        assert_eq!(
            Algorithm::ring_bi_for(&Mesh::square(9).unwrap()),
            Algorithm::RingBiOdd
        );
    }
}
