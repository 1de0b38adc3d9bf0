//! Analytical (α–β) cost models for the AllReduce algorithms.
//!
//! Each model predicts the AllReduce time from first principles — steps ×
//! (per-step latency α + per-step bytes / bandwidth) — using the hop/step
//! counts the paper derives:
//!
//! * Ring: `2(N-1)` steps of `D/N` bytes,
//! * RingBiEven / RingBiOdd: `2(N-1)` / `2(N-1)` steps of `D/2N` / `D/2(N-1)`
//!   bytes per direction (both directions in parallel),
//! * TTO: per chunk, `H` pipelined hops of `chunk/3` bytes per tree, with
//!   `C` chunks overlapping — `(H + C - 1)` link occupancies on the critical
//!   path (paper §V-C's `H + C - 1` timesteps),
//! * MultiTree: `2T` conflict-free timesteps of `D/N` bytes, `T` being the
//!   greedy construction's timestep count.
//!
//! Unit tests compare these predictions against the packet simulator; close
//! agreement (after accounting for the per-packet router overhead) is strong
//! evidence that the simulator implements the schedules the paper describes.

use meshcoll_collectives::{multitree, tto, Algorithm};
use meshcoll_noc::NocConfig;
use meshcoll_topo::{Mesh, Tree};

/// Per-step fixed latency: one per-hop header latency (single-hop steps).
fn alpha(noc: &NocConfig) -> f64 {
    noc.per_flit_latency_ns
}

/// Effective per-byte time on a link including the per-packet router
/// overhead amortized over full packets of `msg_bytes`.
fn beta(noc: &NocConfig, msg_bytes: u64) -> f64 {
    let packets = noc.packets_for(msg_bytes) as f64;
    (noc.serialization_ns(msg_bytes) + packets * noc.per_packet_overhead_ns) / msg_bytes as f64
}

/// Predicted AllReduce time in ns, or `None` for algorithms without a
/// closed-form model here (Ring-2D, DBTree — their cost is contention-
/// dominated and only the simulator captures it).
pub fn predicted_allreduce_ns(
    mesh: &Mesh,
    algorithm: Algorithm,
    data_bytes: u64,
    noc: &NocConfig,
) -> Option<f64> {
    let n = mesh.nodes() as u64;
    match algorithm {
        Algorithm::Ring => {
            let step_bytes = data_bytes / n;
            let steps = 2 * (n - 1);
            Some(steps as f64 * (alpha(noc) + step_bytes as f64 * beta(noc, step_bytes)))
        }
        Algorithm::RingBiEven => {
            // Two independent rings, each over half the data.
            let step_bytes = (data_bytes / 2) / n;
            let steps = 2 * (n - 1);
            Some(steps as f64 * (alpha(noc) + step_bytes as f64 * beta(noc, step_bytes)))
        }
        Algorithm::RingBiOdd => {
            // N-1 ring nodes carry half the data each direction; same step
            // count as the even case (paper §IV-B).
            let k = n - 1;
            let step_bytes = (data_bytes / 2) / k;
            let steps = 2 * k;
            Some(steps as f64 * (alpha(noc) + step_bytes as f64 * beta(noc, step_bytes)))
        }
        Algorithm::Tto => {
            let trees = tto::disjoint_trees(mesh).ok()?;
            let height = trees.iter().map(Tree::height).max()? as u64;
            let chunks = data_bytes.div_ceil(tto::DEFAULT_CHUNK_BYTES).max(1);
            let part = data_bytes.div_ceil(chunks) / 3;
            // Reduce then gather: each is (height + chunks - 1) pipelined
            // link occupancies of one chunk-part (paper §V-C: H + C - 1
            // timesteps per stage).
            let occ = alpha(noc) + part as f64 * beta(noc, part.max(1));
            Some(2.0 * (height + chunks - 1) as f64 * occ)
        }
        Algorithm::MultiTree => {
            let built = multitree::build_trees(mesh).ok()?;
            let steps = 2 * built.first()?.timesteps as u64;
            let part = data_bytes / n;
            Some(steps as f64 * (alpha(noc) + part as f64 * beta(noc, part.max(1))))
        }
        _ => None,
    }
}

/// Predicted peak AllReduce bandwidth (GB/s) for large `data_bytes`.
pub fn predicted_bandwidth_gbps(
    mesh: &Mesh,
    algorithm: Algorithm,
    data_bytes: u64,
    noc: &NocConfig,
) -> Option<f64> {
    predicted_allreduce_ns(mesh, algorithm, data_bytes, noc).map(|t| data_bytes as f64 / t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bandwidth, SimEngine};

    /// The simulator should match the analytical model within a modest
    /// margin (pipelining details, uneven splits).
    fn assert_close(mesh: &Mesh, algorithm: Algorithm, data: u64, tolerance: f64) {
        let noc = NocConfig::paper_default();
        let engine = SimEngine::new(noc.clone());
        let predicted = predicted_allreduce_ns(mesh, algorithm, data, &noc).unwrap();
        let simulated = bandwidth::measure(&engine, mesh, algorithm, data)
            .unwrap()
            .time_ns;
        let ratio = simulated / predicted;
        assert!(
            ((1.0 - tolerance)..(1.0 + tolerance)).contains(&ratio),
            "{algorithm} on {mesh}: simulated {simulated} vs predicted {predicted} (ratio {ratio})"
        );
    }

    #[test]
    fn ring_matches_theory() {
        assert_close(&Mesh::square(4).unwrap(), Algorithm::Ring, 16 << 20, 0.10);
        assert_close(&Mesh::square(5).unwrap(), Algorithm::Ring, 16 << 20, 0.10);
    }

    #[test]
    fn ring_bi_even_matches_theory() {
        assert_close(
            &Mesh::square(4).unwrap(),
            Algorithm::RingBiEven,
            16 << 20,
            0.10,
        );
    }

    #[test]
    fn ring_bi_odd_matches_theory() {
        assert_close(
            &Mesh::square(5).unwrap(),
            Algorithm::RingBiOdd,
            16 << 20,
            0.15,
        );
    }

    #[test]
    fn tto_matches_theory() {
        // Overlap pipelining is harder to capture exactly; allow 25%.
        assert_close(&Mesh::square(4).unwrap(), Algorithm::Tto, 16 << 20, 0.25);
        assert_close(&Mesh::square(5).unwrap(), Algorithm::Tto, 16 << 20, 0.25);
    }

    #[test]
    fn multitree_simulation_is_no_slower_than_lockstep_theory() {
        // The lockstep model's timesteps are conflict-free by construction.
        // The dependency-driven run lets them overlap, so trees can meet on
        // a link, and which goes first is decided by the engine's tie key
        // (DESIGN.md §5): the simulation is not <= the model in every
        // service order. Under the documented key it lands just under it
        // (981,882.88 vs 982,344.88 ns); breaking ties by message id alone
        // moved it 18 % later. So the 1.1x bound holds under the documented
        // key, and the order-independent check is the analyzer's certified
        // floor.
        let mesh = Mesh::square(4).unwrap();
        let noc = NocConfig::paper_default();
        let engine = SimEngine::new(noc.clone());
        let data = 16 << 20;
        let predicted = predicted_allreduce_ns(&mesh, Algorithm::MultiTree, data, &noc).unwrap();
        let simulated = bandwidth::measure(&engine, &mesh, Algorithm::MultiTree, data)
            .unwrap()
            .time_ns;
        assert!(
            simulated <= predicted * 1.1,
            "simulated {simulated} vs lockstep model {predicted}"
        );
        let schedule = Algorithm::MultiTree.schedule(&mesh, data).unwrap();
        let floor = crate::analyzer::analyze(&mesh, &schedule, &noc).lower_bound_ns();
        assert!(
            simulated >= floor,
            "simulated {simulated} undercuts the certified bound {floor}"
        );
    }

    #[test]
    fn theory_reproduces_the_headline_ratios() {
        // Even pure theory shows the paper's ordering.
        let noc = NocConfig::paper_default();
        let mesh = Mesh::square(9).unwrap();
        let d = 256 << 20;
        let ring = predicted_bandwidth_gbps(&mesh, Algorithm::Ring, d, &noc).unwrap();
        let bi = predicted_bandwidth_gbps(&mesh, Algorithm::RingBiOdd, d, &noc).unwrap();
        let tto = predicted_bandwidth_gbps(&mesh, Algorithm::Tto, d, &noc).unwrap();
        assert!(bi / ring > 1.7, "bi/ring {}", bi / ring);
        assert!(tto / bi > 1.2, "tto/bi {}", tto / bi);
    }

    #[test]
    fn no_model_for_contention_dominated_algorithms() {
        let noc = NocConfig::paper_default();
        let mesh = Mesh::square(4).unwrap();
        assert!(predicted_allreduce_ns(&mesh, Algorithm::DBTree, 1 << 20, &noc).is_none());
        assert!(predicted_allreduce_ns(&mesh, Algorithm::Ring2D, 1 << 20, &noc).is_none());
    }
}
