//! The four workloads and their seeded point generators.
//!
//! A generator is a pure function of `(workload, seed)`: it lays out a fixed
//! grid of cells (mesh shape x algorithm x ...), draws each point's seeded
//! jitter inside its cell, and orders the points. Every cell is present
//! under every seed, so seeds change inputs but not the mix of work, which
//! keeps host-time metrics comparable across seeds.
//!
//! The order is one fixed pseudo-random cycle, and the seed picks where a
//! pass starts on it. A point's host time depends on the point before it —
//! the engine's pooled lowering buffer frees the previous DAG's per-message
//! dependency lists, so a 144-op Ring run after a 28k-op DBTree run costs
//! 0.5 ms instead of 0.02 ms — and a fixed cycle keeps every point's
//! predecessor the same under every seed.

use meshcoll_collectives::{Algorithm, Applicability};
use meshcoll_models::DnnModel;
use meshcoll_topo::Mesh;

const MIB: u64 = 1 << 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 10 traffic: DNN gradients under every applicable algorithm.
    TrainSweep,
    /// Ring family over 14 mesh shapes: the packet-train fast path.
    RingScaling,
    /// Streamed 64 MiB AllReduce on 256–576-chiplet fabrics.
    ScaleStream,
    /// Static and mid-run link/chiplet deaths with schedule repair.
    FaultRepair,
}

impl Workload {
    /// Every workload, in the order the all-workloads mode runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TrainSweep,
        Workload::RingScaling,
        Workload::ScaleStream,
        Workload::FaultRepair,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSweep => "train-sweep",
            Workload::RingScaling => "ring-scaling",
            Workload::ScaleStream => "scale-stream",
            Workload::FaultRepair => "fault-repair",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fabric kind of a `scale-stream` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// Flat `n x n` mesh.
    Mesh,
    /// `n x n` torus.
    Torus,
    /// 2x2 board of `n/2 x n/2` packages, board links at 1/4 bandwidth.
    Hierarchy,
}

impl Topo {
    /// Every fabric kind.
    pub const ALL: [Topo; 3] = [Topo::Mesh, Topo::Torus, Topo::Hierarchy];
}

/// The fault a `fault-repair` point injects. `pick` is a raw seeded draw
/// that set-up resolves against the healthy run's link activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A physical channel the healthy schedule uses is dead from the start.
    StaticLink { pick: u64 },
    /// A chiplet is dead from the start.
    StaticChiplet { pick: u64 },
    /// A directed link still carrying traffic dies at `frac` of the
    /// healthy makespan.
    OnlineLink { frac: f64, pick: u64 },
    /// A chiplet with a still-busy link dies at `frac` of the healthy
    /// makespan.
    OnlineChiplet { frac: f64, pick: u64 },
}

impl Fault {
    /// True for mid-run deaths (timed with `run_online`).
    pub fn is_online(self) -> bool {
        matches!(self, Fault::OnlineLink { .. } | Fault::OnlineChiplet { .. })
    }
}

/// One sweep point, before set-up builds its fabric and engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `epoch_time` of `model`.
    Train {
        n: usize,
        algorithm: Algorithm,
        model: DnnModel,
        gradient_bytes: u64,
    },
    /// `schedule_with` + `SimEngine::run`.
    Ring {
        n: usize,
        algorithm: Algorithm,
        bytes: u64,
    },
    /// `SimEngine::run_streamed`.
    Stream {
        n: usize,
        topo: Topo,
        algorithm: Algorithm,
        bytes: u64,
    },
    /// `run_degraded` or `run_online` under one seeded fault.
    Fault {
        n: usize,
        algorithm: Algorithm,
        bytes: u64,
        fault: Fault,
    },
}

impl Spec {
    /// Payload bytes of the AllReduce.
    pub fn bytes(&self) -> u64 {
        match *self {
            Spec::Train { gradient_bytes, .. } => gradient_bytes,
            Spec::Ring { bytes, .. } | Spec::Stream { bytes, .. } | Spec::Fault { bytes, .. } => {
                bytes
            }
        }
    }

    /// The collective algorithm.
    pub fn algorithm(&self) -> Algorithm {
        match *self {
            Spec::Train { algorithm, .. }
            | Spec::Ring { algorithm, .. }
            | Spec::Stream { algorithm, .. }
            | Spec::Fault { algorithm, .. } => algorithm,
        }
    }

    /// True for points timed with `run_online`.
    pub fn is_online(&self) -> bool {
        matches!(self, Spec::Fault { fault, .. } if fault.is_online())
    }
}

/// SplitMix64: a small seedable generator that gives the same stream on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` of `seed` (streams are independent, so
    /// drawing a check sample never shifts the generated points).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Mesh sides of `train-sweep`.
pub const TRAIN_MESHES: [usize; 2] = [3, 4];
/// Seeded sizes (4 KiB aligned) per (shape, algorithm) cell of
/// `ring-scaling`.
const RING_SIZES_PER_CELL: usize = 43;
/// Fabric sides of `scale-stream`.
pub const STREAM_SIDES: [usize; 3] = [16, 20, 24];
/// Payload of every `scale-stream` point.
const STREAM_BYTES: u64 = 64 * MIB;
/// Copies of each (side, fabric, algorithm) cell in one `scale-stream` pass.
const STREAM_COPIES: usize = 2;
/// Mesh sides of `fault-repair`.
pub const FAULT_MESHES: [usize; 3] = [5, 6, 7];
/// Sizes of `fault-repair`, each profiled once per (shape, algorithm)
/// during set-up. Fixed, so the largest point (and with it peak RSS) is the
/// same under every seed; the seed places the faults.
const FAULT_SIZES: [u64; 4] = [2 * MIB, 4 * MIB, 8 * MIB, 16 * MIB];
/// Points per (shape, algorithm, fault kind) cell of `fault-repair`.
const FAULT_POINTS_PER_CELL: usize = 12;

/// Seed of the fixed point cycle (not the workload seed).
const ORDER_SEED: u64 = 0x0DE5_C0DE;

/// The algorithms of `Algorithm::BENCHMARKS` that run on `mesh`.
pub fn applicable(mesh: &Mesh) -> Vec<Algorithm> {
    Algorithm::BENCHMARKS
        .into_iter()
        .filter(|a| a.applicability(mesh) != Applicability::Inapplicable)
        .collect()
}

/// The `n x n` mesh of a benchmark point.
pub fn square(n: usize) -> Mesh {
    Mesh::square(n).expect("benchmark mesh sides are valid")
}

/// The points of one pass of `workload` under `seed`, in seeded order.
pub fn generate(workload: Workload, seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::new();
    match workload {
        Workload::TrainSweep => {
            // The models' own gradients, as Fig 10 uses them: whether TTO
            // stays on the fast path depends on the exact size, so jittered
            // sizes would move host time from seed to seed by more than
            // any bound could absorb. The seed orders the points.
            for n in TRAIN_MESHES {
                for algorithm in applicable(&square(n)) {
                    for model in DnnModel::ALL {
                        specs.push(Spec::Train {
                            n,
                            algorithm,
                            model,
                            gradient_bytes: model.model().gradient_bytes(4),
                        });
                    }
                }
            }
        }
        Workload::RingScaling => {
            for n in 3..=16 {
                for algorithm in [Algorithm::Ring, Algorithm::ring_bi_for(&square(n))] {
                    // Stratified log-uniform sizes over [1, 256] MiB: one
                    // draw per stratum keeps the size mix fixed.
                    for j in 0..RING_SIZES_PER_CELL {
                        let u = (j as f64 + rng.unit()) / RING_SIZES_PER_CELL as f64;
                        let bytes = (MIB as f64 * 256f64.powf(u)) as u64;
                        specs.push(Spec::Ring {
                            n,
                            algorithm,
                            bytes: bytes.div_ceil(4096) * 4096,
                        });
                    }
                }
            }
        }
        Workload::ScaleStream => {
            // The size stays exactly 64 MiB: TTO's chunking makes whether
            // a run stays on the fast path depend on the size, and this
            // workload measures the fast path's memory. The seed only
            // orders the points.
            for n in STREAM_SIDES {
                for topo in Topo::ALL {
                    for algorithm in [Algorithm::Ring, Algorithm::Tto] {
                        for _ in 0..STREAM_COPIES {
                            specs.push(Spec::Stream {
                                n,
                                topo,
                                algorithm,
                                bytes: STREAM_BYTES,
                            });
                        }
                    }
                }
            }
        }
        Workload::FaultRepair => {
            for n in FAULT_MESHES {
                let mesh = square(n);
                for algorithm in [
                    Algorithm::Ring,
                    Algorithm::ring_bi_for(&mesh),
                    Algorithm::MultiTree,
                    Algorithm::Tto,
                ] {
                    for kind in 0..4 {
                        for i in 0..FAULT_POINTS_PER_CELL {
                            let frac = 0.25 + 0.5 * rng.unit();
                            let pick = rng.next_u64();
                            let fault = match kind {
                                0 => Fault::StaticLink { pick },
                                1 => Fault::StaticChiplet { pick },
                                2 => Fault::OnlineLink { frac, pick },
                                _ => Fault::OnlineChiplet { frac, pick },
                            };
                            specs.push(Spec::Fault {
                                n,
                                algorithm,
                                bytes: FAULT_SIZES[i % FAULT_SIZES.len()],
                                fault,
                            });
                        }
                    }
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    Rng::new(ORDER_SEED, 3).shuffle(&mut order);
    let start = Rng::new(seed, 3).below(order.len());
    order.rotate_left(start);
    order.into_iter().map(|i| specs[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_dependent() {
        for w in Workload::ALL {
            let a = generate(w, 1);
            assert!(a.len() >= 36, "{}: {} points", w.name(), a.len());
            assert_eq!(a, generate(w, 1), "{}: same seed, same points", w.name());
            assert_ne!(a, generate(w, 2), "{}: seeds must differ", w.name());
        }
    }

    #[test]
    fn seeds_rotate_one_fixed_cycle() {
        let a = generate(Workload::ScaleStream, 1);
        let b = generate(Workload::ScaleStream, 2);
        let shift = (0..a.len())
            .find(|&k| a[k..] == b[..a.len() - k])
            .expect("b is a rotation of a");
        assert_eq!(a[..shift], b[a.len() - shift..]);
    }

    #[test]
    fn every_seed_keeps_the_cell_mix() {
        // Seeds move sizes and order, never which cells a pass contains.
        let cells = |seed| {
            let mut v: Vec<String> = generate(Workload::FaultRepair, seed)
                .iter()
                .map(|s| match s {
                    Spec::Fault {
                        n,
                        algorithm,
                        fault,
                        ..
                    } => format!("{n}/{algorithm}/{}", fault.is_online()),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(cells(1), cells(7));
    }

    #[test]
    fn sizes_are_in_range() {
        for w in Workload::ALL {
            for s in generate(w, 3) {
                let mib = s.bytes() as f64 / MIB as f64;
                let ok = match s {
                    Spec::Ring { .. } => (1.0..=256.01).contains(&mib),
                    Spec::Fault { .. } => (1.0..=16.01).contains(&mib),
                    Spec::Stream { .. } => mib == 64.0,
                    Spec::Train { .. } => mib > 20.0,
                };
                assert!(ok, "{s:?}");
            }
        }
    }
}
