//! `PaperCost` — the simulator cost model for the paper's workloads.
//!
//! Calibration targets (the `das-bench` `figures` binary prints the
//! measured outcome; `crates/bench/tests/golden.rs` pins it):
//!
//! * **MatMul** is compute-dense: the Denver cores enjoy an extra
//!   micro-architectural affinity on top of their 2× base speed, and the
//!   paper's tiny 64×64 tiles scale sub-linearly across a cluster.
//!   The tile's working set (~3·n²·4 bytes) fits the Denver 64 KiB L1
//!   for n ≤ 80 but falls out of the A57 32 KiB L1 beyond n = 32 — the
//!   axis of the Fig. 8 sensitivity study.
//! * **Copy** is bandwidth-bound: the cluster's memory pipe saturates at
//!   two streaming cores, so `w·eff(w) = min(w, 2)`, the kernel gains
//!   nothing from fast cores, and it is maximally sensitive to memory
//!   interference.
//! * **Stencil** sits in between: decent scaling, a constant cache-miss
//!   penalty (1024² tiles exceed the 2 MB L2), moderate memory
//!   sensitivity.
//! * **K-means chunks** scale well (data-parallel) and touch memory;
//!   the reduction is tiny and serial.
//! * **Heat** compute blocks scale moderately; the boundary-exchange
//!   (comm) tasks are dominated by a single-core protocol stack but gain
//!   a little from cache sharing when molded (the §5.4 observation that
//!   moldability helps MPI through shared caches).

use crate::types;
use das_core::TaskTypeId;
use das_sim::cost::CostModel;
use das_topology::Cluster;

/// Cost model reproducing the paper's three kernel classes plus the two
/// applications. One knob — the MatMul tile size — drives the Fig. 8
/// sensitivity sweep.
#[derive(Clone, Debug)]
pub struct PaperCost {
    /// MatMul tile side (paper default 64; Fig. 8 sweeps {32,64,80,96}).
    tile: usize,
}

impl Default for PaperCost {
    fn default() -> Self {
        PaperCost { tile: 64 }
    }
}

impl PaperCost {
    /// The paper's default configuration (64×64 MatMul tiles).
    pub fn new() -> Self {
        Self::default()
    }

    /// Same model with a different MatMul tile side.
    pub fn with_tile(tile: usize) -> Self {
        assert!(tile >= 8, "tile too small to be meaningful");
        PaperCost { tile }
    }

    /// Scaling exponent (`eff = w^(alpha-1)`) per task type.
    fn alpha(&self, ty: TaskTypeId) -> f64 {
        match ty {
            types::MATMUL => 0.55,
            types::COPY => 0.5, // further shaped by the bandwidth cap below
            types::STENCIL => 0.65,
            types::KMEANS_CHUNK => 0.9,
            types::KMEANS_REDUCE => 0.0,
            types::HEAT_COMPUTE => 0.85,
            types::HEAT_COMM => 0.2,
            _ => 0.5,
        }
    }

    /// Micro-architectural affinity of a kernel for a cluster, on top of
    /// the cluster's base speed. Fast out-of-order cores (base speed > 1)
    /// pull further ahead on compute-dense kernels and gain nothing on
    /// streaming ones.
    fn cluster_affinity(&self, ty: TaskTypeId, cluster: &Cluster) -> f64 {
        let fast = cluster.base_speed > 1.0;
        match ty {
            types::MATMUL | types::INTERFERE if fast => {
                // The wide out-of-order advantage needs work to chew
                // on: on tiny L1-resident tiles (n <= 32) both core
                // kinds sustain their FMA pipes and the Denver edge
                // mostly evaporates — which is why the Fig. 8
                // sensitivity to model noise exists at tile 32 and
                // nowhere else (the best places sit near parity and
                // a few bad samples flip the ranking).
                if self.tile <= 32 {
                    1.05
                } else {
                    1.5
                }
            }
            types::COPY if fast => {
                // Bandwidth-bound: compute speed barely matters, but
                // the big cores keep a modest streaming edge (wider
                // load/store pipes), so divide most — not all — of
                // the base advantage back out. This preserves the
                // paper's Fig. 4(b) ordering where the criticality-
                // aware FA still beats RWS on Copy.
                1.3 / cluster.base_speed
            }
            types::STENCIL if fast => 1.2,
            _ => 1.0,
        }
    }

    /// Cache-fit factor of the MatMul tile on a cluster (the Fig. 8
    /// axis): working set ≈ 3·n²·4 bytes against the per-core L1 and the
    /// shared L2.
    fn matmul_cache_factor(&self, cluster: &Cluster) -> f64 {
        // Effective working set ≈ 2.5 tiles of f32 (B stays resident, A
        // streams row blocks, C accumulates) — the coefficient that makes
        // the §5.3 statements come out: tile 32 fits both L1s, 64 and 80
        // "only fit in the Denver L1", 96 spills to L2 everywhere.
        let ws_kib = self.tile * self.tile * 10 / 1024;
        if ws_kib <= cluster.l1_kib {
            1.0
        } else if ws_kib <= cluster.l2_kib {
            0.85
        } else {
            0.6
        }
    }
}

impl CostModel for PaperCost {
    fn work(&self, ty: TaskTypeId) -> f64 {
        match ty {
            // 2.3 ms at the 64×64 reference; O(n³) in the tile side.
            types::MATMUL => {
                let s = self.tile as f64 / 64.0;
                2.3e-3 * s * s * s
            }
            types::COPY => 2.5e-3,
            types::STENCIL => 6.0e-3,
            types::KMEANS_CHUNK => 0.2,
            types::KMEANS_REDUCE => 0.01,
            types::HEAT_COMPUTE => 0.15,
            // The ghost exchange encapsulates the MPI protocol stack and
            // the blocking wait for the neighbour's boundary — on the
            // paper's Infiniband cluster this is comparable to a
            // fraction of the compute phase, not negligible.
            types::HEAT_COMM => 0.1,
            types::INTERFERE => 2.3e-3,
            _ => 1e-3,
        }
    }

    fn efficiency(&self, ty: TaskTypeId, width: usize, cluster: &Cluster) -> f64 {
        let w = width as f64;
        let base = match ty {
            // The cluster memory pipe saturates at two streaming cores:
            // w·eff = min(w, 2).
            types::COPY => (w.min(2.0)) / w,
            types::STENCIL => w.powf(self.alpha(ty) - 1.0) * 0.8,
            types::MATMUL => w.powf(self.alpha(ty) - 1.0) * self.matmul_cache_factor(cluster),
            _ => w.powf(self.alpha(ty) - 1.0),
        };
        base * self.cluster_affinity(ty, cluster)
    }

    fn mem_sensitivity(&self, ty: TaskTypeId) -> f64 {
        match ty {
            types::MATMUL => 0.1,
            types::COPY => 1.0,
            types::STENCIL => 0.5,
            types::KMEANS_CHUNK => 0.5,
            types::HEAT_COMPUTE => 0.3,
            types::HEAT_COMM => 0.6,
            _ => 0.2,
        }
    }

    /// Intra-application oversubscription sensitivity (§3.1: molding
    /// exists "to reduce inter-task contention and resource
    /// oversubscription"). L1-resident GEMM barely notices neighbours;
    /// streaming and cache-hungry kernels notice a crowded cluster a
    /// lot; the MPI protocol stack is highly cache-sensitive (§5.4,
    /// citing Pellegrini et al. on CPU caches and MPI).
    fn contention_sensitivity(&self, ty: TaskTypeId) -> f64 {
        match ty {
            types::MATMUL => 0.05,
            types::COPY => 0.55,
            types::STENCIL => 0.35,
            types::KMEANS_CHUNK => 0.3,
            types::KMEANS_REDUCE => 0.0,
            types::HEAT_COMPUTE => 0.45,
            types::HEAT_COMM => 0.6,
            types::INTERFERE => 0.0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_topology::Topology;

    fn clusters() -> (Cluster, Cluster) {
        let t = Topology::tx2();
        (t.clusters()[0].clone(), t.clusters()[1].clone())
    }

    #[test]
    fn matmul_denver_beats_wide_a57() {
        // The Fig. 5(g) requirement: solo Denver is the fastest matmul
        // place, so DAM-P keeps 90+% of critical tasks there.
        let c = PaperCost::new();
        let (denver, a57) = clusters();
        // rate(place) = w * min_speed * eff
        let denver_solo = 1.0 * 2.0 * c.efficiency(types::MATMUL, 1, &denver);
        let a57_wide = 4.0 * 1.0 * c.efficiency(types::MATMUL, 4, &a57);
        assert!(
            denver_solo > a57_wide,
            "denver {denver_solo:.2} vs a57x4 {a57_wide:.2}"
        );
        // But the wide A57 place must beat a *single* A57 core.
        let a57_solo = 1.0 * c.efficiency(types::MATMUL, 1, &a57);
        assert!(a57_wide > a57_solo);
    }

    #[test]
    fn copy_saturates_at_two_cores() {
        let c = PaperCost::new();
        let (_, a57) = clusters();
        let r1 = 1.0 * c.efficiency(types::COPY, 1, &a57);
        let r2 = 2.0 * c.efficiency(types::COPY, 2, &a57);
        let r4 = 4.0 * c.efficiency(types::COPY, 4, &a57);
        assert!((r2 - 2.0 * r1).abs() < 1e-12, "two streams double");
        assert!((r4 - r2).abs() < 1e-12, "four streams gain nothing");
    }

    #[test]
    fn copy_ignores_fast_cores() {
        let c = PaperCost::new();
        let (denver, a57) = clusters();
        // Effective width-1 rate: the Denver keeps only a modest
        // streaming edge (wider LSU), not its full 2x compute advantage.
        let d = 2.0 * c.efficiency(types::COPY, 1, &denver);
        let a = 1.0 * c.efficiency(types::COPY, 1, &a57);
        assert!(d > a, "denver must keep a streaming edge");
        assert!(d < 1.5 * a, "but far less than its 2x compute advantage");
    }

    #[test]
    fn tile_sweep_cache_fits_match_section_5_3() {
        let (denver, a57) = clusters();
        // 32: fits both L1; 64/80: only Denver L1; 96: L2 everywhere.
        let f = |tile: usize, cl: &Cluster| PaperCost::with_tile(tile).matmul_cache_factor(cl);
        assert_eq!(f(32, &denver), 1.0);
        assert_eq!(f(32, &a57), 1.0);
        assert_eq!(f(64, &denver), 1.0);
        assert!(f(64, &a57) < 1.0);
        assert_eq!(f(80, &denver), 1.0);
        assert!(f(80, &a57) < 1.0);
        assert!(f(96, &denver) < 1.0);
        assert!(f(96, &a57) < 1.0);
    }

    #[test]
    fn matmul_work_cubic_in_tile() {
        let w64 = PaperCost::with_tile(64).work(types::MATMUL);
        let w32 = PaperCost::with_tile(32).work(types::MATMUL);
        assert!((w64 / w32 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivities_ordered_by_kernel_class() {
        let c = PaperCost::new();
        assert!(c.mem_sensitivity(types::COPY) > c.mem_sensitivity(types::STENCIL));
        assert!(c.mem_sensitivity(types::STENCIL) > c.mem_sensitivity(types::MATMUL));
    }

    #[test]
    fn heat_comm_gains_little_from_width() {
        let c = PaperCost::new();
        let (_, a57) = clusters();
        let r1 = 1.0 * c.efficiency(types::HEAT_COMM, 1, &a57);
        let r2 = 2.0 * c.efficiency(types::HEAT_COMM, 2, &a57);
        assert!(r2 > r1, "molding must help a little (§5.4)");
        assert!(r2 < 1.5 * r1, "but far from linearly");
    }
}
