//! # das-bench — the figure/table reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (§5). Each
//! binary prints the same series the figure plots, so `EXPERIMENTS.md`
//! can record paper-vs-measured side by side:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 (scheduler feature matrix) |
//! | `fig04`  | Fig. 4 (co-runner interference, throughput vs parallelism) |
//! | `fig05_06` | Fig. 5 (priority-task distribution) + Fig. 6 (per-core work time) |
//! | `fig07`  | Fig. 7 (DVFS square wave) |
//! | `fig08`  | Fig. 8 (tile size × PTT weight ratio sensitivity) |
//! | `fig09`  | Fig. 9 (K-means iterations under socket interference) |
//! | `fig10`  | Fig. 10 (distributed heat on 4 nodes) |
//! | `ablation_steal` | extra: stealing of critical tasks on/off |
//! | `ablation_ptt_init` | extra: PTT zero-init vs pessimistic init |
//! | `ablation_sampled_search` | extra: sampled vs exhaustive global search |
//! | `ablation_exploration` | extra: periodic exploration vs stale pessimism |
//! | `ext_dheft` | extra: the dHEFT reference scheduler vs Table 1 |
//! | `jobs_throughput` | extra: online multi-job streams (jobs/sec, sojourn percentiles) |
//!
//! All binaries accept `--scale N` (or env `DAS_SCALE=N`) to divide the
//! paper-sized task counts by `N` for quick runs; `--scale 1` (default)
//! is paper-sized. Results are deterministic for a given seed/scale.

use das_core::Policy;
use das_sim::{RunStats, SimConfig, Simulator};
use das_topology::Topology;
use das_workloads::cost::PaperCost;
use das_workloads::synthetic::{self, Kernel};
use std::sync::Arc;

/// Parse `--scale N` from argv or `DAS_SCALE` from the environment;
/// defaults to 1 (paper-sized).
pub fn scale_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                // Clamp like the env path: `--scale 0` means paper-sized,
                // not a divide-by-zero in the harnesses.
                return v.max(1);
            }
        }
    }
    // Harness sizing knob, read once at startup; never a scheduling input.
    #[allow(clippy::disallowed_methods)]
    std::env::var("DAS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Fixed seed used by every harness binary (bit-for-bit reproducible).
pub const SEED: u64 = 0x1c99_2020;

/// Build a TX2 simulator for `policy` with the paper cost model.
pub fn tx2_sim(policy: Policy) -> Simulator {
    let topo = Arc::new(Topology::tx2());
    Simulator::new(
        SimConfig::new(topo, policy)
            .cost(Arc::new(PaperCost::new()))
            .seed(SEED),
    )
}

/// Run one synthetic-DAG experiment and return its stats.
pub fn run_synthetic(
    sim: &mut Simulator,
    kernel: Kernel,
    parallelism: usize,
    scale: usize,
) -> RunStats {
    let dag = synthetic::dag(kernel, parallelism, scale);
    sim.run(&dag).expect("synthetic DAG runs to completion")
}

/// Render a throughput table: one row per x-value, one column per policy.
pub fn print_table(
    title: &str,
    x_name: &str,
    xs: &[String],
    policies: &[Policy],
    cells: &[Vec<f64>],
) {
    println!("\n== {title} ==");
    print!("{x_name:>12}");
    for p in policies {
        print!("{:>10}", p.name());
    }
    println!();
    for (x, row) in xs.iter().zip(cells) {
        print!("{x:>12}");
        for v in row {
            print!("{v:>10.0}");
        }
        println!();
    }
}

/// Percentage formatting helper for the Fig. 5-style distributions.
pub fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // argv of the test harness has no --scale.
        std::env::remove_var("DAS_SCALE");
        assert_eq!(scale_from_args(), 1);
    }

    #[test]
    fn tx2_sim_runs_quickly_scaled() {
        let mut sim = tx2_sim(Policy::DamC);
        let st = run_synthetic(&mut sim, Kernel::MatMul, 4, 100);
        assert_eq!(st.tasks, 320);
        assert!(st.throughput() > 0.0);
    }

    #[test]
    fn pct_math() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }
}
