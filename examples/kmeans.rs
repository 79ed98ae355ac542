//! K-means on the real threaded runtime: loop partitions become moldable
//! tasks, the largest chunk is the critical task, and the result is
//! checked against the sequential reference (§4.2.2 / Fig. 9 workload).
//!
//! ```sh
//! cargo run --release --example kmeans
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "demo timing loop: the wall clock is the output, not a scheduling input"
)]
use das::core::Policy;
use das::runtime::Runtime;
use das::topology::Topology;
use das::workloads::kmeans::KMeans;
use std::sync::Arc;

fn main() {
    let n = 20_000;
    let (dim, k) = (4, 6);
    let km = KMeans::generate(n, dim, k, 0xbeef);
    println!("k-means: {n} points, dim {dim}, k {k}");

    let reference = km.run_sequential(10);

    for policy in [Policy::Rws, Policy::DamC, Policy::DamP] {
        let rt = Runtime::new(Arc::new(Topology::symmetric(4)), policy);
        let t0 = std::time::Instant::now();
        let (centroids, iter_times) = km.run_on_runtime(&rt, 10, 8);
        let wall = t0.elapsed();

        let max_err = centroids
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let avg_it = iter_times.iter().sum::<f64>() / iter_times.len() as f64;
        println!(
            "{:<8} 10 iterations in {wall:?} (avg {:.1} ms/iter), max centroid error vs sequential: {max_err:.2e}",
            policy.name(),
            avg_it * 1e3,
        );
        assert!(max_err < 1e-9, "parallel k-means must match the reference");
    }
    println!(
        "\nAll schedulers produce bit-equal clusterings; they differ only in *where* chunks run."
    );
}
