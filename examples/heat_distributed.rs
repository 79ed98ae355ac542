//! Distributed 2-D heat diffusion: four ranks, each with its own runtime
//! instance, exchanging ghost rows through the in-process message-passing
//! substrate inside **high-priority communication tasks** — the paper's
//! distributed application (§4.2.2, Fig. 10), minus the Infiniband.
//!
//! ```sh
//! cargo run --release --example heat_distributed
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "demo timing loop: the wall clock is the output, not a scheduling input"
)]
use das::core::Policy;
use das::runtime::Runtime;
use das::topology::Topology;
use das::workloads::heat;
use std::sync::Arc;

fn main() {
    let (rows, cols, iters, ranks) = (66, 48, 40, 4);
    println!("distributed heat: {rows}x{cols} grid, {iters} iterations, {ranks} ranks\n");

    let reference = heat::sequential(rows, cols, iters);

    for policy in [Policy::Rws, Policy::DamC, Policy::DamP] {
        let t0 = std::time::Instant::now();
        let got = heat::run_distributed(
            |_rank| Runtime::new(Arc::new(Topology::symmetric(2)), policy),
            ranks,
            rows,
            cols,
            iters,
            4,
        );
        let wall = t0.elapsed();
        let max_err = got
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:<8} {ranks} ranks x 2 workers finished in {wall:?}, max error vs sequential: {max_err:.2e}",
            policy.name()
        );
        assert!(max_err < 1e-12);
    }

    // Show a slice of the final temperature field.
    println!("\ncenter column temperature profile (hot top edge diffusing down):");
    for r in (0..rows).step_by(8) {
        let v = reference[r * cols + cols / 2];
        let bars = "#".repeat((v / 2.0) as usize);
        println!("row {r:>3} {v:>7.2} {bars}");
    }
}
