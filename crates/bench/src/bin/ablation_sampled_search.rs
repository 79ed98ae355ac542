//! Ablation (beyond the paper): the representative-row **sampled global
//! search** vs the exhaustive search — the paper's future-work item on
//! scalable performance prediction, quantified.
//!
//! Two axes: schedule quality (throughput under the Fig. 4 co-runner
//! scenario) and decision cost (mean search latency on a trained PTT),
//! across machine sizes.
//!
//! The exhaustive search is no longer a sweep of every place: it
//! combines one cached arg-min per `(cluster, width)` slot, so on the
//! table at rest this latency loop times it is the *cheaper* search
//! (speedup below 1). What the sampled search still buys is a cost that
//! does not depend on write traffic: it never rescans, where the
//! exhaustive search rescans every slot written since the previous
//! search — every place, in the worst case.

// Measurement harness: the wall clock is the instrument (clippy.toml
// bans it workspace-wide for *decision* code).
#![allow(clippy::disallowed_methods)]
use das_bench::{scale_from_args, SEED};
use das_core::{Policy, Scheduler, TaskTypeId, WeightRatio};
use das_sim::{Environment, Modifier, SimConfig, Simulator};
use das_topology::{CoreId, Topology};
use das_workloads::cost::PaperCost;
use das_workloads::synthetic::{self, Kernel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn latency_ns(topo: &Arc<Topology>, sampled: bool) -> f64 {
    let sched = Scheduler::new(Arc::clone(topo), Policy::DamC);
    let ptt = sched.ptts().table(TaskTypeId(0));
    for p in topo.places() {
        ptt.seed(p.leader, p.width, 1.0 + p.leader.0 as f64);
    }
    const N: u32 = 50_000;
    let t0 = Instant::now();
    for _ in 0..N {
        if sampled {
            black_box(ptt.global_search_sampled(true, None, CoreId(0)));
        } else {
            black_box(ptt.global_search(true, false, None));
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

fn quality(topo: &Arc<Topology>, sampled: bool, scale: usize) -> f64 {
    let sched = Arc::new(
        Scheduler::with_ratio(Arc::clone(topo), Policy::DamC, WeightRatio::PAPER)
            .with_sampled_search(sampled),
    );
    let mut sim = Simulator::new(
        SimConfig::new(Arc::clone(topo), Policy::DamC)
            .cost(Arc::new(PaperCost::new()))
            .seed(SEED),
    );
    sim.replace_scheduler(sched);
    sim.set_env(
        Environment::interference_free(Arc::clone(topo)).and(Modifier::compute_corunner(CoreId(0))),
    );
    let dag = synthetic::dag(Kernel::MatMul, 4, scale);
    sim.run(&dag).expect("ablation run").throughput()
}

fn main() {
    let scale = scale_from_args();
    println!("Ablation — sampled vs exhaustive global PTT search\n");
    println!(
        "{:<22} {:>7} {:>11} {:>11} {:>9} {:>11} {:>11} {:>8}",
        "platform",
        "places",
        "full [ns]",
        "sampl [ns]",
        "speedup",
        "full [t/s]",
        "sampl [t/s]",
        "quality"
    );
    for (name, topo) in [
        ("TX2", Topology::tx2()),
        ("haswell 2x10", Topology::haswell_2x10()),
        ("cluster 4x2x10", Topology::haswell_cluster(4)),
    ] {
        let topo = Arc::new(topo);
        let (lf, ls) = (latency_ns(&topo, false), latency_ns(&topo, true));
        let (qf, qs) = (quality(&topo, false, scale), quality(&topo, true, scale));
        println!(
            "{name:<22} {:>7} {lf:>11.0} {ls:>11.0} {:>8.1}x {qf:>11.0} {qs:>11.0} {:>7.1}%",
            topo.places().count(),
            lf / ls,
            100.0 * qs / qf
        );
    }
    println!(
        "\nReading: the sampled search keeps throughput within a few percent —\n\
         its blind spot (stale rows for non-representative leaders of other\n\
         clusters) rarely matters because symmetric clusters make any row\n\
         representative. On latency it no longer wins on a table at rest: the\n\
         exhaustive search reads one cached arg-min per (cluster, width) slot.\n\
         The sampled search's remaining edge is a cost independent of write\n\
         traffic (it never rescans a slot the writers dirtied)."
    );
}
