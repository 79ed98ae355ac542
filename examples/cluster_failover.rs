//! Node failure and membership churn, end to end — the elastic cluster
//! absorbing a seeded mid-stream kill and a planned node retirement.
//!
//! Three runs of the same seeded job stream:
//!
//! * a clean 4-node cluster (the baseline),
//! * the same cluster with a `FaultSchedule` that kills node 3 at its
//!   second admitted job — the dispatcher detects the death through the
//!   typed `NodeFailed` frame, requeues the stranded work onto the
//!   survivors, and the full stream still completes,
//! * a 2-node cluster scaled to 3 and back down mid-stream — the
//!   leaving node's queue drains onto its peers before the agent shuts
//!   down.
//!
//! Every fault trigger is logical (the n-th admitted job), never
//! wall-clock, so the faulty run is bit-reproducible: run this example
//! twice and the numbers match. The panic message the killed agent
//! prints on stderr *is* the fault firing — the dispatcher catches it
//! at the thread boundary and repairs around it.
//!
//! ```sh
//! cargo run --release --example cluster_failover
//! ```

use das::cluster::{fault_kind_name, ClusterBuilder, RoutePolicy};
use das::core::jobs::JobSpec;
use das::core::{FaultSchedule, Policy};
use das::dag::Dag;
use das::exec::{ExecReport, Executor, SessionBuilder};
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use std::sync::Arc;

fn stream() -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(42, 32, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .generate()
}

fn base_session() -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(42)
}

fn print_report(label: &str, report: &ExecReport) {
    println!(
        "  {label:>9}: {} jobs | {:.1} jobs/s | requeued {} | lost {} | live nodes {}",
        report.jobs.jobs.len(),
        report.jobs_per_sec(),
        report.extras.get("jobs_requeued").unwrap_or(0.0),
        report.extras.get("jobs_lost").unwrap_or(0.0),
        report.extras.get("nodes").unwrap_or(1.0),
    );
    let slots = 4;
    let shares: Vec<String> = (0..slots)
        .map(|i| {
            let jobs = report.extras.get(&format!("node{i}.jobs")).unwrap_or(0.0);
            let mark = if report.extras.get(&format!("node{i}.failed")).is_some() {
                "†"
            } else if report.extras.get(&format!("node{i}.removed")).is_some() {
                "↓"
            } else {
                ""
            };
            format!("n{i}={jobs}{mark}")
        })
        .collect();
    println!(
        "  {:>9}  routed: {}  († died, ↓ retired)",
        "",
        shares.join(" ")
    );
}

fn main() {
    let jobs = stream();
    println!(
        "stream: {} jobs, Poisson arrivals at 250/s, seed 42",
        jobs.len()
    );

    println!("\nclean 4-node cluster (no faults):");
    let mut cluster = ClusterBuilder::new(base_session(), 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    let clean = cluster.run_stream(jobs.clone()).expect("clean stream");
    print_report("clean", &clean);

    let schedule = FaultSchedule::new(42).kill(3, 1);
    println!(
        "\nsame cluster, seeded fault plane: {} on node 3 after 1 admitted job:",
        schedule
            .events()
            .first()
            .map(|f| fault_kind_name(&f.kind))
            .unwrap_or("?"),
    );
    let mut cluster = ClusterBuilder::new(base_session().fault_schedule(schedule), 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    let faulty = cluster
        .run_stream(jobs.clone())
        .expect("stream survives the kill");
    assert_eq!(faulty.jobs.jobs.len(), clean.jobs.jobs.len());
    assert_eq!(faulty.tasks(), clean.tasks(), "no work lost to the kill");
    print_report("failover", &faulty);

    println!("\n2-node cluster, scaled up to 3 and back down mid-stream:");
    let (first, rest) = jobs.split_at(jobs.len() / 2);
    let mut cluster = ClusterBuilder::new(base_session(), 2)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    for spec in first {
        cluster.submit(spec.clone()).expect("accepted");
    }
    let added = cluster.add_node(&base_session());
    cluster.remove_node(0).expect("node 0 retires cleanly");
    println!("  node {added} joined, node 0 retired (queue drained onto peers)");
    for spec in rest {
        cluster.submit(spec.clone()).expect("accepted");
    }
    let stats = cluster.drain().expect("drains");
    assert_eq!(stats.jobs.len(), jobs.len(), "churn loses nothing");
    let report = ExecReport::new("das-cluster", stats, cluster.take_extras());
    print_report("churn", &report);

    println!("\nevery job completed in every run — failures are typed, detected and repaired");
}
