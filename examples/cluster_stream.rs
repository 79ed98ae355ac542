//! One job stream, one generic client — scaled from a single node to a
//! sharded cluster with zero client changes.
//!
//! The client function below is the same shape as `job_stream.rs`'s:
//! written once against `&mut dyn Executor<Graph = G>`. Here it drives
//!
//! * one bare `das::sim::Simulator` (the single-node baseline),
//! * a 4-node all-sim `das::cluster::Cluster` under each routing
//!   policy (bit-reproducible: per-node determinism + seeded routing),
//! * a 2-node cluster of `das::runtime::Runtime` worker pools, each
//!   node linked into the dispatcher like a sim node, executing the
//!   same graphs with no-op bodies in wall-clock time.
//!
//! The cluster's merged report also carries per-node attribution
//! (`node{i}.jobs`, `node{i}.steals`, …), printed per section.
//!
//! ```sh
//! cargo run --release --example cluster_stream
//! ```

use das::cluster::{ClusterBuilder, RoutePolicy};
use das::core::jobs::JobSpec;
use das::core::Policy;
use das::exec::{ExecReport, Executor, SessionBuilder};
use das::runtime::TaskGraph;
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use std::sync::Arc;

/// The generic client: submit everything, drain, report. It never
/// learns whether it is talking to one node or a fleet.
fn drive<G>(ex: &mut dyn Executor<Graph = G>, jobs: Vec<JobSpec<G>>) -> ExecReport {
    let n = jobs.len();
    let report = ex.run_stream(jobs).expect("stream completes");
    assert_eq!(report.jobs.jobs.len(), n, "every job accounted for");
    report
}

fn print_report(label: &str, report: &ExecReport) {
    println!(
        "  {label:>12}: {} jobs | {:.1} jobs/s | sojourn p50 {:.6}s p99 {:.6}s | steals {:?}",
        report.jobs.jobs.len(),
        report.jobs_per_sec(),
        report.sojourn_percentile(0.50).unwrap_or(0.0),
        report.sojourn_percentile(0.99).unwrap_or(0.0),
        report.steals(),
    );
    let nodes = report.extras.get("nodes").unwrap_or(1.0) as usize;
    if nodes > 1 {
        let shares: Vec<String> = (0..nodes)
            .map(|i| {
                format!(
                    "n{i}={}",
                    report.extras.get(&format!("node{i}.jobs")).unwrap_or(0.0)
                )
            })
            .collect();
        println!("  {:>12}  routed: {}", "", shares.join(" "));
    }
}

fn main() {
    let jobs = StreamConfig::poisson(42, 32, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .generate();
    println!(
        "stream: {} jobs, Poisson arrivals at 250/s, seed 42",
        jobs.len()
    );

    let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(42);

    println!("\nsingle node (bare simulator, simulated seconds):");
    let mut bare = Simulator::from_session(&base);
    let baseline = drive(&mut bare, jobs.clone());
    print_report("baseline", &baseline);

    println!("\n4-node sim cluster, by routing policy (simulated seconds per node):");
    for policy in RoutePolicy::ALL {
        let mut cluster = ClusterBuilder::new(base.clone(), 4)
            .route(policy)
            .build_sim();
        let report = drive(&mut cluster, jobs.clone());
        assert_eq!(report.tasks(), baseline.tasks(), "same job set, sharded");
        print_report(policy.name(), &report);
    }

    println!("\n2-node runtime cluster (threaded pools, wall-clock seconds):");
    let rt_jobs: Vec<JobSpec<TaskGraph>> = jobs.iter().map(TaskGraph::noop_job_from_dag).collect();
    let sessions = (0..2)
        .map(|i| SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::DamC).seed(i))
        .collect();
    let mut cluster = ClusterBuilder::from_sessions(sessions)
        .route(RoutePolicy::LeastOutstanding)
        .build_runtime();
    let report = drive(&mut cluster, rt_jobs);
    assert_eq!(report.tasks(), baseline.tasks());
    print_report("least-out", &report);

    println!("\none Executor client scaled from 1 node to a fleet with zero changes");
}
