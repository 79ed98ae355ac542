//! cluster_top — a `top(1)`-style text dashboard over a metrics-enabled
//! 4-node sim cluster.
//!
//! Streams a Poisson job mix into the cluster in batches and renders a
//! frame after every batch: one row per [`MetricKind`], one column per
//! node plus the merged cluster total. Mid-stream frames show queue
//! depth building up from the snapshots each node reports on its
//! admission cadence (`MetricsConfig::every`); the final
//! frame comes from [`drain_summary`](das::cluster::Cluster::drain_summary),
//! whose percentiles are read from the mergeable log-bucket sketches —
//! no per-job record ever crosses a node boundary.
//!
//! Non-interactive by design: it prints a fixed number of frames and
//! exits, so CI can smoke-run it like any other example.
//!
//! ```sh
//! cargo run --release --example cluster_top
//! ```

use das::cluster::{metric_scalar, ClusterBuilder, RoutePolicy};
use das::core::{MetricKind, MetricsConfig, MetricsReport, Policy};
use das::exec::{Executor, SessionBuilder};
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use std::sync::Arc;

/// Display unit of every metric family. The match is wildcard-free, so
/// a new `MetricKind` variant without a unit fails the build.
fn unit(kind: MetricKind) -> Unit {
    match kind {
        MetricKind::QueueDepth
        | MetricKind::JobsAdmitted
        | MetricKind::JobsCompleted
        | MetricKind::TasksCompleted
        | MetricKind::Steals
        | MetricKind::FailedSteals
        | MetricKind::Events => Unit::Count,
        MetricKind::Utilization => Unit::Percent,
        MetricKind::PttResidual
        | MetricKind::SojournP50
        | MetricKind::SojournP99
        | MetricKind::QueueingP99 => Unit::Seconds,
    }
}

enum Unit {
    Count,
    Percent,
    Seconds,
}

fn cell(v: f64, unit: Unit) -> String {
    match unit {
        Unit::Count => format!("{:>12}", v as u64),
        Unit::Percent => format!("{:>11.1}%", v * 100.0),
        Unit::Seconds => format!("{v:>12.6}"),
    }
}

fn render(frame: usize, label: &str, report: &MetricsReport) {
    println!("── frame {frame} ({label}) ──");
    if report.nodes.is_empty() {
        println!("  (no snapshots received yet)\n");
        return;
    }
    let totals = report.totals();
    print!("  {:<16}", "metric");
    for s in &report.nodes {
        print!("{:>12}", format!("node{}", s.node));
    }
    println!("{:>12}", "TOTAL");
    for kind in MetricKind::ALL {
        print!("  {:<16}", kind.name());
        for s in &report.nodes {
            print!("{}", cell(metric_scalar(kind, &s.probe), unit(kind)));
        }
        println!("{}", cell(metric_scalar(kind, &totals), unit(kind)));
    }
    println!();
}

fn main() {
    const NODES: usize = 4;
    const BATCH: usize = 16;

    let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
        .seed(7)
        .metrics(MetricsConfig::default().every(4));
    let mut cluster = ClusterBuilder::new(base, NODES)
        .route(RoutePolicy::RoundRobin)
        .build_sim();

    let jobs = StreamConfig::poisson(7, 48, 300.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 5,
        })
        .generate();
    println!(
        "cluster_top: {NODES}-node sim cluster, {} jobs in batches of {BATCH}, \
         snapshots every 4 admissions\n",
        jobs.len()
    );

    let mut frame = 0;
    let mut pending = jobs.into_iter();
    loop {
        let batch: Vec<_> = pending.by_ref().take(BATCH).collect();
        if batch.is_empty() {
            break;
        }
        let admitted = cluster.submit_many(batch).expect("batch admitted");
        frame += 1;
        let report = cluster.metrics_report();
        println!("submitted {} jobs", admitted.len());
        render(frame, "mid-stream", &report);
    }

    let summary = cluster.drain_summary().expect("cluster drains");
    frame += 1;
    render(frame, "drained", &summary.report);

    let totals = summary.report.totals();
    println!(
        "cluster: {} jobs / {} tasks in {:.3}s simulated ({:.0} jobs/s), \
         sojourn p50 {:.6}s p99 {:.6}s (sketch, ±{:.1}% relative error)",
        summary.jobs,
        summary.tasks,
        summary.span,
        summary.jobs as f64 / summary.span,
        totals.sojourn.quantile(0.50).unwrap_or(0.0),
        totals.sojourn.quantile(0.99).unwrap_or(0.0),
        totals.sojourn.relative_error() * 100.0,
    );
    for s in &summary.report.nodes {
        println!(
            "  node{}: {} jobs ({:.0} jobs/s), utilization {:.1}%",
            s.node,
            s.probe.jobs_completed,
            s.probe.jobs_completed as f64 / summary.span,
            s.probe.utilization() * 100.0,
        );
    }
    assert_eq!(summary.jobs, totals.jobs_completed, "sketch counts agree");
}
