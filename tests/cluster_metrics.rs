//! Acceptance tests for the cluster observability plane:
//!
//! * a **metrics-enabled 4-node sim cluster is bit-reproducible**: two
//!   same-seed runs produce identical job records, identical merged
//!   `MetricsReport`s and byte-identical unified chrome traces;
//! * a **metrics-enabled 1-node cluster stays bit-identical to a bare
//!   `Simulator` session** — the snapshot plane observes, it never
//!   perturbs (and the shipped probe equals the bare probe exactly);
//! * snapshot frames ride the load-report fault gates
//!   (`DropLoadReports` / `DelayLoadReports`) and the drops/delays are
//!   attributed per node in the drain extras;
//! * sketch merging is **order-insensitive to exact f64 equality** —
//!   any permutation of node snapshots folds to the same totals;
//! * `drain_summary` replaces the per-job record ship with sketches
//!   whose percentiles stay within the documented relative error of
//!   the exact nearest-rank values.

use das::cluster::{ClusterBuilder, DrainSummary, RoutePolicy};
use das::core::jobs::JobSpec;
use das::core::{ExecProbe, FaultSchedule, MetricsConfig, MetricsReport, Policy};
use das::dag::Dag;
use das::exec::{ExecReport, Executor, SessionBuilder};
use das::sim::{validate_chrome_json, Simulator};
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use std::sync::Arc;

fn stream(seed: u64, n: usize) -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(seed, n, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 5,
        })
        .generate()
}

fn base_session(seed: u64) -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
}

#[test]
fn four_node_metrics_cluster_is_bit_reproducible_including_the_trace() {
    let jobs = stream(21, 24);
    let run = || -> (ExecReport, MetricsReport, String) {
        let base = base_session(21).metrics(MetricsConfig::default().every(2).with_trace());
        let mut cluster = ClusterBuilder::new(base, 4)
            .route(RoutePolicy::PowerOfTwo)
            .route_seed(5)
            .build_sim();
        let report = cluster.run_stream(jobs.clone()).expect("stream");
        let trace = cluster.collect_trace().expect("trace").to_chrome_json();
        (report, cluster.metrics_report(), trace)
    };
    let (report_a, metrics_a, trace_a) = run();
    let (report_b, metrics_b, trace_b) = run();

    assert_eq!(report_a, report_b, "job records + extras reproducible");
    assert_eq!(metrics_a, metrics_b, "merged snapshots reproducible");
    assert_eq!(trace_a, trace_b, "unified chrome trace byte-identical");

    let events = validate_chrome_json(&trace_a).expect("well-formed trace");
    assert!(events > 4, "spans from all nodes plus metadata");
    assert_eq!(metrics_a.nodes.len(), 4, "a snapshot from every node");
    assert_eq!(metrics_a.totals().jobs_completed, 24);
    assert_eq!(
        report_a.extras.get("metrics.jobs_completed"),
        Some(24.0),
        "flattened metrics extras ride the report"
    );
}

#[test]
fn one_node_metrics_cluster_is_bit_identical_to_a_bare_simulator_session() {
    let jobs = stream(7, 16);
    let base = base_session(7).metrics(MetricsConfig::default().every(4));

    let mut bare = Simulator::from_session(&base);
    let bare_report = Executor::run_stream(&mut bare, jobs.clone()).expect("bare stream");
    let bare_probe = bare.metrics_probe().expect("metrics enabled");

    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let cluster_report = cluster.run_stream(jobs).expect("cluster stream");
    let merged = cluster.metrics_report();

    // The job stream is untouched by the observability plane: per-job
    // records bit-identical, including every timestamp.
    assert_eq!(cluster_report.jobs, bare_report.jobs);
    assert_eq!(cluster_report.extras.steals, bare_report.extras.steals);
    assert_eq!(cluster_report.extras.events, bare_report.extras.events);

    // And the probe that crossed the wire equals the bare session's
    // probe exactly — counters, gauges and every sketch bin.
    assert_eq!(merged.nodes.len(), 1);
    assert_eq!(merged.totals(), bare_probe);
}

#[test]
fn enabling_metrics_does_not_perturb_the_job_stream() {
    let jobs = stream(13, 20);
    let run = |metrics: Option<MetricsConfig>| -> ExecReport {
        let mut base = base_session(13);
        if let Some(cfg) = metrics {
            base = base.metrics(cfg);
        }
        let mut cluster = ClusterBuilder::new(base, 4)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        cluster.run_stream(jobs.clone()).expect("stream")
    };
    let off = run(None);
    let on = run(Some(MetricsConfig::default().every(1)));

    assert_eq!(on.jobs, off.jobs, "same records with snapshots streaming");
    assert!(
        !off.extras.values().any(|(k, _)| k.starts_with("metrics.")),
        "metrics-off surface is byte-identical to the seed"
    );
    assert_eq!(on.extras.get("metrics.jobs_completed"), Some(20.0));
}

#[test]
fn snapshot_frames_ride_the_load_report_fault_gates_with_attribution() {
    // Node 0 drops its first two load-report occasions, node 1 delays
    // its first two. Each occasion carries snapshot + load under ONE
    // decision, so the snapshot stream sees exactly the same faults.
    let faults = FaultSchedule::new(3)
        .drop_load_reports(0, 2)
        .delay_load_reports(1, 2);
    let base = base_session(3)
        .fault_schedule(faults)
        .metrics(MetricsConfig::default().every(1));
    let mut cluster = ClusterBuilder::new(base, 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    // 12 individual submits -> 3 per node, each an occasion; the drain
    // adds one forced occasion per node.
    let report = cluster.run_stream(stream(3, 12)).expect("stream");

    let get = |k: &str| report.extras.get(k);
    assert_eq!(get("node0.snapshots_dropped"), Some(2.0));
    assert_eq!(get("node0.snapshots_sent"), Some(2.0));
    assert_eq!(get("node1.snapshots_delayed"), Some(2.0));
    assert_eq!(get("node1.snapshots_sent"), Some(2.0));
    for n in 2..4 {
        assert_eq!(get(&format!("node{n}.snapshots_sent")), Some(4.0));
        assert_eq!(get(&format!("node{n}.snapshots_dropped")), None);
    }
    assert_eq!(get("snapshots_sent"), Some(12.0), "global = per-node sum");
    assert_eq!(get("snapshots_dropped"), Some(2.0));
    assert_eq!(get("snapshots_delayed"), Some(2.0));

    // Cumulative probes make the stream loss-tolerant: the drain-forced
    // snapshots got through, so the merged totals are still complete.
    assert_eq!(cluster.metrics_report().totals().jobs_completed, 12);
}

#[test]
fn sketch_merge_is_order_insensitive_to_exact_f64_equality() {
    let base = base_session(17).metrics(MetricsConfig::default().every(2));
    let mut cluster = ClusterBuilder::new(base, 4)
        .route(RoutePolicy::LeastOutstanding)
        .build_sim();
    cluster.run_stream(stream(17, 24)).expect("stream");
    let report = cluster.metrics_report();
    assert_eq!(report.nodes.len(), 4);

    let fold = |order: &[usize]| -> ExecProbe {
        let mut t = ExecProbe::default();
        for &i in order {
            t.absorb(&report.nodes[i].probe);
        }
        t
    };
    let reference = fold(&[0, 1, 2, 3]);
    let sketch_bins = |p: &ExecProbe| (p.sojourn.clone(), p.queueing.clone());
    for order in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2], [0, 2, 1, 3]] {
        let shuffled = fold(&order);
        // The sketches merge by exact bin-wise u64 addition, so every
        // bin — and therefore every derived percentile — is identical
        // under any fold order, to exact f64 equality.
        assert_eq!(
            sketch_bins(&shuffled),
            sketch_bins(&reference),
            "fold order {order:?} changed the merged sketch"
        );
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(shuffled.sojourn.quantile(q), reference.sojourn.quantile(q));
            assert_eq!(
                shuffled.queueing.quantile(q),
                reference.queueing.quantile(q)
            );
        }
        // Integer counters commute exactly too. (The f64 accumulators
        // — busy/capacity seconds — are ordinary sums, which is why
        // `MetricsReport::totals` pins its canonical ascending fold.)
        assert_eq!(shuffled.jobs_completed, reference.jobs_completed);
        assert_eq!(shuffled.tasks_completed, reference.tasks_completed);
        assert_eq!(shuffled.steals, reference.steals);
        assert_eq!(shuffled.events, reference.events);
    }
}

#[test]
fn drain_summary_percentiles_match_the_reference_drain_within_sketch_error() {
    let jobs = stream(29, 32);
    let cfg = MetricsConfig::default().every(4);
    let build = || {
        ClusterBuilder::new(base_session(29).metrics(cfg), 4)
            .route(RoutePolicy::RoundRobin)
            .build_sim()
    };

    // Reference: the record-shipping drain path.
    let mut reference = build();
    for spec in jobs.clone() {
        reference.submit(spec).expect("admitted");
    }
    let full = reference.drain().expect("drain");

    // Summary: per-job records never cross a node boundary.
    let mut cluster = build();
    for spec in jobs {
        cluster.submit(spec).expect("admitted");
    }
    let summary: DrainSummary = cluster.drain_summary().expect("summary");

    assert_eq!(summary.jobs, full.jobs.len() as u64);
    assert_eq!(summary.tasks, full.tasks as u64);
    assert_eq!(summary.span, full.span, "same deterministic execution");

    let totals = summary.report.totals();
    let rel = totals.sojourn.relative_error();
    for q in [0.50, 0.90, 0.99] {
        let sketch = totals.sojourn.quantile(q).expect("non-empty sketch");
        let mut sorted: Vec<f64> = full.jobs.iter().map(|j| j.sojourn()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[k - 1];
        assert!(
            (sketch - exact).abs() <= exact * rel + f64::EPSILON,
            "q={q}: sketch {sketch} vs exact {exact} (rel {rel})"
        );
    }

    // The summary extras still flatten the cluster-wide metrics.
    let extras = cluster.take_extras();
    assert_eq!(extras.get("metrics.jobs_completed"), Some(32.0));
    assert_eq!(extras.get("nodes"), Some(4.0));
}
