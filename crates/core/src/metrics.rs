//! The observability plane's data model: deterministic mergeable
//! percentile sketches, per-node metric snapshots, and the cluster-wide
//! aggregate report (DESIGN.md § Observability plane).
//!
//! The design constraint that shapes everything here is **bit
//! reproducibility**. The cluster's differential tests pin an all-sim
//! run to be a pure function of the seed, and the observability plane
//! must not weaken that: snapshots fire on *logical* triggers (every N
//! admitted jobs, every drain epoch — never wall-clock), and the
//! percentile sketch is a fixed-boundary log-bucket histogram whose
//! state is pure `u64` counts. Merging two sketches is a bin-wise
//! integer add — exactly associative and commutative — so cross-node
//! aggregation is order-insensitive down to the last bit, which exact
//! nearest-rank percentiles (a sort over every sample) can never be
//! without shipping every sample.
//!
//! The price is resolution: a quantile is reported as the geometric
//! midpoint of the bucket holding the nearest-rank sample, so it is
//! within a factor of `sqrt(growth)` of the exact value
//! ([`LogHistogram::relative_error`]). The property tests in
//! `tests/properties_ext.rs` pin that bound against exact nearest-rank
//! on the same stream.

use std::fmt;

/// A fixed-boundary log-bucket histogram: the mergeable percentile
/// sketch of the observability plane.
///
/// Bucket `i` covers `[lo·growth^i, lo·growth^(i+1))`; values below
/// `lo` (including non-finite values) land in a dedicated underflow
/// bucket, values at or above the top boundary in an overflow bucket.
/// All state is integer counts, so [`LogHistogram::merge`] is an exact
/// bin-wise add: merging node sketches in any order yields the
/// bit-identical histogram, and every derived statistic (computed at
/// query time, in fixed bucket-index order) is f64-identical too.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    /// Lower boundary of bucket 0.
    lo: f64,
    /// Boundary growth factor (`> 1`).
    growth: f64,
    /// Bucket boundaries: `bounds[i] = lo·growth^i`, `buckets + 1` of
    /// them, precomputed by successive multiplication so indexing is a
    /// deterministic binary search over plain comparisons.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// A sketch with `buckets` log-spaced buckets starting at `lo`.
    ///
    /// # Panics
    /// Panics if `lo <= 0`, `growth <= 1`, or `buckets == 0`.
    pub(crate) fn new(lo: f64, growth: f64, buckets: usize) -> Self {
        assert!(lo > 0.0, "lo must be positive");
        assert!(growth > 1.0, "growth must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut b = lo;
        for _ in 0..=buckets {
            bounds.push(b);
            b *= growth;
        }
        LogHistogram {
            lo,
            growth,
            bounds,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// The latency sketch every backend probe uses: 272 buckets of
    /// growth `2^(1/8)` from 1 µs, covering 1 µs .. ~17 000 s of
    /// sojourn/queueing time with a ≤ 4.4 % relative error
    /// ([`LogHistogram::relative_error`]). All probes sharing one
    /// configuration is what makes cross-node merges well-defined.
    pub fn latency() -> Self {
        LogHistogram::new(1e-6, 2f64.powf(0.125), 272)
    }

    /// Record one sample. Non-finite samples and samples below `lo`
    /// count into the underflow bucket; samples at or above the top
    /// boundary into the overflow bucket.
    pub fn record(&mut self, v: f64) {
        // The explicit NaN test (not `!(v >= lo)`) keeps NaN here too.
        if v.is_nan() || v < self.lo {
            self.underflow += 1;
        } else if v >= self.bounds[self.counts.len()] {
            self.overflow += 1;
        } else {
            let i = self.bounds.partition_point(|b| *b <= v) - 1;
            self.counts[i] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Bin-wise add of `other` into `self` — exact, associative and
    /// commutative, so merge order is unobservable.
    ///
    /// # Panics
    /// Panics if the two sketches were built with different boundary
    /// configurations (they would not describe the same buckets).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.lo == other.lo
                && self.growth == other.growth
                && self.counts.len() == other.counts.len(),
            "merging sketches with different boundary configurations"
        );
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
    }

    /// The `q`-quantile (`0.0..=1.0`, nearest-rank): the representative
    /// value of the bucket holding the nearest-rank sample. In-range
    /// buckets report their geometric midpoint; the underflow bucket
    /// reports `lo`, the overflow bucket the top boundary. `None` for
    /// an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Nearest-rank: the k-th smallest sample, k = ceil(q·n), k >= 1.
        let k = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = self.underflow;
        if k <= seen {
            return Some(self.lo);
        }
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if k <= seen {
                return Some((self.bounds[i] * self.bounds[i + 1]).sqrt());
            }
        }
        Some(self.bounds[self.counts.len()])
    }

    /// The documented relative-error bound of [`LogHistogram::quantile`]
    /// for in-range values: a sample in `[b, b·growth)` is reported as
    /// `b·sqrt(growth)`, so `|reported − exact| / exact` never exceeds
    /// `sqrt(growth) − 1`.
    pub fn relative_error(&self) -> f64 {
        self.growth.sqrt() - 1.0
    }
}

/// The metric families every node renders and the dispatcher merges.
///
/// This enum is the observability plane's cross-file contract, checked
/// by the compiler: the dispatcher's merge (`metric_scalar` in
/// `crates/cluster/src/dispatcher.rs`) and the dashboard's display unit
/// (`unit` in `examples/cluster_top.rs`) both match on it without a
/// wildcard, so a metric family added here without extending both
/// fails the build — a stale dashboard or a silently unmerged metric is
/// a compile error, not a latent bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Jobs admitted and not yet retired on the node (gauge).
    QueueDepth,
    /// Jobs accepted by the node's executor since session start.
    JobsAdmitted,
    /// Jobs whose last task committed since session start.
    JobsCompleted,
    /// Tasks committed since session start.
    TasksCompleted,
    /// Successful work steals.
    Steals,
    /// Steal attempts that found no victim.
    FailedSteals,
    /// Discrete engine events processed (simulator backends).
    Events,
    /// Busy core-seconds over available core-seconds (0..=1 gauge).
    Utilization,
    /// PTT convergence residual: the largest absolute entry movement
    /// across the node's trace tables since the previous probe.
    PttResidual,
    /// Median job sojourn time from the mergeable sketch (seconds).
    SojournP50,
    /// 99th-percentile job sojourn time from the sketch (seconds).
    SojournP99,
    /// 99th-percentile queueing delay from the sketch (seconds).
    QueueingP99,
}

impl MetricKind {
    /// Every metric family, in render order.
    pub const ALL: [MetricKind; 12] = [
        MetricKind::QueueDepth,
        MetricKind::JobsAdmitted,
        MetricKind::JobsCompleted,
        MetricKind::TasksCompleted,
        MetricKind::Steals,
        MetricKind::FailedSteals,
        MetricKind::Events,
        MetricKind::Utilization,
        MetricKind::PttResidual,
        MetricKind::SojournP50,
        MetricKind::SojournP99,
        MetricKind::QueueingP99,
    ];

    /// Stable snake_case name: the extras key suffix and dashboard
    /// column label.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::QueueDepth => "queue_depth",
            MetricKind::JobsAdmitted => "jobs_admitted",
            MetricKind::JobsCompleted => "jobs_completed",
            MetricKind::TasksCompleted => "tasks_completed",
            MetricKind::Steals => "steals",
            MetricKind::FailedSteals => "failed_steals",
            MetricKind::Events => "events",
            MetricKind::Utilization => "utilization",
            MetricKind::PttResidual => "ptt_residual",
            MetricKind::SojournP50 => "sojourn_p50",
            MetricKind::SojournP99 => "sojourn_p99",
            MetricKind::QueueingP99 => "queueing_p99",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One backend's **cumulative** observability state, as returned by
/// [`Executor::metrics_probe`](crate::exec::Executor::metrics_probe).
///
/// Everything is cumulative since session start (counters monotone,
/// sketches grow-only), so a snapshot stream is loss-tolerant: the
/// consumer keeps the latest snapshot per node and never needs deltas —
/// a dropped or delayed frame costs staleness, not correctness.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecProbe {
    /// Jobs admitted and not yet retired at probe time (gauge).
    pub queue_depth: u64,
    /// Jobs accepted since session start.
    pub jobs_admitted: u64,
    /// Jobs completed since session start.
    pub jobs_completed: u64,
    /// Tasks committed since session start.
    pub tasks_completed: u64,
    /// Successful steals since session start.
    pub steals: u64,
    /// Failed steal attempts since session start.
    pub failed_steals: u64,
    /// Engine events processed since session start (simulator).
    pub events: u64,
    /// Busy core-seconds accumulated since session start.
    pub busy: f64,
    /// Available core-seconds (cores × executed span) since start.
    pub capacity: f64,
    /// Largest absolute PTT entry movement since the previous probe.
    pub ptt_residual: f64,
    /// Per-job sojourn times (arrival → completion), mergeable sketch.
    pub sojourn: LogHistogram,
    /// Per-job queueing delays (arrival → first execution), sketch.
    pub queueing: LogHistogram,
}

impl Default for ExecProbe {
    fn default() -> Self {
        ExecProbe {
            queue_depth: 0,
            jobs_admitted: 0,
            jobs_completed: 0,
            tasks_completed: 0,
            steals: 0,
            failed_steals: 0,
            events: 0,
            busy: 0.0,
            capacity: 0.0,
            ptt_residual: 0.0,
            sojourn: LogHistogram::latency(),
            queueing: LogHistogram::latency(),
        }
    }
}

impl ExecProbe {
    /// Busy fraction of the available core-seconds (0 when nothing has
    /// executed yet).
    pub fn utilization(&self) -> f64 {
        if self.capacity > 0.0 {
            self.busy / self.capacity
        } else {
            0.0
        }
    }

    /// Fold `other` into `self` for cluster-wide totals: counters and
    /// core-seconds add, sketches merge bin-wise, the queue-depth gauge
    /// sums and the residual takes the worst (largest) node. Callers
    /// fold in fixed node-index order so the f64 sums are reproducible;
    /// the sketches are order-insensitive regardless.
    pub fn absorb(&mut self, other: &ExecProbe) {
        self.queue_depth += other.queue_depth;
        self.jobs_admitted += other.jobs_admitted;
        self.jobs_completed += other.jobs_completed;
        self.tasks_completed += other.tasks_completed;
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.events += other.events;
        self.busy += other.busy;
        self.capacity += other.capacity;
        self.ptt_residual = self.ptt_residual.max(other.ptt_residual);
        self.sojourn.merge(&other.sojourn);
        self.queueing.merge(&other.queueing);
    }
}

/// One node's periodic metrics frame: the cumulative probe plus the
/// node id and a per-node sequence number (monotone, so the consumer
/// can tell fresh from replayed-delayed frames).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// Cluster slot index of the reporting node.
    pub node: u64,
    /// Snapshot sequence number on this node, starting at 1.
    pub seq: u64,
    /// The node executor's cumulative observability state.
    pub probe: ExecProbe,
}

/// The cluster-wide aggregate the dispatcher assembles from the latest
/// snapshot of every node — the typed API behind the scalar
/// `metrics.*` extras on [`ExecReport`](crate::exec::ExecReport).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Latest snapshot per node, ascending node index.
    pub nodes: Vec<NodeSnapshot>,
}

impl MetricsReport {
    /// Cluster-wide totals: every node's probe folded in ascending
    /// node-index order ([`ExecProbe::absorb`]). The sketches inside
    /// are bin-wise merges, so they are identical for *any* fold order.
    pub fn totals(&self) -> ExecProbe {
        let mut t = ExecProbe::default();
        for s in &self.nodes {
            t.absorb(&s.probe);
        }
        t
    }
}

/// Opt-in observability configuration
/// ([`SessionBuilder::metrics`](crate::exec::SessionBuilder::metrics)).
///
/// Snapshot cadence is **logical**: a node emits a fresh snapshot after
/// every `snapshot_every` admitted jobs and at every drain epoch. No
/// wall-clock is read anywhere on the metrics path, so an all-sim
/// cluster run with metrics enabled stays a pure function of the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricsConfig {
    /// Emit a snapshot after this many admitted jobs (and always at
    /// drain). Default 32.
    pub snapshot_every: u64,
    /// Also record execution trace spans for the unified multi-node
    /// chrome trace. Default off (spans cost memory proportional to
    /// tasks executed).
    pub trace: bool,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            snapshot_every: 32,
            trace: false,
        }
    }
}

impl MetricsConfig {
    /// Set the snapshot cadence (admitted jobs per snapshot, min 1).
    pub fn every(mut self, jobs: u64) -> Self {
        self.snapshot_every = jobs.max(1);
        self
    }

    /// Enable trace-span recording for the unified chrome trace.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One executed task interval in backend-neutral numeric form — the
/// unit the cluster pulls from node executors to assemble the unified
/// multi-node chrome trace (`das-sim` renders these with pid = node,
/// tid = core).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSpan {
    /// Executing (leader) core index on the node.
    pub core: usize,
    /// Span start, seconds on the node's session clock.
    pub start: f64,
    /// Span end, seconds on the node's session clock.
    pub end: f64,
    /// Task index in the node's merged task space.
    pub task: u64,
    /// Task type id.
    pub ty: u16,
    /// Execution place: leader core of the assembly.
    pub leader: usize,
    /// Execution place: moldable width.
    pub width: usize,
    /// App-defined grouping tag.
    pub tag: u64,
}

impl TraceSpan {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_the_range() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        // Buckets: [1,2) [2,4) [4,8) [8,16); below 1 under, >= 16 over.
        for v in [0.5, 1.0, 1.999, 2.0, 7.999, 8.0, 15.999, 16.0, 1e9] {
            h.record(v);
        }
        assert_eq!(h.underflow, 1);
        assert_eq!(h.counts, vec![2, 1, 1, 2]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn nan_and_negative_land_in_underflow() {
        let mut h = LogHistogram::new(1e-6, 2.0, 8);
        h.record(f64::NAN);
        h.record(-3.0);
        h.record(0.0);
        assert_eq!(h.underflow, 3);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_is_nearest_rank_bucket_representative() {
        let mut h = LogHistogram::new(1.0, 4.0, 3);
        // 3 samples in bucket 0 ([1,4)), 1 in bucket 2 ([16,64)).
        for v in [1.5, 2.0, 3.0, 20.0] {
            h.record(v);
        }
        // p50 → rank 2 → bucket 0 → geometric midpoint 2.0.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // p99 → rank 4 → bucket 2 → sqrt(16·64) = 32.
        assert_eq!(h.quantile(0.99), Some(32.0));
        assert_eq!(LogHistogram::latency().quantile(0.5), None);
    }

    #[test]
    fn quantile_extremes_use_sentinel_representatives() {
        let mut h = LogHistogram::new(1.0, 2.0, 2);
        h.record(0.1);
        h.record(100.0);
        assert_eq!(h.quantile(0.0), Some(1.0), "underflow reports lo");
        assert_eq!(
            h.quantile(1.0),
            Some(4.0),
            "overflow reports the top boundary"
        );
    }

    #[test]
    fn merge_is_exact_and_order_insensitive() {
        let mk = |vals: &[f64]| {
            let mut h = LogHistogram::latency();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let parts = [
            mk(&[1e-3, 2e-3, 5e-1]),
            mk(&[4e-5, 0.0, 3e3]),
            mk(&[7.0, 7.0, 7.0, 2e9]),
        ];
        let mut fwd = LogHistogram::latency();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = LogHistogram::latency();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev, "bin-wise adds commute exactly");
        assert_eq!(fwd.quantile(0.5), rev.quantile(0.5));
        assert_eq!(fwd.count(), 10);
    }

    #[test]
    #[should_panic(expected = "different boundary configurations")]
    fn merging_mismatched_configs_panics() {
        let mut a = LogHistogram::new(1.0, 2.0, 4);
        a.merge(&LogHistogram::new(1.0, 2.0, 5));
    }

    #[test]
    fn quantile_error_stays_within_documented_bound() {
        let mut h = LogHistogram::latency();
        let mut exact: Vec<f64> = (1..=1000).map(|i| 1e-4 * i as f64).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let err = h.relative_error();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * 1000f64).ceil() as usize).clamp(1, 1000);
            let truth = exact[rank - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                (est - truth).abs() <= err * truth + f64::EPSILON,
                "q={q}: |{est} - {truth}| > {err} rel"
            );
        }
    }

    #[test]
    fn report_totals_fold_counters_and_sketches() {
        let mut a = ExecProbe {
            jobs_completed: 10,
            queue_depth: 2,
            ptt_residual: 0.5,
            ..ExecProbe::default()
        };
        a.sojourn.record(1e-3);
        let mut b = ExecProbe {
            jobs_completed: 5,
            queue_depth: 1,
            ptt_residual: 0.75,
            ..ExecProbe::default()
        };
        b.sojourn.record(1e-1);
        let report = MetricsReport {
            nodes: vec![
                NodeSnapshot {
                    node: 0,
                    seq: 1,
                    probe: a,
                },
                NodeSnapshot {
                    node: 1,
                    seq: 4,
                    probe: b,
                },
            ],
        };
        let t = report.totals();
        assert_eq!(t.jobs_completed, 15);
        assert_eq!(t.queue_depth, 3);
        assert_eq!(t.ptt_residual, 0.75, "residual is the worst node");
        assert_eq!(t.sojourn.count(), 2);
    }

    #[test]
    fn metric_kind_names_are_unique_and_total() {
        let mut names: Vec<&str> = MetricKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricKind::ALL.len());
        assert_eq!(format!("{}", MetricKind::QueueDepth), "queue_depth");
    }

    #[test]
    fn config_defaults_and_builders() {
        let c = MetricsConfig::default();
        assert_eq!(c.snapshot_every, 32);
        assert!(!c.trace);
        let c = MetricsConfig::default().every(0).with_trace();
        assert_eq!(c.snapshot_every, 1, "cadence floors at 1");
        assert!(c.trace);
    }
}
