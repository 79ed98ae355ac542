//! Running one workload: repetitions on fresh executors, the oracle
//! bookkeeping, and the aggregation of repetitions into the metrics the
//! benchmark reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::{self, Host};
use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

/// Default workload seed (the paper's venue and year).
pub const DEFAULT_SEED: u64 = 0x1c99_2020;

/// Fewest timed repetitions a throughput median is taken over.
pub const MIN_REPS: usize = 5;

/// What every workload is built from.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub host: Host,
    pub seed: u64,
    /// Smoke sizes: every code path and oracle, a fraction of the work.
    pub quick: bool,
}

impl Cfg {
    /// `full` at benchmark size, a small fraction of it (at least
    /// `floor`) under `--quick`.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Seconds to build topology and executor, generate the inputs and
    /// start the threads.
    pub setup_s: f64,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    pub tasks: u64,
    pub jobs: u64,
    /// First arrival to last completion on the executor's clock.
    pub makespan_s: f64,
    /// Operations the oracle counted, and how many of them failed, were
    /// refused or lost.
    pub attempted: u64,
    pub failed: u64,
    /// One line per oracle finding; any line fails the run.
    pub failures: Vec<String>,
    /// Per-operation samples pooled over repetitions for percentiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-repetition values other than the common ones above.
    pub scalars: BTreeMap<&'static str, f64>,
    /// Outputs that must be bit-identical across repetitions.
    pub fingerprint: Option<[u64; 3]>,
}

impl RepOut {
    /// Record an oracle finding that covers `lost` operations.
    pub fn fail(&mut self, lost: u64, what: String) {
        self.failed += lost.max(1);
        self.failures.push(what);
    }

    /// Oracle: `got` operations completed of `want`.
    pub fn expect_count(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(
                want.abs_diff(got),
                format!("{what}: {got}, expected {want}"),
            );
        }
    }
}

/// One of the six workloads, built for a [`Cfg`].
pub trait Workload {
    /// Final sizes, for the report.
    fn sizes(&self) -> Vec<(&'static str, u64)>;

    /// One repetition on a fresh executor, oracle included.
    fn rep(&mut self, tr: &mut Tracer) -> RepOut;

    /// Values measured once per run rather than per repetition (the
    /// sequential references of `app_kernels`).
    fn run_scalars(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A measured value with its unit and, for percentiles, sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Value {
    pub fn new(value: f64, unit: &'static str) -> Value {
        Value {
            value,
            unit,
            samples: None,
        }
    }

    pub fn json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let Some(n) = self.samples {
            pairs.push(("samples", Json::Num(n as f64)));
        }
        Json::obj(pairs)
    }
}

pub type Metrics = BTreeMap<String, Value>;

/// The repetitions of one workload and what they add up to.
#[derive(Debug, Default)]
pub struct RunOut {
    pub warmup_s: f64,
    pub reps: Vec<RepOut>,
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl RunOut {
    fn absorb_oracle(&mut self, rep: &RepOut) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.failures.extend(rep.failures.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Median over repetitions of `f`.
    pub fn median_of(&self, f: impl Fn(&RepOut) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    }

    /// All samples of `key`, pooled over the timed repetitions.
    pub fn pooled(&self, key: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|r| r.samples.get(key))
            .flatten()
            .copied()
            .collect()
    }

    /// Median over the repetitions that report scalar `key`.
    pub fn scalar_median(&self, key: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.scalars.get(key).copied())
            .collect();
        stats::median(&v)
    }

    /// Sum over repetitions of scalar `key`.
    pub fn scalar_sum(&self, key: &str) -> f64 {
        self.reps.iter().filter_map(|r| r.scalars.get(key)).sum()
    }
}

/// How long to keep repeating.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// At least [`MIN_REPS`] repetitions, and more until this much wall
    /// time has gone into set-up plus timed regions.
    Seconds(f64),
    /// Exactly this many timed repetitions.
    Reps(usize),
}

/// Run `w`: one untimed warm-up repetition, then timed repetitions on
/// fresh executors until `budget` is spent. `each` is called before
/// every timed repetition with its index (the traced run uses it to
/// switch tracing on for alternate repetitions).
pub fn run_reps(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    budget: Budget,
    mut each: impl FnMut(usize, &mut Tracer),
) -> RunOut {
    let mut out = RunOut::default();
    tr.set_rep(-1);
    let t = Instant::now();
    let warm = w.rep(tr);
    out.warmup_s = t.elapsed().as_secs_f64();
    out.setups.push(warm.setup_s);
    out.absorb_oracle(&warm);
    let fingerprint = warm.fingerprint;

    let start = Instant::now();
    for i in 0.. {
        let done = match budget {
            Budget::Reps(n) => i >= n,
            Budget::Seconds(s) => i >= MIN_REPS && start.elapsed() >= Duration::from_secs_f64(s),
        };
        // A failed oracle ends the run at once: its numbers are void.
        if done || !out.correct() {
            break;
        }
        tr.set_rep(i as i32);
        each(i, tr);
        let rep = w.rep(tr);
        out.setups.push(rep.setup_s);
        out.absorb_oracle(&rep);
        if rep.fingerprint != fingerprint {
            out.failed += 1;
            out.failures.push(format!(
                "repetition {i} is not bit-identical to the warm-up: {:?} vs {:?}",
                rep.fingerprint, fingerprint
            ));
        }
        out.reps.push(rep);
    }
    out
}

/// The end-to-end metrics of `workload` from its repetitions, with the
/// units of the spec tables.
pub fn end_to_end_metrics(workload: &str, run: &RunOut) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, samples: Option<usize>| {
        let unit = spec::unit_of(name);
        m.insert(
            name.to_string(),
            Value {
                value,
                unit,
                samples,
            },
        );
    };
    put(
        "setup_s",
        stats::median(&run.setups).unwrap_or(f64::NAN),
        None,
    );
    put(
        "tasks_per_s",
        run.median_of(|r| r.tasks as f64 / r.wall_s),
        None,
    );
    put(
        "jobs_per_s",
        run.median_of(|r| r.jobs as f64 / r.wall_s),
        None,
    );
    put("time_to_solution_s", run.median_of(|r| r.wall_s), None);
    put("makespan_s", run.median_of(|r| r.makespan_s), None);
    put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), None);
    put(
        "failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
        None,
    );
    let percentiles: &[(&str, &str, f64)] = match workload {
        "rt_chain" => &[
            ("job_latency_p50_us", "job_latency_us", 0.5),
            ("job_latency_p99_us", "job_latency_us", 0.99),
        ],
        "cluster_stream" | "cluster_failover" => &[("sim_sojourn_p99_s", "sim_sojourn_s", 0.99)],
        _ => &[],
    };
    for &(name, key, q) in percentiles {
        let pool = run.pooled(key);
        // Too few samples for the percentile: the metric is left out
        // (and `--compare` reports the gap) rather than mislabelled.
        if let Some(v) = stats::percentile(&pool, q) {
            put(name, v, Some(pool.len()));
        }
    }
    if workload == "app_kernels" {
        let err = run
            .reps
            .iter()
            .filter_map(|r| r.scalars.get("result_err"))
            .fold(0.0f64, |a, &b| a.max(b));
        put("result_err", err, None);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose repetitions are scripted.
    struct Scripted {
        calls: usize,
        /// Repetition (counting the warm-up as 0) that misbehaves.
        bad: usize,
        lose_jobs: bool,
    }

    impl Workload for Scripted {
        fn sizes(&self) -> Vec<(&'static str, u64)> {
            Vec::new()
        }

        fn rep(&mut self, _: &mut Tracer) -> RepOut {
            let bad = self.calls == self.bad;
            self.calls += 1;
            let mut out = RepOut {
                setup_s: 0.5,
                wall_s: 2.0,
                tasks: 100,
                jobs: 10,
                makespan_s: 1.5,
                attempted: 10,
                fingerprint: Some([1, 2, if bad && !self.lose_jobs { 4 } else { 3 }]),
                ..RepOut::default()
            };
            out.samples.insert("job_latency_us", vec![10.0; 400]);
            if bad && self.lose_jobs {
                out.expect_count("drained jobs", 7, 10);
            }
            out
        }
    }

    #[test]
    fn clean_repetitions_aggregate_into_medians() {
        let mut w = Scripted {
            calls: 0,
            bad: usize::MAX,
            lose_jobs: false,
        };
        let mut order = Vec::new();
        let out = run_reps(&mut w, &mut Tracer::off(), Budget::Reps(3), |i, _| {
            order.push(i)
        });
        assert!(out.correct());
        assert_eq!(
            (out.reps.len(), out.setups.len(), order),
            (3, 4, vec![0, 1, 2])
        );
        assert_eq!(out.attempted, 40);
        let m = end_to_end_metrics("rt_chain", &out);
        assert_eq!(m["tasks_per_s"].value, 50.0);
        assert_eq!(m["jobs_per_s"].value, 5.0);
        assert_eq!(m["time_to_solution_s"].value, 2.0);
        assert_eq!(m["makespan_s"].value, 1.5);
        assert_eq!(m["setup_s"].value, 0.5);
        assert_eq!(m["failed_share"].value, 0.0);
        // 1 200 pooled samples carry a p99; a p50 needs only one.
        assert_eq!(m["job_latency_p99_us"].samples, Some(1200));
        assert!(m.contains_key("job_latency_p50_us"));
        // Two repetitions pool 800 samples: too few for a p99.
        let mut w = Scripted {
            calls: 0,
            bad: usize::MAX,
            lose_jobs: false,
        };
        let out = run_reps(&mut w, &mut Tracer::off(), Budget::Reps(2), |_, _| {});
        let m = end_to_end_metrics("rt_chain", &out);
        assert!(!m.contains_key("job_latency_p99_us") && m.contains_key("job_latency_p50_us"));
    }

    #[test]
    fn a_time_budget_still_runs_the_minimum_repetitions() {
        let mut w = Scripted {
            calls: 0,
            bad: usize::MAX,
            lose_jobs: false,
        };
        let out = run_reps(&mut w, &mut Tracer::off(), Budget::Seconds(0.0), |_, _| {});
        assert_eq!(out.reps.len(), MIN_REPS);
    }

    #[test]
    fn lost_jobs_count_into_the_failure_share_and_end_the_run() {
        let mut w = Scripted {
            calls: 0,
            bad: 2,
            lose_jobs: true,
        };
        let out = run_reps(&mut w, &mut Tracer::off(), Budget::Reps(5), |_, _| {});
        assert!(!out.correct());
        assert_eq!((out.reps.len(), out.failed, out.attempted), (2, 3, 30));
        assert!(out.failures[0].contains("drained jobs: 7, expected 10"));
        let m = end_to_end_metrics("rt_fanout", &out);
        assert_eq!(m["failed_share"].value, 0.1);
    }

    #[test]
    fn a_repetition_that_differs_bit_for_bit_fails_the_run() {
        let mut w = Scripted {
            calls: 0,
            bad: 1,
            lose_jobs: false,
        };
        let out = run_reps(&mut w, &mut Tracer::off(), Budget::Reps(5), |_, _| {});
        assert!(!out.correct());
        assert_eq!(out.reps.len(), 1);
        assert!(
            out.failures[0].contains("not bit-identical"),
            "{:?}",
            out.failures
        );
    }
}
