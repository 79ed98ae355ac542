//! Job streams: continuously arriving DAG jobs.
//!
//! The paper evaluates its schedulers one DAG at a time, but a
//! production deployment serves DAG *jobs arriving continuously* —
//! multiple graphs in flight at once, contending for the same cores and
//! training the same PTT. This module is the backend-neutral vocabulary
//! for that regime; `das-sim` consumes it through arrival events in its
//! heap, `das-runtime` through a persistent worker pool's
//! `submit`/`drain` API, and `das-workloads` generates open-loop arrival
//! streams over it.
//!
//! Time is in seconds on whatever clock the backend uses: simulated time
//! in `das-sim`, wall-clock seconds since pool creation in
//! `das-runtime`. All latency definitions follow queueing convention:
//!
//! * **queueing delay** = `started - arrival`: the job waited for cores;
//! * **makespan** = `completed - started`: the job's own critical path
//!   under whatever contention it experienced;
//! * **sojourn** = `completed - arrival`: what a user of the system
//!   observes end to end — the headline metric of `das-bench`'s
//!   `jobs_throughput` figure.

use std::fmt;

/// Identifier of one job within a stream (dense, in submission order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Service class of a job — lets harnesses slice latency percentiles by
/// traffic class (e.g. interactive vs batch) without the executors
/// interpreting the label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct JobClass(pub u16);

/// One job of a stream: a task graph plus its arrival metadata.
///
/// Generic over the graph representation because the two backends
/// execute different things from the same shape: `das-sim` takes a
/// `das_dag::Dag` (costs come from the cost model), `das-runtime` takes
/// a `das_runtime::TaskGraph` (real closures).
#[derive(Clone, Debug)]
pub struct JobSpec<G> {
    /// The job's task graph.
    pub graph: G,
    /// Arrival time in seconds from stream start. The simulator injects
    /// the job's roots at exactly this simulated time; the runtime
    /// treats it as advisory (the actual arrival is the `submit` call).
    pub arrival: f64,
    /// Optional completion deadline (same clock as `arrival`); purely
    /// observational — schedulers do not act on it, harnesses report
    /// hit/miss.
    pub deadline: Option<f64>,
    /// Traffic class label for reporting.
    pub class: JobClass,
}

impl<G> JobSpec<G> {
    /// A job arriving at time zero with no deadline and default class.
    pub fn new(graph: G) -> Self {
        JobSpec {
            graph,
            arrival: 0.0,
            deadline: None,
            class: JobClass::default(),
        }
    }

    /// Set the arrival time (seconds from stream start).
    ///
    /// # Panics
    /// Panics if `arrival` is negative or non-finite.
    pub fn at(mut self, arrival: f64) -> Self {
        assert!(arrival >= 0.0 && arrival.is_finite(), "bad arrival time");
        self.arrival = arrival;
        self
    }

    /// Set the deadline (absolute, same clock as arrival).
    pub fn deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the traffic class.
    pub fn class(mut self, class: JobClass) -> Self {
        self.class = class;
        self
    }
}

/// Completion record of one job, filled by the executing backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobStats {
    /// The job's id within its stream.
    pub id: JobId,
    /// Traffic class, copied from the spec.
    pub class: JobClass,
    /// When the job arrived (simulated time / seconds since pool epoch).
    pub arrival: f64,
    /// When the job's first task began executing.
    pub started: f64,
    /// When the job's last task committed.
    pub completed: f64,
    /// Number of tasks the job executed.
    pub tasks: usize,
    /// The spec's deadline, if any.
    pub deadline: Option<f64>,
}

impl JobStats {
    /// Time the job spent waiting before any of its tasks ran.
    pub fn queueing(&self) -> f64 {
        (self.started - self.arrival).max(0.0)
    }

    /// First task start to last task commit.
    pub fn makespan(&self) -> f64 {
        (self.completed - self.started).max(0.0)
    }

    /// End-to-end latency a client observes (arrival to completion).
    pub fn sojourn(&self) -> f64 {
        (self.completed - self.arrival).max(0.0)
    }

    /// `Some(true)` if the job had a deadline and met it.
    pub fn deadline_met(&self) -> Option<bool> {
        self.deadline.map(|d| self.completed <= d)
    }
}

/// Aggregate measurements of one executed job stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Per-job records, in job-id order.
    pub jobs: Vec<JobStats>,
    /// First arrival to last completion (seconds).
    pub span: f64,
    /// Total tasks committed across all jobs.
    pub tasks: usize,
}

impl StreamStats {
    /// Build from per-job records (computes span/tasks).
    pub fn from_jobs(mut jobs: Vec<JobStats>) -> Self {
        jobs.sort_by_key(|j| j.id);
        let tasks = jobs.iter().map(|j| j.tasks).sum();
        let t0 = jobs.iter().map(|j| j.arrival).fold(f64::INFINITY, f64::min);
        let t1 = jobs.iter().map(|j| j.completed).fold(0.0f64, f64::max);
        let span = if jobs.is_empty() { 0.0 } else { t1 - t0 };
        StreamStats { jobs, span, tasks }
    }

    /// Completed jobs per second over the stream's span.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.span > 0.0 {
            self.jobs.len() as f64 / self.span
        } else {
            0.0
        }
    }

    /// Committed tasks per second over the stream's span.
    pub fn tasks_per_sec(&self) -> f64 {
        if self.span > 0.0 {
            self.tasks as f64 / self.span
        } else {
            0.0
        }
    }

    /// The `q`-quantile (`0.0..=1.0`, nearest-rank) of per-job sojourn
    /// times. `None` for an empty stream.
    pub fn sojourn_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.jobs.iter().map(JobStats::sojourn), q)
    }

    /// The `q`-quantile of per-job queueing delays.
    pub fn queueing_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.jobs.iter().map(JobStats::queueing), q)
    }

    /// Mean sojourn time, or 0 for an empty stream.
    pub fn mean_sojourn(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(JobStats::sojourn).sum::<f64>() / self.jobs.len() as f64
    }

    /// `(met, total-with-deadline)` deadline accounting.
    pub fn deadlines(&self) -> (usize, usize) {
        let mut met = 0;
        let mut total = 0;
        for j in &self.jobs {
            if let Some(ok) = j.deadline_met() {
                total += 1;
                if ok {
                    met += 1;
                }
            }
        }
        (met, total)
    }
}

/// Nearest-rank percentile of an unsorted sample.
///
/// # Panics
/// Panics unless `0.0 <= q <= 1.0`.
pub fn percentile(values: impl Iterator<Item = f64>, q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival: f64, started: f64, completed: f64) -> JobStats {
        JobStats {
            id: JobId(id),
            class: JobClass::default(),
            arrival,
            started,
            completed,
            tasks: 10,
            deadline: None,
        }
    }

    #[test]
    fn latency_definitions() {
        let j = job(0, 1.0, 1.5, 4.0);
        assert!((j.queueing() - 0.5).abs() < 1e-12);
        assert!((j.makespan() - 2.5).abs() < 1e-12);
        assert!((j.sojourn() - 3.0).abs() < 1e-12);
        assert_eq!(j.deadline_met(), None);
        let d = JobStats {
            deadline: Some(3.9),
            ..j
        };
        assert_eq!(d.deadline_met(), Some(false));
        let d = JobStats {
            deadline: Some(4.0),
            ..j
        };
        assert_eq!(d.deadline_met(), Some(true));
    }

    #[test]
    fn stream_aggregates() {
        let s = StreamStats::from_jobs(vec![
            job(1, 1.0, 1.0, 3.0),
            job(0, 0.0, 0.5, 2.0),
            job(2, 2.0, 2.5, 6.0),
        ]);
        // Sorted by id, span = last completion - first arrival.
        assert_eq!(s.jobs[0].id, JobId(0));
        assert!((s.span - 6.0).abs() < 1e-12);
        assert_eq!(s.tasks, 30);
        assert!((s.jobs_per_sec() - 0.5).abs() < 1e-12);
        assert!((s.tasks_per_sec() - 5.0).abs() < 1e-12);
        // Sojourns: 2.0, 2.0, 4.0.
        assert_eq!(s.sojourn_percentile(0.5), Some(2.0));
        assert_eq!(s.sojourn_percentile(1.0), Some(4.0));
        assert!((s.mean_sojourn() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.deadlines(), (0, 0));
    }

    #[test]
    fn empty_stream() {
        let s = StreamStats::from_jobs(Vec::new());
        assert_eq!(s.jobs_per_sec(), 0.0);
        assert_eq!(s.sojourn_percentile(0.99), None);
        assert_eq!(s.mean_sojourn(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(v.iter().copied(), 0.0), Some(1.0));
        assert_eq!(percentile(v.iter().copied(), 0.5), Some(3.0));
        assert_eq!(percentile(v.iter().copied(), 0.9), Some(5.0));
        assert_eq!(percentile(v.iter().copied(), 1.0), Some(5.0));
    }

    #[test]
    fn spec_builder() {
        let s = JobSpec::new(()).at(2.5).deadline(9.0).class(JobClass(3));
        assert_eq!(s.arrival, 2.5);
        assert_eq!(s.deadline, Some(9.0));
        assert_eq!(s.class, JobClass(3));
    }

    #[test]
    #[should_panic(expected = "bad arrival")]
    fn negative_arrival_rejected() {
        let _ = JobSpec::new(()).at(-1.0);
    }
}
