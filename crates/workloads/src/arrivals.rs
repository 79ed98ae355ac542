//! Open-loop job-arrival generators: seeded, deterministic streams of
//! [`JobSpec`]s over the existing DAG generators.
//!
//! An *open-loop* generator fixes arrival times up front, independent of
//! how fast the system drains them — the regime where queueing delay and
//! sojourn time are meaningful (a closed loop would throttle arrivals to
//! the service rate and hide saturation). Two interarrival processes are
//! provided:
//!
//! * [`StreamConfig::poisson`] — exponential interarrivals at a fixed
//!   rate, the classic M/G/k client model;
//! * [`StreamConfig::bursty`] — a compound process: bursts of
//!   back-to-back jobs separated by exponential gaps, modelling the
//!   batched traffic spikes a production scheduler actually sees.
//!
//! Determinism contract: the same seed and parameters produce the same
//! stream, bit for bit — arrivals, shapes and sizes. Both executors are
//! asserted against this in `tests/job_streams.rs`.

use das_core::jobs::{JobClass, JobSpec};
use das_core::TaskTypeId;
use das_dag::{generators, Dag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Interarrival-time process of an open-loop stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ArrivalProcess {
    /// Exponential interarrivals: `rate` jobs per second on average.
    Poisson {
        /// Mean arrival rate (jobs/second), > 0.
        rate: f64,
    },
    /// Bursts of `burst` jobs arriving back-to-back (spaced by
    /// `intra_gap` seconds), with exponential gaps between bursts such
    /// that the *long-run* rate is `rate` jobs per second.
    Bursty {
        /// Long-run mean arrival rate (jobs/second), > 0.
        rate: f64,
        /// Jobs per burst, >= 1.
        burst: usize,
        /// Spacing between jobs inside one burst (seconds, >= 0).
        intra_gap: f64,
    },
}

impl ArrivalProcess {
    fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0 && rate.is_finite(), "need rate > 0");
            }
            ArrivalProcess::Bursty {
                rate,
                burst,
                intra_gap,
            } => {
                assert!(rate > 0.0 && rate.is_finite(), "need rate > 0");
                assert!(burst >= 1, "need burst >= 1");
                assert!(intra_gap >= 0.0 && intra_gap.is_finite(), "bad intra_gap");
            }
        }
    }

    /// Generate the first `n` arrival times (seconds, non-decreasing).
    pub(crate) fn arrivals(&self, rng: &mut SmallRng, n: usize) -> Vec<f64> {
        self.validate();
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                let mut t = 0.0;
                for _ in 0..n {
                    t += exponential(rng, rate);
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate,
                burst,
                intra_gap,
            } => {
                // Exponential gaps between bursts, sized so the long-run
                // rate still averages `rate` jobs/second: one cycle is
                // gap + (burst-1)*intra_gap long and carries `burst`
                // jobs, so the gap's mean must be the cycle target
                // (burst/rate) minus the burst's own span. Clamped when
                // the intra-gap span alone already exceeds the target
                // (the stream then runs as fast as the spacing allows).
                let span = (burst - 1) as f64 * intra_gap;
                let mean_gap = (burst as f64 / rate - span).max(1e-12);
                let mut t = 0.0;
                while out.len() < n {
                    t += exponential(rng, 1.0 / mean_gap);
                    let mut bt = t;
                    for i in 0..burst {
                        if out.len() >= n {
                            break;
                        }
                        if i > 0 {
                            bt += intra_gap;
                        }
                        out.push(bt);
                    }
                    t = bt.max(t);
                }
            }
        }
        out
    }
}

/// Exponential draw with mean `1/rate` via inverse-CDF over a uniform
/// sample (the vendored `rand` has no distribution types).
fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    // `u` is in [0, 1): `1 - u` is in (0, 1], so `ln` is finite.
    -(1.0 - u).ln() / rate
}

/// What each arriving job computes: a seeded pick from a small family of
/// DAG shapes over one task type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobShape {
    /// The paper's layered synthetic DAG (`parallelism` × `layers`).
    Layered {
        /// Tasks per layer.
        parallelism: usize,
        /// Number of layers.
        layers: usize,
    },
    /// Fork-join phases.
    ForkJoin {
        /// Forked tasks per phase.
        width: usize,
        /// Number of fork-join phases.
        layers: usize,
    },
    /// A mixed stream: each job independently draws one of the above
    /// (uniformly) with its dimensions jittered ±50 %.
    Mixed {
        /// Baseline tasks-per-layer / fork width.
        parallelism: usize,
        /// Baseline depth.
        layers: usize,
    },
}

impl JobShape {
    fn build(&self, ty: TaskTypeId, rng: &mut SmallRng) -> Dag {
        match *self {
            JobShape::Layered {
                parallelism,
                layers,
            } => generators::layered(ty, parallelism, layers),
            JobShape::ForkJoin { width, layers } => generators::fork_join(ty, width, layers),
            JobShape::Mixed {
                parallelism,
                layers,
            } => {
                let jitter = |rng: &mut SmallRng, base: usize| -> usize {
                    let lo = (base / 2).max(1);
                    let hi = (base + base / 2).max(lo + 1);
                    rng.gen_range(lo..=hi)
                };
                let p = jitter(rng, parallelism);
                let l = jitter(rng, layers);
                if rng.gen_bool(0.5) {
                    generators::layered(ty, p, l)
                } else {
                    generators::fork_join(ty, p, l)
                }
            }
        }
    }
}

/// Configuration of one open-loop job stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// RNG seed — same seed, same stream.
    pub(crate) seed: u64,
    /// Number of jobs to generate.
    pub(crate) jobs: usize,
    /// Interarrival process.
    pub(crate) process: ArrivalProcess,
    /// Shape of each job's DAG.
    pub(crate) shape: JobShape,
    /// Optional relative deadline: each job's deadline is
    /// `arrival + slack` seconds.
    pub(crate) slack: Option<f64>,
}

impl StreamConfig {
    /// Poisson stream of `jobs` layered jobs at `rate` jobs/second.
    pub fn poisson(seed: u64, jobs: usize, rate: f64) -> Self {
        StreamConfig {
            seed,
            jobs,
            process: ArrivalProcess::Poisson { rate },
            shape: JobShape::Layered {
                parallelism: 4,
                layers: 8,
            },
            slack: None,
        }
    }

    /// Bursty stream of `jobs` layered jobs at long-run `rate`
    /// jobs/second in bursts of `burst`.
    pub fn bursty(seed: u64, jobs: usize, rate: f64, burst: usize) -> Self {
        StreamConfig {
            process: ArrivalProcess::Bursty {
                rate,
                burst,
                intra_gap: 0.0,
            },
            ..StreamConfig::poisson(seed, jobs, rate)
        }
    }

    /// Set the job shape.
    pub fn shape(mut self, shape: JobShape) -> Self {
        self.shape = shape;
        self
    }

    /// Give every job `slack` seconds of relative deadline.
    pub fn slack(mut self, slack: f64) -> Self {
        self.slack = Some(slack);
        self
    }

    /// Generate the stream. Jobs are in arrival order; [`JobClass`]
    /// records the burst index of a [`StreamConfig::bursty`] stream (0
    /// for Poisson).
    pub fn generate(&self) -> Vec<JobSpec<Dag>> {
        assert!(self.jobs > 0, "empty stream");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let arrivals = self.process.arrivals(&mut rng, self.jobs);
        let burst = match self.process {
            ArrivalProcess::Bursty { burst, .. } => burst,
            ArrivalProcess::Poisson { .. } => 1,
        };
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                // Every stream task is of type 0: one PTT, one cost row.
                let dag = self.shape.build(TaskTypeId(0), &mut rng);
                let mut spec = JobSpec::new(dag)
                    .at(at)
                    .class(JobClass((i / burst.max(1)) as u16));
                if let Some(s) = self.slack {
                    spec = spec.deadline(at + s);
                }
                spec
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        let a = StreamConfig::poisson(42, 50, 10.0).generate();
        let b = StreamConfig::poisson(42, 50, 10.0).generate();
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.graph.len(), y.graph.len());
        }
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].arrival > 0.0);
        }
        // Different seed, different stream.
        let c = StreamConfig::poisson(43, 50, 10.0).generate();
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival));
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let jobs = StreamConfig::poisson(7, 2000, 50.0).generate();
        let span = jobs.last().unwrap().arrival;
        let rate = 2000.0 / span;
        assert!((35.0..=70.0).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn bursty_groups_jobs() {
        let jobs = StreamConfig::bursty(5, 40, 20.0, 4).generate();
        assert_eq!(jobs.len(), 40);
        // Jobs inside one burst share an arrival (intra_gap 0) and class.
        for chunk in jobs.chunks(4) {
            for j in chunk {
                assert_eq!(j.arrival, chunk[0].arrival);
                assert_eq!(j.class, chunk[0].class);
            }
        }
        assert_ne!(jobs[0].class, jobs[4].class);
        assert!(jobs[4].arrival > jobs[3].arrival);
    }

    #[test]
    fn bursty_long_run_rate_holds_with_intra_gap() {
        // Regression: the inter-burst gap must account for the burst's
        // own intra-gap span, or a nonzero intra_gap silently halves
        // the empirical rate.
        let cfg = StreamConfig {
            process: ArrivalProcess::Bursty {
                rate: 100.0,
                burst: 10,
                intra_gap: 0.005,
            },
            ..StreamConfig::poisson(11, 4000, 100.0)
        };
        let jobs = cfg.generate();
        let span = jobs.last().unwrap().arrival;
        let rate = 4000.0 / span;
        assert!((80.0..=125.0).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn shapes_and_deadlines() {
        let jobs = StreamConfig::poisson(9, 12, 5.0)
            .shape(JobShape::Mixed {
                parallelism: 4,
                layers: 6,
            })
            .slack(0.5)
            .generate();
        let mut sizes = std::collections::BTreeSet::new();
        for j in &jobs {
            j.graph.validate().unwrap();
            sizes.insert(j.graph.len());
            let d = j.deadline.unwrap();
            assert!((d - j.arrival - 0.5).abs() < 1e-12);
        }
        assert!(sizes.len() > 1, "mixed stream should vary sizes: {sizes:?}");
    }

    #[test]
    fn fork_join_shape() {
        let jobs = StreamConfig::poisson(3, 2, 1.0)
            .shape(JobShape::ForkJoin {
                width: 3,
                layers: 2,
            })
            .generate();
        for j in &jobs {
            j.graph.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "rate > 0")]
    fn zero_rate_rejected() {
        let _ = StreamConfig::poisson(1, 1, 0.0).generate();
    }
}
