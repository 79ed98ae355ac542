//! `cluster_stream` and `cluster_failover`: the cluster tier on its
//! clean batch path and on its failure path, plus the tier ladder that
//! prices each tier of the clean path against the one below it.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use das::cluster::{Cluster, ClusterBuilder, RoutePolicy};
use das::core::jobs::{JobSpec, JobStats, StreamStats};
use das::core::{FaultSchedule, Ingress, MetricsConfig, Policy};
use das::dag::Dag;
use das::exec::{Executor, SessionBuilder};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};

use crate::run::{Cfg, RepOut, Workload};
use crate::stats;
use crate::trace::{Tracer, NO_JOB, NO_SPAN};

const NODES: usize = 4;

/// Arrival rate of the Poisson stream, in simulated jobs per second.
const RATE_HZ: f64 = 200.0;

const SHAPE: JobShape = JobShape::Mixed {
    parallelism: 4,
    layers: 6,
};

/// The seeded job stream both cluster workloads offer.
pub fn stream(seed: u64, jobs: usize) -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(seed, jobs, RATE_HZ)
        .shape(SHAPE)
        .generate()
}

/// One 64-core node's session, with the metrics plane on when
/// `metrics` is set.
fn node_session(seed: u64, metrics: Option<MetricsConfig>) -> SessionBuilder {
    let base = SessionBuilder::new(Arc::new(Topology::grid(1, 8, 8)), Policy::DamC).seed(seed);
    match metrics {
        Some(cfg) => base.metrics(cfg),
        None => base,
    }
}

fn build_cluster(
    base: SessionBuilder,
    nodes: usize,
    route: RoutePolicy,
    seed: u64,
) -> Cluster<Dag> {
    ClusterBuilder::new(base, nodes)
        .route(route)
        .route_seed(seed)
        .build_sim()
}

/// Fill the common fields of a repetition from a drained stream and
/// check that everything offered completed.
fn account(out: &mut RepOut, offered: usize, drained: Result<StreamStats, String>) {
    out.attempted = offered as u64;
    match drained {
        Ok(st) => {
            out.jobs = st.jobs.len() as u64;
            out.tasks = st.tasks as u64;
            out.makespan_s = st.span;
            out.samples.insert(
                "sim_sojourn_s",
                st.jobs.iter().map(JobStats::sojourn).collect(),
            );
            out.expect_count("completed jobs", out.jobs, offered as u64);
        }
        Err(e) => out.fail(offered as u64, format!("drain failed: {e}")),
    }
}

pub struct ClusterStream {
    cfg: Cfg,
    jobs: usize,
}

impl ClusterStream {
    pub fn new(cfg: Cfg) -> ClusterStream {
        ClusterStream {
            cfg,
            // The quick floor keeps five repetitions above the 1 000
            // samples a p99 of the submit calls needs.
            jobs: cfg.size(2_000, 250),
        }
    }
}

impl Workload for ClusterStream {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs_per_rep", self.jobs as u64),
            ("nodes", NODES as u64),
            ("cores_per_node", 64),
            ("lanes", self.cfg.host.lanes as u64),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        self.rep_with(tr, None)
    }
}

impl ClusterStream {
    /// One repetition, with the metrics plane on when `metrics` is set
    /// (the tier ladder prices it; the workload itself runs with it
    /// off).
    fn rep_with(&self, tr: &mut Tracer, metrics: Option<MetricsConfig>) -> RepOut {
        let lanes = self.cfg.host.lanes;
        let seed = self.cfg.seed;
        let t = Instant::now();
        let root = tr.begin("setup", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let s = tr.begin("workloads.arrivals", parent, NO_JOB);
        let jobs = stream(seed, self.jobs);
        tr.end(s);
        let s = tr.begin("cluster.build", parent, NO_JOB);
        let base = node_session(seed, metrics);
        let cluster = build_cluster(base, NODES, RoutePolicy::PowerOfTwo, seed);
        tr.end(s);
        let s = tr.begin("ingress.build", parent, NO_JOB);
        let ing = Ingress::with_config(cluster, lanes, None, seed);
        // Lane k offers jobs k, k + L, …: arrival order within a lane.
        let mut per_lane: Vec<Vec<(u32, JobSpec<Dag>)>> = (0..lanes).map(|_| Vec::new()).collect();
        for (j, spec) in jobs.into_iter().enumerate() {
            per_lane[j % lanes].push((j as u32, spec));
        }
        tr.end(s);
        tr.end(root);
        let mut out = RepOut {
            setup_s: t.elapsed().as_secs_f64(),
            ..RepOut::default()
        };

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        // All lanes start together, and the clock starts with them.
        let barrier = Barrier::new(lanes + 1);
        let mut t0 = Instant::now();
        let lane_results: Vec<(Vec<f64>, Vec<String>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_lane
                .into_iter()
                .enumerate()
                .map(|(lane, specs)| {
                    let (ing, barrier) = (&ing, &barrier);
                    let mut ltr = tr.fork(lane as u32 + 1, specs.len());
                    scope.spawn(move || {
                        let mut submit_us = Vec::with_capacity(specs.len());
                        let mut errors = Vec::new();
                        barrier.wait();
                        for (j, spec) in specs {
                            let t = Instant::now();
                            let s = ltr.begin("ingress.submit", parent, j);
                            let r = ing.submit(lane as u64, spec);
                            ltr.end(s);
                            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                            if let Err(e) = r {
                                errors.push(format!("ingress refused job {j}: {e}"));
                            }
                        }
                        (submit_us, errors, ltr)
                    })
                })
                .collect();
            barrier.wait();
            t0 = Instant::now();
            handles
                .into_iter()
                .map(|h| h.join().expect("a lane thread panicked"))
                .collect()
        });
        let s = tr.begin("ingress.drain", parent, NO_JOB);
        let drained = ing.drain();
        tr.end(s);
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);

        let mut submit_us = Vec::with_capacity(self.jobs);
        for (us, errors, ltr) in lane_results {
            submit_us.extend(us);
            for e in errors {
                out.fail(1, e);
            }
            tr.absorb(ltr);
        }
        out.samples.insert("submit_us", submit_us);
        account(&mut out, self.jobs, drained.map_err(|e| e.to_string()));
        out
    }
}

pub struct ClusterFailover {
    cfg: Cfg,
    jobs: usize,
}

impl ClusterFailover {
    pub fn new(cfg: Cfg) -> ClusterFailover {
        ClusterFailover {
            cfg,
            jobs: cfg.size(1_600, 250),
        }
    }
}

impl Workload for ClusterFailover {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs_per_rep", self.jobs as u64),
            ("nodes", NODES as u64),
            ("cores_per_node", 64),
            ("kill_node3_after_admitted", self.kill_after()),
            ("add_node_at_job", self.add_at() as u64),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let seed = self.cfg.seed;
        let t = Instant::now();
        let root = tr.begin("setup", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let s = tr.begin("workloads.arrivals", parent, NO_JOB);
        let jobs = stream(seed, self.jobs);
        tr.end(s);
        let s = tr.begin("cluster.build", parent, NO_JOB);
        let base = node_session(seed, None)
            .fault_schedule(FaultSchedule::new(seed).kill(3, self.kill_after()));
        let mut cluster = build_cluster(base.clone(), NODES, RoutePolicy::RoundRobin, seed);
        tr.end(s);
        tr.end(root);
        let mut out = RepOut {
            setup_s: t.elapsed().as_secs_f64(),
            ..RepOut::default()
        };
        let mut submit_us = Vec::with_capacity(self.jobs);

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let t0 = Instant::now();
        for (j, spec) in jobs.into_iter().enumerate() {
            if j == self.add_at() {
                let t = Instant::now();
                let s = tr.begin("cluster.add_node", parent, NO_JOB);
                cluster.add_node(&base);
                tr.end(s);
                out.scalars
                    .insert("add_node_ms", t.elapsed().as_secs_f64() * 1e3);
            }
            let t = Instant::now();
            let s = tr.begin("cluster.submit", parent, j as u32);
            let r = Executor::submit(&mut cluster, spec);
            tr.end(s);
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = r {
                out.fail(1, format!("cluster refused job {j}: {e}"));
            }
        }
        let t = Instant::now();
        let s = tr.begin("cluster.remove_node", parent, NO_JOB);
        let removed = cluster.remove_node(0);
        tr.end(s);
        out.scalars
            .insert("remove_node_ms", t.elapsed().as_secs_f64() * 1e3);
        let s = tr.begin("cluster.drain", parent, NO_JOB);
        let drained = cluster.drain();
        tr.end(s);
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);

        // The submit that absorbs node 3's death pays for detection,
        // requeue and its own re-placement: the worst one is the stall.
        let worst = submit_us.iter().copied().fold(0.0, f64::max);
        out.scalars.insert("recovery_stall_ms", worst / 1e3);
        out.samples.insert("submit_us", submit_us);
        account(&mut out, self.jobs, drained.map_err(|e| e.to_string()));
        if let Err(e) = removed {
            out.fail(1, format!("remove_node(0) failed: {e}"));
        }
        if cluster.is_alive(3) {
            out.fail(
                1,
                "node 3 is still alive: the scheduled kill did not fire".into(),
            );
        }
        // Four nodes, one killed, one added, one removed.
        out.expect_count("live nodes", cluster.live_nodes() as u64, NODES as u64 - 1);
        // Recovery counters are read when the executor exposes them
        // and left out when it does not: their names are not API.
        let extras = cluster.take_extras();
        for (scalar, key) in [("jobs_requeued", "jobs_requeued"), ("retries", "retries")] {
            if let Some(v) = extras.get(key) {
                out.scalars.insert(scalar, v);
            }
        }
        out
    }
}

impl ClusterFailover {
    /// Node 3 dies at the admission after half of its round-robin
    /// share of the stream.
    fn kill_after(&self) -> u64 {
        (self.jobs / NODES / 2).max(1) as u64
    }

    /// A node joins before this job, three quarters into the stream.
    fn add_at(&self) -> usize {
        self.jobs * 3 / 4
    }
}

/// What one rung of the tier ladder measured.
#[derive(Clone, Debug, Default)]
struct Rung {
    build_s: f64,
    submit_s: f64,
    drain_s: f64,
    frames: u64,
    records: Vec<JobStats>,
}

impl Rung {
    fn total_s(&self) -> f64 {
        self.submit_s + self.drain_s
    }
}

/// Median by total time of the rungs run.
fn median_rung(mut rungs: Vec<Rung>) -> Rung {
    rungs.sort_by(|a, b| a.total_s().total_cmp(&b.total_s()));
    rungs.swap_remove(rungs.len() / 2)
}

/// The tier ladder: the `cluster_stream` jobs through a bare
/// simulator, a 1-node cluster, a 4-node cluster by direct
/// `submit_many`, the workload itself (the same cluster behind the
/// ingress) and the workload with the metrics plane on — each rung
/// `rounds` times, the median kept. Returns per-layer values by name
/// and the oracle's findings.
pub fn tier_ladder(
    cfg: &Cfg,
    tr: &mut Tracer,
    rounds: usize,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let workload = ClusterStream::new(*cfg);
    let specs = stream(cfg.seed, workload.jobs);
    let on = MetricsConfig::default().every(8);
    let root = tr.begin("ladder", NO_SPAN, NO_JOB);
    let parent = tr.id(&root);
    let mut failures = Vec::new();

    let (mut bare, mut one, mut four) = (Vec::new(), Vec::new(), Vec::new());
    let (mut summary_s, mut ingress_s, mut metered_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        bare.push(run_bare(tr, parent, cfg.seed, specs.clone(), &mut failures));
        one.push(run_direct(
            tr,
            parent,
            cfg.seed,
            1,
            None,
            specs.clone(),
            &mut failures,
        ));
        four.push(run_direct(
            tr,
            parent,
            cfg.seed,
            NODES,
            None,
            specs.clone(),
            &mut failures,
        ));
        let summarised = run_direct(
            tr,
            parent,
            cfg.seed,
            NODES,
            Some(on),
            specs.clone(),
            &mut failures,
        );
        summary_s.push(summarised.drain_s);
        for (metrics, walls) in [(None, &mut ingress_s), (Some(on), &mut metered_s)] {
            let rep = workload.rep_with(tr, metrics);
            walls.push(rep.wall_s);
            failures.extend(rep.failures);
        }
    }
    tr.end(root);

    let (bare, one, four) = (median_rung(bare), median_rung(one), median_rung(four));
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let (ingress_s, metered_s) = (median(&ingress_s), median(&metered_s));
    // The pin the repo's own tests hold: one node behind the cluster
    // tier executes exactly what the bare simulator executes.
    if one.records != bare.records {
        failures.push(
            "tier ladder: the 1-node cluster's job records differ from the bare simulator's".into(),
        );
    }
    let n = specs.len() as f64;
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let values = vec![
        ("sim.bare_stream_jobs_per_s", n / bare.total_s()),
        ("sim.submit_ns_per_job", bare.submit_s * 1e9 / n),
        ("sim.drain_s", bare.drain_s),
        ("cluster.build_ms", four.build_s * 1e3),
        ("cluster.submit_ns_per_job", four.submit_s * 1e9 / n),
        ("cluster.drain_s", four.drain_s),
        ("cluster.drain_summary_s", median(&summary_s)),
        ("cluster.wire_frames_per_job", four.frames as f64 / n),
        (
            "cluster.one_node_tax_pct",
            pct(one.total_s(), bare.total_s()),
        ),
        ("cluster.four_node_speedup", one.total_s() / four.total_s()),
        ("ingress.tax_pct", pct(ingress_s, four.total_s())),
        ("metrics.on_tax_pct", pct(metered_s, ingress_s)),
    ];
    (values, failures)
}

fn check_rung(what: &str, completed: usize, offered: usize, failures: &mut Vec<String>) {
    if completed != offered {
        failures.push(format!(
            "tier ladder, {what}: {completed} jobs completed of {offered}"
        ));
    }
}

fn run_bare(
    tr: &mut Tracer,
    parent: u32,
    seed: u64,
    specs: Vec<JobSpec<Dag>>,
    failures: &mut Vec<String>,
) -> Rung {
    let n = specs.len();
    let t = Instant::now();
    let s = tr.begin("sim.build", parent, NO_JOB);
    let mut sim = Simulator::from_session(&node_session(seed, None));
    tr.end(s);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let s = tr.begin("sim.submit", parent, NO_JOB);
    for spec in specs {
        // A refused job shows as a shortfall in the count below.
        Executor::submit(&mut sim, spec).ok();
    }
    tr.end(s);
    let submit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let s = tr.begin("sim.drain", parent, NO_JOB);
    let records = Executor::drain(&mut sim).map_or_else(|_| Vec::new(), |st| st.jobs);
    tr.end(s);
    let drain_s = t.elapsed().as_secs_f64();
    check_rung("bare simulator", records.len(), n, failures);
    Rung {
        build_s,
        submit_s,
        drain_s,
        frames: 0,
        records,
    }
}

/// Jobs per `submit_many` batch on the direct 4-node rungs.
const DIRECT_BATCH: usize = 64;

/// The stream straight into a cluster of `nodes`, no ingress. With
/// `metrics` on, the drain is the record-free `drain_summary`.
fn run_direct(
    tr: &mut Tracer,
    parent: u32,
    seed: u64,
    nodes: usize,
    metrics: Option<MetricsConfig>,
    specs: Vec<JobSpec<Dag>>,
    failures: &mut Vec<String>,
) -> Rung {
    let n = specs.len();
    let t = Instant::now();
    let s = tr.begin("cluster.build", parent, NO_JOB);
    let base = node_session(seed, metrics);
    let mut cluster = build_cluster(base, nodes, RoutePolicy::PowerOfTwo, seed);
    tr.end(s);
    let build_s = t.elapsed().as_secs_f64();
    let frames0 = cluster.wire_messages_sent();
    let t = Instant::now();
    let s = tr.begin("cluster.submit", parent, NO_JOB);
    if nodes == 1 {
        // Job by job, as the bare simulator took them, so that the
        // records can be compared bit for bit.
        for spec in specs {
            Executor::submit(&mut cluster, spec).ok();
        }
    } else {
        let mut it = specs.into_iter().peekable();
        while it.peek().is_some() {
            cluster
                .submit_many(it.by_ref().take(DIRECT_BATCH).collect())
                .ok();
        }
    }
    tr.end(s);
    let submit_s = t.elapsed().as_secs_f64();
    let frames = cluster.wire_messages_sent() - frames0;
    let t = Instant::now();
    let (completed, records) = if metrics.is_some() {
        let s = tr.begin("cluster.drain_summary", parent, NO_JOB);
        let summary = cluster.drain_summary();
        tr.end(s);
        (summary.map_or(0, |sum| sum.jobs as usize), Vec::new())
    } else {
        let s = tr.begin("cluster.drain", parent, NO_JOB);
        let records = cluster.drain().map_or_else(|_| Vec::new(), |st| st.jobs);
        tr.end(s);
        (records.len(), records)
    };
    let drain_s = t.elapsed().as_secs_f64();
    check_rung(&format!("{nodes}-node cluster"), completed, n, failures);
    Rung {
        build_s,
        submit_s,
        drain_s,
        frames,
        records,
    }
}
