//! `rt_fanout` and `rt_chain`: the threaded runtime driven with no-op
//! tasks, so that everything measured is scheduling.

use std::sync::Arc;
use std::time::Instant;

use das::core::{Policy, Priority, TaskTypeId};
use das::runtime::{JobSpec, JobStats, Runtime, TaskGraph};
use das::topology::Topology;

use crate::host;
use crate::run::{Cfg, RepOut, Workload};
use crate::trace::{SpanId, Tracer, NO_JOB, NO_SPAN};

const TY: TaskTypeId = TaskTypeId(0);

/// Children of a fan-out job's root; one in eight is `High`.
const FANOUT: usize = 64;

/// Tasks of a chain job, all `High`.
const CHAIN: usize = 512;

/// A root releasing [`FANOUT`] no-op children.
pub fn fanout_graph() -> TaskGraph {
    let mut g = TaskGraph::new("fanout");
    let root = g.add(TY, Priority::Low, |_| {});
    for i in 0..FANOUT {
        let prio = if i % 8 == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        let t = g.add(TY, prio, |_| {});
        g.add_edge(root, t);
    }
    g
}

/// [`CHAIN`] dependent `High` no-ops.
pub fn chain_graph() -> TaskGraph {
    let mut g = TaskGraph::new("chain");
    let mut prev = None;
    for _ in 0..CHAIN {
        let t = g.add(TY, Priority::High, |_| {});
        if let Some(p) = prev {
            g.add_edge(p, t);
        }
        prev = Some(t);
    }
    g
}

/// A runtime of `W` workers whose threads are already running: the
/// pool spawns them at the first submission, so one single-task job is
/// run before anything is timed. Records its spans under `parent`.
pub fn started_runtime(cfg: &Cfg, tr: &mut Tracer, parent: SpanId) -> Runtime {
    let s = tr.begin("topology.build", parent, NO_JOB);
    let topo = Arc::new(Topology::symmetric(cfg.host.workers));
    tr.end(s);

    let s = tr.begin("runtime.build", parent, NO_JOB);
    let rt = Runtime::new(topo, Policy::DamC).seed(cfg.seed);
    tr.end(s);

    let s = tr.begin("runtime.start", parent, NO_JOB);
    let mut warm = TaskGraph::new("warm");
    warm.add(TY, Priority::Low, |_| {});
    rt.submit(JobSpec::new(warm))
        .expect("a one-task graph is valid")
        .wait();
    tr.end(s);
    rt
}

/// Set-up common to both workloads: a started runtime and the job
/// graphs. Returns them with the set-up time.
fn setup(
    cfg: &Cfg,
    tr: &mut Tracer,
    jobs: usize,
    graph: fn() -> TaskGraph,
) -> (Runtime, Vec<TaskGraph>, f64) {
    let t = Instant::now();
    let root = tr.begin("setup", NO_SPAN, NO_JOB);
    let parent = tr.id(&root);
    let rt = started_runtime(cfg, tr, parent);
    let s = tr.begin("dag.generate", parent, NO_JOB);
    let graphs: Vec<TaskGraph> = (0..jobs).map(|_| graph()).collect();
    tr.end(s);
    tr.end(root);
    (rt, graphs, t.elapsed().as_secs_f64())
}

/// Span of a set of job records on the pool clock.
fn pool_span(records: &[JobStats]) -> f64 {
    let t0 = records
        .iter()
        .map(|j| j.arrival)
        .fold(f64::INFINITY, f64::min);
    let t1 = records.iter().map(|j| j.completed).fold(0.0, f64::max);
    (t1 - t0).max(0.0)
}

/// Process CPU seconds spent between two readings, as scalars.
fn cpu_scalars(out: &mut RepOut, before: Option<(f64, f64)>) {
    if let (Some((u0, s0)), Some((u1, s1))) = (before, host::cpu_seconds()) {
        out.scalars.insert("cpu_user_s", u1 - u0);
        out.scalars.insert("cpu_sys_s", s1 - s0);
    }
}

pub struct Fanout {
    cfg: Cfg,
    jobs: usize,
}

impl Fanout {
    pub fn new(cfg: Cfg) -> Fanout {
        Fanout {
            cfg,
            jobs: cfg.size(250, 50),
        }
    }
}

impl Workload for Fanout {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs_per_rep", self.jobs as u64),
            ("tasks_per_job", FANOUT as u64 + 1),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let (rt, graphs, setup_s) = setup(&self.cfg, tr, self.jobs, fanout_graph);
        let mut out = RepOut {
            setup_s,
            ..RepOut::default()
        };
        let cpu0 = host::cpu_seconds();

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let t0 = Instant::now();
        for (j, g) in graphs.into_iter().enumerate() {
            let s = tr.begin("runtime.submit", parent, j as u32);
            let handle = rt.submit(JobSpec::new(g));
            tr.end(s);
            if let Err(e) = handle {
                out.fail(1, format!("submit of job {j} rejected: {e}"));
            }
        }
        let submit_s = t0.elapsed().as_secs_f64();
        let s = tr.begin("runtime.drain", parent, NO_JOB);
        let records = rt.drain();
        tr.end(s);
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);
        out.scalars.insert("submit_s", submit_s);
        out.scalars.insert("drain_s", out.wall_s - submit_s);

        cpu_scalars(&mut out, cpu0);
        out.attempted = self.jobs as u64;
        out.jobs = records.len() as u64;
        out.tasks = records.iter().map(|j| j.tasks as u64).sum();
        out.makespan_s = pool_span(&records);
        out.expect_count("drained jobs", out.jobs, self.jobs as u64);
        let odd = records.iter().filter(|j| j.tasks != FANOUT + 1).count();
        out.expect_count("jobs with a wrong task count", odd as u64, 0);
        out
    }
}

pub struct Chain {
    cfg: Cfg,
    jobs: usize,
}

impl Chain {
    pub fn new(cfg: Cfg) -> Chain {
        Chain {
            cfg,
            jobs: cfg.size(5, 2),
        }
    }
}

impl Workload for Chain {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs_per_rep", self.jobs as u64),
            ("tasks_per_job", CHAIN as u64),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let (rt, graphs, setup_s) = setup(&self.cfg, tr, self.jobs, chain_graph);
        let mut out = RepOut {
            setup_s,
            ..RepOut::default()
        };
        let mut latency_us = Vec::with_capacity(self.jobs);
        let mut records = Vec::with_capacity(self.jobs);
        let cpu0 = host::cpu_seconds();

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let t0 = Instant::now();
        for (j, g) in graphs.into_iter().enumerate() {
            let t = Instant::now();
            let s = tr.begin("runtime.submit", parent, j as u32);
            let handle = rt.submit(JobSpec::new(g));
            tr.end(s);
            match handle {
                Ok(h) => {
                    let s = tr.begin("runtime.wait", parent, j as u32);
                    let outcome = h.wait();
                    tr.end(s);
                    latency_us.push(t.elapsed().as_secs_f64() * 1e6);
                    records.push(outcome.stats);
                }
                Err(e) => out.fail(1, format!("submit of job {j} rejected: {e}")),
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);

        cpu_scalars(&mut out, cpu0);
        out.attempted = self.jobs as u64;
        out.jobs = records.len() as u64;
        out.tasks = records.iter().map(|j| j.tasks as u64).sum();
        out.makespan_s = pool_span(&records);
        out.expect_count("completed jobs", out.jobs, self.jobs as u64);
        let odd = records.iter().filter(|j| j.tasks != CHAIN).count();
        out.expect_count("jobs with a wrong task count", odd as u64, 0);
        // A waited job's record is consumed; nothing may be left over.
        out.expect_count("records left for drain", rt.drain().len() as u64, 0);
        out.samples.insert("job_latency_us", latency_us);
        out
    }
}
