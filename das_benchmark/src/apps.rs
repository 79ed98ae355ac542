//! `app_kernels`: the paper's two real applications, K-means and 2-D
//! heat, on the threaded runtime, checked against their sequential
//! references.

use std::time::Instant;

use das::workloads::heat;
use das::workloads::kmeans::KMeans;

use crate::rt;
use crate::run::{Cfg, RepOut, Workload};
use crate::trace::{Tracer, NO_JOB, NO_SPAN};

const DIM: usize = 8;
const K: usize = 16;
const CHUNKS: usize = 16;
const BLOCKS: usize = 16;

/// Largest deviation from the sequential reference a result may show.
pub const RESULT_TOLERANCE: f64 = 1e-9;

pub struct Apps {
    cfg: Cfg,
    points: usize,
    kmeans_iters: usize,
    grid: usize,
    heat_iters: usize,
    /// Sequential references, computed once per run: they are the
    /// oracle and the single-thread baseline, not part of the workload.
    kmeans_ref: Vec<f64>,
    heat_ref: Vec<f64>,
    kmeans_seq_s: f64,
    heat_seq_s: f64,
}

impl Apps {
    pub fn new(cfg: Cfg) -> Apps {
        let points = cfg.size(500_000, 10_000);
        let grid = if cfg.quick { 128 } else { 1536 };
        let (kmeans_iters, heat_iters) = if cfg.quick { (3, 10) } else { (10, 50) };

        let t = Instant::now();
        let kmeans_ref = KMeans::generate(points, DIM, K, cfg.seed).run_sequential(kmeans_iters);
        let kmeans_seq_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let heat_ref = heat::sequential(grid, grid, heat_iters);
        let heat_seq_s = t.elapsed().as_secs_f64();
        Apps {
            cfg,
            points,
            kmeans_iters,
            grid,
            heat_iters,
            kmeans_ref,
            heat_ref,
            kmeans_seq_s,
            heat_seq_s,
        }
    }
}

fn max_abs_dev(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0,
            |m, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        )
}

impl Workload for Apps {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("kmeans_points", self.points as u64),
            ("kmeans_dim", DIM as u64),
            ("kmeans_k", K as u64),
            ("kmeans_chunks", CHUNKS as u64),
            ("kmeans_iters", self.kmeans_iters as u64),
            ("heat_grid", self.grid as u64),
            ("heat_iters", self.heat_iters as u64),
            ("heat_blocks", BLOCKS as u64),
        ]
    }

    fn run_scalars(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("kmeans_seq_s", self.kmeans_seq_s),
            ("heat_seq_s", self.heat_seq_s),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t = Instant::now();
        let root = tr.begin("setup", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let rt = rt::started_runtime(&self.cfg, tr, parent);
        let s = tr.begin("workloads.kmeans_generate", parent, NO_JOB);
        let km = KMeans::generate(self.points, DIM, K, self.cfg.seed);
        tr.end(s);
        tr.end(root);
        let mut out = RepOut {
            setup_s: t.elapsed().as_secs_f64(),
            ..RepOut::default()
        };

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let t0 = Instant::now();
        let s = tr.begin("workloads.kmeans_run", parent, 0);
        let (centroids, _) = km.run_on_runtime(&rt, self.kmeans_iters, CHUNKS);
        tr.end(s);
        let kmeans_s = t0.elapsed().as_secs_f64();
        let s = tr.begin("workloads.heat_run", parent, 1);
        let field = heat::run_shared(&rt, self.grid, self.grid, self.heat_iters, BLOCKS);
        tr.end(s);
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);

        // One task graph per K-means iteration (chunks plus the
        // reduction) and one unrolled graph for the heat run.
        out.jobs = self.kmeans_iters as u64 + 1;
        out.tasks = (self.kmeans_iters * (CHUNKS + 1)) as u64
            + (self.heat_iters * BLOCKS.min(self.grid - 2)) as u64;
        // The kernels wait on their own job handles, which consumes
        // the pool's records: the wall clock is the only span there is.
        out.makespan_s = out.wall_s;
        out.attempted = out.jobs;
        out.scalars.insert("kmeans_rt_s", kmeans_s);
        out.scalars.insert("heat_rt_s", out.wall_s - kmeans_s);

        let err =
            max_abs_dev(&centroids, &self.kmeans_ref).max(max_abs_dev(&field, &self.heat_ref));
        out.scalars.insert("result_err", err);
        if err.is_nan() || err > RESULT_TOLERANCE {
            out.fail(
                out.jobs,
                format!("result deviates from the sequential reference by {err:e}"),
            );
        }
        out
    }
}
