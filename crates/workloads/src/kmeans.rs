//! K-means clustering (§4.2.2, Fig. 9) — "a representative of the
//! data-parallel class of applications".
//!
//! Shapes, as in the paper's XiTAO port of the Rodinia benchmark:
//! each iteration maps the loop partitions to dynamically scheduled
//! tasks; the task containing the *largest work unit* (chunk 0, which is
//! twice the size of the others here) carries the high priority.
//!
//! Three forms share the algorithm:
//! * [`KMeans::run_sequential`] — reference implementation;
//! * [`KMeans::run_on_runtime`] — executes each iteration as a
//!   [`TaskGraph`] on `das-runtime` (moldable chunk tasks);
//! * [`iteration_dag`] — the same iteration shape for `das-sim`, used by
//!   the Fig. 9 harness.

use crate::types;
use das_core::Priority;
use das_dag::{generators, Dag};
use das_runtime::{JobSpec, Runtime, TaskGraph};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-chunk accumulator shared between assignment tasks: centroid
/// coordinate sums and per-centroid counts.
type PartialSums = Arc<Vec<Mutex<(Vec<f64>, Vec<usize>)>>>;

/// A K-means problem instance: `n` points of dimension `dim`, flattened
/// row-major.
#[derive(Clone, Debug)]
pub struct KMeans {
    data: Arc<Vec<f64>>,
    dim: usize,
    k: usize,
}

impl KMeans {
    /// Wrap an existing data set.
    ///
    /// # Panics
    /// Panics if the data length is not a multiple of `dim`, or `k == 0`.
    pub fn new(data: Vec<f64>, dim: usize, k: usize) -> Self {
        assert!(dim > 0 && k > 0);
        assert_eq!(data.len() % dim, 0, "data must be n×dim");
        assert!(data.len() / dim >= k, "need at least k points");
        KMeans {
            data: Arc::new(data),
            dim,
            k,
        }
    }

    /// Generate `n` points around `k` Gaussian-ish blobs (deterministic
    /// in `seed`).
    pub fn generate(n: usize, dim: usize, k: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = i % k;
            for d in 0..dim {
                let noise: f64 = rng.gen_range(-0.5..0.5);
                data.push(centers[c * dim + d] + noise);
            }
        }
        KMeans::new(data, dim, k)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` if the instance has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Initial centroids: the first `k` points (the classic Forgy-like
    /// deterministic start used by Rodinia).
    pub fn initial_centroids(&self) -> Vec<f64> {
        self.data[..self.k * self.dim].to_vec()
    }

    fn nearest(&self, point: &[f64], centroids: &[f64]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for c in 0..self.k {
            let mut d = 0.0;
            for j in 0..self.dim {
                let diff = point[j] - centroids[c * self.dim + j];
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Accumulate the assignment sums of points `[lo, hi)` with stride
    /// `step`, starting at `lo + offset`. Returns `(sums, counts)`.
    fn partial(
        &self,
        centroids: &[f64],
        lo: usize,
        hi: usize,
        offset: usize,
        step: usize,
    ) -> (Vec<f64>, Vec<usize>) {
        let mut sums = vec![0.0; self.k * self.dim];
        let mut counts = vec![0usize; self.k];
        let mut i = lo + offset;
        while i < hi {
            let p = &self.data[i * self.dim..(i + 1) * self.dim];
            let c = self.nearest(p, centroids);
            counts[c] += 1;
            for j in 0..self.dim {
                sums[c * self.dim + j] += p[j];
            }
            i += step;
        }
        (sums, counts)
    }

    fn finish_centroids(&self, sums: &[f64], counts: &[usize], old: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.k * self.dim];
        for c in 0..self.k {
            if counts[c] == 0 {
                // Empty cluster keeps its old centroid (Rodinia behaviour).
                out[c * self.dim..(c + 1) * self.dim]
                    .copy_from_slice(&old[c * self.dim..(c + 1) * self.dim]);
            } else {
                for j in 0..self.dim {
                    out[c * self.dim + j] = sums[c * self.dim + j] / counts[c] as f64;
                }
            }
        }
        out
    }

    /// One sequential Lloyd iteration.
    pub fn sequential_iteration(&self, centroids: &[f64]) -> Vec<f64> {
        let (sums, counts) = self.partial(centroids, 0, self.len(), 0, 1);
        self.finish_centroids(&sums, &counts, centroids)
    }

    /// Run `iters` sequential iterations from the default start.
    pub fn run_sequential(&self, iters: usize) -> Vec<f64> {
        let mut c = self.initial_centroids();
        for _ in 0..iters {
            c = self.sequential_iteration(&c);
        }
        c
    }

    /// Chunk boundaries: chunk 0 is twice as large as the rest (it gets
    /// the high priority as "the task containing the largest work unit").
    fn chunk_bounds(&self, chunks: usize) -> Vec<(usize, usize)> {
        let n = self.len();
        let unit = n / (chunks + 1).max(1);
        let mut out = Vec::with_capacity(chunks);
        let mut lo = 0;
        for c in 0..chunks {
            let sz = if c == 0 { 2 * unit } else { unit };
            let hi = if c == chunks - 1 { n } else { (lo + sz).min(n) };
            out.push((lo, hi));
            lo = hi;
        }
        out
    }

    /// Run `iters` iterations on a `das-runtime`, each iteration a fresh
    /// task graph of `chunks` moldable chunk tasks plus a reduction, the
    /// shape the Fig. 9 experiment schedules. Returns the final
    /// centroids and the per-iteration wall-clock seconds.
    pub fn run_on_runtime(
        &self,
        rt: &Runtime,
        iters: usize,
        chunks: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        assert!(chunks >= 1);
        let mut centroids = self.initial_centroids();
        let mut times = Vec::with_capacity(iters);
        for iter in 0..iters {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-iteration wall time is this method's return value"
            )]
            let t0 = std::time::Instant::now();
            centroids = self.runtime_iteration(rt, &centroids, chunks, iter as u64);
            times.push(t0.elapsed().as_secs_f64());
        }
        (centroids, times)
    }

    fn runtime_iteration(
        &self,
        rt: &Runtime,
        centroids: &[f64],
        chunks: usize,
        iter: u64,
    ) -> Vec<f64> {
        let bounds = self.chunk_bounds(chunks);
        let cents = Arc::new(centroids.to_vec());
        let partials: PartialSums = Arc::new(
            (0..chunks)
                .map(|_| Mutex::new((vec![0.0; self.k * self.dim], vec![0usize; self.k])))
                .collect(),
        );
        let result = Arc::new(Mutex::new(Vec::new()));

        let mut g = TaskGraph::new(format!("kmeans-it{iter}"));
        let mut chunk_ids = Vec::with_capacity(chunks);
        for (ci, &(lo, hi)) in bounds.iter().enumerate() {
            let prio = if ci == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let me = self.clone();
            let cents = Arc::clone(&cents);
            let partials = Arc::clone(&partials);
            let id = g.add(types::KMEANS_CHUNK, prio, move |ctx| {
                // Moldable: each rank handles a cyclic share of the chunk.
                let (sums, counts) = me.partial(&cents, lo, hi, ctx.rank, ctx.width);
                let mut slot = partials[ci].lock();
                for (a, b) in slot.0.iter_mut().zip(&sums) {
                    *a += b;
                }
                for (a, b) in slot.1.iter_mut().zip(&counts) {
                    *a += b;
                }
            });
            chunk_ids.push(id);
        }
        let me = self.clone();
        let cents = Arc::clone(&cents);
        let partials_r = Arc::clone(&partials);
        let result_w = Arc::clone(&result);
        let k = self.k;
        let dim = self.dim;
        let reduce = g.add(types::KMEANS_REDUCE, Priority::Low, move |ctx| {
            if ctx.rank != 0 {
                return; // reduction is inherently serial
            }
            let mut sums = vec![0.0; k * dim];
            let mut counts = vec![0usize; k];
            for p in partials_r.iter() {
                let slot = p.lock();
                for (a, b) in sums.iter_mut().zip(&slot.0) {
                    *a += b;
                }
                for (a, b) in counts.iter_mut().zip(&slot.1) {
                    *a += b;
                }
            }
            *result_w.lock() = me.finish_centroids(&sums, &counts, &cents);
        });
        for id in chunk_ids {
            g.add_edge(id, reduce);
        }
        rt.submit(JobSpec::new(g))
            .expect("kmeans iteration graph is valid")
            .wait();
        let out = result.lock().clone();
        assert_eq!(out.len(), self.k * self.dim);
        out
    }

    /// Task-parallel partial sums over this instance's points — the
    /// per-rank half of the distributed algorithm (no reduction task; the
    /// caller combines).
    fn parallel_partials(
        &self,
        rt: &Runtime,
        centroids: &[f64],
        chunks: usize,
        iter: u64,
    ) -> (Vec<f64>, Vec<usize>) {
        let bounds = self.chunk_bounds(chunks.max(1));
        let cents = Arc::new(centroids.to_vec());
        let partials: PartialSums = Arc::new(
            bounds
                .iter()
                .map(|_| Mutex::new((vec![0.0; self.k * self.dim], vec![0usize; self.k])))
                .collect(),
        );
        let mut g = TaskGraph::new(format!("kmeans-partials-it{iter}"));
        for (ci, &(lo, hi)) in bounds.iter().enumerate() {
            let prio = if ci == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let me = self.clone();
            let cents = Arc::clone(&cents);
            let partials = Arc::clone(&partials);
            g.add(types::KMEANS_CHUNK, prio, move |ctx| {
                let (sums, counts) = me.partial(&cents, lo, hi, ctx.rank, ctx.width);
                let mut slot = partials[ci].lock();
                for (a, b) in slot.0.iter_mut().zip(&sums) {
                    *a += b;
                }
                for (a, b) in slot.1.iter_mut().zip(&counts) {
                    *a += b;
                }
            });
        }
        rt.submit(JobSpec::new(g))
            .expect("kmeans partials graph is valid")
            .wait();
        let mut sums = vec![0.0; self.k * self.dim];
        let mut counts = vec![0usize; self.k];
        for p in partials.iter() {
            let slot = p.lock();
            for (a, b) in sums.iter_mut().zip(&slot.0) {
                *a += b;
            }
            for (a, b) in counts.iter_mut().zip(&slot.1) {
                *a += b;
            }
        }
        (sums, counts)
    }
}

/// Distributed K-means (extension beyond the paper, exercising the same
/// substrate as distributed Heat): each rank owns a contiguous slice of
/// the points and a runtime instance; per iteration the ranks compute
/// local partial sums task-parallel, then combine them with an
/// all-reduce over `das-msg` and each derive the identical new
/// centroids. Returns the final centroids (same on every rank).
pub fn run_distributed(
    mk_runtime: impl Fn(usize) -> das_runtime::Runtime + Sync,
    ranks: usize,
    km: &KMeans,
    iters: usize,
    chunks_per_rank: usize,
) -> Vec<f64> {
    assert!(ranks >= 1 && km.len() >= ranks * km.k);
    let comm = das_msg::Communicator::new(ranks);
    let k = km.k;
    let dim = km.dim;
    let init = km.initial_centroids();
    let n = km.len();

    let mut results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = comm
            .endpoints()
            .into_iter()
            .map(|ep| {
                let mk = &mk_runtime;
                let r = ep.rank();
                let lo = r * n / ranks;
                let hi = (r + 1) * n / ranks;
                // Local instance keeps the *global* k so assignments use
                // the same centroid space on every rank.
                let local = KMeans::new(km.data[lo * dim..hi * dim].to_vec(), dim, k);
                let init = init.clone();
                s.spawn(move || {
                    let rt = mk(r);
                    let mut cents = init;
                    for it in 0..iters {
                        // Task-parallel local partials (reusing the
                        // shared-memory iteration graph, minus reduce).
                        let (sums, counts) =
                            local.parallel_partials(&rt, &cents, chunks_per_rank, it as u64);
                        // Encode [sums..., counts...] for the allreduce.
                        let mut payload = sums;
                        payload.extend(counts.iter().map(|&c| c as f64));
                        let combined = ep.allreduce_sum(payload);
                        let (gs, gc) = combined.split_at(k * dim);
                        let counts: Vec<usize> = gc.iter().map(|&c| c as usize).collect();
                        cents = global_finish(gs, &counts, &cents, k, dim);
                    }
                    cents
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kmeans rank thread panicked"))
            .collect()
    });
    let first = results.remove(0);
    for other in results {
        assert_eq!(other, first, "ranks must agree on the centroids");
    }
    first
}

fn global_finish(sums: &[f64], counts: &[usize], old: &[f64], k: usize, dim: usize) -> Vec<f64> {
    let mut out = vec![0.0; k * dim];
    for c in 0..k {
        if counts[c] == 0 {
            out[c * dim..(c + 1) * dim].copy_from_slice(&old[c * dim..(c + 1) * dim]);
        } else {
            for j in 0..dim {
                out[c * dim + j] = sums[c * dim + j] / counts[c] as f64;
            }
        }
    }
    out
}

/// The Fig. 9 iteration shape for the simulator: `chunks` chunk tasks
/// (chunk 0 twice the work, high priority) joined by a reduction.
pub fn iteration_dag(chunks: usize, iteration: u64) -> Dag {
    generators::data_parallel_iteration(
        types::KMEANS_CHUNK,
        types::KMEANS_REDUCE,
        chunks,
        2.0,
        iteration,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::Policy;
    use das_topology::Topology;

    #[test]
    fn sequential_converges_to_blob_centers() {
        let km = KMeans::generate(300, 2, 3, 42);
        let c = km.run_sequential(20);
        // Each final centroid should be close to one of the generating
        // blobs — cheap sanity: re-assign all points, no empty cluster.
        let (_, counts) = km.partial(&c, 0, km.len(), 0, 1);
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    }

    #[test]
    fn partial_strides_cover_all_points() {
        let km = KMeans::generate(101, 3, 4, 7);
        let c = km.initial_centroids();
        let (full_s, full_c) = km.partial(&c, 0, km.len(), 0, 1);
        let mut s = [0.0; 12];
        let mut n = vec![0usize; 4];
        for rank in 0..3 {
            let (ps, pc) = km.partial(&c, 0, km.len(), rank, 3);
            for (a, b) in s.iter_mut().zip(&ps) {
                *a += b;
            }
            for (a, b) in n.iter_mut().zip(&pc) {
                *a += b;
            }
        }
        assert_eq!(n, full_c);
        for (a, b) in s.iter().zip(&full_s) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn chunk_bounds_tile_and_frontload() {
        let km = KMeans::generate(120, 2, 2, 1);
        let b = km.chunk_bounds(5);
        assert_eq!(b.len(), 5);
        assert_eq!(b[0].0, 0);
        assert_eq!(b.last().unwrap().1, 120);
        for w in b.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        let size0 = b[0].1 - b[0].0;
        let size1 = b[1].1 - b[1].0;
        assert_eq!(size0, 2 * size1, "chunk 0 carries double work");
    }

    #[test]
    fn runtime_matches_sequential() {
        let km = KMeans::generate(200, 2, 3, 9);
        let reference = km.run_sequential(5);
        for policy in [Policy::Rws, Policy::DamC, Policy::DamP] {
            let rt = Runtime::new(Arc::new(Topology::symmetric(4)), policy);
            let (got, times) = km.run_on_runtime(&rt, 5, 4);
            assert_eq!(times.len(), 5);
            for (a, b) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-9, "{policy}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn distributed_matches_sequential() {
        let km = KMeans::generate(400, 2, 4, 123);
        let want = km.run_sequential(6);
        let got = run_distributed(
            |_r| Runtime::new(Arc::new(Topology::symmetric(2)), Policy::DamC),
            4,
            &km,
            6,
            3,
        );
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn iteration_dag_shape() {
        let d = iteration_dag(16, 3);
        d.validate().unwrap();
        assert_eq!(d.len(), 17);
        assert_eq!(d.num_high_priority(), 1);
        assert_eq!(
            d.task_types(),
            vec![types::KMEANS_CHUNK, types::KMEANS_REDUCE]
        );
    }
}
