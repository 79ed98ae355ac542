//! 2-D Heat diffusion (iterative 5-point Jacobi), the paper's distributed
//! application (§4.2.2, Fig. 10).
//!
//! Four forms share one numerical kernel:
//!
//! * [`sequential`] — reference solver;
//! * [`run_shared`] — one unrolled task DAG on `das-runtime`
//!   (shared-memory, double-buffered, block tasks with neighbour
//!   dependencies);
//! * [`run_distributed`] — one runtime *per rank*, ghost rows exchanged
//!   through `das-msg` inside **high-priority communication tasks**, the
//!   paper's "MPI calls encapsulated into specific TAOs [...] marked as
//!   high priority";
//! * [`cluster_dag`] — the Fig. 10 shape for `das-sim`: 4 nodes × 2
//!   sockets, node-affine comm tasks with a network release delay.

use crate::types;
use das_core::{Priority, TaskMeta};
use das_dag::Dag;
use das_msg::Endpoint;
use das_runtime::{JobSpec, Runtime, TaskGraph};
use std::cell::UnsafeCell;
use std::sync::Arc;

/// A grid buffer shared by disjointly-writing tasks.
///
/// Storage is `Vec<UnsafeCell<f64>>` — `UnsafeCell<f64>` is
/// `repr(transparent)` over `f64`, so the buffer keeps the contiguous
/// row-major layout of a plain `Vec<f64>` — and all access goes through
/// the per-row views [`SharedGrid::row`] / [`SharedGrid::row_mut`]. No
/// whole-buffer `&mut` is ever created, so two tasks holding views of
/// *different* rows never alias; the only obligation left to callers is
/// row-level discipline.
///
/// # Safety contract (the disjoint-row invariant)
/// A task may hold `row_mut(r)` only while no other concurrently
/// runnable task holds `row(r)` or `row_mut(r)`. The DAG edges built in
/// this module enforce exactly that: block `b` of iteration `i+1`
/// depends on blocks `b−1, b, b+1` of iteration `i`, so every source
/// row a task reads was finalized by a predecessor, and destination
/// rows are partitioned across tasks (and cyclically across moldable
/// lanes within a task).
struct SharedGrid {
    data: Vec<UnsafeCell<f64>>,
    cols: usize,
}

// SAFETY: SharedGrid's `UnsafeCell` storage is only reachable through
// `row`/`row_mut`, whose contracts require the disjoint-row protocol
// above; under that protocol no two threads ever form aliasing
// references to the same cell. (`Send` is auto-derived: the cells own
// plain `f64`s.)
unsafe impl Sync for SharedGrid {}

impl SharedGrid {
    fn new(data: Vec<f64>, cols: usize) -> Self {
        assert_eq!(data.len() % cols, 0);
        SharedGrid {
            data: data.into_iter().map(UnsafeCell::new).collect(),
            cols,
        }
    }

    fn rows(&self) -> usize {
        self.data.len() / self.cols
    }

    /// Shared view of row `r` (panics if out of range).
    ///
    /// # Safety
    /// No concurrently runnable task may hold `row_mut(r)`.
    unsafe fn row(&self, r: usize) -> &[f64] {
        let first: *const f64 = self.data[r * self.cols].get();
        // SAFETY: the constructor asserts whole rows, so indices
        // r*cols .. (r+1)*cols are in bounds once r*cols is; the cells
        // are repr(transparent) f64s; the caller rules out writers.
        unsafe { std::slice::from_raw_parts(first, self.cols) }
    }

    /// Exclusive view of row `r` (panics if out of range).
    ///
    /// # Safety
    /// No concurrently runnable task may hold any view of row `r`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, r: usize) -> &mut [f64] {
        let first: *mut f64 = self.data[r * self.cols].get();
        // SAFETY: in-bounds as in `row`; the caller guarantees this is
        // the only live view of row `r`, so `&mut` does not alias.
        unsafe { std::slice::from_raw_parts_mut(first, self.cols) }
    }

    /// Copy the whole grid out, row-major.
    ///
    /// # Safety
    /// No concurrently runnable task may hold any `row_mut` view (the
    /// runtime must have quiesced).
    unsafe fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.data.len());
        for r in 0..self.rows() {
            // SAFETY: forwarded from the caller: no writers remain.
            out.extend_from_slice(unsafe { self.row(r) });
        }
        out
    }
}

/// Initial condition used across all variants: cold grid with a hot top
/// edge and a warm left edge — enough structure that indexing bugs show
/// up numerically.
pub(crate) fn default_init(r: usize, c: usize, rows: usize, cols: usize) -> f64 {
    if r == 0 {
        100.0
    } else if c == 0 {
        50.0
    } else {
        // Bottom/right edges and the interior both start cold; the
        // Dirichlet boundary keeps the edges at 0 afterwards.
        let _ = (rows, cols);
        0.0
    }
}

/// The one 5-point stencil row every solver here runs: `out`'s interior
/// cells become `0.25 * (above + below + left + right)`. The equal
/// lengths asserted up front let the loop run without bounds checks.
pub(crate) fn row(above: &[f64], here: &[f64], below: &[f64], out: &mut [f64]) {
    let n = here.len();
    assert!(above.len() == n && below.len() == n && out.len() == n);
    for c in 1..n - 1 {
        out[c] = 0.25 * (above[c] + below[c] + here[c - 1] + here[c + 1]);
    }
}

/// Sequential reference solver: `iters` Jacobi sweeps over a `rows×cols`
/// grid with fixed (Dirichlet) boundary.
pub fn sequential(rows: usize, cols: usize, iters: usize) -> Vec<f64> {
    assert!(rows >= 3 && cols >= 3);
    let mut a: Vec<f64> = (0..rows * cols)
        .map(|i| default_init(i / cols, i % cols, rows, cols))
        .collect();
    let mut b = a.clone();
    for _ in 0..iters {
        crate::kernels::stencil_rows(&a, &mut b, rows, cols, 0, 1);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Shared-memory task-parallel solver: the whole computation is one
/// unrolled DAG (`iters` layers of `blocks` moldable block tasks). Block
/// `b` of iteration `i+1` depends on blocks `b−1, b, b+1` of iteration
/// `i`: a block reads source rows `[lo−1, hi]`, which only those three
/// predecessors write, and writes destination rows `[lo, hi)`, which only
/// those three read during iteration `i` — so the edges make the
/// unsynchronised buffer access race-free.
pub fn run_shared(rt: &Runtime, rows: usize, cols: usize, iters: usize, blocks: usize) -> Vec<f64> {
    assert!(rows >= 3 && cols >= 3 && blocks >= 1 && iters >= 1);
    let interior = rows - 2;
    let blocks = blocks.min(interior);
    let init: Vec<f64> = (0..rows * cols)
        .map(|i| default_init(i / cols, i % cols, rows, cols))
        .collect();
    let bufs = [
        Arc::new(SharedGrid::new(init.clone(), cols)),
        Arc::new(SharedGrid::new(init, cols)),
    ];

    // Row range of block b (interior rows only).
    let bounds: Vec<(usize, usize)> = (0..blocks)
        .map(|b| {
            let lo = 1 + b * interior / blocks;
            let hi = 1 + (b + 1) * interior / blocks;
            (lo, hi)
        })
        .collect();

    let mut g = TaskGraph::new("heat-shared");
    let mut prev: Vec<das_dag::TaskId> = Vec::new();
    for it in 0..iters {
        let src = Arc::clone(&bufs[it % 2]);
        let dst = Arc::clone(&bufs[(it + 1) % 2]);
        let mut cur = Vec::with_capacity(blocks);
        for (b, &(lo, hi)) in bounds.iter().enumerate() {
            let src = Arc::clone(&src);
            let dst = Arc::clone(&dst);
            let prio = if b == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let id = g.add(types::HEAT_COMPUTE, prio, move |ctx| {
                for r in ((lo + ctx.rank)..hi).step_by(ctx.width) {
                    let (above, here, below, d) =
                        // SAFETY: DAG edges order this task after every
                        // writer of src rows r−1..=r+1 (iteration i), so
                        // those reads are frozen; dst rows are partitioned
                        // across blocks and cyclically across lanes, so
                        // row_mut(r) is the only live view of dst row r.
                        unsafe { (src.row(r - 1), src.row(r), src.row(r + 1), dst.row_mut(r)) };
                    row(above, here, below, d);
                }
            });
            cur.push(id);
            if it > 0 {
                let lo_dep = b.saturating_sub(1);
                let hi_dep = (b + 1).min(blocks - 1);
                for &p in prev.iter().take(hi_dep + 1).skip(lo_dep) {
                    g.add_edge(p, id);
                }
            }
        }
        prev = cur;
    }
    rt.submit(JobSpec::new(g))
        .expect("heat graph is valid")
        .wait();

    let final_buf = &bufs[iters % 2];
    // SAFETY: the runtime has quiesced; no concurrent access remains.
    let out = unsafe { final_buf.snapshot() };
    drop(bufs);
    out
}

/// Distributed solver: `ranks` threads, each owning a horizontal slab
/// with two ghost rows and its own `das-runtime` instance. Every
/// iteration runs a small task graph per rank: one **high-priority
/// communication task** (ghost exchange through `das-msg`, the paper's
/// MPI TAO) feeding `blocks` compute tasks. Returns the assembled global
/// grid after `iters` iterations.
pub fn run_distributed(
    mk_runtime: impl Fn(usize) -> Runtime + Sync,
    ranks: usize,
    rows: usize,
    cols: usize,
    iters: usize,
    blocks: usize,
) -> Vec<f64> {
    assert!(ranks >= 1 && rows >= ranks + 2 && cols >= 3);
    let comm = das_msg::Communicator::new(ranks);
    let interior = rows - 2;

    let slabs: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = comm
            .endpoints()
            .into_iter()
            .map(|ep| {
                let mk = &mk_runtime;
                let r = ep.rank();
                s.spawn(move || rank_main(ep, mk(r), rows, cols, iters, blocks))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("heat rank thread panicked"))
            .collect()
    });

    // Assemble: global boundary rows + each rank's interior slab.
    let mut out: Vec<f64> = (0..rows * cols)
        .map(|i| default_init(i / cols, i % cols, rows, cols))
        .collect();
    for (rank, slab) in slabs.iter().enumerate() {
        let lo = 1 + rank * interior / ranks;
        let hi = 1 + (rank + 1) * interior / ranks;
        assert_eq!(slab.len(), (hi - lo) * cols);
        out[lo * cols..hi * cols].copy_from_slice(slab);
    }
    out
}

/// Per-rank driver of [`run_distributed`].
fn rank_main(
    ep: Endpoint,
    rt: Runtime,
    rows: usize,
    cols: usize,
    iters: usize,
    blocks: usize,
) -> Vec<f64> {
    let ranks = ep.size();
    let rank = ep.rank();
    let interior = rows - 2;
    let lo = 1 + rank * interior / ranks; // global row of first owned row
    let hi = 1 + (rank + 1) * interior / ranks;
    let own = hi - lo;
    let blocks = blocks.min(own).max(1);
    let local_rows = own + 2; // + two ghost rows

    // local row 0 = global row lo-1, local row own+1 = global row hi.
    let init_local = |buf: &mut Vec<f64>| {
        buf.clear();
        for lr in 0..local_rows {
            let gr = lo - 1 + lr;
            for c in 0..cols {
                buf.push(default_init(gr, c, rows, cols));
            }
        }
    };
    let mut v0 = Vec::new();
    let mut v1 = Vec::new();
    init_local(&mut v0);
    init_local(&mut v1);
    let bufs = [
        Arc::new(SharedGrid::new(v0, cols)),
        Arc::new(SharedGrid::new(v1, cols)),
    ];

    for it in 0..iters {
        let src = Arc::clone(&bufs[it % 2]);
        let dst = Arc::clone(&bufs[(it + 1) % 2]);
        let mut g = TaskGraph::new(format!("heat-r{rank}-it{it}"));

        // Ghost exchange: update src's ghost rows from the neighbours'
        // boundary rows of the *previous* iteration. High priority — this
        // task gates the whole iteration (and, transitively, the
        // neighbouring ranks' next iterations).
        let ep_c = ep.clone();
        let src_c = Arc::clone(&src);
        let comm_task = g.add_meta(
            TaskMeta::new(types::HEAT_COMM, Priority::High),
            move |ctx| {
                if ctx.rank != 0 {
                    return; // protocol work is serial; extra ranks idle
                }
                // One tag per iteration: the mailbox key is (source,
                // tag), so the two directions of one boundary — and the
                // two boundaries of an interior rank — cannot collide.
                // Both partners of an exchange must use the SAME tag
                // (sendrecv sends and receives under one key).
                let tag = it as u32;
                // This task is the sole root of the iteration's graph:
                // every compute task waits on it (DAG edge), so while it
                // runs no other task holds any view of src. Local row 1
                // is the top owned row, row 0 the top ghost; row `own`
                // the bottom owned row, row `own+1` the bottom ghost.
                if rank > 0 {
                    // SAFETY: no concurrent task runs (see above).
                    let top = unsafe { src_c.row(1) }.to_vec();
                    let recv = ep_c.sendrecv(rank - 1, tag, top);
                    // SAFETY: no concurrent task runs (see above).
                    unsafe { src_c.row_mut(0) }.copy_from_slice(&recv);
                }
                if rank + 1 < ranks {
                    // SAFETY: no concurrent task runs (see above).
                    let bottom = unsafe { src_c.row(own) }.to_vec();
                    let recv = ep_c.sendrecv(rank + 1, tag, bottom);
                    // SAFETY: no concurrent task runs (see above).
                    unsafe { src_c.row_mut(own + 1) }.copy_from_slice(&recv);
                }
            },
        );

        for b in 0..blocks {
            let blo = 1 + b * own / blocks; // local row
            let bhi = 1 + (b + 1) * own / blocks;
            let src = Arc::clone(&src);
            let dst = Arc::clone(&dst);
            let id = g.add(types::HEAT_COMPUTE, Priority::Low, move |ctx| {
                for lr in ((blo + ctx.rank)..bhi).step_by(ctx.width) {
                    // SAFETY: compute tasks of one iteration only read
                    // src (whose ghosts the comm task, a DAG
                    // predecessor, finalized) and write disjoint local
                    // rows of dst — blocks partition rows, lanes stride
                    // cyclically — so row_mut(lr) is the only live view.
                    let (above, here, below, d) = unsafe {
                        (
                            src.row(lr - 1),
                            src.row(lr),
                            src.row(lr + 1),
                            dst.row_mut(lr),
                        )
                    };
                    row(above, here, below, d);
                }
            });
            g.add_edge(comm_task, id);
        }
        rt.submit(JobSpec::new(g))
            .expect("heat rank graph is valid")
            .wait();
        // Copy this iteration's results' ghost-adjacent state: dst ghosts
        // keep stale values, refreshed by next iteration's exchange from
        // src==dst swap. Column boundaries are fixed and pre-initialised.
        ep.barrier();
    }

    // Owned rows are local rows 1..=own (ghosts excluded).
    let final_buf = &bufs[iters % 2];
    let mut slab = Vec::with_capacity(own * cols);
    for lr in 1..=own {
        // SAFETY: all runtimes quiesced and the barrier passed; no
        // writer remains anywhere in the communicator.
        slab.extend_from_slice(unsafe { final_buf.row(lr) });
    }
    slab
}

/// The Fig. 10 simulation DAG: `nodes` nodes in a chain, each running
/// `chunks` compute tasks per iteration, gated by a node-affine
/// high-priority communication task with a `comm_delay` network release
/// latency. Iteration `k`'s comm task of node `n` waits for node `n`'s
/// own chunks *and* the adjacent nodes' boundary chunks of iteration
/// `k−1` — the ghost-exchange dependency structure of MPI heat.
pub fn cluster_dag(nodes: usize, chunks: usize, iters: usize, comm_delay: f64) -> Dag {
    assert!(nodes >= 1 && chunks >= 1 && iters >= 1);
    let mut d = Dag::new(format!("heat-cluster-n{nodes}"));
    // prev_chunks[n] = chunk tasks of node n in the previous iteration.
    let mut prev_chunks: Vec<Vec<das_dag::TaskId>> = vec![Vec::new(); nodes];
    for it in 0..iters {
        let mut cur: Vec<Vec<das_dag::TaskId>> = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let comm =
                d.add_task_meta(TaskMeta::new(types::HEAT_COMM, Priority::High).with_affinity(n));
            d.set_tag(comm, it as u64);
            if comm_delay > 0.0 && it > 0 {
                d.set_release_delay(comm, comm_delay);
            }
            if it > 0 {
                // Own previous chunks (local barrier before exchange).
                for &t in &prev_chunks[n] {
                    d.add_edge(t, comm);
                }
                // Neighbour boundary chunks (ghost rows to receive).
                if n > 0 {
                    if let Some(&t) = prev_chunks[n - 1].last() {
                        d.add_edge(t, comm);
                    }
                }
                if n + 1 < nodes {
                    if let Some(&t) = prev_chunks[n + 1].first() {
                        d.add_edge(t, comm);
                    }
                }
            }
            let mut mine = Vec::with_capacity(chunks);
            for _ in 0..chunks {
                let w = d.add_task_meta(
                    TaskMeta::new(types::HEAT_COMPUTE, Priority::Low).with_affinity(n),
                );
                d.set_tag(w, it as u64);
                d.add_edge(comm, w);
                mine.push(w);
            }
            cur.push(mine);
        }
        prev_chunks = cur;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::Policy;
    use das_topology::Topology;

    #[test]
    fn sequential_conserves_boundary() {
        let rows = 12;
        let cols = 10;
        let g = sequential(rows, cols, 25);
        for (c, &v) in g.iter().take(cols).enumerate() {
            assert_eq!(v, 100.0, "top edge fixed at column {c}");
        }
        for r in 1..rows {
            assert_eq!(g[r * cols], 50.0, "left edge fixed");
        }
        // Interior warmed up by diffusion from the hot edges.
        assert!(g[cols + 1] > 0.0);
    }

    #[test]
    fn shared_matches_sequential() {
        let (rows, cols, iters) = (18, 14, 12);
        let reference = sequential(rows, cols, iters);
        for policy in [Policy::Rws, Policy::RwsmC, Policy::DamC] {
            let rt = Runtime::new(Arc::new(Topology::symmetric(4)), policy);
            let got = run_shared(&rt, rows, cols, iters, 4);
            for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{policy} mismatch at {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn shared_single_block_single_iter() {
        let reference = sequential(5, 5, 1);
        let rt = Runtime::new(Arc::new(Topology::symmetric(2)), Policy::Rws);
        let got = run_shared(&rt, 5, 5, 1, 1);
        assert_eq!(got, reference);
    }

    #[test]
    fn distributed_matches_sequential() {
        let (rows, cols, iters) = (20, 12, 10);
        let reference = sequential(rows, cols, iters);
        let got = run_distributed(
            |_rank| Runtime::new(Arc::new(Topology::symmetric(2)), Policy::DamC),
            3,
            rows,
            cols,
            iters,
            2,
        );
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn distributed_single_rank_degenerates_to_shared() {
        let reference = sequential(10, 8, 5);
        let got = run_distributed(
            |_| Runtime::new(Arc::new(Topology::symmetric(2)), Policy::Rws),
            1,
            10,
            8,
            5,
            2,
        );
        assert_eq!(got, reference);
    }

    #[test]
    fn cluster_dag_shape() {
        let d = cluster_dag(4, 16, 10, 1e-3);
        d.validate().unwrap();
        assert_eq!(d.len(), 4 * 17 * 10);
        // One high-priority comm task per node per iteration.
        assert_eq!(d.num_high_priority(), 40);
        // Comm tasks are node-affine.
        for (_, n) in d.iter() {
            assert!(n.meta.node_affinity.is_some());
        }
        // Roots: iteration-0 comm tasks only.
        assert_eq!(d.roots().len(), 4);
    }
}
