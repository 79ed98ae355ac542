//! Heap allocations per job on the threaded runtime, counted by a
//! std-only counting `GlobalAlloc`.
//!
//! Wall-clock throughput on a small host is noisy; allocation counts
//! are not. On one worker a width-1 place its worker leads runs inline
//! with no `Assembly`, so a chain costs a fixed number of allocations
//! per job whatever its length, rather than one shared assembly per
//! task. The fixed part includes std's container growth, which a std
//! release may change, so it is bounded from above; that it does not
//! grow with the task count is checked exactly, by comparing a 64-task
//! chain with a 512-task one. On two workers thread timing enters, and
//! the count is bounded in terms of the job's wide placements instead.
//!
//! Every measurement lives in one `#[test]`: the counter is global, and
//! a second test running on another harness thread would add its own
//! allocations to the window. The harness's main thread still runs
//! next to the test: under CPU contention it has been seen to make its
//! first allocations (four, while it starts waiting for the test's
//! result) inside the first window. One worker's figures are therefore
//! the least of three windows, which a one-off cannot all reach.

use das::core::{Policy, Priority, TaskTypeId};
use das::runtime::{JobSpec, RtStats, Runtime, TaskGraph};
use das::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tally() {
    // relaxed-ok: a statistic, read only after the counted work is
    // joined (see `allocs`).
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `tally` is one atomic add
// and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    // relaxed-ok: every counted allocation happened-before this read —
    // the waited job's completion handshake orders the worker's work.
    ALLOCS.load(Ordering::Relaxed)
}

const TY: TaskTypeId = TaskTypeId(0);

/// `len` dependent `High` no-ops.
fn chain(len: usize) -> TaskGraph {
    let mut g = TaskGraph::new("chain");
    let mut prev = g.add(TY, Priority::High, |_| {});
    for _ in 1..len {
        let t = g.add(TY, Priority::High, |_| {});
        g.add_edge(prev, t);
        prev = t;
    }
    g
}

/// A `Low` root releasing 64 no-ops, every eighth `High`.
fn fanout() -> TaskGraph {
    let mut g = TaskGraph::new("fanout");
    let root = g.add(TY, Priority::Low, |_| {});
    for i in 0..64 {
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

/// Jobs per counted window.
const JOBS: usize = 64;

/// Run `warm` waited jobs of `graph`, then `JOBS` more inside the
/// counted window, one at a time. Graphs are cloned before the window
/// opens. Returns the window's allocations per job and every counted
/// job's stats.
fn per_job(rt: &Runtime, graph: &TaskGraph, warm: usize) -> (f64, Vec<RtStats>) {
    for _ in 0..warm {
        rt.submit(JobSpec::new(graph.clone()))
            .expect("valid graph")
            .wait();
    }
    let specs: Vec<_> = (0..JOBS).map(|_| JobSpec::new(graph.clone())).collect();
    let mut stats = Vec::with_capacity(JOBS);
    let before = allocs();
    for spec in specs {
        let out = rt.submit(spec).expect("valid graph").wait();
        stats.push(out.rt);
    }
    let counted = allocs() - before;
    (counted as f64 / JOBS as f64, stats)
}

/// The least of three [`per_job`] windows' allocations per job.
fn least_per_job(rt: &Runtime, graph: &TaskGraph) -> f64 {
    (0..3)
        .map(|_| per_job(rt, graph, 8).0)
        .fold(f64::INFINITY, f64::min)
}

/// Placements of width > 1 over the counted jobs.
fn wide_places(stats: &[RtStats]) -> usize {
    stats
        .iter()
        .flat_map(|st| st.all_places.iter())
        .filter(|((_, width), _)| *width > 1)
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn allocations_per_job_are_pinned() {
    // One worker: every place is width 1 and led by the worker itself,
    // so every task runs inline and a job's allocations do not depend
    // on its task count. Before width-1 places ran inline these read
    // 530 and 87.
    let rt = Runtime::new(Arc::new(Topology::symmetric(1)), Policy::DamC);
    let short_w1 = least_per_job(&rt, &chain(64));
    let chain_w1 = least_per_job(&rt, &chain(512));
    let fanout_w1 = least_per_job(&rt, &fanout());
    assert_eq!(
        short_w1, chain_w1,
        "allocations per job, 64-task vs 512-task chain, W = 1"
    );
    assert!(
        chain_w1 <= 18.0,
        "{chain_w1} allocations per 512-task chain job, W = 1"
    );
    assert!(
        fanout_w1 <= 22.0,
        "{fanout_w1} allocations per 65-task fan-out job, W = 1"
    );
    drop(rt);

    // Two workers: under `DamC` a width-1 place is always led by the
    // worker that dispatches it (a pinned place sits in its leader's
    // unstealable queue; the local search's width-1 place is the
    // searching core's own), so it runs inline, and only a wide place
    // allocates a shared assembly. Queue buffers grow by doubling: each
    // worker's WSQ and AQ can reallocate at most ceil(log2(65)) = 7
    // times on the way to one job's 65 tasks, 28 in all; a harness
    // one-off (above) fits in the same slack.
    let rt = Runtime::new(Arc::new(Topology::symmetric(2)), Policy::DamC);
    for (graph, base) in [(chain(512), chain_w1), (fanout(), fanout_w1)] {
        let (got, stats) = per_job(&rt, &graph, 8);
        let wide = wide_places(&stats);
        let bound = base + (wide + 28) as f64 / JOBS as f64;
        assert!(
            got <= bound,
            "{}: {got} allocations per job on W = 2 > {bound} ({wide} wide places in {JOBS} jobs)",
            graph.shape().name()
        );
    }
}
