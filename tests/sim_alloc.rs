//! Heap allocations of a warm simulator run, counted by a std-only
//! counting `GlobalAlloc`.
//!
//! The simulator is single-threaded and seeded, so the allocations of
//! one run are an exact count, not a sample: what a run allocates is
//! its per-run setup and the growth of its queues and histograms, and
//! the idle path — herd wake-ups, batch polls, failing steals — must
//! add nothing to it. The pin is taken on the `sim_critical256` shape
//! (256 cores, rolling interference, a quarter of the tasks critical),
//! on the second run of one `Simulator`, whose engine buffers the first
//! run has already grown.
//!
//! Only the simulating thread is counted, through a thread-local gate:
//! the test harness's main thread runs next to the test and has been
//! seen to allocate inside a counted window (`tests/runtime_alloc.rs`).

use das::core::{Policy, TaskTypeId};
use das::dag::{generators, Dag, TaskId};
use das::sim::cost::UniformCost;
use das::sim::{RunStats, Scenario, SimConfig, Simulator};
use das::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations and reallocations of threads whose gate is
/// open, then defers to `System`.
struct Counting;

thread_local! {
    /// Open while this thread's allocations are counted.
    static GATE: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while its gate was open.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: a thread being torn down may still free and allocate
    // after its thread-locals are gone; it is not counted.
    let _ = GATE.try_with(|gate| {
        if gate.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `tally` touches two
// const-initialised thread-locals without destructors, which neither
// allocate nor unwind.
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

/// Run `f` on this thread with its allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.with(|n| n.set(0));
    GATE.with(|g| g.set(true));
    let out = f();
    GATE.with(|g| g.set(false));
    (ALLOCS.with(Cell::get), out)
}

/// The layered DAG with seeded per-task work, as the pin in
/// `tests/sim_determinism.rs` builds it.
fn seeded_dag(seed: u64, layers: usize) -> Dag {
    let mut dag = generators::layered(TaskTypeId(0), 4, layers);
    for i in 0..dag.len() {
        let scale = 0.5 + ((seed as usize + i * 7) % 10) as f64 / 10.0;
        dag.set_work_scale(TaskId(i as u32), scale);
    }
    dag
}

/// The allocations of the second of two runs of `dag` on one simulator
/// of the benchmark shape, and that run's stats.
fn warm_run(seed: u64, dag: &Dag) -> (u64, RunStats) {
    let topo = Arc::new(Topology::grid(1, 16, 16));
    let mut sim = Simulator::new(
        SimConfig::new(Arc::clone(&topo), Policy::DamC)
            .seed(seed)
            .cost(Arc::new(UniformCost::new(1e-3))),
    );
    sim.set_env(Scenario::rolling_interference(&topo, 0.5, 0.05, 2.0).environment(topo));
    sim.run(dag).expect("the first run completes");
    let (allocs, stats) = counted(|| sim.run(dag));
    (allocs, stats.expect("the second run completes"))
}

#[test]
fn a_warm_run_allocates_a_pinned_count() {
    let dag = seeded_dag(7, 100);
    let (allocs, stats) = warm_run(7, &dag);
    // Most of the run's events are polls of a herd wake-up.
    assert!(
        stats.failed_steals as u64 > stats.events / 2,
        "{} failed steals in {} events",
        stats.failed_steals,
        stats.events
    );
    // What is left is per-run setup, assembly slots and the run's
    // place and tag histograms. Before `reset` kept the core queues'
    // buffers, this read 411.
    assert_eq!(allocs, 176, "allocations of a warm 400-task run");
}
