//! Heap allocations per job on the cluster's submit path, counted by a
//! std-only counting `GlobalAlloc`, next to the bare simulator's count
//! for the same stream.
//!
//! A sim node runs inline in the dispatcher, so a submit loop into a
//! 1-node sim cluster runs on the submitting thread alone: routing, the
//! spec ledger, the node's agent and its simulator. Its allocations are
//! therefore an exact count, like the simulator's own
//! (`tests/sim_alloc.rs`), and only the submitting thread is counted,
//! through a thread-local gate. Both executors are warm: one stream
//! has been submitted and drained through each before the counted
//! loop.
//!
//! What the cluster adds per job is its tier tax in allocations: the
//! one-job batch and its sub-batch, the ledger's copy of the spec, the
//! acknowledgement and the route entry.

use das::cluster::ClusterBuilder;
use das::core::jobs::JobSpec;
use das::core::Policy;
use das::dag::Dag;
use das::exec::{Executor, SessionBuilder};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
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

/// Jobs in the counted stream.
const JOBS: u64 = 500;

/// The `cluster_failover` benchmark's job shape and node: a seeded
/// Poisson stream of mixed jobs on a 64-core grid.
fn stream(seed: u64) -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(seed, JOBS as usize, 200.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .generate()
}

fn session() -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::grid(1, 8, 8)), Policy::DamC).seed(7)
}

/// The allocations of a submit loop of the second of two streams into
/// `exec`, the first one submitted and drained.
fn warm_submit_loop(exec: &mut dyn Executor<Graph = Dag>) -> u64 {
    for spec in stream(1) {
        exec.submit(spec).expect("warm-up job admitted");
    }
    exec.drain().expect("warm-up stream drains");
    let jobs = stream(2);
    let (allocs, tickets) = counted(|| {
        jobs.into_iter()
            .map(|spec| exec.submit(spec).expect("job admitted"))
            .count()
    });
    assert_eq!(tickets as u64, JOBS);
    assert_eq!(exec.drain().expect("stream drains").jobs.len() as u64, JOBS);
    allocs
}

#[test]
fn a_one_node_sim_cluster_pins_its_submit_allocations_per_job() {
    let bare = warm_submit_loop(&mut Simulator::from_session(&session()));
    let cluster = warm_submit_loop(&mut ClusterBuilder::new(session(), 1).build_sim());
    println!(
        "submit loop of {JOBS} jobs: bare simulator {bare} allocations, \
         1-node sim cluster {cluster} ({:.1} per job)",
        cluster as f64 / JOBS as f64
    );
    // The simulator buffers a job in about seven allocations.
    assert_eq!(bare, 3_486, "bare simulator");
    // The cluster adds about 27 per job, most of them the ledger's copy
    // of the job's graph (its name and one successor list per task).
    // This count may only move down.
    assert_eq!(cluster, 17_068, "1-node sim cluster");
}
