//! Regression tests for the runtime worker lost-wakeup window.
//!
//! Pre-fix, the worker loop scanned its queues, found nothing, and
//! called `Condvar::wait_for` — with no synchronisation between the
//! scan and the wait. A task pushed (and notified) inside that window
//! found no waiter: the notification was lost and the worker slept the
//! full park timeout (`PARK_TIMEOUT`, 10 ms by default) before
//! rediscovering the work by rescanning. The fix is the epoch-based
//! `IdleParker`: producers bump a generation counter before notifying,
//! and `park` refuses to sleep if the epoch moved since the pre-scan
//! `prepare`.
//!
//! A worker does not notify for work only it can take (a pinned entry
//! in its own queue; a width-1 place it leads is no push at all, it
//! runs inline; see `IdleParker::notify`). The cross-worker shapes at
//! the end guard the wake-ups that must still happen.

// This test measures real elapsed time on purpose: the property under
// test *is* the wall-clock latency of the wakeup path.
#![allow(clippy::disallowed_methods)]
use das::core::{Policy, Priority, TaskMeta, TaskTypeId};
use das::runtime::{IdleParker, JobSpec, Runtime, TaskGraph};
use das::topology::{CoreId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The distilled lost-wakeup interleaving, made deterministic: work
/// arrives (notify) after the idle worker's queue scan (prepare) but
/// before it blocks (park). The pre-fix equivalent — a bare `wait_for`
/// with no epoch token — sleeps the full timeout here; this test runs
/// it with a 5-second timeout, so against the pre-fix loop it fails by
/// timing out the latency bound.
#[test]
fn notify_in_the_scan_to_park_window_is_not_lost() {
    let parker = IdleParker::new();
    let token = parker.prepare();
    // ... the worker scans its queues and finds nothing ...
    parker.notify(); // a task is pushed exactly in the window
    let t0 = Instant::now();
    let woken = parker.park(token, Duration::from_secs(5));
    let waited = t0.elapsed();
    assert!(woken, "the epoch move must be reported as a wakeup");
    assert!(
        waited < Duration::from_millis(500),
        "lost wakeup: parked {waited:?} despite a pending notification"
    );
}

/// End-to-end idle-dispatch latency bound. The park timeout is raised
/// to 2 s, so any lost wakeup turns into a ~2 s stall per job; with the
/// epoch parker, jobs submitted to a fully idle pool dispatch promptly.
/// 20 sequential one-task jobs must finish in far less than one park
/// timeout in total.
#[test]
fn idle_dispatch_latency_is_bounded() {
    let topo = Arc::new(Topology::symmetric(2));
    let rt = Runtime::new(topo, Policy::Rws).park_timeout(Duration::from_secs(2));
    // Warm the pool so worker-thread startup cost is not measured.
    let mut warm = TaskGraph::new("warm");
    warm.add(TaskTypeId(0), Priority::Low, |_| {});
    rt.submit(JobSpec::new(warm)).unwrap().wait();

    let t0 = Instant::now();
    for _ in 0..20 {
        // Every submission lands on a fully idle (parked or about to
        // park) pool: each one crosses the scan-to-park window.
        let mut g = TaskGraph::new("tick");
        g.add(TaskTypeId(0), Priority::Low, |_| {});
        rt.submit(JobSpec::new(g)).unwrap().wait();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "20 idle dispatches took {elapsed:?}; a lost wakeup would cost \
         up to 2 s each"
    );
}

/// Run `g` 20 times on `rt` (built with a 1 s park timeout) and fail
/// on the first job that takes over 500 ms: a wake-up left to the
/// timer stalls its job for the whole second. Returns the last job's
/// place histogram so callers can check the shape they meant to build.
fn every_job_is_prompt(rt: &Runtime, g: &TaskGraph) -> BTreeMap<(usize, usize), usize> {
    let mut places = BTreeMap::new();
    for k in 0..20 {
        let t0 = Instant::now();
        let handle = rt.submit(JobSpec::new(g.clone())).expect("valid graph");
        places = handle.wait().rt.all_places;
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "job {k} took {took:?}: a wake-up was left to the park timeout"
        );
    }
    places
}

/// Every hop crosses workers: on one core per node, a chain alternates
/// a `Low` task bound to node 0 and a `High` one bound to node 1, so
/// each wake-up pushes into the other worker's queue (the `High` ones
/// pinned) and that worker must be woken.
#[test]
fn cross_worker_pinned_hops_wake_their_owner() {
    let topo = Topology::builder()
        .node(0)
        .cluster("n0", 1, 1.0)
        .node(1)
        .cluster("n1", 1, 1.0)
        .build();
    let rt = Runtime::new(Arc::new(topo), Policy::DamC).park_timeout(Duration::from_secs(1));
    let mut g = TaskGraph::new("ping-pong");
    let mut prev = None;
    for i in 0..8 {
        let meta = if i % 2 == 0 {
            TaskMeta::new(TaskTypeId(0), Priority::Low).with_affinity(0)
        } else {
            TaskMeta::new(TaskTypeId(0), Priority::High).with_affinity(1)
        };
        let t = g.add_meta(meta, |_| {});
        if let Some(p) = prev {
            g.add_edge(p, t);
        }
        prev = Some(t);
    }
    let places = every_job_is_prompt(&rt, &g);
    assert_eq!(places, BTreeMap::from([((0, 1), 4), ((1, 1), 4)]));
}

/// Every hop needs its partner: with width 2 seeded cheapest, each
/// critical task is a 2-wide assembly whose leader must wake the other
/// member, even though the leader dispatches it itself.
#[test]
fn wide_assemblies_wake_their_partner() {
    let topo = Arc::new(Topology::symmetric(2));
    let rt = Runtime::new(topo, Policy::DamC).park_timeout(Duration::from_secs(1));
    let ptt = rt.scheduler().ptts().table(TaskTypeId(0));
    ptt.seed(CoreId(0), 1, 1.0);
    ptt.seed(CoreId(1), 1, 1.0);
    ptt.seed(CoreId(0), 2, 1e-9);
    let mut g = TaskGraph::new("wide-chain");
    let mut prev = g.add(TaskTypeId(0), Priority::High, |_| {});
    for _ in 1..8 {
        let t = g.add(TaskTypeId(0), Priority::High, |_| {});
        g.add_edge(prev, t);
        prev = t;
    }
    let places = every_job_is_prompt(&rt, &g);
    assert_eq!(places, BTreeMap::from([((0, 2), 8)]));
}
