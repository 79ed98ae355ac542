//! Ingress-tier integration: the sharded concurrent front door
//! (`das_core::Ingress`) over the *real* backends — the bare simulator
//! and the multi-node cluster — complementing the module's own unit
//! tests (which run against a toy executor).
//!
//! Pinned here:
//!
//! * a single-lane ingress over a `Simulator` is **bit-identical** to
//!   driving the bare backend directly (the group-commit path adds
//!   nothing and loses nothing);
//! * four concurrent lanes on four distinct shards over a `Simulator`
//!   give the same id-free schedule on every run — the same multiset
//!   of (arrival, start, completion) — although which job gets which
//!   backend id depends on where thread timing cut the flush batches;
//! * the admission bound is exact even under concurrent submitters —
//!   with no retirements, exactly `max_outstanding` jobs are admitted
//!   no matter how the threads interleave;
//! * an ingress over a 4-node all-sim cluster accounts every job
//!   exactly once under concurrent lanes, and its claims redeem
//!   against cluster records.

use das::cluster::{ClusterBuilder, RoutePolicy};
use das::core::jobs::JobSpec;
use das::core::Policy;
use das::dag::{generators, Dag};
use das::exec::{ExecError, Executor, SessionBuilder};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das_core::{Ingress, TaskTypeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn base_session(seed: u64) -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
}

fn stream() -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(42, 12, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .slack(30.0)
        .generate()
}

fn chain_job(j: usize) -> JobSpec<Dag> {
    JobSpec::new(generators::chain(TaskTypeId(0), 4)).at(j as f64 * 1e-3)
}

#[test]
fn single_lane_ingress_over_the_simulator_matches_the_bare_backend() {
    let jobs = stream();
    let session = base_session(7);

    let mut bare = Simulator::from_session(&session);
    for spec in jobs.clone() {
        Executor::submit(&mut bare, spec).expect("accepted");
    }
    let bare_drain = Executor::drain(&mut bare).expect("drains");
    let bare_extras = bare.take_extras();

    let ing = Ingress::new(Simulator::from_session(&session), &session);
    for spec in jobs {
        ing.submit(0, spec).expect("accepted");
    }
    let ing_drain = ing.drain().expect("drains");
    let ing_extras = ing.take_extras();

    assert_eq!(ing_drain, bare_drain, "records bit-identical");
    assert_eq!(ing_extras, bare_extras, "extras bit-identical");
}

#[test]
fn distinct_lanes_over_the_simulator_give_one_id_free_schedule() {
    // 64 Poisson `Mixed` jobs dealt round-robin to 4 lanes whose
    // shards are distinct. Group commit cuts batches wherever thread
    // timing puts them, so backend ids vary from run to run; the
    // simulator schedules by arrival time, so the schedule does not.
    let jobs = StreamConfig::poisson(42, 64, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .slack(30.0)
        .generate();
    const LANES: usize = 4;
    let session = base_session(7);
    let probe = Ingress::new(Simulator::from_session(&session), &session);
    let mut lanes: Vec<u64> = Vec::new();
    let mut shards = Vec::new();
    for lane in 0..64u64 {
        let s = probe.shard_of(lane);
        if lanes.len() < LANES && !shards.contains(&s) {
            lanes.push(lane);
            shards.push(s);
        }
    }
    assert_eq!(lanes.len(), LANES, "lanes on distinct shards");
    let schedule = || {
        let ing = Ingress::new(Simulator::from_session(&session), &session);
        std::thread::scope(|scope| {
            for (k, &lane) in lanes.iter().enumerate() {
                let (ing, jobs) = (&ing, &jobs);
                scope.spawn(move || {
                    for spec in jobs.iter().skip(k).step_by(LANES) {
                        ing.submit(lane, spec.clone()).expect("unbounded");
                    }
                });
            }
        });
        let mut times: Vec<[u64; 3]> = ing
            .drain()
            .expect("drains")
            .jobs
            .iter()
            .map(|j| [j.arrival, j.started, j.completed].map(f64::to_bits))
            .collect();
        times.sort_unstable();
        times
    };
    let first = schedule();
    assert_eq!(first.len(), 64);
    for run in 1..20 {
        assert_eq!(schedule(), first, "run {run}: the id-free schedule moved");
    }
}

#[test]
fn admission_bound_is_exact_under_concurrent_submitters() {
    // 8 lanes race 64 submissions against a bound of 32 with no
    // retirements: the padded fetch-add gate admits *exactly* 32, no
    // matter the interleaving, and typed Overloaded sheds the rest.
    let ing = Arc::new(Ingress::with_config(
        Simulator::from_session(&base_session(3)),
        8,
        Some(32),
        42,
    ));
    let accepted = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for lane in 0..8u64 {
            let (ing, accepted, shed) = (Arc::clone(&ing), &accepted, &shed);
            scope.spawn(move || {
                for k in 0..8 {
                    match ing.submit(lane, chain_job(k)) {
                        Ok(_) => accepted.fetch_add(1, Ordering::Relaxed), // relaxed-ok: test counter; the scope join orders the read
                        Err(ExecError::Overloaded { limit, .. }) => {
                            assert_eq!(limit, 32);
                            shed.fetch_add(1, Ordering::Relaxed) // relaxed-ok: test counter; the scope join orders the read
                        }
                        Err(other) => panic!("unexpected error: {other:?}"),
                    };
                }
            });
        }
    });
    assert_eq!(accepted.load(Ordering::Relaxed), 32); // relaxed-ok: read after wait(); job completion orders the counters
    assert_eq!(shed.load(Ordering::Relaxed), 32); // relaxed-ok: read after wait(); job completion orders the counters
    assert_eq!(ing.outstanding(), 32);
    // Every admitted job reaches the backend and retires on drain…
    assert_eq!(ing.drain().expect("drains").jobs.len(), 32);
    assert_eq!(ing.outstanding(), 0);
    // …and the freed slots admit new work.
    ing.submit(0, chain_job(0)).expect("recovered after drain");
    ing.drain().expect("final drain");
}

#[test]
fn concurrent_ingress_over_a_cluster_accounts_every_job_once() {
    // The full stack: lanes → shards → group commit → one
    // submit_many → one wire message per node → 4 sim nodes.
    let cluster = ClusterBuilder::new(base_session(9), 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    let ing = Arc::new(Ingress::with_config(cluster, 8, None, 42));
    let lanes = 4usize;
    let per_lane = 25usize;
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let ing = Arc::clone(&ing);
            scope.spawn(move || {
                for k in 0..per_lane {
                    ing.submit(lane as u64, chain_job(k)).expect("unbounded");
                }
            });
        }
    });
    let drained = ing.drain().expect("drains");
    assert_eq!(drained.jobs.len(), lanes * per_lane);
    assert_eq!(ing.outstanding(), 0);
    // Dense cluster ids: nothing lost, nothing duplicated across the
    // batch frames.
    let mut ids: Vec<u64> = drained.jobs.iter().map(|j| j.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..(lanes * per_lane) as u64).collect::<Vec<_>>());
    assert!(drained.jobs.iter().all(|j| j.tasks == 4));
}

#[test]
fn ingress_claims_redeem_against_the_cluster_backend() {
    let cluster = ClusterBuilder::new(base_session(5), 2).build_sim();
    let ing = Ingress::new(cluster, &base_session(5));
    let tickets: Vec<_> = (0..3)
        .map(|j| ing.submit(0, chain_job(j)).expect("accepted"))
        .collect();
    let mut tickets = tickets.into_iter();
    let t0 = tickets.next().unwrap();
    let stats = ing.wait(t0).expect("claim redeems through the wire");
    assert_eq!(stats.tasks, 4);
    assert_eq!(ing.outstanding(), 2);
    assert_eq!(ing.drain().expect("drains").jobs.len(), 2);
}
