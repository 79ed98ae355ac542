//! The cluster-tier differential harness (the acceptance tests of the
//! das-cluster subsystem):
//!
//! * a **1-node sim cluster is bit-identical to a bare `Simulator`
//!   session** built from the same `SessionBuilder` — the dispatcher,
//!   the message-layer control plane and the wire round-trip add
//!   nothing and lose nothing;
//! * an **N-node sim cluster under a fixed seed is bit-reproducible
//!   across runs and completes the same job set as the merged
//!   single-node baseline**, for every `RoutePolicy` (per-node
//!   determinism + seeded routing ⇒ cluster determinism);
//! * the cluster satisfies the same generic `Executor` contract checks
//!   every backend satisfies (it *is* a backend), including on
//!   `das-runtime` nodes.

use das::cluster::{ClusterBuilder, RoutePolicy};
use das::core::jobs::{JobId, JobSpec, StreamStats};
use das::core::Policy;
use das::dag::{generators, Dag};
use das::exec::{ExecError, ExecReport, Executor, SessionBuilder, Ticket};
use das::runtime::TaskGraph;
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das_core::TaskTypeId;
use std::sync::Arc;

/// The seeded stream every section executes.
fn stream() -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(42, 14, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .slack(30.0)
        .generate()
}

fn base_session(seed: u64) -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
}

#[test]
fn one_node_sim_cluster_is_bit_identical_to_a_bare_simulator_session() {
    let jobs = stream();

    let mut bare = Simulator::from_session(&base_session(7));
    let bare_report = Executor::run_stream(&mut bare, jobs.clone()).expect("bare stream");

    let mut cluster = ClusterBuilder::new(base_session(7), 1).build_sim();
    let cluster_report = cluster.run_stream(jobs).expect("cluster stream");

    // Per-job records and stream aggregates: bit for bit, including
    // every timestamp (the wire format is f64 end to end).
    assert_eq!(cluster_report.jobs, bare_report.jobs);
    // The cross-backend counters survive the merge unchanged; the
    // cluster adds only its own attribution values on top.
    assert_eq!(cluster_report.extras.steals, bare_report.extras.steals);
    assert_eq!(cluster_report.extras.events, bare_report.extras.events);
    assert_eq!(
        cluster_report.extras.get("failed_steals"),
        bare_report.extras.get("failed_steals")
    );
    assert_eq!(cluster_report.extras.get("nodes"), Some(1.0));
    assert_eq!(
        cluster_report.extras.get("node0.jobs"),
        Some(bare_report.jobs.jobs.len() as f64)
    );
    assert_eq!(cluster_report.backend, "das-cluster");
}

#[test]
fn n_node_sim_cluster_is_reproducible_and_completes_the_baseline_job_set() {
    let jobs = stream();

    // The merged single-node baseline: every job through one bare
    // simulator session.
    let mut bare = Simulator::from_session(&base_session(11));
    let baseline = Executor::run_stream(&mut bare, jobs.clone()).expect("baseline stream");

    for policy in RoutePolicy::ALL {
        // The matrix is exhaustive by construction: adding a RoutePolicy
        // variant without extending ALL (and this match) stops compiling,
        // and das-lint's contract rule pins each variant to this file.
        let tag = match policy {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::LeastOutstanding => "least-out",
            RoutePolicy::PowerOfTwo => "po2",
            RoutePolicy::LoadShed => "shed",
        };
        let run = || -> ExecReport {
            let mut cluster = ClusterBuilder::new(base_session(11), 4)
                .route(policy)
                .route_seed(99)
                .build_sim();
            cluster.run_stream(jobs.clone()).expect("cluster stream")
        };
        let a = run();
        let b = run();
        // Bit-reproducible end to end: records, aggregates AND the
        // merged extras (which embed the per-node routing counts).
        assert_eq!(a, b, "{tag}: {policy:?} not reproducible");

        // Same job set as the baseline: dense cluster ids in submission
        // order, and — since routing never rewrites a spec — the same
        // per-job task counts, job for job.
        assert_eq!(a.jobs.jobs.len(), baseline.jobs.jobs.len(), "{policy:?}");
        assert_eq!(a.tasks(), baseline.tasks(), "{policy:?}");
        for (c, s) in a.jobs.jobs.iter().zip(&baseline.jobs.jobs) {
            assert_eq!(c.id, s.id, "{policy:?}");
            assert_eq!(c.tasks, s.tasks, "{policy:?}");
            assert_eq!(c.class, s.class, "{policy:?}");
            assert!(
                c.completed >= c.started && c.started >= c.arrival,
                "{policy:?}"
            );
        }
        // Every job was routed somewhere: attribution sums to the set.
        assert_eq!(a.extras.get("nodes"), Some(4.0), "{policy:?}");
        let routed: f64 = (0..4)
            .map(|n| a.extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
            .sum();
        assert_eq!(routed as usize, jobs.len(), "{policy:?}");
        // Round-robin provably shards across all nodes on this stream.
        if policy == RoutePolicy::RoundRobin {
            for n in 0..4 {
                assert!(
                    a.extras.get(&format!("node{n}.jobs")).unwrap_or(0.0) > 0.0,
                    "round-robin left node {n} idle"
                );
            }
        }
    }
}

#[test]
fn cluster_ticket_lifecycle_matches_the_executor_contract() {
    let jobs = stream();
    let n = jobs.len();
    let mut cluster = ClusterBuilder::new(base_session(5), 3)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    let mut tickets: Vec<Ticket> = jobs
        .into_iter()
        .map(|spec| cluster.submit(spec).expect("accepted"))
        .collect();
    let picked = tickets.remove(1);
    let (picked_id, session) = (picked.job(), picked.session());
    let stats = cluster.wait(picked).expect("waited job completes");
    assert_eq!(stats.id, picked_id);
    // The waited record is consumed; the rest drain in id order.
    let rest = cluster.drain().expect("drain completes");
    assert_eq!(rest.jobs.len(), n - 1);
    let drained: Vec<JobId> = rest.jobs.iter().map(|j| j.id).collect();
    let expected: Vec<JobId> = tickets.iter().map(Ticket::job).collect();
    assert_eq!(drained, expected);
    // Stale tickets are rejected with the cluster job id preserved.
    let stale = Ticket::new(session, picked_id);
    assert_eq!(
        cluster.wait(stale),
        Err(ExecError::UnknownTicket(picked_id))
    );
    // An idle cluster drains empty.
    assert!(cluster.drain().expect("empty drain").jobs.is_empty());
}

fn chain_job(j: usize) -> JobSpec<Dag> {
    JobSpec::new(generators::chain(TaskTypeId(0), 4)).at(j as f64 * 1e-3)
}

#[test]
fn cluster_submit_many_is_bit_identical_to_a_submit_loop_for_every_policy() {
    // The batch path routes each job against a locally-updated load
    // view — exactly the `+1` a node's synchronous T_LOAD report would
    // have applied between two looped submissions — so for every
    // policy the assignment, the records and the merged extras must be
    // bit-identical to the equivalent loop.
    let jobs = stream();
    for policy in RoutePolicy::ALL {
        let build = || {
            ClusterBuilder::new(base_session(11), 4)
                .route(policy)
                .route_seed(99)
                .build_sim()
        };

        let mut looped = build();
        let loop_tickets: Vec<Ticket> = jobs
            .iter()
            .map(|spec| looped.submit(spec.clone()).expect("accepted"))
            .collect();
        let loop_nodes: Vec<Option<usize>> =
            loop_tickets.iter().map(|t| looped.node_of(t)).collect();
        let loop_drain = looped.drain().expect("drains");
        let loop_extras = looped.take_extras();

        let mut batched = build();
        let batch_tickets = batched.submit_many(jobs.clone()).expect("batch accepted");
        let batch_nodes: Vec<Option<usize>> =
            batch_tickets.iter().map(|t| batched.node_of(t)).collect();
        let batch_drain = batched.drain().expect("drains");
        let batch_extras = batched.take_extras();

        assert_eq!(batch_tickets.len(), loop_tickets.len(), "{policy:?}");
        for (b, l) in batch_tickets.iter().zip(&loop_tickets) {
            assert_eq!(b.job(), l.job(), "{policy:?}: dense ids in batch order");
        }
        assert_eq!(batch_nodes, loop_nodes, "{policy:?}: identical routing");
        assert_eq!(batch_drain, loop_drain, "{policy:?}: records bit-identical");
        assert_eq!(
            batch_extras, loop_extras,
            "{policy:?}: extras bit-identical"
        );
    }
}

#[test]
fn batch_submission_issues_one_wire_message_per_touched_node() {
    // The whole point of the batch path: one control message per node
    // with a non-empty sub-batch, regardless of batch size — against a
    // loop's one message per job.
    let mut cluster = ClusterBuilder::new(base_session(21), 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();

    // A p2p submission costs exactly one wire message.
    let before = cluster.wire_messages_sent();
    cluster.submit(chain_job(0)).expect("accepted");
    assert_eq!(cluster.wire_messages_sent() - before, 1);

    // An 8-job batch over 4 round-robin nodes: 4 messages, not 8.
    let before = cluster.wire_messages_sent();
    let tickets = cluster
        .submit_many((1..9).map(chain_job).collect())
        .expect("batch accepted");
    assert_eq!(tickets.len(), 8);
    assert_eq!(cluster.wire_messages_sent() - before, 4);

    // A 64-job batch: still 4 — the cost is per touched node, not per
    // job.
    let before = cluster.wire_messages_sent();
    let tickets = cluster
        .submit_many((9..73).map(chain_job).collect())
        .expect("large batch accepted");
    assert_eq!(tickets.len(), 64);
    assert_eq!(cluster.wire_messages_sent() - before, 4);

    // A single-job batch degenerates to the p2p cost.
    let before = cluster.wire_messages_sent();
    cluster
        .submit_many(vec![chain_job(73)])
        .expect("singleton batch accepted");
    assert_eq!(cluster.wire_messages_sent() - before, 1);

    // An empty batch is rejected at the façade: zero wire traffic.
    let before = cluster.wire_messages_sent();
    assert!(matches!(
        cluster.submit_many(Vec::new()),
        Err(ExecError::Rejected(_))
    ));
    assert_eq!(cluster.wire_messages_sent() - before, 0);

    // The unamortised baseline, for contrast: a loop pays per job.
    let before = cluster.wire_messages_sent();
    for j in 74..82 {
        cluster.submit(chain_job(j)).expect("accepted");
    }
    assert_eq!(cluster.wire_messages_sent() - before, 8);

    // Everything above round-trips intact: 1 + 8 + 64 + 1 + 8 jobs
    // with dense cluster ids and unmangled graphs.
    let stats = cluster.drain().expect("drains");
    assert_eq!(stats.jobs.len(), 82);
    for (j, s) in stats.jobs.iter().enumerate() {
        assert_eq!(s.id, JobId(j as u64), "dense ids across batch sizes");
        assert_eq!(s.tasks, 4, "every chain job intact");
    }
}

#[test]
fn a_single_job_batch_is_bit_identical_to_a_p2p_submission() {
    let jobs = stream();
    let build = || {
        ClusterBuilder::new(base_session(17), 4)
            .route(RoutePolicy::PowerOfTwo)
            .route_seed(5)
            .build_sim()
    };
    let mut p2p = build();
    for spec in jobs.clone() {
        p2p.submit(spec).expect("accepted");
    }
    let p2p_sent = p2p.wire_messages_sent();
    let p2p_drain = p2p.drain().expect("drains");
    let p2p_extras = p2p.take_extras();

    let mut batched = build();
    for spec in jobs {
        let tickets = batched.submit_many(vec![spec]).expect("accepted");
        assert_eq!(tickets.len(), 1);
    }
    assert_eq!(batched.wire_messages_sent(), p2p_sent, "same wire cost");
    assert_eq!(batched.drain().expect("drains"), p2p_drain);
    assert_eq!(batched.take_extras(), p2p_extras);
}

#[test]
fn load_shed_routes_around_full_nodes_and_sheds_only_when_all_are_full() {
    // Node 0 admits 1 job, node 1 admits 3: LoadShed must never select
    // a full node while a non-full node exists, and must shed (typed
    // Overloaded) only when every node is full — recovering after a
    // drain.
    let sessions: Vec<SessionBuilder> = [1usize, 3]
        .iter()
        .enumerate()
        .map(|(i, &limit)| base_session(11 + i as u64).max_outstanding(limit))
        .collect();
    let mut cluster = ClusterBuilder::from_sessions(sessions)
        .route(RoutePolicy::LoadShed)
        .build_sim();

    let expected_nodes = [0usize, 1, 1, 1];
    let tickets: Vec<Ticket> = (0..4)
        .map(|j| {
            cluster
                .submit(chain_job(j))
                .expect("a node has a free slot")
        })
        .collect();
    for (t, &node) in tickets.iter().zip(&expected_nodes) {
        assert_eq!(
            cluster.node_of(t),
            Some(node),
            "full nodes are routed around, ties to the lowest id"
        );
    }
    // Every node full: the shed is typed with the cluster-wide pressure.
    match cluster.submit(chain_job(4)) {
        Err(ExecError::Overloaded { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (4, 4));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // A batch that cannot be fully placed admits nothing.
    assert!(matches!(
        cluster.submit_many(vec![chain_job(5), chain_job(6)]),
        Err(ExecError::Overloaded { .. })
    ));

    // Drain retires everything and the cluster recovers; the batch
    // path routes around fullness exactly like the loop.
    assert_eq!(cluster.drain().expect("drains").jobs.len(), 4);
    let batch = cluster
        .submit_many((0..4).map(chain_job).collect())
        .expect("slots freed");
    let nodes: Vec<Option<usize>> = batch.iter().map(|t| cluster.node_of(t)).collect();
    assert_eq!(nodes, expected_nodes.map(Some).to_vec());
    assert_eq!(cluster.drain().expect("drains").jobs.len(), 4);
}

#[test]
fn overloaded_stream_conserves_jobs_and_its_sojourn_p99_is_reproducible() {
    // 4 nodes x 64 slots under LoadShed, offered 320 jobs at twice the
    // arrival rate of `stream()`: the 257th submission finds every node
    // full. The client applies backpressure — drain the backlog, retry
    // once, count the job as shed if the retry is refused too. Sojourn
    // is simulated time, so the p99 is a function of the seeds alone.
    let run = || {
        let sessions: Vec<SessionBuilder> = (0..4)
            .map(|i| base_session(21 + i).max_outstanding(64))
            .collect();
        let mut cluster = ClusterBuilder::from_sessions(sessions)
            .route(RoutePolicy::LoadShed)
            .route_seed(21)
            .build_sim();
        let jobs = StreamConfig::poisson(21, 320, 500.0)
            .shape(JobShape::Mixed {
                parallelism: 4,
                layers: 6,
            })
            .generate();
        let offered = jobs.len();
        let (mut completed, mut drains, mut shed) = (Vec::new(), 0usize, 0usize);
        for spec in jobs {
            match cluster.submit(spec.clone()) {
                Ok(_) => {}
                Err(ExecError::Overloaded { .. }) => {
                    completed.extend(cluster.drain().expect("backlog drains").jobs);
                    drains += 1;
                    if cluster.submit(spec).is_err() {
                        shed += 1;
                    }
                }
                Err(e) => panic!("overload stream: {e:?}"),
            }
        }
        completed.extend(cluster.drain().expect("final drain").jobs);
        let stats = StreamStats::from_jobs(completed);
        let p99 = stats.sojourn_percentile(0.99).expect("jobs completed");
        (offered, stats.jobs.len(), drains, shed, p99)
    };
    let (offered, completed, drains, shed, p99) = run();
    assert!(drains >= 1, "the backpressure path ran");
    assert_eq!(offered, completed + shed, "no job lost or duplicated");
    assert!(p99 > 0.0);
    assert_eq!(run().4.to_bits(), p99.to_bits(), "p99 is bit-reproducible");
}

#[test]
fn a_rejecting_sub_batch_loses_only_its_own_node() {
    // Round-robin over 2 nodes: the valid job goes to node 0, the
    // invalid one to node 1. Node 1 admits nothing (backend batches
    // are atomic on validation); node 0's sub-batch stays admitted and
    // surfaces in the next drain — the batch analogue of the bare
    // backends' failed-batch semantics.
    let mut cluster = ClusterBuilder::new(base_session(13), 2)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    let err = cluster
        .submit_many(vec![chain_job(0), JobSpec::new(Dag::new("empty"))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Rejected(_)), "{err:?}");
    let stats = cluster.drain().expect("drains");
    assert_eq!(stats.jobs.len(), 1, "node 0's sub-batch survived");
    assert_eq!(stats.jobs[0].tasks, 4);
    // The cluster keeps serving.
    let t = cluster
        .submit(chain_job(1))
        .expect("healthy after the error");
    assert_eq!(cluster.wait(t).expect("completes").tasks, 4);
}

#[test]
fn runtime_cluster_completes_the_same_stream_through_the_same_client() {
    // The point of the tier: the identical generic client drives a
    // fleet of threaded worker pools with zero changes.
    let jobs = stream();
    let rt_jobs: Vec<JobSpec<TaskGraph>> = jobs.iter().map(TaskGraph::noop_job_from_dag).collect();
    let sizes: Vec<usize> = jobs.iter().map(|s| s.graph.len()).collect();
    let sessions = (0..2)
        .map(|i| SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::DamC).seed(i))
        .collect();
    let mut cluster = ClusterBuilder::from_sessions(sessions).build_runtime();
    let report = cluster.run_stream(rt_jobs).expect("runtime cluster stream");
    assert_eq!(report.jobs.jobs.len(), sizes.len());
    for (j, stats) in report.jobs.jobs.iter().enumerate() {
        assert_eq!(stats.id, JobId(j as u64));
        assert_eq!(stats.tasks, sizes[j]);
        assert!(stats.completed >= stats.started && stats.started >= stats.arrival);
    }
    assert_eq!(report.tasks(), sizes.iter().sum::<usize>());
    assert_eq!(report.events(), None, "runtime nodes report no sim events");
    assert!(report.steals().is_some());
}
