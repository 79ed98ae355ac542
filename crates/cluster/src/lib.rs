//! # das-cluster — a sharded, fault-tolerant multi-node scheduling tier
//!
//! Everything below the executor contract schedules *within* one node:
//! the PTT, Algorithm 1 and the two-queue discipline place tasks on the
//! cores of a single platform. This crate adds the tier above: a
//! [`Cluster`] that owns N node-local executors (each a `das-sim` or
//! `das-runtime` instance built from its own
//! [`SessionBuilder`]) stitched together over [`das_msg::Endpoint`]s —
//! and whose dispatcher **itself implements
//! [`das_core::exec::Executor`]**, so any client written against
//! `&mut dyn Executor` (the `job_stream` example, the `jobs_throughput`
//! harness, the contract tests) scales from one node to a fleet with
//! zero changes.
//!
//! ## Architecture
//!
//! Each node is a **failure domain**: the dispatcher talks to node `i`
//! over a *private two-rank* [`das_msg::Communicator`] (dispatcher rank
//! 0, node rank 1), and node `i` runs a **node agent** thread owning
//! its executor. Private links — rather than one shared N+1-rank
//! communicator — mean membership churn never resizes a shared rank
//! space and a dead node can never wedge a collective. Three planes
//! share each link:
//!
//! * **control** — submit/wait/drain/shutdown commands and their
//!   acknowledgements as point-to-point messages, one typed frame per
//!   direction with a single encode/decode pair (graphs themselves
//!   move through an in-process side channel; `das_msg` payloads are
//!   `f64` rows, and task closures could never transit a wire format —
//!   on a real deployment this channel is the RPC body). There is one
//!   admission path: `submit` is a one-job `submit_many`, and a batch
//!   costs one command per node it touches;
//! * **load** — after *every* command a node pushes its
//!   outstanding-job count back over the message layer; the dispatcher
//!   collapses the backlog with [`das_msg::Endpoint::try_recv_latest`]
//!   and routes by [`RoutePolicy`] (round-robin, least-outstanding, or
//!   seeded power-of-two-choices) over that view, skipping dead nodes;
//! * **stats** — there is one drain: `drain`, `drain_summary` and
//!   `remove_node` all send a node the same command and read back one
//!   combined reply — a header (jobs, tasks, first arrival, last
//!   completion), the node's extras, and *either* the completion
//!   records *or* the node's post-drain metrics snapshot. The header
//!   cross-checks the decoded records — a wire-format regression trips
//!   an assert, not a silently wrong percentile.
//!
//! ## Failure domains and recovery
//!
//! Every control RPC is bounded: the dispatcher waits with a deadline
//! and bounded exponential backoff ([`das_msg::Endpoint::recv_backoff`])
//! and surfaces a typed [`ExecError::Timeout`] instead of hanging. A
//! node-agent panic is caught at the thread boundary; the wrapper
//! publishes a down flag and sends a `NodeFailed` error reply as its
//! last frame, so the blocked dispatcher learns of the death
//! *deterministically* — as a frame, not a timeout race. Either way the
//! caller sees one thing, [`ExecError::NodeFailed`], and whichever verb
//! ran into it — submit, wait, drain, trace pull, node removal —
//! retires the node on the spot.
//!
//! On a detected death the dispatcher repairs the cluster from its
//! **spec ledger** — it keeps a copy of every in-flight spec, which is
//! why the graph type must be `Clone`: jobs the dead node had
//! acknowledged but never started are requeued onto survivors through
//! the normal routing policy (`jobs_requeued`), started-but-unfinished
//! jobs are re-submitted **at most once** (`retries`), and jobs whose
//! retry budget is spent redeem as [`ExecError::NodeFailed`]
//! (`jobs_lost`). The failure itself is attributed in the merged extras
//! as `node{i}.failed`.
//!
//! Deterministic **fault injection** drives all of this in tests: a
//! seeded [`das_core::FaultSchedule`] on the base session plants
//! logical triggers (die at the k-th admitted job, drop or delay load
//! reports, withhold acks, inflate reported load) that the node agents
//! consult at fixed points — no wall-clock, so a faulty run is exactly
//! as bit-reproducible as a healthy one.
//!
//! ## Membership churn
//!
//! [`Cluster::add_node`] grows the fleet between drains;
//! [`Cluster::remove_node`] retires a node gracefully — its pending
//! (never-started) jobs move onto peers first, its remaining records
//! are banked for the next [`Executor::drain`], and its slot index is
//! never reused. Session tags stay monotone across churn because every
//! executor draws from the same global tag counter.
//!
//! ## Tickets and ids
//!
//! The cluster issues its own dense [`JobId`]s and stamps tickets with
//! its own session tag; the route table maps each cluster job to
//! `(node, node-local id)`. Node-local tickets — stamped with the node
//! executor's *own* session tag — never leave their node agent, so a
//! forged or stale cluster ticket can never redeem a node job directly.
//!
//! ## Determinism
//!
//! Routing is a pure function of the route seed and the load view, and
//! the load view is updated synchronously (a node reports *before* it
//! acknowledges), so the job→node assignment is reproducible; each
//! `das-sim` node is bit-reproducible given its session seed; therefore
//! an all-sim cluster is **bit-reproducible end to end** — with or
//! without scheduled faults — and a 1-node sim cluster is bit-identical
//! to a bare `Simulator` session (pinned by `tests/cluster_exec.rs`
//! and `tests/cluster_faults.rs`).
//!
//! ```
//! use das_cluster::{ClusterBuilder, RoutePolicy};
//! use das_core::exec::{Executor, SessionBuilder};
//! use das_core::jobs::JobSpec;
//! use das_core::{Policy, TaskTypeId};
//! use das_dag::generators;
//! use das_topology::Topology;
//! use std::sync::Arc;
//!
//! let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(42);
//! let mut cluster = ClusterBuilder::new(base, 3)
//!     .route(RoutePolicy::PowerOfTwo)
//!     .build_sim();
//! for j in 0..6 {
//!     let dag = generators::chain(TaskTypeId(0), 4);
//!     cluster.submit(JobSpec::new(dag).at(j as f64 * 1e-3)).unwrap();
//! }
//! let stats = cluster.drain().unwrap();
//! assert_eq!(stats.jobs.len(), 6);
//! ```
//!
//! A seeded node kill, recovered on the survivors:
//!
//! ```
//! use das_cluster::{ClusterBuilder, RoutePolicy};
//! use das_core::exec::{Executor, SessionBuilder};
//! use das_core::jobs::JobSpec;
//! use das_core::{FaultSchedule, Policy, TaskTypeId};
//! use das_dag::generators;
//! use das_topology::Topology;
//! use std::sync::Arc;
//!
//! let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
//!     .seed(7)
//!     .fault_schedule(FaultSchedule::new(7).kill(1, 2));
//! let mut cluster = ClusterBuilder::new(base, 3)
//!     .route(RoutePolicy::RoundRobin)
//!     .build_sim();
//! for j in 0..9 {
//!     let dag = generators::chain(TaskTypeId(0), 4);
//!     cluster.submit(JobSpec::new(dag).at(j as f64 * 1e-3)).unwrap();
//! }
//! // Node 1 dies at its third admission; the full stream still
//! // completes on the survivors.
//! let stats = cluster.drain().unwrap();
//! assert_eq!(stats.jobs.len(), 9);
//! let extras = cluster.take_extras();
//! assert_eq!(extras.get("node1.failed"), Some(1.0));
//! ```
//!
//! [`SessionBuilder`]: das_core::exec::SessionBuilder
//! [`ExecError::Timeout`]: das_core::exec::ExecError::Timeout
//! [`ExecError::NodeFailed`]: das_core::exec::ExecError::NodeFailed
//! [`Executor::drain`]: das_core::exec::Executor::drain
//! [`JobId`]: das_core::jobs::JobId

mod agent;
mod builder;
mod dispatcher;
mod recovery;
mod route;
mod wire;

pub use builder::ClusterBuilder;
pub use dispatcher::{metric_scalar, Cluster, DrainSummary};
pub use route::RoutePolicy;

use das_core::fault::FaultKind;

/// Human-readable label of a scheduled fault, used by failover tooling
/// (the `cluster_failover` example). The wildcard-free match forces
/// this crate to account for every [`FaultKind`] the fault plane can
/// schedule.
pub fn fault_kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::Kill { .. } => "kill",
        FaultKind::DropLoadReports { .. } => "drop-load-reports",
        FaultKind::DelayLoadReports { .. } => "delay-load-reports",
        FaultKind::DropAcks { .. } => "drop-acks",
        FaultKind::Slow { .. } => "slow",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::exec::{ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
    use das_core::jobs::{JobId, JobSpec};
    use das_core::metrics::{MetricKind, MetricsConfig};
    use das_core::{FaultSchedule, Policy, TaskTypeId};
    use das_dag::generators;
    use das_dag::Dag;
    use das_runtime::TaskGraph;
    use das_sim::Simulator;
    use das_topology::Topology;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn base_session(seed: u64) -> SessionBuilder {
        SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
    }

    fn chain_job(j: usize) -> JobSpec<Dag> {
        JobSpec::new(generators::chain(TaskTypeId(0), 4)).at(j as f64 * 1e-3)
    }

    #[test]
    fn round_robin_attributes_jobs_evenly() {
        let mut cluster = ClusterBuilder::new(base_session(1), 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..6 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 6);
        assert_eq!(stats.tasks, 24);
        // Cluster ids are dense in submission order.
        let ids: Vec<u64> = stats.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let extras = cluster.take_extras();
        assert_eq!(extras.get("nodes"), Some(3.0));
        for node in 0..3 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(2.0),
                "round-robin must spread 6 jobs as 2+2+2"
            );
        }
        assert!(extras.events.unwrap() > 0, "sim nodes report events");
    }

    #[test]
    fn least_outstanding_balances_an_unwaited_stream() {
        let mut cluster = ClusterBuilder::new(base_session(2), 4)
            .route(RoutePolicy::LeastOutstanding)
            .build_sim();
        for j in 0..12 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        let extras = cluster.take_extras();
        for node in 0..4 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(3.0),
                "synchronous load reports make least-outstanding exact"
            );
        }
    }

    #[test]
    fn wait_consumes_and_stale_or_foreign_tickets_are_rejected() {
        let mut cluster = ClusterBuilder::new(base_session(3), 2).build_sim();
        let t0 = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let t1 = Executor::submit(&mut cluster, chain_job(1)).unwrap();
        let (id0, session) = (t0.job(), t0.session());
        assert!(cluster.node_of(&t0).is_some());
        let s0 = Executor::wait(&mut cluster, t0).unwrap();
        assert_eq!(s0.id, id0);
        assert_eq!(s0.tasks, 4);
        // Only the un-waited job remains for drain, under its cluster id.
        let rest = cluster.drain().unwrap();
        assert_eq!(rest.jobs.len(), 1);
        assert_eq!(rest.jobs[0].id, t1.job());
        // A consumed id is unknown afterwards…
        let stale = Ticket::new(session, id0);
        assert_eq!(
            Executor::wait(&mut cluster, stale),
            Err(ExecError::UnknownTicket(id0))
        );
        // …and a ticket from a different executor session is rejected.
        let mut other = ClusterBuilder::new(base_session(3), 2).build_sim();
        let foreign = Executor::submit(&mut other, chain_job(0)).unwrap();
        assert_eq!(
            Executor::wait(&mut cluster, foreign),
            Err(ExecError::UnknownTicket(JobId(0)))
        );
    }

    #[test]
    fn rejections_surface_with_the_node_detail_and_consume_no_id() {
        let mut cluster = ClusterBuilder::new(base_session(4), 2).build_sim();
        let err = Executor::submit(&mut cluster, JobSpec::new(Dag::new("empty"))).unwrap_err();
        match err {
            ExecError::Rejected(why) => assert!(why.contains("node"), "{why}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The failed submission consumed no cluster id.
        let ok = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        assert_eq!(ok.job(), JobId(0));
        assert_eq!(Executor::wait(&mut cluster, ok).unwrap().tasks, 4);
    }

    #[test]
    fn runtime_cluster_executes_real_task_bodies() {
        let sessions = (0..2)
            .map(|i| SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::Rws).seed(i))
            .collect();
        let mut cluster = ClusterBuilder::from_sessions(sessions)
            .route(RoutePolicy::RoundRobin)
            .build_runtime();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let mut g = TaskGraph::new("job");
            let h = Arc::clone(&hits);
            let root = g.add(
                TaskTypeId(0),
                das_core::Priority::Low,
                move |ctx: &das_runtime::TaskCtx| {
                    if ctx.rank == 0 {
                        h.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
                    }
                },
            );
            let h = Arc::clone(&hits);
            let leaf = g.add(
                TaskTypeId(0),
                das_core::Priority::High,
                move |ctx: &das_runtime::TaskCtx| {
                    if ctx.rank == 0 {
                        h.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
                    }
                },
            );
            g.add_edge(root, leaf);
            Executor::submit(&mut cluster, JobSpec::new(g)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 4);
        assert_eq!(stats.tasks, 8);
        assert_eq!(hits.load(Ordering::Relaxed), 8); // relaxed-ok: read after wait(); job completion orders the counters
        let extras = cluster.take_extras();
        assert_eq!(extras.events, None, "runtime nodes report no sim events");
        assert!(extras.steals.is_some());
    }

    #[test]
    fn repeated_drains_keep_nodes_a_fact_and_counters_counting() {
        // "nodes" is the cluster size, not a counter: two drain cycles
        // between take_extras calls must not sum it to 2N — while the
        // genuine counters (per-node job attribution) do accumulate.
        let mut cluster = ClusterBuilder::new(base_session(8), 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for round in 0..2 {
            for j in 0..6 {
                Executor::submit(&mut cluster, chain_job(round * 6 + j)).unwrap();
            }
            cluster.drain().unwrap();
        }
        let extras = cluster.take_extras();
        assert_eq!(extras.get("nodes"), Some(3.0), "size, not a sum");
        for node in 0..3 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(4.0),
                "attribution accumulates across drains"
            );
        }
    }

    #[test]
    fn failed_node_batch_loses_its_jobs_without_poisoning_the_cluster() {
        // A sim node whose batch trips the event budget: the waited job
        // surfaces `Failed`, its lost siblings disappear (UnknownTicket,
        // like the bare simulator's failed batch), and the next drain —
        // which must NOT invent records for the never-reported route
        // entries — returns empty and leaves the cluster serving new
        // jobs. (The recovery ledger is consulted only on node *death*,
        // never on a failed batch.)
        let mut cluster = ClusterBuilder::new(base_session(9), 1).build_with(|_, session| {
            let mut sim = Simulator::from_session(session);
            sim.max_events = 5; // far below any real batch
            sim
        });
        let t0 = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let t1 = Executor::submit(&mut cluster, chain_job(1)).unwrap();
        assert!(matches!(
            Executor::wait(&mut cluster, t0),
            Err(ExecError::Failed(_))
        ));
        let stats = cluster.drain().expect("drain survives the lost batch");
        assert!(stats.jobs.is_empty(), "failed batch reports no records");
        assert_eq!(
            Executor::wait(&mut cluster, t1),
            Err(ExecError::UnknownTicket(JobId(1))),
            "lost sibling redeems as unknown, exactly like the bare sim"
        );
    }

    #[test]
    fn drain_failure_diagnostics_name_only_the_failing_node() {
        // Node 0 is healthy but once rejected an empty graph; node 1
        // trips its event budget at drain. The drain error must blame
        // node 1 and must not drag in node 0's long-resolved rejection.
        let mut cluster = ClusterBuilder::new(base_session(10), 2)
            .route(RoutePolicy::RoundRobin)
            .build_with(|i, session| {
                let mut sim = Simulator::from_session(session);
                if i == 1 {
                    sim.max_events = 5;
                }
                sim
            });
        // Routed to node 0: rejection sets its error slot…
        assert!(matches!(
            Executor::submit(&mut cluster, JobSpec::new(Dag::new("empty"))),
            Err(ExecError::Rejected(_))
        ));
        // …then two good submissions (node 1, then node 0 — clearing
        // node 0's slot on its successful op).
        Executor::submit(&mut cluster, chain_job(0)).unwrap();
        Executor::submit(&mut cluster, chain_job(1)).unwrap();
        match cluster.drain() {
            Err(ExecError::Failed(why)) => {
                assert!(why.contains("node 1"), "{why}");
                assert!(
                    !why.contains("node 0"),
                    "stale healthy-node error leaked: {why}"
                );
            }
            other => panic!("expected the budget-tripped drain to fail, got {other:?}"),
        }
        // The cluster keeps serving after the failed drain (round-robin
        // sends the first post-drain job back to the still-crippled
        // node 1; the next one lands on healthy node 0 and completes).
        let doomed = Executor::submit(&mut cluster, chain_job(2)).unwrap();
        let ok = Executor::submit(&mut cluster, chain_job(3)).unwrap();
        assert_eq!(Executor::wait(&mut cluster, ok).unwrap().tasks, 4);
        assert!(matches!(
            Executor::wait(&mut cluster, doomed),
            Err(ExecError::Failed(_))
        ));
    }

    #[test]
    fn drop_with_outstanding_jobs_does_not_hang() {
        let mut cluster = ClusterBuilder::new(base_session(5), 2).build_sim();
        for j in 0..3 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        drop(cluster); // pending sim batches are discarded, agents join
    }

    #[test]
    fn po2_routing_is_reproducible_across_identical_clusters() {
        let run = || {
            let mut cluster = ClusterBuilder::new(base_session(6), 4)
                .route(RoutePolicy::PowerOfTwo)
                .route_seed(99)
                .build_sim();
            for j in 0..16 {
                Executor::submit(&mut cluster, chain_job(j)).unwrap();
            }
            cluster.drain().unwrap();
            let extras = cluster.take_extras();
            (0..4)
                .map(|n| extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.iter().sum::<f64>(), 16.0);
    }

    #[test]
    fn seeded_kill_requeues_onto_survivors() {
        // kill(2, 1): node 2 admits one job, then dies at its second
        // admission. The stranded job requeues, the triggering job
        // re-places, and the whole stream completes on nodes 0 and 1.
        let base = base_session(21).fault_schedule(FaultSchedule::new(21).kill(2, 1));
        let mut cluster = ClusterBuilder::new(base, 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..9 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        assert_eq!(cluster.live_nodes(), 2, "node 2 died mid-stream");
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 9, "every job completes on survivors");
        let ids: Vec<u64> = stats.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>(), "ids stay dense");
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node2.failed"), Some(1.0));
        assert_eq!(extras.get("jobs_requeued"), Some(1.0));
        assert_eq!(extras.get("jobs_lost"), None);
        assert_eq!(extras.get("nodes"), Some(2.0), "live count after the kill");
    }

    #[test]
    fn membership_churn_between_drains() {
        let mut cluster = ClusterBuilder::new(base_session(22), 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let added = cluster.add_node(&base_session(22));
        assert_eq!(added, 2);
        assert_eq!(cluster.live_nodes(), 3);
        cluster.remove_node(0).unwrap();
        assert!(!cluster.is_alive(0));
        for j in 4..8 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 8, "no job lost across churn");
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node0.removed"), Some(1.0));
        assert_eq!(
            extras.get("jobs_requeued"),
            Some(2.0),
            "node 0's pending queue moved onto peers"
        );
        assert_eq!(extras.get("nodes"), Some(2.0));
        // Removing a dead slot or the whole fleet is rejected.
        assert!(matches!(
            cluster.remove_node(0),
            Err(ExecError::Rejected(_))
        ));
        cluster.remove_node(1).unwrap();
        assert!(matches!(
            cluster.remove_node(2),
            Err(ExecError::Rejected(_))
        ));
    }

    #[test]
    fn dropped_acks_surface_as_typed_timeout() {
        let base = base_session(23).fault_schedule(FaultSchedule::new(23).drop_acks(0, 1));
        let mut cluster = ClusterBuilder::new(base, 1)
            .rpc_deadline(Duration::from_millis(2))
            .build_sim();
        let err = Executor::submit(&mut cluster, chain_job(0)).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
        // The node admitted the job but its ack was withheld: the
        // record surfaces at drain as an orphan, not a completion.
        let stats = cluster.drain().unwrap();
        assert!(stats.jobs.is_empty());
        let extras = cluster.take_extras();
        assert_eq!(extras.get("jobs_orphaned"), Some(1.0));
    }

    #[test]
    fn drain_deadline_turns_a_silent_node_into_a_typed_error() {
        // Node 1 swallows its drain ack. The old collective epilogue
        // would block forever; the bounded RPC surfaces ExecError::Timeout.
        let base = base_session(24).fault_schedule(FaultSchedule::new(24).drop_acks(1, 1));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .rpc_deadline(Duration::from_millis(2))
            .build_sim();
        Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let err = cluster.drain().unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn metrics_snapshots_stream_to_the_dispatcher_and_merge() {
        let base = base_session(31).metrics(MetricsConfig::default().every(2));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..6 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        // Cadence (every 2 admissions) has pushed snapshots already,
        // before any drain.
        let report = cluster.metrics_report();
        assert_eq!(report.nodes.len(), 2, "both nodes snapshot by cadence");
        // Each node snapshotted at its 2nd admission (3 jobs each under
        // round-robin), so the freshest pre-drain view totals 4.
        assert_eq!(report.totals().jobs_admitted, 4);
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 6);
        // The drain-epoch snapshots carry completions and sketches.
        let totals = cluster.metrics_probe().expect("metrics on");
        assert_eq!(totals.jobs_completed, 6);
        assert_eq!(totals.sojourn.count(), 6);
        // The merged report is flattened into extras: one
        // `metrics.<kind>` value per MetricKind.
        let extras = cluster.take_extras();
        for kind in MetricKind::ALL {
            assert!(
                extras.get(&format!("metrics.{}", kind.name())).is_some(),
                "metrics.{} missing from extras",
                kind.name()
            );
        }
        assert_eq!(extras.get("metrics.jobs_completed"), Some(6.0));
        assert_eq!(extras.get("snapshots_sent"), Some(totals_sent(&extras)));
    }

    /// Sum of the per-node snapshot attribution, which must equal the
    /// cluster-total counter.
    fn totals_sent(extras: &ExecExtras) -> f64 {
        (0..8)
            .filter_map(|i| extras.get(&format!("node{i}.snapshots_sent")))
            .sum()
    }

    #[test]
    fn metrics_off_cluster_exposes_no_metrics_surface() {
        let mut cluster = ClusterBuilder::new(base_session(32), 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        assert!(cluster.metrics_report().nodes.is_empty());
        assert!(cluster.metrics_probe().is_none());
        let extras = cluster.take_extras();
        assert!(
            !extras.values().any(|(k, _)| k.starts_with("metrics.")),
            "metrics-off extras must stay byte-identical to the seed surface"
        );
    }

    #[test]
    fn drain_summary_replaces_records_with_sketches() {
        let seed = 33;
        // Reference: a regular drain of the identical cluster.
        let mut reference =
            ClusterBuilder::new(base_session(seed).metrics(MetricsConfig::default()), 2)
                .route(RoutePolicy::RoundRobin)
                .build_sim();
        for j in 0..10 {
            Executor::submit(&mut reference, chain_job(j)).unwrap();
        }
        let stats = reference.drain().unwrap();

        let mut cluster =
            ClusterBuilder::new(base_session(seed).metrics(MetricsConfig::default()), 2)
                .route(RoutePolicy::RoundRobin)
                .build_sim();
        for j in 0..10 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let summary = cluster.drain_summary().unwrap();
        assert_eq!(summary.jobs, 10);
        assert_eq!(summary.tasks as usize, stats.tasks);
        assert_eq!(summary.report.nodes.len(), 2);
        // The merged sketch percentile agrees with the exact
        // nearest-rank percentile within one bucket's relative error.
        let totals = summary.report.totals();
        let sketch_p99 = totals.sojourn.quantile(0.99).expect("10 samples");
        let exact_p99 = stats.sojourn_percentile(0.99).expect("10 jobs drained");
        let rel = totals.sojourn.relative_error();
        assert!(
            (sketch_p99 - exact_p99).abs() <= exact_p99 * 2.0 * rel + f64::EPSILON,
            "sketch p99 {sketch_p99} vs exact {exact_p99} (rel {rel})"
        );
        // Tickets retired exactly like a drain: nothing left to wait.
        let t = Executor::submit(&mut cluster, chain_job(10)).unwrap();
        assert!(Executor::wait(&mut cluster, t).is_ok());
    }

    #[test]
    fn cluster_trace_pulls_spans_from_every_node() {
        let base = base_session(34).metrics(MetricsConfig::default().with_trace());
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        let trace = cluster.collect_trace().unwrap();
        assert_eq!(trace.nodes.len(), 2);
        // 4 chain jobs × 4 tasks, split across the nodes.
        assert!(trace.total_spans() >= 16, "spans: {}", trace.total_spans());
        assert!(trace.nodes.iter().all(|(_, t)| !t.spans.is_empty()));
        let json = trace.to_chrome_json();
        let events = das_sim::validate_chrome_json(&json).expect("valid trace JSON");
        assert_eq!(
            events,
            trace.total_spans() + 2,
            "spans + process_name metadata"
        );
        // The pull drained the node buffers.
        assert_eq!(cluster.collect_trace().unwrap().total_spans(), 0);
    }
}
