//! The fault-tolerance acceptance harness of the das-cluster tier:
//!
//! * a **seeded mid-stream node kill strands no work** — every job in
//!   the stream completes on the survivors, and the merged extras
//!   attribute the failure (`node{i}.failed`, `jobs_requeued`);
//! * a **faulty run is bit-reproducible** — every fault trigger is
//!   logical (the n-th admitted job, the n-th report), never wall-clock,
//!   so two executions of the same seeded schedule produce identical
//!   reports down to the timestamps;
//! * an **inert fault plane costs nothing**: a 1-node cluster carrying
//!   a `FaultSchedule` that schedules no faults stays bit-identical to
//!   a bare `Simulator` session — the plane is pure bookkeeping until
//!   a fault fires;
//! * **lost acks become typed errors, not hangs**: a withheld ack
//!   surfaces as `ExecError::Timeout` at once, and a fully-dead fleet
//!   surfaces `ExecError::Failed`;
//! * **membership churn between drains loses nothing**: a node added
//!   mid-stream takes traffic, a removed node's queue drains onto its
//!   peers before departure;
//! * **every verb records a death it trips over**: `submit` and a
//!   one-job `submit_many` count the same requeues, a trace pull that
//!   finds a node dead retires it on the spot, and a summary drain
//!   repairs a mid-drain death exactly like a record drain;
//! * **generated fault schedules conserve jobs**: over drawn routing
//!   policies, kills, report faults and submission verbs, every
//!   accepted job drains exactly once or is counted lost, and the run
//!   reproduces bit for bit.

use das::cluster::{ClusterBuilder, RoutePolicy};
use das::core::jobs::{JobSpec, JobStats, StreamStats};
use das::core::metrics::TraceSpan;
use das::core::{ExecExtras, Policy};
use das::dag::Dag;
use das::exec::{ExecError, ExecReport, Executor, SessionBuilder, Ticket};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das_core::FaultSchedule;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The seeded stream every section executes (14 mixed-shape jobs).
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

/// 4 round-robin nodes; node 3 dies at its second admission — roughly
/// the middle of the 14-job stream.
fn faulty_run() -> ExecReport {
    let base = base_session(7).fault_schedule(FaultSchedule::new(7).kill(3, 1));
    let mut cluster = ClusterBuilder::new(base, 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    cluster
        .run_stream(stream())
        .expect("stream survives the kill")
}

#[test]
fn a_mid_stream_kill_completes_every_job_on_the_survivors() {
    let mut bare = Simulator::from_session(&base_session(7));
    let baseline = Executor::run_stream(&mut bare, stream()).expect("baseline");

    let report = faulty_run();
    // The full job set completes: same count, same per-job task totals
    // (routing and recovery never rewrite a spec).
    assert_eq!(report.jobs.jobs.len(), baseline.jobs.jobs.len());
    assert_eq!(report.tasks(), baseline.tasks());
    let ids: Vec<u64> = report.jobs.jobs.iter().map(|j| j.id.0).collect();
    assert_eq!(ids, (0..14).collect::<Vec<_>>(), "ids stay dense");
    // The failure is attributed, the recovery is counted.
    assert_eq!(report.extras.get("node3.failed"), Some(1.0));
    assert_eq!(report.extras.get("jobs_requeued"), Some(1.0));
    assert_eq!(report.extras.get("jobs_lost"), None, "nothing was lost");
    assert_eq!(report.extras.get("nodes"), Some(3.0), "3 survivors");
    // The dead node kept its pre-death work; the survivors absorbed the
    // rest.
    let routed: f64 = (0..4)
        .map(|n| report.extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
        .sum();
    assert_eq!(routed as usize, 14);
}

#[test]
fn a_faulty_run_is_bit_reproducible() {
    // Fault triggers are logical (admission counts, report counts), so
    // the whole report — records, timestamps, merged extras — must be
    // identical across executions.
    assert_eq!(faulty_run(), faulty_run());
}

#[test]
fn an_inert_fault_plane_keeps_the_one_node_differential_exact() {
    let jobs = stream();
    let mut bare = Simulator::from_session(&base_session(3));
    let bare_report = Executor::run_stream(&mut bare, jobs.clone()).expect("bare stream");

    // A schedule with no faults: the plane rides along but never fires.
    let base = base_session(3).fault_schedule(FaultSchedule::new(99));
    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let cluster_report = cluster.run_stream(jobs).expect("cluster stream");

    assert_eq!(
        cluster_report.jobs, bare_report.jobs,
        "bit-identical records"
    );
    assert_eq!(cluster_report.extras.steals, bare_report.extras.steals);
    assert_eq!(cluster_report.extras.events, bare_report.extras.events);
    assert_eq!(cluster_report.extras.get("jobs_requeued"), None);
    assert_eq!(cluster_report.extras.get("node0.failed"), None);
}

#[test]
fn withheld_acks_become_typed_timeouts_not_hangs() {
    let base = base_session(5).fault_schedule(FaultSchedule::new(5).drop_acks(0, 1));
    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let err = cluster.submit(stream().remove(0)).unwrap_err();
    assert!(matches!(err, ExecError::Timeout), "{err:?}");
    // The node silently admitted the job; its unclaimed record is
    // surfaced as an orphan at the next drain, never invented as a
    // completion.
    let stats = cluster.drain().expect("drain recovers after the timeout");
    assert!(stats.jobs.is_empty());
    assert_eq!(cluster.take_extras().get("jobs_orphaned"), Some(1.0));
}

#[test]
fn a_fully_dead_fleet_fails_typed_instead_of_hanging() {
    // The single node dies before admitting anything: submission must
    // surface a typed error once no live node remains.
    let base = base_session(9).fault_schedule(FaultSchedule::new(9).kill(0, 0));
    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let err = cluster.submit(stream().remove(0)).unwrap_err();
    assert!(matches!(err, ExecError::Failed(_)), "{err:?}");
    assert_eq!(cluster.live_nodes(), 0);
    // Drop with a dead fleet must not hang either.
    drop(cluster);
}

#[test]
fn membership_churn_mid_stream_loses_no_jobs() {
    let jobs = stream();
    let (first, rest) = jobs.split_at(6);
    let mut cluster = ClusterBuilder::new(base_session(11), 2)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    for spec in first {
        cluster.submit(spec.clone()).expect("accepted");
    }
    // Scale up, then retire node 0: its pending queue drains onto the
    // peers before the node is closed.
    assert_eq!(cluster.add_node(&base_session(11)), 2);
    cluster.remove_node(0).expect("retires cleanly");
    for spec in rest {
        cluster.submit(spec.clone()).expect("accepted");
    }
    let stats = cluster.drain().expect("drains");
    assert_eq!(stats.jobs.len(), 14, "no job lost across churn");
    let extras = cluster.take_extras();
    assert_eq!(extras.get("node0.removed"), Some(1.0));
    assert_eq!(extras.get("nodes"), Some(2.0));
    assert!(extras.get("jobs_requeued").unwrap_or(0.0) >= 1.0);
    // The retired slot keeps its pre-departure attribution; the fleet
    // covered the whole stream.
    let routed: f64 = (0..3)
        .map(|n| extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
        .sum();
    assert_eq!(routed as usize, 14);
}

#[test]
fn a_submit_loop_and_one_job_batches_count_the_same_requeues() {
    // kill(2, 1) on 3 round-robin nodes: node 2 admits job 2 and dies
    // on job 5's doorbell. Job 2 — acknowledged, then moved — is the
    // one requeue; job 5 was never acknowledged by anyone, so placing
    // it on a survivor is its first placement whichever verb carried
    // it.
    let run = |batched: bool| {
        let base = base_session(13).fault_schedule(FaultSchedule::new(13).kill(2, 1));
        let mut cluster = ClusterBuilder::new(base, 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for spec in stream().into_iter().take(9) {
            if batched {
                assert_eq!(cluster.submit_many(vec![spec]).expect("accepted").len(), 1);
            } else {
                cluster.submit(spec).expect("accepted");
            }
        }
        let stats = cluster.drain().expect("drains");
        (stats, cluster.take_extras())
    };
    let (loop_stats, loop_extras) = run(false);
    let (batch_stats, batch_extras) = run(true);
    assert_eq!(loop_stats.jobs.len(), 9);
    assert_eq!(batch_stats, loop_stats, "records bit-identical");
    assert_eq!(batch_extras, loop_extras, "extras bit-identical");
    assert_eq!(loop_extras.get("jobs_requeued"), Some(1.0));
    assert_eq!(loop_extras.get("node2.failed"), Some(1.0));
}

/// A sim node whose agent dies — outside any admission, so no submit
/// can notice — the first time the dispatcher asks it for `dies_on`.
struct Brittle {
    sim: Simulator,
    dies_on: Option<&'static str>,
}

impl Brittle {
    fn trip(&self, verb: &'static str) {
        assert!(self.dies_on != Some(verb), "brittle node: died on {verb}");
    }
}

impl Executor for Brittle {
    type Graph = Dag;

    fn backend(&self) -> &'static str {
        "brittle-sim"
    }

    fn submit(&mut self, spec: JobSpec<Dag>) -> Result<Ticket, ExecError> {
        Executor::submit(&mut self.sim, spec)
    }

    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        Executor::wait(&mut self.sim, ticket)
    }

    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        Executor::drain(&mut self.sim)
    }

    // Both run on the agent outside its per-operation panic guard, so
    // tripping here takes the whole agent down.
    fn take_extras(&mut self) -> ExecExtras {
        self.trip("extras");
        self.sim.take_extras()
    }

    fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        self.trip("trace");
        self.sim.take_trace_spans()
    }
}

/// 3 round-robin nodes, node 1 brittle on `verb`, 6 jobs submitted (2
/// per node).
fn brittle_cluster(verb: &'static str) -> das::cluster::Cluster<Dag> {
    let mut cluster = ClusterBuilder::new(base_session(19), 3)
        .route(RoutePolicy::RoundRobin)
        .build_with(move |i, session| Brittle {
            sim: Simulator::from_session(session),
            dies_on: (i == 1).then_some(verb),
        });
    for spec in stream().into_iter().take(6) {
        cluster.submit(spec).expect("accepted");
    }
    cluster
}

#[test]
fn a_death_seen_by_a_trace_pull_is_recorded_on_the_spot() {
    let mut cluster = brittle_cluster("trace");
    assert_eq!(
        cluster.collect_trace().unwrap_err(),
        ExecError::NodeFailed { node: 1 }
    );
    // Not "until some later call trips over it": the node is retired
    // and its two pending jobs are already on the survivors.
    assert!(!cluster.is_alive(1));
    assert_eq!(cluster.live_nodes(), 2);
    for spec in stream().into_iter().skip(6) {
        let ticket = cluster.submit(spec).expect("accepted");
        assert_ne!(cluster.node_of(&ticket), Some(1), "routed to a dead node");
    }
    assert_eq!(cluster.drain().expect("drains").jobs.len(), 14);
    let extras = cluster.take_extras();
    assert_eq!(extras.get("node1.failed"), Some(1.0));
    assert_eq!(extras.get("jobs_requeued"), Some(2.0));
    assert_eq!(extras.get("jobs_lost"), None);
}

#[test]
fn a_summary_drain_repairs_a_mid_drain_death_like_a_record_drain() {
    // Node 1 executes its batch, then dies before answering. Its two
    // jobs had started, so each is retried (once) on a survivor and a
    // second round collects them: both drains complete the stream.
    let mut records = brittle_cluster("extras");
    let stats = records.drain().expect("the record drain repairs");
    assert_eq!(stats.jobs.len(), 6);

    let mut summary = brittle_cluster("extras");
    let total = summary.drain_summary().expect("the summary drain repairs");
    assert_eq!(total.jobs, 6);
    assert_eq!(total.tasks as usize, stats.tasks);
    assert_eq!(total.span, stats.span, "same global stream endpoints");
    assert_eq!(total.report.nodes.len(), 2, "one snapshot per survivor");
    for mut cluster in [records, summary] {
        assert!(!cluster.is_alive(1));
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node1.failed"), Some(1.0));
        assert_eq!(extras.get("retries"), Some(2.0));
        assert_eq!(extras.get("jobs_lost"), None);
    }
}

#[test]
fn a_slow_node_gets_fewer_jobs_under_least_outstanding() {
    // slow(1, 4.0): node 1 reports four times its outstanding count, so
    // least-outstanding routing sends it one job for every four its
    // peers take. Over 12 un-waited jobs the split is 5 / 2 / 5, where
    // honest reports split 4 / 4 / 4.
    let base = base_session(17).fault_schedule(FaultSchedule::new(17).slow(1, 4.0));
    let mut cluster = ClusterBuilder::new(base, 3)
        .route(RoutePolicy::LeastOutstanding)
        .build_sim();
    let mut per_node = [0; 3];
    for spec in stream().into_iter().take(12) {
        let ticket = cluster.submit(spec).expect("accepted");
        per_node[cluster.node_of(&ticket).expect("routed")] += 1;
    }
    assert_eq!(per_node, [5, 2, 5]);
    // Slow is a routing bias, not a failure: every job completes.
    assert_eq!(cluster.drain().expect("drains").jobs.len(), 12);
    assert_eq!(cluster.take_extras().get("node1.failed"), None);
}

/// A fault on a node other than the killed one, as drawn below.
#[derive(Clone, Copy, Debug)]
enum SideFault {
    DropLoadReports(u64),
    DelayLoadReports(u64),
    Slow(f64),
}

/// 3 sim nodes under `policy`; node `kill.0` dies after admitting
/// `kill.1` jobs, `side` (if any) hits node `kill.0 + 1 + side.0`
/// (mod 3). 16 jobs go in by a submit loop or one `submit_many`; the
/// run returns the ids accepted, the drained records and the extras.
fn generated_run(
    policy: RoutePolicy,
    kill: (usize, u64),
    side: Option<(usize, SideFault)>,
    batched: bool,
) -> (Vec<u64>, StreamStats, ExecExtras) {
    let mut faults = FaultSchedule::new(29).kill(kill.0, kill.1);
    if let Some((offset, fault)) = side {
        let node = (kill.0 + 1 + offset) % 3;
        faults = match fault {
            SideFault::DropLoadReports(n) => faults.drop_load_reports(node, n),
            SideFault::DelayLoadReports(n) => faults.delay_load_reports(node, n),
            SideFault::Slow(factor) => faults.slow(node, factor),
        };
    }
    let base = base_session(29).fault_schedule(faults);
    let mut cluster = ClusterBuilder::new(base, 3).route(policy).build_sim();
    let jobs = StreamConfig::poisson(29, 16, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .generate();
    let tickets: Vec<Ticket> = if batched {
        cluster.submit_many(jobs).unwrap_or_default()
    } else {
        jobs.into_iter()
            .filter_map(|spec| cluster.submit(spec).ok())
            .collect()
    };
    let accepted = tickets.iter().map(|t| t.job().0).collect();
    let stats = cluster.drain().expect("a drain survives one kill");
    (accepted, stats, cluster.take_extras())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_faults_conserve_every_accepted_job(
        policy in prop::sample::select(RoutePolicy::ALL.to_vec()),
        kill in (0usize..3, 0u64..16),
        side in prop_oneof![
            Just(None),
            (0usize..2, 1u64..8).prop_map(|(o, n)| Some((o, SideFault::DropLoadReports(n)))),
            (0usize..2, 1u64..8).prop_map(|(o, n)| Some((o, SideFault::DelayLoadReports(n)))),
            (0usize..2, 1.5f64..6.0).prop_map(|(o, f)| Some((o, SideFault::Slow(f)))),
        ],
        batched in any::<bool>(),
    ) {
        let case = format!("{policy:?} kill{kill:?} {side:?} batched={batched}");
        let (accepted, stats, extras) = generated_run(policy, kill, side, batched);
        let ids: BTreeSet<u64> = stats.jobs.iter().map(|j| j.id.0).collect();
        prop_assert_eq!(ids.len(), stats.jobs.len(), "a job drained twice: {}", case);
        prop_assert!(
            ids.iter().all(|id| accepted.contains(id)),
            "a drained id was never accepted: {}",
            case
        );
        let lost = extras.get("jobs_lost").unwrap_or(0.0) as usize;
        prop_assert_eq!(stats.jobs.len() + lost, accepted.len(), "{}", case);
        let again = generated_run(policy, kill, side, batched);
        prop_assert_eq!(&again.1, &stats, "records differ between runs: {}", case);
        prop_assert_eq!(&again.2, &extras, "extras differ between runs: {}", case);
    }
}
