//! The executor-contract differential harness: one seeded job stream,
//! one generic client over `&mut dyn Executor`, both backends.
//!
//! Everything here is written once against the `das::exec` façade and
//! instantiated for `Simulator` (graphs are `Dag`s, simulated clock)
//! and `Runtime` (graphs are no-op `TaskGraph`s of identical shape,
//! wall clock). Assertions cover the semantics the two backends share:
//!
//! * every submitted job is accounted exactly once, with dense ids in
//!   submission order;
//! * per-job latency fields are monotone (`arrival <= started <=
//!   completed`, so `sojourn >= makespan >= 0`);
//! * a ticket `wait` consumes the job's drain record; stale tickets are
//!   `UnknownTicket`; `drain` returns exactly the un-waited rest;
//! * under one worker, serialised (non-overlapping) jobs complete in
//!   submission order on both backends;
//! * the simulator side is bit-reproducible through the façade.

use das::core::jobs::{JobId, JobSpec, JobStats};
use das::core::Policy;
use das::dag::{generators, Dag};
use das::exec::{ExecError, ExecReport, Executor, SessionBuilder, Ticket};
use das::runtime::{Runtime, TaskGraph};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das_core::TaskTypeId;
use std::sync::Arc;

/// The seeded stream both backends execute (the simulator as-is, the
/// runtime after a shape-preserving no-op conversion).
fn stream() -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(42, 12, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .slack(30.0)
        .generate()
}

fn to_runtime_jobs(jobs: &[JobSpec<Dag>]) -> Vec<JobSpec<TaskGraph>> {
    jobs.iter().map(TaskGraph::noop_job_from_dag).collect()
}

fn sim_exec(policy: Policy, seed: u64) -> Simulator {
    Simulator::from_session(&SessionBuilder::new(Arc::new(Topology::tx2()), policy).seed(seed))
}

fn rt_exec(policy: Policy, cores: usize) -> Runtime {
    Runtime::from_session(&SessionBuilder::new(
        Arc::new(Topology::symmetric(cores)),
        policy,
    ))
}

// ---------------------------------------------------------------------
// The generic clients: these functions are the contract — they never
// know which backend they are driving.
// ---------------------------------------------------------------------

/// Submit everything, drain, and check the structural invariants every
/// backend must satisfy (`expected_tasks` is the per-job task count, in
/// submission order). Returns the report for cross-backend checks.
fn drive_and_check<G>(
    ex: &mut dyn Executor<Graph = G>,
    jobs: Vec<JobSpec<G>>,
    expected_tasks: &[usize],
) -> ExecReport {
    let n = jobs.len();
    let report = ex.run_stream(jobs).expect("stream completes");
    assert_eq!(report.jobs.jobs.len(), n, "every job reported once");
    for (j, stats) in report.jobs.jobs.iter().enumerate() {
        assert_eq!(stats.id, JobId(j as u64), "dense ids in submission order");
        assert_eq!(stats.tasks, expected_tasks[j], "per-job task count");
        assert!(stats.started >= stats.arrival, "job {j}: {stats:?}");
        assert!(stats.completed >= stats.started, "job {j}: {stats:?}");
        assert!(stats.sojourn() >= stats.makespan(), "job {j}");
        assert!(stats.queueing() >= 0.0, "job {j}");
    }
    assert_eq!(report.tasks(), expected_tasks.iter().sum::<usize>());
    assert!(report.makespan() > 0.0);
    report
}

/// Ticket lifecycle: wait one job out of the middle, drain the rest,
/// reject the stale ticket.
fn check_ticket_lifecycle<G>(ex: &mut dyn Executor<Graph = G>, jobs: Vec<JobSpec<G>>) {
    let n = jobs.len();
    assert!(n >= 3, "lifecycle check needs a few jobs");
    let mut tickets: Vec<Ticket> = jobs
        .into_iter()
        .map(|spec| ex.submit(spec).expect("accepted"))
        .collect();
    let picked = tickets.remove(1);
    let (picked_id, session) = (picked.job(), picked.session());
    let stats = ex.wait(picked).expect("waited job completes");
    assert_eq!(stats.id, picked_id);
    // The waited record is consumed; the rest drain, in id order.
    let rest = ex.drain().expect("drain completes");
    assert_eq!(rest.jobs.len(), n - 1);
    assert!(rest.jobs.iter().all(|j| j.id != picked_id));
    let drained_ids: Vec<JobId> = rest.jobs.iter().map(|j| j.id).collect();
    let expected: Vec<JobId> = tickets.iter().map(Ticket::job).collect();
    assert_eq!(drained_ids, expected);
    // Stale tickets are rejected with the job id preserved.
    let stale = Ticket::new(session, picked_id);
    assert_eq!(ex.wait(stale), Err(ExecError::UnknownTicket(picked_id)));
    // An idle executor drains empty.
    assert!(ex.drain().expect("empty drain").jobs.is_empty());
}

/// Under a single worker, jobs that cannot overlap must complete in
/// submission order — on any backend.
fn check_serialised_order<G>(ex: &mut dyn Executor<Graph = G>, jobs: Vec<JobSpec<G>>) {
    let waited: Vec<JobStats> = jobs
        .into_iter()
        .map(|spec| {
            let t = ex.submit(spec).expect("accepted");
            ex.wait(t).expect("completes")
        })
        .collect();
    for (j, w) in waited.windows(2).enumerate() {
        assert!(w[0].id < w[1].id, "id order");
        assert!(
            w[1].completed >= w[0].completed,
            "job {} completed before its predecessor: {:?}",
            j + 1,
            w
        );
    }
}

// ---------------------------------------------------------------------
// Instantiations
// ---------------------------------------------------------------------

#[test]
fn both_backends_satisfy_the_contract_on_one_stream() {
    let jobs = stream();
    let sizes: Vec<usize> = jobs.iter().map(|spec| spec.graph.len()).collect();
    let mut sim = sim_exec(Policy::DamC, 7);
    let sim_report = drive_and_check(&mut sim, jobs.clone(), &sizes);
    let mut rt = rt_exec(Policy::DamC, 4);
    let rt_report = drive_and_check(&mut rt, to_runtime_jobs(&jobs), &sizes);

    // Where semantics overlap, the two reports agree structurally.
    assert_eq!(sim_report.jobs.jobs.len(), rt_report.jobs.jobs.len());
    assert_eq!(sim_report.tasks(), rt_report.tasks());
    for (s, r) in sim_report.jobs.jobs.iter().zip(&rt_report.jobs.jobs) {
        assert_eq!(s.id, r.id);
        assert_eq!(s.tasks, r.tasks);
        assert_eq!(s.class, r.class);
    }
    // Backend-specific extras keep their meaning: events are
    // simulation-only, steals are reported by both.
    assert!(sim_report.events().unwrap() > 0);
    assert_eq!(rt_report.events(), None);
    assert!(sim_report.steals().is_some());
    assert!(rt_report.steals().is_some());
    // The generous 30 s relative deadline of the stream holds in the
    // simulator's accounting.
    let (met, total) = sim_report.jobs.deadlines();
    assert_eq!(
        (met, total),
        (sim_report.jobs.jobs.len(), sim_report.jobs.jobs.len())
    );
}

#[test]
fn ticket_lifecycle_is_identical_on_both_backends() {
    let jobs = stream();
    check_ticket_lifecycle(&mut sim_exec(Policy::DamC, 7), jobs.clone());
    check_ticket_lifecycle(&mut rt_exec(Policy::DamC, 4), to_runtime_jobs(&jobs));
}

#[test]
fn tickets_are_bound_to_their_issuing_executor() {
    // Job ids are dense from 0 on every backend, so a ticket must not
    // redeem a coinciding id on a different executor.
    let mut sim = sim_exec(Policy::Rws, 1);
    let mut rt = rt_exec(Policy::Rws, 2);
    let sim_ticket = Executor::submit(&mut sim, JobSpec::new(generators::chain(TaskTypeId(0), 2)))
        .expect("accepted");
    let rt_ticket = Executor::submit(
        &mut rt,
        JobSpec::new(TaskGraph::noop_from_dag(&generators::chain(
            TaskTypeId(0),
            2,
        ))),
    )
    .expect("accepted");
    assert_eq!(sim_ticket.job(), rt_ticket.job(), "ids coincide by design");
    // Cross-redemption is rejected on both sides…
    assert_eq!(
        Executor::wait(&mut rt, sim_ticket),
        Err(ExecError::UnknownTicket(JobId(0)))
    );
    assert_eq!(
        Executor::wait(&mut sim, rt_ticket),
        Err(ExecError::UnknownTicket(JobId(0)))
    );
    // …and both jobs remain collectable through their own executors.
    assert_eq!(sim.drain().expect("sim drains").jobs.len(), 1);
    assert_eq!(Executor::drain(&mut rt).expect("rt drains").jobs.len(), 1);
}

#[test]
fn serialised_jobs_complete_in_submission_order_under_one_worker() {
    // One core, chain jobs, client-paced submissions (each job waited
    // before the next is submitted): completion order must equal
    // submission order on any backend.
    let chains: Vec<JobSpec<Dag>> = (0..5)
        .map(|_| JobSpec::new(generators::chain(TaskTypeId(0), 6)))
        .collect();
    let mut sim = Simulator::from_session(&SessionBuilder::new(
        Arc::new(Topology::symmetric(1)),
        Policy::Rws,
    ));
    check_serialised_order(&mut sim, chains.clone());
    check_serialised_order(&mut rt_exec(Policy::Rws, 1), to_runtime_jobs(&chains));
}

#[test]
fn sim_facade_is_bit_reproducible() {
    let jobs = stream();
    let run = || {
        let mut sim = sim_exec(Policy::DamC, 7);
        Executor::run_stream(&mut sim, jobs.clone()).expect("stream completes")
    };
    let a = run();
    let b = run();
    // Full structural equality, extras included — bit for bit.
    assert_eq!(a, b);
}

#[test]
fn sim_submit_many_is_bit_identical_to_a_submit_loop() {
    // The batch path must be a pure amortisation: same ids, same
    // records, same extras — bit for bit — as the equivalent loop.
    let jobs = stream();
    let mut looped = sim_exec(Policy::DamC, 7);
    let loop_tickets: Vec<Ticket> = jobs
        .iter()
        .map(|spec| Executor::submit(&mut looped, spec.clone()).expect("accepted"))
        .collect();
    let loop_drain = Executor::drain(&mut looped).expect("drains");
    let loop_extras = looped.take_extras();

    let mut batched = sim_exec(Policy::DamC, 7);
    let batch_tickets = batched.submit_many(jobs.clone()).expect("batch accepted");
    let batch_drain = Executor::drain(&mut batched).expect("drains");
    let batch_extras = batched.take_extras();

    assert_eq!(batch_tickets.len(), loop_tickets.len());
    for (b, l) in batch_tickets.iter().zip(&loop_tickets) {
        assert_eq!(b.job(), l.job(), "dense ids in batch order");
    }
    assert_eq!(batch_drain, loop_drain, "records bit-identical");
    assert_eq!(batch_extras, loop_extras, "extras bit-identical");
}

#[test]
fn empty_batches_are_rejected_on_every_backend() {
    let mut sim = sim_exec(Policy::DamC, 7);
    assert!(matches!(
        sim.submit_many(Vec::new()),
        Err(ExecError::Rejected(_))
    ));
    let mut rt = rt_exec(Policy::DamC, 2);
    assert!(matches!(
        rt.submit_many(Vec::new()),
        Err(ExecError::Rejected(_))
    ));
}

#[test]
fn sim_overload_rejects_at_exactly_the_limit_and_recovers_after_drain() {
    let session = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
        .seed(7)
        .max_outstanding(3);
    let mut sim = Simulator::from_session(&session);
    let jobs = stream();
    for spec in jobs.iter().take(3).cloned() {
        Executor::submit(&mut sim, spec).expect("under the limit");
    }
    // Deterministic rejection at limit + 1, with the typed fields.
    match Executor::submit(&mut sim, jobs[3].clone()) {
        Err(ExecError::Overloaded { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (3, 3));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // A whole batch that does not fit is shed whole: nothing admitted.
    assert!(matches!(
        sim.submit_many(jobs[3..5].to_vec()),
        Err(ExecError::Overloaded { .. })
    ));
    // Drain retires everything; the session recovers.
    assert_eq!(Executor::drain(&mut sim).expect("drains").jobs.len(), 3);
    let t = Executor::submit(&mut sim, jobs[3].clone()).expect("recovered");
    assert_eq!(Executor::wait(&mut sim, t).expect("completes").id, JobId(3));
}

#[test]
fn runtime_overload_rejects_at_exactly_the_limit_and_recovers() {
    let session =
        SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::DamC).max_outstanding(2);
    let mut rt = Runtime::from_session(&session);
    let jobs = to_runtime_jobs(&stream());
    let t0 = Executor::submit(&mut rt, jobs[0].clone()).expect("accepted");
    Executor::submit(&mut rt, jobs[1].clone()).expect("accepted");
    // The bound counts live tickets, not in-flight work, so rejection
    // is deterministic no matter how fast the pool retires jobs.
    match Executor::submit(&mut rt, jobs[2].clone()) {
        Err(ExecError::Overloaded { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Redeeming one ticket frees exactly one slot…
    Executor::wait(&mut rt, t0).expect("completes");
    Executor::submit(&mut rt, jobs[2].clone()).expect("slot freed");
    assert!(matches!(
        Executor::submit(&mut rt, jobs[3].clone()),
        Err(ExecError::Overloaded { .. })
    ));
    // …and a drain frees them all.
    assert_eq!(Executor::drain(&mut rt).expect("drains").jobs.len(), 2);
    Executor::submit(&mut rt, jobs[3].clone()).expect("recovered after drain");
    Executor::drain(&mut rt).expect("final drain");
}

/// Under a bound of 3, a batch of 4 can never fit: it is `Rejected`
/// (not `Overloaded`, which promises a retry after a drain) and admits
/// nothing, so a batch of 3 still fits afterwards.
fn check_oversized_batch_is_rejected<G>(ex: &mut dyn Executor<Graph = G>, jobs: Vec<JobSpec<G>>) {
    let mut jobs = jobs.into_iter();
    let four: Vec<_> = jobs.by_ref().take(4).collect();
    assert!(matches!(ex.submit_many(four), Err(ExecError::Rejected(_))));
    let three = ex
        .submit_many(jobs.take(3).collect())
        .expect("fits the bound");
    assert_eq!(three[0].job(), JobId(0), "the rejected batch took no ids");
    assert_eq!(ex.drain().expect("drains").jobs.len(), 3);
}

#[test]
fn a_batch_larger_than_the_bound_is_rejected_on_both_backends() {
    let session = |topo| SessionBuilder::new(Arc::new(topo), Policy::DamC).max_outstanding(3);
    let jobs = stream();
    check_oversized_batch_is_rejected(
        &mut Simulator::from_session(&session(Topology::tx2())),
        jobs.clone(),
    );
    check_oversized_batch_is_rejected(
        &mut Runtime::from_session(&session(Topology::symmetric(2))),
        to_runtime_jobs(&jobs),
    );
}

#[test]
fn rejected_jobs_do_not_poison_the_session() {
    // An invalid graph is rejected by submit on both backends; the
    // session keeps serving valid jobs afterwards.
    let mut sim = sim_exec(Policy::Rws, 1);
    assert!(matches!(
        Executor::submit(&mut sim, JobSpec::new(Dag::new("empty"))),
        Err(ExecError::Rejected(_))
    ));
    let ok = Executor::submit(&mut sim, JobSpec::new(generators::chain(TaskTypeId(0), 3)))
        .expect("valid job accepted");
    assert_eq!(Executor::wait(&mut sim, ok).expect("completes").tasks, 3);

    let mut rt = rt_exec(Policy::Rws, 2);
    assert!(matches!(
        Executor::submit(&mut rt, JobSpec::new(TaskGraph::new("empty"))),
        Err(ExecError::Rejected(_))
    ));
    let ok = Executor::submit(
        &mut rt,
        JobSpec::new(TaskGraph::noop_from_dag(&generators::chain(
            TaskTypeId(0),
            3,
        ))),
    )
    .expect("valid job accepted");
    assert_eq!(Executor::wait(&mut rt, ok).expect("completes").tasks, 3);
}
