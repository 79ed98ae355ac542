//! # das-runtime — a threaded XiTAO-like moldable-task runtime
//!
//! The real-execution counterpart of `das-sim`: OS worker threads (one
//! per modelled core), each owning a **work-stealing queue** (WSQ) of
//! ready tasks and a FIFO **assembly queue** (AQ) of dispatched moldable
//! tasks, exactly the two-queue design of XiTAO described in §4.1.2 of
//! the paper:
//!
//! * when a task's last dependency commits, the committing worker asks the
//!   [`Scheduler`] where to push it (wake-up decision; high-priority tasks
//!   are pinned and not stealable);
//! * when a worker pops (or steals) a ready task it asks the scheduler for
//!   the final execution place (dequeue decision: the PTT *local search*
//!   molds the width) and inserts the assembly into the AQ of every member
//!   core — except a width-1 place the worker leads itself, which runs at
//!   once (nobody else has to join it);
//! * each member executes the task body SPMD-style with its own
//!   [`TaskCtx::rank`]; the leader measures its execution time and trains
//!   the PTT; the last member to finish commits the task and releases the
//!   dependants.
//!
//! ## Job streams
//!
//! The worker pool is **persistent**: threads are spawned once (lazily,
//! at the first submission) and serve every job the runtime ever runs.
//! [`Runtime::submit`] enqueues a [`JobSpec`] and returns a
//! [`JobHandle`] immediately; concurrently submitted jobs share the
//! per-worker queues and the scheduler's PTT, exactly like the
//! simulator's job streams. [`Runtime::drain`] blocks until every
//! outstanding job has committed its last task. The runtime also
//! implements the backend-neutral [`das_core::exec::Executor`]
//! contract, so harnesses written against `&mut dyn Executor` drive it
//! and the simulator identically.
//!
//! The runtime is *functionally* faithful on any host. Whether it also
//! exhibits the paper's performance effects depends on the physical
//! machine having asymmetric/interfered cores — which is exactly why the
//! figure harness uses `das-sim` instead (see `DESIGN.md`).
//!
//! ```
//! use das_runtime::{Runtime, TaskGraph, JobSpec};
//! use das_core::exec::Executor;
//! use das_core::{Policy, Priority, TaskTypeId};
//! use das_topology::Topology;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let topo = Arc::new(Topology::symmetric(2));
//! let mut rt = Runtime::new(topo, Policy::DamC);
//! let hits = Arc::new(AtomicUsize::new(0));
//! let mut g = TaskGraph::new("demo");
//! // Moldable bodies run once per participating rank — partition work by
//! // `ctx.rank` and guard one-shot side effects on rank 0.
//! let h = Arc::clone(&hits);
//! let a = g.add(TaskTypeId(0), Priority::Low, move |ctx| {
//!     if ctx.rank == 0 { h.fetch_add(1, Ordering::Relaxed); }
//! });
//! let h = Arc::clone(&hits);
//! let b = g.add(TaskTypeId(0), Priority::High, move |ctx| {
//!     if ctx.rank == 0 { h.fetch_add(1, Ordering::Relaxed); }
//! });
//! g.add_edge(a, b);
//! // Backend-neutral one-shot through the executor façade:
//! let report = rt.run_dag(g.clone()).unwrap();
//! assert_eq!(report.tasks(), 2);
//! // Backend-specific stream path: submit returns a handle with the
//! // runtime's detailed RtStats.
//! let handle = rt.submit(JobSpec::new(g)).unwrap();
//! let outcome = handle.wait();
//! assert_eq!(outcome.rt.tasks, 2);
//! assert!(outcome.stats.sojourn() >= outcome.stats.makespan());
//! assert_eq!(hits.load(Ordering::Relaxed), 4);
//! ```

mod graph;
mod stats;

pub use das_core::jobs::{JobSpec, JobStats};
pub use graph::{TaskCtx, TaskGraph};
pub use stats::RtStats;

use das_core::exec::{ExecError, ExecExtras, Executor, Session, SessionBuilder, Ticket};
use das_core::jobs::{JobClass, JobId, StreamStats};
use das_core::metrics::ExecProbe;
use das_core::{Policy, ReadyEntry, ReadyQueue, Scheduler};
use das_dag::{DagError, TaskId};
use das_topology::{CoreId, ExecutionPlace, Topology};
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stats::PlaceKey;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle worker parks before rescanning for steal victims.
/// The [`IdleParker`] epoch makes wake-ups race-free (every push that
/// another worker could act on notifies, see [`IdleParker::notify`]),
/// so no work waits on this timer: with it
/// raised to 10 s, the crate's unit tests, `tests/runtime_wakeup.rs`
/// and `tests/end_to_end_runtime.rs` still pass in under 0.2 s each (a
/// 2-CPU Xeon host), where one lost wake-up would stall a test for the
/// full 10 s (shutdown notifies too, so dropping those pools did not
/// wait on it either). The timer is a safety net only; it is long
/// enough that an idle pool is not waking, taking queue locks and
/// re-parking thousands of times per second.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// A race-free park/wake primitive for idle workers.
///
/// The lost-wakeup bug this closes: a worker scans every queue, finds
/// nothing, and calls `wait_for` — but a task pushed (and notified)
/// *between the last scan and the wait* finds no waiter, and the worker
/// sleeps through work it should have taken, delaying dispatch by up to
/// the park timeout. The fix is a generation counter:
///
/// 1. the worker reads the epoch **before** scanning ([`prepare`]);
/// 2. a producer whose push another worker could act on bumps the
///    epoch and notifies ([`notify`] states which pushes those are);
/// 3. [`park`] re-checks the epoch under the lock and refuses to sleep
///    if it moved — a notification between steps 1 and 3 can bump the
///    epoch but cannot slip through, because `notify` takes the same
///    lock the worker holds from the re-check until it is parked.
///
/// [`prepare`]: IdleParker::prepare
/// [`notify`]: IdleParker::notify
/// [`park`]: IdleParker::park
#[derive(Default)]
pub struct IdleParker {
    lock: Mutex<()>,
    cond: Condvar,
    epoch: AtomicU64,
}

impl IdleParker {
    /// A parker with epoch zero and no waiters.
    pub fn new() -> Self {
        IdleParker::default()
    }

    /// Read the current epoch. Call **before** scanning for work; pass
    /// the token to [`IdleParker::park`].
    pub fn prepare(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Announce new work: bump the epoch and wake every parked worker.
    ///
    /// The pool calls this at shutdown and after every push that some
    /// worker other than the pusher could take. A worker skips it for
    /// exactly one push: a pinned (unstealable) entry into its own
    /// WSQ. Only the queue's owner can take it, and here the owner is
    /// the running caller, whose loop rescans its own queues before it
    /// can park. A width-1 place a worker leads is no push at all: it
    /// runs inline. Everything else notifies: the client's submissions
    /// (the client thread is not a worker), stealable entries, pushes
    /// into another worker's queue and every assembly.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        // Taking the lock orders this notification against any worker
        // between its epoch re-check and its wait: we cannot get here
        // while such a worker holds the lock, so either it saw the new
        // epoch or it is already waiting and receives the wakeup.
        drop(self.lock.lock());
        self.cond.notify_all();
    }

    /// Sleep until notified or `timeout` elapses — unless the epoch
    /// moved since `token` was taken, in which case return immediately
    /// (work arrived during the caller's scan). Returns `true` if the
    /// caller should rescan because of a notification, `false` on a
    /// plain timeout.
    pub fn park(&self, token: u64, timeout: Duration) -> bool {
        let mut g = self.lock.lock();
        if self.epoch.load(Ordering::Acquire) != token {
            return true;
        }
        !self.cond.wait_for(&mut g, timeout).timed_out()
    }
}

struct Assembly {
    job: Arc<ActiveJob>,
    task: TaskId,
    place: ExecutionPlace,
    pending: AtomicUsize,
}

/// One ready task of one job: the WSQ payload of the shared pool.
struct JobTask {
    job: Arc<ActiveJob>,
    task: TaskId,
}

#[derive(Default)]
struct WorkerQ {
    /// The shared `das-core` ready-queue discipline behind a lock: every
    /// pop/steal ordering decision is delegated to it, so worker threads
    /// behave exactly like the simulator's modelled cores.
    wsq: Mutex<ReadyQueue<JobTask>>,
    aq: Mutex<VecDeque<Arc<Assembly>>>,
}

#[derive(Default)]
struct StatsInner {
    high_priority_places: BTreeMap<PlaceKey, usize>,
    all_places: BTreeMap<PlaceKey, usize>,
}

/// Everything the pool completes for one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Detailed execution statistics (place histograms, steal count).
    pub rt: RtStats,
    /// Backend-neutral latency record (arrival / start / completion on
    /// the pool clock, seconds since the runtime was created).
    pub stats: JobStats,
}

/// A submitted job living in the pool. All counters are per-job so
/// concurrently running jobs account independently.
struct ActiveJob {
    id: JobId,
    class: JobClass,
    graph: TaskGraph,
    preds: Vec<AtomicU32>,
    remaining: AtomicUsize,
    tasks: usize,
    /// Seconds since pool epoch at submission.
    arrival: f64,
    /// Absolute deadline on the pool clock, if the spec carried one.
    deadline: Option<f64>,
    /// Nanoseconds since pool epoch of the first task-body start;
    /// `u64::MAX` until then.
    started_ns: AtomicU64,
    stats: Mutex<StatsInner>,
    core_busy_ns: Vec<AtomicU64>,
    steals: AtomicUsize,
    /// Set when any task body of this job panicked; `wait` re-raises.
    poisoned: AtomicBool,
    done: Mutex<Option<JobOutcome>>,
    done_cond: Condvar,
}

/// Handle to a submitted job; obtained from [`Runtime::submit`].
pub struct JobHandle {
    job: Arc<ActiveJob>,
    pool: Arc<PoolShared>,
}

impl JobHandle {
    /// The job's id (dense, in submission order).
    pub(crate) fn id(&self) -> JobId {
        self.job.id
    }

    /// Block until the job's last task commits; returns its stats.
    ///
    /// Waiting *consumes* the job's [`Runtime::drain`] record — a
    /// caller collecting results per handle does not also accumulate
    /// them in the drain buffer (which would grow without bound in a
    /// long-lived service that never drains).
    ///
    /// # Panics
    /// Re-raises if any task body of this job panicked (the worker
    /// itself survives; the pool stays usable).
    #[expect(
        clippy::panic,
        reason = "re-raises a task body's panic in the waiting caller; \
                  the worker that caught it survives"
    )]
    pub fn wait(&self) -> JobOutcome {
        let out = {
            let mut g = self.job.done.lock();
            loop {
                if let Some(out) = g.as_ref() {
                    break out.clone();
                }
                self.job.done_cond.wait(&mut g);
            }
        };
        self.pool.completed.lock().remove(self.job.id);
        if self.job.poisoned.load(Ordering::Acquire) {
            panic!("task body panicked in {}", self.job.id);
        }
        out
    }
}

/// Completion records awaiting collection, keyed by job id so a
/// [`JobHandle::wait`] consumes its own record in O(log jobs) instead
/// of an O(jobs) scan under the lock.
#[derive(Default)]
struct CompletedLedger(BTreeMap<u64, JobStats>);

impl CompletedLedger {
    fn push(&mut self, st: JobStats) {
        self.0.insert(st.id.0, st);
    }

    fn remove(&mut self, id: JobId) {
        self.0.remove(&id.0);
    }

    /// Take every record in completion order (completion times are on
    /// the monotone pool clock, ties broken by id).
    fn drain(&mut self) -> Vec<JobStats> {
        let mut out: Vec<JobStats> = std::mem::take(&mut self.0).into_values().collect();
        out.sort_by(|a, b| a.completed.total_cmp(&b.completed).then(a.id.cmp(&b.id)));
        out
    }
}

/// State shared between the submitting thread(s) and the worker pool.
struct PoolShared {
    sched: Arc<Scheduler>,
    queues: Vec<WorkerQ>,
    parker: IdleParker,
    shutdown: AtomicBool,
    /// Outstanding (submitted, not yet completed) jobs. Lock-free on
    /// the submit/commit fast path; `drained` is only signalled on the
    /// 1 -> 0 edge, under `drain_lock` so a waiter between its check
    /// and its wait cannot miss the edge.
    active: AtomicUsize,
    drain_lock: Mutex<()>,
    drained: Condvar,
    /// Stats of completed jobs awaiting collection by `drain`.
    completed: Mutex<CompletedLedger>,
    next_job: AtomicU64,
    /// Wall-clock zero of the pool's job clock.
    epoch: Instant,
}

impl PoolShared {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Wake-up decision + push (Fig. 3 steps 1–2). `by_worker` is
    /// false on the submit path, where the client thread stands in for
    /// `waking_core` without being its worker.
    fn wakeup(&self, job: &Arc<ActiveJob>, task: TaskId, waking_core: usize, by_worker: bool) {
        let meta = job.graph.shape().node(task).meta;
        let d = self.sched.on_wakeup(&meta, CoreId(waking_core));
        // Build the entry (Arc bump included) before touching the
        // queue: the lock window is exactly one VecDeque push.
        let entry = ReadyEntry::new(
            JobTask {
                job: Arc::clone(job),
                task,
            },
            &d,
        );
        // No one else can take a pinned entry in this worker's own
        // queue (the rule at `IdleParker::notify`).
        let own_only = by_worker && !entry.is_stealable() && d.queue.0 == waking_core;
        self.queues[d.queue.0].wsq.lock().push(entry);
        if !own_only {
            self.parker.notify();
        }
    }

    /// Dequeue decision + AQ insertion (Fig. 3 steps 4–6). A width-1
    /// place this worker leads has nobody to assemble with: it runs
    /// here and now, with no assembly.
    fn dispatch(&self, entry: ReadyEntry<JobTask>, core: usize) {
        let (jt, pinned) = entry.into_parts();
        let meta = jt.job.graph.shape().node(jt.task).meta;
        let place = self.sched.on_dequeue(&meta, CoreId(core), pinned);
        if place.width == 1 && place.leader.0 == core {
            self.execute(&jt.job, jt.task, place, core);
            self.commit(&jt.job, jt.task, place, core);
            return;
        }
        let asm = Arc::new(Assembly {
            job: jt.job,
            task: jt.task,
            place,
            pending: AtomicUsize::new(place.width),
        });
        for m in place.member_cores() {
            // Clone outside the lock; the window is one push_back.
            let member_ref = Arc::clone(&asm);
            self.queues[m.0].aq.lock().push_back(member_ref);
        }
        self.parker.notify();
    }

    /// Execute this worker's share of the assembly at the head of its
    /// AQ; the last member to finish commits. Returns `false` if the
    /// AQ was empty.
    fn participate(&self, core: usize) -> bool {
        let Some(asm) = self.queues[core].aq.lock().pop_front() else {
            return false;
        };
        self.execute(&asm.job, asm.task, asm.place, core);
        if asm.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.commit(&asm.job, asm.task, asm.place, core);
        }
        true
    }

    /// Run `core`'s rank of `task` on `place` (Fig. 3 step 7) and, on
    /// the leader, train the PTT with the observed time (step 8).
    fn execute(&self, job: &ActiveJob, task: TaskId, place: ExecutionPlace, core: usize) {
        let rank = place
            .rank_of(CoreId(core))
            .expect("task executed on a non-member core");
        let ctx = TaskCtx {
            rank,
            width: place.width,
            place,
            core: CoreId(core),
        };
        // The job's queueing delay ends at its first task-body start.
        // Read the stamp first: a failing compare-exchange still takes
        // the job's cache line exclusive, once per member per task.
        // relaxed-ok: a stale unset read costs one clock read; the
        // compare-exchange decides which stamp wins.
        if job.started_ns.load(Ordering::Relaxed) == u64::MAX {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            let _ = job.started_ns.compare_exchange(
                u64::MAX,
                now_ns,
                Ordering::AcqRel,
                Ordering::Relaxed, // relaxed-ok: failure means another lane already stamped it
            );
        }
        let node = job.graph.shape().node(task);
        #[expect(
            clippy::disallowed_methods,
            reason = "real execution-time measurement: this is the sample that trains \
                      the PTT, the one place the runtime must read the wall clock"
        )]
        let t0 = Instant::now();
        // A panicking body must not kill the worker: the pool is
        // persistent, and an unwinding worker would skip this task's
        // commit (stranding a wide assembly's pending count), hang
        // every waiter (including `Drop`) and poison all future jobs
        // whose pinned entries land in the dead worker's queue. Catch
        // it, poison the job, and keep the accounting alive;
        // `JobHandle::wait` re-raises.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (job.graph.body(task))(&ctx)
        }));
        let elapsed = t0.elapsed();
        // relaxed-ok: per-core busy-time statistic; read only after the
        // job completes (completion carries the release/acquire edge).
        job.core_busy_ns[core].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if outcome.is_err() {
            job.poisoned.store(true, Ordering::Release);
        } else if CoreId(core) == place.leader {
            // Step 8: the leader trains the PTT with its observed time.
            self.sched
                .record(node.meta.ty, place, elapsed.as_secs_f64());
        }
    }

    /// Last participant: record, release dependants, maybe finish the
    /// job.
    fn commit(&self, job: &Arc<ActiveJob>, task: TaskId, place: ExecutionPlace, core: usize) {
        let node = job.graph.shape().node(task);
        {
            let mut st = job.stats.lock();
            let key = (place.leader.0, place.width);
            *st.all_places.entry(key).or_insert(0) += 1;
            if node.meta.priority.is_high() {
                *st.high_priority_places.entry(key).or_insert(0) += 1;
            }
        }
        for &s in &node.succs {
            if job.preds[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.wakeup(job, s, core, true);
            }
        }
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish_job(job);
        }
    }

    /// Assemble the job's stats, publish them, and account it out of
    /// the active set.
    fn finish_job(&self, job: &Arc<ActiveJob>) {
        let completed = self.now();
        let started_ns = job.started_ns.load(Ordering::Acquire);
        let started = if started_ns == u64::MAX {
            completed
        } else {
            started_ns as f64 * 1e-9
        };
        let inner = job.stats.lock();
        let rt = RtStats {
            // Makespan proper (first start to last commit), matching
            // `JobStats::makespan`; queueing delay is reported
            // separately, never folded in.
            makespan: Duration::from_secs_f64((completed - started).max(0.0)),
            tasks: job.tasks,
            core_busy: job
                .core_busy_ns
                .iter()
                // relaxed-ok: read after job completion; the completion
                // handshake already ordered every counter update.
                .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
                .collect(),
            high_priority_places: inner.high_priority_places.clone(),
            all_places: inner.all_places.clone(),
            // relaxed-ok: read after job completion (same edge as above).
            steals: job.steals.load(Ordering::Relaxed),
        };
        drop(inner);
        let stats = JobStats {
            id: job.id,
            class: job.class,
            arrival: job.arrival,
            started,
            completed,
            tasks: job.tasks,
            deadline: job.deadline,
        };
        // Publish the drain record FIRST: `run` prunes its own record
        // right after `wait` returns, so the record must be in the
        // buffer before `done` is signalled; and it must be in before
        // `active` is decremented so a zero observed by `drain` implies
        // every record is visible.
        self.completed.lock().push(stats);
        *job.done.lock() = Some(JobOutcome { rt, stats });
        job.done_cond.notify_all();
        // Lock-free decrement; the condvar is touched only on the
        // 1 -> 0 edge. Taking `drain_lock` orders the notify against a
        // drainer between its zero-check and its wait.
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(self.drain_lock.lock());
            self.drained.notify_all();
        }
    }

    /// Block until no job is outstanding.
    fn wait_drained(&self) {
        let mut g = self.drain_lock.lock();
        while self.active.load(Ordering::Acquire) > 0 {
            self.drained.wait(&mut g);
        }
    }

    /// Scan victims from a random starting point; the entry taken from
    /// a victim is chosen by the shared `das-core` queue discipline.
    fn try_steal(&self, thief: usize, rng: &mut SmallRng) -> Option<ReadyEntry<JobTask>> {
        let n = self.queues.len();
        if n <= 1 {
            return None;
        }
        let eligible = |jt: &JobTask| {
            self.sched
                .may_run_on(&jt.job.graph.shape().node(jt.task).meta, CoreId(thief))
        };
        let start = rng.gen_range(0..n);
        for off in 0..n {
            let v = (start + off) % n;
            if v == thief {
                continue;
            }
            if let Some(entry) = self.queues[v].wsq.lock().steal(eligible) {
                // relaxed-ok: monotone steal statistic; the queue mutex
                // orders the steal itself, the counter is advisory.
                entry.payload().job.steals.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
        }
        None
    }

    fn worker(&self, core: usize, seed: u64, park_timeout: Duration) {
        let mut rng = SmallRng::seed_from_u64(seed ^ core as u64);
        loop {
            // Epoch token FIRST, then the scans: any push during the
            // scans that this worker could take bumps the epoch, and
            // `park` refuses to sleep.
            let token = self.parker.prepare();
            if self.participate(core) {
                continue;
            }
            // The pop order (pinned entries first, oldest first, then
            // the backlog) is the shared `das-core` discipline — see
            // `ReadyQueue::pop_own`.
            let own = self.queues[core].wsq.lock().pop_own();
            if let Some(entry) = own {
                self.dispatch(entry, core);
                continue;
            }
            if let Some(entry) = self.try_steal(core, &mut rng) {
                self.dispatch(entry, core);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.parker.park(token, park_timeout);
        }
    }
}

/// The runtime: a platform model, a scheduler, and a **persistent
/// worker pool** (one OS thread per modelled core, spawned lazily at
/// the first submission and reused by every subsequent job). The
/// scheduler (and its PTT state) likewise persists, so iterative
/// applications keep their trained model across jobs.
///
/// Dropping the runtime waits for every outstanding job to complete
/// (so no [`JobHandle::wait`] can hang on an abandoned job), then shuts
/// the pool down and joins the worker threads.
pub struct Runtime {
    topo: Arc<Topology>,
    sched: Arc<Scheduler>,
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    seed: u64,
    park_timeout: Duration,
    /// The [`Executor`] façade's ledger (the handles of jobs submitted
    /// through it, redeemable by ticket), bound and probe.
    session: Session<JobHandle>,
}

impl Runtime {
    /// Runtime with a fresh scheduler of the given policy.
    pub fn new(topo: Arc<Topology>, policy: Policy) -> Self {
        let sched = Arc::new(Scheduler::new(Arc::clone(&topo), policy));
        Runtime::with_scheduler(sched)
    }

    /// Build a runtime from the backend-neutral [`SessionBuilder`]: the
    /// scheduler (policy, ratio, sampled search, exploration, the steal
    /// ablation), the steal-RNG seed, the admission bound and the
    /// metrics switch all take effect. The worker count is the session
    /// topology's core count (one OS thread per modelled core).
    pub fn from_session(session: &SessionBuilder) -> Self {
        let mut rt = Runtime::with_scheduler(Arc::new(session.scheduler())).seed(session.seed);
        rt.session = Session::new(session);
        rt
    }

    /// Runtime around an existing scheduler (shared PTT state).
    pub(crate) fn with_scheduler(sched: Arc<Scheduler>) -> Self {
        let topo = Arc::clone(sched.topology());
        let n = topo.num_cores();
        let shared = Arc::new(PoolShared {
            sched: Arc::clone(&sched),
            queues: (0..n).map(|_| WorkerQ::default()).collect(),
            parker: IdleParker::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            drain_lock: Mutex::new(()),
            drained: Condvar::new(),
            completed: Mutex::new(CompletedLedger::default()),
            next_job: AtomicU64::new(0),
            epoch: {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the zero point all task timestamps are relative to; only \
                              durations from it ever surface"
                )]
                Instant::now()
            },
        });
        Runtime {
            topo,
            sched,
            shared,
            handles: Mutex::new(Vec::new()),
            // One default steal-RNG seed across construction paths:
            // Runtime::new, from_session and the sim all start from the
            // SessionBuilder default.
            seed: 0x5eed,
            park_timeout: PARK_TIMEOUT,
            session: Session::default(),
        }
    }

    /// Set the base seed of the per-worker steal RNGs. Takes effect at
    /// pool start — call before the first submission.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the idle-park timeout (tests; the default is
    /// `PARK_TIMEOUT`, 10 ms). Takes effect at pool start — call
    /// before the first submission.
    pub fn park_timeout(mut self, timeout: Duration) -> Self {
        self.park_timeout = timeout;
        self
    }

    /// The scheduler (PTT inspection, sharing across runtimes).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    fn ensure_workers(&self) {
        let mut handles = self.handles.lock();
        if !handles.is_empty() {
            return;
        }
        for core in 0..self.topo.num_cores() {
            let shared = Arc::clone(&self.shared);
            let (seed, pt) = (self.seed, self.park_timeout);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("das-worker-{core}"))
                    .spawn(move || shared.worker(core, seed, pt))
                    .expect("spawn worker thread"),
            );
        }
    }

    /// Submit a job to the pool. Its roots become ready immediately;
    /// the returned handle resolves when its last task commits. The
    /// spec's `arrival` is advisory (the pool records the actual submit
    /// time); a relative deadline (`spec.deadline - spec.arrival`) is
    /// preserved against the actual arrival.
    pub fn submit(&self, spec: JobSpec<TaskGraph>) -> Result<JobHandle, DagError> {
        let mut handles = self.submit_all(vec![spec])?;
        Ok(handles.pop().expect("a one-job batch has one handle"))
    }

    /// The one way into the pool, with the per-job fixed costs paid
    /// once per batch: one pool-lock acquisition (`ensure_workers`),
    /// one arrival stamp, one `JobId` block reservation (a single
    /// `fetch_add(n)` on the id counter) and one active-count update.
    /// Ids are dense in batch order. Validation is all-or-nothing: an
    /// invalid graph anywhere rejects the batch before any job is
    /// admitted.
    fn submit_all(&self, specs: Vec<JobSpec<TaskGraph>>) -> Result<Vec<JobHandle>, DagError> {
        for spec in &specs {
            spec.graph.validate()?;
        }
        self.ensure_workers();
        let n = specs.len();
        let arrival = self.shared.now();
        // relaxed-ok: job-id allocation; ids only need uniqueness, the
        // queue pushes below publish the jobs themselves.
        let base = self.shared.next_job.fetch_add(n as u64, Ordering::Relaxed);
        let jobs: Vec<Arc<ActiveJob>> = specs
            .into_iter()
            .enumerate()
            .map(|(k, spec)| self.make_job(spec, JobId(base + k as u64), arrival))
            .collect();
        self.shared.active.fetch_add(n, Ordering::AcqRel);
        // The submitting thread plays the role of XiTAO's main thread
        // (core 0 context) releasing the roots.
        for job in &jobs {
            for root in job.graph.shape().roots() {
                self.shared.wakeup(job, root, 0, false);
            }
        }
        Ok(jobs
            .into_iter()
            .map(|job| JobHandle {
                job,
                pool: Arc::clone(&self.shared),
            })
            .collect())
    }

    /// Construct the live-job record for a pre-validated spec under a
    /// pre-allocated id.
    fn make_job(&self, spec: JobSpec<TaskGraph>, id: JobId, arrival: f64) -> Arc<ActiveJob> {
        let deadline = spec.deadline.map(|d| arrival + (d - spec.arrival).max(0.0));
        Arc::new(ActiveJob {
            id,
            class: spec.class,
            preds: spec
                .graph
                .shape()
                .nodes()
                .iter()
                .map(|nd| AtomicU32::new(nd.num_preds))
                .collect(),
            remaining: AtomicUsize::new(spec.graph.len()),
            tasks: spec.graph.len(),
            arrival,
            deadline,
            started_ns: AtomicU64::new(u64::MAX),
            stats: Mutex::new(StatsInner::default()),
            core_busy_ns: (0..self.topo.num_cores())
                .map(|_| AtomicU64::new(0))
                .collect(),
            steals: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            done: Mutex::new(None),
            done_cond: Condvar::new(),
            graph: spec.graph,
        })
    }

    /// Block until every submitted job has completed; returns (and
    /// clears) the completion records accumulated since the last drain,
    /// in completion order.
    pub fn drain(&self) -> Vec<JobStats> {
        self.shared.wait_drained();
        self.shared.completed.lock().drain()
    }

    /// Bank a completed façade job's steals and its share of the
    /// utilisation gauge, which sums per job (kernel time over job
    /// makespan × cores) and so is not a wall-clock figure.
    fn bank(&mut self, handle: &JobHandle) {
        // relaxed-ok: read after the job completed; the completion
        // handshake ordered the counter updates.
        let steals = handle.job.steals.load(Ordering::Relaxed) as u64;
        *self.session.extras.steals.get_or_insert(0) += steals;
        if let Some(p) = self.session.probe.as_mut() {
            p.steals += steals;
            if let Some(JobOutcome { rt, .. }) = handle.job.done.lock().as_ref() {
                p.busy += rt.core_busy.iter().map(Duration::as_secs_f64).sum::<f64>();
                p.capacity += rt.makespan.as_secs_f64() * rt.core_busy.len() as f64;
            }
        }
    }
}

/// The backend-neutral executor contract over the threaded worker
/// pool. `submit` maps onto the pool's native submission (the job
/// starts immediately — the spec's `arrival` stays advisory, exactly
/// as with [`Runtime::submit`]); `wait` redeems a ticket through the
/// job's [`JobHandle`]; `drain` collects everything not individually
/// waited. Timestamps are wall-clock seconds since pool creation.
///
/// # Panics
/// [`Executor::wait`] re-raises a task-body panic of the waited job
/// (like [`JobHandle::wait`]); `drain` does not.
impl Executor for Runtime {
    type Graph = TaskGraph;

    fn backend(&self) -> &'static str {
        "das-runtime"
    }

    fn submit(&mut self, spec: JobSpec<TaskGraph>) -> Result<Ticket, ExecError> {
        let mut tickets = self.submit_many(vec![spec])?;
        Ok(tickets.pop().expect("a one-job batch has one ticket"))
    }

    /// All or nothing: a batch over the bound or holding an invalid
    /// graph admits no job.
    fn submit_many(&mut self, specs: Vec<JobSpec<TaskGraph>>) -> Result<Vec<Ticket>, ExecError> {
        self.session.admit(specs.len())?;
        let handles = self
            .submit_all(specs)
            .map_err(|e| ExecError::Rejected(e.to_string()))?;
        Ok(handles
            .into_iter()
            .map(|handle| self.session.issue(handle.id(), handle))
            .collect())
    }

    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        let handle = self.session.redeem(ticket)?;
        let outcome = handle.wait();
        self.bank(&handle);
        self.session.complete(&outcome.stats);
        Ok(outcome.stats)
    }

    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        let records = Runtime::drain(self);
        // Every outstanding job is complete after the pool drain.
        for handle in self.session.retire_all() {
            self.bank(&handle);
        }
        for r in &records {
            self.session.complete(r);
        }
        self.session.bank_residual(&self.sched);
        Ok(StreamStats::from_jobs(records))
    }

    fn take_extras(&mut self) -> ExecExtras {
        std::mem::take(&mut self.session.extras)
    }

    fn metrics_probe(&mut self) -> Option<ExecProbe> {
        self.session.metrics_probe()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Outstanding jobs first: a worker that transiently finds its
        // queues empty after `shutdown` would exit even though a
        // mid-flight job's successors (possibly pinned to that worker's
        // queue, hence unstealable) are about to be released — leaving
        // the job permanently incomplete and any `JobHandle::wait`
        // hanging. Workers guarantee liveness while running, so waiting
        // for the active count to reach zero terminates.
        self.shared.wait_drained();
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.parker.notify();
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{Priority, TaskMeta, TaskTypeId};
    use std::sync::atomic::AtomicU64;

    fn rt(policy: Policy, cores: usize) -> Runtime {
        Runtime::new(Arc::new(Topology::symmetric(cores)), policy)
    }

    /// submit + wait shorthand for one-shot test graphs.
    fn run(rt: &Runtime, g: &TaskGraph) -> RtStats {
        rt.submit(JobSpec::new(g.clone()))
            .expect("valid graph")
            .wait()
            .rt
    }

    #[test]
    fn all_tasks_execute_exactly_once() {
        let runtime = rt(Policy::Rws, 4);
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new("count");
        let mut prev = None;
        for _ in 0..200 {
            let c = Arc::clone(&count);
            let id = g.add(TaskTypeId(0), Priority::Low, move |_| {
                c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
            });
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        let st = run(&runtime, &g);
        assert_eq!(st.tasks, 200);
        assert_eq!(count.load(Ordering::Relaxed), 200); // relaxed-ok: read after wait(); job completion orders the counters
    }

    #[test]
    fn dependencies_are_respected() {
        // Parent writes, children add, join reads: ordering violations
        // surface as a wrong final value. Diamond shape exercises joins.
        for policy in Policy::ALL {
            let runtime = Runtime::new(Arc::new(Topology::big_little(2, 2, 2.0)), policy);
            let cell = Arc::new(AtomicU64::new(0));
            let seen = Arc::new(AtomicU64::new(u64::MAX));
            let mut g = TaskGraph::new("diamond");
            let c = Arc::clone(&cell);
            let a = g.add(TaskTypeId(0), Priority::High, move |_| {
                c.store(41, Ordering::SeqCst);
            });
            // NB: moldable bodies run once per rank; guard side effects
            // so a width-2 molding does not double-count.
            let c = Arc::clone(&cell);
            let b1 = g.add(TaskTypeId(0), Priority::Low, move |ctx| {
                if ctx.rank == 0 {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            });
            let c = Arc::clone(&cell);
            let b2 = g.add(TaskTypeId(0), Priority::Low, move |ctx| {
                if ctx.rank == 0 {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            });
            let (c, s) = (Arc::clone(&cell), Arc::clone(&seen));
            let d = g.add(TaskTypeId(0), Priority::High, move |_| {
                s.store(c.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            g.add_edge(a, b1);
            g.add_edge(a, b2);
            g.add_edge(b1, d);
            g.add_edge(b2, d);
            run(&runtime, &g);
            assert_eq!(seen.load(Ordering::SeqCst), 43, "{policy}");
        }
    }

    #[test]
    fn moldable_task_sees_all_ranks() {
        // Force a wide place by pre-training the PTT so the local search
        // prefers width 4, then check each rank runs exactly once.
        let topo = Arc::new(Topology::symmetric(4));
        let runtime = Runtime::new(Arc::clone(&topo), Policy::RwsmC);
        let ptt = runtime.scheduler().ptts().table(TaskTypeId(0));
        for c in topo.cores() {
            ptt.seed(c, 1, 1.0);
            ptt.seed(c, 2, 0.4);
            ptt.seed(c, 4, 0.1); // cost 0.4 — cheapest
        }
        let ranks = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new("wide");
        let r = Arc::clone(&ranks);
        g.add(TaskTypeId(0), Priority::Low, move |ctx| {
            r.lock().push((ctx.rank, ctx.width));
        });
        run(&runtime, &g);
        let mut got = ranks.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn leader_trains_ptt() {
        let runtime = rt(Policy::DamC, 2);
        let mut g = TaskGraph::new("train");
        g.add(TaskTypeId(3), Priority::Low, |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        run(&runtime, &g);
        let ptt = runtime.scheduler().ptts().table(TaskTypeId(3));
        let snap = ptt.snapshot();
        let trained: f64 = snap.rows.iter().flatten().filter(|v| v.is_finite()).sum();
        assert!(trained > 0.0, "some entry must be trained");
    }

    #[test]
    fn stats_place_histograms_consistent() {
        let runtime = Runtime::new(Arc::new(Topology::big_little(2, 2, 2.0)), Policy::Fa);
        let mut g = TaskGraph::new("hist");
        let root = g.add(TaskTypeId(0), Priority::Low, |_| {});
        for i in 0..50 {
            let prio = if i % 5 == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let t = g.add(TaskTypeId(0), prio, |_| {});
            g.add_edge(root, t);
        }
        let st = run(&runtime, &g);
        let all: usize = st.all_places.values().sum();
        let high: usize = st.high_priority_places.values().sum();
        assert_eq!(all, 51);
        assert_eq!(high, 10);
        // FA pins high-priority tasks to the fast (big) cluster: cores 0,1.
        for (core, _) in st.high_priority_places.keys() {
            assert!(*core < 2);
        }
    }

    #[test]
    fn node_affinity_runs_on_right_node() {
        let topo = Arc::new(
            Topology::builder()
                .node(0)
                .cluster("n0", 2, 1.0)
                .node(1)
                .cluster("n1", 2, 1.0)
                .build(),
        );
        let runtime = Runtime::new(Arc::clone(&topo), Policy::DamP);
        let seen_core = Arc::new(AtomicUsize::new(usize::MAX));
        let mut g = TaskGraph::new("affine");
        let s = Arc::clone(&seen_core);
        g.add_meta(
            TaskMeta::new(TaskTypeId(0), Priority::High).with_affinity(1),
            move |ctx| {
                s.store(ctx.core.0, Ordering::SeqCst);
            },
        );
        run(&runtime, &g);
        let core = seen_core.load(Ordering::SeqCst);
        assert!(core >= 2, "affinity-1 task ran on core {core}");
    }

    #[test]
    fn empty_graph_is_an_error() {
        let mut runtime = rt(Policy::Rws, 2);
        let g = TaskGraph::new("empty");
        assert!(runtime.submit(JobSpec::new(g.clone())).is_err());
        // The facade maps the rejection onto the backend-neutral error.
        assert!(matches!(
            Executor::submit(&mut runtime, JobSpec::new(g)),
            Err(ExecError::Rejected(_))
        ));
    }

    #[test]
    fn ptt_persists_across_runs() {
        let runtime = rt(Policy::DamC, 2);
        let mut g = TaskGraph::new("p");
        g.add(TaskTypeId(0), Priority::Low, |_| {});
        run(&runtime, &g);
        let before = runtime.scheduler().ptts().len();
        run(&runtime, &g);
        assert_eq!(runtime.scheduler().ptts().len(), before);
    }

    #[test]
    fn pinned_entries_serviced_before_stealable_backlog() {
        // A worker whose queue holds [stealable…, pinned] must run the
        // pinned entry first — the regression behind the Fig. 4/6 shape:
        // a pinned critical task stuck behind stealable siblings
        // serialises the layer on one core. We approximate by checking
        // that under DAM-C the critical chain makes progress even when
        // every wake-up lands on the same worker.
        let topo = Arc::new(Topology::symmetric(2));
        let runtime = Runtime::new(Arc::clone(&topo), Policy::DamC);
        // Warm the pool: on a loaded single-CPU host the second worker
        // thread can take milliseconds to start, during which a pinned
        // entry in its queue has no owner to service it. One throwaway
        // run guarantees both workers are up and parked.
        let mut warm = TaskGraph::new("warmup");
        warm.add(TaskTypeId(0), Priority::Low, |_| {});
        run(&runtime, &warm);
        // Pre-train the PTT so every search prefers width 1: otherwise
        // exploration molds the low tasks to width 2 and their
        // assemblies legitimately clog both cores' AQs (AQ before WSQ
        // is the XiTAO discipline), which is not what this test is
        // about. With width-1 placements the only way the critical task
        // runs late is a pop-order violation.
        let ptt = runtime.scheduler().ptts().table(TaskTypeId(0));
        for c in topo.cores() {
            ptt.seed(c, 1, 1e-4);
            ptt.seed(c, 2, 1.0); // parallel cost 2.0 — never chosen
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new("pinned-first");
        let root = g.add(TaskTypeId(0), Priority::Low, |_| {});
        // One critical successor and many stealable ones.
        let o = Arc::clone(&order);
        let crit = g.add(TaskTypeId(0), Priority::High, move |ctx| {
            if ctx.rank == 0 {
                o.lock().push("crit");
            }
        });
        g.add_edge(root, crit);
        for _ in 0..6 {
            let o = Arc::clone(&order);
            // Bodies sleep briefly so both workers get CPU time even on
            // a single-hardware-thread host — otherwise one worker can
            // race through the whole backlog before its sibling (which
            // owns the pinned entry's queue) is ever scheduled.
            let t = g.add(TaskTypeId(0), Priority::Low, move |ctx| {
                if ctx.rank == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                    o.lock().push("low");
                }
            });
            g.add_edge(root, t);
        }
        let st = run(&runtime, &g);
        let seq = order.lock().clone();
        assert_eq!(seq.len(), 7);
        // The critical task must not be the last thing to run: the
        // pinned-first rule lets it overtake the stealable backlog on
        // its own queue.
        let pos = seq.iter().position(|s| *s == "crit").unwrap();
        assert!(
            pos < seq.len() - 1,
            "critical ran dead last: {seq:?} high={:?} all={:?} steals={}",
            st.high_priority_places,
            st.all_places,
            st.steals
        );
    }

    #[test]
    fn wide_fanout_completes_and_steals() {
        // Independent tasks on 8 workers: exercises stealing. Bodies
        // sleep briefly so sibling worker threads get CPU time even on a
        // single-hardware-thread host.
        let runtime = rt(Policy::Rws, 8);
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new("fan");
        let root = g.add(TaskTypeId(0), Priority::Low, |_| {});
        for _ in 0..64 {
            let c = Arc::clone(&count);
            let t = g.add(TaskTypeId(0), Priority::Low, move |_| {
                std::thread::sleep(Duration::from_micros(300));
                c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
            });
            g.add_edge(root, t);
        }
        let st = run(&runtime, &g);
        assert_eq!(count.load(Ordering::Relaxed), 64); // relaxed-ok: read after wait(); job completion orders the counters
        assert!(st.steals > 0, "stealing must occur on a fan-out");
    }

    #[test]
    fn submitted_jobs_share_one_pool_and_account_separately() {
        let runtime = rt(Policy::Rws, 4);
        let counts: Vec<_> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let handles: Vec<_> = counts
            .iter()
            .map(|c| {
                let mut g = TaskGraph::new("j");
                let root = g.add(TaskTypeId(0), Priority::Low, |_| {});
                for _ in 0..10 {
                    let c = Arc::clone(c);
                    let t = g.add(TaskTypeId(0), Priority::Low, move |_| {
                        c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
                    });
                    g.add_edge(root, t);
                }
                runtime.submit(JobSpec::new(g)).unwrap()
            })
            .collect();
        for (i, h) in handles.iter().enumerate() {
            let out = h.wait();
            assert_eq!(out.rt.tasks, 11);
            assert_eq!(out.stats.tasks, 11);
            assert_eq!(out.stats.id, JobId(i as u64));
            assert!(out.stats.completed >= out.stats.started);
            assert!(out.stats.started >= out.stats.arrival);
            let committed: usize = out.rt.all_places.values().sum();
            assert_eq!(committed, 11, "per-job histogram isolated");
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 10); // relaxed-ok: read after wait(); job completion orders the counters
        }
        // Waiting a handle consumes the job's drain record, so a
        // handle-collecting caller leaves the drain buffer empty.
        assert!(runtime.drain().is_empty());
    }

    #[test]
    fn waited_one_shots_leave_no_drain_records() {
        // submit+wait callers (the old `run` shape) never call drain();
        // their records must not accumulate in the drain buffer forever.
        let runtime = rt(Policy::Rws, 2);
        for _ in 0..10 {
            let mut g = TaskGraph::new("r");
            g.add(TaskTypeId(0), Priority::Low, |_| {});
            run(&runtime, &g);
        }
        assert!(runtime.drain().is_empty());
        // Mixed usage: un-waited submissions still reach drain.
        let mut g = TaskGraph::new("s");
        g.add(TaskTypeId(0), Priority::Low, |_| {});
        let _h = runtime.submit(JobSpec::new(g.clone())).unwrap();
        run(&runtime, &g);
        assert_eq!(runtime.drain().len(), 1);
    }

    #[test]
    fn wait_among_many_undrained_jobs_stays_correct() {
        // Regression for the O(jobs) retain scan in `JobHandle::wait`:
        // with many completed-but-undrained jobs in the ledger, each
        // wait must still return its own job's outcome and consume
        // exactly its own drain record — here exercised from the worst
        // position (waiting in reverse completion order).
        let runtime = rt(Policy::Rws, 2);
        let handles: Vec<_> = (0..40)
            .map(|_| {
                let mut g = TaskGraph::new("u");
                g.add(TaskTypeId(0), Priority::Low, |_| {});
                runtime.submit(JobSpec::new(g)).unwrap()
            })
            .collect();
        for (i, h) in handles.iter().enumerate().rev() {
            let out = h.wait();
            assert_eq!(out.stats.id, JobId(i as u64));
            assert_eq!(out.rt.tasks, 1);
        }
        assert!(runtime.drain().is_empty(), "every record consumed");
    }

    #[test]
    fn drain_returns_unwaited_records_in_completion_order() {
        let runtime = rt(Policy::Rws, 2);
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let mut g = TaskGraph::new("o");
                g.add(TaskTypeId(0), Priority::Low, |_| {});
                runtime.submit(JobSpec::new(g)).unwrap()
            })
            .collect();
        // Consume every third record by handle; the rest must drain in
        // completion order despite the removals in between.
        for h in handles.iter().step_by(3) {
            h.wait();
        }
        let drained = runtime.drain();
        assert_eq!(drained.len(), 8);
        for w in drained.windows(2) {
            assert!(w[0].completed <= w[1].completed, "{w:?}");
        }
        let waited: Vec<u64> = handles.iter().step_by(3).map(|h| h.id().0).collect();
        for j in &drained {
            assert!(!waited.contains(&j.id.0), "waited record leaked: {j:?}");
        }
    }

    #[test]
    fn panicking_body_poisons_job_but_not_pool() {
        let runtime = rt(Policy::Rws, 2);
        let mut bad = TaskGraph::new("bad");
        bad.add(TaskTypeId(0), Priority::Low, |_| panic!("boom"));
        let h = runtime.submit(JobSpec::new(bad)).unwrap();
        // The job still completes its accounting (drain does not hang)…
        let drained = runtime.drain();
        assert_eq!(drained.len(), 1);
        // …wait re-raises the panic…
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait()));
        assert!(caught.is_err(), "wait must re-raise the body panic");
        // …and the pool keeps serving jobs afterwards.
        let count = Arc::new(AtomicUsize::new(0));
        let mut good = TaskGraph::new("good");
        let c = Arc::clone(&count);
        good.add(TaskTypeId(0), Priority::Low, move |_| {
            c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
        });
        let st = run(&runtime, &good);
        assert_eq!(st.tasks, 1);
        assert_eq!(count.load(Ordering::Relaxed), 1); // relaxed-ok: read after wait(); job completion orders the counters
    }

    #[test]
    fn drain_waits_for_outstanding_jobs() {
        let runtime = rt(Policy::Rws, 2);
        let mut g = TaskGraph::new("slow");
        let mut prev = None;
        for _ in 0..20 {
            let id = g.add(TaskTypeId(0), Priority::Low, |_| {
                std::thread::sleep(Duration::from_micros(200));
            });
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        let _h1 = runtime.submit(JobSpec::new(g.clone())).unwrap();
        let _h2 = runtime.submit(JobSpec::new(g)).unwrap();
        let drained = runtime.drain();
        assert_eq!(drained.len(), 2);
        for j in &drained {
            assert_eq!(j.tasks, 20);
            assert!(j.completed > j.arrival);
        }
    }

    #[test]
    fn pool_threads_are_reused_across_jobs() {
        // Worker identity is observable through thread names: every task
        // of every job must run on one of the das-worker threads spawned
        // at first submission (no per-job spawning).
        let runtime = rt(Policy::Rws, 2);
        let names = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        for _ in 0..5 {
            let mut g = TaskGraph::new("n");
            let nm = Arc::clone(&names);
            g.add(TaskTypeId(0), Priority::Low, move |_| {
                let name = std::thread::current().name().unwrap_or("?").to_string();
                nm.lock().insert(name);
            });
            run(&runtime, &g);
        }
        let names = names.lock().clone();
        assert!(!names.is_empty());
        for n in &names {
            assert!(n.starts_with("das-worker-"), "task ran on {n}");
        }
        assert!(names.len() <= 2, "only pool threads may execute tasks");
    }

    #[test]
    fn deadline_translation_is_relative() {
        let runtime = rt(Policy::Rws, 2);
        let mut g = TaskGraph::new("d");
        g.add(TaskTypeId(0), Priority::Low, |_| {});
        // Generous relative deadline (10 s of slack) must be met even
        // though the spec's nominal arrival clock differs from the
        // pool's.
        let h = runtime
            .submit(JobSpec::new(g).at(5.0).deadline(15.0))
            .unwrap();
        let out = h.wait();
        assert_eq!(out.stats.deadline_met(), Some(true));
    }

    #[test]
    fn executor_facade_tickets_drain_and_extras() {
        let mut runtime = rt(Policy::Rws, 2);
        let mk = || {
            let mut g = TaskGraph::new("t");
            g.add(TaskTypeId(0), Priority::Low, |_| {});
            g
        };
        let t0 = Executor::submit(&mut runtime, JobSpec::new(mk())).unwrap();
        let t1 = Executor::submit(&mut runtime, JobSpec::new(mk())).unwrap();
        let (id0, session) = (t0.job(), t0.session());
        let s0 = Executor::wait(&mut runtime, t0).unwrap();
        assert_eq!(s0.id, id0);
        assert!(s0.completed >= s0.started && s0.started >= s0.arrival);
        // Drain returns only the un-waited job…
        let rest = Executor::drain(&mut runtime).unwrap();
        assert_eq!(rest.jobs.len(), 1);
        assert_eq!(rest.jobs[0].id, t1.job());
        // …a consumed ticket is unknown…
        let stale = Ticket::new(session, id0);
        assert!(matches!(
            Executor::wait(&mut runtime, stale),
            Err(ExecError::UnknownTicket(_))
        ));
        // …and extras carry the (possibly zero) steal count once.
        let extras = Executor::take_extras(&mut runtime);
        assert!(extras.steals.is_some());
        assert!(Executor::take_extras(&mut runtime).is_empty());
        // The provided one-shot composes the verbs.
        let report = runtime.run_dag(mk()).unwrap();
        assert_eq!(report.backend, "das-runtime");
        assert_eq!(report.tasks(), 1);
    }

    #[test]
    fn from_session_applies_the_whole_surface() {
        let topo = Arc::new(Topology::symmetric(2));
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC)
            .seed(77)
            .allow_high_priority_steal(true);
        let mut runtime = Runtime::from_session(&session);
        assert_eq!(runtime.scheduler().topology().num_cores(), 2);
        assert_eq!(runtime.scheduler().policy(), Policy::DamC);
        assert_eq!(runtime.seed, 77);
        // The scheduler knob is in force.
        assert!(runtime
            .scheduler()
            .stealable(&TaskMeta::new(TaskTypeId(0), Priority::High)));
        // And the pool executes work.
        let mut g = TaskGraph::new("s");
        g.add(TaskTypeId(0), Priority::Low, |_| {});
        assert_eq!(runtime.run_dag(g).unwrap().tasks(), 1);
        // Metrics are off by default — the probe stays absent.
        assert!(runtime.metrics_probe().is_none());
    }

    #[test]
    fn exec_metrics_probe_tracks_the_facade_job_stream() {
        let topo = Arc::new(Topology::symmetric(2));
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC)
            .metrics(das_core::MetricsConfig::default());
        let mut runtime = Runtime::from_session(&session);
        let graph = || {
            let mut g = TaskGraph::new("m");
            let a = g.add(TaskTypeId(0), Priority::Low, |_| {});
            let b = g.add(TaskTypeId(0), Priority::Low, |_| {});
            g.add_edge(a, b);
            g
        };
        let t = Executor::submit(&mut runtime, JobSpec::new(graph())).unwrap();
        let waited = Executor::wait(&mut runtime, t).unwrap();
        Executor::submit_many(
            &mut runtime,
            (0..3).map(|_| JobSpec::new(graph())).collect(),
        )
        .unwrap();
        let probe = runtime.metrics_probe().expect("metrics enabled");
        assert_eq!(probe.jobs_admitted, 4);
        assert_eq!(probe.jobs_completed, 1);
        assert_eq!(probe.queue_depth, 3);
        assert_eq!(probe.tasks_completed, waited.tasks as u64);
        assert_eq!(probe.sojourn.count(), 1);
        let drained = Executor::drain(&mut runtime).unwrap();
        assert_eq!(drained.jobs.len(), 3);
        let probe = runtime.metrics_probe().unwrap();
        assert_eq!(probe.jobs_completed, 4);
        assert_eq!(probe.queue_depth, 0);
        assert_eq!(probe.tasks_completed, 8);
        assert_eq!(probe.sojourn.count(), 4);
        assert_eq!(probe.queueing.count(), 4);
        assert!(probe.busy > 0.0 || probe.capacity >= 0.0);
        assert!(probe.ptt_residual >= 0.0);
        // The probe is a read, not a take: a second read is identical.
        assert_eq!(runtime.metrics_probe().unwrap(), probe);
    }

    #[test]
    fn parker_notify_between_prepare_and_park_is_not_lost() {
        // The lost-wakeup regression, distilled: work arrives (notify)
        // after the worker's queue scan (prepare) but before it blocks
        // (park). Pre-fix — a bare `wait_for` with no epoch — this slept
        // the full timeout; the parker must return immediately.
        let p = IdleParker::new();
        let token = p.prepare();
        p.notify();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test measures real park latency"
        )]
        let t0 = Instant::now();
        let woken = p.park(token, Duration::from_secs(5));
        assert!(woken, "epoch move must report a wakeup");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "notify before park was lost: slept {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn self_targeted_chain_hops_do_not_notify() {
        // Every global search picks (core 0, width 1), so each hop of a
        // critical chain is a pinned entry into worker 0's own WSQ and
        // a width-1 assembly worker 0 leads: no other worker can take
        // either, and no hop may wake the pool. Only the client's
        // submit notifies (the bound leaves one spare).
        let topo = Arc::new(Topology::symmetric(2));
        let runtime = Runtime::new(topo, Policy::DamC);
        let ptt = runtime.scheduler().ptts().table(TaskTypeId(0));
        ptt.seed(CoreId(0), 1, 1e-9);
        ptt.seed(CoreId(1), 1, 1.0);
        ptt.seed(CoreId(0), 2, 1.0);
        let mut g = TaskGraph::new("self-chain");
        let mut prev = g.add(TaskTypeId(0), Priority::High, |_| {});
        for _ in 1..512 {
            let t = g.add(TaskTypeId(0), Priority::High, |_| {});
            g.add_edge(prev, t);
            prev = t;
        }
        let parker = &runtime.shared.parker;
        let before = parker.prepare();
        let st = run(&runtime, &g);
        let notified = parker.prepare() - before;
        assert_eq!(st.all_places, BTreeMap::from([((0, 1), 512)]));
        assert!(notified <= 2, "{notified} notifications for one chain");
    }

    #[test]
    fn mixed_width_jobs_run_every_rank_once_in_dependency_order() {
        // Concurrent jobs that mix both dispatch paths: no-op `High`
        // chain links (width-1 places their worker leads run inline,
        // also while a wide assembly waits in that worker's AQ) and
        // `WIDE` tasks the PTT molds to width 2 (assemblies other
        // workers join).
        const WIDE: TaskTypeId = TaskTypeId(1);
        const LINKS: usize = 32;
        const JOBS: usize = 128;
        let topo = Arc::new(Topology::symmetric(4));
        let runtime = Runtime::new(Arc::clone(&topo), Policy::DamC);
        for place in topo.places() {
            let secs = if place.width == 2 { 1e-3 } else { 1.0 };
            runtime.scheduler().record(WIDE, place, secs);
        }
        type Ranks = Arc<Vec<Mutex<Vec<(usize, usize)>>>>;
        let mut jobs = Vec::new();
        for _ in 0..JOBS {
            let order = Arc::new(Mutex::new(Vec::new()));
            let ranks: Ranks = Arc::new((0..LINKS / 2).map(|_| Mutex::new(Vec::new())).collect());
            let mut g = TaskGraph::new("mixed");
            let mut prev: Option<TaskId> = None;
            for link in 0..LINKS {
                let o = Arc::clone(&order);
                let t = g.add(TaskTypeId(0), Priority::High, move |ctx| {
                    if ctx.rank == 0 {
                        o.lock().push(link);
                    }
                });
                if let Some(p) = prev {
                    g.add_edge(p, t);
                }
                if link % 2 == 1 {
                    let r = Arc::clone(&ranks);
                    let w = g.add(WIDE, Priority::Low, move |ctx| {
                        r[link / 2].lock().push((ctx.rank, ctx.width));
                    });
                    g.add_edge(t, w);
                }
                prev = Some(t);
            }
            let handle = runtime.submit(JobSpec::new(g)).unwrap();
            jobs.push((handle, order, ranks));
        }
        let mut wide = 0;
        for (handle, order, ranks) in &jobs {
            let out = handle.wait();
            let tasks = LINKS + LINKS / 2;
            assert_eq!(out.rt.tasks, tasks);
            assert_eq!(out.rt.all_places.values().sum::<usize>(), tasks);
            assert_eq!(*order.lock(), (0..LINKS).collect::<Vec<_>>());
            for r in ranks.iter() {
                let mut got = r.lock().clone();
                got.sort_unstable();
                let width = got.first().expect("wide task ran").1;
                assert_eq!(got, (0..width).map(|k| (k, width)).collect::<Vec<_>>());
            }
            wide += out
                .rt
                .all_places
                .iter()
                .filter(|((_, w), _)| *w > 1)
                .map(|(_, n)| n)
                .sum::<usize>();
        }
        assert!(wide >= JOBS * LINKS / 2, "{wide} wide places");
    }

    #[test]
    fn parker_times_out_without_notification() {
        let p = IdleParker::new();
        let token = p.prepare();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test measures real timeout latency"
        )]
        let t0 = Instant::now();
        let woken = p.park(token, Duration::from_millis(20));
        assert!(!woken);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
