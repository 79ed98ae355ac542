//! The discrete-event engine: simulated XiTAO workers (WSQ + AQ per
//! core), random work stealing, moldable assemblies, piecewise work
//! integration across environment changes.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;

use das_core::exec::{ExecError, ExecExtras, Executor, Session, SessionBuilder, Ticket};
use das_core::jobs::{JobId, JobSpec, JobStats, StreamStats};
use das_core::metrics::{ExecProbe, TraceSpan};
use das_core::{ReadyEntry, ReadyQueue, Scheduler, TaskTypeId};
use das_dag::{Dag, DagError, TaskId};
use das_topology::{CoreId, ExecutionPlace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::env::Environment;
use crate::metrics::RunStats;
use crate::params::SimConfig;
use crate::trace::Trace;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The DAG failed validation before the run started.
    InvalidDag(DagError),
    /// Execution stalled: the event queue drained with tasks pending
    /// (this indicates a scheduler/queue bug, not a user error).
    Deadlock {
        /// Tasks committed before the stall.
        completed: usize,
        /// Total tasks in the DAG.
        total: usize,
    },
    /// The run exceeded the configured event budget (runaway model).
    EventLimitExceeded {
        /// Tasks committed when the budget tripped.
        completed: usize,
        /// Total tasks in the DAG.
        total: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidDag(e) => write!(f, "invalid DAG: {e}"),
            SimError::Deadlock { completed, total } => {
                write!(f, "simulation deadlocked after {completed}/{total} tasks")
            }
            SimError::EventLimitExceeded { completed, total } => {
                write!(f, "event budget exceeded after {completed}/{total} tasks")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> ExecError {
        match e {
            SimError::InvalidDag(d) => ExecError::Rejected(d.to_string()),
            other => ExecError::Failed(other.to_string()),
        }
    }
}

/// A dispatched moldable task occupying `width` cores.
struct Assembly {
    task: TaskId,
    ty: TaskTypeId,
    place: ExecutionPlace,
    joined: usize,
    member_join_t: Vec<f64>,
    leader_join_t: f64,
    started: bool,
    start_t: f64,
    remaining: f64,
    rate: f64,
    last_t: f64,
    gen: u64,
    done: bool,
}

#[derive(Default)]
struct CoreState {
    /// The shared `das-core` ready-queue discipline: every pop/steal
    /// ordering decision is delegated to it, so the simulated workers
    /// behave exactly like the threaded runtime's.
    wsq: ReadyQueue<TaskId>,
    aq: VecDeque<usize>,
}

/// A set of cores as a bitset, enumerated in ascending core order.
#[derive(Default)]
struct CoreSet {
    words: Vec<u64>,
}

impl CoreSet {
    /// Resize for `n` cores, holding none of them.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    fn set(&mut self, c: usize, on: bool) {
        let bit = 1u64 << (c % 64);
        if on {
            self.words[c / 64] |= bit;
        } else {
            self.words[c / 64] &= !bit;
        }
    }

    fn contains(&self, c: usize) -> bool {
        self.words[c / 64] & (1u64 << (c % 64)) != 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Become a copy of `other`, reusing this set's buffer.
    fn copy_from(&mut self, other: &CoreSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Add every member of `other`.
    fn union_with(&mut self, other: &CoreSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Core checks AQ, then WSQ, then tries to steal.
    Poll(usize),
    /// The members of `poll_batches[.0]` each poll, in ascending core
    /// order: the sleepers one stealable wake-up roused. Stands for one
    /// `Poll` per member with consecutive `seq`, the first of them this
    /// item's.
    PollBatch(usize),
    /// Assembly `.0` finishes, unless its generation moved past `.1`.
    Finish(usize, u64),
    /// The environment's piecewise-constant state changes now.
    EnvChange,
    /// Task becomes ready after a release delay; `.1` is the waking core.
    Release(TaskId, usize),
    /// Job `.0` of the current stream arrives: its roots wake up now.
    JobArrive(usize),
}

struct HeapItem {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first,
        // ties broken by insertion order for determinism.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulator. Create once per experiment; the PTT state (inside the
/// [`Scheduler`]) persists across [`Simulator::run`] calls, so iterative
/// applications (K-means) keep training the model across iterations
/// exactly as the real runtime would.
pub struct Simulator {
    cfg: SimConfig,
    sched: Arc<Scheduler>,
    env: Environment,
    rng: SmallRng,
    /// Safety valve against runaway event loops.
    pub max_events: u64,
    record_trace: bool,
    trace: Trace,

    // ---- per-run state ----
    cores: Vec<CoreState>,
    assemblies: Vec<Assembly>,
    /// Slots of `assemblies` whose occupant committed, available for
    /// reuse by the next dispatch. Without this the vector grows by one
    /// Assembly per task for the whole run — a stream of a million jobs
    /// would hold a million dead assemblies.
    free_assemblies: Vec<usize>,
    running: BTreeSet<usize>,
    /// Cores that joined an assembly and have not seen it finish.
    busy: CoreSet,
    /// Cores with a poll in the heap, alone or as a batch member.
    poll_pending: CoreSet,
    /// Cores currently idle (neither busy nor holding a pending poll).
    /// A stealable wake-up polls exactly these cores — the same set the
    /// every-core broadcast reaches after `wake_at` filtered it, in the
    /// same ascending order.
    idle: CoreSet,
    /// Cores whose WSQ holds a stealable entry
    /// (`wsq.stealable_len() > 0`): the only cores a steal scan can
    /// pick from.
    stealable: CoreSet,
    /// Cores whose AQ or own WSQ is non-empty: the only idle cores
    /// whose poll can find work without stealing. `sync_queues`
    /// re-syncs this and `stealable` after every queue change.
    has_work: CoreSet,
    /// Members of the `Ev::PollBatch` items in the heap, by batch id;
    /// the buffers of consumed batches wait in `free_batches`.
    poll_batches: Vec<CoreSet>,
    free_batches: Vec<usize>,
    /// Use the broadcast wake-up path (`wake_at` on every core, one
    /// `Ev::Poll` per sleeper). Differential-testing reference only.
    broadcast_wakeups: bool,
    /// Number of running assemblies per cluster (independent streams
    /// contending for the cluster's cache/bandwidth).
    streams: Vec<usize>,
    preds: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    now: f64,
    completed: usize,
    stats: RunStats,
    /// Scratch for steal-victim collection, reused across attempts so
    /// the hot steal path does not allocate per call.
    victims_scratch: Vec<usize>,
    /// Scratch for the running-assembly snapshots taken by the replan
    /// paths (`handle_env_change`, `replan_cluster`).
    replan_scratch: Vec<usize>,

    // ---- job-stream state (empty in single-DAG runs) ----
    /// Owning job index of each task in the merged stream task space.
    job_of: Vec<usize>,
    /// Roots of each job, offset into the merged task space.
    job_roots: Vec<Vec<TaskId>>,
    /// Uncommitted tasks per job.
    job_remaining: Vec<usize>,
    /// First execution start per job (NaN until a task runs).
    job_started: Vec<f64>,
    /// Completion time per job (NaN until the last task commits).
    job_done_at: Vec<f64>,

    // ---- executor-session state (persists across runs and drains;
    // deliberately untouched by `reset`) ----
    /// The façade's ledger, bound and probe. A job's state is `None`
    /// while it waits in `pending_specs` and its completion record once
    /// its batch has executed.
    session: Session<Option<JobStats>>,
    /// Jobs admitted through the façade and not yet executed: the
    /// newest ids, ending just before `next_ticket`.
    pending_specs: Vec<JobSpec<Dag>>,
    /// Next session job id to issue.
    next_ticket: u64,
    /// Monotone session clock: the summed makespans of every executed
    /// batch. Each batch runs from its own simulated time zero; its
    /// records are offset by this clock before entering the ledger, so
    /// cross-batch aggregates (span, jobs/sec) are on one timeline —
    /// the truth of how the session executed the batches: sequentially.
    session_clock: f64,
    /// Session-clock trace spans of every executed batch for
    /// [`Executor::take_trace_spans`]; `None` unless the session's
    /// metrics asked for a trace.
    session_spans: Option<Vec<TraceSpan>>,
}

impl Simulator {
    /// Build a simulator; the environment defaults to interference-free.
    /// Everything the session describes takes effect: the scheduler
    /// (policy, ratio, sampled search, periodic exploration, the steal
    /// ablation), the seed, the simulated overheads, the admission bound
    /// and the observability plane. Metrics only read completed batches
    /// and never touch the RNG or the event loop, so the executed job
    /// stream stays bit-identical.
    pub fn new(cfg: SimConfig) -> Self {
        let session = &cfg.session;
        let trace = session.metrics.is_some_and(|m| m.trace);
        Simulator {
            sched: Arc::new(session.scheduler()),
            env: Environment::interference_free(Arc::clone(&session.topo)),
            rng: SmallRng::seed_from_u64(session.seed),
            max_events: 2_000_000_000,
            record_trace: trace,
            trace: Trace::default(),
            cores: Vec::new(),
            assemblies: Vec::new(),
            free_assemblies: Vec::new(),
            running: BTreeSet::new(),
            busy: CoreSet::default(),
            poll_pending: CoreSet::default(),
            idle: CoreSet::default(),
            stealable: CoreSet::default(),
            has_work: CoreSet::default(),
            poll_batches: Vec::new(),
            free_batches: Vec::new(),
            broadcast_wakeups: false,
            streams: Vec::new(),
            preds: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            completed: 0,
            stats: RunStats::default(),
            victims_scratch: Vec::new(),
            replan_scratch: Vec::new(),
            job_of: Vec::new(),
            job_roots: Vec::new(),
            job_remaining: Vec::new(),
            job_started: Vec::new(),
            job_done_at: Vec::new(),
            session: Session::new(session),
            pending_specs: Vec::new(),
            next_ticket: 0,
            session_clock: 0.0,
            session_spans: trace.then(Vec::new),
            cfg,
        }
    }

    /// [`Simulator::new`] over `session` with the default cost model
    /// (uniform 1 ms tasks).
    pub fn from_session(session: &SessionBuilder) -> Self {
        Simulator::new(SimConfig::with_session(session.clone()))
    }

    /// [`Simulator::new`] over `session` with the cost model `cost`.
    pub fn from_session_with_cost(
        session: &SessionBuilder,
        cost: Arc<dyn crate::cost::CostModel>,
    ) -> Self {
        Simulator::new(SimConfig::with_session(session.clone()).cost(cost))
    }

    /// Record per-core execution [`TraceSpan`]s during subsequent runs;
    /// retrieve them with [`Simulator::take_trace`]. Off by default
    /// (paper-sized runs commit tens of thousands of tasks).
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// The trace of the most recent run (empty unless tracing was on).
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Replace the environment (takes effect at the next [`run`]).
    ///
    /// [`run`]: Simulator::run
    pub fn set_env(&mut self, env: Environment) {
        self.env = env;
    }

    /// The scheduler (for PTT inspection).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Route stealable wake-ups through the broadcast (`wake_at` on
    /// every core, one poll event per sleeper) instead of one batched
    /// event over the idle set. The two are bit-identical by
    /// construction — this hook exists so the differential tests can
    /// prove it (`tests/sched_fastpath.rs`), and costs O(cores) per
    /// wake-up. Off by default.
    pub fn set_broadcast_wakeups(&mut self, on: bool) {
        self.broadcast_wakeups = on;
    }

    /// Drop all learned PTT state (a fresh scheduler as the session
    /// describes it).
    pub fn reset_model(&mut self) {
        self.sched = Arc::new(self.cfg.session.scheduler());
    }

    /// Execute `dag` to completion in simulated time. The simulated clock
    /// restarts at zero for each run; PTT state carries over.
    pub fn run(&mut self, dag: &Dag) -> Result<RunStats, SimError> {
        dag.validate().map_err(SimError::InvalidDag)?;
        self.reset(dag.len());
        if let Some(t) = self.env.next_change_after(0.0) {
            self.push(t, Ev::EnvChange);
        }
        // The main thread (core 0) releases the roots, as in XiTAO.
        for root in dag.roots() {
            self.wakeup(dag, root, 0, 0.0);
        }
        self.drive(dag)?;
        Ok(std::mem::take(&mut self.stats))
    }

    /// The batch engine behind [`Simulator::flush_pending`] over
    /// pre-validated jobs: every job's roots become ready at its
    /// [`JobSpec::arrival`] (an event in the simulation heap), so jobs
    /// whose executions overlap share the cores, the ready queues and
    /// the PTT — the multi-tenant regime the paper's one-DAG-at-a-time
    /// evaluation never reaches. Returns per-job completion stats with
    /// batch-local ids, plus the batch's [`RunStats`] for the session's
    /// extras accounting.
    ///
    /// The simulated clock restarts at zero (stream start); PTT state
    /// carries over from previous runs, as with [`Simulator::run`].
    fn run_stream_inner(
        &mut self,
        jobs: &[JobSpec<Dag>],
    ) -> Result<(Vec<JobStats>, RunStats), SimError> {
        let mut merged = Dag::new("job-stream");
        let mut job_of = Vec::new();
        let mut job_roots = Vec::with_capacity(jobs.len());
        for (j, spec) in jobs.iter().enumerate() {
            let offset = merged.append(&spec.graph);
            job_of.resize(merged.len(), j);
            job_roots.push(
                spec.graph
                    .roots()
                    .into_iter()
                    .map(|r| TaskId(r.0 + offset))
                    .collect(),
            );
        }
        self.reset(merged.len());
        self.job_of = job_of;
        self.job_roots = job_roots;
        self.job_remaining = jobs.iter().map(|s| s.graph.len()).collect();
        self.job_started = vec![f64::NAN; jobs.len()];
        self.job_done_at = vec![f64::NAN; jobs.len()];
        if let Some(t) = self.env.next_change_after(0.0) {
            self.push(t, Ev::EnvChange);
        }
        for (j, spec) in jobs.iter().enumerate() {
            self.push(spec.arrival, Ev::JobArrive(j));
        }
        self.drive(&merged)?;
        let per_job = jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| JobStats {
                id: JobId(j as u64),
                class: spec.class,
                arrival: spec.arrival,
                started: self.job_started[j],
                completed: self.job_done_at[j],
                tasks: spec.graph.len(),
                deadline: spec.deadline,
            })
            .collect();
        Ok((per_job, std::mem::take(&mut self.stats)))
    }

    // ---- the executor-session path ----

    /// Run the pending batch through the stream engine, remap the
    /// batch-local job ids onto the session ids issued at submission,
    /// and bank the batch's engine counters for the next
    /// [`Executor::take_extras`]. A failed batch loses its jobs: they
    /// leave the ledger, freeing their admission slots.
    fn flush_pending(&mut self) -> Result<(), SimError> {
        if self.pending_specs.is_empty() {
            return Ok(());
        }
        let specs = std::mem::take(&mut self.pending_specs);
        let base = self.next_ticket - specs.len() as u64;
        let (records, run) = match self.run_stream_inner(&specs) {
            Ok(batch) => batch,
            Err(e) => {
                self.session.retain(Option::is_some);
                return Err(e);
            }
        };
        let offset = self.session_clock;
        for mut job in records {
            job.id = JobId(base + job.id.0);
            job.arrival += offset;
            job.started += offset;
            job.completed += offset;
            if let Some(d) = &mut job.deadline {
                *d += offset;
            }
            // Sketches are fed in batch job-id order (deterministic).
            self.session.complete(&job);
            let slot = self
                .session
                .get_mut(job.id)
                .expect("a batch job is outstanding");
            *slot = Some(job);
        }
        if let Some(p) = self.session.probe.as_mut() {
            p.steals += run.steals as u64;
            p.failed_steals += run.failed_steals as u64;
            p.events += run.events;
            p.busy += run.core_busy.iter().sum::<f64>();
            p.capacity += run.makespan * run.core_busy.len() as f64;
        }
        if let (Some(spans), true) = (&mut self.session_spans, self.record_trace) {
            // Batch traces restart at simulated zero; re-anchor on the
            // session clock so the multi-batch (and multi-node) merge
            // shares one timeline.
            let batch = std::mem::take(&mut self.trace);
            spans.extend(batch.spans.into_iter().map(|s| TraceSpan {
                start: s.start + offset,
                end: s.end + offset,
                ..s
            }));
        }
        self.session_clock += run.makespan;
        let extras = &mut self.session.extras;
        *extras.events.get_or_insert(0) += run.events;
        *extras.steals.get_or_insert(0) += run.steals as u64;
        extras.bump("failed_steals", run.failed_steals as f64);
        // The residual reads the scheduler's PTTs once per flush — the
        // "has the model settled" signal of the snapshot stream.
        self.session.bank_residual(&self.sched);
        Ok(())
    }

    /// Clear all per-run state for a task space of `total` tasks.
    /// (Executor-session state — pending jobs, the record ledger, the
    /// extras counters — is *not* per-run and survives.)
    fn reset(&mut self, total: usize) {
        let n_cores = self.cfg.session.topo.num_cores();
        // The queues keep their buffers from run to run; only a failed
        // run leaves entries behind.
        self.cores.resize_with(n_cores, CoreState::default);
        for st in &mut self.cores {
            st.aq.clear();
            if !st.wsq.is_empty() {
                st.wsq = ReadyQueue::new();
            }
        }
        // With slot recycling the live assembly count is bounded by the
        // core count, not the task count.
        self.assemblies.clear();
        self.assemblies.reserve(total.min(2 * n_cores));
        self.free_assemblies.clear();
        self.running.clear();
        // Every core starts neither busy nor poll-pending, its queues
        // empty.
        self.busy.reset(n_cores);
        self.poll_pending.reset(n_cores);
        self.idle.reset(n_cores);
        (0..n_cores).for_each(|c| self.idle.set(c, true));
        self.stealable.reset(n_cores);
        self.has_work.reset(n_cores);
        self.streams = vec![0; self.cfg.session.topo.num_clusters()];
        // `preds` is owned by `drive`, which rebuilds it from the dag.
        // The heap and the batch buffers keep their capacity: a session
        // flushes many batches through one simulator.
        self.heap.clear();
        self.free_batches.clear();
        self.free_batches.extend(0..self.poll_batches.len());
        self.seq = 0;
        self.now = 0.0;
        self.completed = 0;
        self.stats = RunStats::new(n_cores);
        self.trace = Trace {
            spans: Vec::new(),
            makespan: 0.0,
            num_cores: n_cores,
        };
        self.job_of.clear();
        self.job_roots.clear();
        self.job_remaining.clear();
        self.job_started.clear();
        self.job_done_at.clear();
    }

    /// Pump the event loop until every task of `dag` commits (`Ok`) or
    /// the heap drains / the event budget trips (`Err`). Predecessor
    /// counters are (re)initialised here from the dag.
    fn drive(&mut self, dag: &Dag) -> Result<(), SimError> {
        let total = dag.len();
        self.preds.clear();
        self.preds.extend(dag.nodes().iter().map(|n| n.num_preds));
        let mut events: u64 = 0;
        while let Some(item) = self.heap.pop() {
            // A batch counts one event per member, as the per-sleeper
            // polls it stands for would have.
            if !matches!(item.ev, Ev::PollBatch(_)) {
                self.count_events(&mut events, 1, total)?;
            }
            self.now = item.t.max(self.now);
            match item.ev {
                Ev::Poll(c) => self.handle_poll(dag, c),
                Ev::PollBatch(b) => self.handle_poll_batch(dag, b, &mut events, total)?,
                Ev::Finish(aid, gen) => self.handle_finish(dag, aid, gen),
                Ev::EnvChange => self.handle_env_change(),
                Ev::Release(task, core) => {
                    let t = self.now;
                    self.wakeup(dag, task, core, t);
                }
                Ev::JobArrive(j) => {
                    let t = self.now;
                    let roots = std::mem::take(&mut self.job_roots[j]);
                    for &root in &roots {
                        self.wakeup(dag, root, 0, t);
                    }
                    self.job_roots[j] = roots;
                }
            }
            if self.completed == total {
                self.stats.makespan = self.now;
                self.stats.events = events;
                self.trace.makespan = self.now;
                #[cfg(debug_assertions)]
                self.check_indices();
                return Ok(());
            }
        }
        #[cfg(debug_assertions)]
        self.check_indices();
        Err(SimError::Deadlock {
            completed: self.completed,
            total,
        })
    }

    /// Count `n` events against the `max_events` valve. The valve trips
    /// if any of them is one too many, as counting them one by one
    /// would; the `completed` it reports is the same, because no task
    /// commits between events counted together.
    fn count_events(&self, events: &mut u64, n: u64, total: usize) -> Result<(), SimError> {
        *events += n;
        if *events > self.max_events {
            return Err(SimError::EventLimitExceeded {
                completed: self.completed,
                total,
            });
        }
        Ok(())
    }

    /// Engine self-check of the idle-path indices against the state
    /// they summarise (debug builds: after every batch and when `drive`
    /// returns). `try_steal`'s empty-index exit re-checks the stealable
    /// bits on its own every time it fires.
    #[cfg(debug_assertions)]
    fn check_indices(&self) {
        for (c, st) in self.cores.iter().enumerate() {
            assert_eq!(
                self.idle.contains(c),
                !self.busy.contains(c) && !self.poll_pending.contains(c),
                "idle bit of core {c}"
            );
            assert_eq!(
                self.stealable.contains(c),
                st.wsq.stealable_len() > 0,
                "stealable bit of core {c}"
            );
            assert_eq!(
                self.has_work.contains(c),
                !st.aq.is_empty() || !st.wsq.is_empty(),
                "has_work bit of core {c}"
            );
        }
        // Every batch buffer is free or named by exactly one heap item.
        // (Counted without a buffer: the check must not allocate, so
        // that the debug and release profiles allocate alike.)
        for b in 0..self.poll_batches.len() {
            let owners = self.free_batches.iter().filter(|&&f| f == b).count()
                + self
                    .heap
                    .iter()
                    .filter(|item| item.ev == Ev::PollBatch(b))
                    .count();
            assert_eq!(owners, 1, "owners of batch buffer {b}");
        }
    }

    // ---- event helpers ----

    fn push(&mut self, t: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapItem {
            t,
            seq: self.seq,
            ev,
        });
    }

    /// Schedule a queue poll on `core` at time `t` unless one is already
    /// pending or the core is busy.
    fn wake_at(&mut self, core: usize, t: f64) {
        if !self.busy.contains(core) && !self.poll_pending.contains(core) {
            self.poll_pending.set(core, true);
            self.idle.set(core, false);
            self.push(t, Ev::Poll(core));
        }
    }

    /// Task became ready: the waking worker consults the scheduler for
    /// the target queue (Fig. 3 steps 1–2) and pushes it there.
    fn wakeup(&mut self, dag: &Dag, task: TaskId, waking_core: usize, t: f64) {
        let node = dag.node(task);
        self.stats.record_tag_event(node.tag, t);
        let d = self.sched.on_wakeup(&node.meta, CoreId(waking_core));
        let entry = ReadyEntry::new(task, &d);
        let migratable = entry.is_stealable();
        self.cores[d.queue.0].wsq.push(entry);
        self.sync_queues(d.queue.0);
        let wl = self.cfg.session.sim_params.wake_latency;
        self.wake_at(d.queue.0, t + wl);
        if migratable {
            // Idle cores may steal it: wake every sleeper. Woken cores
            // that lose the race simply go back to sleep.
            if self.broadcast_wakeups {
                for c in 0..self.cores.len() {
                    self.wake_at(c, t + wl);
                }
            } else {
                self.wake_sleepers(t + wl);
            }
        }
    }

    /// `wake_at(c, t)` for every core, as one heap item. Only members
    /// of the idle set pass `wake_at`'s busy/poll-pending filter, and
    /// their polls would carry equal `t` and consecutive `seq`; every
    /// later push has a larger `seq` and a time no earlier than `now`,
    /// so nothing can be ordered between them and one item holding the
    /// idle set pops exactly where the first would have. A word copy
    /// per 64 cores.
    fn wake_sleepers(&mut self, t: f64) {
        let n = self.idle.len();
        if n == 0 {
            return;
        }
        let b = self.free_batches.pop().unwrap_or_else(|| {
            self.poll_batches.push(CoreSet::default());
            self.poll_batches.len() - 1
        });
        self.poll_batches[b].copy_from(&self.idle);
        self.poll_pending.union_with(&self.idle);
        self.idle.clear();
        self.push(t, Ev::PollBatch(b));
        // The members after the first take the `seq`s their own polls
        // would have.
        self.seq += n as u64 - 1;
    }

    /// Poll the members of batch `b` in ascending core order, as the
    /// per-sleeper `Ev::Poll`s it stands for would, one event each
    /// through the `max_events` valve — but handle one by one only the
    /// members whose poll can do something, and fail the rest a word at
    /// a time.
    ///
    /// A member's poll can do something if the member is busy, holds
    /// work (`has_work`), or may steal (`stealable` non-empty). Any
    /// other poll fails in `handle_poll` without a trace beyond its
    /// event, one `failed_steals` and its pending bit turning into an
    /// idle bit: it draws no RNG number (`try_steal` returns before the
    /// draw on an empty index) and pushes no event. Failing a run of
    /// such members in bulk is therefore bit-identical, provided that
    /// the handled members see the state they would have seen:
    /// - The failures of the members before a handled one are applied
    ///   first: its `dispatch` may `wake_at` an earlier member, which
    ///   must already be idle to be woken.
    /// - `has_work` and `stealable` are read again after every handled
    ///   member: its `dispatch` may fill the AQ of a later member, and
    ///   its steal may empty `stealable`. Within a batch `stealable`
    ///   can only shrink — `wakeup` runs only from `Release`,
    ///   `JobArrive` and `handle_finish` — so no skipped member could
    ///   have stolen.
    ///
    /// The handled members thus run in the same order, at the same
    /// simulated time, with the same RNG draws and the same `seq`s, and
    /// the valve trips on the same member with the same `completed`.
    fn handle_poll_batch(
        &mut self,
        dag: &Dag,
        b: usize,
        events: &mut u64,
        total: usize,
    ) -> Result<(), SimError> {
        let members = std::mem::take(&mut self.poll_batches[b]);
        for (w, &word) in members.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let act = if self.stealable.is_empty() {
                    rest & (self.has_work.words[w] | self.busy.words[w])
                } else {
                    rest
                };
                // The lowest member that can act (0 if none), and the
                // members below it, whose polls fail.
                let next = act & act.wrapping_neg();
                let fail = rest & next.wrapping_sub(1);
                if fail != 0 {
                    self.count_events(events, u64::from(fail.count_ones()), total)?;
                    self.fail_polls(w, fail);
                }
                if next == 0 {
                    break;
                }
                self.count_events(events, 1, total)?;
                self.handle_poll(dag, w * 64 + next.trailing_zeros() as usize);
                rest ^= fail | next;
            }
        }
        self.poll_batches[b] = members;
        self.free_batches.push(b);
        #[cfg(debug_assertions)]
        self.check_indices();
        Ok(())
    }

    /// The pending polls of the cores in `mask` (bits of word `w`) fail,
    /// exactly as `handle_poll` would fail each of them.
    fn fail_polls(&mut self, w: usize, mask: u64) {
        #[cfg(debug_assertions)]
        for bit in 0..64 {
            if mask & (1u64 << bit) != 0 {
                let c = w * 64 + bit;
                let st = &self.cores[c];
                assert!(
                    self.poll_pending.contains(c)
                        && !self.busy.contains(c)
                        && st.aq.is_empty()
                        && st.wsq.is_empty()
                        && self.stealable.is_empty(),
                    "core {c}'s poll would not fail"
                );
            }
        }
        self.stats.failed_steals += mask.count_ones() as usize;
        self.poll_pending.words[w] &= !mask;
        self.idle.words[w] |= mask;
    }

    /// Re-sync core `c`'s bits of the `stealable` and `has_work`
    /// indices with its queues. Called after each queue mutation:
    /// `wakeup`'s WSQ push, `handle_poll`'s AQ pop and `pop_own`,
    /// `try_steal`'s `steal` and `dispatch`'s AQ push.
    fn sync_queues(&mut self, c: usize) {
        let st = &self.cores[c];
        let stealable = st.wsq.stealable_len() > 0;
        let work = !st.aq.is_empty() || !st.wsq.is_empty();
        self.stealable.set(c, stealable);
        self.has_work.set(c, work);
    }

    fn handle_poll(&mut self, dag: &Dag, c: usize) {
        self.poll_pending.set(c, false);
        if self.busy.contains(c) {
            return;
        }
        // 1. Assembly queue first: committed placement decisions.
        if let Some(aid) = self.cores[c].aq.pop_front() {
            self.sync_queues(c);
            self.join(dag, c, aid);
            return;
        }
        // 2. Own WSQ. The pop order (pinned-first FIFO, then the
        // stealable backlog newest-first) is the shared `das-core`
        // discipline — see `ReadyQueue::pop_own` for the rationale.
        if let Some(entry) = self.cores[c].wsq.pop_own() {
            self.sync_queues(c);
            self.dispatch(
                dag,
                entry,
                c,
                self.now + self.cfg.session.sim_params.dispatch_overhead,
            );
            return;
        }
        // 3. Random steal from a victim (`ReadyQueue::steal` picks the
        // entry).
        if let Some(entry) = self.try_steal(dag, c) {
            self.stats.steals += 1;
            let t = self.now
                + self.cfg.session.sim_params.steal_overhead
                + self.cfg.session.sim_params.dispatch_overhead;
            self.dispatch(dag, entry, c, t);
            return;
        }
        self.stats.failed_steals += 1;
        // Nothing to do: sleep until woken by a push or a completion.
        // (The other exits of this poll leave the core busy or
        // poll-pending again; only this one idles it.)
        self.idle.set(c, true);
    }

    /// Steal scan: victims are cores whose WSQ would yield an entry to
    /// this thief; the victim is chosen uniformly at random (seeded RNG)
    /// and the entry itself by the shared queue discipline. Only cores
    /// in the stealable index are probed — `can_steal` is false on
    /// every other — so the victim list, its ascending order and the
    /// one RNG draw are those of a scan over all cores.
    ///
    /// With the index empty the scan would find no victim, draw nothing
    /// and change nothing, so the poll fails before any setup: a word
    /// test per 64 cores, no atomics. Most polls on a wide machine end
    /// here.
    fn try_steal(&mut self, dag: &Dag, thief: usize) -> Option<ReadyEntry<TaskId>> {
        if self.stealable.is_empty() {
            // Every debug-profile sim and cluster test checks the
            // shortcut against the queues.
            debug_assert!(
                self.cores.iter().all(|st| st.wsq.stealable_len() == 0),
                "stealable index empty while a WSQ holds a stealable entry"
            );
            return None;
        }
        let eligible = |task: &TaskId| self.sched.may_run_on(&dag.node(*task).meta, CoreId(thief));
        // Engine-owned scratch buffer: steal attempts are the hottest
        // idle-path operation and must not allocate per call.
        let victims = &mut self.victims_scratch;
        victims.clear();
        victims.extend(
            self.stealable
                .iter()
                .filter(|&v| v != thief && self.cores[v].wsq.can_steal(eligible)),
        );
        if victims.is_empty() {
            return None;
        }
        let victim = victims[self.rng.gen_range(0..victims.len())];
        let entry = self.cores[victim].wsq.steal(eligible);
        self.sync_queues(victim);
        entry
    }

    /// Dequeue-time decision (Fig. 3 steps 4–6): pick the final place and
    /// insert the assembly into the AQ of every member core.
    fn dispatch(&mut self, dag: &Dag, entry: ReadyEntry<TaskId>, core: usize, t: f64) {
        let (task, pinned) = entry.into_parts();
        let node = dag.node(task);
        let place = self.sched.on_dequeue(&node.meta, CoreId(core), pinned);
        // Reuse a committed slot when one is free, join-time buffer
        // included; its generation continues from the dead occupant's,
        // so any superseded Finish events still in the heap (gen <= the
        // old occupant's) miss the `gen` check.
        let (aid, gen, mut member_join_t) = match self.free_assemblies.pop() {
            Some(slot) => {
                let dead = &mut self.assemblies[slot];
                (slot, dead.gen + 1, std::mem::take(&mut dead.member_join_t))
            }
            None => (self.assemblies.len(), 0, Vec::new()),
        };
        member_join_t.clear();
        member_join_t.resize(place.width, 0.0);
        let asm = Assembly {
            task,
            ty: node.meta.ty,
            place,
            joined: 0,
            member_join_t,
            leader_join_t: 0.0,
            started: false,
            start_t: 0.0,
            remaining: 0.0,
            rate: 0.0,
            last_t: 0.0,
            gen,
            done: false,
        };
        if aid == self.assemblies.len() {
            self.assemblies.push(asm);
        } else {
            self.assemblies[aid] = asm;
        }
        for m in place.member_cores() {
            self.cores[m.0].aq.push_back(aid);
            self.sync_queues(m.0);
            self.wake_at(m.0, t);
        }
        // The dispatching core keeps polling regardless of membership.
        self.wake_at(core, t);
    }

    /// A member core reaches the assembly at the head of its AQ.
    fn join(&mut self, dag: &Dag, core: usize, aid: usize) {
        let t = self.now;
        self.busy.set(core, true);
        let a = &mut self.assemblies[aid];
        let rank = a
            .place
            .rank_of(CoreId(core))
            .expect("AQ entries only on member cores");
        a.member_join_t[rank] = t;
        if CoreId(core) == a.place.leader {
            a.leader_join_t = t;
        }
        a.joined += 1;
        if a.joined == a.place.width {
            // Rendezvous complete: the moldable region runs at the
            // combined rate of its member cores.
            let task = a.task;
            let node = dag.node(task);
            let work = self.cfg.cost.work(node.meta.ty) * node.work_scale;
            let (ty, place) = (a.ty, a.place);
            let cl = self.cfg.session.topo.cluster_of(place.first_core()).id.0;
            self.streams[cl] += 1;
            let rate = self.exec_rate(ty, place, t);
            let a = &mut self.assemblies[aid];
            a.started = true;
            a.start_t = t;
            a.last_t = t;
            a.remaining = work;
            a.rate = rate;
            let dt = work / rate;
            let gen = a.gen;
            self.running.insert(aid);
            self.push(t + dt, Ev::Finish(aid, gen));
            // A new stream changes the contention everyone else in the
            // cluster sees.
            self.replan_cluster(cl, Some(aid), t);
            // Job-stream accounting: the job's queueing delay ends when
            // its first assembly starts executing.
            if !self.job_of.is_empty() {
                let j = self.job_of[task.index()];
                if self.job_started[j].is_nan() {
                    self.job_started[j] = t;
                }
            }
        }
    }

    fn handle_finish(&mut self, dag: &Dag, aid: usize, gen: u64) {
        let t = self.now;
        {
            let a = &self.assemblies[aid];
            if a.done || a.gen != gen {
                return; // superseded by an environment change
            }
        }
        self.running.remove(&aid);
        {
            let cl = self
                .cfg
                .session
                .topo
                .cluster_of(self.assemblies[aid].place.first_core())
                .id
                .0;
            self.streams[cl] -= 1;
            self.replan_cluster(cl, Some(aid), t);
        }
        let (task, place, leader_join_t, start_t) = {
            let a = &mut self.assemblies[aid];
            a.done = true;
            (a.task, a.place, a.leader_join_t, a.start_t)
        };
        let node = dag.node(task);

        for m in place.member_cores() {
            // Invariant: the finishing assembly's member set is the
            // place chosen at dispatch, so every member core has a
            // rank. A malformed place must fail loudly, not opaquely.
            let rank = place
                .rank_of(m)
                .expect("assembly member without a rank in its own place");
            self.busy.set(m.0, false);
            self.stats.core_busy[m.0] += t - self.assemblies[aid].member_join_t[rank];
            self.stats.core_work[m.0] += t - start_t;
            if self.record_trace {
                self.trace.spans.push(TraceSpan {
                    core: m.0,
                    start: start_t,
                    end: t,
                    task: u64::from(task.0),
                    ty: node.meta.ty.0,
                    leader: place.leader.0,
                    width: place.width,
                    tag: node.tag,
                });
            }
            self.wake_at(m.0, t);
        }

        // Step 8: the leader observes the task's execution time (its own
        // join-to-commit span, which includes waiting for the rendezvous)
        // and trains the PTT. Optional measurement jitter models clock
        // granularity and cache effects — it perturbs only the training
        // signal, never the actual duration.
        let mut observed = t - leader_join_t;
        let j = self.cfg.session.sim_params.obs_noise;
        if j > 0.0 {
            // Symmetric clock jitter, plus the occasional large outlier
            // (a timer interrupt or preemption landing inside the
            // measurement) — the kind of isolated divergent sample the
            // paper's 1:4 weighted average exists to absorb (§4.1.1
            // "resilient to divergent measurements").
            let mut jitter = self.rng.gen_range(-j..=j);
            if self.rng.gen_bool(0.04) {
                jitter += self.rng.gen_range(0.0..10.0 * j);
            }
            observed = (observed + jitter).max(observed * 0.05);
        }
        self.sched.record(node.meta.ty, place, observed);

        self.stats.record_commit(
            (place.leader.0, place.width),
            node.meta.priority.is_high(),
            node.tag,
        );
        self.stats.record_tag_event(node.tag, t);
        self.completed += 1;
        // Job-stream accounting: the last committed task completes the
        // job.
        if !self.job_of.is_empty() {
            let j = self.job_of[task.index()];
            self.job_remaining[j] -= 1;
            if self.job_remaining[j] == 0 {
                self.job_done_at[j] = t;
            }
        }

        // The last completing core wakes the dependants (the whole place
        // finishes simultaneously in this model; wake-ups are charged to
        // the leader, matching the XiTAO implementation).
        for &s in &node.succs {
            let i = s.index();
            self.preds[i] -= 1;
            if self.preds[i] == 0 {
                let delay = dag.node(s).release_delay;
                if delay > 0.0 {
                    self.push(t + delay, Ev::Release(s, place.leader.0));
                } else {
                    self.wakeup(dag, s, place.leader.0, t);
                }
            }
        }
        // The slot is dead (done, off the running set, dependants
        // released): recycle it.
        self.free_assemblies.push(aid);
    }

    /// Piecewise integration: at every environment change, bank the work
    /// done so far by each running assembly and re-plan its completion at
    /// the new rate.
    fn handle_env_change(&mut self) {
        let t = self.now;
        // Snapshot the running set into the engine-owned scratch buffer
        // (like the steal path's victim scratch): environment changes
        // fire on every DVFS/interference edge and previously allocated
        // a fresh Vec each time.
        let mut ids = std::mem::take(&mut self.replan_scratch);
        ids.clear();
        ids.extend(self.running.iter().copied());
        for aid in ids.drain(..) {
            self.replan(aid, t);
        }
        self.replan_scratch = ids;
        if let Some(next) = self.env.next_change_after(t) {
            self.push(next, Ev::EnvChange);
        }
    }

    /// Bank the work `aid` has done at its old rate and re-plan its
    /// completion at the current rate (environment and contention as of
    /// `t`). Supersedes the previously scheduled finish via the
    /// generation counter.
    fn replan(&mut self, aid: usize, t: f64) {
        let (ty, place) = {
            let a = &self.assemblies[aid];
            (a.ty, a.place)
        };
        let rate = self.exec_rate(ty, place, t);
        let a = &mut self.assemblies[aid];
        a.remaining = (a.remaining - a.rate * (t - a.last_t)).max(0.0);
        a.last_t = t;
        a.rate = rate;
        a.gen += 1;
        let gen = a.gen;
        let dt = a.remaining / a.rate;
        self.push(t + dt, Ev::Finish(aid, gen));
    }

    /// Re-plan every running assembly of cluster `cl` except `skip`
    /// (the one that just started or finished — its own plan is already
    /// current). Called whenever the cluster's stream count changes.
    fn replan_cluster(&mut self, cl: usize, skip: Option<usize>, t: f64) {
        if self.streams_sensitive_types_absent(cl) {
            return;
        }
        let mut ids = std::mem::take(&mut self.replan_scratch);
        ids.clear();
        ids.extend(self.running.iter().copied().filter(|&aid| {
            Some(aid) != skip
                && self
                    .cfg
                    .session
                    .topo
                    .cluster_of(self.assemblies[aid].place.first_core())
                    .id
                    .0
                    == cl
        }));
        for aid in ids.drain(..) {
            self.replan(aid, t);
        }
        self.replan_scratch = ids;
    }

    /// Cheap short-circuit: if no running assembly in `cl` has a
    /// contention-sensitive task type, stream-count changes cannot move
    /// any rate and the replan (plus its superseded events) is skipped.
    fn streams_sensitive_types_absent(&self, cl: usize) -> bool {
        !self.running.iter().any(|&aid| {
            let a = &self.assemblies[aid];
            self.cfg.session.topo.cluster_of(a.place.first_core()).id.0 == cl
                && self.cfg.cost.contention_sensitivity(a.ty) > 0.0
        })
    }

    /// Execution rate of a moldable task at `place` at time `t`.
    ///
    /// The work of an SPMD region is partitioned evenly across the
    /// members at entry and the region completes when the slowest member
    /// finishes, so the effective rate is `width × min(core speeds)`, not
    /// the sum — this is precisely the paper's motivating observation
    /// ("a simple event slowing down the execution of a single thread
    /// [...] delays sibling threads waiting at a synchronization point").
    fn exec_rate(&self, ty: TaskTypeId, place: ExecutionPlace, t: f64) -> f64 {
        let cl = self.cfg.session.topo.cluster_of(place.first_core());
        let eff = self.cfg.cost.efficiency(ty, place.width, cl);
        let press = self.env.mem_pressure(cl.id, t) * self.cfg.cost.mem_sensitivity(ty);
        let min_speed: f64 = place
            .member_cores()
            .map(|c| self.env.speed(c, t))
            .fold(f64::INFINITY, f64::min);
        // Intra-application contention: `k` independent streams in the
        // cluster degrade each other; a lone (possibly wide) assembly
        // pays nothing. This is what molding buys (§3.1).
        let k = self.streams[cl.id.0].max(1);
        let crowd = (k - 1) as f64 / cl.num_cores as f64;
        let contention = self.cfg.cost.contention_sensitivity(ty) * crowd.min(1.0);
        (place.width as f64 * min_speed * eff * (1.0 - press) * (1.0 - contention)).max(1e-12)
    }
}

/// The backend-neutral executor contract over the discrete-event
/// simulator. `submit` validates and buffers; the pending jobs execute
/// as one seeded batch at the next `wait` of a pending job or the next
/// `drain` (arrivals are simulated-time events relative to the batch's
/// time zero) — a discrete-event simulator cannot run one job of a
/// shared-core batch in isolation, because the batch *is* the
/// contention being modelled. A `wait` on an unknown or consumed
/// ticket executes nothing, so an erroneous call never perturbs PTT or
/// RNG state. Records are on the session clock; PTT state carries
/// across batches.
impl Executor for Simulator {
    type Graph = Dag;

    fn backend(&self) -> &'static str {
        "das-sim"
    }

    fn submit(&mut self, spec: JobSpec<Dag>) -> Result<Ticket, ExecError> {
        let mut tickets = self.submit_many(vec![spec])?;
        Ok(tickets.pop().expect("a one-job batch has one ticket"))
    }

    /// Validate the whole batch before buffering any of it, so a
    /// rejected batch admits nothing. Session job ids are stable across
    /// batches and increase by one per admitted job.
    fn submit_many(&mut self, specs: Vec<JobSpec<Dag>>) -> Result<Vec<Ticket>, ExecError> {
        self.session.admit(specs.len())?;
        for spec in &specs {
            spec.graph.validate().map_err(SimError::InvalidDag)?;
        }
        let first = self.next_ticket;
        self.next_ticket += specs.len() as u64;
        self.pending_specs.extend(specs);
        let ids = first..self.next_ticket;
        Ok(ids.map(|id| self.session.issue(JobId(id), None)).collect())
    }

    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        if matches!(self.session.get(&ticket), Some(None)) {
            self.flush_pending()?;
        }
        let stats = self.session.redeem(ticket)?;
        Ok(stats.expect("an outstanding job is pending only until a flush"))
    }

    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        self.flush_pending()?;
        let jobs = self
            .session
            .retire_all()
            .map(|stats| stats.expect("an outstanding job is pending only until a flush"));
        Ok(StreamStats::from_jobs(jobs.collect()))
    }

    fn take_extras(&mut self) -> ExecExtras {
        std::mem::take(&mut self.session.extras)
    }

    fn metrics_probe(&mut self) -> Option<ExecProbe> {
        self.session.metrics_probe()
    }

    fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        self.session_spans
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{TableCost, UniformCost};
    use crate::env::Modifier;
    use das_core::metrics::MetricsConfig;
    use das_core::Policy;
    use das_dag::generators;
    use das_topology::{ClusterId, Topology};

    fn sim(policy: Policy) -> Simulator {
        let topo = Arc::new(Topology::tx2());
        Simulator::new(SimConfig::new(topo, policy).cost(Arc::new(UniformCost::new(1e-3))))
    }

    /// Push a borrowed batch through the façade's session path.
    fn drain_stream(
        s: &mut Simulator,
        jobs: &[das_core::jobs::JobSpec<Dag>],
    ) -> Result<StreamStats, ExecError> {
        for spec in jobs {
            s.submit(spec.clone())?;
        }
        s.drain()
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut s = sim(Policy::Rws);
        let dag = generators::chain(TaskTypeId(0), 1);
        let st = s.run(&dag).unwrap();
        assert_eq!(st.tasks, 1);
        // 1 ms of work on a 2.0-speed denver core 0 -> 0.5 ms + overheads.
        assert!(
            st.makespan >= 0.5e-3 && st.makespan < 0.7e-3,
            "{}",
            st.makespan
        );
    }

    #[test]
    fn chain_is_sequential_in_time() {
        let mut s = sim(Policy::Rws);
        let dag = generators::chain(TaskTypeId(0), 100);
        let st = s.run(&dag).unwrap();
        assert_eq!(st.tasks, 100);
        assert!(st.makespan >= 100.0 * 0.5e-3);
        // Only one core ever works on a chain under RWS without steals of
        // running tasks (each wake-up goes to the completing core).
        let active_cores = st.core_work.iter().filter(|&&w| w > 0.0).count();
        assert_eq!(active_cores, 1);
    }

    #[test]
    fn parallel_layer_uses_multiple_cores() {
        let mut s = sim(Policy::Rws);
        let dag = generators::layered(TaskTypeId(0), 6, 50);
        let st = s.run(&dag).unwrap();
        assert_eq!(st.tasks, 300);
        let active = st.core_work.iter().filter(|&&w| w > 0.0).count();
        assert!(active >= 4, "stealing should spread work, got {active}");
        assert!(st.steals > 0);
    }

    #[test]
    fn all_policies_complete_all_dags() {
        for policy in Policy::ALL {
            let mut s = sim(policy);
            let dag = generators::layered(TaskTypeId(0), 4, 30);
            let st = s.run(&dag).unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(st.tasks, 120, "{policy}");
            let dag = generators::fork_join(TaskTypeId(1), 5, 10);
            let st = s.run(&dag).unwrap();
            assert_eq!(st.tasks, dag.len());
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed: u64| {
            let topo = Arc::new(Topology::tx2());
            let mut s = Simulator::new(
                SimConfig::new(topo, Policy::DamC)
                    .seed(seed)
                    .cost(Arc::new(UniformCost::new(1e-3))),
            );
            let dag = generators::layered(TaskTypeId(0), 4, 100);
            s.run(&dag).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.high_priority_places, b.high_priority_places);
        assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn fa_places_all_high_priority_on_fast_cluster() {
        let mut s = sim(Policy::Fa);
        let dag = generators::layered(TaskTypeId(0), 4, 200);
        let st = s.run(&dag).unwrap();
        let high_total: usize = st.high_priority_places.values().sum();
        assert_eq!(high_total, 200);
        for ((core, _w), n) in &st.high_priority_places {
            assert!(
                *core < 2,
                "FA must pin to denver cores, found core {core} x{n}"
            );
        }
    }

    #[test]
    fn dam_avoids_interfered_core() {
        // Co-runner on denver core 0: the dynamic schedulers must steer
        // critical tasks away from it (Fig. 5(e–g)). Under the perfectly
        // scaling UniformCost, DA and DAM-C converge on the remaining fast
        // core 1 (98 % / 96.7 % in the paper); DAM-P may legitimately pick
        // the wide A57 place instead (sum of speeds 4.0 > 2.0), so for it
        // we only assert avoidance of the interfered core.
        let topo = Arc::new(Topology::tx2());
        for policy in [Policy::Da, Policy::DamC, Policy::DamP] {
            let mut s = Simulator::new(
                SimConfig::new(Arc::clone(&topo), policy).cost(Arc::new(UniformCost::new(1e-3))),
            );
            s.set_env(
                Environment::interference_free(Arc::clone(&topo))
                    .and(Modifier::compute_corunner(CoreId(0))),
            );
            let dag = generators::layered(TaskTypeId(0), 2, 500);
            let st = s.run(&dag).unwrap();
            let share0 = st.high_priority_share_on_core(0);
            let share1 = st.high_priority_share_on_core(1);
            assert!(share0 < 0.2, "{policy}: share0={share0:.2}");
            if policy != Policy::DamP {
                assert!(share1 > 0.5, "{policy}: share1={share1:.2}");
            }
        }
    }

    #[test]
    fn env_change_mid_task_integrates_work() {
        // One long task on a core that slows down 2x halfway through.
        let topo = Arc::new(Topology::symmetric(1));
        let mut s = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::Rws).cost(Arc::new(UniformCost::new(10.0))),
        );
        s.set_env(
            Environment::interference_free(Arc::clone(&topo)).and(Modifier::Slowdown {
                first_core: CoreId(0),
                num_cores: 1,
                factor: 0.5,
                mem_pressure: 0.0,
                from: 5.0,
                until: f64::INFINITY,
            }),
        );
        let dag = generators::chain(TaskTypeId(0), 1);
        let st = s.run(&dag).unwrap();
        // 5 s at speed 1 (5 units) + 5 remaining units at speed 0.5 = 10 s
        // -> total 15 s (+ microsecond overheads).
        assert!((st.makespan - 15.0).abs() < 1e-3, "{}", st.makespan);
    }

    #[test]
    fn moldable_policy_eventually_uses_width() {
        // A kernel that scales perfectly: after exploration, RWSM-C's
        // local search should find that wider is no worse in cost and the
        // explored table includes wide places.
        let topo = Arc::new(Topology::tx2());
        let cost = TableCost::new().with(1e-3, 1.0, 0.0);
        let mut s =
            Simulator::new(SimConfig::new(Arc::clone(&topo), Policy::RwsmC).cost(Arc::new(cost)));
        let dag = generators::layered(TaskTypeId(0), 4, 300);
        let st = s.run(&dag).unwrap();
        let widths: BTreeSet<usize> = st.all_places.keys().map(|&(_, w)| w).collect();
        assert!(
            widths.len() > 1,
            "molding never used any width > 1: {widths:?}"
        );
    }

    #[test]
    fn deadlock_reported_not_hung() {
        // Affinity to a non-existent node can never be satisfied; the
        // scheduler redirects to... no queue exists for node 7, so the
        // fallback keeps it runnable. Instead, test the event budget.
        let mut s = sim(Policy::Rws);
        s.max_events = 10;
        let dag = generators::layered(TaskTypeId(0), 4, 100);
        match s.run(&dag) {
            Err(SimError::EventLimitExceeded { completed, total }) => {
                assert!(completed < total, "{completed}/{total}");
                assert_eq!(total, dag.len());
            }
            other => panic!("expected EventLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn invalid_dag_rejected() {
        let mut s = sim(Policy::Rws);
        let dag = das_dag::Dag::new("empty");
        assert!(matches!(s.run(&dag), Err(SimError::InvalidDag(_))));
    }

    #[test]
    fn ptt_learns_across_runs() {
        let mut s = sim(Policy::DamC);
        let dag = generators::layered(TaskTypeId(0), 2, 100);
        let first = s.run(&dag).unwrap();
        let second = s.run(&dag).unwrap();
        // With a trained PTT the second run should not be slower by more
        // than noise.
        assert!(second.makespan <= first.makespan * 1.25);
        // And the model retains observations.
        let ptt = s.scheduler().ptts().table(TaskTypeId(0));
        assert!(
            ptt.predict(CoreId(0), 1).unwrap() > 0.0 || ptt.predict(CoreId(1), 1).unwrap() > 0.0
        );
    }

    #[test]
    fn trace_records_consistent_spans() {
        let mut s = sim(Policy::DamC);
        s.record_trace(true);
        let dag = generators::layered(TaskTypeId(0), 4, 50);
        let st = s.run(&dag).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.num_cores, 6);
        assert!(trace.makespan > 0.0);
        assert!(
            trace.find_overlap().is_none(),
            "no core runs two tasks at once"
        );
        // Width-1 tasks leave one span each; wider leave one per member,
        // so spans >= tasks.
        assert!(trace.spans.len() >= st.tasks);
        // Utilisation is a valid fraction.
        for u in trace.utilization() {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        // Tracing off by default: a fresh run without the flag is empty.
        let mut s2 = sim(Policy::DamC);
        s2.run(&dag).unwrap();
        assert!(s2.take_trace().spans.is_empty());
    }

    #[test]
    fn pinned_entries_overtake_stealable_backlog() {
        // Regression for the Fig. 4/6 serialisation bug: at parallelism
        // 2 under DAM-C, both next-layer tasks land on the WSQ of the
        // core that committed the critical task. The owner must service
        // the pinned critical entry first so an idle core can steal the
        // low sibling; with plain LIFO the owner runs the sibling, the
        // pinned entry is unstealable, and the whole run serialises on
        // one core.
        let topo = Arc::new(Topology::tx2());
        let mut s = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::DamC).cost(Arc::new(UniformCost::new(1e-3))),
        );
        let dag = generators::layered(TaskTypeId(0), 2, 400);
        let st = s.run(&dag).unwrap();
        let active = st
            .core_work
            .iter()
            .filter(|&&w| w > 0.1 * st.makespan)
            .count();
        assert!(
            active >= 2,
            "low-priority siblings must run concurrently with criticals: {:?}",
            st.core_work
        );
        // The critical chain paces the run: makespan tracks the critical
        // tasks' total time (1 ms / 2.0-speed denver core each), not the
        // serialised sum of both streams.
        let crit_chain = 400.0 * (1e-3 / 2.0);
        assert!(
            st.makespan < crit_chain * 1.25,
            "layer pipeline must not serialise: makespan {} vs critical chain {}",
            st.makespan,
            crit_chain
        );
    }

    #[test]
    fn job_stream_completes_every_job_with_consistent_accounting() {
        use das_core::jobs::JobSpec;
        let mut s = sim(Policy::DamC);
        let jobs: Vec<JobSpec<das_dag::Dag>> = (0..6)
            .map(|j| {
                JobSpec::new(generators::layered(TaskTypeId(0), 2, 20))
                    .at(j as f64 * 2e-3)
                    .deadline(j as f64 * 2e-3 + 10.0)
            })
            .collect();
        let st = drain_stream(&mut s, &jobs).unwrap();
        assert_eq!(st.jobs.len(), 6);
        assert_eq!(st.tasks, 6 * 40);
        for (j, spec) in st.jobs.iter().zip(&jobs) {
            assert_eq!(j.tasks, 40);
            assert!((j.arrival - spec.arrival).abs() < 1e-15);
            assert!(j.started >= j.arrival, "{j:?}");
            assert!(j.completed > j.started, "{j:?}");
            assert_eq!(j.deadline_met(), Some(true));
        }
        assert!(st.jobs_per_sec() > 0.0);
        assert!(st.sojourn_percentile(0.5).unwrap() > 0.0);
    }

    #[test]
    fn job_stream_overlaps_jobs_under_pressure() {
        // Arrivals far faster than the service rate: later jobs must
        // queue (positive queueing delay) and jobs must overlap in time
        // — the contention regime a single-DAG run cannot produce.
        let mut s = sim(Policy::Rws);
        let jobs: Vec<_> = (0..8)
            .map(|j| {
                das_core::jobs::JobSpec::new(generators::layered(TaskTypeId(0), 4, 25))
                    .at(j as f64 * 1e-4)
            })
            .collect();
        let st = drain_stream(&mut s, &jobs).unwrap();
        let overlapping = st
            .jobs
            .iter()
            .zip(st.jobs.iter().skip(1))
            .any(|(a, b)| b.started < a.completed);
        assert!(overlapping, "jobs never overlapped: {:?}", st.jobs);
        let max_queue = st.queueing_percentile(1.0).unwrap();
        assert!(max_queue > 0.0, "no job ever queued");
        // Sojourn of the last job exceeds its bare makespan (it waited).
        let last = st.jobs.last().unwrap();
        assert!(last.sojourn() >= last.makespan());
    }

    #[test]
    fn job_stream_is_deterministic() {
        let mk = || {
            let topo = Arc::new(Topology::tx2());
            let mut s = Simulator::new(
                SimConfig::new(topo, Policy::DamC)
                    .seed(21)
                    .cost(Arc::new(UniformCost::new(1e-3))),
            );
            let jobs: Vec<_> = (0..5)
                .map(|j| {
                    das_core::jobs::JobSpec::new(generators::fork_join(TaskTypeId(0), 3, 6))
                        .at(j as f64 * 5e-4)
                })
                .collect();
            drain_stream(&mut s, &jobs).unwrap()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn job_stream_single_run_state_isolated() {
        // A stream run followed by a plain run must behave exactly like
        // a fresh plain run (same PTT state): stream bookkeeping must
        // not leak.
        let dag = generators::layered(TaskTypeId(0), 4, 30);
        let mut a = sim(Policy::Rws);
        let jobs = vec![das_core::jobs::JobSpec::new(generators::chain(TaskTypeId(1), 5)).at(0.0)];
        drain_stream(&mut a, &jobs).unwrap();
        let mut b = sim(Policy::Rws);
        drain_stream(&mut b, &jobs).unwrap();
        let ra = a.run(&dag).unwrap();
        let rb = b.run(&dag).unwrap();
        assert_eq!(ra.makespan, rb.makespan);
        assert_eq!(ra.steals, rb.steals);
    }

    #[test]
    fn empty_job_stream_is_empty_stats() {
        let mut s = sim(Policy::Rws);
        let st = s.drain().unwrap();
        assert_eq!(st.jobs.len(), 0);
        assert_eq!(st.jobs_per_sec(), 0.0);
    }

    #[test]
    fn job_stream_rejects_invalid_dag() {
        let mut s = sim(Policy::Rws);
        let jobs = vec![das_core::jobs::JobSpec::new(das_dag::Dag::new("empty"))];
        assert!(matches!(
            drain_stream(&mut s, &jobs),
            Err(ExecError::Rejected(_))
        ));
    }

    #[test]
    fn incremental_wait_flushes_and_consumes() {
        let mut s = sim(Policy::DamC);
        let mut tickets: Vec<_> = (0..3)
            .map(|j| {
                s.submit(
                    das_core::jobs::JobSpec::new(generators::chain(TaskTypeId(0), 4))
                        .at(j as f64 * 1e-3),
                )
                .unwrap()
            })
            .collect();
        let ids: Vec<_> = tickets.iter().map(Ticket::job).collect();
        assert_eq!(ids, vec![JobId(0), JobId(1), JobId(2)]);
        assert_eq!(s.pending_specs.len(), 3);
        let session = tickets[0].session();
        let stale = |id| Ticket::new(session, JobId(id));
        // Waiting the middle job executes the whole batch…
        let st = s.wait(tickets.remove(1)).unwrap();
        assert_eq!(st.id, JobId(1));
        assert_eq!(st.tasks, 4);
        assert_eq!(s.pending_specs.len(), 0);
        // …consumes exactly that record…
        assert_eq!(s.wait(stale(1)), Err(ExecError::UnknownTicket(JobId(1))));
        // …and leaves the others for drain (job-id order).
        let rest = s.drain().unwrap();
        let rest_ids: Vec<_> = rest.jobs.iter().map(|j| j.id).collect();
        assert_eq!(rest_ids, vec![JobId(0), JobId(2)]);
        // A drained simulator is empty.
        assert!(s.drain().unwrap().jobs.is_empty());
        assert_eq!(s.wait(stale(7)), Err(ExecError::UnknownTicket(JobId(7))));
    }

    #[test]
    fn session_job_ids_are_monotone_across_batches() {
        let mut s = sim(Policy::Rws);
        for _ in 0..2 {
            s.submit(das_core::jobs::JobSpec::new(generators::chain(
                TaskTypeId(0),
                2,
            )))
            .unwrap();
        }
        let first = s.drain().unwrap();
        assert_eq!(
            first.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![JobId(0), JobId(1)]
        );
        let id = s
            .submit(das_core::jobs::JobSpec::new(generators::chain(
                TaskTypeId(0),
                2,
            )))
            .unwrap();
        assert_eq!(id.job(), JobId(2));
        let second = s.drain().unwrap();
        assert_eq!(second.jobs[0].id, JobId(2));
        assert_eq!(first.jobs.len(), 2);
        // Batches execute sequentially on one monotone session clock:
        // the third job's timestamps continue where the first batch
        // ended, so cross-batch spans stay meaningful.
        let first_end = first.jobs.iter().map(|j| j.completed).fold(0.0, f64::max);
        assert!(second.jobs[0].arrival >= first_end);
        assert!(second.jobs[0].completed > second.jobs[0].arrival);
    }

    #[test]
    fn wait_on_unknown_id_has_no_side_effects() {
        let mut s = sim(Policy::DamC);
        let t = s
            .submit(das_core::jobs::JobSpec::new(generators::chain(
                TaskTypeId(0),
                3,
            )))
            .unwrap();
        let session = t.session();
        let stale = |id| Ticket::new(session, JobId(id));
        // Neither a never-issued id nor an already-consumed one may
        // execute the pending batch as a side effect.
        assert_eq!(s.wait(stale(99)), Err(ExecError::UnknownTicket(JobId(99))));
        assert_eq!(s.pending_specs.len(), 1, "pending batch untouched");
        let st = s.wait(t).unwrap();
        assert_eq!(st.tasks, 3);
        assert_eq!(s.wait(stale(0)), Err(ExecError::UnknownTicket(JobId(0))));
        assert_eq!(s.pending_specs.len(), 0);
    }

    #[test]
    fn cross_batch_drain_reports_one_monotone_timeline() {
        let mut s = sim(Policy::Rws);
        let job = || das_core::jobs::JobSpec::new(generators::chain(TaskTypeId(0), 4));
        // Batch 1: two jobs; consume one record by ticket.
        let first = s.submit(job()).unwrap();
        s.submit(job()).unwrap();
        s.wait(first).unwrap();
        // Batch 2: one more job, then drain both leftovers together.
        s.submit(job()).unwrap();
        let st = s.drain().unwrap();
        assert_eq!(
            st.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![JobId(1), JobId(2)]
        );
        // The batch-2 job's timestamps continue after batch 1 ended,
        // so the aggregated span covers the real sequential execution.
        assert!(st.jobs[1].arrival >= st.jobs[0].completed);
        assert!(st.span >= st.jobs[1].completed - st.jobs[0].arrival - 1e-12);
        assert!(st.jobs_per_sec() > 0.0);
    }

    #[test]
    fn executor_trait_drives_the_session_and_reports_extras() {
        let mut s = sim(Policy::DamC);
        let jobs: Vec<_> = (0..4)
            .map(|j| {
                das_core::jobs::JobSpec::new(generators::layered(TaskTypeId(0), 2, 8))
                    .at(j as f64 * 1e-3)
            })
            .collect();
        let report = {
            let ex: &mut dyn Executor<Graph = Dag> = &mut s;
            ex.run_stream(jobs.clone()).unwrap()
        };
        assert_eq!(report.backend, "das-sim");
        assert_eq!(report.jobs.jobs.len(), 4);
        assert!(report.events().unwrap() > 0);
        assert!(report.extras.get("failed_steals").is_some());
        // Extras were surrendered: a second take is empty.
        assert!(Executor::take_extras(&mut s).is_empty());
        // And the per-job records equal a submit loop's.
        let mut direct = sim(Policy::DamC);
        assert_eq!(report.jobs, drain_stream(&mut direct, &jobs).unwrap());
    }

    #[test]
    fn dheft_completes_and_spreads() {
        let mut s = sim(Policy::DHeft);
        let dag = generators::layered(TaskTypeId(0), 6, 100);
        let st = s.run(&dag).unwrap();
        assert_eq!(st.tasks, 600);
        let active = st.core_work.iter().filter(|&&w| w > 0.0).count();
        assert!(active >= 4, "dHEFT must spread load, got {active} cores");
        // All width-1 (dHEFT never molds).
        assert!(st.all_places.keys().all(|&(_, w)| w == 1));
    }

    #[test]
    fn dvfs_square_wave_slows_run() {
        let topo = Arc::new(Topology::tx2());
        let mk = |dvfs: bool| {
            let mut s = Simulator::new(
                SimConfig::new(Arc::clone(&topo), Policy::Rws)
                    .cost(Arc::new(UniformCost::new(5e-3))),
            );
            if dvfs {
                s.set_env(
                    Environment::interference_free(Arc::clone(&topo))
                        .and(Modifier::tx2_dvfs(ClusterId(0))),
                );
            }
            let dag = generators::layered(TaskTypeId(0), 4, 2000);
            s.run(&dag).unwrap().makespan
        };
        assert!(mk(true) > mk(false));
    }

    fn metrics_session(metrics: Option<MetricsConfig>) -> Simulator {
        let mut session = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(0xfeed);
        if let Some(cfg) = metrics {
            session = session.metrics(cfg);
        }
        Simulator::from_session(&session)
    }

    fn metrics_stream(s: &mut Simulator) -> StreamStats {
        for i in 0..12u64 {
            let dag = generators::layered(TaskTypeId(0), 3, 20);
            Executor::submit(s, JobSpec::new(dag).at(i as f64 * 1e-3)).unwrap();
        }
        Executor::drain(s).unwrap()
    }

    #[test]
    fn metrics_are_a_pure_observer_of_the_job_stream() {
        let mut off = metrics_session(None);
        let mut on = metrics_session(Some(MetricsConfig::default().with_trace()));
        let a = metrics_stream(&mut off);
        let b = metrics_stream(&mut on);
        assert_eq!(a, b, "enabling metrics must not move a single bit");
        assert!(
            off.metrics_probe().is_none(),
            "disabled session has no probe"
        );
    }

    #[test]
    fn probe_accumulates_across_batches_and_reads_idempotently() {
        let mut s = metrics_session(Some(MetricsConfig::default()));
        let stats = metrics_stream(&mut s);
        let p1 = s.metrics_probe().expect("metrics enabled");
        assert_eq!(p1.jobs_admitted, 12);
        assert_eq!(p1.jobs_completed, 12);
        assert_eq!(p1.tasks_completed, stats.tasks as u64);
        assert_eq!(p1.sojourn.count(), 12);
        assert_eq!(p1.queueing.count(), 12);
        assert_eq!(p1.queue_depth, 0, "drained session holds nothing");
        assert!(p1.utilization() > 0.0 && p1.utilization() <= 1.0);
        assert!(
            p1.ptt_residual > 0.0,
            "first flush trains the PTT from zero"
        );
        assert_eq!(
            s.metrics_probe().expect("still enabled"),
            p1,
            "probe does not drain"
        );
        // Second batch: counters keep growing on the same probe.
        metrics_stream(&mut s);
        let p2 = s.metrics_probe().unwrap();
        assert_eq!(p2.jobs_completed, 24);
        assert_eq!(p2.sojourn.count(), 24);
    }

    #[test]
    fn a_failed_batch_frees_its_admission_slots() {
        let session = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
            .max_outstanding(3)
            .metrics(MetricsConfig::default());
        let mut s = Simulator::from_session(&session);
        s.max_events = 10;
        let job = || JobSpec::new(generators::layered(TaskTypeId(0), 3, 20));
        let tickets: Vec<Ticket> = (0..3).map(|_| s.submit(job()).unwrap()).collect();
        assert!(matches!(s.drain(), Err(ExecError::Failed(_))));
        // The failed batch took its jobs with it: every ticket is
        // unknown and every slot is free again.
        for t in tickets {
            let id = t.job();
            assert_eq!(s.wait(t), Err(ExecError::UnknownTicket(id)));
        }
        assert_eq!(s.metrics_probe().unwrap().queue_depth, 0);
        s.submit(job()).expect("a freed slot admits");
    }

    #[test]
    fn reset_model_keeps_the_session_scheduler_knobs() {
        let session = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
            .allow_high_priority_steal(true);
        let mut s = Simulator::from_session_with_cost(&session, Arc::new(UniformCost::new(1e-3)));
        s.reset_model();
        let high = das_core::TaskMeta::new(TaskTypeId(0), das_core::Priority::High);
        assert!(s.scheduler().stealable(&high));
    }

    #[test]
    fn trace_spans_accumulate_on_the_session_clock() {
        let mut s = metrics_session(Some(MetricsConfig::default().with_trace()));
        metrics_stream(&mut s);
        let first_makespan = s.session_clock;
        metrics_stream(&mut s);
        let spans = Executor::take_trace_spans(&mut s);
        assert!(
            spans.len() >= 2 * 12 * 60,
            "every task of both batches leaves at least one span, got {}",
            spans.len()
        );
        assert!(
            spans.iter().any(|sp| sp.start >= first_makespan),
            "second batch re-anchors past the first batch's makespan"
        );
        assert!(spans.iter().all(|sp| sp.end >= sp.start));
        assert!(
            Executor::take_trace_spans(&mut s).is_empty(),
            "take_trace_spans drains"
        );
    }
}
