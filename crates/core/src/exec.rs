//! One executor contract: the backend-neutral `submit`/`wait`/`drain`
//! façade both execution backends sit behind.
//!
//! The paper's core claim is that *one decision layer* (the PTT,
//! Algorithm 1 and the XiTAO queues) drives both a model (`das-sim`)
//! and a real machine (`das-runtime`). That argument only holds if the
//! two backends are interchangeable to a client — which is an API
//! property, not just a scheduling property. This module is that API:
//!
//! * [`Executor`] — the three-verb contract (`submit` a job, `wait` a
//!   ticket, `drain` the backlog) plus provided [`Executor::run_dag`] /
//!   [`Executor::run_stream`] conveniences built on the verbs;
//! * [`ExecReport`] — the single backend-neutral result shape
//!   (per-job [`StreamStats`] with sojourn/queueing percentiles, plus
//!   steal/event counters and an open extension map for
//!   backend-specific extras);
//! * [`SessionBuilder`] — the one typed configuration surface
//!   (topology, policy, PTT weight ratio, search/exploration/steal
//!   knobs, seed, simulator overheads, admission bound, faults,
//!   metrics) from which each backend constructs itself;
//! * [`Session`] — the façade bookkeeping (ticket ledger, admission
//!   bound, extras, probe) both single-node backends embed.
//!
//! Backends implement the trait for themselves (`das-sim` for its
//! `Simulator`, `das-runtime` for its `Runtime`), so harnesses,
//! differential tests and figure bins can be written once against
//! `&mut dyn Executor<Graph = G>` and driven over any backend — or any
//! future one (sharded, distributed, remote).
//!
//! ## Clock semantics
//!
//! Job timestamps are seconds on *whatever clock the backend uses*:
//! simulated seconds on the session's monotone clock in `das-sim`
//! (batches execute sequentially), wall-clock seconds
//! since pool creation in `das-runtime`. Cross-backend comparisons are
//! therefore about *structure* (job counts, completion order, monotone
//! latency fields), never about absolute times — see
//! `tests/executor_contract.rs` for the differential harness.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use das_topology::Topology;

use crate::jobs::{JobId, JobSpec, JobStats, StreamStats};
use crate::{Policy, Scheduler, WeightRatio};

/// Process-wide executor session tags. Job ids are dense per executor
/// (both backends count from 0), so a ticket must also carry *which*
/// executor issued it — otherwise a sim ticket handed to a runtime
/// holding a coinciding id would silently redeem the wrong job.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh session tag. Executor implementations call this
/// once at construction and stamp the tag into every [`Ticket`] they
/// issue; [`Executor::wait`] rejects tickets from any other session
/// with [`ExecError::UnknownTicket`].
pub fn session_tag() -> u64 {
    // relaxed-ok: unique-id generation; only atomicity of the increment
    // matters, no other memory is published under this counter.
    NEXT_SESSION.fetch_add(1, Ordering::Relaxed)
}

/// Proof of one accepted [`Executor::submit`], redeemable exactly once
/// with [`Executor::wait`] — and only with the executor that issued it
/// (tickets carry their executor's [`session_tag`]).
///
/// Deliberately neither `Copy` nor `Clone`: a ticket is moved into
/// `wait`, so "wait twice for the same job" is a compile error rather
/// than a runtime surprise. The underlying [`JobId`] is readable (for
/// logging and for matching against drained records) via
/// [`Ticket::job`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Ticket {
    session: u64,
    id: JobId,
}

impl Ticket {
    /// Stamp a backend-issued job id with the issuing executor's
    /// session tag. Only executor implementations should need this.
    pub fn new(session: u64, id: JobId) -> Self {
        Ticket { session, id }
    }

    /// The job this ticket refers to.
    pub fn job(&self) -> JobId {
        self.id
    }

    /// The session tag of the executor that issued this ticket.
    pub fn session(&self) -> u64 {
        self.session
    }
}

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket({})", self.id)
    }
}

/// Failures of the executor contract, backend-neutral by construction
/// (backends map their native error types into these three shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The job was rejected at submission: an invalid DAG, an empty
    /// batch, or a batch larger than the admission bound
    /// ([`SessionBuilder::max_outstanding`]). Nothing was enqueued, and
    /// resubmitting it can never succeed.
    Rejected(String),
    /// The backend failed while executing accepted work (e.g. the
    /// simulator's event budget tripped). Jobs of the failed batch are
    /// lost.
    Failed(String),
    /// The ticket does not name an outstanding job of this executor —
    /// it was already waited, drained away, or belongs to another
    /// executor.
    UnknownTicket(JobId),
    /// Admission control refused the job: the backend (or the target
    /// node) already holds `outstanding` jobs against a configured
    /// bound of `limit` ([`SessionBuilder::max_outstanding`]). Nothing
    /// was enqueued; the client should shed load or `drain` and retry.
    /// Unlike [`ExecError::Rejected`] this is a *transient* condition —
    /// the batch fits the bound, so a retry after a drain is admitted.
    Overloaded {
        /// Jobs currently held against the bound.
        outstanding: usize,
        /// The configured bound that was hit.
        limit: usize,
    },
    /// A cluster node died while holding work: its agent thread
    /// panicked (or was killed by a scheduled fault) and the dispatcher
    /// detected it. Surfaced for jobs that could not be recovered onto
    /// surviving nodes; the cluster itself stays usable.
    NodeFailed {
        /// The dead node's index on the cluster tier.
        node: usize,
    },
    /// A control RPC exceeded its deadline: the remote side neither
    /// acknowledged nor was detected as down within the configured
    /// retry budget. Transient by construction — the client may retry
    /// the verb.
    Timeout {
        /// Total time waited across all retry attempts, in
        /// milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Rejected(why) => write!(f, "job rejected: {why}"),
            ExecError::Failed(why) => write!(f, "execution failed: {why}"),
            ExecError::UnknownTicket(id) => write!(f, "unknown ticket: {id}"),
            ExecError::Overloaded { outstanding, limit } => {
                write!(
                    f,
                    "overloaded: {outstanding} outstanding jobs (limit {limit})"
                )
            }
            ExecError::NodeFailed { node } => {
                write!(f, "node {node} failed while holding work")
            }
            ExecError::Timeout { waited_ms } => {
                write!(f, "control rpc timed out after {waited_ms}ms")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Backend-specific counters riding along an [`ExecReport`].
///
/// The two counters every current backend can meaningfully produce are
/// typed (`steals`, and the simulator's discrete `events`); anything
/// else goes through the open `name -> f64` extension map so new
/// backends can report without changing this struct.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecExtras {
    /// Successful steals observed while executing the reported jobs.
    pub steals: Option<u64>,
    /// Discrete events processed (simulation backends only).
    pub events: Option<u64>,
    /// Named extension values. Deliberately a `BTreeMap`: these feed
    /// user-visible reports through [`ExecExtras::values`], so the
    /// iteration order at the emission point must be deterministic
    /// (name order), never the insertion order of the backends.
    values: BTreeMap<String, f64>,
}

impl ExecExtras {
    /// Set a named extension value, replacing any previous one.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Add `delta` to a named extension value (starting from zero).
    pub fn bump(&mut self, name: &str, delta: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Read a named extension value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterate the extension values in name order.
    pub fn values(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `true` when no counter and no extension value is present.
    pub fn is_empty(&self) -> bool {
        self.steals.is_none() && self.events.is_none() && self.values.is_empty()
    }

    /// Fold another extras record into this one: typed counters and
    /// extension values add, and a counter absent on both sides stays
    /// absent (so e.g. `events` does not become `Some(0)` on a backend
    /// that never reports events). This is how a multi-node tier merges
    /// per-node reports into one cluster-wide record while keeping
    /// per-node attribution values it adds under its own names.
    pub fn absorb(&mut self, other: ExecExtras) {
        if let Some(s) = other.steals {
            *self.steals.get_or_insert(0) += s;
        }
        if let Some(e) = other.events {
            *self.events.get_or_insert(0) += e;
        }
        for (k, v) in other.values {
            *self.values.entry(k).or_insert(0.0) += v;
        }
    }
}

/// The single backend-neutral result of executing jobs through the
/// [`Executor`] façade — what `RunStats` (sim), `RtStats` (runtime) and
/// `StreamStats` (streams) each carried a slice of.
///
/// Everything latency-shaped lives in [`ExecReport::jobs`] (per-job
/// arrival/start/completion plus the percentile helpers);
/// backend-specific counters live in [`ExecReport::extras`].
#[derive(Clone, Debug, PartialEq)]
pub struct ExecReport {
    /// Which backend produced this report (`"das-sim"`,
    /// `"das-runtime"`, …).
    pub backend: &'static str,
    /// Per-job records and stream aggregates, in job-id order.
    pub jobs: StreamStats,
    /// Backend-specific counters (steals, events, extensions).
    pub extras: ExecExtras,
}

impl ExecReport {
    /// Assemble a report.
    pub fn new(backend: &'static str, jobs: StreamStats, extras: ExecExtras) -> Self {
        ExecReport {
            backend,
            jobs,
            extras,
        }
    }

    /// First arrival to last completion, in backend seconds. For a
    /// single job arriving at time zero this is the classic makespan.
    pub fn makespan(&self) -> f64 {
        self.jobs.span
    }

    /// Total tasks committed across the reported jobs.
    pub fn tasks(&self) -> usize {
        self.jobs.tasks
    }

    /// Tasks committed per backend second over the report's span.
    pub fn throughput(&self) -> f64 {
        self.jobs.tasks_per_sec()
    }

    /// Completed jobs per backend second over the report's span.
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs.jobs_per_sec()
    }

    /// The `q`-quantile (nearest-rank) of per-job sojourn times.
    pub fn sojourn_percentile(&self, q: f64) -> Option<f64> {
        self.jobs.sojourn_percentile(q)
    }

    /// The `q`-quantile of per-job queueing delays.
    pub fn queueing_percentile(&self, q: f64) -> Option<f64> {
        self.jobs.queueing_percentile(q)
    }

    /// Successful steals, if the backend reported them.
    pub fn steals(&self) -> Option<u64> {
        self.extras.steals
    }

    /// Discrete events processed, if the backend reported them
    /// (simulation backends).
    pub fn events(&self) -> Option<u64> {
        self.extras.events
    }
}

/// The backend-neutral execution contract: `submit` jobs, `wait`
/// tickets, `drain` the backlog.
///
/// Semantics every implementation must honour:
///
/// * [`submit`](Executor::submit) accepts a [`JobSpec`] (validating its
///   graph) and returns a [`Ticket`]. It never blocks on execution —
///   batch backends may defer all work to the next `wait`/`drain`.
/// * [`wait`](Executor::wait) blocks until the ticket's job has
///   completed and returns its [`JobStats`], *consuming* the job's
///   drain record: a job collected by ticket is not also reported by
///   the next `drain`.
/// * [`drain`](Executor::drain) blocks until every submitted job has
///   completed and returns the records of all jobs finished since the
///   last `drain` that were not individually waited.
/// * [`take_extras`](Executor::take_extras) surrenders the
///   backend-specific counters accumulated since it was last called.
///
/// The provided [`run_dag`](Executor::run_dag) and
/// [`run_stream`](Executor::run_stream) compose the verbs into the two
/// shapes harnesses actually use, returning a full [`ExecReport`].
/// Both drain the executor, so on batch backends they also flush any
/// jobs submitted earlier in the session.
pub trait Executor {
    /// The executable graph representation this backend consumes:
    /// `das_dag::Dag` for the simulator (costs come from the cost
    /// model), `das_runtime::TaskGraph` for the threaded runtime (real
    /// closures).
    type Graph;

    /// Stable name of the backend, for reports and logs.
    fn backend(&self) -> &'static str;

    /// Accept a job for execution; returns the ticket to `wait` on.
    fn submit(&mut self, spec: JobSpec<Self::Graph>) -> Result<Ticket, ExecError>;

    /// Accept a whole batch of jobs in one call, returning one ticket
    /// per job in batch order. The batch path of the ingress tier
    /// (`das_core::ingress`): backends override it to amortise per-job
    /// costs — the simulator validates and buffers the batch in one
    /// pass, the runtime allocates the batch's job-id block with one
    /// atomic add and takes its pool locks once, and the cluster
    /// dispatcher sends **one wire message per node per batch** instead
    /// of one per job.
    ///
    /// Contract, beyond what `submit` already guarantees:
    ///
    /// * an **empty batch is rejected** at the façade
    ///   ([`ExecError::Rejected`]) — "submit nothing" is a client bug,
    ///   not an empty success;
    /// * on success, `tickets[i]` corresponds to `specs[i]` and job ids
    ///   are dense in batch order, exactly as if each spec had been
    ///   `submit`ted in sequence;
    /// * on error, the first failing job's error is returned. How much
    ///   of the batch was admitted is backend-specific: this default
    ///   (a `submit` loop) admits the prefix before the failure, while
    ///   batch-capable backends validate first and admit *nothing*
    ///   (the cluster discards only the rejecting node's sub-batch).
    ///   Clients that mix invalid jobs into batches should `drain`
    ///   before trusting session contents — the same "no rollback
    ///   verb" stance as [`run_stream`](Executor::run_stream).
    fn submit_many(&mut self, specs: Vec<JobSpec<Self::Graph>>) -> Result<Vec<Ticket>, ExecError> {
        if specs.is_empty() {
            return Err(ExecError::Rejected("empty batch".into()));
        }
        specs.into_iter().map(|spec| self.submit(spec)).collect()
    }

    /// Block until the ticket's job completes; returns its stats and
    /// consumes its drain record.
    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError>;

    /// Block until every submitted job completes; returns the records
    /// accumulated since the last drain (excluding ticket-waited jobs).
    fn drain(&mut self) -> Result<StreamStats, ExecError>;

    /// Surrender the backend counters (steals, events, extensions)
    /// accumulated since the last call. Backends with nothing to report
    /// may keep the default empty implementation.
    fn take_extras(&mut self) -> ExecExtras {
        ExecExtras::default()
    }

    /// The backend's **cumulative** observability state
    /// ([`crate::metrics::ExecProbe`]): counters since session start
    /// plus the mergeable sojourn/queueing sketches. Unlike
    /// [`take_extras`](Executor::take_extras) this does *not* drain —
    /// probing is idempotent, so the cluster's node agents can snapshot
    /// on every logical trigger without perturbing anything.
    ///
    /// The default returns `None`: the backend either does not support
    /// metrics or they were not enabled
    /// ([`SessionBuilder::metrics`]).
    fn metrics_probe(&mut self) -> Option<crate::metrics::ExecProbe> {
        None
    }

    /// Drain the execution trace spans accumulated since the last call
    /// (session-clock timestamps). Only populated by backends that
    /// record traces and only when
    /// [`MetricsConfig::trace`](crate::metrics::MetricsConfig::trace)
    /// is enabled; the default returns nothing. The cluster pulls these
    /// per node to assemble the unified multi-node chrome trace.
    fn take_trace_spans(&mut self) -> Vec<crate::metrics::TraceSpan> {
        Vec::new()
    }

    /// Submit every job of `jobs`, drain, and assemble the
    /// [`ExecReport`]. The backend-neutral equivalent of the old
    /// `Simulator::run_stream`.
    ///
    /// On a mid-list rejection the error is returned immediately and
    /// jobs accepted *earlier in the same call* remain in the session
    /// (there is no rollback verb); call [`drain`](Executor::drain) to
    /// execute-and-collect or discard them before reusing the
    /// executor, or a later `run_stream`'s report will include them.
    fn run_stream(&mut self, jobs: Vec<JobSpec<Self::Graph>>) -> Result<ExecReport, ExecError> {
        for spec in jobs {
            self.submit(spec)?;
        }
        let jobs = self.drain()?;
        Ok(ExecReport::new(self.backend(), jobs, self.take_extras()))
    }

    /// Execute one graph as a job arriving at time zero. The
    /// backend-neutral equivalent of the old `Simulator::run` /
    /// `Runtime::run` one-shots.
    fn run_dag(&mut self, graph: Self::Graph) -> Result<ExecReport, ExecError> {
        self.run_stream(vec![JobSpec::new(graph)])
    }
}

/// The façade bookkeeping a single-node backend embeds, so every
/// backend keeps the [`Executor`] promises the same way: the session
/// tag stamped into tickets, the admission bound, the ticket ledger
/// (job id → the backend's per-job state `R`), the extras banked for
/// [`Executor::take_extras`] and — when [`SessionBuilder::metrics`] is
/// set — the cumulative [`ExecProbe`](crate::metrics::ExecProbe).
///
/// The bound counts ledger entries (jobs neither waited nor drained),
/// never how fast the backend retires work.
pub struct Session<R> {
    tag: u64,
    limit: Option<usize>,
    /// By job id, so a full retire yields job-id order.
    ledger: BTreeMap<u64, R>,
    /// Backend counters banked for [`Executor::take_extras`].
    pub extras: ExecExtras,
    /// The cumulative probe, for the backend's own counters; `None`
    /// while metrics are off.
    pub probe: Option<crate::metrics::ExecProbe>,
    /// Each PTT table at the previous [`Session::bank_residual`], by
    /// task type.
    last_ptt: Vec<crate::PttSnapshot>,
}

impl<R> Default for Session<R> {
    /// An unbounded session without metrics.
    fn default() -> Self {
        Session {
            tag: session_tag(),
            limit: None,
            ledger: BTreeMap::new(),
            extras: ExecExtras::default(),
            probe: None,
            last_ptt: Vec::new(),
        }
    }
}

impl<R> Session<R> {
    /// A session with `builder`'s admission bound and metrics switch.
    pub fn new(builder: &SessionBuilder) -> Self {
        Session {
            limit: builder.max_outstanding,
            probe: builder.metrics.map(|_| Default::default()),
            ..Session::default()
        }
    }

    /// Admission control for a batch of `n` jobs; records nothing.
    /// An empty batch, or one larger than the bound, is
    /// [`ExecError::Rejected`]; a batch that fits the bound but not
    /// beside the outstanding jobs is [`ExecError::Overloaded`].
    pub fn admit(&self, n: usize) -> Result<(), ExecError> {
        if n == 0 {
            return Err(ExecError::Rejected("empty batch".into()));
        }
        let Some(limit) = self.limit else {
            return Ok(());
        };
        if n > limit {
            return Err(ExecError::Rejected(format!(
                "a batch of {n} jobs exceeds the admission bound of {limit}"
            )));
        }
        let outstanding = self.ledger.len();
        if outstanding + n > limit {
            return Err(ExecError::Overloaded { outstanding, limit });
        }
        Ok(())
    }

    /// Enter admitted job `id` into the ledger with its backend state
    /// and return its ticket.
    pub fn issue(&mut self, id: JobId, state: R) -> Ticket {
        self.ledger.insert(id.0, state);
        if let Some(p) = &mut self.probe {
            p.jobs_admitted += 1;
        }
        Ticket::new(self.tag, id)
    }

    /// The state of the ticket's job; `None` for a ticket of another
    /// session or a job no longer outstanding.
    pub fn get(&self, ticket: &Ticket) -> Option<&R> {
        let mine = ticket.session() == self.tag;
        mine.then(|| self.ledger.get(&ticket.job().0)).flatten()
    }

    /// The state of outstanding job `id`.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut R> {
        self.ledger.get_mut(&id.0)
    }

    /// Take the ticket's job out of the ledger. A ticket of another
    /// session, or of a job no longer outstanding, is
    /// [`ExecError::UnknownTicket`].
    pub fn redeem(&mut self, ticket: Ticket) -> Result<R, ExecError> {
        let (id, mine) = (ticket.job(), ticket.session() == self.tag);
        let state = mine.then(|| self.ledger.remove(&id.0)).flatten();
        state.ok_or(ExecError::UnknownTicket(id))
    }

    /// Drop every outstanding job whose state fails `keep`; their
    /// tickets redeem as [`ExecError::UnknownTicket`] from now on.
    pub fn retain(&mut self, mut keep: impl FnMut(&R) -> bool) {
        self.ledger.retain(|_, state| keep(state));
    }

    /// Take every outstanding job out of the ledger, in job-id order.
    pub fn retire_all(&mut self) -> impl Iterator<Item = R> {
        std::mem::take(&mut self.ledger).into_values()
    }

    /// Count one completed job into the probe.
    pub fn complete(&mut self, job: &JobStats) {
        if let Some(p) = &mut self.probe {
            p.jobs_completed += 1;
            p.tasks_completed += job.tasks as u64;
            p.sojourn.record(job.sojourn());
            p.queueing.record(job.queueing());
        }
    }

    /// Set the probe's PTT residual: how far `sched`'s tables moved
    /// since the previous call.
    pub fn bank_residual(&mut self, sched: &Scheduler) {
        if let Some(p) = &mut self.probe {
            p.ptt_residual = sched.ptts().residual(&mut self.last_ptt);
        }
    }

    /// A copy of the probe with `queue_depth` set to the outstanding
    /// jobs — what [`Executor::metrics_probe`] returns.
    pub fn metrics_probe(&self) -> Option<crate::metrics::ExecProbe> {
        let mut p = self.probe.clone()?;
        p.queue_depth = self.ledger.len() as u64;
        Some(p)
    }
}

/// Fixed overheads of the simulated XiTAO-like runtime, in seconds of
/// simulated time. Defaults are calibrated to the paper's observation
/// that a global PTT search costs "in the order of one microsecond" on
/// the TX2 (§4.1.1).
///
/// Lives here (not in `das-sim`) so [`SessionBuilder`] can own the full
/// configuration surface of every backend; `das-sim` re-exports it
/// under its historical `das_sim::SimParams` path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimParams {
    /// Latency between waking a sleeping core and its first queue poll.
    pub wake_latency: f64,
    /// Cost of a dequeue + place decision + AQ insertion (includes the
    /// PTT search).
    pub dispatch_overhead: f64,
    /// Cost of one successful steal (victim selection + CAS traffic).
    pub steal_overhead: f64,
    /// Absolute measurement jitter (seconds) added to the execution time
    /// the leader *reports* to the PTT — real clocks include cache
    /// state, interrupts and timer granularity. The task's actual
    /// duration is untouched; only the model's training signal is noisy.
    /// §5.3's finding that the PTT weight ratio matters for tiny tiles
    /// (whose true time is comparable to the jitter) but not for large
    /// ones depends on this. Zero (the default) keeps decision-logic
    /// tests exact; the Fig. 8 harness uses ~30 µs.
    pub obs_noise: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            wake_latency: 0.5e-6,
            dispatch_overhead: 1.0e-6,
            steal_overhead: 2.0e-6,
            obs_noise: 0.0,
        }
    }
}

/// The one typed configuration surface for an execution session.
///
/// Every backend setting lives here once; each backend constructs
/// itself from the same value (`Simulator::from_session`,
/// `Runtime::from_session`, `das_sim::SimConfig` wraps one beside its
/// cost model), so a harness configures *the session*, not the
/// backend:
///
/// ```
/// use das_core::exec::SessionBuilder;
/// use das_core::Policy;
/// use das_topology::Topology;
/// use std::sync::Arc;
///
/// let session = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
///     .seed(42)
///     .sampled_search(true);
/// let sched = session.scheduler(); // fully configured decision layer
/// assert_eq!(sched.policy(), Policy::DamC);
/// ```
///
/// The worker count of the threaded runtime is not a separate knob: it
/// is the core count of [`SessionBuilder::topo`] (one worker per
/// modelled core), keeping the two backends shaped identically.
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    /// Platform shape, shared by the scheduler and the backend.
    pub topo: Arc<Topology>,
    /// Scheduling policy under evaluation.
    pub policy: Policy,
    /// PTT weighted-update ratio (Fig. 8 sweep); the paper's 1:4 by
    /// default.
    pub ratio: WeightRatio,
    /// Seed for work-stealing RNGs; equal seeds give bit-identical
    /// simulator runs.
    pub seed: u64,
    /// Use the representative-row sampled global search instead of the
    /// exhaustive one (see `Ptt::global_search_sampled`).
    pub sampled_search: bool,
    /// Every `n`-th global placement explores round-robin instead of
    /// trusting the model; `0` disables (the paper's behaviour).
    pub explore_every: u64,
    /// Ablation: permit stealing of high-priority tasks (the paper
    /// forbids it).
    pub allow_high_priority_steal: bool,
    /// Simulated-runtime overheads (`das-sim` only).
    pub sim_params: SimParams,
    /// Admission bound: the most jobs a backend (or, on the cluster
    /// tier, each node) may hold un-retired before `submit` rejects
    /// with [`ExecError::Overloaded`]. `None` (the default) keeps the
    /// historical unbounded behaviour.
    pub max_outstanding: Option<usize>,
    /// Seeded fault schedule for the cluster tier
    /// ([`crate::fault::FaultSchedule`]): which nodes die, drop frames
    /// or run slow, at which logical points. Single-node backends
    /// ignore it. `None` (the default) injects nothing and keeps every
    /// execution path bit-identical to a fault-free session.
    pub fault_schedule: Option<crate::fault::FaultSchedule>,
    /// Opt-in observability plane
    /// ([`crate::metrics::MetricsConfig`]): backends accumulate
    /// mergeable percentile sketches and counters, cluster node agents
    /// stream periodic [`crate::metrics::NodeSnapshot`]s, and the
    /// dispatcher merges them into a
    /// [`crate::metrics::MetricsReport`]. `None` (the default) records
    /// nothing — the disabled path stays free (`das_benchmark`'s
    /// `metrics.on_tax_pct` prices the enabled one).
    pub metrics: Option<crate::metrics::MetricsConfig>,
}

impl SessionBuilder {
    /// A session over `topo` with `policy` and defaults everywhere
    /// else (paper ratio, exhaustive search, no exploration, default
    /// overheads).
    pub fn new(topo: Arc<Topology>, policy: Policy) -> Self {
        SessionBuilder {
            topo,
            policy,
            ratio: WeightRatio::PAPER,
            seed: 0x5eed,
            sampled_search: false,
            explore_every: 0,
            allow_high_priority_steal: false,
            sim_params: SimParams::default(),
            max_outstanding: None,
            fault_schedule: None,
            metrics: None,
        }
    }

    /// Set the PTT weighted-update ratio.
    pub fn ratio(mut self, ratio: WeightRatio) -> Self {
        self.ratio = ratio;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle the sampled global search.
    pub fn sampled_search(mut self, on: bool) -> Self {
        self.sampled_search = on;
        self
    }

    /// Explore round-robin every `n`-th global placement (`0` off).
    pub fn explore_every(mut self, n: u64) -> Self {
        self.explore_every = n;
        self
    }

    /// Ablation: allow stealing of high-priority tasks.
    pub fn allow_high_priority_steal(mut self, allow: bool) -> Self {
        self.allow_high_priority_steal = allow;
        self
    }

    /// Set the simulated-runtime overheads.
    pub fn sim_params(mut self, params: SimParams) -> Self {
        self.sim_params = params;
        self
    }

    /// Bound the un-retired jobs a backend (per node, on the cluster
    /// tier) will hold before rejecting with
    /// [`ExecError::Overloaded`].
    pub fn max_outstanding(mut self, limit: usize) -> Self {
        self.max_outstanding = Some(limit);
        self
    }

    /// Attach a seeded fault schedule (see
    /// [`crate::fault::FaultSchedule`]). Consumed by the cluster tier
    /// when it spawns node agents; single-node backends ignore it.
    pub fn fault_schedule(mut self, faults: crate::fault::FaultSchedule) -> Self {
        self.fault_schedule = Some(faults);
        self
    }

    /// Enable the observability plane with `cfg`
    /// ([`SessionBuilder::metrics`] stays `None` — i.e. free — unless
    /// this is called).
    pub fn metrics(mut self, cfg: crate::metrics::MetricsConfig) -> Self {
        self.metrics = Some(cfg);
        self
    }

    /// Build the fully configured decision layer this session
    /// describes. Both backends construct their scheduler through this
    /// method, so a knob set here is in force identically in
    /// simulation and on hardware.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::with_ratio(Arc::clone(&self.topo), self.policy, self.ratio)
            .with_sampled_search(self.sampled_search)
            .with_periodic_exploration(self.explore_every)
            .allow_high_priority_steal(self.allow_high_priority_steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobClass;

    /// A trivial in-process executor: "executes" each submitted job
    /// instantly at a fake clock, one time unit per job. Exists to pin
    /// the contract of the provided methods and the
    /// wait-consumes-drain-record rule.
    struct InstantExec {
        session: Session<JobStats>,
        now: f64,
        next: u64,
    }

    impl InstantExec {
        fn new() -> Self {
            InstantExec {
                session: Session::default(),
                now: 0.0,
                next: 0,
            }
        }
    }

    impl Executor for InstantExec {
        type Graph = usize; // "graph" = task count

        fn backend(&self) -> &'static str {
            "instant"
        }

        fn submit(&mut self, spec: JobSpec<usize>) -> Result<Ticket, ExecError> {
            if spec.graph == 0 {
                return Err(ExecError::Rejected("empty graph".into()));
            }
            let id = JobId(self.next);
            self.next += 1;
            self.now += 1.0;
            *self.session.extras.steals.get_or_insert(0) += 1;
            let stats = JobStats {
                id,
                class: spec.class,
                arrival: spec.arrival,
                started: self.now - 0.5,
                completed: self.now,
                tasks: spec.graph,
                deadline: spec.deadline,
            };
            Ok(self.session.issue(id, stats))
        }

        fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
            self.session.redeem(ticket)
        }

        fn drain(&mut self) -> Result<StreamStats, ExecError> {
            Ok(StreamStats::from_jobs(self.session.retire_all().collect()))
        }

        fn take_extras(&mut self) -> ExecExtras {
            let mut e = std::mem::take(&mut self.session.extras);
            e.set("fake", 1.0);
            e
        }
    }

    #[test]
    fn run_stream_composes_the_verbs() {
        let mut ex = InstantExec::new();
        let jobs = vec![
            JobSpec::new(3usize),
            JobSpec::new(5).at(0.5).class(JobClass(2)),
        ];
        let report = ex.run_stream(jobs).unwrap();
        assert_eq!(report.backend, "instant");
        assert_eq!(report.jobs.jobs.len(), 2);
        assert_eq!(report.tasks(), 8);
        assert_eq!(report.steals(), Some(2));
        assert_eq!(report.events(), None);
        assert_eq!(report.extras.get("fake"), Some(1.0));
        assert!(report.makespan() > 0.0);
        assert!(report.sojourn_percentile(0.5).unwrap() > 0.0);
        // Percentile helpers delegate to the per-job records.
        assert_eq!(
            report.sojourn_percentile(1.0),
            report.jobs.sojourn_percentile(1.0)
        );
    }

    #[test]
    fn run_dag_is_a_one_job_stream() {
        let mut ex = InstantExec::new();
        let report = ex.run_dag(7).unwrap();
        assert_eq!(report.jobs.jobs.len(), 1);
        assert_eq!(report.tasks(), 7);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn wait_consumes_the_drain_record() {
        let mut ex = InstantExec::new();
        let t0 = ex.submit(JobSpec::new(1)).unwrap();
        let t1 = ex.submit(JobSpec::new(2)).unwrap();
        let (id0, session) = (t0.job(), t0.session());
        let s0 = ex.wait(t0).unwrap();
        assert_eq!(s0.id, id0);
        // Only the un-waited job remains for drain.
        let rest = ex.drain().unwrap();
        assert_eq!(rest.jobs.len(), 1);
        assert_eq!(rest.jobs[0].id, t1.job());
        // A consumed ticket id is unknown afterwards.
        let stale = Ticket::new(session, id0);
        assert_eq!(ex.wait(stale), Err(ExecError::UnknownTicket(id0)));
        // And a coinciding id from a *different* executor is rejected,
        // not silently redeemed.
        let mut other = InstantExec::new();
        let foreign = other.submit(JobSpec::new(1)).unwrap();
        assert_eq!(ex.wait(foreign), Err(ExecError::UnknownTicket(JobId(0))));
    }

    #[test]
    fn rejected_submissions_surface_as_errors() {
        let mut ex = InstantExec::new();
        assert!(matches!(
            ex.submit(JobSpec::new(0)),
            Err(ExecError::Rejected(_))
        ));
        // And run_stream propagates them.
        assert!(ex.run_stream(vec![JobSpec::new(0)]).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ExecError::Rejected("empty".into());
        assert!(e.to_string().contains("rejected"));
        let e = ExecError::UnknownTicket(JobId(9));
        assert!(e.to_string().contains("job9"));
        assert!(ExecError::Failed("budget".into())
            .to_string()
            .contains("budget"));
        let e = ExecError::Overloaded {
            outstanding: 64,
            limit: 64,
        };
        assert!(e.to_string().contains("64"), "{e}");
        assert!(e.to_string().contains("overloaded"), "{e}");
        let e = ExecError::NodeFailed { node: 2 };
        assert!(e.to_string().contains("node 2"), "{e}");
        let e = ExecError::Timeout { waited_ms: 250 };
        assert!(e.to_string().contains("250ms"), "{e}");
        assert!(e.to_string().contains("timed out"), "{e}");
    }

    #[test]
    fn default_submit_many_matches_a_submit_loop() {
        let mut batch = InstantExec::new();
        let tickets = batch
            .submit_many(vec![JobSpec::new(3usize), JobSpec::new(5), JobSpec::new(2)])
            .expect("batch accepted");
        assert_eq!(tickets.len(), 3);
        let batch_report = batch.drain().unwrap();

        let mut looped = InstantExec::new();
        for spec in [JobSpec::new(3usize), JobSpec::new(5), JobSpec::new(2)] {
            looped.submit(spec).expect("accepted");
        }
        let loop_report = looped.drain().unwrap();
        assert_eq!(batch_report, loop_report);
        // Tickets come back in batch order with dense ids.
        assert_eq!(
            tickets.iter().map(Ticket::job).collect::<Vec<_>>(),
            vec![JobId(0), JobId(1), JobId(2)]
        );
    }

    #[test]
    fn empty_batch_is_rejected_at_the_facade() {
        let mut ex = InstantExec::new();
        assert!(matches!(
            ex.submit_many(Vec::new()),
            Err(ExecError::Rejected(_))
        ));
        // Nothing was admitted.
        assert!(ex.drain().unwrap().jobs.is_empty());
    }

    #[test]
    fn default_submit_many_admits_the_prefix_before_a_rejection() {
        let mut ex = InstantExec::new();
        let err = ex
            .submit_many(vec![JobSpec::new(3usize), JobSpec::new(0), JobSpec::new(2)])
            .unwrap_err();
        assert!(matches!(err, ExecError::Rejected(_)));
        // The loop default admitted job 0; the invalid job and its
        // successors were not admitted.
        let rest = ex.drain().unwrap();
        assert_eq!(rest.jobs.len(), 1);
        assert_eq!(rest.jobs[0].tasks, 3);
    }

    #[test]
    fn extras_typed_and_open_values() {
        let mut e = ExecExtras::default();
        assert!(e.is_empty());
        e.steals = Some(4);
        e.bump("failed_steals", 2.0);
        e.bump("failed_steals", 3.0);
        assert_eq!(e.get("failed_steals"), Some(5.0));
        assert!(!e.is_empty());
        let pairs: Vec<_> = e.values().collect();
        assert_eq!(pairs, vec![("failed_steals", 5.0)]);
    }

    #[test]
    fn extras_absorb_sums_and_preserves_absence() {
        let mut a = ExecExtras {
            steals: Some(3),
            ..ExecExtras::default()
        };
        a.bump("failed_steals", 1.0);
        let mut b = ExecExtras {
            steals: Some(4),
            ..ExecExtras::default()
        };
        b.bump("failed_steals", 2.0);
        b.bump("node1.jobs", 5.0);
        a.absorb(b);
        assert_eq!(a.steals, Some(7));
        assert_eq!(a.events, None, "absent on both sides stays absent");
        assert_eq!(a.get("failed_steals"), Some(3.0));
        assert_eq!(a.get("node1.jobs"), Some(5.0));
        // Absorbing into a counter only one side has starts from zero.
        let c = ExecExtras {
            events: Some(10),
            ..ExecExtras::default()
        };
        a.absorb(c);
        assert_eq!(a.events, Some(10));
        assert_eq!(a.steals, Some(7));
    }

    #[test]
    fn session_builder_chain_and_scheduler() {
        let topo = Arc::new(Topology::tx2());
        let s = SessionBuilder::new(Arc::clone(&topo), Policy::DamP)
            .seed(9)
            .ratio(WeightRatio::new(2, 5))
            .sampled_search(true)
            .explore_every(8)
            .allow_high_priority_steal(true)
            .sim_params(SimParams {
                wake_latency: 1e-6,
                ..SimParams::default()
            })
            .max_outstanding(128)
            .fault_schedule(crate::fault::FaultSchedule::new(9).kill(1, 50))
            .metrics(
                crate::metrics::MetricsConfig::default()
                    .every(16)
                    .with_trace(),
            );
        assert_eq!(s.seed, 9);
        assert_eq!(s.ratio, WeightRatio::new(2, 5));
        assert_eq!(s.sim_params.wake_latency, 1e-6);
        assert_eq!(s.max_outstanding, Some(128));
        assert_eq!(
            s.fault_schedule,
            Some(crate::fault::FaultSchedule::new(9).kill(1, 50))
        );
        assert_eq!(
            s.metrics,
            Some(crate::metrics::MetricsConfig {
                snapshot_every: 16,
                trace: true
            })
        );
        assert!(
            SessionBuilder::new(Arc::clone(&topo), Policy::DamP)
                .metrics
                .is_none(),
            "metrics stay off (free) unless opted in"
        );
        let sched = s.scheduler();
        assert_eq!(sched.policy(), Policy::DamP);
        // The steal ablation is observable through the scheduler.
        use crate::{Priority, TaskMeta, TaskTypeId};
        assert!(sched.stealable(&TaskMeta::new(TaskTypeId(0), Priority::High)));
    }

    #[test]
    fn ticket_display_names_the_job() {
        let t = Ticket::new(9, JobId(3));
        assert_eq!(t.to_string(), "ticket(job3)");
        assert_eq!(t.job(), JobId(3));
        assert_eq!(t.session(), 9);
        // Fresh session tags never repeat.
        assert_ne!(session_tag(), session_tag());
    }
}
