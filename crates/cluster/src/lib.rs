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

mod route;
mod wire;

pub use route::RoutePolicy;

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use das_core::exec::{session_tag, ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use das_core::fault::{FaultKind, FaultPlane};
use das_core::jobs::{JobId, JobSpec, JobStats, StreamStats};
use das_core::metrics::{ExecProbe, MetricKind, MetricsConfig, MetricsReport, NodeSnapshot};
use das_dag::Dag;
use das_msg::{Communicator, Endpoint, Payload};
use das_runtime::{Runtime, TaskGraph};
use das_sim::{ClusterTrace, Simulator};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wire::{Ctrl, DrainBody, Drained, Reply, DISPATCHER, NODE, T_ACK, T_CTRL, T_LOAD, T_METRICS};

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

/// Builds a [`Cluster`]: per-node sessions, routing policy, route seed,
/// control-RPC deadline.
///
/// [`ClusterBuilder::new`] derives node `i`'s session from the base by
/// offsetting the seed by `i` — node 0 keeps the base seed, which is
/// what makes a 1-node cluster bit-identical to the bare backend built
/// from the same session. [`ClusterBuilder::from_sessions`] accepts
/// fully heterogeneous nodes (different topologies, policies, seeds).
/// The base (first) session's [`das_core::FaultSchedule`] — if any —
/// becomes the cluster's fault plane.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    sessions: Vec<SessionBuilder>,
    policy: RoutePolicy,
    route_seed: u64,
    rpc_base: Duration,
}

/// Default first-wait window of a control RPC; doubles each attempt.
const DEFAULT_RPC_BASE: Duration = Duration::from_millis(500);
/// Backoff attempts per control RPC: with the 500ms default base the
/// total budget is 31.5s — generous enough that a healthy-but-busy
/// runtime node never spuriously times out, small enough that a wedged
/// one is a test failure, not a CI hang.
const RPC_ATTEMPTS: u32 = 6;

impl ClusterBuilder {
    /// `nodes` homogeneous nodes derived from `base` (node `i` runs
    /// with seed `base.seed + i`, everything else shared).
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(base: SessionBuilder, nodes: usize) -> Self {
        let sessions = (0..nodes)
            .map(|i| {
                let mut s = base.clone();
                s.seed = base.seed.wrapping_add(i as u64);
                s
            })
            .collect();
        Self::from_sessions(sessions)
    }

    /// Heterogeneous nodes, one per session.
    ///
    /// # Panics
    /// Panics if `sessions` is empty.
    pub fn from_sessions(sessions: Vec<SessionBuilder>) -> Self {
        assert!(!sessions.is_empty(), "a cluster needs at least one node");
        let route_seed = sessions[0].seed;
        ClusterBuilder {
            sessions,
            policy: RoutePolicy::PowerOfTwo,
            route_seed,
            rpc_base: DEFAULT_RPC_BASE,
        }
    }

    /// Set the routing policy (default: power of two choices).
    pub fn route(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seed the routing RNG independently of the node sessions
    /// (default: the first session's seed).
    pub fn route_seed(mut self, seed: u64) -> Self {
        self.route_seed = seed;
        self
    }

    /// First-wait window of every control RPC (default 500ms). The
    /// window doubles on each of the six attempts, so the total
    /// deadline is `base × 63`.
    pub fn rpc_deadline(mut self, base: Duration) -> Self {
        self.rpc_base = base;
        self
    }

    /// The per-node sessions this builder will construct from.
    pub fn sessions(&self) -> &[SessionBuilder] {
        &self.sessions
    }

    /// A cluster of `das-sim` nodes (`Simulator::from_session` each).
    pub fn build_sim(self) -> Cluster<Dag> {
        self.build_with(|_, session| Simulator::from_session(session))
    }

    /// A cluster of `das-runtime` nodes (`Runtime::from_session` each);
    /// worker threads per node are the node topology's core count.
    pub fn build_runtime(self) -> Cluster<TaskGraph> {
        self.build_with(|_, session| Runtime::from_session(session))
    }

    /// A cluster over any executor backend: `factory(i, &session)`
    /// builds node `i`. All nodes must share one graph type — mixing
    /// backends with different graph representations cannot present a
    /// single `Executor<Graph = G>` front — and it must be `Clone`: the
    /// dispatcher keeps a copy of every in-flight spec to recover from
    /// node deaths. The factory is retained so [`Cluster::add_node`]
    /// can spawn later members.
    pub fn build_with<E, F>(self, mut factory: F) -> Cluster<E::Graph>
    where
        E: Executor + Send + 'static,
        E::Graph: Clone + Send + 'static,
        F: FnMut(usize, &SessionBuilder) -> E + Send + 'static,
    {
        let faults = self.sessions[0].fault_schedule.clone().unwrap_or_default();
        let mut spawner: Spawner<E::Graph> = Box::new(move |i, session| {
            let exec = factory(i, session);
            spawn_node(i, exec, faults.plane_for(i), session)
        });
        let nodes = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, session)| spawner(i, session))
            .collect();
        Cluster {
            nodes,
            spawner,
            policy: self.policy,
            rng: SmallRng::seed_from_u64(self.route_seed),
            rr: 0,
            route: HashMap::new(),
            lost: HashMap::new(),
            banked_jobs: Vec::new(),
            banked_extras: ExecExtras::default(),
            next_job: 0,
            exec_session: session_tag(),
            exec_extras: ExecExtras::default(),
            rpc_base: self.rpc_base,
        }
    }
}

/// Spawns node `i` from its session: builds the executor, wires the
/// private link and starts the agent thread. Boxed so [`Cluster`] can
/// keep it for [`Cluster::add_node`] without being generic over the
/// factory.
type Spawner<G> = Box<dyn FnMut(usize, &SessionBuilder) -> Node<G> + Send>;

/// Where a node is in its life. Only `Live` nodes are routed to,
/// refreshed and drained by the cluster-wide verbs; `Leaving` is the
/// window inside [`Cluster::remove_node`] in which the node is already
/// closed to routing but still owes its drain; `Dead` — failed or
/// retired — is final.
#[derive(Clone, Copy, Debug, PartialEq)]
enum NodeState {
    Live,
    Leaving,
    Dead,
}

/// Everything the dispatcher holds about one node: its end of the
/// private link (the graph side channel, the node's last error message
/// — strings stay in-process, only codes cross the payload format —
/// the endpoint, the agent's down flag and join handle) and its view of
/// the node. Slots of dead nodes stay in place so node indices are
/// stable for the lifetime of the cluster.
struct Node<G> {
    tx: Sender<JobSpec<G>>,
    errs: Arc<Mutex<String>>,
    ep: Endpoint,
    down: Arc<AtomicBool>,
    agent: Option<JoinHandle<()>>,
    state: NodeState,
    /// Last load report (outstanding jobs), fed by `T_LOAD` messages —
    /// and by the batch router's own `+1` per assignment, which the
    /// node's next report overwrites; 0 once dead.
    load: f64,
    /// Admission bound (`f64::INFINITY` when unbounded), from the
    /// session's `max_outstanding`: the dispatcher sheds at this bound
    /// *before* any wire traffic, and the node executor (built from the
    /// same session) enforces the identical bound behind it.
    limit: f64,
    /// Latest metrics snapshot, fed by `T_METRICS` frames (keep-latest,
    /// like the load) and by summary drains; `None` once dead, and
    /// always unless the session enabled [`SessionBuilder::metrics`].
    snapshot: Option<NodeSnapshot>,
}

impl<G> Node<G> {
    fn is_live(&self) -> bool {
        self.state == NodeState::Live
    }

    /// The routing view: `(load, limit)` while open to routing.
    fn view(&self) -> Option<(f64, f64)> {
        self.is_live().then_some((self.load, self.limit))
    }
}

/// One in-flight cluster job: where it went, the spec copy recovery
/// re-submits, and the two bits that decide its fate if the node dies.
/// `started`: some node-side execution has been triggered for it (a
/// `wait` or `drain` reaching its node starts the node's whole pending
/// batch) — requeue (exactly-once so far) versus retry. `retried`: its
/// single at-most-once re-submission is spent.
struct Routed<G> {
    node: usize,
    local: u64,
    started: bool,
    retried: bool,
    spec: JobSpec<G>,
}

impl<G> Routed<G> {
    /// A fresh acknowledgement: never started, retry unspent.
    fn new(node: usize, local: u64, spec: JobSpec<G>) -> Self {
        Routed {
            node,
            local,
            started: false,
            retried: false,
            spec,
        }
    }
}

/// The sharded scheduling tier: N node-local executors behind one
/// dispatcher that speaks the [`Executor`] contract. See the crate docs
/// for the architecture and failure semantics; build with
/// [`ClusterBuilder`].
pub struct Cluster<G> {
    nodes: Vec<Node<G>>,
    spawner: Spawner<G>,
    policy: RoutePolicy,
    rng: SmallRng,
    rr: usize,
    /// The spec ledger and route table in one: cluster job id → the
    /// node that acknowledged it, for every submitted job not yet
    /// waited or drained.
    route: HashMap<u64, Routed<G>>,
    /// Jobs a node took down with it (retry budget spent, or no
    /// survivor could take them): cluster job id → the node that
    /// failed. Their tickets redeem as [`ExecError::NodeFailed`].
    lost: HashMap<u64, usize>,
    /// Records and extras banked by [`Cluster::remove_node`], folded
    /// into the next [`Executor::drain`].
    banked_jobs: Vec<JobStats>,
    banked_extras: ExecExtras,
    next_job: u64,
    exec_session: u64,
    exec_extras: ExecExtras,
    rpc_base: Duration,
}

impl<G> Cluster<G> {
    /// Number of node slots ever created — live, dead and removed
    /// (indices are stable and never reused).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_live()).count()
    }

    /// Is node `node` live (spawned, not failed, not removed)?
    pub fn is_alive(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(Node::is_live)
    }

    /// The live nodes, ascending.
    fn live(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_live())
            .collect()
    }

    /// The routing policy in force.
    pub fn route_policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The node an outstanding ticket's job was routed to; `None` for
    /// tickets of other executors or jobs already waited/drained.
    pub fn node_of(&self, ticket: &Ticket) -> Option<usize> {
        (ticket.session() == self.exec_session)
            .then(|| self.route.get(&ticket.job().0).map(|r| r.node))
            .flatten()
    }

    /// Grow the fleet: spawn a new node from `session` (with the fault
    /// plane its fresh index selects from the cluster's schedule) and
    /// open it to routing. Returns the new node's index. Session tags
    /// stay monotone — the new executor draws from the same global
    /// counter as every earlier one.
    pub fn add_node(&mut self, session: &SessionBuilder) -> usize {
        let idx = self.nodes.len();
        let node = (self.spawner)(idx, session);
        self.nodes.push(node);
        idx
    }

    /// Cluster ids currently routed to `node` that satisfy `keep`,
    /// ascending — the order every repair re-places in.
    fn routed_to(&self, node: usize, keep: impl Fn(&Routed<G>) -> bool) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .route
            // det-ok: ids are collected into a Vec and sorted before
            // any routing decision is made from them.
            .iter()
            .filter(|(_, r)| r.node == node && keep(r))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Fold every pending load report into the routing view (newest
    /// report per node wins; dead nodes stay pinned at 0).
    fn refresh_loads(&mut self) {
        for node in self.nodes.iter_mut().filter(|n| n.is_live()) {
            if let Some(p) = node.ep.try_recv_latest(NODE, T_LOAD) {
                if let Some(&v) = p.first() {
                    node.load = v;
                }
            }
        }
    }

    /// The cluster-wide observability view: the latest metrics snapshot
    /// of every live node that has pushed one, in node-index order.
    /// Empty unless the node sessions enabled
    /// [`SessionBuilder::metrics`]. Non-blocking — this only folds in
    /// the `T_METRICS` frames already on the links (newest frame per
    /// node wins, exactly like the loads; a misframed frame is skipped
    /// and only costs freshness); snapshots arrive on logical triggers
    /// (every `snapshot_every` admitted jobs, and at every drain).
    pub fn metrics_report(&mut self) -> MetricsReport {
        for node in self.nodes.iter_mut().filter(|n| n.is_live()) {
            if let Some(p) = node.ep.try_recv_latest(NODE, T_METRICS) {
                if let Some(snap) = NodeSnapshot::from_values(&p) {
                    node.snapshot = Some(snap);
                }
            }
        }
        MetricsReport {
            nodes: self
                .nodes
                .iter()
                .filter_map(|n| n.snapshot.clone())
                .collect(),
        }
    }

    /// Publish a finished drain: absorb its merged extras, then write
    /// the facts that are not counters. The cluster size goes in with
    /// set semantics *after* the absorb, so repeated drains between two
    /// `take_extras` calls do not sum it into nonsense; the merged
    /// [`MetricsReport`] totals land as one `metrics.<kind>` value per
    /// [`MetricKind`] — but only once a node has pushed a snapshot, so
    /// the metrics-off extras surface is byte-identical to the
    /// pre-observability one.
    fn publish(&mut self, merged: ExecExtras) {
        self.exec_extras.absorb(merged);
        self.exec_extras.set("nodes", self.live_nodes() as f64);
        let report = self.metrics_report();
        if report.nodes.is_empty() {
            return;
        }
        let totals = report.totals();
        for kind in MetricKind::ALL {
            self.exec_extras.set(
                format!("metrics.{}", kind.name()),
                metric_scalar(kind, &totals),
            );
        }
    }

    /// Wire messages this dispatcher has sent, ever (summed over the
    /// per-node links) — the traffic the batch path amortises. A
    /// [`Executor::submit_many`] batch costs one control message **per
    /// node with a non-empty sub-batch** regardless of batch size, a
    /// `submit` — a one-job batch — exactly one (the contract
    /// `tests/cluster_exec.rs` asserts).
    pub fn wire_messages_sent(&self) -> u64 {
        self.nodes.iter().map(|s| s.ep.sent_count()).sum()
    }

    /// The routing error when no node can take a job. With every node
    /// down that is a plain failure; otherwise the typed overload
    /// error, attributing the pressure to the full node(s): their
    /// reported outstanding counts and bounds, summed. For a full
    /// single pick these are that node's numbers; when every node is
    /// full (`LoadShed`) it is the cluster-wide pressure. Only live
    /// full nodes enter the sums, so the casts are finite.
    fn no_pick_error(&self) -> ExecError {
        if self.live_nodes() == 0 {
            return ExecError::Failed("every node is down".into());
        }
        let (outstanding, limit) = self
            .nodes
            .iter()
            .filter_map(Node::view)
            .filter(|(load, limit)| load >= limit)
            .fold((0, 0), |(o, l), (load, limit)| {
                (o + load as usize, l + limit as usize)
            });
        ExecError::Overloaded { outstanding, limit }
    }

    /// The node's side-channel error string (set before every error
    /// acknowledgement).
    fn node_error(&self, node: usize) -> String {
        let msg = self.nodes[node].errs.lock().clone();
        if msg.is_empty() {
            format!("node {node} failed")
        } else {
            format!("node {node}: {msg}")
        }
    }

    fn send(&self, node: usize, ctrl: Ctrl) {
        self.nodes[node].ep.send(NODE, T_CTRL, ctrl.encode());
    }

    /// Receive `node`'s acknowledgement of the last command under the
    /// bounded-backoff deadline. An error reply comes back as `Err`, and
    /// a node death is [`ExecError::NodeFailed`] however it was seen —
    /// as the agent's last frame, or as its down flag after a missed
    /// deadline (the frame race lost). Any other missing frame is a
    /// typed [`ExecError::Timeout`] — never a hang.
    fn reply(&self, node: usize) -> Result<Reply, ExecError> {
        let link = &self.nodes[node];
        match link
            .ep
            .recv_backoff(NODE, T_ACK, self.rpc_base, RPC_ATTEMPTS)
        {
            Ok((p, _)) => match Reply::decode(&p, node, || self.node_error(node))
                .expect("both ends of the link share one codec")
            {
                Reply::Err(e) => Err(e),
                reply => Ok(reply),
            },
            Err(_) if link.down.load(Ordering::Acquire) => Err(ExecError::NodeFailed { node }),
            Err(waited) => Err(ExecError::Timeout {
                waited_ms: waited.as_millis() as u64,
            }),
        }
    }

    /// Feed `group` down `node`'s side channel, then ring ONE doorbell
    /// for all of it. [`ExecError::NodeFailed`] when the agent's
    /// receiver is gone: the thread exited without the dispatcher
    /// noticing yet.
    fn ring(&self, node: usize, group: Vec<JobSpec<G>>) -> Result<(), ExecError> {
        let k = group.len();
        for spec in group {
            let sent = self.nodes[node].tx.send(spec);
            sent.map_err(|_| ExecError::NodeFailed { node })?;
        }
        self.send(node, Ctrl::Submit { k });
        Ok(())
    }

    /// Collect the acknowledgement of a [`Cluster::ring`] that went
    /// through: the node-local ids of the admitted group, in group
    /// order.
    fn admitted(&self, node: usize) -> Result<Vec<u64>, ExecError> {
        match self.reply(node)? {
            Reply::Admitted(locals) => Ok(locals),
            other => unreachable!("node {node} answered a submit with {other:?}"),
        }
    }

    /// A `wait` or `drain` reaching `node` executes its whole pending
    /// batch: everything currently routed there counts as started from
    /// here on (the recovery plane's at-most-once boundary).
    fn mark_started(&mut self, node: usize) {
        // det-ok: order-insensitive flag set; every matching entry gets
        // the same value regardless of visit order.
        for r in self.route.values_mut() {
            if r.node == node {
                r.started = true;
            }
        }
    }

    /// Close `node`'s slot for good: zero its view and join its agent.
    fn bury(&mut self, node: usize) {
        let slot = &mut self.nodes[node];
        slot.state = NodeState::Dead;
        slot.load = 0.0;
        slot.snapshot = None;
        if let Some(agent) = slot.agent.take() {
            let _ = agent.join();
        }
    }

    /// One drain round: ring every target, then consume every reply.
    /// Deaths and errors are only reported — recovery traffic must not
    /// start before the round's last ack is in, or a requeue's ack
    /// would interleave with a pending drain ack on the same link.
    fn drain_round(
        &mut self,
        targets: &[usize],
        summary: bool,
    ) -> Vec<(usize, Result<Drained, ExecError>)> {
        for &node in targets {
            self.mark_started(node);
            self.send(node, Ctrl::Drain { summary });
        }
        let replies = targets
            .iter()
            .map(|&node| match self.reply(node) {
                Ok(Reply::Drained(d)) => (node, Ok(d)),
                Ok(other) => unreachable!("node {node} answered a drain with {other:?}"),
                Err(e) => (node, Err(e)),
            })
            .collect();
        self.refresh_loads();
        replies
    }
}

impl<G: Clone> Cluster<G> {
    /// Retire node `node` gracefully: its pending (never-started) jobs
    /// move onto peers first (`jobs_requeued`), it then drains —
    /// records banked for the next [`Executor::drain`], minus the
    /// speculative executions of the moved jobs — and shuts down. The
    /// slot index is never reused. Rejects removing a dead node or the
    /// last live one.
    pub fn remove_node(&mut self, node: usize) -> Result<(), ExecError> {
        if !self.is_alive(node) {
            return Err(ExecError::Rejected(format!("node {node} is not live")));
        }
        if self.live_nodes() == 1 {
            return Err(ExecError::Rejected(
                "cannot remove the last live node".into(),
            ));
        }
        // Close the node to routing before moving its queue, so the
        // requeues below cannot land back on it.
        self.nodes[node].state = NodeState::Leaving;
        // 1. Move the pending queue onto peers. Only never-started jobs
        //    move (a started batch is already executing node-side);
        //    their node-local records are discarded below — the peer's
        //    execution is the one that counts.
        let mut discard: HashSet<u64> = HashSet::new();
        for id in self.routed_to(node, |r| !r.started) {
            let job = self.route.remove(&id).expect("pending id is routed");
            let moved = match self.place_anywhere(&job.spec) {
                Ok((peer, local)) => {
                    discard.insert(job.local);
                    self.exec_extras.bump("jobs_requeued", 1.0);
                    Routed {
                        node: peer,
                        local,
                        ..job
                    }
                }
                // No peer can take it: leave it on the leaving node,
                // whose drain below executes it locally.
                Err(_) => job,
            };
            self.route.insert(id, moved);
        }
        // 2. Drain the leaving node and bank its records (minus the
        //    moved jobs' speculative executions) for the next cluster
        //    drain.
        let (_, reply) = self
            .drain_round(&[node], false)
            .pop()
            .expect("one target, one reply");
        match reply {
            Ok(d) => fold_records(
                &mut self.route,
                node,
                d,
                &discard,
                &mut self.banked_jobs,
                &mut self.banked_extras,
            ),
            // Died while leaving: the failure path retires it instead.
            Err(ExecError::NodeFailed { .. }) => {
                self.handle_node_down(node);
                return Ok(());
            }
            // Silent, not dead: it stays a member.
            Err(e @ ExecError::Timeout { .. }) => {
                self.nodes[node].state = NodeState::Live;
                return Err(e);
            }
            // A failed drain loses the node's batch, exactly like a
            // failed drain on the bare backend (its tickets redeem as
            // `UnknownTicket` from here on); still shut it down.
            Err(_) => {
                let orphaned = self.routed_to(node, |_| true);
                self.exec_extras
                    .bump("jobs_orphaned", orphaned.len() as f64);
                for id in orphaned {
                    self.route.remove(&id);
                }
            }
        }
        // 3. Shut the agent down and join it.
        self.send(node, Ctrl::Shutdown);
        self.bury(node);
        self.exec_extras.set(format!("node{node}.removed"), 1.0);
        Ok(())
    }

    /// Drain every live node for a *summary* — counts, span, extras and
    /// the node's post-drain snapshot — without shipping one wire slot
    /// per completed job. The cluster-wide percentiles come from the
    /// merged sketches instead of per-job records, so the reply size is
    /// independent of how many jobs completed. The stream's tickets are
    /// retired, node deaths repaired and node errors surfaced exactly
    /// as by [`Executor::drain`] — it is the same drain, asking each
    /// node for a different reply body.
    ///
    /// Requires metrics-enabled node sessions; a node that never
    /// enabled metrics answers with an all-zero sketch snapshot, which
    /// merges harmlessly.
    pub fn drain_summary(&mut self) -> Result<DrainSummary, ExecError> {
        // The running header, starting from the banked records as if
        // they were one more epoch. Its stream endpoints fold across
        // every node reply: span = last completion − first arrival,
        // exactly what `StreamStats::from_jobs` reports over the
        // merged records of a full drain.
        let banked = StreamStats::from_jobs(std::mem::take(&mut self.banked_jobs));
        let mut all = Drained::new(banked, ExecExtras::default(), None);
        let mut merged = std::mem::take(&mut self.banked_extras);
        // Snapshots are cumulative: a node drained twice (a second
        // round after a death) counts once, with its latest.
        let mut snapshots = BTreeMap::new();
        self.drain_live(true, |this, node, d| {
            all.jobs += d.jobs;
            all.tasks += d.tasks;
            all.t0 = all.t0.min(d.t0);
            all.t1 = all.t1.max(d.t1);
            merged.bump(&format!("node{node}.jobs"), d.jobs as f64);
            absorb_node_extras(node, d.extras, &mut merged);
            let DrainBody::Snapshot(snap) = d.body else {
                unreachable!("node {node} answered a summary drain with records")
            };
            this.nodes[node].snapshot = Some((*snap).clone());
            snapshots.insert(node, *snap);
        })?;
        self.publish(merged);
        Ok(DrainSummary {
            jobs: all.jobs,
            tasks: all.tasks,
            span: if all.jobs == 0 { 0.0 } else { all.t1 - all.t0 },
            report: MetricsReport {
                nodes: snapshots.into_values().collect(),
            },
        })
    }

    /// Pull every live node's accumulated execution trace spans and
    /// assemble the unified multi-node chrome trace (**pid = node,
    /// tid = core**). Draining: each node's span buffer empties. Spans
    /// only accumulate when the node sessions enabled
    /// [`das_core::MetricsConfig::with_trace`]; nodes without spans
    /// contribute empty process groups.
    pub fn collect_trace(&mut self) -> Result<ClusterTrace, ExecError> {
        let mut per_node = Vec::new();
        for node in self.live() {
            let spans = match self.rpc(node, Ctrl::PullTrace)? {
                Reply::Trace(spans) => spans,
                other => unreachable!("node {node} answered a trace pull with {other:?}"),
            };
            // The node's core count is not on the wire; the span
            // extent (executing cores and assembly widths) bounds the
            // rows any renderer needs.
            let cores = spans
                .iter()
                .map(|s| s.core.max(s.leader + s.width.saturating_sub(1)) + 1)
                .max()
                .unwrap_or(0);
            per_node.push((node, cores, spans));
        }
        Ok(ClusterTrace::from_node_spans(&per_node))
    }

    /// One routing decision over the current view.
    fn pick(&mut self) -> Option<usize> {
        route::pick(
            self.policy,
            self.nodes.len(),
            |i| self.nodes[i].view(),
            &mut self.rr,
            &mut self.rng,
        )
    }

    /// One control exchange with `node`. A death it runs into is
    /// repaired ([`Cluster::handle_node_down`]) before the error
    /// returns, so no caller can leave a dead node marked live.
    fn rpc(&mut self, node: usize, ctrl: Ctrl) -> Result<Reply, ExecError> {
        self.send(node, ctrl);
        let reply = self.reply(node);
        self.repaired(node, reply)
    }

    /// Pass on the outcome of an exchange with `node` — after repairing
    /// the cluster if it says the node died.
    fn repaired<T>(&mut self, node: usize, outcome: Result<T, ExecError>) -> Result<T, ExecError> {
        if let Err(ExecError::NodeFailed { .. }) = outcome {
            self.handle_node_down(node);
        }
        outcome
    }

    /// Node `node` is gone: mark it dead, join the agent, attribute the
    /// failure, and repair the route table — never-started jobs requeue
    /// onto survivors, started ones retry at most once, the rest are
    /// recorded as lost. Idempotent per node.
    fn handle_node_down(&mut self, node: usize) {
        if self.nodes[node].state == NodeState::Dead {
            return;
        }
        self.bury(node);
        self.exec_extras.set(format!("node{node}.failed"), 1.0);
        for id in self.routed_to(node, |_| true) {
            let job = self.route.remove(&id).expect("stranded id is routed");
            // A started job whose single retry is spent dies with its
            // second node: at-most-once.
            let placed = if job.started && job.retried {
                None
            } else {
                self.place_anywhere(&job.spec).ok()
            };
            let Some((new_node, local)) = placed else {
                self.lost.insert(id, node);
                self.exec_extras.bump("jobs_lost", 1.0);
                continue;
            };
            let counter = if job.started {
                "retries"
            } else {
                "jobs_requeued"
            };
            self.exec_extras.bump(counter, 1.0);
            self.route.insert(
                id,
                Routed {
                    node: new_node,
                    local,
                    started: false,
                    retried: job.retried || job.started,
                    ..job
                },
            );
        }
    }

    /// Place one spec on whichever live node routing picks, absorbing
    /// node deaths along the way (each death repairs the cluster and
    /// re-picks; terminates because every pass burns a node). Returns
    /// the `(node, local id)` of the admission.
    fn place_anywhere(&mut self, spec: &JobSpec<G>) -> Result<(usize, u64), ExecError> {
        loop {
            self.refresh_loads();
            let Some(node) = self.pick() else {
                return Err(self.no_pick_error());
            };
            let rung = self.ring(node, vec![spec.clone()]);
            let admission = rung.and_then(|()| self.admitted(node));
            match self.repaired(node, admission) {
                Ok(locals) => return Ok((node, locals[0])),
                Err(ExecError::NodeFailed { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The one drain behind [`Executor::drain`] and
    /// [`Cluster::drain_summary`] (see the former for the semantics):
    /// round after round over the live nodes until one passes without a
    /// death, handing each node's epoch to `fold`.
    fn drain_live(
        &mut self,
        summary: bool,
        mut fold: impl FnMut(&mut Self, usize, Drained),
    ) -> Result<(), ExecError> {
        let mut failures: Vec<String> = Vec::new();
        let mut silent: Option<ExecError> = None;
        loop {
            let mut died: Vec<usize> = Vec::new();
            let targets = self.live();
            for (node, reply) in self.drain_round(&targets, summary) {
                match reply {
                    Ok(d) => fold(self, node, d),
                    Err(ExecError::NodeFailed { .. }) => died.push(node),
                    Err(e @ ExecError::Timeout { .. }) => silent = silent.or(Some(e)),
                    Err(_) => failures.push(self.node_error(node)),
                }
            }
            if died.is_empty() {
                break;
            }
            // The requeued jobs land on survivors, which the next round
            // drains.
            for node in died {
                self.handle_node_down(node);
            }
        }
        // Whatever the outcome, the cycle's bookkeeping ends here. After
        // a clean drain the leftover entries belong to jobs an *earlier
        // failed batch* lost (a `wait` that returned `Failed` loses its
        // node's whole pending batch, but the dispatcher only learns
        // about the waited job); after a silent or failed node the
        // drained state is unknowable. Either way their tickets redeem
        // as `UnknownTicket` from here on, exactly as the bare simulator
        // forgets a failed batch. (Jobs the failure plane recorded as
        // lost stay in the lost set and keep redeeming as `NodeFailed`.)
        self.route.clear();
        match silent {
            Some(e) => Err(e),
            None if failures.is_empty() => Ok(()),
            None => Err(ExecError::Failed(failures.join("; "))),
        }
    }
}

/// Remap one node's drained records onto cluster ids, attribute them
/// (and the node's extras) in `merged`, and push them into `jobs`.
/// Records in `discard` (a leaving node's speculative executions of
/// moved jobs) are dropped; records with no route entry count as
/// `jobs_orphaned` (reachable via dropped acks — the node admitted
/// work the dispatcher never ticketed).
fn fold_records<G>(
    route: &mut HashMap<u64, Routed<G>>,
    node: usize,
    drained: Drained,
    discard: &HashSet<u64>,
    jobs: &mut Vec<JobStats>,
    merged: &mut ExecExtras,
) {
    let DrainBody::Records(recs) = drained.body else {
        unreachable!("node {node} answered a records drain with a summary")
    };
    let mut map: HashMap<u64, u64> = route
        // det-ok: an order-insensitive fold into a keyed map; the job
        // records built from it are sorted by from_jobs at the emission
        // point and extras are keyed per node, not per job.
        .iter()
        .filter(|(_, r)| r.node == node)
        .map(|(&cluster, r)| (r.local, cluster))
        .collect();
    let mut kept = 0.0;
    for mut rec in recs {
        if discard.contains(&rec.id.0) {
            continue;
        }
        match map.remove(&rec.id.0) {
            Some(cluster) => {
                route.remove(&cluster);
                rec.id = JobId(cluster);
                jobs.push(rec);
                kept += 1.0;
            }
            None => merged.bump("jobs_orphaned", 1.0),
        }
    }
    merged.bump(&format!("node{node}.jobs"), kept);
    if let Some(s) = drained.extras.steals {
        merged.bump(&format!("node{node}.steals"), s as f64);
    }
    if let Some(ev) = drained.extras.events {
        merged.bump(&format!("node{node}.events"), ev as f64);
    }
    absorb_node_extras(node, drained.extras, merged);
}

/// What [`Cluster::drain_summary`] returns: stream-level counts plus
/// the per-node post-drain snapshots, whose merged sketches carry the
/// cluster-wide percentiles ([`MetricsReport::totals`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DrainSummary {
    /// Completed jobs across the cluster (including records banked by
    /// graceful node removals since the last drain).
    pub jobs: u64,
    /// Tasks those jobs committed.
    pub tasks: u64,
    /// Global stream span: last completion − first arrival across
    /// every node (and banked record), the same quantity
    /// [`das_core::jobs::StreamStats::from_jobs`] reports over the
    /// merged records of a full [`Executor::drain`].
    pub span: f64,
    /// The latest post-drain snapshot of every node that answered,
    /// node-index ascending.
    pub report: MetricsReport,
}

/// Render one [`MetricKind`] of a merged cluster probe as the scalar
/// that lands in the `metrics.<kind>` extras value. The match is
/// wildcard-free: adding a metric kind without deciding its cluster
/// merge fails the build, not a reader of half-populated extras.
pub fn metric_scalar(kind: MetricKind, t: &ExecProbe) -> f64 {
    match kind {
        MetricKind::QueueDepth => t.queue_depth as f64,
        MetricKind::JobsAdmitted => t.jobs_admitted as f64,
        MetricKind::JobsCompleted => t.jobs_completed as f64,
        MetricKind::TasksCompleted => t.tasks_completed as f64,
        MetricKind::Steals => t.steals as f64,
        MetricKind::FailedSteals => t.failed_steals as f64,
        MetricKind::Events => t.events as f64,
        MetricKind::Utilization => t.utilization(),
        MetricKind::PttResidual => t.ptt_residual,
        MetricKind::SojournP50 => t.sojourn.quantile(0.5).unwrap_or(0.0),
        MetricKind::SojournP99 => t.sojourn.quantile(0.99).unwrap_or(0.0),
        MetricKind::QueueingP99 => t.queueing.quantile(0.99).unwrap_or(0.0),
    }
}

/// Absorb one node's drain extras into `merged`, first attributing its
/// snapshot-fault counters (`snapshots_sent` / `snapshots_dropped` /
/// `snapshots_delayed`) under the `node{i}.` prefix, so a fault-gated
/// metrics stream is diagnosable per node, not just in aggregate.
fn absorb_node_extras(node: usize, extras: ExecExtras, merged: &mut ExecExtras) {
    for key in ["snapshots_sent", "snapshots_dropped", "snapshots_delayed"] {
        if let Some(v) = extras.get(key) {
            merged.bump(&format!("node{node}.{key}"), v);
        }
    }
    merged.absorb(extras);
}

impl<G: Clone> Executor for Cluster<G> {
    type Graph = G;

    fn backend(&self) -> &'static str {
        "das-cluster"
    }

    /// A one-job [`Executor::submit_many`]: one routing decision, one
    /// control message, one ticket.
    fn submit(&mut self, spec: JobSpec<G>) -> Result<Ticket, ExecError> {
        let mut tickets = self.submit_many(vec![spec])?;
        Ok(tickets
            .pop()
            .expect("an admitted one-job batch has a ticket"))
    }

    /// Route every job of the batch by policy, then send **one wire
    /// message per node with a non-empty sub-batch** instead of one per
    /// job — the per-message fixed costs (doorbell, ack round-trip)
    /// amortise over the batch — and stamp the acknowledged node-local
    /// ids into the route table, a spec copy beside each for recovery.
    ///
    /// Each job is picked in batch order against a load view updated
    /// *locally* after every assignment — exactly the `+1` the node's
    /// synchronous `T_LOAD` report applies between two submissions
    /// (nothing else moves the count between the two), so a batch
    /// routes bit-identically to the same jobs submitted one by one.
    /// Cluster job ids are dense in batch order across the whole
    /// cluster (rejected jobs consume no id, as on the bare backends).
    ///
    /// On a shed decision mid-batch nothing is admitted (local view
    /// rolled back, error returned). A node *rejecting* its sub-batch
    /// admits nothing on that node (backend batches are atomic on
    /// validation), but the sub-batches of other nodes remain admitted
    /// and surface in the next drain — their tickets are lost with the
    /// error, exactly like a failed batch on the bare backends. A node
    /// *dying* on its doorbell is absorbed: its stranded jobs requeue
    /// first (`jobs_requeued`), then the sub-batch no node ever
    /// acknowledged is placed on survivors — a first placement, not a
    /// requeue; a position no survivor takes fails the batch and
    /// leaves its id unissued.
    fn submit_many(&mut self, specs: Vec<JobSpec<G>>) -> Result<Vec<Ticket>, ExecError> {
        if specs.is_empty() {
            return Err(ExecError::Rejected("empty batch".into()));
        }
        self.refresh_loads();
        // Phase 1: route every job against the locally-updated view.
        let mut assignment: Vec<usize> = Vec::with_capacity(specs.len());
        for _ in &specs {
            let Some(node) = self.pick() else {
                let err = self.no_pick_error();
                for &node in &assignment {
                    self.nodes[node].load -= 1.0;
                }
                return Err(err);
            };
            self.nodes[node].load += 1.0;
            assignment.push(node);
        }
        // Phase 2: per-node sub-batches (batch order within each node),
        // one side-channel transfer per job, ONE control message per
        // node. The originals stay behind as the ledger copies.
        let n = self.nodes.len();
        let mut groups: Vec<Vec<JobSpec<G>>> = vec![Vec::new(); n];
        for (spec, &node) in specs.iter().zip(&assignment) {
            groups[node].push(spec.clone());
        }
        let rung: Vec<(usize, Result<(), ExecError>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(node, group)| (node, self.ring(node, group)))
            .collect();
        // Phase 3: collect one batch ack per touched node (node order;
        // the agents work concurrently regardless). Deaths are only
        // recorded here — every outstanding ack must be consumed before
        // any recovery traffic, or a requeue's ack would interleave
        // with a pending batch ack on the same link.
        let mut locals: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut died: Vec<usize> = Vec::new();
        let mut first_err: Option<ExecError> = None;
        for (node, rung) in rung {
            match rung.and_then(|()| self.admitted(node)) {
                Ok(acked) => locals[node] = acked.into(),
                Err(ExecError::NodeFailed { .. }) => died.push(node),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        // Phase 4: cluster ids, dense in batch order over the jobs a
        // node acknowledged or died holding (a rejected sub-batch
        // consumes no ids). The acknowledged ones enter the route table
        // now, so the repairs below see them like any other job.
        let mut tickets = Vec::with_capacity(specs.len());
        let mut unplaced = Vec::new();
        for (spec, node) in specs.into_iter().zip(assignment) {
            let local = locals[node].pop_front();
            if local.is_none() && !died.contains(&node) {
                continue;
            }
            let id = self.next_job;
            self.next_job += 1;
            tickets.push(Ticket::new(self.exec_session, JobId(id)));
            match local {
                Some(local) => {
                    self.route.insert(id, Routed::new(node, local, spec));
                }
                None => unplaced.push((id, spec)),
            }
        }
        // Phase 5: repair each death (its stranded jobs requeue, ids
        // ascending), then place the jobs whose doorbell it died on.
        for dead in died {
            self.handle_node_down(dead);
        }
        for (id, spec) in unplaced {
            match self.place_anywhere(&spec) {
                Ok((node, local)) => {
                    self.route.insert(id, Routed::new(node, local, spec));
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(tickets), Err)
    }

    /// Redeem a ticket against the node its job was routed to; the
    /// returned record carries the cluster job id and consumes the
    /// job's drain record (node-side and in the route table). A node
    /// death during the wait repairs the cluster and retries the wait
    /// wherever the job landed; a job the failure plane could not save
    /// redeems as [`ExecError::NodeFailed`].
    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        let id = ticket.job();
        if ticket.session() != self.exec_session {
            return Err(ExecError::UnknownTicket(id));
        }
        loop {
            if let Some(node) = self.lost.remove(&id.0) {
                return Err(ExecError::NodeFailed { node });
            }
            let Some(&Routed { node, local, .. }) = self.route.get(&id.0) else {
                return Err(ExecError::UnknownTicket(id));
            };
            self.mark_started(node);
            let err = match self.rpc(node, Ctrl::Wait { local }) {
                Ok(Reply::Job(mut stats)) => {
                    self.route.remove(&id.0);
                    stats.id = id;
                    return Ok(stats);
                }
                Ok(other) => unreachable!("node {node} answered a wait with {other:?}"),
                // Repaired already: the waited job either re-placed
                // (loop waits on its new node) or is now in the lost
                // set (loop returns the typed failure).
                Err(ExecError::NodeFailed { .. }) => continue,
                // Silence says nothing about the job: it stays routed.
                Err(e @ ExecError::Timeout { .. }) => return Err(e),
                // Remap the node-local id in the error onto the cluster
                // id.
                Err(ExecError::UnknownTicket(_)) => ExecError::UnknownTicket(id),
                Err(e) => e,
            };
            self.route.remove(&id.0);
            return Err(err);
        }
    }

    /// Drain every live node and merge the per-node records — each
    /// reply's header cross-checks them — with the ones banked by node
    /// removals. A node death mid-drain requeues its stranded jobs onto
    /// survivors and triggers another round, so the stream still
    /// completes (deaths are repaired only *after* a round's acks are
    /// all consumed). A missing reply within the RPC deadline is a
    /// typed [`ExecError::Timeout`], never a hang — the fix for the
    /// forever-blocking drain of the collective design. On a node
    /// *error* (not death) the whole drain fails and the outstanding
    /// jobs of the failed batch are lost (mirroring the bare
    /// simulator's batch-failure semantics).
    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        let mut jobs = std::mem::take(&mut self.banked_jobs);
        let mut merged = std::mem::take(&mut self.banked_extras);
        let keep_all = HashSet::new();
        self.drain_live(false, |this, node, d| {
            fold_records(&mut this.route, node, d, &keep_all, &mut jobs, &mut merged);
        })?;
        self.publish(merged);
        Ok(StreamStats::from_jobs(jobs))
    }

    fn take_extras(&mut self) -> ExecExtras {
        std::mem::take(&mut self.exec_extras)
    }

    /// The merged cluster probe: the bin-wise sum of every node's
    /// latest snapshot (order-insensitive and exact — the sketches are
    /// integer counts). `None` until any node has pushed a snapshot,
    /// so a metrics-off cluster reports exactly like a metrics-off
    /// backend.
    fn metrics_probe(&mut self) -> Option<ExecProbe> {
        let report = self.metrics_report();
        (!report.nodes.is_empty()).then(|| report.totals())
    }
}

impl<G> Drop for Cluster<G> {
    fn drop(&mut self) {
        for node in self.live() {
            self.send(node, Ctrl::Shutdown);
        }
        for slot in &mut self.nodes {
            if let Some(agent) = slot.agent.take() {
                let _ = agent.join();
            }
        }
    }
}

/// Spawn one node: a private 2-rank link, the spec side channel, and
/// the agent thread. The thread body runs under `catch_unwind`: on a
/// panic (a scheduled kill, or an agent bug) the wrapper records the
/// panic message, publishes the down flag — `Release`, paired with the
/// dispatcher's `Acquire` in `reply` — and sends a
/// [`ExecError::NodeFailed`] reply as its last frame, so a dispatcher
/// blocked on this command's ack observes the death deterministically
/// instead of timing out.
fn spawn_node<E>(i: usize, exec: E, plane: FaultPlane, session: &SessionBuilder) -> Node<E::Graph>
where
    E: Executor + Send + 'static,
    E::Graph: Send + 'static,
{
    let comm = Communicator::new(2);
    let agent_ep = comm.endpoint(NODE);
    let last_frame_ep = agent_ep.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let errs = Arc::new(Mutex::new(String::new()));
    let down = Arc::new(AtomicBool::new(false));
    let errs_agent = Arc::clone(&errs);
    let down_agent = Arc::clone(&down);
    let metrics = session.metrics;
    let agent = std::thread::Builder::new()
        .name(format!("das-cluster-node-{i}"))
        .spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                node_agent(i, exec, agent_ep, rx, &errs_agent, plane, metrics);
            }));
            if let Err(payload) = run {
                *errs_agent.lock() = panic_text(payload.as_ref());
                down_agent.store(true, Ordering::Release);
                let last = Reply::Err(ExecError::NodeFailed { node: i });
                last_frame_ep.send(DISPATCHER, T_ACK, last.encode());
            }
        })
        .expect("spawn cluster node agent");
    Node {
        tx,
        errs,
        ep: comm.endpoint(DISPATCHER),
        down,
        agent: Some(agent),
        state: NodeState::Live,
        load: 0.0,
        limit: session.max_outstanding.map_or(f64::INFINITY, |l| l as f64),
        snapshot: None,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "node agent panicked".into()
    }
}

/// Run one executor-contract operation on the node agent, translating
/// errors (and executor panics — a runtime node's `wait` re-raises task
/// body panics) into the error to reply with, its human-readable
/// message left in the in-process side channel.
fn run_op<T>(
    errs: &Mutex<String>,
    f: impl FnOnce() -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => {
            // A successful op clears the slot: drain-failure diagnostics
            // must not drag in long-resolved errors of healthy nodes.
            errs.lock().clear();
            Ok(v)
        }
        Ok(Err(e)) => {
            *errs.lock() = e.to_string();
            Err(e)
        }
        Err(_) => {
            *errs.lock() = "node executor panicked".into();
            Err(ExecError::Failed(String::new()))
        }
    }
}

/// The agent's snapshot-cadence state while its session has metrics
/// enabled: the sequence counter, admissions since the last snapshot,
/// the last frame actually sent (what a `DelayLoadReports` fault
/// re-sends), and the fault-attribution counters since the last drain.
struct SnapState {
    cfg: MetricsConfig,
    seq: u64,
    since: u64,
    last_frame: Payload,
    sent: f64,
    dropped: f64,
    delayed: f64,
}

impl SnapState {
    fn new(cfg: MetricsConfig) -> Self {
        SnapState {
            cfg,
            seq: 0,
            since: 0,
            last_frame: Payload::new(),
            sent: 0.0,
            dropped: 0.0,
            delayed: 0.0,
        }
    }

    /// Count `admitted` jobs toward the cadence; `true` when a
    /// snapshot is due.
    fn admitted(&mut self, admitted: u64) -> bool {
        self.since += admitted;
        self.since >= self.cfg.snapshot_every
    }

    /// Stamp the attribution counters onto the drain-bound extras and
    /// reset them — each drain reports the delta since the previous
    /// one, so the dispatcher's per-node bumps never double-count.
    fn stamp_attribution(&mut self, extras: &mut ExecExtras) {
        for (key, v) in [
            ("snapshots_sent", &mut self.sent),
            ("snapshots_dropped", &mut self.dropped),
            ("snapshots_delayed", &mut self.delayed),
        ] {
            if *v != 0.0 {
                extras.bump(key, *v);
                *v = 0.0;
            }
        }
    }
}

/// Push this node's state — an optional metrics snapshot, then the
/// load report — as the fault plane allows: a `Slow` fault inflates
/// the reported load (steering the policies away, the deterministic
/// stand-in for a degraded node), `DropLoadReports` withholds the
/// pair, `DelayLoadReports` re-sends the previous (stale) pair. The
/// snapshot and the load report share **one** drop/delay decision
/// (the same tokens are consumed whether or not metrics are on, so
/// fault schedules reproduce identically either way), and the
/// snapshot goes first — the dispatcher's keep-latest reads then
/// never see a load value fresher than the snapshot beside it.
fn report_state(
    ep: &Endpoint,
    plane: &mut FaultPlane,
    last: &mut f64,
    outstanding: f64,
    snapshot: Option<(&mut SnapState, NodeSnapshot)>,
) {
    let value = outstanding * plane.slow_factor();
    let dropped = plane.drop_load_report();
    let delayed = !dropped && plane.delay_load_report();
    if let Some((state, snap)) = snapshot {
        if dropped {
            state.dropped += 1.0;
        } else if delayed {
            state.delayed += 1.0;
            if !state.last_frame.is_empty() {
                ep.send(DISPATCHER, T_METRICS, state.last_frame.clone());
            }
        } else {
            let frame = snap.to_values();
            state.sent += 1.0;
            state.last_frame = frame.clone();
            ep.send(DISPATCHER, T_METRICS, frame);
        }
    }
    if dropped {
        return;
    }
    if delayed {
        ep.send(DISPATCHER, T_LOAD, vec![*last]);
        return;
    }
    *last = value;
    ep.send(DISPATCHER, T_LOAD, vec![value]);
}

/// Build the node's metrics snapshot when one is due: `force` (drain
/// epochs) or the cadence reaching `cfg.snapshot_every` admitted jobs
/// — both logical triggers, never wall-clock. Returns the pair
/// [`report_state`] consumes; `None` while metrics are off or the
/// cadence has not elapsed. The executor's probe is cumulative, so a
/// snapshot is a read, not a drain; a backend without metrics state
/// contributes the all-zero probe.
fn snapshot_if_due<'a, E: Executor>(
    node: usize,
    exec: &mut E,
    state: &'a mut Option<SnapState>,
    admitted: u64,
    force: bool,
) -> Option<(&'a mut SnapState, NodeSnapshot)> {
    let s = state.as_mut()?;
    let due = s.admitted(admitted);
    if !(due || force) {
        return None;
    }
    let snap = NodeSnapshot {
        node: node as u64,
        seq: s.seq,
        probe: exec.metrics_probe().unwrap_or_default(),
    };
    s.seq += 1;
    s.since = 0;
    Some((s, snap))
}

/// The node agent loop: owns this node's executor, serves dispatcher
/// commands, pushes a load report (and, when the session enabled
/// metrics, a cadence-due snapshot) before every acknowledgement that
/// follows an admission edge, and answers each command with one
/// [`Reply`] — unless a `DropAcks` fault withholds it (the dispatcher
/// then surfaces a typed timeout). Node-local tickets live (and die)
/// here. The agent consults its [`FaultPlane`] at every admission and
/// every outgoing frame — all triggers are logical (counts, not
/// clocks), so injected faults reproduce bit-exactly.
fn node_agent<E: Executor>(
    node: usize,
    mut exec: E,
    ep: Endpoint,
    inbox: Receiver<JobSpec<E::Graph>>,
    errs: &Mutex<String>,
    mut plane: FaultPlane,
    metrics: Option<MetricsConfig>,
) {
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    let mut outstanding: f64 = 0.0;
    let mut last_load: f64 = 0.0;
    let mut snap_state: Option<SnapState> = metrics.map(SnapState::new);
    loop {
        // block-ok: the agent's idle state is "parked on the control
        // link"; `Cluster::drop` always sends `Ctrl::Shutdown` as its
        // last frame, so this recv is bounded by dispatcher lifetime.
        let cmd = ep.recv(DISPATCHER, T_CTRL);
        // A command that does not decode kills the agent, loudly, on
        // the one death path — the dispatcher sees `NodeFailed`.
        let ctrl = Ctrl::decode(&cmd).expect("both ends of the link share one codec");
        let reply = match ctrl {
            Ctrl::Shutdown => return,
            Ctrl::Submit { k } => {
                // One doorbell for a k-job sub-batch; the specs arrived
                // on the side channel, in batch order, before it.
                let mut specs = Vec::with_capacity(k);
                for _ in 0..k {
                    // block-ok: the dispatcher queues all k specs
                    // *before* sending the doorbell, so this recv can
                    // only block until an already-sent spec lands; a
                    // dropped sender returns Err and the agent exits.
                    let Ok(spec) = inbox.recv() else { return };
                    specs.push(spec);
                }
                if plane.on_admit(k as u64) {
                    // fault-ok: the scheduled Kill fault takes this agent
                    // down by design — the spawn wrapper catches the panic,
                    // publishes the down flag and sends the `NodeFailed`
                    // frame the blocked dispatcher is waiting on.
                    panic!(
                        "fault plane: killed after {} admitted jobs",
                        plane.admitted()
                    );
                }
                // The backend batch is atomic on validation: on error
                // the node admits nothing and the count is untouched.
                let admitted = run_op(errs, || exec.submit_many(specs)).map(|batch| {
                    let locals: Vec<u64> = batch.iter().map(|t| t.job().0).collect();
                    tickets.extend(locals.iter().copied().zip(batch));
                    locals
                });
                let n = admitted.as_ref().map_or(0, Vec::len);
                outstanding += n as f64;
                let snap = snapshot_if_due(node, &mut exec, &mut snap_state, n as u64, false);
                report_state(&ep, &mut plane, &mut last_load, outstanding, snap);
                admitted.map_or_else(Reply::Err, Reply::Admitted)
            }
            Ctrl::Wait { local } => {
                let reply = match tickets.remove(&local) {
                    None => Reply::Err(ExecError::UnknownTicket(JobId(local))),
                    Some(ticket) => {
                        // Only the waited job leaves the count, even when the
                        // wait fails. On a batch backend a `Failed` wait lost
                        // the node's whole pending batch, so until the next
                        // drain resets the count this node reports phantom
                        // backlog — deliberate: the remaining tickets must
                        // stay redeemable (on a pool backend the siblings of
                        // a panicked job are alive and genuinely outstanding,
                        // so resyncing here would corrupt *their* waits), and
                        // steering new jobs away from a node that just failed
                        // a batch is the right routing bias anyway.
                        outstanding -= 1.0;
                        run_op(errs, || exec.wait(ticket)).map_or_else(Reply::Err, Reply::Job)
                    }
                };
                report_state(&ep, &mut plane, &mut last_load, outstanding, None);
                reply
            }
            Ctrl::Drain { summary } => {
                let drained = run_op(errs, || exec.drain());
                tickets.clear();
                outstanding = 0.0;
                // A drain epoch always snapshots (post-drain, so the probe
                // includes everything the drain completed). A summary
                // reply carries that snapshot outright (on the ack
                // channel, so only `DropAcks` gates it); the fault-gated
                // `T_METRICS` copy below shares it.
                let snap = snapshot_if_due(node, &mut exec, &mut snap_state, 0, true);
                let reply_snap = summary.then(|| match &snap {
                    Some((_, s)) => s.clone(),
                    None => NodeSnapshot {
                        node: node as u64,
                        seq: 0,
                        probe: exec.metrics_probe().unwrap_or_default(),
                    },
                });
                report_state(&ep, &mut plane, &mut last_load, outstanding, snap);
                // Extras leave the executor either way (a failed drain
                // discards them, exactly as the collective design did).
                let mut extras = exec.take_extras();
                if let Some(s) = &mut snap_state {
                    s.stamp_attribution(&mut extras);
                }
                drained.map_or_else(Reply::Err, |stats| {
                    Reply::Drained(Drained::new(stats, extras, reply_snap))
                })
            }
            // A pull is not an admission edge and changes no
            // outstanding count: no load report rides with it.
            Ctrl::PullTrace => Reply::Trace(exec.take_trace_spans()),
        };
        if !plane.drop_ack() {
            ep.send(DISPATCHER, T_ACK, reply.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{FaultSchedule, Policy, TaskTypeId};
    use das_dag::generators;
    use das_topology::Topology;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
