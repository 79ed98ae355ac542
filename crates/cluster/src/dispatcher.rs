//! The dispatcher: per-node state, the route table, the node
//! primitives (`send` / `reply` / `admitted` / `drain_round`)
//! and the [`Executor`] front built on them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use das_core::exec::{ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use das_core::jobs::{JobId, JobSpec, JobStats, StreamStats};
use das_core::metrics::{ExecProbe, MetricKind, MetricsReport, NodeSnapshot};
use das_sim::ClusterTrace;
use rand::rngs::SmallRng;

use crate::agent::Inline;
use crate::route::{self, RoutePolicy};
use crate::wire::{Ctrl, DrainBody, Drained, Reply};

/// Spawns node `i` from its session: builds the executor and its agent,
/// and links it inline. Boxed so [`Cluster`] can keep it for
/// [`Cluster::add_node`] without being generic over the factory.
pub(crate) type Spawner<G> = Box<dyn FnMut(usize, &SessionBuilder) -> Node<G> + Send>;

/// Where a node is in its life. Only `Live` nodes are routed to,
/// refreshed and drained by the cluster-wide verbs; `Leaving` is the
/// window inside [`Cluster::remove_node`] in which the node is already
/// closed to routing but still owes its drain; `Dead` — failed or
/// retired — is final.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum NodeState {
    Live,
    Leaving,
    Dead,
}

/// Everything the dispatcher holds about one node: how it reaches the
/// node, the commands it has sent it, and its view of the node. Slots
/// of dead nodes stay in place so node indices are stable for the
/// lifetime of the cluster.
pub(crate) struct Node<G> {
    pub(crate) link: Inline<G>,
    /// Commands sent to this node, ever: the wire traffic
    /// [`Cluster::wire_messages_sent`] sums.
    pub(crate) commands: u64,
    pub(crate) state: NodeState,
    /// Last load report (outstanding jobs), fed by the node's reports —
    /// and by the batch router's own `+1` per assignment, which the
    /// node's next report overwrites; 0 once dead.
    pub(crate) load: f64,
    /// Admission bound (`f64::INFINITY` when unbounded), from the
    /// session's `max_outstanding`: the dispatcher sheds at this bound
    /// *before* any wire traffic, and the node executor (built from the
    /// same session) enforces the identical bound behind it.
    pub(crate) limit: f64,
    /// Latest metrics snapshot, fed by the node's reports (keep-latest,
    /// like the load) and by summary drains; `None` once dead, and
    /// always unless the session enabled [`SessionBuilder::metrics`].
    pub(crate) snapshot: Option<NodeSnapshot>,
}

impl<G> Node<G> {
    /// A live node behind `link`, bounded by `session`'s
    /// `max_outstanding`.
    pub(crate) fn new(link: Inline<G>, session: &SessionBuilder) -> Self {
        Node {
            link,
            commands: 0,
            state: NodeState::Live,
            load: 0.0,
            limit: session.max_outstanding.map_or(f64::INFINITY, |l| l as f64),
            snapshot: None,
        }
    }

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
pub(crate) struct Routed<G> {
    pub(crate) node: usize,
    pub(crate) local: u64,
    pub(crate) started: bool,
    pub(crate) retried: bool,
    pub(crate) spec: JobSpec<G>,
}

impl<G> Routed<G> {
    /// A fresh acknowledgement: never started, retry unspent.
    pub(crate) fn new(node: usize, local: u64, spec: JobSpec<G>) -> Self {
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
/// [`ClusterBuilder`](crate::ClusterBuilder).
pub struct Cluster<G> {
    pub(crate) nodes: Vec<Node<G>>,
    pub(crate) spawner: Spawner<G>,
    pub(crate) policy: RoutePolicy,
    pub(crate) rng: SmallRng,
    pub(crate) rr: usize,
    /// The spec ledger and route table in one: cluster job id → the
    /// node that acknowledged it, for every submitted job not yet
    /// waited or drained.
    pub(crate) route: BTreeMap<u64, Routed<G>>,
    /// Jobs a node took down with it (retry budget spent, or no
    /// survivor could take them): cluster job id → the node that
    /// failed. Their tickets redeem as [`ExecError::NodeFailed`].
    pub(crate) lost: BTreeMap<u64, usize>,
    /// Records and extras banked by [`Cluster::remove_node`], folded
    /// into the next [`Executor::drain`].
    pub(crate) banked_jobs: Vec<JobStats>,
    pub(crate) banked_extras: ExecExtras,
    pub(crate) next_job: u64,
    pub(crate) exec_session: u64,
    pub(crate) exec_extras: ExecExtras,
}

impl<G> Cluster<G> {
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
    /// ascending (the route's key order) — the order every repair
    /// re-places in.
    pub(crate) fn routed_to(&self, node: usize, keep: impl Fn(&Routed<G>) -> bool) -> Vec<u64> {
        self.route
            .iter()
            .filter(|(_, r)| r.node == node && keep(r))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Fold every pending load report into the routing view (newest
    /// report per node wins; dead nodes stay pinned at 0).
    pub(crate) fn refresh_loads(&mut self) {
        for node in self.nodes.iter_mut().filter(|n| n.is_live()) {
            if let Some(v) = node.link.take_load() {
                node.load = v;
            }
        }
    }

    /// The cluster-wide observability view: the latest metrics snapshot
    /// of every live node that has pushed one, in node-index order.
    /// Empty unless the node sessions enabled
    /// [`SessionBuilder::metrics`]. Non-blocking — this only folds in
    /// the snapshots the nodes have already reported (newest per node
    /// wins, exactly like the loads); snapshots arrive on logical
    /// triggers (every `snapshot_every` admitted jobs, and at every
    /// drain).
    pub fn metrics_report(&mut self) -> MetricsReport {
        for node in self.nodes.iter_mut().filter(|n| n.is_live()) {
            if let Some(snap) = node.link.take_snapshot() {
                node.snapshot = Some(snap);
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

    /// Control commands this dispatcher has sent, ever (summed over the
    /// nodes) — the traffic the batch path amortises. A
    /// [`Executor::submit_many`] batch costs one command
    /// **per node with a non-empty sub-batch** regardless of batch
    /// size, a `submit` — a one-job batch — exactly one (the contract
    /// `tests/cluster_exec.rs` asserts).
    pub fn wire_messages_sent(&self) -> u64 {
        self.nodes.iter().map(|s| s.commands).sum()
    }

    /// The routing error when no node can take a job. With every node
    /// down that is a plain failure; otherwise the typed overload
    /// error, attributing the pressure to the full node(s): their
    /// reported outstanding counts and bounds, summed. For a full
    /// single pick these are that node's numbers; when every node is
    /// full (`LoadShed`) it is the cluster-wide pressure. Only live
    /// full nodes enter the sums, so the casts are finite.
    pub(crate) fn no_pick_error(&self) -> ExecError {
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

    /// Send `ctrl` to `node`, which runs it now and stashes the
    /// outcome.
    pub(crate) fn send(&mut self, node: usize, ctrl: Ctrl<G>) {
        let slot = &mut self.nodes[node];
        slot.commands += 1;
        slot.link.run(node, ctrl);
    }

    /// `node`'s acknowledgement of the last command ([`Inline::ack`]:
    /// a missing ack is a typed [`ExecError::Timeout`]). A death or any
    /// other error reply comes back as `Err` ([`from_node`]).
    fn reply(&mut self, node: usize) -> Result<Reply, ExecError> {
        match self.nodes[node].link.ack()? {
            Reply::Err(e) => Err(from_node(node, e)),
            reply => Ok(reply),
        }
    }

    /// Collect the acknowledgement of a [`Ctrl::Submit`]: the
    /// node-local ids of the admitted group, in group order.
    pub(crate) fn admitted(&mut self, node: usize) -> Result<Vec<u64>, ExecError> {
        match self.reply(node)? {
            Reply::Admitted(locals) => Ok(locals),
            other => unreachable!("node {node} answered a submit with {other:?}"),
        }
    }

    /// A `wait` or `drain` reaching `node` executes its whole pending
    /// batch: everything currently routed there counts as started from
    /// here on (the recovery plane's at-most-once boundary).
    fn mark_started(&mut self, node: usize) {
        for r in self.route.values_mut() {
            if r.node == node {
                r.started = true;
            }
        }
    }

    /// Close `node`'s slot for good: zero its view and stop its agent.
    pub(crate) fn bury(&mut self, node: usize) {
        let slot = &mut self.nodes[node];
        slot.state = NodeState::Dead;
        slot.load = 0.0;
        slot.snapshot = None;
        slot.link.close();
    }

    /// One drain round: run every target's drain, then consume every
    /// reply.
    /// The targets drain concurrently, on up to one thread per host
    /// core, the caller's among them; a lone target drains on the
    /// caller's thread. Deaths and errors are only reported — recovery
    /// traffic must not start before the round's last ack is in, or a
    /// requeue's ack would replace a pending drain ack on the same
    /// node.
    pub(crate) fn drain_round(
        &mut self,
        targets: &[usize],
        summary: bool,
    ) -> Vec<(usize, Result<Drained, ExecError>)> {
        for &node in targets {
            self.mark_started(node);
        }
        let mut links = Vec::new();
        for (node, slot) in self.nodes.iter_mut().enumerate() {
            if targets.contains(&node) {
                slot.commands += 1;
                links.push((node, &mut slot.link));
            }
        }
        // The targets drain in shares, one per host core: the caller
        // drains the first share, a scoped thread each other one.
        // Threads beyond the core count would add no speed, only stacks
        // and allocator arenas (peak RSS).
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let share_len = links.len().div_ceil(cores).max(1);
        let mut shares = links.chunks_mut(share_len);
        let drain = |share: &mut [(usize, &mut Inline<G>)]| {
            for (node, link) in share {
                link.run(*node, Ctrl::Drain { summary });
            }
        };
        let own = shares.next();
        std::thread::scope(|s| {
            for share in shares {
                s.spawn(move || drain(share));
            }
            if let Some(share) = own {
                drain(share);
            }
        });
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
    /// Drain every live node for a *summary* — counts, span, extras and
    /// the node's post-drain snapshot — without shipping one record per
    /// completed job. The cluster-wide percentiles come from the
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
    pub(crate) fn pick(&mut self) -> Option<usize> {
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
    pub(crate) fn rpc(&mut self, node: usize, ctrl: Ctrl<G>) -> Result<Reply, ExecError> {
        self.send(node, ctrl);
        let reply = self.reply(node);
        self.repaired(node, reply)
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
                    Err(e @ ExecError::Timeout) => silent = silent.or(Some(e)),
                    Err(ExecError::Rejected(why) | ExecError::Failed(why)) => failures.push(why),
                    Err(e) => failures.push(format!("node {node}: {e}")),
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
pub(crate) fn fold_records<G>(
    route: &mut BTreeMap<u64, Routed<G>>,
    node: usize,
    drained: Drained,
    discard: &BTreeSet<u64>,
    jobs: &mut Vec<JobStats>,
    merged: &mut ExecExtras,
) {
    let DrainBody::Records(recs) = drained.body else {
        unreachable!("node {node} answered a records drain with a summary")
    };
    let mut map: BTreeMap<u64, u64> = route
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

/// A node executor's error as the cluster reports it: a message names
/// the node (`"node {i}: {e}"`), and a death names the node it was seen
/// on — an agent cannot report a peer's failure.
fn from_node(node: usize, e: ExecError) -> ExecError {
    match e {
        ExecError::Rejected(_) => ExecError::Rejected(format!("node {node}: {e}")),
        ExecError::Failed(_) => ExecError::Failed(format!("node {node}: {e}")),
        ExecError::NodeFailed { .. } => ExecError::NodeFailed { node },
        ExecError::UnknownTicket(_) | ExecError::Overloaded { .. } | ExecError::Timeout => e,
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

    /// Route every job of the batch by policy, then send **one command
    /// per node with a non-empty sub-batch** instead of one per job —
    /// the per-command fixed costs (doorbell, ack round-trip) amortise
    /// over the batch — and stamp the acknowledged node-local
    /// ids into the route table, a spec copy beside each for recovery.
    ///
    /// Each job is picked in batch order against a load view updated
    /// *locally* after every assignment — exactly the `+1` the node's
    /// synchronous load report applies between two submissions
    /// (nothing else moves the count between the two), so a batch
    /// routes bit-identically to the same jobs submitted one by one.
    /// Cluster job ids are dense in batch order across the whole
    /// cluster (rejected jobs consume no id, as on the bare backends).
    ///
    /// A batch larger than the live nodes' bounds summed is
    /// [`ExecError::Rejected`] before any routing. On a shed decision
    /// mid-batch nothing is admitted (local view rolled back, error
    /// returned). A node *rejecting* its sub-batch
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
        // A batch larger than every live node's bound together can
        // never be placed, however much is drained first.
        let capacity: f64 = self
            .nodes
            .iter()
            .filter_map(Node::view)
            .map(|(_, limit)| limit)
            .sum();
        if self.live_nodes() > 0 && specs.len() as f64 > capacity {
            return Err(ExecError::Rejected(format!(
                "a batch of {} jobs exceeds the live nodes' admission bounds of {capacity} in total",
                specs.len()
            )));
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
        // ONE control message per node. The originals stay behind as
        // the ledger copies.
        let n = self.nodes.len();
        let mut groups: Vec<Vec<JobSpec<G>>> = vec![Vec::new(); n];
        for (spec, &node) in specs.iter().zip(&assignment) {
            groups[node].push(spec.clone());
        }
        let mut touched = Vec::new();
        for (node, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                self.send(node, Ctrl::Submit(group));
                touched.push(node);
            }
        }
        // Phase 3: collect one batch ack per touched node (node order).
        // Deaths are only recorded here — every outstanding ack must be
        // consumed before any recovery traffic, or a requeue's ack would
        // replace a pending batch ack on the same node.
        let mut locals: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut died: Vec<usize> = Vec::new();
        let mut first_err: Option<ExecError> = None;
        for node in touched {
            match self.admitted(node) {
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
                Err(e @ ExecError::Timeout) => return Err(e),
                // Remap the node-local id in the error onto the cluster
                // id.
                Err(ExecError::UnknownTicket(_)) => ExecError::UnknownTicket(id),
                Err(e) => e,
            };
            self.route.remove(&id.0);
            return Err(err);
        }
    }

    /// Drain every live node and merge the per-node records with the
    /// ones banked by node removals. A node death mid-drain requeues its stranded jobs onto
    /// survivors and triggers another round, so the stream still
    /// completes (deaths are repaired only *after* a round's acks are
    /// all consumed). A withheld reply is a typed
    /// [`ExecError::Timeout`], never a hang — the fix for the
    /// forever-blocking drain of the collective design. On a node
    /// *error* (not death) the whole drain fails and the outstanding
    /// jobs of the failed batch are lost (mirroring the bare
    /// simulator's batch-failure semantics).
    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        let mut jobs = std::mem::take(&mut self.banked_jobs);
        let mut merged = std::mem::take(&mut self.banked_extras);
        let keep_all = BTreeSet::new();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_errors_carry_the_node_and_the_message() {
        assert_eq!(
            from_node(2, ExecError::Rejected("empty graph".into())),
            ExecError::Rejected("node 2: job rejected: empty graph".into())
        );
        assert_eq!(
            from_node(0, ExecError::Failed("event budget".into())),
            ExecError::Failed("node 0: execution failed: event budget".into())
        );
        for e in [
            ExecError::UnknownTicket(JobId(9)),
            ExecError::Overloaded {
                outstanding: 64,
                limit: 64,
            },
            ExecError::Timeout,
        ] {
            assert_eq!(
                from_node(1, e.clone()),
                e,
                "numeric errors pass as they are"
            );
        }
    }

    #[test]
    fn a_reported_death_names_the_link() {
        // An agent cannot report a peer's failure: the node is the one
        // the reply came from.
        assert_eq!(
            from_node(2, ExecError::NodeFailed { node: 7 }),
            ExecError::NodeFailed { node: 2 }
        );
    }
}
