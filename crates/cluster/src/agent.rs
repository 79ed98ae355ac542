//! The node side of a link: the agent thread that owns a node's
//! executor, its snapshot cadence and its fault plane.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use das_core::exec::{ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use das_core::fault::FaultPlane;
use das_core::jobs::{JobId, JobSpec};
use das_core::metrics::{MetricsConfig, NodeSnapshot};
use das_msg::{Communicator, Endpoint, Payload};
use parking_lot::Mutex;

use crate::dispatcher::{Node, NodeState};
use crate::wire::{Ctrl, Drained, Reply, DISPATCHER, NODE, T_ACK, T_CTRL, T_LOAD, T_METRICS};

/// Spawn one node: a private 2-rank link, the spec side channel, and
/// the agent thread. The thread body runs under `catch_unwind`: on a
/// panic (a scheduled kill, or an agent bug) the wrapper records the
/// panic message, publishes the down flag — `Release`, paired with the
/// dispatcher's `Acquire` in `reply` — and sends a
/// [`ExecError::NodeFailed`] reply as its last frame, so a dispatcher
/// blocked on this command's ack observes the death deterministically
/// instead of timing out.
pub(crate) fn spawn_node<E>(
    i: usize,
    exec: E,
    plane: FaultPlane,
    session: &SessionBuilder,
) -> Node<E::Graph>
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
