//! The node side of the cluster: [`Agent`], the step function that owns
//! a node's executor, its snapshot cadence and its fault plane, and
//! [`Inline`], the link it runs behind. Every node lives in the
//! dispatcher, whatever its executor: a command is a call on the
//! caller's thread, and a panic in it is caught at the call.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use das_core::exec::{ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use das_core::fault::FaultPlane;
use das_core::jobs::JobId;
use das_core::metrics::{MetricsConfig, NodeSnapshot};

use crate::dispatcher::Node;
use crate::wire::{Ctrl, Drained, Reply};

/// What one command did on a node, in the order the node reports it:
/// the metrics snapshot, the load report, then the acknowledgement.
/// Each is `None` when there is none to send: no snapshot due, or the
/// fault plane dropped the report or withheld the ack.
#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) snapshot: Option<NodeSnapshot>,
    pub(crate) load: Option<f64>,
    pub(crate) reply: Option<Reply>,
}

/// The fault plane's kill: a node dies by panicking inside
/// [`Agent::handle`], so the panic's catcher is its one and only death
/// path.
#[expect(
    clippy::panic,
    reason = "the scheduled Kill fault takes this node down by design: the \
              `catch_unwind` in `Inline::run` catches the panic at the call, marks \
              the node dead and answers `NodeFailed`"
)]
fn fault_kill(admitted: u64) -> ! {
    panic!("fault plane: killed after {admitted} admitted jobs");
}

/// Run one executor-contract operation on the node, turning an executor
/// panic (a runtime node's `wait` re-raises task body panics) into the
/// error to reply with.
fn run_op<T>(f: impl FnOnce() -> Result<T, ExecError>) -> Result<T, ExecError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(ExecError::Failed("node executor panicked".into())))
}

/// The node's snapshot-cadence state while its session has metrics
/// enabled: the sequence counter, admissions since the last snapshot,
/// the last snapshot actually sent (what a `DelayLoadReports` fault
/// re-sends), and the fault-attribution counters since the last drain.
struct SnapState {
    cfg: MetricsConfig,
    seq: u64,
    since: u64,
    last_sent: Option<NodeSnapshot>,
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
            last_sent: None,
            sent: 0.0,
            dropped: 0.0,
            delayed: 0.0,
        }
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

/// One node: its executor, the node-local tickets (which live, and
/// die, here), its outstanding-job count and fault plane, and the
/// snapshot cadence when its session enabled metrics.
pub(crate) struct Agent<E> {
    node: usize,
    exec: E,
    plane: FaultPlane,
    tickets: BTreeMap<u64, Ticket>,
    outstanding: f64,
    /// The last load value reported, what a `DelayLoadReports` fault
    /// re-sends.
    last_load: f64,
    snap: Option<SnapState>,
}

impl<E: Executor> Agent<E> {
    pub(crate) fn new(node: usize, exec: E, plane: FaultPlane, session: &SessionBuilder) -> Self {
        Agent {
            node,
            exec,
            plane,
            tickets: BTreeMap::new(),
            outstanding: 0.0,
            last_load: 0.0,
            snap: session.metrics.map(SnapState::new),
        }
    }

    /// Serve one dispatcher command. Every command that follows an
    /// admission edge reports the node's state (a load value and, when
    /// the session enabled metrics, a cadence-due snapshot) ahead of
    /// its one [`Reply`], unless a `DropAcks` fault withholds the
    /// reply (the dispatcher then surfaces a typed timeout). The fault
    /// plane is consulted at every admission and every outgoing report;
    /// all its triggers are logical (counts, not clocks), so injected
    /// faults reproduce bit-exactly. A scheduled kill panics out of
    /// here; whoever runs the node catches it.
    pub(crate) fn handle(&mut self, ctrl: Ctrl<E::Graph>) -> Outcome {
        let mut out = Outcome::default();
        let reply = match ctrl {
            Ctrl::Submit(specs) => {
                if self.plane.on_admit(specs.len() as u64) {
                    fault_kill(self.plane.admitted());
                }
                // The backend batch is atomic on validation: on error
                // the node admits nothing and the count is untouched.
                let admitted = run_op(|| self.exec.submit_many(specs)).map(|batch| {
                    let locals: Vec<u64> = batch.iter().map(|t| t.job().0).collect();
                    self.tickets.extend(locals.iter().copied().zip(batch));
                    locals
                });
                let n = admitted.as_ref().map_or(0, Vec::len);
                self.outstanding += n as f64;
                let snap = self.snapshot_if_due(n as u64, false);
                self.report_state(snap, &mut out);
                admitted.map_or_else(Reply::Err, Reply::Admitted)
            }
            Ctrl::Wait { local } => {
                let reply = match self.tickets.remove(&local) {
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
                        self.outstanding -= 1.0;
                        run_op(|| self.exec.wait(ticket)).map_or_else(Reply::Err, Reply::Job)
                    }
                };
                self.report_state(None, &mut out);
                reply
            }
            Ctrl::Drain { summary } => {
                let drained = run_op(|| self.exec.drain());
                self.tickets.clear();
                self.outstanding = 0.0;
                // A drain epoch always snapshots (post-drain, so the probe
                // includes everything the drain completed). A summary
                // reply carries that snapshot outright (with the ack, so
                // only `DropAcks` gates it); the fault-gated report
                // below shares it.
                let snap = self.snapshot_if_due(0, true);
                let reply_snap = summary.then(|| match &snap {
                    Some(s) => s.clone(),
                    None => NodeSnapshot {
                        node: self.node as u64,
                        seq: 0,
                        probe: self.exec.metrics_probe().unwrap_or_default(),
                    },
                });
                self.report_state(snap, &mut out);
                // Extras leave the executor either way (a failed drain
                // discards them, exactly as the collective design did).
                let mut extras = self.exec.take_extras();
                if let Some(s) = &mut self.snap {
                    s.stamp_attribution(&mut extras);
                }
                drained.map_or_else(Reply::Err, |stats| {
                    Reply::Drained(Drained::new(stats, extras, reply_snap))
                })
            }
            // A pull is not an admission edge and changes no
            // outstanding count: no state report rides with it.
            Ctrl::PullTrace => Reply::Trace(self.exec.take_trace_spans()),
        };
        out.reply = (!self.plane.drop_ack()).then_some(reply);
        out
    }

    /// Build the node's metrics snapshot when one is due: `force` (drain
    /// epochs) or the cadence reaching `cfg.snapshot_every` admitted jobs
    /// — both logical triggers, never wall-clock. `None` while metrics
    /// are off or the cadence has not elapsed. The executor's probe is
    /// cumulative, so a snapshot is a read, not a drain; a backend
    /// without metrics state contributes the all-zero probe.
    fn snapshot_if_due(&mut self, admitted: u64, force: bool) -> Option<NodeSnapshot> {
        let s = self.snap.as_mut()?;
        s.since += admitted;
        if !(force || s.since >= s.cfg.snapshot_every) {
            return None;
        }
        let snap = NodeSnapshot {
            node: self.node as u64,
            seq: s.seq,
            probe: self.exec.metrics_probe().unwrap_or_default(),
        };
        s.seq += 1;
        s.since = 0;
        Some(snap)
    }

    /// Report this node's state — an optional metrics snapshot, then the
    /// load value — as the fault plane allows: a `Slow` fault inflates
    /// the reported load (steering the policies away, the deterministic
    /// stand-in for a degraded node), `DropLoadReports` withholds the
    /// pair, `DelayLoadReports` re-sends the previous (stale) pair. The
    /// snapshot and the load share **one** drop/delay decision (the
    /// same tokens are consumed whether or not metrics are on, so fault
    /// schedules reproduce identically either way), and the snapshot
    /// goes first — the dispatcher's keep-latest reads then never see
    /// a load value fresher than the snapshot beside it.
    fn report_state(&mut self, snapshot: Option<NodeSnapshot>, out: &mut Outcome) {
        let value = self.outstanding * self.plane.slow_factor();
        let dropped = self.plane.drop_load_report();
        let delayed = !dropped && self.plane.delay_load_report();
        if let (Some(state), Some(snap)) = (&mut self.snap, snapshot) {
            if dropped {
                state.dropped += 1.0;
            } else if delayed {
                state.delayed += 1.0;
                out.snapshot.clone_from(&state.last_sent);
            } else {
                state.sent += 1.0;
                state.last_sent = Some(snap.clone());
                out.snapshot = Some(snap);
            }
        }
        if dropped {
            return;
        }
        if !delayed {
            self.last_load = value;
        }
        out.load = Some(self.last_load);
    }
}

/// A node's command step, boxed so a [`Node`] is not generic over its
/// executor.
type Step<G> = Box<dyn FnMut(Ctrl<G>) -> Outcome + Send>;

/// How the dispatcher reaches a node: the agent's step, which lives in
/// the dispatcher, and the slots where a command's outcome waits for
/// the dispatcher to collect it — the ack until `reply`, the newest
/// load and snapshot until the next refresh (keep-latest: a newer
/// report replaces one nobody has read yet).
pub(crate) struct Inline<G> {
    /// `None` once a command panicked or the node was closed: the node
    /// is dead.
    step: Option<Step<G>>,
    ack: Option<Reply>,
    load: Option<f64>,
    snapshot: Option<NodeSnapshot>,
}

impl<G> Inline<G> {
    /// Run one command on the node and stash what it reports. A panic
    /// (a scheduled kill, or an agent bug) is caught here: the node is
    /// dead from then on, and the stashed ack says so.
    pub(crate) fn run(&mut self, node: usize, ctrl: Ctrl<G>) {
        let dead = Reply::Err(ExecError::NodeFailed { node });
        let Some(step) = &mut self.step else {
            self.ack = Some(dead);
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| step(ctrl))) {
            Ok(out) => {
                if out.snapshot.is_some() {
                    self.snapshot = out.snapshot;
                }
                if out.load.is_some() {
                    self.load = out.load;
                }
                self.ack = out.reply;
            }
            Err(_) => {
                self.step = None;
                self.ack = Some(dead);
            }
        }
    }

    /// The node's acknowledgement of the last command. The node
    /// answered during the call, so a withheld ack is a typed
    /// [`ExecError::Timeout`] at once, never a wait.
    pub(crate) fn ack(&mut self) -> Result<Reply, ExecError> {
        self.ack.take().ok_or(ExecError::Timeout)
    }

    /// The newest load report since the last look, if any.
    pub(crate) fn take_load(&mut self) -> Option<f64> {
        self.load.take()
    }

    /// The newest metrics snapshot since the last look, if any.
    pub(crate) fn take_snapshot(&mut self) -> Option<NodeSnapshot> {
        self.snapshot.take()
    }

    /// Stop the node for good: drop its agent, and with it the
    /// executor. Idempotent.
    pub(crate) fn close(&mut self) {
        self.step = None;
    }
}

/// Link `agent` inline: its executor lives in the dispatcher, and every
/// command runs on the caller's thread (a multi-node drain excepted,
/// see `Cluster::drain_round`).
pub(crate) fn inline_node<E>(mut agent: Agent<E>, session: &SessionBuilder) -> Node<E::Graph>
where
    E: Executor + Send + 'static,
{
    let link = Inline {
        step: Some(Box::new(move |ctrl| agent.handle(ctrl))),
        ack: None,
        load: None,
        snapshot: None,
    };
    Node::new(link, session)
}
