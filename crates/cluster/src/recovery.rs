//! Repair and churn: what the dispatcher does when a node dies
//! ([`Cluster::handle_node_down`]) or leaves ([`Cluster::remove_node`]),
//! and the one-spec placement both are built on.

use std::collections::BTreeSet;

use das_core::exec::ExecError;
use das_core::jobs::JobSpec;

use crate::dispatcher::{fold_records, Cluster, NodeState, Routed};
use crate::wire::Ctrl;

impl<G: Clone> Cluster<G> {
    /// Retire node `node` gracefully: its pending (never-started) jobs
    /// move onto peers first (`jobs_requeued`), it then drains —
    /// records banked for the next [`Executor::drain`], minus the
    /// speculative executions of the moved jobs — and shuts down. The
    /// slot index is never reused. Rejects removing a dead node or the
    /// last live one.
    ///
    /// [`Executor::drain`]: das_core::exec::Executor::drain
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
        let mut discard: BTreeSet<u64> = BTreeSet::new();
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

    /// Pass on the outcome of an exchange with `node` — after repairing
    /// the cluster if it says the node died.
    pub(crate) fn repaired<T>(
        &mut self,
        node: usize,
        outcome: Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        if let Err(ExecError::NodeFailed { .. }) = outcome {
            self.handle_node_down(node);
        }
        outcome
    }

    /// Node `node` is gone: mark it dead, join the agent, attribute the
    /// failure, and repair the route table — never-started jobs requeue
    /// onto survivors, started ones retry at most once, the rest are
    /// recorded as lost. Idempotent per node.
    pub(crate) fn handle_node_down(&mut self, node: usize) {
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
    pub(crate) fn place_anywhere(&mut self, spec: &JobSpec<G>) -> Result<(usize, u64), ExecError> {
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
}
