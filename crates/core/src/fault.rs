//! Deterministic fault plane: fault schedules for the cluster tier.
//!
//! The paper's premise is scheduling under *dynamically asymmetric*
//! conditions — and the sharpest asymmetry is a node that dies, stalls
//! or lies about its load. This module is the configuration half of the
//! failure-domain layer: a [`FaultSchedule`] is a plain value
//! describing *what goes wrong, where, and when*, attached to a session
//! via [`SessionBuilder::fault_schedule`](crate::exec::SessionBuilder::fault_schedule)
//! and consumed by the cluster dispatcher when it spawns node agents.
//!
//! Determinism is the design constraint, not an afterthought. Every
//! fault fires at a *logical* point (the n-th admitted job, the n-th
//! load report), never at a wall-clock instant, so an all-sim cluster
//! with a given schedule is bit-reproducible run-to-run. The enforcement
//! half — catching the induced panic, surfacing it as a typed
//! `ExecError::NodeFailed`, requeuing orphaned jobs — lives in
//! `das-cluster`; this module knows nothing about wires or threads.
//!
//! ```
//! use das_core::fault::FaultSchedule;
//!
//! // Node 2 dies when asked to admit its 6th job; node 0's first three
//! // load reports are dropped so the dispatcher routes on stale data.
//! let faults = FaultSchedule::new(42)
//!     .kill(2, 5)
//!     .drop_load_reports(0, 3);
//! assert_eq!(faults.events().len(), 2);
//! ```

/// One scheduled fault, bound to a node index of the cluster tier.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// The node the fault applies to (cluster node index, not a rank).
    pub(crate) node: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The kinds of fault the plane can inject. All triggers are logical
/// counts — jobs admitted, reports sent — never wall-clock times, so a
/// seeded schedule replays bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The node-agent dies (panics) when asked to admit the job *after*
    /// its `after_jobs`-th: it admits exactly `after_jobs` jobs and
    /// takes the next admission down with it. The jobs it already
    /// admitted are stranded on the dead node; the dispatcher requeues
    /// or retries them on survivors.
    Kill {
        /// Jobs the node admits before dying.
        after_jobs: u64,
    },
    /// The node's next `count` load reports are silently dropped:
    /// the dispatcher keeps routing on its last known (stale) load view
    /// for this node.
    DropLoadReports {
        /// Reports to drop.
        count: u64,
    },
    /// The node's next `count` load reports are delayed by one
    /// report each: the dispatcher receives the *previous* report's
    /// value instead of the current one (stale by one step).
    DelayLoadReports {
        /// Reports to delay.
        count: u64,
    },
    /// The node executes its next `count` commands but withholds the
    /// acknowledgements: each such command returns the typed
    /// `ExecError::Timeout` to the caller at once.
    DropAcks {
        /// Acknowledgements to withhold.
        count: u64,
    },
    /// The node is marked slow: every load report it sends is inflated
    /// by `factor`, so load-aware routing policies steer work away from
    /// it. The node still executes correctly — this models a thermally
    /// throttled or contended board, not a broken one.
    Slow {
        /// Multiplier applied to the node's reported load (≥ 1.0 means
        /// "looks busier than it is").
        factor: f64,
    },
}

/// A declarative schedule of faults for one cluster session.
///
/// Built with the chainable methods below and attached to a session via
/// [`SessionBuilder::fault_schedule`](crate::exec::SessionBuilder::fault_schedule).
/// The default value (empty schedule) injects nothing and leaves every
/// execution path bit-identical to a fault-free build.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule. `seed` is not stored: every trigger is a
    /// logical count, so nothing in a schedule is drawn at random.
    pub fn new(_seed: u64) -> Self {
        FaultSchedule::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Kill `node` after it has admitted `after_jobs` jobs (the next
    /// admission takes the agent down). See [`FaultKind::Kill`].
    pub fn kill(mut self, node: usize, after_jobs: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::Kill { after_jobs },
        });
        self
    }

    /// Drop `node`'s next `count` load reports. See
    /// [`FaultKind::DropLoadReports`].
    pub fn drop_load_reports(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DropLoadReports { count },
        });
        self
    }

    /// Delay `node`'s next `count` load reports by one report each. See
    /// [`FaultKind::DelayLoadReports`].
    pub fn delay_load_reports(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DelayLoadReports { count },
        });
        self
    }

    /// Make `node` execute its next `count` commands without sending
    /// the acknowledgement. See [`FaultKind::DropAcks`].
    pub fn drop_acks(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DropAcks { count },
        });
        self
    }

    /// Mark `node` slow by `factor`. See [`FaultKind::Slow`].
    pub fn slow(mut self, node: usize, factor: f64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::Slow { factor },
        });
        self
    }

    /// Compile the schedule into the runtime counters for one node. A
    /// node the schedule never mentions gets `FaultPlane::default()`,
    /// whose counters never fire; its agent still consults them at each
    /// admission and load report (a compare or a multiply by 1.0 per
    /// decision point).
    pub fn plane_for(&self, node: usize) -> FaultPlane {
        let mut plane = FaultPlane::default();
        for ev in self.events.iter().filter(|ev| ev.node == node) {
            match ev.kind {
                FaultKind::Kill { after_jobs } => {
                    // Two kill events on one node: the earlier trigger
                    // wins (the node is dead before the later fires).
                    plane.kill_after = Some(match plane.kill_after {
                        Some(prev) => prev.min(after_jobs),
                        None => after_jobs,
                    });
                }
                FaultKind::DropLoadReports { count } => plane.drop_loads += count,
                FaultKind::DelayLoadReports { count } => plane.delay_loads += count,
                FaultKind::DropAcks { count } => plane.drop_acks += count,
                FaultKind::Slow { factor } => plane.slow_factor *= factor,
            }
        }
        plane
    }
}

/// The runtime half of the fault plane: per-node counters a node-agent
/// consults at each logical decision point. Owned (and mutated) by one
/// node agent; the schedule itself stays immutable.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlane {
    kill_after: Option<u64>,
    admitted: u64,
    drop_loads: u64,
    delay_loads: u64,
    drop_acks: u64,
    slow_factor: f64,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane {
            kill_after: None,
            admitted: 0,
            drop_loads: 0,
            delay_loads: 0,
            drop_acks: 0,
            slow_factor: 1.0,
        }
    }
}

impl FaultPlane {
    /// The agent is about to admit `jobs` more jobs. Returns `true` if
    /// the scheduled kill triggers *before* any of them is admitted
    /// (the agent must die without admitting the batch); otherwise the
    /// admission counter advances.
    pub fn on_admit(&mut self, jobs: u64) -> bool {
        if let Some(after) = self.kill_after {
            if self.admitted + jobs > after {
                return true;
            }
        }
        self.admitted += jobs;
        false
    }

    /// Jobs admitted so far (for diagnostics).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Should the next load report be dropped? Consumes one drop token.
    pub fn drop_load_report(&mut self) -> bool {
        if self.drop_loads > 0 {
            self.drop_loads -= 1;
            true
        } else {
            false
        }
    }

    /// Should the next load report be delayed (replaced by the previous
    /// report's value)? Consumes one delay token.
    pub fn delay_load_report(&mut self) -> bool {
        if self.delay_loads > 0 {
            self.delay_loads -= 1;
            true
        } else {
            false
        }
    }

    /// Should the next acknowledgement be withheld? Consumes one token.
    pub fn drop_ack(&mut self) -> bool {
        if self.drop_acks > 0 {
            self.drop_acks -= 1;
            true
        } else {
            false
        }
    }

    /// Multiplier the agent applies to its reported load (1.0 = honest).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_yields_inert_planes() {
        let faults = FaultSchedule::default();
        assert!(faults.events().is_empty());
        assert_eq!(faults.plane_for(0), FaultPlane::default());
        assert_eq!(faults.plane_for(3), FaultPlane::default());
    }

    #[test]
    fn kill_triggers_exactly_after_the_quota() {
        let faults = FaultSchedule::new(1).kill(2, 3);
        let mut plane = faults.plane_for(2);
        assert_ne!(plane, FaultPlane::default());
        assert!(!plane.on_admit(1));
        assert!(!plane.on_admit(2)); // 3 admitted: at the quota, alive
        assert!(plane.on_admit(1), "the 4th admission kills");
        assert_eq!(plane.admitted(), 3, "the fatal batch is not admitted");
        // Other nodes stay inert.
        assert_eq!(faults.plane_for(0), FaultPlane::default());
    }

    #[test]
    fn kill_triggers_mid_batch_without_admitting_it() {
        let mut plane = FaultSchedule::new(1).kill(0, 5).plane_for(0);
        assert!(!plane.on_admit(4));
        assert!(plane.on_admit(2), "batch would cross the quota");
        assert_eq!(plane.admitted(), 4);
    }

    #[test]
    fn earliest_of_two_kills_wins() {
        let plane = FaultSchedule::new(1).kill(0, 9).kill(0, 4).plane_for(0);
        let mut p = plane.clone();
        assert!(!p.on_admit(4));
        assert!(p.on_admit(1));
    }

    #[test]
    fn frame_faults_consume_their_tokens() {
        let mut plane = FaultSchedule::new(7)
            .drop_load_reports(1, 2)
            .delay_load_reports(1, 1)
            .drop_acks(1, 1)
            .plane_for(1);
        assert!(plane.drop_load_report());
        assert!(plane.drop_load_report());
        assert!(!plane.drop_load_report(), "tokens exhausted");
        assert!(plane.delay_load_report());
        assert!(!plane.delay_load_report());
        assert!(plane.drop_ack());
        assert!(!plane.drop_ack());
    }

    #[test]
    fn slow_factors_compose_multiplicatively() {
        let plane = FaultSchedule::new(7).slow(0, 2.0).slow(0, 3.0).plane_for(0);
        assert_eq!(plane.slow_factor(), 6.0);
        assert_ne!(plane, FaultPlane::default());
    }

    #[test]
    fn schedule_is_comparable_and_cloneable() {
        let a = FaultSchedule::new(3).kill(1, 2).slow(0, 1.5);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 2);
    }
}
