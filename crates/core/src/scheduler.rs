//! The stateful scheduler façade driven by both the simulator and the
//! real runtime.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use das_topology::{CoreId, ExecutionPlace, Topology};

use crate::exec::SessionBuilder;
use crate::{Policy, PttRegistry, TaskMeta, TaskTypeId};

/// Outcome of the wake-up decision (Fig. 3, steps 1–2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WakeupDecision {
    /// Work-stealing queue the ready task should be pushed to.
    pub queue: CoreId,
    /// Place the task is pinned to, if the policy decides placement at
    /// wake-up (high-priority tasks under DA/DAM-C/DAM-P). Pinned tasks
    /// bypass the dequeue-time search.
    pub pinned: Option<ExecutionPlace>,
    /// May the task be stolen from that queue? High-priority tasks are
    /// not stealable under priority-aware policies, "to guarantee that
    /// all such tasks are executed according to their scheduling
    /// decision".
    pub(crate) stealable: bool,
}

/// One scheduler instance per application run: policy + PTT registry +
/// the round-robin counter used by the fixed-asymmetry baselines.
///
/// The type is `Send + Sync`; every worker thread of the runtime (or
/// simulated worker) shares one `Arc<Scheduler>`.
pub struct Scheduler {
    topo: Arc<Topology>,
    policy: Policy,
    ptts: PttRegistry,
    /// Round-robin cursor over the fast cluster's cores (FA/FAM-C).
    fa_cursor: AtomicUsize,
    /// Ablation knob: when `true`, even high-priority tasks may be stolen
    /// (the paper disables this — §4.1.2 "we disable the stealing of high
    /// priority tasks"; `das-bench`'s `ablation_steal` figure quantifies why).
    allow_high_priority_steal: bool,
    /// Scalability knob: use the representative-row sampled global search
    /// instead of the exhaustive search (the paper's future-work item on
    /// scalable prediction; see [`crate::Ptt::global_search_sampled`]).
    sampled_search: bool,
    /// Exploration knob: every `n`-th global placement ignores the model
    /// and round-robins over all places, so entries gone stale after an
    /// interference episode get re-measured even if the searches would
    /// never pick them again. `0` disables (the paper's behaviour — it
    /// relies on low-priority local searches for refresh).
    explore_every: u64,
    /// Decision counter driving `explore_every` and the exploration
    /// round-robin cursor; counts only while `explore_every > 0`.
    decisions: AtomicU64,
    /// dHEFT bookkeeping: predicted outstanding work per core (f64 bits),
    /// incremented at assignment, decremented at commit.
    pending: Vec<AtomicU64>,
}

impl Scheduler {
    /// Scheduler with the paper's settings: PTT weight ratio 1:4,
    /// exhaustive search, no exploration, high-priority tasks never
    /// stolen. Any other setting is a [`SessionBuilder`] knob, built by
    /// [`SessionBuilder::scheduler`].
    pub fn new(topo: Arc<Topology>, policy: Policy) -> Self {
        Self::from_session(&SessionBuilder::new(topo, policy))
    }

    /// The scheduler `session` describes: its topology, policy, PTT
    /// ratio and the three knobs (sampled search, exploration period,
    /// high-priority stealing).
    pub(crate) fn from_session(session: &SessionBuilder) -> Self {
        let topo = Arc::clone(&session.topo);
        let pending = (0..topo.num_cores()).map(|_| AtomicU64::new(0)).collect();
        Scheduler {
            ptts: PttRegistry::new(Arc::clone(&topo), session.ratio),
            topo,
            policy: session.policy,
            fa_cursor: AtomicUsize::new(0),
            allow_high_priority_steal: session.allow_high_priority_steal,
            sampled_search: session.sampled_search,
            explore_every: session.explore_every,
            decisions: AtomicU64::new(0),
            pending,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The platform model.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The PTT registry (one table per task type).
    pub fn ptts(&self) -> &PttRegistry {
        &self.ptts
    }

    /// Next fast core for the FA round-robin.
    fn next_fast_core(&self) -> CoreId {
        let fast = self.topo.fastest_cluster();
        // relaxed-ok: round-robin cursor; any interleaving of the
        // increments is a valid rotation, nothing else rides on it.
        let i = self.fa_cursor.fetch_add(1, Ordering::Relaxed) % fast.num_cores;
        CoreId(fast.first_core.0 + i)
    }

    /// **Wake-up decision** (Fig. 3 steps 1–2): called by the worker on
    /// `waking_core` when it releases `meta` (all dependencies met).
    ///
    /// Returns which WSQ to push to, whether the task is stealable, and —
    /// for globally-placed critical tasks — the pinned execution place.
    pub fn on_wakeup(&self, meta: &TaskMeta, waking_core: CoreId) -> WakeupDecision {
        // dHEFT assigns *every* task (any priority) at release time to
        // the core with the earliest predicted finish.
        if self.policy == Policy::DHeft {
            return self.dheft_assign(meta);
        }
        let local = WakeupDecision {
            queue: self.queue_respecting_affinity(meta, waking_core),
            pinned: None,
            stealable: true,
        };
        if !meta.priority.is_high() || !self.policy.respects_priority() {
            // Low-priority tasks — and *all* tasks under RWS/RWSM-C — go
            // to the local queue and are stealable.
            return local;
        }
        match self.policy {
            Policy::Rws | Policy::RwsmC | Policy::DHeft => unreachable!("handled above"),
            Policy::Fa | Policy::FamC => {
                // Strictly map to the statically fastest cluster. The
                // place (width) is decided at dequeue time for FAM-C.
                WakeupDecision {
                    queue: self.next_fast_core(),
                    pinned: None,
                    stealable: self.allow_high_priority_steal,
                }
            }
            Policy::Da => {
                let place = self.global_place(meta, false, true, waking_core);
                WakeupDecision {
                    queue: place.leader,
                    pinned: Some(place),
                    stealable: self.allow_high_priority_steal,
                }
            }
            Policy::DamC => {
                let place = self.global_place(meta, true, false, waking_core);
                WakeupDecision {
                    queue: place.leader,
                    pinned: Some(place),
                    stealable: self.allow_high_priority_steal,
                }
            }
            Policy::DamP => {
                let place = self.global_place(meta, false, false, waking_core);
                WakeupDecision {
                    queue: place.leader,
                    pinned: Some(place),
                    stealable: self.allow_high_priority_steal,
                }
            }
        }
    }

    /// Global placement for a high-priority task under the DAS family,
    /// applying the exploration and sampled-search knobs.
    fn global_place(
        &self,
        meta: &TaskMeta,
        minimize_cost: bool,
        width_one_only: bool,
        probe: CoreId,
    ) -> ExecutionPlace {
        if self.explore_every > 0 {
            // relaxed-ok: decision counter driving the periodic probe;
            // only the modulo cadence matters, not cross-thread ordering.
            let n = self.decisions.fetch_add(1, Ordering::Relaxed);
            if n % self.explore_every == self.explore_every - 1 {
                if let Some(p) =
                    self.exploration_place(n / self.explore_every, meta, width_one_only)
                {
                    return p;
                }
            }
        }
        let ptt = self.ptts.get(meta.ty);
        if self.sampled_search && !width_one_only {
            ptt.global_search_sampled(minimize_cost, meta.node_affinity, probe)
        } else {
            ptt.global_search(minimize_cost, width_one_only, meta.node_affinity)
        }
    }

    /// Deterministic round-robin over the legal places, used by periodic
    /// exploration.
    fn exploration_place(
        &self,
        k: u64,
        meta: &TaskMeta,
        width_one_only: bool,
    ) -> Option<ExecutionPlace> {
        let legal = || {
            self.topo.places().filter(|p| {
                (!width_one_only || p.width == 1)
                    && meta
                        .node_affinity
                        .is_none_or(|n| self.topo.cluster_of(p.leader).node == n)
            })
        };
        // Count, then walk to the k-th: two passes, no list built.
        let n = legal().count();
        legal().nth((k as usize).checked_rem(n)?)
    }

    /// **Dequeue decision** (Algorithm 1; Fig. 3 steps 4–5): called by the
    /// worker on `core` that popped (or stole) the task, just before
    /// dispatching it to the assembly queues. `pinned` is the place from
    /// the wake-up decision, if any.
    pub fn on_dequeue(
        &self,
        meta: &TaskMeta,
        core: CoreId,
        pinned: Option<ExecutionPlace>,
    ) -> ExecutionPlace {
        if let Some(p) = pinned {
            return p;
        }
        let moldable = self.policy.moldable();
        match (self.policy, meta.priority) {
            // Non-moldable policies always run width 1 on the dequeuing
            // core (for FA the queue itself was the placement decision).
            (Policy::Rws | Policy::Fa | Policy::Da, _) => {
                ExecutionPlace::solo(self.core_respecting_affinity(meta, core))
            }
            // Moldable policies mold via the local search. This covers:
            // RWSM-C (all tasks), FAM-C (fast-cluster local search for
            // high priority, local elsewhere), DAM-C/DAM-P low-priority.
            _ if moldable => {
                let ptt = self.ptts.get(meta.ty);
                match meta.node_affinity {
                    Some(node) => ptt.local_search_on_node(core, node),
                    None => ptt.local_search(core),
                }
            }
            _ => ExecutionPlace::solo(self.core_respecting_affinity(meta, core)),
        }
    }

    /// dHEFT assignment: earliest predicted finish time over all cores
    /// (outstanding predicted work + the PTT's width-1 execution-time
    /// estimate). Zero (unexplored) estimates make every core get tried
    /// at least once, mirroring dHEFT's discover-at-runtime behaviour.
    fn dheft_assign(&self, meta: &TaskMeta) -> WakeupDecision {
        let ptt = self.ptts.get(meta.ty);
        let mut best: Option<(f64, CoreId)> = None;
        for core in self.topo.cores() {
            if let Some(node) = meta.node_affinity {
                if self.topo.cluster_of(core).node != node {
                    continue;
                }
            }
            let exec = ptt.predict(core, 1).unwrap_or(f64::INFINITY);
            let finish = self.load_pending(core) + exec;
            if best.is_none_or(|(b, _)| finish < b) {
                best = Some((finish, core));
            }
        }
        let (_, core) = best.expect("at least one core matches the affinity");
        let exec = ptt.predict(core, 1).unwrap_or(0.0);
        self.add_pending(core, exec);
        WakeupDecision {
            queue: core,
            pinned: Some(ExecutionPlace::solo(core)),
            stealable: self.allow_high_priority_steal,
        }
    }

    fn load_pending(&self, core: CoreId) -> f64 {
        // relaxed-ok: advisory load estimate; staleness only shades the
        // placement heuristic, no invariant depends on it.
        f64::from_bits(self.pending[core.0].load(Ordering::Relaxed))
    }

    fn add_pending(&self, core: CoreId, amount: f64) {
        let cell = &self.pending[core.0];
        // relaxed-ok: CAS loop on one self-contained accumulator cell;
        // only atomicity of the clamped add matters.
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + amount).max(0.0);
            match cell.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed, // relaxed-ok: same accumulator cell as the load above
                Ordering::Relaxed, // relaxed-ok: failure just reloads the cell
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// **Commit** (Fig. 3 step 8): the leader core reports the measured
    /// execution time, training the task type's PTT. Cheap for policies
    /// that ignore the PTT, but recorded uniformly so that switching
    /// policy mid-run (ablations) starts from a trained model.
    pub fn record(&self, ty: TaskTypeId, place: ExecutionPlace, seconds: f64) {
        self.ptts.get(ty).update(place, seconds);
        if self.policy == Policy::DHeft && seconds.is_finite() && seconds > 0.0 {
            self.add_pending(place.leader, -seconds);
        }
    }

    /// May `meta` be stolen once enqueued? (Convenience mirror of the
    /// wake-up decision for queue implementations.)
    pub fn stealable(&self, meta: &TaskMeta) -> bool {
        self.allow_high_priority_steal
            || !(meta.priority.is_high() && self.policy.respects_priority())
    }

    /// Can a thief on `core` legally execute `meta` (node affinity)?
    pub fn may_run_on(&self, meta: &TaskMeta, core: CoreId) -> bool {
        match meta.node_affinity {
            Some(node) => self.topo.cluster_of(core).node == node,
            None => true,
        }
    }

    fn queue_respecting_affinity(&self, meta: &TaskMeta, core: CoreId) -> CoreId {
        match meta.node_affinity {
            Some(node) if self.topo.cluster_of(core).node != node => {
                // Push to the first core of the required node.
                self.topo
                    .clusters_of_node(node)
                    .next()
                    .map(|cl| cl.first_core)
                    .unwrap_or(core)
            }
            _ => core,
        }
    }

    fn core_respecting_affinity(&self, meta: &TaskMeta, core: CoreId) -> CoreId {
        self.queue_respecting_affinity(meta, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;

    fn sched(policy: Policy) -> Scheduler {
        Scheduler::new(Arc::new(Topology::tx2()), policy)
    }

    fn high() -> TaskMeta {
        TaskMeta::new(TaskTypeId(0), Priority::High)
    }

    fn low() -> TaskMeta {
        TaskMeta::new(TaskTypeId(0), Priority::Low)
    }

    #[test]
    fn rws_ignores_priority_and_never_molds() {
        let s = sched(Policy::Rws);
        let d = s.on_wakeup(&high(), CoreId(4));
        assert_eq!(d.queue, CoreId(4));
        assert!(d.stealable);
        assert_eq!(d.pinned, None);
        let p = s.on_dequeue(&high(), CoreId(4), None);
        assert_eq!((p.leader, p.width), (CoreId(4), 1));
    }

    #[test]
    fn fa_round_robins_high_priority_onto_fast_cluster() {
        let s = sched(Policy::Fa);
        let q: Vec<_> = (0..4)
            .map(|_| s.on_wakeup(&high(), CoreId(5)).queue)
            .collect();
        // Denver cores 0 and 1, alternating.
        assert_eq!(q, vec![CoreId(0), CoreId(1), CoreId(0), CoreId(1)]);
        assert!(!s.on_wakeup(&high(), CoreId(5)).stealable);
        // Low-priority tasks stay local and stealable.
        let d = s.on_wakeup(&low(), CoreId(5));
        assert_eq!(d.queue, CoreId(5));
        assert!(d.stealable);
    }

    #[test]
    fn dam_c_pins_high_priority_to_global_cost_minimum() {
        let s = sched(Policy::DamC);
        // Train: fast place is (C1,1), expensive elsewhere.
        for p in s.topology().places() {
            s.record(TaskTypeId(0), p, 10.0);
        }
        let best = s.topology().place(CoreId(1), 1).unwrap();
        s.record(TaskTypeId(0), best, 0.5); // first update replaced 10.0? no: weighted
                                            // Force entry well below others regardless of averaging history.
        s.ptts().table(TaskTypeId(0)).seed(CoreId(1), 1, 0.5);
        let d = s.on_wakeup(&high(), CoreId(4));
        let p = d.pinned.unwrap();
        assert_eq!((p.leader, p.width), (CoreId(1), 1));
        assert_eq!(d.queue, CoreId(1));
        assert!(!d.stealable);
        // Pinned place survives dequeue.
        assert_eq!(s.on_dequeue(&high(), CoreId(1), Some(p)), p);
    }

    #[test]
    fn dam_p_prefers_raw_performance() {
        let s = sched(Policy::DamP);
        let ptt = s.ptts().table(TaskTypeId(0));
        for p in s.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        // Wide fast place: best time, worst cost.
        ptt.seed(CoreId(2), 4, 1.0);
        ptt.seed(CoreId(0), 1, 3.0);
        let p = s.on_wakeup(&high(), CoreId(0)).pinned.unwrap();
        assert_eq!((p.leader, p.width), (CoreId(2), 4));
    }

    #[test]
    fn da_only_considers_width_one() {
        let s = sched(Policy::Da);
        let ptt = s.ptts().table(TaskTypeId(0));
        for p in s.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        ptt.seed(CoreId(2), 4, 0.1);
        ptt.seed(CoreId(1), 1, 2.0);
        let p = s.on_wakeup(&high(), CoreId(5)).pinned.unwrap();
        assert_eq!((p.leader, p.width), (CoreId(1), 1));
    }

    #[test]
    fn low_priority_molds_locally_under_dam() {
        let s = sched(Policy::DamC);
        let ptt = s.ptts().table(TaskTypeId(0));
        ptt.seed(CoreId(2), 1, 8.0);
        ptt.seed(CoreId(2), 2, 3.0); // cost 6 < 8
        ptt.seed(CoreId(2), 4, 9.0);
        let d = s.on_wakeup(&low(), CoreId(2));
        assert_eq!(d.queue, CoreId(2));
        assert!(d.stealable);
        let p = s.on_dequeue(&low(), CoreId(2), None);
        assert_eq!((p.leader, p.width), (CoreId(2), 2));
    }

    #[test]
    fn node_affinity_constrains_everything() {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let s = Scheduler::new(Arc::clone(&topo), Policy::DamP);
        let meta = TaskMeta::new(TaskTypeId(1), Priority::High).with_affinity(1);
        let d = s.on_wakeup(&meta, CoreId(0));
        let p = d.pinned.unwrap();
        assert_eq!(topo.cluster_of(p.leader).node, 1);
        assert_eq!(topo.cluster_of(d.queue).node, 1);
        assert!(!s.may_run_on(&meta, CoreId(0)));
        assert!(s.may_run_on(&meta, CoreId(39)));
        // Low-priority with affinity dequeued on the wrong node is
        // redirected into the node.
        let meta_low = TaskMeta::new(TaskTypeId(1), Priority::Low).with_affinity(1);
        let p = s.on_dequeue(&meta_low, CoreId(3), None);
        assert_eq!(topo.cluster_of(p.leader).node, 1);
    }

    #[test]
    fn stealable_matches_policy_matrix() {
        for policy in Policy::ALL {
            let s = sched(policy);
            assert!(s.stealable(&low()));
            assert_eq!(s.stealable(&high()), !policy.respects_priority());
        }
    }

    #[test]
    fn dheft_balances_load_and_prefers_fast_cores() {
        let s = sched(Policy::DHeft);
        let ptt = s.ptts().table(TaskTypeId(0));
        // Equal trained times everywhere: assignments should spread by
        // outstanding work rather than pile on one core.
        for c in s.topology().cores() {
            ptt.seed(c, 1, 1.0);
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..6 {
            let d = s.on_wakeup(&low(), CoreId(0));
            assert!(!d.stealable, "dHEFT assignments are strict");
            assert_eq!(d.pinned.unwrap().width, 1);
            seen.insert(d.queue);
        }
        assert_eq!(seen.len(), 6, "all cores receive one task each: {seen:?}");

        // Now make core 1 much faster: with balanced pending, it should
        // win the next assignment.
        let s = sched(Policy::DHeft);
        let ptt = s.ptts().table(TaskTypeId(0));
        for c in s.topology().cores() {
            ptt.seed(c, 1, 1.0);
        }
        ptt.seed(CoreId(1), 1, 0.1);
        assert_eq!(s.on_wakeup(&high(), CoreId(4)).queue, CoreId(1));
        // Commits drain the pending counter.
        let place = s.topology().place(CoreId(1), 1).unwrap();
        s.record(TaskTypeId(0), place, 0.1);
        assert_eq!(s.on_wakeup(&low(), CoreId(4)).queue, CoreId(1));
    }

    #[test]
    fn dheft_respects_affinity() {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let s = Scheduler::new(Arc::clone(&topo), Policy::DHeft);
        let meta = TaskMeta::new(TaskTypeId(0), Priority::Low).with_affinity(1);
        for _ in 0..10 {
            let d = s.on_wakeup(&meta, CoreId(0));
            assert_eq!(topo.cluster_of(d.queue).node, 1);
        }
    }

    #[test]
    fn periodic_exploration_round_robins_places() {
        let s = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamP)
            .explore_every(2)
            .scheduler();
        let ptt = s.ptts().table(TaskTypeId(0));
        for p in s.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        ptt.seed(CoreId(1), 1, 0.1); // model's clear favourite
                                     // Decisions 0, 2, 4 … follow the model; 1, 3, 5 … explore.
        let mut explored = std::collections::BTreeSet::new();
        for i in 0..32 {
            let p = s.on_wakeup(&high(), CoreId(0)).pinned.unwrap();
            if i % 2 == 0 {
                assert_eq!((p.leader, p.width), (CoreId(1), 1), "model step {i}");
            } else {
                explored.insert((p.leader, p.width));
            }
        }
        // 16 exploration steps over 16 places: full sweep.
        assert_eq!(explored.len(), 16);
    }

    #[test]
    fn exploration_respects_affinity_and_da_width() {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let s = SessionBuilder::new(Arc::clone(&topo), Policy::Da)
            .explore_every(1)
            .scheduler();
        let meta = TaskMeta::new(TaskTypeId(0), Priority::High).with_affinity(1);
        for _ in 0..50 {
            let p = s.on_wakeup(&meta, CoreId(0)).pinned.unwrap();
            assert_eq!(p.width, 1, "DA explores only solo places");
            assert_eq!(topo.cluster_of(p.leader).node, 1);
        }
    }

    #[test]
    fn sampled_search_knob_changes_the_sweep() {
        // Fast entry on a non-representative core of a remote cluster is
        // visible to the full sweep but not the sampled one.
        let mk = |sampled: bool| {
            let s = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamP)
                .sampled_search(sampled)
                .scheduler();
            let ptt = s.ptts().table(TaskTypeId(0));
            for p in s.topology().places() {
                ptt.seed(p.leader, p.width, 10.0);
            }
            ptt.seed(CoreId(1), 1, 0.1); // denver core 1: not representative
            s.on_wakeup(&high(), CoreId(4)).pinned.unwrap()
        };
        assert_eq!(mk(false).leader, CoreId(1));
        assert_ne!(mk(true).leader, CoreId(1));
    }

    #[test]
    fn famc_high_priority_molds_on_fast_cluster() {
        let s = sched(Policy::FamC);
        let ptt = s.ptts().table(TaskTypeId(0));
        // Fast cluster = denver (cores 0,1; widths 1,2).
        ptt.seed(CoreId(0), 1, 10.0);
        ptt.seed(CoreId(0), 2, 2.0); // cost 4 -> picked
        let d = s.on_wakeup(&high(), CoreId(3));
        assert!(matches!(d.queue, CoreId(0) | CoreId(1)));
        let p = s.on_dequeue(&high(), CoreId(0), d.pinned);
        assert_eq!((p.leader, p.width), (CoreId(0), 2));
    }
}
