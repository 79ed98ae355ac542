//! [`ClusterBuilder`]: per-node sessions, routing policy, route seed and
//! control-RPC deadline in; a running [`Cluster`] out.

use std::collections::BTreeMap;
use std::time::Duration;

use das_core::exec::{session_tag, ExecExtras, Executor, SessionBuilder};
use das_dag::Dag;
use das_runtime::{Runtime, TaskGraph};
use das_sim::Simulator;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::agent::spawn_node;
use crate::dispatcher::{Cluster, Spawner};
use crate::route::RoutePolicy;

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
pub(crate) const RPC_ATTEMPTS: u32 = 6;

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
            route: BTreeMap::new(),
            lost: BTreeMap::new(),
            banked_jobs: Vec::new(),
            banked_extras: ExecExtras::default(),
            next_job: 0,
            exec_session: session_tag(),
            exec_extras: ExecExtras::default(),
            rpc_base: self.rpc_base,
        }
    }
}
