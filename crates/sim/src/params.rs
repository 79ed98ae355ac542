//! Simulator configuration.

use crate::cost::{CostModel, UniformCost};
use das_core::exec::SessionBuilder;
use das_core::Policy;
use das_topology::Topology;
use std::sync::Arc;

/// Fixed runtime overheads of the simulated XiTAO-like runtime.
///
/// The struct itself lives in [`das_core::exec`] (so the backend-neutral
/// [`SessionBuilder`] can own the full configuration surface); this is
/// the historical `das_sim::SimParams` path, preserved by re-export.
pub use das_core::exec::SimParams;

/// Everything needed to construct a [`crate::Simulator`]: the
/// backend-neutral session plus the one sim-specific setting, the task
/// cost model.
#[derive(Clone)]
pub struct SimConfig {
    /// Topology, policy, PTT ratio, seed, scheduler knobs, simulated
    /// overheads, admission bound and metrics.
    pub session: SessionBuilder,
    /// Task cost model; defaults to [`UniformCost`] with 1 ms tasks.
    pub cost: Arc<dyn CostModel>,
}

impl SimConfig {
    /// A config with defaults for everything but platform and policy.
    pub fn new(topo: Arc<Topology>, policy: Policy) -> Self {
        SimConfig::with_session(SessionBuilder::new(topo, policy))
    }

    /// `session` with the default cost model.
    pub(crate) fn with_session(session: SessionBuilder) -> Self {
        SimConfig {
            session,
            cost: Arc::new(UniformCost::new(1e-3)),
        }
    }

    /// Set the cost model.
    pub fn cost(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = cost;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.session.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let topo = Arc::new(Topology::tx2());
        let c = SimConfig::new(topo, Policy::Rws)
            .seed(42)
            .cost(Arc::new(UniformCost::new(2e-3)));
        assert_eq!(c.session.seed, 42);
        assert_eq!(c.session.policy, Policy::Rws);
        assert_eq!(c.cost.work(das_core::TaskTypeId(0)), 2e-3);
    }
}
