//! Task cost models: how much work a task type represents and how well it
//! scales across a resource partition.
//!
//! The simulator computes the execution rate of a task of type `ty` with
//! work multiplier `s` at place `(c, w)` at time `t` as
//!
//! ```text
//! rate = eff(ty, w, cluster)                 // parallel efficiency, cache fit,
//!                                            // per-cluster kernel affinity
//!      × w × min_{i ∈ place} speed_i(t)      // SPMD: the slowest member
//!                                            // paces the whole region
//!      × (1 − sens(ty) · pressure(cluster,t))// memory interference
//! duration_at_constant_rate = work(ty) · s / rate
//! ```
//!
//! Kernel-specific models (MatMul/Copy/Stencil with the paper's tile-size
//! dependence) live in `das-workloads`; this module defines the trait and
//! two simple reference models used by tests and micro-examples.

use das_core::TaskTypeId;
use das_topology::Cluster;

/// A cost model maps task types to work and scaling behaviour.
///
/// Implementations must be cheap: the simulator calls these on every
/// dispatch and every environment change.
pub trait CostModel: Send + Sync {
    /// Seconds the task type takes on one baseline core (speed 1.0)
    /// without interference.
    fn work(&self, ty: TaskTypeId) -> f64;

    /// Per-core relative throughput of running `ty` at width `width` on
    /// `cluster`. 1.0 means the kernel scales perfectly and the cluster
    /// micro-architecture is neutral for it; a serial kernel returns
    /// `1/width`. Values above 1.0 express a per-cluster kernel affinity
    /// (e.g. a wide out-of-order core beating its base speed hint on
    /// compute-dense GEMM). Cache-fit effects (the Fig. 8 tile-size
    /// axis) are folded in here too.
    fn efficiency(&self, ty: TaskTypeId, width: usize, cluster: &Cluster) -> f64;

    /// Sensitivity of `ty` to cluster memory pressure, in `[0, 1]`:
    /// 0 = pure compute (MatMul), 1 = pure streaming (Copy).
    fn mem_sensitivity(&self, ty: TaskTypeId) -> f64;

    /// Sensitivity of `ty` to *intra-application* contention, in
    /// `[0, 1]`: how much the task slows down when the other cores of
    /// its cluster run independent tasks (distinct cache/bandwidth
    /// streams) rather than cooperating on this one.
    ///
    /// With `k` concurrent assemblies in a cluster of `n` cores the
    /// engine scales the rate by `1 − sens · (k−1)/(n−1)`: a lone wide
    /// assembly (k = 1) pays nothing, a fully oversubscribed cluster of
    /// width-1 tasks pays `sens`. This is the mechanism behind the
    /// paper's case for moldability — "molding tasks … to reduce
    /// inter-task contention and resource oversubscription" (§3.1):
    /// fewer, wider assemblies genuinely contend less. Defaults to 0
    /// (no intra-app contention) so decision-logic unit tests stay
    /// exact.
    fn contention_sensitivity(&self, _ty: TaskTypeId) -> f64 {
        0.0
    }
}

/// Every task type costs the same fixed work and scales perfectly.
/// The simplest possible model — useful for scheduler unit tests where
/// the *decisions*, not the kernels, are under test.
#[derive(Clone, Copy, Debug)]
pub struct UniformCost {
    work: f64,
}

impl UniformCost {
    /// All task types take `work` seconds at unit speed.
    pub fn new(work: f64) -> Self {
        assert!(work > 0.0 && work.is_finite());
        UniformCost { work }
    }
}

impl CostModel for UniformCost {
    fn work(&self, _ty: TaskTypeId) -> f64 {
        self.work
    }

    fn efficiency(&self, _ty: TaskTypeId, _width: usize, _cluster: &Cluster) -> f64 {
        1.0
    }

    fn mem_sensitivity(&self, _ty: TaskTypeId) -> f64 {
        0.0
    }
}

/// A configurable per-type table: work, a scaling exponent and a memory
/// sensitivity per task type. Efficiency is `width^(alpha-1)` so `alpha =
/// 1` scales perfectly and `alpha = 0` not at all.
#[derive(Clone, Debug, Default)]
pub struct TableCost {
    rows: Vec<TableRow>,
}

/// Per-type parameters of a [`TableCost`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct TableRow {
    /// Seconds at unit speed, width 1.
    pub(crate) work: f64,
    /// Scaling exponent in `[0, 1]` (1 = linear speedup).
    pub(crate) alpha: f64,
    /// Memory-pressure sensitivity in `[0, 1]`.
    pub(crate) mem_sensitivity: f64,
}

impl TableCost {
    /// Empty table; add rows with [`TableCost::with`]. Task types beyond
    /// the table fall back to the last row.
    pub fn new() -> Self {
        TableCost::default()
    }

    /// Append the row for the next task type id.
    pub fn with(mut self, work: f64, alpha: f64, mem_sensitivity: f64) -> Self {
        assert!(work > 0.0 && (0.0..=1.0).contains(&alpha));
        assert!((0.0..=1.0).contains(&mem_sensitivity));
        self.rows.push(TableRow {
            work,
            alpha,
            mem_sensitivity,
        });
        self
    }

    fn row(&self, ty: TaskTypeId) -> TableRow {
        let i = (ty.0 as usize).min(self.rows.len().saturating_sub(1));
        *self.rows.get(i).expect("TableCost has no rows")
    }
}

impl CostModel for TableCost {
    fn work(&self, ty: TaskTypeId) -> f64 {
        self.row(ty).work
    }

    fn efficiency(&self, ty: TaskTypeId, width: usize, _cluster: &Cluster) -> f64 {
        let a = self.row(ty).alpha;
        (width as f64).powf(a - 1.0)
    }

    fn mem_sensitivity(&self, ty: TaskTypeId) -> f64 {
        self.row(ty).mem_sensitivity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_topology::Topology;

    #[test]
    fn uniform_scales_perfectly() {
        let c = UniformCost::new(2.0);
        let topo = Topology::tx2();
        let cl = &topo.clusters()[1];
        assert_eq!(c.work(TaskTypeId(3)), 2.0);
        assert_eq!(c.efficiency(TaskTypeId(0), 4, cl), 1.0);
        assert_eq!(c.mem_sensitivity(TaskTypeId(0)), 0.0);
    }

    #[test]
    fn table_rows_and_fallback() {
        let t = TableCost::new().with(1.0, 1.0, 0.0).with(2.0, 0.5, 0.8);
        assert_eq!(t.work(TaskTypeId(0)), 1.0);
        assert_eq!(t.work(TaskTypeId(1)), 2.0);
        assert_eq!(t.work(TaskTypeId(9)), 2.0); // falls back to last row
        let topo = Topology::tx2();
        let cl = &topo.clusters()[1];
        // alpha=0.5 -> efficiency at width 4 = 4^-0.5 = 0.5
        assert!((t.efficiency(TaskTypeId(1), 4, cl) - 0.5).abs() < 1e-12);
        assert_eq!(t.efficiency(TaskTypeId(0), 4, cl), 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_table_panics_on_use() {
        let t = TableCost::new();
        let _ = t.work(TaskTypeId(0));
    }
}
