//! The paper's synthetic benchmark DAGs (§4.2.2), sized as in the paper
//! and optionally scaled down for quick runs.
//!
//! Each DAG is a layered graph: `P` same-type tasks per layer (`P` = DAG
//! parallelism), one critical task per layer releasing the next layer.

use crate::types;
use das_dag::{generators, Dag};

/// Paper-sized task counts per kernel (§4.2.2).
pub(crate) const MATMUL_TASKS: usize = 32_000;
/// Copy DAG size.
pub(crate) const COPY_TASKS: usize = 10_000;
/// Stencil DAG size.
pub(crate) const STENCIL_TASKS: usize = 20_000;

/// The three synthetic kernels, in the order of Fig. 4/7.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Compute-intensive tiled GEMM.
    MatMul,
    /// Memory-intensive streaming copy.
    Copy,
    /// Cache-intensive 5-point stencil.
    Stencil,
}

impl Kernel {
    /// All kernels, figure order.
    pub const ALL: [Kernel; 3] = [Kernel::MatMul, Kernel::Copy, Kernel::Stencil];

    /// Display name as used in the figures.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::MatMul => "MatMul",
            Kernel::Copy => "Copy",
            Kernel::Stencil => "Stencil",
        }
    }

    /// The task type id of this kernel.
    pub(crate) fn task_type(self) -> das_core::TaskTypeId {
        match self {
            Kernel::MatMul => types::MATMUL,
            Kernel::Copy => types::COPY,
            Kernel::Stencil => types::STENCIL,
        }
    }

    /// Paper-sized total task count for this kernel's DAG.
    pub(crate) fn paper_tasks(self) -> usize {
        match self {
            Kernel::MatMul => MATMUL_TASKS,
            Kernel::Copy => COPY_TASKS,
            Kernel::Stencil => STENCIL_TASKS,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The synthetic DAG of `kernel` at the given DAG parallelism, sized as
/// in the paper scaled by `1/scale_down` (use `scale_down = 1` for
/// paper-sized runs, larger for quick checks).
pub fn dag(kernel: Kernel, parallelism: usize, scale_down: usize) -> Dag {
    assert!(scale_down >= 1);
    let total = (kernel.paper_tasks() / scale_down).max(parallelism);
    generators::layered_total(kernel.task_type(), parallelism, total)
}

/// The §5.1 interfering application: a single chain of kernel tasks (the
/// co-runner). The env-based interference model is the default; this DAG
/// exists for the co-runner-as-tasks ablation.
pub fn corunner_chain(n: usize) -> Dag {
    generators::chain(types::INTERFERE, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(dag(Kernel::MatMul, 4, 1).len(), 32_000);
        assert_eq!(dag(Kernel::Copy, 5, 1).len(), 10_000);
        assert_eq!(dag(Kernel::Stencil, 2, 1).len(), 20_000);
    }

    #[test]
    fn scaled_down_preserves_parallelism() {
        for p in 2..=6 {
            let d = dag(Kernel::MatMul, p, 10);
            d.validate().unwrap();
            assert!((d.dag_parallelism() - p as f64).abs() < 1e-9);
            assert_eq!(d.len(), 32_000 / 10 / p * p);
        }
    }

    #[test]
    fn kernel_metadata() {
        assert_eq!(Kernel::MatMul.task_type(), types::MATMUL);
        assert_eq!(Kernel::Copy.name(), "Copy");
        assert_eq!(Kernel::ALL.len(), 3);
    }
}
