//! # das-workloads — the paper's benchmarks, in both executable and
//! simulated form
//!
//! §4.2.2 of the paper evaluates the schedulers with:
//!
//! * **synthetic layered DAGs** over three kernels — MatMul
//!   (compute-intensive, 64×64 tiles, 32 000 tasks), Copy
//!   (memory-intensive, 1024×1024 tiles, 10 000 tasks) and Stencil
//!   (cache-intensive, 1024×1024 tiles, 20 000 tasks);
//! * **K-means clustering** (Rodinia-style), a data-parallel dynamic DAG
//!   whose largest loop-partition task carries the high priority;
//! * **distributed 2-D Heat**, an iterative 5-point stencil whose MPI
//!   boundary-exchange tasks are marked high priority.
//!
//! Each workload exists twice here, sharing one DAG shape:
//!
//! * a **real compute body** (`kernels`, `kmeans`, `heat`) runnable on
//!   `das-runtime` — used for functional validation and the examples;
//! * a **cost model** (`cost::PaperCost`) for `das-sim` — used by the
//!   figure-reproduction harness, calibrated so relative speeds (fast vs
//!   slow cluster, tile-size cache fits, memory saturation) match the
//!   paper's qualitative behaviour.

pub mod arrivals;
pub mod cost;
pub mod heat;
pub mod kernels;
pub mod kmeans;
pub mod synthetic;

use das_core::TaskTypeId;

/// Task-type ids shared by every workload (one PTT per type).
pub mod types {
    use super::TaskTypeId;

    /// Tiled matrix multiplication (compute-bound).
    pub const MATMUL: TaskTypeId = TaskTypeId(0);
    /// Large memcpy (memory-bound streaming).
    pub const COPY: TaskTypeId = TaskTypeId(1);
    /// 5-point stencil sweep over a tile (cache-bound).
    pub(crate) const STENCIL: TaskTypeId = TaskTypeId(2);
    /// One K-means loop partition (assign points to centroids).
    pub(crate) const KMEANS_CHUNK: TaskTypeId = TaskTypeId(3);
    /// K-means centroid reduction.
    pub const KMEANS_REDUCE: TaskTypeId = TaskTypeId(4);
    /// One block of a 2-D heat Jacobi sweep.
    pub(crate) const HEAT_COMPUTE: TaskTypeId = TaskTypeId(5);
    /// Ghost-cell boundary exchange (the paper's high-priority MPI TAO).
    pub(crate) const HEAT_COMM: TaskTypeId = TaskTypeId(6);
    /// Task type of the interfering co-runner chain (§5.1), used by the
    /// co-runner-as-tasks ablation.
    pub(crate) const INTERFERE: TaskTypeId = TaskTypeId(7);
}
