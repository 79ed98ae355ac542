//! # das-core — the Dynamic Asymmetry Scheduler
//!
//! This crate implements the primary contribution of Chen et al.,
//! *Scheduling Task-parallel Applications in Dynamically Asymmetric
//! Environments* (ICPP Workshops 2020):
//!
//! * the **Performance Trace Table (PTT)** — a per-task-type online model
//!   that learns the execution time of each `(core, width)` execution
//!   place from normal execution, with a weighted-average update rule
//!   (§4.1.1);
//! * **Algorithm 1** — the place-selection algorithm: *local search*
//!   (mold the width, keep the core) for low-priority tasks, *global
//!   search* over all places for high-priority tasks, minimising either
//!   parallel cost (`time × width`, DAM-C) or raw time (DAM-P);
//! * every baseline policy of Table 1 — `RWS`, `RWSM-C`, `FA`, `FAM-C`,
//!   `DA` — so the ablation structure of the paper's evaluation can be
//!   reproduced exactly.
//!
//! The crate is *pure decision logic*: it contains no threads and no
//! clocks. Both the discrete-event simulator (`das-sim`) and the real
//! threaded runtime (`das-runtime`) drive the same [`Scheduler`] type —
//! and queue ready tasks through the same [`ReadyQueue`] discipline
//! (pinned-first FIFO for owners, LIFO stealable backlog, FIFO steals
//! with affinity filtering; see [`queue`](ReadyQueue)) — so a policy
//! behaves identically in simulation and on hardware.
//!
//! ## Decision points
//!
//! Mirroring the XiTAO implementation (§4.1.2, Fig. 3), a task meets the
//! scheduler twice:
//!
//! 1. **Wake-up** ([`Scheduler::on_wakeup`]): when a predecessor releases
//!    the task, the waking worker picks the work-stealing queue the task
//!    is pushed to. High-priority tasks are globally placed *now* (and
//!    pinned — they may not be stolen); low-priority tasks go to the local
//!    queue and remain stealable.
//! 2. **Dequeue** ([`Scheduler::on_dequeue`]): when a worker pops the task
//!    (possibly after stealing it), the final execution place is chosen —
//!    for moldable policies by a *local search* of the PTT on the worker's
//!    own row.
//!
//! After execution the leader core reports the measured time through
//! [`Scheduler::record`], which trains the PTT.
//!
//! ```
//! use das_core::{Policy, Scheduler, TaskMeta, TaskTypeId, Priority};
//! use das_topology::{CoreId, Topology};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::tx2());
//! let sched = Scheduler::new(topo, Policy::DamC);
//! let meta = TaskMeta::new(TaskTypeId(0), Priority::High);
//!
//! // Wake-up on core 3: global search (all entries are still zero, so the
//! // first unexplored place wins and will be trained by `record`).
//! let d = sched.on_wakeup(&meta, CoreId(3));
//! let place = d.pinned.expect("high-priority tasks are pinned under DAM-C");
//! sched.record(meta.ty, place, 1.25e-3);
//! ```

pub mod exec;
pub mod fault;
pub mod ingress;
pub mod jobs;
pub mod metrics;
mod policy;
mod ptt;
mod queue;
mod scheduler;

pub use exec::ExecExtras;
pub use fault::FaultSchedule;
pub use ingress::Ingress;
pub use metrics::{ExecProbe, LogHistogram, MetricKind, MetricsConfig, MetricsReport};
pub use policy::Policy;
pub use ptt::{Ptt, PttRegistry, PttSnapshot, WeightRatio};
pub use queue::{ReadyEntry, ReadyQueue};
pub use scheduler::{Scheduler, WakeupDecision};

use std::fmt;

/// Identifier of a *task type* — one per function implemented as a task
/// (§4.1.1: "Within XiTAO it refers to the C++ class describing the
/// functionality"). There is one PTT per task type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TaskTypeId(pub u16);

impl fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Task criticality (§2). High-priority tasks are tasks on the DAG's
/// critical path or tasks releasing many dependants; the paper takes the
/// OpenMP-style view that the user (or DAG generator) marks them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Priority {
    /// Critical task: placed by global search, never stolen (under
    /// priority-aware policies).
    High,
    /// Ordinary task: placed locally, stealable.
    #[default]
    Low,
}

impl Priority {
    /// `true` for [`Priority::High`].
    pub fn is_high(self) -> bool {
        matches!(self, Priority::High)
    }
}

/// Everything the scheduler needs to know about a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskMeta {
    /// Task type — selects the PTT.
    pub ty: TaskTypeId,
    /// Criticality.
    pub priority: Priority,
    /// Optional placement restriction to one distributed-memory node:
    /// searches and stealing never cross it. Used by the MPI-style
    /// communication tasks of the distributed Heat application, which must
    /// run on the node owning the boundary.
    pub node_affinity: Option<usize>,
}

impl TaskMeta {
    /// A task with no node affinity.
    pub fn new(ty: TaskTypeId, priority: Priority) -> Self {
        TaskMeta {
            ty,
            priority,
            node_affinity: None,
        }
    }

    /// Restrict the task to node `node`.
    pub fn with_affinity(mut self, node: usize) -> Self {
        self.node_affinity = Some(node);
        self
    }
}
