//! # das-sim — a discrete-event simulator of dynamically asymmetric multicores
//!
//! The paper evaluates its schedulers on two physical platforms (an NVIDIA
//! Jetson TX2 and a 4-node Haswell cluster) perturbed by real co-running
//! applications and DVFS. This crate substitutes those testbeds with a
//! deterministic discrete-event simulation, for two reasons:
//!
//! 1. the schedulers observe the platform **only through task execution
//!    times** (via the PTT), so a simulator that produces faithful
//!    execution times exercises exactly the same decision logic;
//! 2. simulated time makes every figure of the paper reproducible
//!    bit-for-bit from a seed, independent of the machine the harness
//!    happens to run on.
//!
//! The simulated execution model mirrors the XiTAO runtime of §4.1.2:
//! per-core **work-stealing queues** (WSQ) holding ready tasks, per-core
//! FIFO **assembly queues** (AQ) holding dispatched moldable tasks, random
//! work stealing of low-priority tasks, dequeue-time place selection
//! through [`das_core::Scheduler`], and leader-core PTT updates on commit.
//!
//! Per-core performance varies over time through an [`Environment`]:
//! co-runner time-sharing, DVFS square waves and arbitrary slow-down
//! windows compose multiplicatively. Task durations integrate work
//! piecewise across environment changes, so a DVFS edge mid-task is
//! handled exactly.
//!
//! ```
//! use das_sim::{Simulator, SimConfig, Environment, cost::UniformCost};
//! use das_core::{Policy, TaskTypeId};
//! use das_dag::generators;
//! use das_topology::Topology;
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::tx2());
//! let cfg = SimConfig::new(Arc::clone(&topo), Policy::DamC)
//!     .cost(Arc::new(UniformCost::new(1e-3)));
//! let mut sim = Simulator::new(cfg);
//! sim.set_env(Environment::interference_free(topo));
//! let dag = generators::layered(TaskTypeId(0), 4, 50);
//! let stats = sim.run(&dag).unwrap();
//! assert_eq!(stats.tasks, 200);
//! assert!(stats.makespan > 0.0);
//! ```

mod anomaly;
pub mod cost;
mod engine;
mod env;
mod metrics;
mod params;
mod trace;

pub use anomaly::Scenario;
pub use engine::{SimError, Simulator};
pub use env::{Environment, Modifier};
pub use metrics::{PlaceKey, RunStats};
pub use params::{SimConfig, SimParams};
pub use trace::{validate_chrome_json, ClusterTrace, Trace};
