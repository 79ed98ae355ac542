//! `sim_critical256`: the discrete-event simulator on a 256-core grid,
//! one thread, a quarter of all tasks critical.

use std::sync::Arc;
use std::time::Instant;

use das::core::{Policy, TaskTypeId};
use das::dag::{generators, Dag, TaskId};
use das::sim::cost::UniformCost;
use das::sim::{Scenario, SimConfig, Simulator};
use das::topology::Topology;

use crate::run::{Cfg, RepOut, Workload};
use crate::trace::{Tracer, NO_JOB, NO_SPAN};

/// Tasks per layer; the first of each layer is critical and releases
/// the next layer.
const PARALLELISM: usize = 4;

/// Each task's work is scaled by a seeded factor from this range, so
/// that the input — and with it the simulated makespan — follows the
/// workload seed; the mean stays 1.
const WORK_SCALE: (f64, f64) = (0.5, 1.5);

/// The layered DAG with seeded per-task work.
fn seeded_dag(seed: u64, layers: usize) -> Dag {
    let mut dag = generators::layered(TaskTypeId(0), PARALLELISM, layers);
    let mut state = seed;
    for i in 0..dag.len() {
        // splitmix64: the workspace's `rand` is not a dependency here.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        dag.set_work_scale(
            TaskId(i as u32),
            WORK_SCALE.0 + unit * (WORK_SCALE.1 - WORK_SCALE.0),
        );
    }
    dag
}

/// Simulated seconds the interference scenario covers. Bounded because
/// the scenario materialises one window per dwell; the run's makespan
/// (layers × 1 ms along the critical chain) stays far below it.
const SCENARIO_UNTIL: f64 = 60.0;

pub struct SimCritical {
    cfg: Cfg,
    layers: usize,
}

impl SimCritical {
    pub fn new(cfg: Cfg) -> SimCritical {
        SimCritical {
            cfg,
            layers: cfg.size(2_500, 100),
        }
    }
}

impl Workload for SimCritical {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cores", 256),
            ("parallelism", PARALLELISM as u64),
            ("layers", self.layers as u64),
        ]
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t = Instant::now();
        let root = tr.begin("setup", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let s = tr.begin("topology.build", parent, NO_JOB);
        let topo = Arc::new(Topology::grid(1, 16, 16));
        tr.end(s);
        let s = tr.begin("dag.generate", parent, NO_JOB);
        let dag = seeded_dag(self.cfg.seed, self.layers);
        tr.end(s);
        let s = tr.begin("sim.build", parent, NO_JOB);
        let mut sim = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::DamC)
                .seed(self.cfg.seed)
                .cost(Arc::new(UniformCost::new(1e-3))),
        );
        sim.set_env(
            Scenario::rolling_interference(&topo, 0.5, 0.05, SCENARIO_UNTIL).environment(topo),
        );
        tr.end(s);
        tr.end(root);
        let mut out = RepOut {
            setup_s: t.elapsed().as_secs_f64(),
            ..RepOut::default()
        };

        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let parent = tr.id(&root);
        let t0 = Instant::now();
        let s = tr.begin("sim.run", parent, 0);
        let result = sim.run(&dag);
        tr.end(s);
        out.wall_s = t0.elapsed().as_secs_f64();
        tr.end(root);

        out.attempted = 1;
        match result {
            Ok(st) => {
                out.jobs = 1;
                out.tasks = st.tasks as u64;
                out.makespan_s = st.makespan;
                out.expect_count("simulated tasks", out.tasks, dag.len() as u64);
                out.scalars.insert("events", st.events as f64);
                out.scalars.insert("steals", st.steals as f64);
                out.scalars.insert("failed_steals", st.failed_steals as f64);
                out.fingerprint = Some([st.events, st.makespan.to_bits(), st.steals as u64]);
            }
            Err(e) => out.fail(1, format!("simulation failed: {e:?}")),
        }
        out
    }
}
