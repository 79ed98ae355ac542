//! Reproducibility guarantees: every figure the `das-bench` `figures`
//! binary prints is regenerated bit-for-bit from a seed (and pinned by
//! `crates/bench/tests/golden.rs`), so determinism is a contract, not a
//! convenience.

use das::core::{Policy, TaskTypeId};
use das::dag::generators;
use das::sim::{Scenario, SimConfig, Simulator};
use das::topology::Topology;
use das::workloads::cost::PaperCost;
use std::sync::Arc;

fn run_stats(policy: Policy, seed: u64, scenario: Option<usize>) -> das::sim::RunStats {
    let topo = Arc::new(Topology::tx2());
    let mut sim = Simulator::new(
        SimConfig::new(Arc::clone(&topo), policy)
            .seed(seed)
            .cost(Arc::new(PaperCost::new())),
    );
    if let Some(i) = scenario {
        let suite = Scenario::suite(&topo);
        sim.set_env(suite[i].environment(Arc::clone(&topo)));
    }
    let dag = generators::layered(TaskTypeId(0), 4, 250);
    sim.run(&dag).expect("run completes")
}

#[test]
fn identical_seeds_identical_everything() {
    for policy in [Policy::Rws, Policy::DamC, Policy::DHeft] {
        let a = run_stats(policy, 99, Some(0));
        let b = run_stats(policy, 99, Some(0));
        assert_eq!(a.makespan, b.makespan, "{policy}");
        assert_eq!(a.steals, b.steals, "{policy}");
        assert_eq!(a.all_places, b.all_places, "{policy}");
        assert_eq!(a.high_priority_places, b.high_priority_places, "{policy}");
        assert_eq!(a.core_work, b.core_work, "{policy}");
    }
}

#[test]
fn seed_only_affects_stealing_policies() {
    // RWS outcomes depend on the steal RNG — but only when the RNG has
    // a real choice. On the layered DAG every layer is released by one
    // core, so exactly one victim queue is ever non-empty and victim
    // selection is forced. A wavefront commits tasks on many cores at
    // once, giving concurrent victims and letting the seed matter.
    let run = |seed: u64| {
        let topo = Arc::new(Topology::tx2());
        let mut sim = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::Rws)
                .seed(seed)
                .cost(Arc::new(PaperCost::new())),
        );
        let dag = generators::wavefront(TaskTypeId(0), 24);
        sim.run(&dag).expect("run completes")
    };
    let a = run(1);
    let diverges = (2u64..8).any(|seed| {
        let b = run(seed);
        a.makespan != b.makespan || a.all_places != b.all_places || a.steals != b.steals
    });
    assert!(diverges, "no seed in 2..8 perturbed RWS at all");
}

#[test]
fn steal_order_unchanged_by_scratch_reuse() {
    // Golden values captured from the engine BEFORE `try_steal` started
    // reusing an engine-owned scratch buffer instead of allocating a
    // fresh victim Vec per attempt. The optimisation must not perturb
    // the seeded victim sequence: steal counts and makespans stay
    // bit-identical.
    use das::sim::cost::UniformCost;
    let run = |policy: Policy, seed: u64| {
        let topo = Arc::new(Topology::tx2());
        let mut s = Simulator::new(
            SimConfig::new(Arc::clone(&topo), policy)
                .seed(seed)
                .cost(Arc::new(UniformCost::new(1e-3))),
        );
        let dag = generators::wavefront(TaskTypeId(0), 20);
        s.run(&dag).expect("run completes")
    };
    let golden = [
        (Policy::Rws, 1234u64, 53usize, 120usize, 0.05807350000000007),
        (Policy::DamC, 99, 71, 82, 0.05707500000000008),
        (Policy::RwsmC, 7, 72, 113, 0.05907350000000008),
    ];
    for (policy, seed, steals, failed, makespan) in golden {
        let st = run(policy, seed);
        assert_eq!(st.steals, steals, "{policy} seed={seed}");
        assert_eq!(st.failed_steals, failed, "{policy} seed={seed}");
        assert_eq!(st.makespan, makespan, "{policy} seed={seed}");
    }
}

#[test]
fn every_scenario_is_reproducible() {
    let topo = Arc::new(Topology::tx2());
    let n = Scenario::suite(&topo).len();
    for i in 0..n {
        let a = run_stats(Policy::DamP, 7, Some(i));
        let b = run_stats(Policy::DamP, 7, Some(i));
        assert_eq!(a.makespan, b.makespan, "scenario {i}");
    }
}

#[test]
fn traces_are_deterministic_and_physical() {
    let mk = || {
        let topo = Arc::new(Topology::tx2());
        let mut sim = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::DamC)
                .seed(5)
                .cost(Arc::new(PaperCost::new())),
        );
        sim.record_trace(true);
        let dag = generators::layered(TaskTypeId(0), 4, 100);
        sim.run(&dag).unwrap();
        sim.take_trace()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.spans.len(), b.spans.len());
    assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    assert!(a.find_overlap().is_none());
    // Utilisation bounded and some core meaningfully busy.
    let u = a.utilization();
    assert!(u.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
    assert!(u.iter().cloned().fold(0.0f64, f64::max) > 0.3);
}

#[test]
fn ptt_state_carryover_is_the_only_cross_run_state() {
    // Two fresh simulators agree; one simulator run twice differs only
    // through its trained PTT (second run at least as fast on a stable
    // environment).
    let topo = Arc::new(Topology::tx2());
    let dag = generators::layered(TaskTypeId(0), 4, 250);
    let mut sim = Simulator::new(
        SimConfig::new(Arc::clone(&topo), Policy::DamC)
            .seed(11)
            .cost(Arc::new(PaperCost::new())),
    );
    let first = sim.run(&dag).unwrap();
    let second = sim.run(&dag).unwrap();
    assert!(second.makespan <= first.makespan * 1.05);
    sim.reset_model();
    let fresh = sim.run(&dag).unwrap();
    // A reset model re-explores; it cannot beat the trained run by much.
    assert!(fresh.makespan >= second.makespan * 0.95);
}

/// `SimConfig` and `SessionBuilder` are one construction path: the same
/// settings through either give the same run, bit for bit.
#[test]
fn sim_config_and_session_build_the_same_simulator() {
    use das::exec::SessionBuilder;
    use das::sim::cost::UniformCost;
    let topo = Arc::new(Topology::grid(1, 16, 16));
    let dag = generators::layered(TaskTypeId(0), 4, 250);
    let env =
        || Scenario::rolling_interference(&topo, 0.5, 0.05, 60.0).environment(Arc::clone(&topo));
    for seed in [7, 11] {
        let cost = Arc::new(UniformCost::new(1e-3));
        let mut a = Simulator::new(
            SimConfig::new(Arc::clone(&topo), Policy::DamC)
                .seed(seed)
                .cost(cost.clone()),
        );
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC).seed(seed);
        let mut b = Simulator::from_session_with_cost(&session, cost);
        a.set_env(env());
        b.set_env(env());
        let (a, b) = (a.run(&dag).unwrap(), b.run(&dag).unwrap());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "seed {seed}");
        assert_eq!(a.events, b.events, "seed {seed}");
        assert_eq!(a.steals, b.steals, "seed {seed}");
        assert_eq!(a.failed_steals, b.failed_steals, "seed {seed}");
        assert!(
            a.steals > 0 && a.failed_steals > 0,
            "the run exercises stealing"
        );
    }
}
