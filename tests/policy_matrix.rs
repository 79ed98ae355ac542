//! Cross-policy behavioural matrix: every Table-1 policy (plus dHEFT)
//! against every anomaly scenario, asserting completion plus the paper's
//! qualitative ordering claims where they apply.

use das::core::{Policy, TaskTypeId};
use das::dag::generators;
use das::exec::SessionBuilder;
use das::sim::{Scenario, SimConfig, Simulator};
use das::topology::Topology;
use das::workloads::cost::PaperCost;
use std::sync::Arc;

fn throughput(policy: Policy, scenario: Option<&Scenario>, parallelism: usize) -> f64 {
    let topo = Arc::new(Topology::tx2());
    let mut sim =
        Simulator::new(SimConfig::new(Arc::clone(&topo), policy).cost(Arc::new(PaperCost::new())));
    if let Some(s) = scenario {
        sim.set_env(s.environment(Arc::clone(&topo)));
    }
    let dag = generators::layered(TaskTypeId(0), parallelism, 3000 / parallelism);
    sim.run(&dag).expect("run completes").throughput()
}

#[test]
fn every_policy_survives_every_scenario() {
    let topo = Arc::new(Topology::tx2());
    for scenario in Scenario::suite(&topo) {
        for policy in Policy::WITH_EXTENSIONS {
            let mut sim = Simulator::new(
                SimConfig::new(Arc::clone(&topo), policy).cost(Arc::new(PaperCost::new())),
            );
            sim.set_env(scenario.environment(Arc::clone(&topo)));
            let dag = generators::layered(TaskTypeId(0), 4, 100);
            let st = sim
                .run(&dag)
                .unwrap_or_else(|e| panic!("{policy} under {}: {e}", scenario.name));
            assert_eq!(st.tasks, 400, "{policy} under {}", scenario.name);
        }
    }
}

#[test]
fn dynamic_beats_fixed_beats_random_under_corunner() {
    // The Fig. 4(a) ordering claim at every evaluated parallelism.
    let topo = Arc::new(Topology::tx2());
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    let _ = topo;
    for p in 2..=6 {
        let rws = throughput(Policy::Rws, Some(&scenario), p);
        let fa = throughput(Policy::Fa, Some(&scenario), p);
        let dam_c = throughput(Policy::DamC, Some(&scenario), p);
        if p < 6 {
            assert!(
                dam_c > fa * 1.02,
                "p={p}: DAM-C ({dam_c:.0}) must beat FA ({fa:.0})"
            );
        } else {
            // At P = 6 the six-core TX2 saturates and the schedulers
            // converge on the aggregate rate (the right-hand edge of
            // Fig. 4(a), where FA and DAM meet).
            assert!(
                dam_c > fa * 0.97,
                "p={p}: DAM-C ({dam_c:.0}) must stay within parity of FA ({fa:.0})"
            );
        }
        assert!(
            dam_c > rws * 1.05,
            "p={p}: DAM-C ({dam_c:.0}) must beat RWS ({rws:.0})"
        );
        assert!(
            fa > rws * 0.95,
            "p={p}: FA ({fa:.0}) must not fall behind RWS ({rws:.0})"
        );
    }
}

#[test]
fn dam_reaches_near_max_throughput_at_low_parallelism() {
    // §5.1: "DAM-C and DAM-P already achieve close to the maximum
    // throughput when parallelism is low", while RWS grows ~linearly.
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    let dam_p3 = throughput(Policy::DamC, Some(&scenario), 3);
    let dam_p6 = throughput(Policy::DamC, Some(&scenario), 6);
    assert!(
        dam_p3 > dam_p6 * 0.8,
        "DAM-C at p=3 ({dam_p3:.0}) should be near its p=6 level ({dam_p6:.0})"
    );
    let rws_p2 = throughput(Policy::Rws, Some(&scenario), 2);
    let rws_p6 = throughput(Policy::Rws, Some(&scenario), 6);
    assert!(
        rws_p6 > rws_p2 * 1.5,
        "RWS should scale with parallelism ({rws_p2:.0} -> {rws_p6:.0})"
    );
}

#[test]
fn interference_hurts_every_policy_but_dam_least() {
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    for policy in [Policy::Rws, Policy::Fa, Policy::DamC] {
        let clean = throughput(policy, None, 4);
        let noisy = throughput(policy, Some(&scenario), 4);
        assert!(
            noisy <= clean * 1.01,
            "{policy}: interference cannot speed things up ({clean:.0} -> {noisy:.0})"
        );
    }
    let loss = |p: Policy| {
        let clean = throughput(p, None, 4);
        (clean - throughput(p, Some(&scenario), 4)) / clean
    };
    let rws_loss = loss(Policy::Rws);
    let fa_loss = loss(Policy::Fa);
    let dam_loss = loss(Policy::DamC);
    assert!(
        dam_loss <= fa_loss + 0.02 && dam_loss <= rws_loss + 0.02,
        "DAM-C absorbs interference best: rws {rws_loss:.2}, fa {fa_loss:.2}, dam {dam_loss:.2}"
    );
}

#[test]
fn dheft_is_competitive_with_da_on_width_one_workloads() {
    // dHEFT (extension) assigns every task by earliest finish time; on a
    // single-type layered DAG it should land between RWS and the DAS
    // family, never catastrophically behind.
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    let dheft = throughput(Policy::DHeft, Some(&scenario), 4);
    let rws = throughput(Policy::Rws, Some(&scenario), 4);
    assert!(
        dheft > rws * 0.8,
        "dHEFT ({dheft:.0}) should be at least near RWS ({rws:.0})"
    );
}

#[test]
fn sampled_search_quality_close_to_full_on_tx2() {
    // The scalability extension must not cost much on a small machine.
    let topo = Arc::new(Topology::tx2());
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    let run = |sampled: bool| {
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC).sampled_search(sampled);
        let mut sim = Simulator::from_session_with_cost(&session, Arc::new(PaperCost::new()));
        sim.set_env(scenario.environment(Arc::clone(&topo)));
        let dag = generators::layered(TaskTypeId(0), 4, 500);
        sim.run(&dag).unwrap().throughput()
    };
    let full = run(false);
    let sampled = run(true);
    assert!(
        sampled > full * 0.7,
        "sampled search too lossy: {sampled:.0} vs {full:.0}"
    );
}

#[test]
fn periodic_exploration_costs_little_during_steady_interference() {
    let topo = Arc::new(Topology::tx2());
    let scenario = Scenario::cpu_occupy(das::topology::CoreId(0), 0.5, 0.0, f64::INFINITY);
    let run = |explore: u64| {
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC).explore_every(explore);
        let mut sim = Simulator::from_session_with_cost(&session, Arc::new(PaperCost::new()));
        sim.set_env(scenario.environment(Arc::clone(&topo)));
        let dag = generators::layered(TaskTypeId(0), 4, 500);
        sim.run(&dag).unwrap().throughput()
    };
    let pure = run(0);
    let exploring = run(16); // 1/16 of global placements explore
    assert!(
        exploring > pure * 0.85,
        "sparse exploration should cost <15%: {exploring:.0} vs {pure:.0}"
    );
}
