//! Property-based tests (proptest) over the core data structures and the
//! simulator's liveness/determinism invariants.

use das::core::{ExecExtras, Policy, Priority, Ptt, TaskMeta, TaskTypeId, WeightRatio};
use das::dag::{generators, Dag};
use das::sim::{cost::UniformCost, Environment, Modifier, SimConfig, Simulator};
use das::topology::{CoreId, Topology};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop::sample::select(Policy::ALL.to_vec())
}

/// One per-node extras record: optional typed counters plus a few named
/// extension values. Values are multiples of 1/16 so every f64 addition
/// in the fold is exact and reordering cannot shift a low bit.
fn arb_extras() -> impl Strategy<Value = ExecExtras> {
    let name = prop::sample::select(vec![
        "node0.jobs",
        "node1.jobs",
        "steal.ratio",
        "queue.max",
        "sim.horizon",
    ]);
    let value = (0u32..4096).prop_map(|k| k as f64 / 16.0);
    // 1000 encodes "counter absent" (the vendored proptest shim has no
    // `prop::option::of`).
    let maybe =
        |r: std::ops::Range<u64>| (r.start..r.end + 1).prop_map(move |v| (v < 1000).then_some(v));
    (
        maybe(0..1000),
        maybe(0..1000),
        prop::collection::vec((name, value), 0..4),
    )
        .prop_map(|(steals, events, pairs)| {
            let mut e = ExecExtras::default();
            e.steals = steals;
            e.events = events;
            for (k, v) in pairs {
                e.bump(k, v);
            }
            e
        })
}

/// In-place Fisher–Yates driven by a xorshift stream (the vendored
/// proptest shim has no `prop_shuffle`).
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::tx2()),
        Just(Topology::haswell_2x8()),
        Just(Topology::symmetric(3)),
        Just(Topology::big_little(1, 3, 2.5)),
        (1usize..4, 1usize..5).prop_map(|(b, l)| Topology::big_little(b, l, 2.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The weighted update always lands between old and new values (for
    /// positive inputs), so the PTT can never diverge.
    #[test]
    fn ptt_update_stays_in_hull(
        old in 1e-9f64..1e3,
        new in 1e-9f64..1e3,
        num in 1u32..5,
    ) {
        let ratio = WeightRatio::new(num, 5);
        let mixed = ratio.mix(old, new);
        let (lo, hi) = if old < new { (old, new) } else { (new, old) };
        prop_assert!(mixed >= lo - 1e-12 && mixed <= hi + 1e-12);
    }

    /// Repeated observations of a constant value converge to it,
    /// regardless of starting point and ratio.
    #[test]
    fn ptt_converges_to_constant_signal(
        start in 1e-6f64..1e2,
        target in 1e-6f64..1e2,
        num in 1u32..=5,
    ) {
        let ratio = WeightRatio::new(num, 5);
        let mut v = start;
        for _ in 0..200 {
            v = ratio.mix(v, target);
        }
        prop_assert!((v - target).abs() < 1e-6 * target.max(1.0));
    }

    /// Poisoned samples (non-finite, negative, zero) are rejected by
    /// BOTH write paths — `update` and `seed` — so no sequence of bad
    /// inputs can ever corrupt a trained entry. Regression for the
    /// asymmetry where `seed` accepted what `update` rejected.
    #[test]
    fn ptt_write_paths_reject_poisoned_samples(
        good in 1e-9f64..1e3,
        bad in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            -1e3f64..=0.0,
        ],
        seed_first in any::<bool>(),
    ) {
        let topo = Arc::new(Topology::tx2());
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        let place = topo.place(CoreId(0), 1).unwrap();
        if seed_first {
            ptt.seed(CoreId(0), 1, good);
        } else {
            ptt.update(place, good);
        }
        prop_assert_eq!(ptt.predict(CoreId(0), 1), Some(good));
        ptt.seed(CoreId(0), 1, bad);
        prop_assert_eq!(ptt.predict(CoreId(0), 1), Some(good));
        ptt.update(place, bad);
        prop_assert_eq!(ptt.predict(CoreId(0), 1), Some(good));
        // And a later good observation still trains normally.
        ptt.update(place, good * 2.0);
        let v = ptt.predict(CoreId(0), 1).unwrap();
        prop_assert!(v.is_finite() && v > 0.0);
    }

    /// `local_search` returns the width-1-or-better minimum of the
    /// parallel cost among the core's valid places (brute-force check).
    #[test]
    fn local_search_is_optimal(
        seed_vals in prop::collection::vec(1e-6f64..10.0, 32),
        core in 0usize..6,
    ) {
        let topo = Arc::new(Topology::tx2());
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        for (i, p) in topo.places().enumerate() {
            ptt.seed(p.leader, p.width, seed_vals[i % seed_vals.len()]);
        }
        let core = CoreId(core);
        let got = ptt.local_search(core);
        let best = topo
            .cluster_of(core)
            .valid_widths()
            .iter()
            .filter_map(|&w| topo.place(core, w))
            .map(|p| (ptt.predict(p.leader, p.width).unwrap() * p.width as f64, p))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        let got_cost = ptt.predict(got.leader, got.width).unwrap() * got.width as f64;
        prop_assert!((got_cost - best.0).abs() < 1e-12);
    }

    /// `global_search` minimises the requested objective over all places.
    #[test]
    fn global_search_is_optimal(
        seed_vals in prop::collection::vec(1e-6f64..10.0, 40),
        minimize_cost in any::<bool>(),
    ) {
        let topo = Arc::new(Topology::tx2());
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        for (i, p) in topo.places().enumerate() {
            ptt.seed(p.leader, p.width, seed_vals[i % seed_vals.len()]);
        }
        let got = ptt.global_search(minimize_cost, false, None);
        let objective = |leader: CoreId, width: usize| {
            let t = ptt.predict(leader, width).unwrap();
            if minimize_cost { t * width as f64 } else { t }
        };
        let best = topo
            .places()
            .map(|p| objective(p.leader, p.width))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((objective(got.leader, got.width) - best).abs() < 1e-12);
    }

    /// Random layered DAGs are valid, and their parallelism never
    /// exceeds the widest layer.
    #[test]
    fn random_dags_valid(seed in any::<u64>(), layers in 1usize..15, width in 1usize..6) {
        let d = generators::random_layered(seed, layers, width, 0.25, 3);
        prop_assert!(d.validate().is_ok());
        prop_assert!(d.dag_parallelism() <= width as f64 + 1e-9);
        prop_assert!(d.longest_path_len() >= layers);
    }

    /// Liveness: every policy completes every random DAG on every
    /// topology — no lost wake-ups, no deadlocks — and executes each
    /// task exactly once.
    #[test]
    fn sim_always_completes(
        policy in arb_policy(),
        topo in arb_topology(),
        seed in any::<u64>(),
        layers in 1usize..12,
        width in 1usize..5,
    ) {
        let dag = generators::random_layered(seed, layers, width, 0.3, 3);
        let n = dag.len();
        let mut sim = Simulator::new(
            SimConfig::new(Arc::new(topo), policy)
                .cost(Arc::new(UniformCost::new(1e-4)))
                .seed(seed),
        );
        let st = sim.run(&dag).expect("must complete");
        prop_assert_eq!(st.tasks, n);
        let committed: usize = st.all_places.values().sum();
        prop_assert_eq!(committed, n);
    }

    /// Determinism: identical seeds and configs give identical stats,
    /// even under a time-varying environment.
    #[test]
    fn sim_is_deterministic(policy in arb_policy(), seed in any::<u64>()) {
        let mk = || {
            let topo = Arc::new(Topology::tx2());
            let mut sim = Simulator::new(
                SimConfig::new(Arc::clone(&topo), policy)
                    .cost(Arc::new(UniformCost::new(1e-3)))
                    .seed(seed),
            );
            sim.set_env(
                Environment::interference_free(topo)
                    .and(Modifier::compute_corunner(CoreId(0))),
            );
            let dag = generators::layered(TaskTypeId(0), 3, 60);
            sim.run(&dag).unwrap()
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.all_places, b.all_places);
        prop_assert_eq!(a.steals, b.steals);
    }

    /// Affinity safety: tasks restricted to a node only ever commit on
    /// that node's cores, under any policy.
    #[test]
    fn sim_respects_affinity(policy in arb_policy(), seed in any::<u64>()) {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let mut dag = Dag::new("affine");
        let mut prev: Option<das::dag::TaskId> = None;
        for i in 0..30u64 {
            let node = (i % 2) as usize;
            let prio = if i % 3 == 0 { Priority::High } else { Priority::Low };
            let id = dag.add_task_meta(TaskMeta::new(TaskTypeId(0), prio).with_affinity(node));
            dag.set_tag(id, node as u64);
            if let Some(p) = prev {
                dag.add_edge(p, id);
            }
            prev = Some(id);
        }
        let mut sim = Simulator::new(
            SimConfig::new(Arc::clone(&topo), policy)
                .cost(Arc::new(UniformCost::new(1e-4)))
                .seed(seed),
        );
        sim.record_trace(true);
        sim.run(&dag).unwrap();
        // Every member core of every committed assembly, not only its
        // leader, is on the task's node (the task's tag).
        let trace = sim.take_trace();
        prop_assert!(trace.spans.len() >= dag.len());
        for span in &trace.spans {
            let cluster_node = topo.cluster_of(CoreId(span.core)).node;
            prop_assert_eq!(
                cluster_node, span.tag as usize, "core {} ran node-{} task", span.core, span.tag
            );
        }
    }

    /// `ExecExtras::absorb` is an order-insensitive fold: merging the
    /// same set of per-node records in any arrival order must yield the
    /// same cluster-wide record, or the cluster report would depend on
    /// which node answered the stats gather first.
    #[test]
    fn extras_absorb_is_order_insensitive(
        parts in prop::collection::vec(arb_extras(), 0..8),
        seed in 0u64..u64::MAX,
    ) {
        let mut a = ExecExtras::default();
        for p in parts.clone() {
            a.absorb(p);
        }
        let mut reordered = parts;
        shuffle(&mut reordered, seed | 1);
        let mut b = ExecExtras::default();
        for p in reordered {
            b.absorb(p);
        }
        prop_assert_eq!(a, b);
    }
}
