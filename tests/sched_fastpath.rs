//! The O(1) scheduling fast paths must be *refactorings*, not
//! behaviour changes:
//!
//! * the aggregate-cached [`Ptt::estimate`] must equal the from-scratch
//!   cluster rescan it replaced (property test over arbitrary
//!   interleaved `update`/`seed` sequences);
//! * the indexed [`Ptt::global_search`] must name exactly the place the
//!   `places()` sweep it replaced names, for every argument combination,
//!   on every topology shape, with searches interleaved between writes;
//! * the sim engine's idle-set wake-ups (plus the stealable-entry count
//!   and assembly recycling that ride along) must produce bit-identical
//!   traces and stats to the old every-core broadcast, which is kept
//!   behind [`Simulator::set_broadcast_wakeups`] exactly for this test.

use das::core::{Policy, Ptt, TaskTypeId, WeightRatio};
use das::dag::generators;
use das::sim::{cost::UniformCost, Environment, Modifier, Scenario, SimConfig, Simulator};
use das::topology::{CoreId, ExecutionPlace, Topology};
use das::workloads::arrivals::{JobShape, StreamConfig};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// PTT aggregate cache vs from-scratch recomputation
// ---------------------------------------------------------------------

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::tx2()),
        Just(Topology::haswell_2x8()),
        Just(Topology::haswell_2x10()),
        Just(Topology::symmetric(5)),
        (1usize..4, 1usize..6).prop_map(|(b, l)| Topology::big_little(b, l, 2.0)),
    ]
}

/// One write against the table: seed or update, on any core and any
/// width of the global axis (including widths invalid for the core's
/// cluster — both paths must reject those identically), with values
/// spanning the guard cases (non-finite, non-positive) too.
fn arb_writes() -> impl Strategy<Value = Vec<(bool, usize, usize, f64)>> {
    prop::collection::vec(
        (
            any::<bool>(),
            0usize..64,
            0usize..6,
            prop_oneof![
                1e-6f64..1e3,
                Just(0.0),
                Just(-1.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
        ),
        1..40,
    )
}

/// `a` and `b` differ only by floating-point association order (the
/// cache folds deltas in observation order, the rescan sums entries in
/// core order). Under cancellation the drift is bounded by ULPs of the
/// *largest intermediate* — e.g. a 1e3 seed overwritten by 1e-6 leaves
/// the delta-folded sum at `fl(1e3 + fl(1e-6 - 1e3))`, off the exact
/// 1e-6 by ~1e-13 absolute — so the tolerance must scale with the
/// largest value ever written (`scale`), not with the results alone.
fn approx_eq(a: f64, b: f64, scale: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(scale)
}

/// The oracle for [`Ptt::estimate`]: the pre-aggregate algorithm,
/// recomputing the cluster-sibling mean from scratch over the public
/// `predict`, O(cluster size) per call.
fn estimate_rescan(ptt: &Ptt, core: CoreId, width: usize) -> Option<f64> {
    let raw = ptt.predict(core, width)?;
    if raw > 0.0 {
        return Some(raw);
    }
    let (mut sum, mut n) = (0.0, 0u32);
    for c in ptt.topology().cluster_of(core).cores() {
        if let Some(v) = ptt.predict(c, width).filter(|&v| v > 0.0) {
            sum += v;
            n += 1;
        }
    }
    Some(if n > 0 { sum / f64::from(n) } else { 0.0 })
}

/// The oracle for [`Ptt::global_search`] (all widths, all nodes): a
/// brute-force sweep of `places()` over [`estimate_rescan`], with the
/// library's rule — strict `<`, so the first minimum in `places()`
/// order wins.
fn global_search_rescan(ptt: &Ptt, minimize_cost: bool) -> ExecutionPlace {
    let mut best: Option<(f64, ExecutionPlace)> = None;
    for place in ptt.topology().places() {
        let t = estimate_rescan(ptt, place.leader, place.width).expect("places() are valid");
        let cost = if minimize_cost {
            t * place.width as f64
        } else {
            t
        };
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, place));
        }
    }
    best.expect("topology has at least one place").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_estimate_equals_from_scratch_recomputation(
        topo in arb_topology(),
        writes in arb_writes(),
    ) {
        let topo = Arc::new(topo);
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        let widths = topo.all_widths().to_vec();
        let mut max_written = 1.0f64;
        for &(is_seed, core, width_pick, value) in &writes {
            let core = CoreId(core % topo.num_cores());
            let width = widths[width_pick % widths.len()];
            if value.is_finite() && value > 0.0 {
                max_written = max_written.max(value);
            }
            if is_seed {
                ptt.seed(core, width, value);
            } else if let Some(place) = topo.place(core, width) {
                ptt.update(place, value);
            }
        }
        // Every slot of the table agrees with the reference, valid and
        // unexplored alike.
        for c in topo.cores() {
            for &w in topo.all_widths() {
                let cached = ptt.estimate(c, w);
                let rescan = estimate_rescan(&ptt, c, w);
                match (cached, rescan) {
                    (None, None) => {}
                    (Some(a), Some(b)) => prop_assert!(
                        approx_eq(a, b, max_written),
                        "({c}, w={w}): cached {a} vs rescan {b}"
                    ),
                    _ => prop_assert!(false, "({c}, w={w}): validity differs"),
                }
            }
        }
        // And the search decisions built on it agree exactly.
        for minimize_cost in [false, true] {
            let a = ptt.global_search(minimize_cost, false, None);
            let b = global_search_rescan(&ptt, minimize_cost);
            prop_assert_eq!((a.leader, a.width), (b.leader, b.width));
        }
    }
}

// ---------------------------------------------------------------------
// PTT arg-min index vs the places() sweep
// ---------------------------------------------------------------------

/// [`arb_topology`] plus the shapes the per-`(cluster, width)` index
/// has to get right: several nodes, 10-core clusters whose tail cores
/// lead no width-4/8 place, and more than two clusters of many slots.
fn arb_indexed_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        arb_topology(),
        Just(Topology::grid(2, 2, 10)),
        Just(Topology::haswell_cluster(2)),
        Just(Topology::grid(1, 3, 16)),
    ]
}

/// [`arb_writes`] with two values in five drawn from a few powers of two,
/// so equal entries — and equal costs across widths (`4 × 1 = 2 × 2`) —
/// turn up in different clusters and the `places()`-order tie-break
/// decides.
fn arb_tying_writes() -> impl Strategy<Value = Vec<(bool, usize, usize, f64)>> {
    prop::collection::vec(
        (
            any::<bool>(),
            0usize..64,
            0usize..6,
            prop_oneof![
                prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),
                prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),
                1e-6f64..1e3,
                1e-6f64..1e3,
                prop::sample::select(vec![0.0, -1.0, f64::NAN, f64::INFINITY]),
            ],
        ),
        1..40,
    )
}

/// The oracle for the indexed [`Ptt::global_search`]: the sweep it
/// replaced — strict `<` over `places()`, filters applied per place —
/// reading the public [`Ptt::estimate`], i.e. the very floats the index
/// compares, so the two must agree exactly.
fn global_search_sweep(
    ptt: &Ptt,
    minimize_cost: bool,
    width_one_only: bool,
    node: Option<usize>,
) -> ExecutionPlace {
    let topo = ptt.topology();
    let mut best: Option<(f64, ExecutionPlace)> = None;
    for place in topo.places() {
        if (width_one_only && place.width != 1)
            || node.is_some_and(|n| topo.cluster_of(place.leader).node != n)
        {
            continue;
        }
        let t = ptt
            .estimate(place.leader, place.width)
            .expect("places() are valid");
        let cost = if minimize_cost {
            t * place.width as f64
        } else {
            t
        };
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, place));
        }
    }
    best.expect("every node has a place").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_global_search_equals_the_places_sweep(
        topo in arb_indexed_topology(),
        writes in arb_tying_writes(),
    ) {
        let topo = Arc::new(topo);
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        let widths = topo.all_widths().to_vec();
        let nodes: Vec<Option<usize>> =
            std::iter::once(None).chain((0..topo.num_nodes()).map(Some)).collect();
        // Search before the first write and after every one: each write
        // re-dirties a slot the previous round of searches cached.
        let check = |step: usize| {
            for minimize_cost in [false, true] {
                for width_one_only in [false, true] {
                    for &node in &nodes {
                        let a = ptt.global_search(minimize_cost, width_one_only, node);
                        let b = global_search_sweep(&ptt, minimize_cost, width_one_only, node);
                        prop_assert_eq!(
                            (a.leader, a.width),
                            (b.leader, b.width),
                            "after {} writes, minimize_cost={}, width_one_only={}, node={:?}",
                            step, minimize_cost, width_one_only, node
                        );
                    }
                }
            }
        };
        check(0);
        for (k, &(is_seed, core, width_pick, value)) in writes.iter().enumerate() {
            let core = CoreId(core % topo.num_cores());
            let width = widths[width_pick % widths.len()];
            if is_seed {
                ptt.seed(core, width, value);
            } else if let Some(place) = topo.place(core, width) {
                ptt.update(place, value);
            }
            check(k + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Idle-set wake-ups vs the every-core broadcast
// ---------------------------------------------------------------------

fn stream_sim(policy: Policy, topo: &Arc<Topology>, broadcast: bool, env: bool) -> Simulator {
    let mut sim = Simulator::new(
        SimConfig::new(Arc::clone(topo), policy)
            .seed(0xda5_2026)
            .cost(Arc::new(UniformCost::new(1e-3))),
    );
    sim.set_broadcast_wakeups(broadcast);
    if env {
        sim.set_env(
            Environment::interference_free(Arc::clone(topo))
                .and(Modifier::compute_corunner(CoreId(0))),
        );
    }
    sim
}

#[test]
fn idle_set_wakeups_match_broadcast_on_multi_job_streams() {
    // Every policy, with and without interference: the idle-set engine
    // must retire the same jobs with the same stats as the broadcast
    // reference, bit for bit (StreamStats is all-f64 PartialEq).
    let topo = Arc::new(Topology::tx2());
    let jobs = StreamConfig::poisson(17, 24, 300.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 5,
        })
        .generate();
    for policy in Policy::ALL {
        for env in [false, true] {
            // Both engines go through the incremental session path
            // (submit + drain) — the façade's machinery.
            let drain = |mut sim: Simulator, label: &str| {
                for spec in &jobs {
                    sim.submit(spec.clone())
                        .unwrap_or_else(|e| panic!("{policy} {label}: {e}"));
                }
                sim.drain()
                    .unwrap_or_else(|e| panic!("{policy} {label}: {e}"))
            };
            let a = drain(stream_sim(policy, &topo, false, env), "idle-set");
            let b = drain(stream_sim(policy, &topo, true, env), "broadcast");
            assert_eq!(a, b, "{policy} env={env}");
        }
    }
}

#[test]
fn idle_set_wakeups_match_broadcast_traces_and_run_stats() {
    // Single-DAG runs with tracing on: identical spans (core, start,
    // end, task, place of every execution) prove the event streams are
    // interchangeable, not just the aggregates.
    let topo = Arc::new(Topology::tx2());
    let dag = generators::layered(TaskTypeId(0), 4, 120);
    for policy in Policy::ALL {
        let mut a = stream_sim(policy, &topo, false, false);
        let mut b = stream_sim(policy, &topo, true, false);
        a.record_trace(true);
        b.record_trace(true);
        let ra = a.run(&dag).unwrap();
        let rb = b.run(&dag).unwrap();
        assert_eq!(ra, rb, "{policy} RunStats diverged");
        let (ta, tb) = (a.take_trace(), b.take_trace());
        assert_eq!(ta.spans, tb.spans, "{policy} traces diverged");
        assert_eq!(ta.makespan, tb.makespan, "{policy}");
    }
}

#[test]
fn idle_set_wakeups_match_broadcast_on_wavefronts_across_seeds() {
    // Wavefronts give the steal RNG real choices (many concurrent
    // victims), so any perturbation of the Poll-event order would show
    // up in the victim sequence. Sweep seeds to make that likely.
    let topo = Arc::new(Topology::tx2());
    let dag = generators::wavefront(TaskTypeId(0), 18);
    for seed in [1u64, 7, 42, 99, 1234] {
        let mk = |broadcast: bool| {
            let mut sim = Simulator::new(
                SimConfig::new(Arc::clone(&topo), Policy::DamC)
                    .seed(seed)
                    .cost(Arc::new(UniformCost::new(1e-3))),
            );
            sim.set_broadcast_wakeups(broadcast);
            sim.run(&dag).unwrap()
        };
        assert_eq!(mk(false), mk(true), "seed {seed}");
    }
}

#[test]
fn idle_set_wakeups_match_broadcast_on_multi_word_core_sets() {
    // The engine's idle set and stealable-victim index are bitsets and a
    // stealable wake-up rouses all sleepers with one batched event. On
    // the benchmark's shape (256 cores = four full words, rolling
    // interference, a quarter of the tasks critical) and on a machine
    // whose last word is partial (100 cores), the batched engine must
    // replay the per-sleeper broadcast event for event: equal RunStats
    // (events, steals, failed steals, per-core busy time) and traces.
    let dag = generators::layered(TaskTypeId(0), 4, 100);
    for topo in [Topology::grid(1, 16, 16), Topology::grid(1, 5, 20)] {
        let topo = Arc::new(topo);
        for seed in [7u64, 11] {
            let run = |broadcast: bool| {
                let mut sim = Simulator::new(
                    SimConfig::new(Arc::clone(&topo), Policy::DamC)
                        .seed(seed)
                        .cost(Arc::new(UniformCost::new(1e-3))),
                );
                sim.set_env(
                    Scenario::rolling_interference(&topo, 0.5, 0.05, 2.0)
                        .environment(Arc::clone(&topo)),
                );
                sim.set_broadcast_wakeups(broadcast);
                sim.record_trace(true);
                let stats = sim.run(&dag).unwrap();
                (stats, sim.take_trace())
            };
            let (ra, ta) = run(false);
            let (rb, tb) = run(true);
            let cores = topo.num_cores();
            assert!(ra.failed_steals > 0 && ra.steals > 0, "{cores} cores");
            assert_eq!(ra, rb, "{cores} cores, seed {seed}: RunStats diverged");
            assert_eq!(ta.spans, tb.spans, "{cores} cores, seed {seed}");
            assert_eq!(ta.makespan, tb.makespan, "{cores} cores, seed {seed}");
        }
    }
}
