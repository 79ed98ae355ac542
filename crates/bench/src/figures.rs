//! Every figure of the paper's evaluation (§5), and the ablations and
//! extensions beyond it, as data: a figure is a function from a scale
//! divisor to [`Table`]s, and [`REGISTRY`] names them all.
//!
//! Each simulated scenario is built once, through [`SessionBuilder`] +
//! [`Simulator::from_session_with_cost`]: the §5.1 co-runner
//! (`corunner_sim`), the §5.2 DVFS wave (`dvfs`) and the §5.4 socket
//! slowdown shared by K-means and heat (`slowdown`). An ablation is one
//! session setting on the co-runner sweep.

use crate::{pct, Table};
use das_core::exec::{Executor, SessionBuilder};
use das_core::{Policy, WeightRatio};
use das_dag::{generators, Dag};
use das_sim::{Environment, Modifier, PlaceKey, RunStats, SimParams, Simulator};
use das_topology::{ClusterId, CoreId, Topology};
use das_workloads::arrivals::{JobShape, StreamConfig};
use das_workloads::cost::PaperCost;
use das_workloads::synthetic::{self, Kernel};
use das_workloads::{heat, kmeans, types};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Fixed seed of every simulated figure (bit-for-bit reproducible).
const SEED: u64 = 0x1c99_2020;

/// A figure: its tables with the paper's task counts divided by the
/// argument (`1` is paper-sized).
pub(crate) type Figure = fn(usize) -> Vec<Table>;

/// Every figure, by name, in print order.
pub const REGISTRY: [(&str, Figure); 12] = [
    ("table1", table1),
    ("fig04", fig04),
    ("fig05_06", fig05_06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("ablation_steal", ablation_steal),
    ("ablation_ptt_init", ablation_ptt_init),
    ("ablation_sampled_search", ablation_sampled_search),
    ("ablation_exploration", ablation_exploration),
    ("jobs_throughput", jobs_throughput),
];

/// A session of `policy` on `topo` with the harness seed.
fn session(topo: Topology, policy: Policy) -> SessionBuilder {
    SessionBuilder::new(Arc::new(topo), policy).seed(SEED)
}

/// [`session`] on the Jetson TX2 of §5.1–§5.3.
fn tx2(policy: Policy) -> SessionBuilder {
    session(Topology::tx2(), policy)
}

/// `session` with the paper's cost model `cost`, perturbed by `modifier`.
fn perturbed(session: &SessionBuilder, cost: PaperCost, modifier: Modifier) -> Simulator {
    let mut sim = Simulator::from_session_with_cost(session, Arc::new(cost));
    sim.set_env(Environment::interference_free(Arc::clone(&session.topo)).and(modifier));
    sim
}

/// Run `dag` to completion.
fn run(sim: &mut Simulator, dag: &Dag) -> RunStats {
    sim.run(dag).expect("figure DAG runs to completion")
}

/// The §5.1 scenario: a co-runner on Denver core 0 — a copy chain
/// (memory interference) against Copy, a compute chain otherwise.
fn corunner_sim(session: &SessionBuilder, kernel: Kernel) -> Simulator {
    let corunner = match kernel {
        Kernel::Copy => Modifier::memory_corunner(CoreId(0)),
        _ => Modifier::compute_corunner(CoreId(0)),
    };
    perturbed(session, PaperCost::new(), corunner)
}

/// Throughput of the synthetic `kernel` DAG at parallelism `p` in the
/// co-runner scenario.
fn corunner_throughput(session: &SessionBuilder, kernel: Kernel, p: usize, scale: usize) -> f64 {
    let mut sim = corunner_sim(session, kernel);
    run(&mut sim, &synthetic::dag(kernel, p, scale)).throughput()
}

/// The §5.2 DVFS square wave on the Denver cluster: 2035 MHz ↔ 345 MHz,
/// `half_period` seconds each.
fn dvfs(half_period: f64) -> Modifier {
    Modifier::DvfsSquareWave {
        cluster: ClusterId(0),
        low_factor: 345.0 / 2035.0,
        half_period,
        from: 0.0,
        until: f64::INFINITY,
    }
}

/// The §5.4 interfering application: the first `num_cores` cores run at
/// half speed under memory pressure.
fn slowdown(num_cores: usize) -> Modifier {
    Modifier::Slowdown {
        first_core: CoreId(0),
        num_cores,
        factor: 0.5,
        mem_pressure: 0.2,
        from: 0.0,
        until: f64::INFINITY,
    }
}

/// One throughput [tasks/s] table per kernel (panels a–c of Figs. 4 and
/// 7): a row per DAG parallelism 2–6, a column per policy.
fn kernel_sweeps(
    figure: &str,
    scenario: &str,
    policies: impl Fn(Kernel) -> &'static [Policy],
    throughput: impl Fn(&SessionBuilder, Kernel, usize) -> f64,
) -> Vec<Table> {
    let panels = Kernel::ALL.into_iter().zip(["a", "b", "c"]);
    let tables = panels.map(|(kernel, panel)| {
        let policies = policies(kernel);
        let title = format!("{figure}({panel}) {kernel} throughput [tasks/s], {scenario}");
        let mut t = Table::new(title, "parallelism", policies.iter().map(|p| p.name()));
        for p in 2..=6 {
            let cells = policies
                .iter()
                .map(|&policy| throughput(&tx2(policy), kernel, p));
            t.row(p.to_string(), cells.collect());
        }
        t
    });
    tables.collect()
}

/// Row-wise `num / den` over two columns of `t`.
fn ratios(t: &Table, num: Policy, den: Policy) -> impl Iterator<Item = f64> {
    let (a, b) = (t.column(num.name()), t.column(den.name()));
    a.into_iter().zip(b).map(|(a, b)| a / b)
}

/// Table 1: the feature matrix of the evaluated schedulers.
fn table1(_scale: usize) -> Vec<Table> {
    let line = |c: [&str; 4]| format!("{:<8} {:<22} {:<13} {:<18}", c[0], c[1], c[2], c[3]);
    let header = line([
        "Name",
        "[A]symmetry awareness",
        "[M]oldability",
        "Priority placement",
    ]);
    let title = "Table 1. Features summary of all evaluated schedulers";
    let mut t = Table::new(title, header, Vec::<String>::new());
    for p in Policy::ALL {
        let mold = if p.moldable() { "Yes" } else { "No" };
        t.row(
            line([
                p.name(),
                p.asymmetry_awareness(),
                mold,
                p.priority_placement(),
            ]),
            vec![],
        );
    }
    vec![t]
}

/// Fig. 4: throughput of every scheduler under the §5.1 co-runner, per
/// kernel and DAG parallelism. Panel (a) adds the dHEFT reference
/// scheduler (§6): dynamic like DAM, but width-1 only and never
/// stealing, so it can neither mold nor rebalance.
fn fig04(scale: usize) -> Vec<Table> {
    let policies = |k| match k {
        Kernel::MatMul => &Policy::WITH_EXTENSIONS[..],
        _ => &Policy::ALL[..],
    };
    let scenario = "co-runner on Denver core 0";
    let throughput = |s: &_, k, p| corunner_throughput(s, k, p, scale);
    let mut tables = kernel_sweeps("Fig. 4", scenario, policies, throughput);
    for t in &mut tables {
        for base in [Policy::Rws, Policy::Fa, Policy::FamC] {
            let best = ratios(t, Policy::DamC, base).fold(f64::MIN, f64::max);
            t.headline(format!("DAM-C / {base}, best"), best);
        }
    }
    tables
}

/// Figs. 5 and 6: where priority tasks execute, and how much kernel work
/// each core accumulates, for MatMul at parallelism 2 under the
/// co-runner.
fn fig05_06(scale: usize) -> Vec<Table> {
    let runs = Policy::ALL.map(|policy| {
        let mut sim = corunner_sim(&tx2(policy), Kernel::MatMul);
        run(&mut sim, &synthetic::dag(Kernel::MatMul, 2, scale))
    });
    let names = Policy::ALL.map(Policy::name);
    let title =
        "Fig. 5 — priority tasks per execution place [%], MatMul, parallelism 2, co-runner on C0";
    let shares = runs.each_ref().map(|st| {
        let total = st.high_priority_places.values().sum();
        let share = st
            .high_priority_places
            .iter()
            .map(|(&k, &n)| (k, pct(n, total)));
        share.collect()
    });
    let fig5 = by_place(Table::new(title, "place", names), "C", &shares);

    let title = "Fig. 6 — per-core kernel work time [s] (excl. runtime activity and idleness)";
    let cores = (0..Topology::tx2().num_cores()).map(|c| format!("core{c}"));
    let columns = cores.chain(["total".into(), "makespan".into()]);
    let mut fig6 = Table::new(title, "policy", columns);
    for (name, st) in names.into_iter().zip(&runs) {
        let total = st.core_work.iter().sum();
        fig6.row(name, [&st.core_work[..], &[total, st.makespan]].concat());
    }
    vec![fig5, fig6]
}

/// `t` with one row per execution place any of `columns` holds, labelled
/// `({core_prefix}core,width)`; absent places read 0.
fn by_place(mut t: Table, core_prefix: &str, columns: &[BTreeMap<PlaceKey, f64>]) -> Table {
    let places: BTreeSet<PlaceKey> = columns.iter().flat_map(|c| c.keys().copied()).collect();
    for place @ (core, width) in places {
        let cells = columns
            .iter()
            .map(|c| c.get(&place).copied().unwrap_or(0.0));
        t.row(format!("({core_prefix}{core},{width})"), cells.collect());
    }
    t
}

/// Fig. 7: throughput of every scheduler under the §5.2 DVFS wave (5 s +
/// 5 s) on the Denver cluster.
fn fig07(scale: usize) -> Vec<Table> {
    let throughput = |s: &_, k, p| {
        let mut sim = perturbed(s, PaperCost::new(), dvfs(5.0));
        run(&mut sim, &synthetic::dag(k, p, scale)).throughput()
    };
    let scenario = "DVFS square wave on Denver";
    let mut tables = kernel_sweeps("Fig. 7", scenario, |_| &Policy::ALL, throughput);
    // §5.2 quotes Copy: DAM-C ≈ 2.2× / 1.9× over RWS / RWSM-C, +17 % /
    // +12 % over FA / FAM-C, on average.
    let copy = &mut tables[1];
    for base in [Policy::Rws, Policy::RwsmC, Policy::Fa, Policy::FamC] {
        let r: f64 = ratios(copy, Policy::DamC, base).sum();
        copy.headline(format!("DAM-C / {base}, mean"), r / copy.rows.len() as f64);
    }
    tables
}

/// One Fig. 8 cell: DAM-C throughput on a parallelism-2 MatMul DAG (the
/// critical path bounds it, so a mistrained model shows) under a DVFS
/// wave of `half_period`. The leader-side measurement jitter, ±10 % of
/// a tile-32 task and ±1 % of a tile-64 one, is why the weight ratio
/// only matters for tiny tiles.
fn fig08_run(tile: usize, ratio: WeightRatio, tasks: usize, half_period: f64) -> f64 {
    let params = SimParams {
        obs_noise: 1.2e-4,
        ..SimParams::default()
    };
    let session = tx2(Policy::DamC).ratio(ratio).sim_params(params);
    let mut sim = perturbed(&session, PaperCost::with_tile(tile), dvfs(half_period));
    let dag = generators::layered_total(types::MATMUL, 2, tasks);
    run(&mut sim, &dag).throughput()
}

/// Fig. 8: DAM-C's sensitivity to the MatMul tile size and the PTT
/// weighted-update ratio (§5.3). The paper finds the ratio matters only
/// at tile 32, best at 1/5, with a ≈36 % spread.
fn fig08(scale: usize) -> Vec<Table> {
    let mut ratios = [1, 2, 3, 4].map(|n| WeightRatio::new(n, 5)).to_vec();
    ratios.push(WeightRatio::replace());
    let tasks = (32_000 / scale).max(600);
    let title = format!(
        "Fig. 8 — DAM-C throughput [tasks/s], MatMul tile × PTT weight ratio, DVFS ({tasks} tasks)"
    );
    let mut t = Table::new(title, "tile", ratios.iter().map(|r| r.label()));
    for tile in [32, 64, 80, 96] {
        // Calibrate the wave to ~8 full cycles per run whatever the tile
        // size: a fixed 5 s phase would hold a whole tile-32 run.
        let probe = tasks as f64 / fig08_run(tile, WeightRatio::PAPER, tasks, f64::INFINITY);
        let cells = ratios
            .iter()
            .map(|&r| fig08_run(tile, r, tasks, probe / 16.0));
        t.row(tile.to_string(), cells.collect());
    }
    let tile32 = &t.rows[0].1;
    let best = tile32.iter().copied().fold(f64::MIN, f64::max);
    let worst = tile32.iter().copied().fold(f64::MAX, f64::min);
    t.headline("tile 32 best / worst ratio (paper ≈1.36)", best / worst);
    vec![t]
}

/// Iterations of Fig. 9, and those during which the co-runner occupies
/// socket 0.
const KMEANS_ITERS: usize = 100;
const KMEANS_INTERFERENCE: Range<usize> = 20..70;

/// Fig. 9: K-means on a 16-core dual-socket Haswell with a co-runner on
/// socket 0 during iterations 20–70 (§5.4). (a) per-iteration time;
/// (b)/(c) tasks per execution place for RWS and DAM-P, read in three
/// windows.
fn fig09(scale: usize) -> Vec<Table> {
    let chunks = (64 / scale).max(8);
    let policies = [Policy::DamP, Policy::DamC, Policy::Rws];
    let runs = policies.map(|policy| {
        let session = session(Topology::haswell_2x8(), policy);
        let mut sim = Simulator::from_session_with_cost(&session, Arc::new(PaperCost::new()));
        let iteration = |it: usize| {
            let env = Environment::interference_free(Arc::clone(&session.topo));
            let interfered = KMEANS_INTERFERENCE.contains(&it);
            sim.set_env(if interfered {
                env.and(slowdown(8))
            } else {
                env
            });
            run(&mut sim, &kmeans::iteration_dag(chunks, it as u64))
        };
        (0..KMEANS_ITERS).map(iteration).collect::<Vec<_>>()
    });

    let title = format!("Fig. 9(a) — K-means per-iteration time [s], co-runner on socket 0 during iterations 20..70 ({chunks} chunks/iteration)");
    let mut a = Table::new(title, "iteration", policies.map(Policy::name));
    for it in 0..KMEANS_ITERS {
        let times = runs.iter().map(|r| r[it].makespan);
        a.row(it.to_string(), times.collect());
    }
    let (start, end) = (KMEANS_INTERFERENCE.start, KMEANS_INTERFERENCE.end);
    for (policy, r) in policies.iter().zip(&runs) {
        for (window, range) in [
            ("before", 5..start),
            ("during", start..end),
            ("after", end..KMEANS_ITERS),
        ] {
            let mean =
                r[range.clone()].iter().map(|st| st.makespan).sum::<f64>() / range.len() as f64;
            a.headline(format!("{policy} mean {window} [s]"), mean);
        }
    }

    let windows = [0..start, start..end, end..KMEANS_ITERS];
    let names = ["before (0..20)", "during (20..70)", "after (70..100)"];
    let mut tables = vec![a];
    for (policy, r, panel) in [(Policy::Rws, &runs[2], "b"), (Policy::DamP, &runs[0], "c")] {
        let counts = windows.clone().map(|range| {
            let mut agg = BTreeMap::new();
            for (&k, &n) in r[range].iter().flat_map(|st| &st.all_places) {
                *agg.entry(k).or_insert(0.0) += n as f64;
            }
            agg
        });
        let title = format!("Fig. 9({panel}) — tasks per execution place, {policy}");
        tables.push(by_place(Table::new(title, "place", names), "", &counts));
    }
    tables
}

/// Fig. 10: distributed 2-D heat on 4 Haswell nodes (80 cores) with an
/// interfering kernel on 5 cores of node 0's first socket (§5.4).
/// Ghost-exchange tasks are node-affine and critical; FA / FAM-C are
/// dropped because the platform is statically symmetric.
fn fig10(scale: usize) -> Vec<Table> {
    let iters = (60 / scale).max(5);
    let title = format!("Fig. 10 — distributed 2-D heat, 4 nodes × 20 cores, co-runner on 5 cores of node 0 ({iters} iterations)");
    let columns = ["throughput [tasks/s]", "makespan [s]", "steals"];
    let mut t = Table::new(title, "policy", columns);
    let mut thru = BTreeMap::new();
    for policy in Policy::SYMMETRIC {
        let session = session(Topology::haswell_cluster(4), policy);
        let mut sim = perturbed(&session, PaperCost::new(), slowdown(5));
        let st = run(&mut sim, &heat::cluster_dag(4, 16, iters, 1e-3));
        let cells = vec![st.throughput(), st.makespan, st.steals as f64];
        t.row(policy.name(), cells);
        thru.insert(policy, st.throughput());
    }
    for (num, den, paper) in [
        (Policy::DamC, Policy::Rws, " (paper 1.76)"),
        (Policy::DamC, Policy::RwsmC, " (paper 1.17)"),
        (Policy::DamC, Policy::Da, ""),
        (Policy::DamP, Policy::Da, ""),
    ] {
        t.headline(format!("{num} / {den}{paper}"), thru[&num] / thru[&den]);
    }
    vec![t]
}

/// Ablation: what forbidding the stealing of high-priority tasks
/// (§4.1.2) buys DAM-C and DAM-P under the Fig. 4(a) co-runner.
fn ablation_steal(scale: usize) -> Vec<Table> {
    let variants = [Policy::DamC, Policy::DamP]
        .map(|p| [(p, false), (p, true)])
        .concat();
    let label = |&(p, allow): &(Policy, bool)| match allow {
        false => format!("{p} no-steal"),
        true => format!("{p} steal-ok"),
    };
    let title =
        "Ablation — stealing of high-priority tasks: throughput [tasks/s], MatMul, co-runner on C0";
    let mut t = Table::new(title, "parallelism", variants.iter().map(label));
    for p in [2, 4, 6] {
        let cells = variants.iter().map(|&(policy, allow)| {
            let session = tx2(policy).allow_high_priority_steal(allow);
            corunner_throughput(&session, Kernel::MatMul, p, scale)
        });
        t.row(p.to_string(), cells.collect());
    }
    vec![t]
}

/// Ablation: PTT initialisation. §4.1.1 zero-initialises entries so
/// every place is tried once; a pessimistic prior never explores and
/// locks DAM-C into whichever place its first observation improves.
fn ablation_ptt_init(scale: usize) -> Vec<Table> {
    let title =
        "Ablation — PTT initialisation: DAM-C throughput [tasks/s], MatMul, co-runner on C0";
    let mut t = Table::new(title, "parallelism", ["zero-init", "pessimistic"]);
    for p in [2, 4, 6] {
        let cells = [false, true].map(|pessimistic| {
            let mut sim = corunner_sim(&tx2(Policy::DamC), Kernel::MatMul);
            let ptt = sim.scheduler().ptts().table(types::MATMUL);
            for place in sim.config().session.topo.places().filter(|_| pessimistic) {
                ptt.seed(place.leader, place.width, 1.0);
            }
            run(&mut sim, &synthetic::dag(Kernel::MatMul, p, scale)).throughput()
        });
        t.row(p.to_string(), cells.to_vec());
    }
    vec![t]
}

/// Ablation: the representative-row sampled global search against the
/// exhaustive one (the paper's scalable-prediction future work), by
/// schedule quality under the Fig. 4 co-runner at parallelism 4. The
/// sampled search keeps throughput within a few percent: symmetric
/// clusters make any row representative. What it costs per decision is
/// `das_benchmark`'s `ptt.global_search_ns.*` and the `scalable_search`
/// example's to measure.
fn ablation_sampled_search(scale: usize) -> Vec<Table> {
    let title = "Ablation — sampled vs exhaustive global PTT search: DAM-C throughput, MatMul, parallelism 4, co-runner on C0";
    let columns = ["places", "exhaustive [t/s]", "sampled [t/s]", "quality [%]"];
    let mut t = Table::new(title, "platform", columns);
    for (name, topo) in [
        ("TX2", Topology::tx2()),
        ("haswell 2x10", Topology::haswell_2x10()),
        ("cluster 4x2x10", Topology::haswell_cluster(4)),
    ] {
        let full = session(topo, Policy::DamC);
        let qf = corunner_throughput(&full, Kernel::MatMul, 4, scale);
        let qs = corunner_throughput(&full.clone().sampled_search(true), Kernel::MatMul, 4, scale);
        let places = full.topo.places().count() as f64;
        t.row(name, vec![places, qf, qs, 100.0 * qs / qf]);
    }
    vec![t]
}

/// One exploration run: DAM-C exploring every `explore_every`-th global
/// placement, a co-runner on Denver core 1 until `until`. Returns
/// throughput and the final PTT belief about `(C1, 1)`.
fn exploration_run(explore_every: u64, until: f64, scale: usize) -> (f64, f64) {
    let corunner = Modifier::CoRunner {
        core: CoreId(1),
        cpu_share: 0.7,
        mem_pressure: 0.0,
        from: 0.0,
        until,
    };
    let session = tx2(Policy::DamC).explore_every(explore_every);
    let mut sim = perturbed(&session, PaperCost::new(), corunner);
    let st = run(&mut sim, &synthetic::dag(Kernel::MatMul, 2, scale));
    let ptt = sim.scheduler().ptts().table(types::MATMUL);
    (st.throughput(), ptt.predict(CoreId(1), 1).unwrap_or(0.0))
}

/// Ablation: periodic exploration against stale pessimism once an
/// interference episode ends (the co-runner stays for the first half of
/// the run). Stale pessimism self-heals here — stealable low-priority
/// tasks keep re-measuring every core and the cluster-symmetry prior
/// spreads each observation — so exploration is pure overhead; it
/// would matter for a critical type no other channel re-measures.
fn ablation_exploration(scale: usize) -> Vec<Table> {
    let (base, _) = exploration_run(0, f64::INFINITY, scale);
    let dag_tasks = synthetic::dag(Kernel::MatMul, 2, scale).len() as f64;
    let episode_end = 0.5 * dag_tasks / base;
    let title = "Ablation — periodic exploration after interference ends: DAM-C, MatMul, co-runner on C1 for the first half";
    let columns = ["throughput [tasks/s]", "final belief (C1,1) [s]"];
    let mut t = Table::new(title, "explore 1/n", columns);
    for (n, label) in [(0, "never (paper)"), (64, "1/64"), (16, "1/16"), (4, "1/4")] {
        let (thru, belief) = exploration_run(n, episode_end, scale);
        t.row(label, vec![thru, belief]);
    }
    t.headline("co-runner leaves at [s]", episode_end);
    vec![t]
}

/// Extension: online multi-job streams on a simulated TX2, driven
/// through the backend-neutral [`Executor`] contract — completed jobs
/// per second and the sojourn (arrival → last commit) distribution a
/// client observes, for a Poisson and a bursty stream of seed 42.
fn jobs_throughput(scale: usize) -> Vec<Table> {
    let (seed, jobs, rate, burst) = (42, (200 / scale).max(8), 150.0, 4);
    let poisson = format!("Poisson arrivals ({rate}/s)");
    let bursty = format!("Bursty arrivals ({rate}/s, bursts of {burst})");
    let streams = [
        (poisson, StreamConfig::poisson(seed, jobs, rate)),
        (bursty, StreamConfig::bursty(seed, jobs, rate, burst)),
    ];
    let columns = [
        "jobs/s",
        "p50 sojourn [s]",
        "p95 sojourn [s]",
        "p99 sojourn [s]",
        "p99 queueing [s]",
    ];
    let shape = JobShape::Mixed {
        parallelism: 4,
        layers: 6,
    };
    let tables = streams.map(|(arrivals, stream)| {
        let stream = stream.shape(shape).generate();
        let title = format!("Job stream — {arrivals}, {jobs} jobs");
        let mut t = Table::new(title, "policy", columns);
        for policy in [Policy::Rws, Policy::RwsmC, Policy::DamC, Policy::DamP] {
            let session = SessionBuilder::new(Arc::new(Topology::tx2()), policy).seed(seed);
            let r = Simulator::from_session(&session).run_stream(stream.clone());
            let r = r.expect("stream completes");
            let mut cells = vec![r.jobs_per_sec()];
            cells.extend([0.50, 0.95, 0.99].map(|q| r.sojourn_percentile(q).unwrap_or(0.0)));
            cells.push(r.queueing_percentile(0.99).unwrap_or(0.0));
            t.row(policy.name(), cells);
        }
        t
    });
    tables.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the renderer and the golden file rely on: unique figure
    /// names, one cell per column in every row, and finite numbers.
    /// Run coarse (scale 200): the golden test covers the values.
    #[test]
    fn registry_is_well_formed() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "figure names must be unique");
        for (name, figure) in REGISTRY {
            for t in figure(200) {
                for (label, cells) in &t.rows {
                    assert_eq!(cells.len(), t.columns.len(), "{name}: row {label:?}");
                    assert!(cells.iter().all(|v| v.is_finite()), "{name}: row {label:?}");
                }
                for (h, v) in &t.headlines {
                    assert!(v.is_finite(), "{name}: headline {h:?} = {v}");
                }
            }
        }
    }
}
