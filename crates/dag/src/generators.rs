//! Ready-made DAG shapes: the paper's synthetic benchmark (§4.2.2), the
//! interfering task chain (§5.1), and generic shapes for tests.

use crate::{Dag, TaskId};
use das_core::{Priority, TaskMeta, TaskTypeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The paper's synthetic DAG (§4.2.2): `layers` layers of `parallelism`
/// same-type tasks; in every layer exactly one task is marked critical
/// (high priority), and *the critical task* releases the whole next layer.
///
/// Consequences, as exploited in the evaluation:
/// * DAG parallelism == `parallelism` (for layers ≥ 2 it converges to it);
/// * the fraction of high-priority tasks is `1/parallelism` (50 % at
///   parallelism 2, matching §5.1);
/// * a delayed critical task stalls the release of the next layer, which
///   is exactly why criticality-aware placement matters.
pub fn layered(ty: TaskTypeId, parallelism: usize, layers: usize) -> Dag {
    assert!(parallelism >= 1 && layers >= 1);
    let mut d = Dag::new(format!("layered-p{parallelism}-l{layers}"));
    d.reserve(parallelism * layers);
    let mut prev_critical: Option<TaskId> = None;
    for layer in 0..layers {
        let mut critical = None;
        for i in 0..parallelism {
            let prio = if i == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let id = d.add_task(ty, prio);
            d.set_tag(id, layer as u64);
            if i == 0 {
                critical = Some(id);
            }
            if let Some(c) = prev_critical {
                d.add_edge(c, id);
            }
        }
        prev_critical = critical;
    }
    d
}

/// Synthetic DAG sized like the paper: the total task count is fixed per
/// kernel (32 000 MatMul / 10 000 Copy / 20 000 Stencil) and the number of
/// layers derived from the requested parallelism.
pub fn layered_total(ty: TaskTypeId, parallelism: usize, total_tasks: usize) -> Dag {
    let layers = (total_tasks / parallelism).max(1);
    layered(ty, parallelism, layers)
}

/// A single chain of `n` dependent tasks — the co-running interference
/// application of §5.1 ("a single chain of tasks composed of matrix
/// multiplication kernels").
pub fn chain(ty: TaskTypeId, n: usize) -> Dag {
    assert!(n >= 1);
    let mut d = Dag::new(format!("chain-{n}"));
    d.reserve(n);
    let mut prev: Option<TaskId> = None;
    for i in 0..n {
        let id = d.add_task(ty, Priority::Low);
        d.set_tag(id, i as u64);
        if let Some(p) = prev {
            d.add_edge(p, id);
        }
        prev = Some(id);
    }
    d
}

/// Fork–join: a source task releases `width` children per layer, all of
/// which join into a barrier task before the next layer. The barrier
/// tasks are critical. Used by tests and the runtime examples.
pub fn fork_join(ty: TaskTypeId, width: usize, layers: usize) -> Dag {
    assert!(width >= 1 && layers >= 1);
    let mut d = Dag::new(format!("forkjoin-w{width}-l{layers}"));
    let mut join = d.add_task(ty, Priority::High);
    for layer in 0..layers {
        let kids: Vec<_> = (0..width)
            .map(|_| {
                let id = d.add_task(ty, Priority::Low);
                d.set_tag(id, layer as u64);
                d.add_edge(join, id);
                id
            })
            .collect();
        let next = d.add_task(ty, Priority::High);
        d.set_tag(next, layer as u64);
        for k in kids {
            d.add_edge(k, next);
        }
        join = next;
    }
    d
}

/// A random layered DAG for property tests: `layers` layers of up to
/// `max_width` tasks; every task gets at least one predecessor in the
/// previous layer (so the DAG is connected layer-to-layer) plus random
/// extra edges with probability `p_extra`. Always acyclic by
/// construction.
pub fn random_layered(seed: u64, layers: usize, max_width: usize, p_extra: f64, types: u16) -> Dag {
    assert!(layers >= 1 && max_width >= 1 && types >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut d = Dag::new(format!("random-{seed}"));
    let mut prev: Vec<TaskId> = Vec::new();
    for layer in 0..layers {
        let width = rng.gen_range(1..=max_width);
        let mut cur = Vec::with_capacity(width);
        for _ in 0..width {
            let ty = TaskTypeId(rng.gen_range(0..types));
            let prio = if rng.gen_bool(0.2) {
                Priority::High
            } else {
                Priority::Low
            };
            let id = d.add_task(ty, prio);
            d.set_tag(id, layer as u64);
            if !prev.is_empty() {
                let p = prev[rng.gen_range(0..prev.len())];
                d.add_edge(p, id);
                for &q in &prev {
                    if q != p && rng.gen_bool(p_extra) {
                        d.add_edge(q, id);
                    }
                }
            }
            cur.push(id);
        }
        prev = cur;
    }
    d
}

/// A data-parallel iteration: `chunks` independent tasks joined by a
/// reduction task, as used by the K-means application. The task with the
/// largest work unit carries the high priority (§5.4: "assign the high
/// priority to the task containing the largest work unit"); chunk 0 gets
/// `large_scale`× the nominal work.
pub fn data_parallel_iteration(
    compute_ty: TaskTypeId,
    reduce_ty: TaskTypeId,
    chunks: usize,
    large_scale: f64,
    iteration: u64,
) -> Dag {
    assert!(chunks >= 1);
    let mut d = Dag::new(format!("datapar-it{iteration}"));
    let reduce = {
        let id = d.add_task_meta(TaskMeta::new(reduce_ty, Priority::Low));
        d.set_tag(id, iteration);
        id
    };
    for c in 0..chunks {
        let prio = if c == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        let id = d.add_task(compute_ty, prio);
        d.set_tag(id, iteration);
        if c == 0 {
            d.set_work_scale(id, large_scale);
        }
        d.add_edge(id, reduce);
    }
    d
}

/// A 2-D wavefront over an `n × n` grid: task `(i, j)` depends on
/// `(i-1, j)` and `(i, j-1)`. The anti-diagonal sweep makes available
/// parallelism ramp from 1 up to `n` and back down to 1 — a classic
/// dynamic-parallelism stressor (Smith–Waterman, dense triangular
/// solves). The main diagonal is marked critical: it is the unique
/// longest path's backbone.
pub fn wavefront(ty: TaskTypeId, n: usize) -> Dag {
    assert!(n >= 1);
    let mut d = Dag::new(format!("wavefront-{n}x{n}"));
    d.reserve(n * n);
    let idx = |i: usize, j: usize| TaskId((i * n + j) as u32);
    for i in 0..n {
        for j in 0..n {
            let prio = if i == j {
                Priority::High
            } else {
                Priority::Low
            };
            let id = d.add_task(ty, prio);
            debug_assert_eq!(id, idx(i, j));
            d.set_tag(id, (i + j) as u64); // anti-diagonal index
        }
    }
    for i in 0..n {
        for j in 0..n {
            if i + 1 < n {
                d.add_edge(idx(i, j), idx(i + 1, j));
            }
            if j + 1 < n {
                d.add_edge(idx(i, j), idx(i, j + 1));
            }
        }
    }
    d
}

/// Task type ids used by [`cholesky_like`], in dependency order.
/// Four distinct types means four PTTs get trained — the multi-type
/// stressor the synthetic layered DAGs (single type per DAG) lack.
pub(crate) const CHOLESKY_TYPES: [TaskTypeId; 4] = [
    TaskTypeId(10), // POTRF: panel factorisation (critical path)
    TaskTypeId(11), // TRSM: triangular solve
    TaskTypeId(12), // SYRK: symmetric update
    TaskTypeId(13), // GEMM: trailing update
];

/// A tiled-Cholesky-factorisation task graph over a `b × b` lower-
/// triangular block matrix — the canonical irregular dense linear-algebra
/// DAG (as in PLASMA / OmpSs demos). POTRF tasks lie on the critical path
/// and are marked high priority; TRSM/SYRK/GEMM carry proportionally
/// scaled work (GEMM ≈ 2× SYRK ≈ 2× TRSM in flops per tile).
pub fn cholesky_like(b: usize) -> Dag {
    assert!(b >= 1);
    let [potrf, trsm, syrk, gemm] = CHOLESKY_TYPES;
    let mut d = Dag::new(format!("cholesky-{b}x{b}"));
    // writer[i][j] = last task that wrote block (i, j).
    let mut writer: Vec<Vec<Option<TaskId>>> = vec![vec![None; b]; b];
    let dep = |d: &mut Dag, from: Option<TaskId>, to: TaskId| {
        if let Some(f) = from {
            d.add_edge(f, to);
        }
    };
    for k in 0..b {
        let p = d.add_task(potrf, Priority::High);
        d.set_tag(p, k as u64);
        dep(&mut d, writer[k][k], p);
        writer[k][k] = Some(p);
        for row in writer.iter_mut().take(b).skip(k + 1) {
            let t = d.add_task(trsm, Priority::Low);
            d.set_tag(t, k as u64);
            dep(&mut d, Some(p), t);
            dep(&mut d, row[k], t);
            row[k] = Some(t);
        }
        for i in k + 1..b {
            for j in k + 1..=i {
                let (ty, scale) = if i == j { (syrk, 1.0) } else { (gemm, 2.0) };
                let u = d.add_task(ty, Priority::Low);
                d.set_tag(u, k as u64);
                d.set_work_scale(u, scale);
                dep(&mut d, writer[i][k], u);
                if i != j {
                    dep(&mut d, writer[j][k], u);
                }
                dep(&mut d, writer[i][j], u);
                writer[i][j] = Some(u);
            }
        }
    }
    d
}

/// A binary reduction tree over `leaves` inputs: leaves are independent
/// low-priority tasks; every internal combine node is high priority
/// (each lies on the critical path of its subtree and gates the root).
/// Parallelism halves at every level — the opposite profile from
/// [`wavefront`].
pub fn reduction_tree(ty: TaskTypeId, leaves: usize) -> Dag {
    assert!(leaves >= 1);
    let mut d = Dag::new(format!("reduce-{leaves}"));
    let mut frontier: Vec<TaskId> = (0..leaves)
        .map(|_| {
            let id = d.add_task(ty, Priority::Low);
            d.set_tag(id, 0);
            id
        })
        .collect();
    let mut level = 1u64;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            let join = d.add_task(ty, Priority::High);
            d.set_tag(join, level);
            d.add_edge(pair[0], join);
            d.add_edge(pair[1], join);
            next.push(join);
        }
        frontier = next;
        level += 1;
    }
    d
}

/// A diamond: one source fans out to `width` parallel tasks which join
/// into one sink. Source and sink are critical. The smallest DAG that
/// exhibits both a fan-out and a synchronisation point.
pub fn diamond(ty: TaskTypeId, width: usize) -> Dag {
    assert!(width >= 1);
    let mut d = Dag::new(format!("diamond-{width}"));
    let src = d.add_task(ty, Priority::High);
    let sink = d.add_task(ty, Priority::High);
    for _ in 0..width {
        let mid = d.add_task(ty, Priority::Low);
        d.add_edge(src, mid);
        d.add_edge(mid, sink);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_matches_paper_shape() {
        for p in 2..=6 {
            let d = layered(TaskTypeId(0), p, 200);
            d.validate().unwrap();
            assert_eq!(d.len(), p * 200);
            assert_eq!(d.longest_path_len(), 200);
            assert!((d.dag_parallelism() - p as f64).abs() < 1e-9);
            // One critical task per layer.
            assert_eq!(d.num_high_priority(), 200);
            // Only the critical task releases the next layer.
            for (id, n) in d.iter() {
                if n.meta.priority.is_high() && (n.tag as usize) < 199 {
                    assert_eq!(n.succs.len(), p, "critical {id} releases next layer");
                } else if !n.meta.priority.is_high() {
                    assert!(n.succs.is_empty());
                }
            }
        }
    }

    #[test]
    fn layered_total_sizes_match_section_4_2_2() {
        let mm = layered_total(TaskTypeId(0), 4, 32_000);
        assert_eq!(mm.len(), 32_000);
        let copy = layered_total(TaskTypeId(1), 5, 10_000);
        assert_eq!(copy.len(), 10_000);
        let st = layered_total(TaskTypeId(2), 2, 20_000);
        assert_eq!(st.len(), 20_000);
    }

    #[test]
    fn chain_is_sequential() {
        let d = chain(TaskTypeId(0), 50);
        d.validate().unwrap();
        assert_eq!(d.longest_path_len(), 50);
        assert!((d.dag_parallelism() - 1.0).abs() < 1e-9);
        assert_eq!(d.roots().len(), 1);
    }

    #[test]
    fn fork_join_valid() {
        let d = fork_join(TaskTypeId(0), 8, 10);
        d.validate().unwrap();
        assert_eq!(d.len(), 1 + 10 * 9);
        assert_eq!(d.longest_path_len(), 1 + 2 * 10);
    }

    #[test]
    fn random_layered_always_valid() {
        for seed in 0..20 {
            let d = random_layered(seed, 12, 6, 0.3, 3);
            d.validate().unwrap();
            assert!(d.longest_path_len() >= 12);
        }
    }

    #[test]
    fn data_parallel_iteration_shape() {
        let d = data_parallel_iteration(TaskTypeId(0), TaskTypeId(1), 16, 2.0, 7);
        d.validate().unwrap();
        assert_eq!(d.len(), 17);
        assert_eq!(d.num_high_priority(), 1);
        assert_eq!(d.roots().len(), 16);
        let (big, _) = d.iter().find(|(_, n)| n.meta.priority.is_high()).unwrap();
        assert_eq!(d.node(big).work_scale, 2.0);
        assert_eq!(d.node(big).tag, 7);
    }

    #[test]
    fn wavefront_shape_and_criticality() {
        let d = wavefront(TaskTypeId(0), 5);
        d.validate().unwrap();
        assert_eq!(d.len(), 25);
        // Longest path walks i+j from 0 to 8: 9 tasks.
        assert_eq!(d.longest_path_len(), 9);
        // Diagonal (5 tasks) is critical.
        assert_eq!(d.num_high_priority(), 5);
        // Exactly one root (0,0) and interior in-degrees of 2.
        assert_eq!(d.roots(), vec![TaskId(0)]);
        assert_eq!(d.node(TaskId(6)).num_preds, 2); // (1,1)
                                                    // The single-cell wavefront degenerates to one critical task.
        let one = wavefront(TaskTypeId(0), 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one.num_high_priority(), 1);
    }

    #[test]
    fn cholesky_task_counts_match_formula() {
        for b in 1..=6 {
            let d = cholesky_like(b);
            d.validate().unwrap();
            // b POTRF + b(b-1)/2 TRSM + b(b-1)/2 SYRK + b(b-1)(b-2)/6 GEMM.
            let expect =
                b + b * (b - 1) / 2 + b * (b - 1) / 2 + b * (b - 1) * b.saturating_sub(2) / 6;
            assert_eq!(d.len(), expect, "b={b}");
            assert_eq!(d.num_high_priority(), b, "POTRF tasks are critical");
        }
    }

    #[test]
    fn cholesky_uses_four_task_types_with_scaled_work() {
        let d = cholesky_like(4);
        let mut types = d.task_types();
        types.sort_unstable();
        assert_eq!(types, CHOLESKY_TYPES.to_vec());
        // GEMM tasks (and only they) carry scale 2.0.
        for (_, n) in d.iter() {
            if n.meta.ty == CHOLESKY_TYPES[3] {
                assert_eq!(n.work_scale, 2.0);
            } else {
                assert_eq!(n.work_scale, 1.0);
            }
        }
    }

    #[test]
    fn cholesky_potrf_chain_orders_panels() {
        // POTRF k+1 must be reachable from POTRF k.
        let d = cholesky_like(5);
        let order = d.topo_order().unwrap();
        let pos: std::collections::BTreeMap<_, _> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let potrf: Vec<_> = d
            .iter()
            .filter(|(_, n)| n.meta.ty == CHOLESKY_TYPES[0])
            .map(|(id, n)| (n.tag, pos[&id]))
            .collect();
        for w in potrf.windows(2) {
            assert!(w[0].1 < w[1].1, "POTRF panels execute in k order");
        }
    }

    #[test]
    fn reduction_tree_halves_parallelism() {
        let d = reduction_tree(TaskTypeId(0), 16);
        d.validate().unwrap();
        assert_eq!(d.len(), 31); // 16 leaves + 15 internal
        assert_eq!(d.num_high_priority(), 15);
        assert_eq!(d.longest_path_len(), 5); // leaf + 4 combine levels
        assert_eq!(d.roots().len(), 16);
    }

    #[test]
    fn reduction_tree_handles_odd_and_unit_sizes() {
        let d = reduction_tree(TaskTypeId(0), 7);
        d.validate().unwrap();
        assert_eq!(d.len(), 7 + 6, "n leaves need n-1 combines");
        let single = reduction_tree(TaskTypeId(0), 1);
        assert_eq!(single.len(), 1);
        assert_eq!(single.num_high_priority(), 0);
    }

    #[test]
    fn diamond_shape() {
        let d = diamond(TaskTypeId(0), 8);
        d.validate().unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.longest_path_len(), 3);
        assert_eq!(d.num_high_priority(), 2);
        assert!((d.dag_parallelism() - 10.0 / 3.0).abs() < 1e-9);
    }
}
