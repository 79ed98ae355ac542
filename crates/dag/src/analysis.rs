//! DAG criticality analysis.
//!
//! The paper's schedulers *consume* task criticality but do not compute
//! it: "Unlike CATS, our work does not address the problem of determining
//! task criticality dynamically. Hence, FA and FAM-C rely on the static
//! scheme described in Section 2" (§4.2.3). This module supplies the
//! missing piece as an extension, following the CATS idea (Chronaki et
//! al., ICS'15): a task's *bottom level* is the length of the longest
//! path from it to any sink; tasks whose bottom level equals the DAG's
//! remaining critical path lie on the critical path and are marked high
//! priority.

use crate::{Dag, TaskId};
use das_core::Priority;

/// Bottom levels: `bl[t]` = number of tasks on the longest path from `t`
/// to a sink, counting `t` itself (so sinks have bottom level 1).
/// Returns an empty vector for cyclic graphs.
pub(crate) fn bottom_levels(dag: &Dag) -> Vec<usize> {
    let Some(order) = dag.topo_order() else {
        return Vec::new();
    };
    let mut bl = vec![1usize; dag.len()];
    for &id in order.iter().rev() {
        let node = dag.node(id);
        for &s in &node.succs {
            bl[id.index()] = bl[id.index()].max(1 + bl[s.index()]);
        }
    }
    bl
}

/// Top levels: `tl[t]` = number of tasks on the longest path from a root
/// to `t`, counting `t` (roots have top level 1).
pub(crate) fn top_levels(dag: &Dag) -> Vec<usize> {
    let Some(order) = dag.topo_order() else {
        return Vec::new();
    };
    let mut tl = vec![1usize; dag.len()];
    for &id in &order {
        let node = dag.node(id);
        for &s in &node.succs {
            tl[s.index()] = tl[s.index()].max(1 + tl[id.index()]);
        }
    }
    tl
}

/// One critical path (a longest root-to-sink chain), as a task sequence.
/// Ties break towards the lowest task id, making the result
/// deterministic. Empty for cyclic graphs.
pub(crate) fn critical_path(dag: &Dag) -> Vec<TaskId> {
    let bl = bottom_levels(dag);
    if bl.is_empty() {
        return Vec::new();
    }
    // Start: root with the maximal bottom level.
    let mut cur = match dag
        .roots()
        .into_iter()
        .max_by_key(|t| (bl[t.index()], std::cmp::Reverse(t.index())))
    {
        Some(t) => t,
        None => return Vec::new(),
    };
    let mut path = vec![cur];
    loop {
        let node = dag.node(cur);
        let next = node
            .succs
            .iter()
            .copied()
            .max_by_key(|t| (bl[t.index()], std::cmp::Reverse(t.index())));
        match next {
            Some(t) if bl[t.index()] + 1 == bl[cur.index()] => {
                path.push(t);
                cur = t;
            }
            _ => break,
        }
    }
    path
}

/// CATS-style automatic criticality marking: every task on a
/// maximal-bottom-level path becomes [`Priority::High`]; all others
/// [`Priority::Low`]. Overwrites existing priorities. Returns the number
/// of tasks marked critical.
///
/// With `exhaustive = false` only one critical path is marked (the
/// paper's experiments have exactly one critical task per layer); with
/// `exhaustive = true`, *every* task lying on *some* longest path is
/// marked, which matches CATS's task-criticality definition.
pub fn mark_critical(dag: &mut Dag, exhaustive: bool) -> usize {
    let bl = bottom_levels(dag);
    let tl = top_levels(dag);
    if bl.is_empty() {
        return 0;
    }
    let cp = bl
        .iter()
        .zip(&tl)
        .map(|(b, t)| b + t - 1)
        .max()
        .unwrap_or(0);

    let critical: Vec<TaskId> = if exhaustive {
        (0..dag.len())
            .filter(|&i| bl[i] + tl[i] - 1 == cp)
            .map(|i| TaskId(i as u32))
            .collect()
    } else {
        critical_path(dag)
    };
    let n = critical.len();
    for i in 0..dag.len() {
        let id = TaskId(i as u32);
        let prio = if critical.contains(&id) {
            Priority::High
        } else {
            Priority::Low
        };
        dag.set_priority(id, prio);
    }
    n
}

/// Work-weighted bottom levels: like [`bottom_levels`] but each task
/// contributes its `work_scale` instead of 1, so the result is the
/// longest *work* (not hop count) from the task to a sink. This is the
/// quantity HEFT-style rank functions use (`rank_u` with uniform
/// communication cost); [`mark_critical`] uses hop counts because the
/// paper's synthetic DAGs have uniform task weights.
pub(crate) fn weighted_bottom_levels(dag: &Dag) -> Vec<f64> {
    let Some(order) = dag.topo_order() else {
        return Vec::new();
    };
    let mut bl = vec![0.0f64; dag.len()];
    for &id in order.iter().rev() {
        let node = dag.node(id);
        let tail = node
            .succs
            .iter()
            .map(|s| bl[s.index()])
            .fold(0.0f64, f64::max);
        bl[id.index()] = node.work_scale + tail;
    }
    bl
}

/// Total work along the heaviest root-to-sink path (the weighted
/// critical-path length). Zero for empty or cyclic graphs.
pub fn weighted_critical_path_length(dag: &Dag) -> f64 {
    weighted_bottom_levels(dag)
        .into_iter()
        .fold(0.0f64, f64::max)
}

/// Work-weighted DAG parallelism: total work divided by the weighted
/// critical-path length — the generalisation of the paper's "total
/// amount of tasks divided by the length of the longest path" (§2) to
/// non-uniform tasks.
pub fn weighted_parallelism(dag: &Dag) -> f64 {
    let cp = weighted_critical_path_length(dag);
    if cp <= 0.0 {
        return 0.0;
    }
    let total: f64 = dag.nodes().iter().map(|n| n.work_scale).sum();
    total / cp
}

/// CATS-style marking on *weighted* levels: tasks on a maximal
/// weighted-path are marked high priority. `slack` relaxes the
/// definition: a task is critical when its path length is within
/// `slack × cp` of the critical path (``slack = 0`` marks only exact
/// critical-path members). Returns the number of critical tasks.
pub fn mark_critical_weighted(dag: &mut Dag, slack: f64) -> usize {
    assert!((0.0..1.0).contains(&slack), "slack must be in [0, 1)");
    let bl = weighted_bottom_levels(dag);
    if bl.is_empty() {
        return 0;
    }
    // Weighted top level: longest work path from a root *through* t.
    let order = dag.topo_order().expect("bl nonempty implies acyclic");
    let mut tl = vec![0.0f64; dag.len()];
    for &id in &order {
        let node = dag.node(id);
        let here = tl[id.index()] + node.work_scale;
        for &s in &node.succs {
            tl[s.index()] = tl[s.index()].max(here);
        }
    }
    let cp = weighted_critical_path_length(dag);
    let threshold = cp * (1.0 - slack);
    let mut marked = 0;
    for i in 0..dag.len() {
        let through = tl[i] + bl[i]; // work before + work from i to sink
        let id = TaskId(i as u32);
        if through >= threshold - 1e-12 {
            dag.set_priority(id, Priority::High);
            marked += 1;
        } else {
            dag.set_priority(id, Priority::Low);
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use das_core::TaskTypeId;

    fn diamond() -> Dag {
        // a -> {b, c} -> d, plus a long tail d -> e -> f.
        let mut d = Dag::new("diamond");
        let ids: Vec<_> = (0..6)
            .map(|_| d.add_task(TaskTypeId(0), Priority::Low))
            .collect();
        d.add_edge(ids[0], ids[1]);
        d.add_edge(ids[0], ids[2]);
        d.add_edge(ids[1], ids[3]);
        d.add_edge(ids[2], ids[3]);
        d.add_edge(ids[3], ids[4]);
        d.add_edge(ids[4], ids[5]);
        d
    }

    #[test]
    fn bottom_and_top_levels() {
        let d = diamond();
        let bl = bottom_levels(&d);
        assert_eq!(bl, vec![5, 4, 4, 3, 2, 1]);
        let tl = top_levels(&d);
        assert_eq!(tl, vec![1, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn critical_path_is_a_longest_chain() {
        let d = diamond();
        let cp = critical_path(&d);
        assert_eq!(cp.len(), d.longest_path_len());
        assert_eq!(cp.first(), Some(&TaskId(0)));
        assert_eq!(cp.last(), Some(&TaskId(5)));
        // Path edges must exist.
        for w in cp.windows(2) {
            assert!(d.node(w[0]).succs.contains(&w[1]));
        }
    }

    #[test]
    fn mark_critical_single_path() {
        let mut d = diamond();
        let n = mark_critical(&mut d, false);
        assert_eq!(n, 5);
        assert_eq!(d.num_high_priority(), 5);
        // Exactly one of b/c is critical.
        let b = d.node(TaskId(1)).meta.priority.is_high();
        let c = d.node(TaskId(2)).meta.priority.is_high();
        assert!(b ^ c);
    }

    #[test]
    fn mark_critical_exhaustive_marks_both_branches() {
        let mut d = diamond();
        let n = mark_critical(&mut d, true);
        // Both b and c lie on *a* longest path.
        assert_eq!(n, 6);
        assert_eq!(d.num_high_priority(), 6);
    }

    #[test]
    fn layered_dag_recovers_generator_criticality_count() {
        // The generator marks one task per layer; CATS marking finds a
        // single chain of the same length (the critical chain is through
        // the layer-releasing tasks).
        let mut d = generators::layered(TaskTypeId(0), 4, 50);
        let n = mark_critical(&mut d, false);
        assert_eq!(n, 50);
    }

    #[test]
    fn weighted_levels_reduce_to_hops_for_unit_work() {
        let d = diamond();
        let wbl = weighted_bottom_levels(&d);
        let bl = bottom_levels(&d);
        for (w, h) in wbl.iter().zip(&bl) {
            assert!((w - *h as f64).abs() < 1e-12);
        }
        assert!((weighted_critical_path_length(&d) - 5.0).abs() < 1e-12);
        // 6 unit tasks / cp 5.
        assert!((weighted_parallelism(&d) - 6.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_critical_path_follows_heavy_branch() {
        // a -> {b(×10), c(×1)} -> d: the heavy branch dominates.
        let mut d = Dag::new("heavy");
        let ids: Vec<_> = (0..4)
            .map(|_| d.add_task(TaskTypeId(0), Priority::Low))
            .collect();
        d.add_edge(ids[0], ids[1]);
        d.add_edge(ids[0], ids[2]);
        d.add_edge(ids[1], ids[3]);
        d.add_edge(ids[2], ids[3]);
        d.set_work_scale(ids[1], 10.0);
        assert!((weighted_critical_path_length(&d) - 12.0).abs() < 1e-12);
        let n = mark_critical_weighted(&mut d, 0.0);
        assert_eq!(n, 3);
        assert!(d.node(ids[1]).meta.priority.is_high());
        assert!(!d.node(ids[2]).meta.priority.is_high());
    }

    #[test]
    fn slack_widens_the_critical_set() {
        let mut d = Dag::new("slack");
        let ids: Vec<_> = (0..4)
            .map(|_| d.add_task(TaskTypeId(0), Priority::Low))
            .collect();
        d.add_edge(ids[0], ids[1]);
        d.add_edge(ids[0], ids[2]);
        d.add_edge(ids[1], ids[3]);
        d.add_edge(ids[2], ids[3]);
        d.set_work_scale(ids[1], 1.25); // light branch is within 20 %
        assert_eq!(mark_critical_weighted(&mut d, 0.0), 3);
        assert_eq!(mark_critical_weighted(&mut d, 0.2), 4);
    }

    #[test]
    fn weighted_marking_on_cholesky_prefers_potrf_chain() {
        let mut d = generators::cholesky_like(5);
        mark_critical_weighted(&mut d, 0.0);
        // The POTRF of the first panel starts every longest path.
        let (first_potrf, _) = d
            .iter()
            .find(|(_, n)| n.meta.ty == generators::CHOLESKY_TYPES[0])
            .unwrap();
        assert!(d.node(first_potrf).meta.priority.is_high());
    }

    #[test]
    fn cyclic_graph_degenerates_gracefully() {
        let mut d = Dag::new("cyc");
        let a = d.add_task(TaskTypeId(0), Priority::Low);
        let b = d.add_task(TaskTypeId(0), Priority::Low);
        d.add_edge(a, b);
        d.add_edge(b, a);
        assert!(bottom_levels(&d).is_empty());
        assert!(critical_path(&d).is_empty());
        assert_eq!(mark_critical(&mut d, false), 0);
    }
}
