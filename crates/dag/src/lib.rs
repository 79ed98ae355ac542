//! # das-dag — task DAGs with criticality
//!
//! The execution model of the paper (§2): computations are directed
//! acyclic graphs of tasks, each task having a *type* (selecting its PTT),
//! a *priority* (high = critical), and — because tasks are **moldable** —
//! no fixed width: the scheduler picks the execution place at runtime.
//!
//! A [`Dag`] here is the *shape* of the computation. What a task actually
//! does is supplied by the consumer: the simulator attaches a cost model
//! keyed by task type, the real runtime attaches closures. This split
//! lets one generator (e.g. the paper's synthetic layered DAG) drive both
//! engines.
//!
//! ```
//! use das_dag::{Dag, generators};
//! use das_core::TaskTypeId;
//!
//! // The paper's synthetic DAG: layers of P same-type tasks, one critical
//! // task per layer releasing the next layer (§4.2.2).
//! let dag = generators::layered(TaskTypeId(0), 4, 100);
//! assert_eq!(dag.len(), 400);
//! assert!((dag.dag_parallelism() - 4.0).abs() < 0.05);
//! dag.validate().unwrap();
//! ```

pub mod analysis;
mod dot;
pub mod generators;

use das_core::{Priority, TaskMeta, TaskTypeId};
use std::fmt;

/// Index of a task within its [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One node of the DAG.
#[derive(Clone, Debug)]
pub struct TaskNode {
    /// Scheduling metadata (type, priority, node affinity).
    pub meta: TaskMeta,
    /// Successor tasks released when this task commits.
    pub succs: Vec<TaskId>,
    /// Number of predecessors (dependencies to satisfy before ready).
    pub num_preds: u32,
    /// Application-defined tag (iteration number, chunk index, ...);
    /// surfaced in metrics so experiments can group tasks.
    pub tag: u64,
    /// Work multiplier relative to the task type's nominal work. The
    /// K-means generator uses this to make one chunk larger (the paper
    /// assigns high priority to "the task containing the largest work
    /// unit").
    pub work_scale: f64,
    /// Fixed delay (seconds) between the last predecessor committing and
    /// this task becoming ready — models network wire time for cross-node
    /// edges in the distributed Heat experiment.
    pub release_delay: f64,
}

/// Errors reported by [`Dag::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a task id not present in the DAG.
    DanglingEdge {
        /// Source of the offending edge.
        from: TaskId,
        /// The missing target.
        to: TaskId,
    },
    /// The graph contains a cycle (so it is not a DAG).
    Cycle,
    /// The DAG has no tasks.
    Empty,
    /// Predecessor counters disagree with the edge lists.
    BadPredCount {
        /// Task whose counter is wrong.
        task: TaskId,
        /// Count derived from edges.
        expected: u32,
        /// Stored count.
        stored: u32,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DanglingEdge { from, to } => {
                write!(f, "edge {from} -> {to} references a missing task")
            }
            DagError::Cycle => write!(f, "graph contains a cycle"),
            DagError::Empty => write!(f, "DAG has no tasks"),
            DagError::BadPredCount {
                task,
                expected,
                stored,
            } => write!(
                f,
                "{task}: stored pred count {stored} but edges imply {expected}"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// A task DAG. Build with [`Dag::new`] + [`Dag::add_task`] +
/// [`Dag::add_edge`], or use a ready-made [`generators`] shape.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    name: String,
    nodes: Vec<TaskNode>,
}

impl Dag {
    /// An empty DAG with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Dag {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Reserve space for `n` additional tasks (the synthetic DAGs have
    /// tens of thousands).
    pub fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a task with default tag/scale/delay.
    pub fn add_task(&mut self, ty: TaskTypeId, priority: Priority) -> TaskId {
        self.add_task_meta(TaskMeta::new(ty, priority))
    }

    /// Append a task from full metadata.
    pub fn add_task_meta(&mut self, meta: TaskMeta) -> TaskId {
        let id = TaskId(u32::try_from(self.nodes.len()).expect("DAG larger than u32 tasks"));
        self.nodes.push(TaskNode {
            meta,
            succs: Vec::new(),
            num_preds: 0,
            tag: 0,
            work_scale: 1.0,
            release_delay: 0.0,
        });
        id
    }

    /// Set the application tag of a task (builder-style helper).
    pub fn set_tag(&mut self, id: TaskId, tag: u64) {
        self.nodes[id.index()].tag = tag;
    }

    /// Overwrite the priority of a task (used by the automatic
    /// criticality analysis in [`analysis`]).
    pub fn set_priority(&mut self, id: TaskId, priority: Priority) {
        self.nodes[id.index()].meta.priority = priority;
    }

    /// Set the work multiplier of a task.
    pub fn set_work_scale(&mut self, id: TaskId, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite());
        self.nodes[id.index()].work_scale = scale;
    }

    /// Set the release delay of a task (seconds).
    pub fn set_release_delay(&mut self, id: TaskId, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite());
        self.nodes[id.index()].release_delay = seconds;
    }

    /// Add a dependency edge `from -> to`.
    ///
    /// # Panics
    /// Panics if either id is out of range (cycles are detected later by
    /// [`Dag::validate`], since they cannot be checked incrementally at
    /// this cost).
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert!(from.index() < self.nodes.len(), "bad edge source");
        assert!(to.index() < self.nodes.len(), "bad edge target");
        self.nodes[from.index()].succs.push(to);
        self.nodes[to.index()].num_preds += 1;
    }

    /// Splice a copy of `other` into this DAG as an independent
    /// component, returning the id offset of its first task (i.e.
    /// `other`'s `TaskId(i)` becomes `TaskId(offset + i)` here). Used by
    /// the job-stream executors to merge concurrently in-flight jobs
    /// into one task space.
    pub fn append(&mut self, other: &Dag) -> u32 {
        let offset = u32::try_from(self.nodes.len()).expect("DAG larger than u32 tasks");
        u32::try_from(self.nodes.len() + other.nodes.len()).expect("merged DAG exceeds u32 tasks");
        self.nodes.extend(other.nodes.iter().map(|n| {
            let mut n = n.clone();
            for s in &mut n.succs {
                *s = TaskId(s.0 + offset);
            }
            n
        }));
        offset
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node of `id`.
    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[TaskNode] {
        &self.nodes
    }

    /// Iterator over `(id, node)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (TaskId(i as u32), n))
    }

    /// Tasks with no predecessors (initially ready).
    pub fn roots(&self) -> Vec<TaskId> {
        self.iter()
            .filter(|(_, n)| n.num_preds == 0)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of high-priority tasks.
    pub fn num_high_priority(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.meta.priority.is_high())
            .count()
    }

    /// Distinct task types present.
    pub fn task_types(&self) -> Vec<TaskTypeId> {
        let mut v: Vec<_> = self.nodes.iter().map(|n| n.meta.ty).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Check structural invariants: non-empty, consistent predecessor
    /// counts, acyclic (Kahn's algorithm).
    pub fn validate(&self) -> Result<(), DagError> {
        if self.nodes.is_empty() {
            return Err(DagError::Empty);
        }
        let mut derived = vec![0u32; self.nodes.len()];
        for (id, n) in self.iter() {
            for &s in &n.succs {
                if s.index() >= self.nodes.len() {
                    return Err(DagError::DanglingEdge { from: id, to: s });
                }
                derived[s.index()] += 1;
            }
        }
        for (i, (&d, n)) in derived.iter().zip(&self.nodes).enumerate() {
            if d != n.num_preds {
                return Err(DagError::BadPredCount {
                    task: TaskId(i as u32),
                    expected: d,
                    stored: n.num_preds,
                });
            }
        }
        if self.topo_order().is_none() {
            return Err(DagError::Cycle);
        }
        Ok(())
    }

    /// A topological order, or `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<TaskId>> {
        let mut indeg: Vec<u32> = self.nodes.iter().map(|n| n.num_preds).collect();
        let mut queue: std::collections::VecDeque<TaskId> = self
            .iter()
            .filter(|(_, n)| n.num_preds == 0)
            .map(|(id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in &self.nodes[id.index()].succs {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// Length (in tasks) of the longest path through the DAG.
    pub fn longest_path_len(&self) -> usize {
        let Some(order) = self.topo_order() else {
            return 0;
        };
        let mut depth = vec![1usize; self.nodes.len()];
        let mut best = 0;
        for id in order {
            let d = depth[id.index()];
            best = best.max(d);
            for &s in &self.nodes[id.index()].succs {
                depth[s.index()] = depth[s.index()].max(d + 1);
            }
        }
        best
    }

    /// **DAG parallelism** (§2): total number of tasks divided by the
    /// length of the longest path.
    pub fn dag_parallelism(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.len() as f64 / self.longest_path_len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sample DAG of Fig. 1: T0 releases T1..T4; T1 (critical)
    /// releases T5..T8; T5 (critical) releases T9. T0, T1, T5, T9 are high
    /// priority. DAG parallelism is stated as 4.
    fn fig1() -> Dag {
        let ty = TaskTypeId(0);
        let mut d = Dag::new("fig1");
        let t: Vec<_> = (0..10)
            .map(|i| {
                let p = if [0, 1, 5, 9].contains(&i) {
                    Priority::High
                } else {
                    Priority::Low
                };
                d.add_task(ty, p)
            })
            .collect();
        for i in 1..=4 {
            d.add_edge(t[0], t[i]);
        }
        for i in 5..=8 {
            d.add_edge(t[1], t[i]);
        }
        d.add_edge(t[5], t[9]);
        d
    }

    #[test]
    fn fig1_shape() {
        let d = fig1();
        d.validate().unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.num_high_priority(), 4);
        assert_eq!(d.roots(), vec![TaskId(0)]);
        assert_eq!(d.longest_path_len(), 4); // T0 -> T1 -> T5 -> T9
                                             // 10 tasks / longest path 4 = 2.5... the paper rounds the *running*
                                             // width; our definition (total / longest path) gives 2.5 here. The
                                             // synthetic generator (same counting) is what the experiments use.
        assert!((d.dag_parallelism() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cycle_detected() {
        let mut d = Dag::new("cyc");
        let a = d.add_task(TaskTypeId(0), Priority::Low);
        let b = d.add_task(TaskTypeId(0), Priority::Low);
        d.add_edge(a, b);
        d.add_edge(b, a);
        assert_eq!(d.validate(), Err(DagError::Cycle));
        assert_eq!(d.topo_order(), None);
        assert_eq!(d.longest_path_len(), 0);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Dag::new("e").validate(), Err(DagError::Empty));
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = fig1();
        let order = d.topo_order().unwrap();
        let pos: std::collections::BTreeMap<_, _> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for (id, n) in d.iter() {
            for &s in &n.succs {
                assert!(pos[&id] < pos[&s]);
            }
        }
    }

    #[test]
    fn append_splices_independent_components() {
        let mut a = fig1();
        let b = fig1();
        let offset = a.append(&b);
        assert_eq!(offset, 10);
        assert_eq!(a.len(), 20);
        a.validate().unwrap();
        // The two components are disjoint: both copies' roots present.
        assert_eq!(a.roots(), vec![TaskId(0), TaskId(10)]);
        // Edges were remapped, not shared.
        assert_eq!(
            a.node(TaskId(10)).succs,
            vec![TaskId(11), TaskId(12), TaskId(13), TaskId(14)]
        );
        assert_eq!(a.num_high_priority(), 8);
    }

    #[test]
    fn task_types_dedup() {
        let mut d = Dag::new("tt");
        d.add_task(TaskTypeId(1), Priority::Low);
        d.add_task(TaskTypeId(0), Priority::Low);
        d.add_task(TaskTypeId(1), Priority::Low);
        assert_eq!(d.task_types(), vec![TaskTypeId(0), TaskTypeId(1)]);
    }

    #[test]
    #[should_panic]
    fn bad_edge_panics() {
        let mut d = Dag::new("bad");
        let a = d.add_task(TaskTypeId(0), Priority::Low);
        d.add_edge(a, TaskId(99));
    }
}
