//! Executable task graphs: DAG shape + one closure per task.

use das_core::jobs::JobSpec;
use das_core::{Priority, TaskMeta, TaskTypeId};
use das_dag::{Dag, DagError, TaskId};
use das_topology::{CoreId, ExecutionPlace};
use std::sync::Arc;

/// Execution context handed to a task body. A moldable task body
/// partitions its work by `rank` / `width` (SPMD style), exactly like a
/// XiTAO assembly region.
#[derive(Clone, Copy, Debug)]
pub struct TaskCtx {
    /// This participant's rank within the place, `0..width`.
    pub rank: usize,
    /// Number of cooperating workers.
    pub width: usize,
    /// The place the task was assigned.
    pub place: ExecutionPlace,
    /// The worker (core) executing this participant.
    pub core: CoreId,
}

/// A task body. `Fn` not `FnOnce`: with width > 1 the same body runs once
/// per participant, each with a different [`TaskCtx::rank`].
pub(crate) type TaskFn = dyn Fn(&TaskCtx) + Send + Sync;

/// A runnable DAG: shape (from `das-dag`) plus bodies.
///
/// Cloning is shallow and cheap: the shape is copied, the bodies are
/// shared (`Arc` bumps). The persistent worker pool relies on this —
/// one-shot callers clone a borrowed graph into an owned
/// [`crate::JobSpec`] for submission.
#[derive(Clone)]
pub struct TaskGraph {
    shape: Dag,
    bodies: Vec<Arc<TaskFn>>,
}

impl TaskGraph {
    /// Empty graph with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            shape: Dag::new(name),
            bodies: Vec::new(),
        }
    }

    /// Add a task with full metadata and its body.
    pub fn add_meta<F>(&mut self, meta: TaskMeta, body: F) -> TaskId
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static,
    {
        let id = self.shape.add_task_meta(meta);
        self.bodies.push(Arc::new(body));
        id
    }

    /// Add a task with type + priority and its body.
    pub fn add<F>(&mut self, ty: TaskTypeId, priority: Priority, body: F) -> TaskId
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static,
    {
        self.add_meta(TaskMeta::new(ty, priority), body)
    }

    /// Declare a dependency: `to` runs only after `from` commits.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        self.shape.add_edge(from, to);
    }

    /// A graph with the same shape and task metadata as `dag` and no-op
    /// bodies. This is how differential harnesses feed the *same*
    /// seeded job stream to both executor backends: the simulator
    /// executes the `Dag` against its cost model, the runtime executes
    /// this conversion — identical scheduling inputs, no kernels.
    pub fn noop_from_dag(dag: &Dag) -> Self {
        let mut g = TaskGraph::new(dag.name());
        for (_, node) in dag.iter() {
            g.add_meta(node.meta, |_| {});
        }
        for (id, node) in dag.iter() {
            for &s in &node.succs {
                g.add_edge(id, s);
            }
        }
        g
    }

    /// [`TaskGraph::noop_from_dag`] lifted to a whole job: the graph is
    /// converted and the spec's arrival, class and deadline carry over
    /// unchanged — so a simulator stream and its runtime counterpart
    /// cannot drift in anything but the bodies.
    pub fn noop_job_from_dag(spec: &JobSpec<Dag>) -> JobSpec<TaskGraph> {
        let mut converted = JobSpec::new(TaskGraph::noop_from_dag(&spec.graph)).class(spec.class);
        // `at` validates; arrivals from an existing spec are already
        // valid, but route through the builder for one code path.
        converted = converted.at(spec.arrival);
        if let Some(d) = spec.deadline {
            converted = converted.deadline(d);
        }
        converted
    }

    /// The DAG shape (read-only).
    pub fn shape(&self) -> &Dag {
        &self.shape
    }

    /// The body of task `id`.
    pub(crate) fn body(&self, id: TaskId) -> &Arc<TaskFn> {
        &self.bodies[id.index()]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// `true` when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Structural validation (delegates to [`Dag::validate`]).
    pub fn validate(&self) -> Result<(), DagError> {
        self.shape.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn build_and_validate() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new("t");
        let c = Arc::clone(&counter);
        let a = g.add(TaskTypeId(0), Priority::Low, move |_| {
            c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
        });
        let c = Arc::clone(&counter);
        let b = g.add(TaskTypeId(0), Priority::High, move |_| {
            c.fetch_add(10, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
        });
        g.add_edge(a, b);
        g.validate().unwrap();
        assert_eq!(g.len(), 2);
        // Bodies callable directly.
        let ctx = TaskCtx {
            rank: 0,
            width: 1,
            place: ExecutionPlace::solo(CoreId(0)),
            core: CoreId(0),
        };
        (g.body(a))(&ctx);
        (g.body(b))(&ctx);
        assert_eq!(counter.load(Ordering::Relaxed), 11); // relaxed-ok: read after wait(); job completion orders the counters
    }
}
