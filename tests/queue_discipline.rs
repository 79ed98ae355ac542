//! Differential test of the shared ready-queue discipline.
//!
//! `das-sim` models each core's WSQ as a bare `ReadyQueue<TaskId>` it
//! owns outright; `das-runtime` wraps the same type in a `Mutex` and
//! drives it from real worker threads. This test replays one scripted
//! sequence of wake-ups, owner pops and steals — pinned entries,
//! stealable entries and node-affinity-restricted entries, with the
//! entries produced by real [`Scheduler::on_wakeup`] decisions — through
//! both access patterns and asserts the two backends observe the *same*
//! pop/steal ordering. If a queue-policy change lands in
//! `das_core::queue`, both executors pick it up; if someone reintroduces
//! backend-local ordering, this test catches the shapes that differ
//! (pinned-vs-LIFO overtaking, steal end, affinity veto).
//!
//! Victim *selection* is deliberately outside the shared contract (the
//! simulator picks a victim uniformly at random, the runtime scans from
//! a random start — see `DESIGN.md`), so both drivers here scan victims
//! in index order: the scripted outcomes then isolate exactly the part
//! the backends are required to share.

use das::core::{Policy, Priority, ReadyEntry, ReadyQueue, Scheduler, TaskMeta, TaskTypeId};
use das::topology::{CoreId, Topology};
use parking_lot::Mutex;
use std::sync::Arc;

/// One step of the scripted scenario.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Task `task` (index into the meta table) becomes ready; the worker
    /// on `from` runs the wake-up decision and pushes the entry.
    Wake { task: u32, from: usize },
    /// The worker on `core` polls its own queue.
    Pop { core: usize },
    /// The idle worker on `thief` tries to steal from anyone.
    Steal { thief: usize },
}

/// What a backend observed for one step (wake-ups record the queue the
/// scheduler chose; pops/steals record the task obtained, if any).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Observed {
    Queued { queue: usize, task: u32 },
    Popped { core: usize, task: Option<u32> },
    Stolen { thief: usize, task: Option<u32> },
}

/// Two distributed-memory nodes of two symmetric cores each: cores 0–1
/// on node 0, cores 2–3 on node 1.
fn two_node_topo() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .node(0)
            .cluster("n0", 2, 1.0)
            .node(1)
            .cluster("n1", 2, 1.0)
            .build(),
    )
}

/// The scripted scenario: a mix of stealable low-priority entries,
/// pinned high-priority entries and node-1-affine entries, then pops
/// and steals probing every discipline rule. The script never assumes
/// *where* the scheduler pins the high-priority tasks — the drain phase
/// sweeps every queue — so it stays valid if placement heuristics
/// evolve.
fn script() -> (Vec<TaskMeta>, Vec<Op>) {
    let ty = TaskTypeId(0);
    let low = TaskMeta::new(ty, Priority::Low);
    let high = TaskMeta::new(ty, Priority::High);
    let metas = vec![
        low,                  // 0: stealable
        low,                  // 1: stealable
        low,                  // 2: stealable
        high,                 // 3: pinned by global search
        high,                 // 4: pinned by global search
        low.with_affinity(1), // 5: only node 1 may run it
        low.with_affinity(1), // 6: only node 1 may run it
        low,                  // 7: stealable
        low,                  // 8–10: core 3's own LIFO backlog
        low,                  // 9
        low,                  // 10
    ];
    let mut ops = vec![
        // Backlog on core 0: three stealable entries, then two pinned
        // high-priority ones (DAM-C routes them to the searched
        // leader's queue; pinned entries are invisible to thieves
        // wherever they land).
        Op::Wake { task: 0, from: 0 },
        Op::Wake { task: 1, from: 0 },
        Op::Wake { task: 2, from: 0 },
        Op::Wake { task: 3, from: 0 },
        Op::Wake { task: 4, from: 0 },
        // Node-1-affine entries pushed from the wrong node: the wake-up
        // decision must redirect them to a node-1 queue.
        Op::Wake { task: 5, from: 0 },
        Op::Wake { task: 6, from: 0 },
        Op::Wake { task: 7, from: 1 },
        // Thieves drain core 0's stealable backlog oldest-first (FIFO
        // steal end), skipping any pinned entry parked there.
        Op::Steal { thief: 1 },
        Op::Steal { thief: 3 },
        Op::Steal { thief: 3 },
        // Core 0 exhausted for thieves: the next node-1 thief scan finds
        // task 7 on core 1.
        Op::Steal { thief: 3 },
        // Node-0 thieves may not touch the node-1-affine entries (the
        // only stealable entries left): both observe None.
        Op::Steal { thief: 1 },
        Op::Steal { thief: 0 },
        // A node-1 thief takes the oldest affine entry; the owner pops
        // the remaining one.
        Op::Steal { thief: 3 },
        Op::Pop { core: 2 },
    ];
    // Drain phase: enough pops on every core to surface the pinned
    // entries wherever the global search parked them.
    for core in 0..4 {
        for _ in 0..3 {
            ops.push(Op::Pop { core });
        }
    }
    // LIFO segment: a fresh backlog on core 3 pops newest-first.
    ops.extend([
        Op::Wake { task: 8, from: 3 },
        Op::Wake { task: 9, from: 3 },
        Op::Wake { task: 10, from: 3 },
        Op::Pop { core: 3 },
        Op::Pop { core: 3 },
        Op::Pop { core: 3 },
        // Everything is drained: pops and steals observe None.
        Op::Pop { core: 0 },
        Op::Steal { thief: 2 },
    ]);
    (metas, ops)
}

/// Sim-style access: each simulated core owns its queue directly, no
/// locks, exactly like `das_sim::Simulator`'s `CoreState`.
fn run_sim_style(metas: &[TaskMeta], ops: &[Op]) -> Vec<Observed> {
    let topo = two_node_topo();
    let sched = Scheduler::new(Arc::clone(&topo), Policy::DamC);
    let mut queues: Vec<ReadyQueue<u32>> =
        (0..topo.num_cores()).map(|_| ReadyQueue::new()).collect();
    let mut log = Vec::new();
    for &op in ops {
        match op {
            Op::Wake { task, from } => {
                let d = sched.on_wakeup(&metas[task as usize], CoreId(from));
                queues[d.queue.0].push(ReadyEntry::new(task, &d));
                log.push(Observed::Queued {
                    queue: d.queue.0,
                    task,
                });
            }
            Op::Pop { core } => {
                let task = queues[core].pop_own().map(|e| *e.payload());
                log.push(Observed::Popped { core, task });
            }
            Op::Steal { thief } => {
                let eligible = |t: &u32| sched.may_run_on(&metas[*t as usize], CoreId(thief));
                let mut task = None;
                for (v, q) in queues.iter_mut().enumerate() {
                    if v == thief {
                        continue;
                    }
                    if let Some(e) = q.steal(eligible) {
                        task = Some(*e.payload());
                        break;
                    }
                }
                log.push(Observed::Stolen { thief, task });
            }
        }
    }
    log
}

/// Runtime-style access: the queues sit behind `Mutex`es (exactly the
/// `das-runtime` layout) and each scripted step runs on its own spawned
/// thread, synchronised to the script order — entries cross real thread
/// boundaries before being popped or stolen.
fn run_runtime_style(metas: &[TaskMeta], ops: &[Op]) -> Vec<Observed> {
    let topo = two_node_topo();
    let sched = Arc::new(Scheduler::new(Arc::clone(&topo), Policy::DamC));
    let queues: Arc<Vec<Mutex<ReadyQueue<u32>>>> = Arc::new(
        (0..topo.num_cores())
            .map(|_| Mutex::new(ReadyQueue::new()))
            .collect(),
    );
    let log: Arc<Mutex<Vec<Observed>>> = Arc::new(Mutex::new(Vec::new()));
    for &op in ops {
        let sched = Arc::clone(&sched);
        let queues = Arc::clone(&queues);
        let log = Arc::clone(&log);
        let metas = metas.to_vec();
        // One OS thread per step keeps the lock-crossing real while the
        // script order stays deterministic.
        std::thread::spawn(move || match op {
            Op::Wake { task, from } => {
                let d = sched.on_wakeup(&metas[task as usize], CoreId(from));
                queues[d.queue.0].lock().push(ReadyEntry::new(task, &d));
                log.lock().push(Observed::Queued {
                    queue: d.queue.0,
                    task,
                });
            }
            Op::Pop { core } => {
                let task = queues[core].lock().pop_own().map(|e| *e.payload());
                log.lock().push(Observed::Popped { core, task });
            }
            Op::Steal { thief } => {
                let eligible = |t: &u32| sched.may_run_on(&metas[*t as usize], CoreId(thief));
                let mut task = None;
                for (v, q) in queues.iter().enumerate() {
                    if v == thief {
                        continue;
                    }
                    if let Some(e) = q.lock().steal(eligible) {
                        task = Some(*e.payload());
                        break;
                    }
                }
                log.lock().push(Observed::Stolen { thief, task });
            }
        })
        .join()
        .expect("scripted step panicked");
    }
    Arc::try_unwrap(log)
        .expect("every scripted thread has joined")
        .into_inner()
}

#[test]
fn sim_and_runtime_observe_identical_pop_steal_order() {
    let (metas, ops) = script();
    let sim = run_sim_style(&metas, &ops);
    let rt = run_runtime_style(&metas, &ops);
    assert_eq!(
        sim, rt,
        "the two backends must resolve the scripted sequence identically"
    );
}

#[test]
fn scripted_order_obeys_the_discipline() {
    let (metas, ops) = script();
    let log = run_sim_style(&metas, &ops);

    let popped: Vec<(usize, u32)> = log
        .iter()
        .filter_map(|o| match o {
            Observed::Popped {
                core,
                task: Some(t),
            } => Some((*core, *t)),
            _ => None,
        })
        .collect();
    let stolen: Vec<(usize, Option<u32>)> = log
        .iter()
        .filter_map(|o| match o {
            Observed::Stolen { thief, task } => Some((*thief, *task)),
            _ => None,
        })
        .collect();

    // Node-affine entries were redirected to a node-1 queue at wake-up.
    for o in &log {
        if let Observed::Queued { queue, task } = o {
            if metas[*task as usize].node_affinity == Some(1) {
                assert!(
                    (2..4).contains(queue),
                    "task {task} affine to node 1 queued on core {queue}"
                );
            }
        }
    }

    // Thieves drained core 0's backlog oldest-first (FIFO steal end).
    let from_core0: Vec<u32> = stolen
        .iter()
        .filter_map(|&(_, t)| t.filter(|t| *t <= 2))
        .collect();
    assert_eq!(from_core0, vec![0, 1, 2], "steals must take the FIFO end");

    // The two node-0 steal attempts against the affine-only state
    // observed None; no node-0 worker ever obtained an affine task.
    assert_eq!(stolen[4], (1, None));
    assert_eq!(stolen[5], (0, None));
    for &(thief, t) in &stolen {
        if let Some(t) = t {
            if metas[t as usize].node_affinity == Some(1) {
                assert!(thief >= 2, "thief {thief} on node 0 stole affine task {t}");
            }
        }
    }

    // The pinned pair surfaced via owner pops — in FIFO order if they
    // share a queue (pinned entries are never reordered behind each
    // other).
    let pin3 = popped
        .iter()
        .position(|&(_, t)| t == 3)
        .expect("task 3 popped");
    let pin4 = popped
        .iter()
        .position(|&(_, t)| t == 4)
        .expect("task 4 popped");
    if popped[pin3].0 == popped[pin4].0 {
        assert!(pin3 < pin4, "pinned entries must pop oldest-first");
    }

    // Core 3's own backlog popped newest-first (owner LIFO).
    let core3_backlog: Vec<u32> = popped
        .iter()
        .filter_map(|&(c, t)| (c == 3 && t >= 8).then_some(t))
        .collect();
    assert_eq!(core3_backlog, vec![10, 9, 8], "owner pops must be LIFO");

    // Every task was observed exactly once across pops and steals.
    let mut seen: Vec<u32> = popped
        .iter()
        .map(|&(_, t)| t)
        .chain(stolen.iter().filter_map(|&(_, t)| t))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..metas.len() as u32).collect::<Vec<u32>>());
}
