//! The shared XiTAO ready-queue discipline (§4.1.2, Fig. 3).
//!
//! Both execution backends — the discrete-event simulator (`das-sim`)
//! and the threaded runtime (`das-runtime`) — model each worker as a
//! pair of queues: a FIFO *assembly queue* of already-placed moldable
//! tasks, and a *work-stealing queue* (WSQ) of ready tasks awaiting
//! their dequeue-time decision. The WSQ ordering rules are scheduling
//! policy, not plumbing, so they live here, next to the
//! [`Scheduler`](crate::Scheduler) that produces the entries. A backend
//! never inspects entry flags or picks positions itself; it only calls
//! [`ReadyQueue::pop_own`] and [`ReadyQueue::steal`], which both
//! backends therefore resolve *identically* (see
//! `tests/queue_discipline.rs` for the differential test, and
//! `DESIGN.md` for the contract).
//!
//! The discipline, from the paper:
//!
//! * **Unstealable-first FIFO for the owner.** Entries nobody may steal
//!   (under the paper's policies: exactly the high-priority tasks whose
//!   placement was committed by global search) are serviced before any
//!   stealable entry, oldest first. Their wake-up decision said "run
//!   here as soon as possible"; letting a stealable sibling jump ahead
//!   would park the critical path behind work any idle core could have
//!   taken. The discriminator is stealability, not the pinned place:
//!   under the `allow_high_priority_steal` ablation a pinned entry is
//!   also stealable and deliberately gets no precedence — any worker
//!   may already take it, so there is nothing to protect (this matches
//!   XiTAO, where disabling the steal is what creates the guarantee).
//! * **LIFO for the owner's stealable backlog** — the classic
//!   work-stealing discipline (newest entry is cache-hot).
//! * **FIFO for thieves.** A thief takes the victim's *oldest* eligible
//!   entry: the entry the owner would reach last, minimising contention
//!   on the hot end.
//! * **Eligibility filtering.** Non-stealable entries never leave their
//!   queue sideways, and a thief may be vetoed per entry (node-affinity
//!   restrictions) without disturbing queue order.

use std::collections::VecDeque;

use das_topology::ExecutionPlace;

use crate::WakeupDecision;

/// One ready task waiting in a [`ReadyQueue`]: the backend's payload
/// (a task id, a node handle, …) plus the wake-up decision flags that
/// drive the discipline. Backends construct entries from the
/// [`WakeupDecision`] and never touch the flags afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEntry<T> {
    payload: T,
    pinned: Option<ExecutionPlace>,
    stealable: bool,
}

impl<T> ReadyEntry<T> {
    /// Package `payload` with the queueing flags of `decision`.
    pub fn new(payload: T, decision: &WakeupDecision) -> Self {
        ReadyEntry {
            payload,
            pinned: decision.pinned,
            stealable: decision.stealable,
        }
    }

    /// An explicitly stealable, unpinned entry (tests, ablations).
    pub fn loose(payload: T) -> Self {
        ReadyEntry {
            payload,
            pinned: None,
            stealable: true,
        }
    }

    /// The backend payload.
    pub fn payload(&self) -> &T {
        &self.payload
    }

    /// The execution place committed at wake-up, if any; pinned entries
    /// bypass the dequeue-time search.
    pub fn pinned(&self) -> Option<ExecutionPlace> {
        self.pinned
    }

    /// May another worker take this entry?
    pub fn is_stealable(&self) -> bool {
        self.stealable
    }

    /// Decompose into `(payload, pinned place)` for dispatch.
    pub fn into_parts(self) -> (T, Option<ExecutionPlace>) {
        (self.payload, self.pinned)
    }
}

/// A worker's ready queue (the XiTAO WSQ), generic over the backend's
/// payload type. See the module docs for the ordering contract.
#[derive(Clone, Debug)]
pub struct ReadyQueue<T> {
    entries: VecDeque<ReadyEntry<T>>,
    /// Number of stealable entries currently queued. Lets the steal
    /// path's victim scan reject an empty-handed queue in O(1) instead
    /// of walking every entry — on a large machine the thief's
    /// O(cores) victim collection is the hottest idle-path loop, and
    /// most queues hold nothing stealable most of the time.
    stealable: usize,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue::new()
    }
}

impl<T> ReadyQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        ReadyQueue {
            entries: VecDeque::new(),
            stealable: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries a thief could take (before eligibility
    /// filtering). Maintained incrementally; O(1).
    pub fn stealable_len(&self) -> usize {
        self.stealable
    }

    /// Enqueue at the owner's end.
    pub fn push(&mut self, entry: ReadyEntry<T>) {
        if entry.stealable {
            self.stealable += 1;
        }
        self.entries.push_back(entry);
    }

    #[inline]
    fn took(&mut self, entry: ReadyEntry<T>) -> ReadyEntry<T> {
        if entry.stealable {
            self.stealable -= 1;
        }
        entry
    }

    /// The owner's pop: unstealable entries first (oldest first), then
    /// the stealable backlog (newest first).
    pub fn pop_own(&mut self) -> Option<ReadyEntry<T>> {
        if self.stealable < self.entries.len() {
            if let Some(i) = self.entries.iter().position(|e| !e.stealable) {
                return self.entries.remove(i).map(|e| self.took(e));
            }
        }
        self.entries.pop_back().map(|e| self.took(e))
    }

    /// Would a thief whose eligibility test is `eligible` get an entry
    /// from this queue? (Victim scans; does not disturb the queue.)
    /// O(1) when nothing is stealable — the common case across a large
    /// machine's queues.
    pub fn can_steal(&self, mut eligible: impl FnMut(&T) -> bool) -> bool {
        self.stealable > 0
            && self
                .entries
                .iter()
                .any(|e| e.stealable && eligible(&e.payload))
    }

    /// A thief's take: the oldest entry that is both stealable and
    /// `eligible` for the thief. Entries the thief may not
    /// run (node affinity) are skipped without being reordered. O(1)
    /// when nothing is stealable.
    pub fn steal(&mut self, mut eligible: impl FnMut(&T) -> bool) -> Option<ReadyEntry<T>> {
        if self.stealable == 0 {
            return None;
        }
        let i = self
            .entries
            .iter()
            .position(|e| e.stealable && eligible(&e.payload))?;
        self.entries.remove(i).map(|e| self.took(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, Priority, Scheduler, TaskMeta, TaskTypeId};
    use das_topology::{CoreId, Topology};
    use std::sync::Arc;

    fn pinned_entry(id: u32, place: ExecutionPlace) -> ReadyEntry<u32> {
        ReadyEntry {
            payload: id,
            pinned: Some(place),
            stealable: false,
        }
    }

    fn place(topo: &Topology) -> ExecutionPlace {
        topo.place(CoreId(0), 1).unwrap()
    }

    #[test]
    fn owner_pops_stealable_backlog_lifo() {
        let mut q = ReadyQueue::new();
        for i in 0..4u32 {
            q.push(ReadyEntry::loose(i));
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop_own().map(|e| *e.payload())).collect();
        assert_eq!(popped, vec![3, 2, 1, 0]);
    }

    #[test]
    fn owner_pops_pinned_first_fifo() {
        let topo = Topology::tx2();
        let p = place(&topo);
        let mut q = ReadyQueue::new();
        q.push(ReadyEntry::loose(0));
        q.push(pinned_entry(10, p));
        q.push(ReadyEntry::loose(1));
        q.push(pinned_entry(11, p));
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop_own().map(|e| *e.payload())).collect();
        // Both pinned entries (oldest first), then the stealable LIFO.
        assert_eq!(popped, vec![10, 11, 1, 0]);
    }

    #[test]
    fn thief_takes_oldest_eligible_and_skips_pinned() {
        let topo = Topology::tx2();
        let p = place(&topo);
        let mut q = ReadyQueue::new();
        q.push(pinned_entry(10, p));
        q.push(ReadyEntry::loose(0));
        q.push(ReadyEntry::loose(1));
        assert!(q.can_steal(|_| true));
        assert_eq!(*q.steal(|_| true).unwrap().payload(), 0);
        assert_eq!(*q.steal(|_| true).unwrap().payload(), 1);
        // Only the pinned entry remains: invisible to thieves.
        assert!(!q.can_steal(|_| true));
        assert_eq!(q.steal(|_| true), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn eligibility_filter_skips_without_reordering() {
        let mut q = ReadyQueue::new();
        for i in 0..4u32 {
            q.push(ReadyEntry::loose(i));
        }
        // Thief may only run odd payloads.
        assert_eq!(*q.steal(|t| t % 2 == 1).unwrap().payload(), 1);
        assert_eq!(*q.steal(|t| t % 2 == 1).unwrap().payload(), 3);
        assert_eq!(q.steal(|t| t % 2 == 1), None);
        // Evens still in order for the owner.
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop_own().map(|e| *e.payload())).collect();
        assert_eq!(rest, vec![2, 0]);
    }

    #[test]
    fn entries_mirror_wakeup_decisions() {
        let topo = Arc::new(Topology::tx2());
        let sched = Scheduler::new(Arc::clone(&topo), Policy::DamC);
        let high = TaskMeta::new(TaskTypeId(0), Priority::High);
        let low = TaskMeta::new(TaskTypeId(0), Priority::Low);
        let dh = sched.on_wakeup(&high, CoreId(3));
        let dl = sched.on_wakeup(&low, CoreId(3));
        let eh = ReadyEntry::new(7u32, &dh);
        let el = ReadyEntry::new(8u32, &dl);
        assert!(!eh.is_stealable());
        assert_eq!(eh.pinned(), dh.pinned);
        assert!(eh.pinned().is_some());
        assert!(el.is_stealable());
        assert_eq!(el.pinned(), None);
        let (payload, pinned) = eh.into_parts();
        assert_eq!(payload, 7);
        assert_eq!(pinned, dh.pinned);
    }

    #[test]
    fn stealable_len_tracks_every_mutation() {
        let topo = Topology::tx2();
        let p = place(&topo);
        let mut q = ReadyQueue::new();
        assert_eq!(q.stealable_len(), 0);
        assert!(!q.can_steal(|_| true), "empty queue is O(1) ineligible");
        q.push(ReadyEntry::loose(0));
        q.push(pinned_entry(10, p));
        q.push(ReadyEntry::loose(1));
        assert_eq!(q.stealable_len(), 2);
        // Owner pops the pinned entry first: count untouched.
        assert_eq!(*q.pop_own().unwrap().payload(), 10);
        assert_eq!(q.stealable_len(), 2);
        // A steal takes one stealable entry.
        assert_eq!(*q.steal(|_| true).unwrap().payload(), 0);
        assert_eq!(q.stealable_len(), 1);
        // Owner pops the last stealable entry.
        assert_eq!(*q.pop_own().unwrap().payload(), 1);
        assert_eq!(q.stealable_len(), 0);
        assert!(q.is_empty());
        // Eligibility veto leaves the count alone.
        q.push(ReadyEntry::loose(7));
        assert!(q.steal(|_| false).is_none());
        assert_eq!(q.stealable_len(), 1);
    }
}
