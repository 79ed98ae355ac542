//! Sharded MPMC ingress: the concurrent front door of an executor
//! session.
//!
//! Every [`Executor`] is driven through `&mut self` — one client at a
//! time. That is the right shape for the decision layer (the PTT and
//! the queues are the backend's to serialise), but it makes the *front
//! door* a global lock: N submitting threads funnel through one
//! critical section per job. This module adds the tier the ROADMAP's
//! "high-throughput ingress" item calls for:
//!
//! * **Sharded, cache-padded slot buffers** — an [`Ingress`] owns
//!   `ingress_shards` shards ([`SessionBuilder::ingress_shards`]),
//!   each a [`CachePadded`] slot buffer with its own lock and its own
//!   atomic id counter, so submitters on different shards never touch
//!   the same cache line, in the style of block-STM's scheduler
//!   counters.
//! * **Lock-free ticket/JobId allocation** — shard `s` of `S` allocates
//!   ingress ids `s, s + S, s + 2S, …` from a per-shard padded
//!   `fetch_add`; no global sequencer, no lock, unique by construction.
//! * **Group commit** — after buffering, a submitter *opportunistically*
//!   tries the backend lock. If it is free, the submitter becomes the
//!   flusher: it drains **every** shard, orders the jobs by ingress id
//!   and hands them to the backend as **one**
//!   [`Executor::submit_many`] batch. If the lock is held, the
//!   submitter returns immediately — its job rides in the current
//!   flusher's *next* batch. Concurrency therefore *grows* the batch:
//!   the per-batch fixed costs (the backend call, the cluster's one
//!   wire message per node) amortise over everything that arrived
//!   while the previous batch was committing. This is the classic
//!   group-commit/flat-combining effect; `das_benchmark` prices the
//!   front door as `ingress.submit_ns` and `ingress.tax_pct`.
//! * **Admission control** — a padded global counter bounds the jobs
//!   admitted-but-not-retired at [`SessionBuilder::max_outstanding`];
//!   beyond it, `submit` sheds with [`ExecError::Overloaded`] *before*
//!   touching a shard. Backends enforce their own bound from the same
//!   session knob, so the contract holds even for clients that bypass
//!   the ingress.
//!
//! ## Determinism
//!
//! Each submitter passes a stable **lane** id (thread index, client
//! id). The lane→shard assignment is a seeded hash — fixed seed, fixed
//! assignment — and flush order is ingress-id order. A single lane
//! therefore replays the exact submission order, and distinct lanes on
//! distinct shards replay deterministically regardless of thread
//! interleaving (each lane's ids are a fixed arithmetic progression;
//! the merged id order is a pure function of the per-lane counts). Two
//! lanes hashed onto the *same* shard share its counter and their
//! relative order becomes a race — callers that need bit-reproducible
//! multi-lane runs give lanes distinct shards (e.g. `shards >= lanes`
//! with distinct lane ids, which the seeded assignment spreads).
//!
//! ## Claims, not tickets
//!
//! The ingress hands out [`IngressTicket`]s (claim checks), not backend
//! [`Ticket`]s: a buffered job has no backend identity until its batch
//! is flushed. [`Ingress::wait`] flushes, redeems the claim against the
//! backend ticket it mapped at flush time, and returns the backend's
//! [`JobStats`] (record ids are the *backend's* dense ids). A batch
//! whose flush fails loses its claims — exactly the backend's
//! failed-batch semantics; jobs a partially-admitting backend kept
//! still surface in the next [`Ingress::drain`].

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::exec::{session_tag, ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use crate::jobs::{JobSpec, JobStats, StreamStats};

/// Pads and aligns a value to 128 bytes — two cache lines, covering
/// the adjacent-line prefetcher of modern x86 and the 128-byte lines
/// of big-little aarch64 — so neighbouring shard counters never
/// false-share. A dependency-free stand-in for crossbeam's
/// `CachePadded` (this crate is std-only by design).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// SplitMix64 — the statelesss mixer seeding the lane→shard
/// assignment. Public domain constants (Steele et al.).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Claim check for one job accepted by [`Ingress::submit`], redeemable
/// exactly once with [`Ingress::wait`]. Like [`Ticket`], deliberately
/// neither `Copy` nor `Clone` — double-redemption is a compile error.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct IngressTicket {
    session: u64,
    id: u64,
}

impl IngressTicket {
    /// The ingress-internal id (shard-strided, *not* a backend job id).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One shard: a padded slot buffer plus its lock-free id counter.
struct Shard<G> {
    /// Count of ids allocated by this shard; id = shard + count * S.
    next: AtomicU64,
    /// The slot buffer. The lock scope is one push (or one drain by
    /// the flusher); contention is 1/S of a global buffer's.
    slots: Mutex<Vec<(u64, JobSpec<G>)>>,
}

impl<G> Default for Shard<G> {
    fn default() -> Self {
        Shard {
            next: AtomicU64::new(0),
            slots: Mutex::new(Vec::new()),
        }
    }
}

/// Backend state, guarded by the flush lock.
struct Backend<E: Executor> {
    exec: E,
    /// ingress id → backend ticket, for every flushed, un-retired job.
    claims: HashMap<u64, Ticket>,
}

/// The sharded, bounded MPMC submission tier ahead of an [`Executor`].
/// See the module docs for the architecture; build with
/// [`Ingress::new`]. All methods take `&self` — the ingress is the
/// concurrent front door (`Sync` when the backend and its graphs are
/// `Send`).
pub struct Ingress<E: Executor> {
    shards: Box<[CachePadded<Shard<E::Graph>>]>,
    /// Jobs admitted and not yet retired (waited, drained, or lost
    /// with a failed batch); the admission-control gate.
    outstanding: CachePadded<AtomicUsize>,
    /// Admission bound (`usize::MAX` = unbounded).
    limit: usize,
    seed: u64,
    session: u64,
    backend: Mutex<Backend<E>>,
}

impl<E: Executor> Ingress<E> {
    /// An ingress over `exec`, configured by the session's
    /// [`ingress_shards`](SessionBuilder::ingress_shards),
    /// [`max_outstanding`](SessionBuilder::max_outstanding) and seed.
    pub fn new(exec: E, session: &SessionBuilder) -> Self {
        Self::with_config(
            exec,
            session.ingress_shards,
            session.max_outstanding,
            session.seed,
        )
    }

    /// An ingress with an explicit shard count, admission bound and
    /// lane-assignment seed.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_config(exec: E, shards: usize, max_outstanding: Option<usize>, seed: u64) -> Self {
        assert!(shards > 0, "ingress needs at least one shard");
        Ingress {
            shards: (0..shards).map(|_| CachePadded::default()).collect(),
            outstanding: CachePadded::new(AtomicUsize::new(0)),
            limit: max_outstanding.unwrap_or(usize::MAX),
            seed,
            session: session_tag(),
            backend: Mutex::new(Backend {
                exec,
                claims: HashMap::new(),
            }),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Jobs admitted and not yet retired.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// The seeded lane→shard assignment (pure; exposed so tests can
    /// pin determinism).
    pub fn shard_of(&self, lane: u64) -> usize {
        (splitmix64(self.seed ^ lane) % self.shards.len() as u64) as usize
    }

    /// Submit one job from `lane` (the caller's stable identity — a
    /// thread index, a client id). Admission control runs first; then
    /// the job is buffered on the lane's shard under a fresh ingress
    /// id; then, if the backend lock happens to be free, the caller
    /// group-commits every buffered job (see the module docs). Never
    /// blocks on another flusher.
    ///
    /// # Errors
    /// [`ExecError::Overloaded`] when the admission bound is hit
    /// (nothing was buffered); any error of the opportunistic flush it
    /// performed (the caller's own job was part of that failed batch).
    pub fn submit(&self, lane: u64, spec: JobSpec<E::Graph>) -> Result<IngressTicket, ExecError> {
        let prev = self.outstanding.fetch_add(1, Ordering::AcqRel);
        if prev >= self.limit {
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            return Err(ExecError::Overloaded {
                outstanding: prev,
                limit: self.limit,
            });
        }
        let s = self.shard_of(lane);
        let shard = &self.shards[s];
        let stride = self.shards.len() as u64;
        // relaxed-ok: per-shard id allocation; ids only need to be
        // unique, and the strided arithmetic keeps shards disjoint —
        // the claim handshake below carries the ordering.
        let id = s as u64 + shard.next.fetch_add(1, Ordering::Relaxed) * stride;
        shard
            .slots
            .lock()
            .expect("ingress shard poisoned")
            .push((id, spec));
        // Opportunistic group commit: whoever finds the backend free
        // flushes for everyone; everyone else has already succeeded.
        if let Ok(mut backend) = self.backend.try_lock() {
            self.flush_locked(&mut backend)?;
        }
        Ok(IngressTicket {
            session: self.session,
            id,
        })
    }

    /// Block until every buffered job has been handed to the backend
    /// (one [`Executor::submit_many`] batch in ingress-id order).
    /// Normally implicit in `submit`/`wait`/`drain`; exposed for
    /// latency-sensitive clients that want the batch committed *now*.
    pub fn flush(&self) -> Result<(), ExecError> {
        let mut backend = self.backend.lock().expect("ingress backend poisoned");
        self.flush_locked(&mut backend)
    }

    /// Redeem a claim: flush (so the job reaches the backend), then
    /// wait on the backend ticket mapped at flush time. Returns the
    /// backend's record — its `id` is the backend's dense job id.
    pub fn wait(&self, ticket: IngressTicket) -> Result<JobStats, ExecError> {
        let mut backend = self.backend.lock().expect("ingress backend poisoned");
        self.flush_locked(&mut backend)?;
        if ticket.session != self.session {
            // Backend job ids and ingress ids are unrelated numbering
            // schemes; a foreign claim names nothing here.
            return Err(ExecError::Rejected(format!(
                "ingress claim {} belongs to another ingress",
                ticket.id
            )));
        }
        let claim = backend.claims.remove(&ticket.id).ok_or_else(|| {
            ExecError::Rejected(format!(
                "ingress claim {} was already redeemed or lost with a failed batch",
                ticket.id
            ))
        })?;
        // lock-ok: backend workers never take the ingress mutex, so no
        // inversion is possible; serialising claim redeemers behind the
        // backend lock is the group-commit design (flush + redeem are
        // one atomic step against concurrent submitters).
        let stats = backend.exec.wait(claim)?;
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        Ok(stats)
    }

    /// Flush, then drain the backend: every admitted job retires and
    /// the records of all jobs not individually waited come back as
    /// one [`StreamStats`].
    pub fn drain(&self) -> Result<StreamStats, ExecError> {
        let mut backend = self.backend.lock().expect("ingress backend poisoned");
        let flush = self.flush_locked(&mut backend);
        // Flushed jobs retire whether the drain succeeds or the batch
        // is lost; claims are void either way.
        let retired = backend.claims.len();
        backend.claims.clear();
        self.outstanding.fetch_sub(retired, Ordering::AcqRel);
        flush?;
        backend.exec.drain()
    }

    /// Surrender the backend's counters (see
    /// [`Executor::take_extras`]).
    pub fn take_extras(&self) -> ExecExtras {
        self.backend
            .lock()
            .expect("ingress backend poisoned")
            .exec
            .take_extras()
    }

    /// Tear down the front door and recover the backend.
    pub fn into_inner(self) -> E {
        self.backend
            .into_inner()
            .expect("ingress backend poisoned")
            .exec
    }

    /// Drain every shard, order by ingress id, and commit the batch
    /// with one `submit_many`. A failed batch voids its jobs' claims
    /// (admission slots included).
    fn flush_locked(&self, backend: &mut MutexGuard<'_, Backend<E>>) -> Result<(), ExecError> {
        let mut batch: Vec<(u64, JobSpec<E::Graph>)> = Vec::new();
        for shard in self.shards.iter() {
            batch.append(&mut shard.slots.lock().expect("ingress shard poisoned"));
        }
        if batch.is_empty() {
            return Ok(());
        }
        // Ingress-id order: deterministic given the per-lane counts,
        // and equal to submission order for a single lane.
        batch.sort_unstable_by_key(|&(id, _)| id);
        let mut ids = Vec::with_capacity(batch.len());
        let mut specs = Vec::with_capacity(batch.len());
        for (id, spec) in batch {
            ids.push(id);
            specs.push(spec);
        }
        match backend.exec.submit_many(specs) {
            Ok(tickets) => {
                debug_assert_eq!(tickets.len(), ids.len());
                for (id, t) in ids.into_iter().zip(tickets) {
                    backend.claims.insert(id, t);
                }
                Ok(())
            }
            Err(e) => {
                self.outstanding.fetch_sub(ids.len(), Ordering::AcqRel);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::session_tag;
    use crate::jobs::JobId;

    /// The `InstantExec` of the exec tests, reduced: "executes" at
    /// wait/drain time, counts via usize graphs.
    struct Instant {
        session: u64,
        next: u64,
        unclaimed: Vec<JobStats>,
    }

    impl Instant {
        fn new() -> Self {
            Instant {
                session: session_tag(),
                next: 0,
                unclaimed: Vec::new(),
            }
        }
    }

    impl Executor for Instant {
        type Graph = usize;

        fn backend(&self) -> &'static str {
            "instant"
        }

        fn submit(&mut self, spec: JobSpec<usize>) -> Result<Ticket, ExecError> {
            if spec.graph == 0 {
                return Err(ExecError::Rejected("empty graph".into()));
            }
            let id = JobId(self.next);
            self.next += 1;
            self.unclaimed.push(JobStats {
                id,
                class: spec.class,
                arrival: spec.arrival,
                started: self.next as f64,
                completed: self.next as f64 + 0.5,
                tasks: spec.graph,
                deadline: spec.deadline,
            });
            Ok(Ticket::new(self.session, id))
        }

        fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
            let id = ticket.job();
            if ticket.session() != self.session {
                return Err(ExecError::UnknownTicket(id));
            }
            let i = self
                .unclaimed
                .iter()
                .position(|j| j.id == id)
                .ok_or(ExecError::UnknownTicket(id))?;
            Ok(self.unclaimed.remove(i))
        }

        fn drain(&mut self) -> Result<StreamStats, ExecError> {
            Ok(StreamStats::from_jobs(std::mem::take(&mut self.unclaimed)))
        }
    }

    fn ingress(shards: usize, limit: Option<usize>) -> Ingress<Instant> {
        Ingress::with_config(Instant::new(), shards, limit, 42)
    }

    #[test]
    fn single_lane_preserves_submission_order() {
        let ing = ingress(4, None);
        for tasks in 1..=20usize {
            ing.submit(0, JobSpec::new(tasks)).expect("accepted");
        }
        let drained = ing.drain().expect("drains");
        assert_eq!(drained.jobs.len(), 20);
        // Backend ids are dense in submission order: flush order ==
        // ingress-id order == one lane's submission order.
        for (i, j) in drained.jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
            assert_eq!(j.tasks, i + 1);
        }
        assert_eq!(ing.outstanding(), 0);
    }

    #[test]
    fn strided_ids_are_unique_across_shards() {
        let ing = ingress(4, None);
        let mut ids: Vec<u64> = (0..64)
            .map(|lane| ing.submit(lane, JobSpec::new(1)).expect("accepted").id())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64, "ingress ids collide");
        assert_eq!(ing.drain().unwrap().jobs.len(), 64);
    }

    #[test]
    fn shard_assignment_is_seeded_and_stable() {
        let a = ingress(8, None);
        let b = Ingress::with_config(Instant::new(), 8, None, 42);
        let c = Ingress::with_config(Instant::new(), 8, None, 43);
        let map = |ing: &Ingress<Instant>| (0..32).map(|l| ing.shard_of(l)).collect::<Vec<_>>();
        assert_eq!(map(&a), map(&b), "equal seeds, equal assignment");
        assert_ne!(map(&a), map(&c), "different seeds spread differently");
        // And the assignment actually uses more than one shard.
        assert!(map(&a).iter().any(|&s| s != map(&a)[0]));
    }

    #[test]
    fn overload_rejects_at_exactly_the_limit_and_recovers_after_drain() {
        let ing = ingress(2, Some(3));
        for _ in 0..3 {
            ing.submit(0, JobSpec::new(1)).expect("under the limit");
        }
        match ing.submit(0, JobSpec::new(1)) {
            Err(ExecError::Overloaded { outstanding, limit }) => {
                assert_eq!((outstanding, limit), (3, 3));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(ing.outstanding(), 3, "the rejected job took no slot");
        assert_eq!(ing.drain().unwrap().jobs.len(), 3);
        assert_eq!(ing.outstanding(), 0);
        ing.submit(0, JobSpec::new(1))
            .expect("recovered after drain");
    }

    #[test]
    fn wait_redeems_a_claim_and_frees_its_slot() {
        let ing = ingress(2, Some(2));
        let t0 = ing.submit(0, JobSpec::new(3)).unwrap();
        let _t1 = ing.submit(0, JobSpec::new(5)).unwrap();
        let stats = ing.wait(t0).expect("claim redeems");
        assert_eq!(stats.tasks, 3);
        assert_eq!(ing.outstanding(), 1, "waited job retired");
        // The freed slot admits a new job under the bound.
        let t2 = ing.submit(0, JobSpec::new(7)).expect("slot freed");
        // A redeemed claim is void.
        let stale = IngressTicket {
            session: t2.session,
            id: 999,
        };
        assert!(matches!(ing.wait(stale), Err(ExecError::Rejected(_))));
        let rest = ing.drain().unwrap();
        assert_eq!(rest.jobs.len(), 2);
    }

    #[test]
    fn foreign_claims_are_rejected() {
        let a = ingress(2, None);
        let b = ingress(2, None);
        let t = a.submit(0, JobSpec::new(1)).unwrap();
        assert!(matches!(b.wait(t), Err(ExecError::Rejected(_))));
        assert_eq!(a.drain().unwrap().jobs.len(), 1);
    }

    #[test]
    fn backend_rejection_voids_the_batch_claims() {
        let ing = ingress(1, None);
        let t_ok = ing.submit(0, JobSpec::new(1));
        // Graph 0 is invalid for the Instant backend; the flush (which
        // this submit performs itself, the lock being free) fails.
        assert!(matches!(
            ing.submit(0, JobSpec::new(0)),
            Err(ExecError::Rejected(_))
        ));
        // t_ok was flushed by its own submit (group commit) *before*
        // the bad job arrived, so its claim survives.
        assert_eq!(ing.wait(t_ok.unwrap()).unwrap().tasks, 1);
        assert_eq!(ing.outstanding(), 0);
    }

    #[test]
    fn concurrent_lanes_account_every_job_exactly_once() {
        let ing = std::sync::Arc::new(ingress(8, None));
        let lanes = 16usize;
        let per_lane = 50usize;
        std::thread::scope(|scope| {
            for lane in 0..lanes {
                let ing = std::sync::Arc::clone(&ing);
                scope.spawn(move || {
                    for k in 0..per_lane {
                        ing.submit(lane as u64, JobSpec::new(1 + (k % 3)))
                            .expect("unbounded ingress accepts");
                    }
                });
            }
        });
        let drained = ing.drain().expect("drains");
        assert_eq!(drained.jobs.len(), lanes * per_lane);
        assert_eq!(ing.outstanding(), 0);
        // Dense backend ids: nothing lost, nothing duplicated.
        let mut ids: Vec<u64> = drained.jobs.iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..(lanes * per_lane) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn cache_padding_is_at_least_two_lines() {
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
        let padded = CachePadded::new(7u64);
        assert_eq!(*padded, 7);
        assert_eq!(padded.into_inner(), 7);
    }
}
