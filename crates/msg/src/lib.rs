//! # das-msg — an in-process message-passing substrate
//!
//! The paper's distributed 2-D Heat application (§4.2.2) encapsulates MPI
//! boundary exchanges in high-priority tasks. We have no MPI and no
//! Infiniband; this crate provides the minimal message-passing surface
//! that application needs — point-to-point send/receive with tags, and a
//! barrier — between *ranks living in one process*, each typically owning
//! its own runtime instance and a slice of the global grid.
//!
//! The substitution is behaviour-preserving for the experiment because
//! the scheduling question under study is *where the communication tasks
//! run and how moldability reduces contention around them*, not the wire
//! protocol: messages here still block the receiver until the neighbour's
//! boundary arrives, creating the same cross-rank critical path as MPI
//! ghost-cell exchange.
//!
//! A message is a row of `f64` values, the row the applications
//! exchange and the collectives work on.
//!
//! ```
//! use das_msg::Communicator;
//!
//! let comm = Communicator::new(2);
//! let e0 = comm.endpoint(0);
//! let e1 = comm.endpoint(1);
//! let h = std::thread::spawn(move || {
//!     e1.send(0, 7, vec![1.0, 2.0]);
//!     e1.recv(0, 8)
//! });
//! let got = e0.recv(1, 7);
//! e0.send(1, 8, vec![3.0]);
//! assert_eq!(got, vec![1.0, 2.0]);
//! assert_eq!(h.join().unwrap(), vec![3.0]);
//! ```

mod collectives;

pub use collectives::ReduceOp;
#[cfg(test)]
use collectives::COLLECTIVE_TAG_BASE;

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A message: a row of grid values, what the ghost-cell exchanges and
/// the collectives carry.
pub(crate) type Payload = Vec<f64>;

/// Key of a mailbox slot: `(source rank, tag)`.
type Key = (usize, u32);

struct Mailbox {
    /// FIFO per (source, tag): messages with equal key preserve order.
    slots: Mutex<BTreeMap<Key, VecDeque<Payload>>>,
    cond: Condvar,
}

struct BarrierState {
    arrived: Mutex<(usize, u64)>, // (count, generation)
    cond: Condvar,
}

struct Shared {
    n: usize,
    boxes: Vec<Mailbox>,
    barrier: BarrierState,
}

/// A group of `n` ranks that can exchange messages.
/// Clone-free: hand out [`Endpoint`]s instead.
pub struct Communicator {
    shared: Arc<Shared>,
}

impl Communicator {
    /// Create a communicator with ranks `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "communicator needs at least one rank");
        Communicator {
            shared: Arc::new(Shared {
                n,
                boxes: (0..n)
                    .map(|_| Mailbox {
                        slots: Mutex::new(BTreeMap::new()),
                        cond: Condvar::new(),
                    })
                    .collect(),
                barrier: BarrierState {
                    arrived: Mutex::new((0, 0)),
                    cond: Condvar::new(),
                },
            }),
        }
    }

    /// The endpoint of `rank` (cheap, cloneable handle).
    ///
    /// # Panics
    /// Panics if `rank >= size`.
    pub fn endpoint(&self, rank: usize) -> Endpoint {
        assert!(rank < self.shared.n, "rank {rank} out of range");
        Endpoint {
            rank,
            shared: Arc::clone(&self.shared),
        }
    }

    /// All endpoints, rank order — convenient for spawning one thread per
    /// rank.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.shared.n).map(|r| self.endpoint(r)).collect()
    }
}

/// A rank's handle for sending, receiving and synchronising.
#[derive(Clone)]
pub struct Endpoint {
    rank: usize,
    shared: Arc<Shared>,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Asynchronous send (buffered, never blocks): deliver `msg` to
    /// `dst` under `tag`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    pub fn send(&self, dst: usize, tag: u32, msg: Payload) {
        assert!(dst < self.shared.n, "destination {dst} out of range");
        let mbox = &self.shared.boxes[dst];
        {
            let mut slots = mbox.slots.lock();
            slots.entry((self.rank, tag)).or_default().push_back(msg);
        }
        mbox.cond.notify_all();
    }

    /// Blocking receive of the next message from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: u32) -> Payload {
        let mbox = &self.shared.boxes[self.rank];
        let mut slots = mbox.slots.lock();
        loop {
            if let Some(p) = Self::take(&mut slots, (src, tag)) {
                return p;
            }
            mbox.cond.wait(&mut slots);
        }
    }

    /// Non-blocking receive that collapses a backlog of *idempotent
    /// state reports*: drains every queued message from `src` with
    /// `tag` and returns only the newest, or `None` when nothing is
    /// queued: a reader that missed k reports since its last look
    /// wants one current value, not k stale ones.
    pub fn try_recv_latest(&self, src: usize, tag: u32) -> Option<Payload> {
        let mbox = &self.shared.boxes[self.rank];
        let mut slots = mbox.slots.lock();
        slots.remove(&(src, tag))?.pop_back()
    }

    fn take(slots: &mut BTreeMap<Key, VecDeque<Payload>>, key: Key) -> Option<Payload> {
        let q = slots.get_mut(&key)?;
        let p = q.pop_front();
        if q.is_empty() {
            slots.remove(&key);
        }
        p
    }

    /// Combined send + receive with the same partner, the shape of a
    /// ghost-cell exchange. Sends first (sends are non-blocking), so two
    /// neighbours `sendrecv`-ing each other never deadlock.
    pub fn sendrecv(&self, peer: usize, tag: u32, msg: Payload) -> Payload {
        self.send(peer, tag, msg);
        #[expect(
            clippy::disallowed_methods,
            reason = "both partners send before either receives, so the matching frame \
                      is already in flight when this recv parks."
        )]
        self.recv(peer, tag)
    }

    /// Block until all ranks have called `barrier` the same number of
    /// times.
    pub fn barrier(&self) {
        let b = &self.shared.barrier;
        let mut st = b.arrived.lock();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.shared.n {
            st.0 = 0;
            st.1 = st.1.wrapping_add(1);
            b.cond.notify_all();
        } else {
            while st.1 == gen {
                b.cond.wait(&mut st);
            }
        }
    }

    /// Sum-allreduce of equally sized vectors across all ranks (used by
    /// the distributed K-means extension). Rank 0 gathers, reduces and
    /// broadcasts; O(n) messages, fine for intra-process ranks.
    pub fn allreduce_sum(&self, mut local: Payload) -> Payload {
        const GATHER: u32 = u32::MAX - 1;
        const BCAST: u32 = u32::MAX;
        if self.shared.n == 1 {
            return local;
        }
        if self.rank == 0 {
            for src in 1..self.shared.n {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "every non-root rank sends its GATHER part unconditionally \
                              before waiting on BCAST — collective call discipline \
                              bounds this wait."
                )]
                let part = self.recv(src, GATHER);
                assert_eq!(part.len(), local.len(), "allreduce length mismatch");
                for (a, b) in local.iter_mut().zip(part) {
                    *a += b;
                }
            }
            for dst in 1..self.shared.n {
                self.send(dst, BCAST, local.clone());
            }
            local
        } else {
            self.send(0, GATHER, local);
            #[expect(
                clippy::disallowed_methods,
                reason = "rank 0 broadcasts to every rank after reducing; our GATHER \
                          part is already sent (sends are non-blocking), so rank 0 \
                          cannot be stuck waiting on us."
            )]
            self.recv(0, BCAST)
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests of the blocking receive itself: every recv here is matched by a \
              send the test makes"
)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    /// Non-blocking receive.
    fn try_recv(e: &Endpoint, src: usize, tag: u32) -> Option<Payload> {
        Endpoint::take(&mut e.shared.boxes[e.rank].slots.lock(), (src, tag))
    }

    #[test]
    fn fifo_order_per_key() {
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        let b = comm.endpoint(1);
        a.send(1, 0, vec![1.0]);
        a.send(1, 0, vec![2.0]);
        a.send(1, 1, vec![9.0]);
        assert_eq!(b.recv(0, 0), vec![1.0]);
        assert_eq!(b.recv(0, 1), vec![9.0]);
        assert_eq!(b.recv(0, 0), vec![2.0]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        let b = comm.endpoint(1);
        let h = thread::spawn(move || b.recv(0, 3));
        thread::sleep(Duration::from_millis(20));
        a.send(1, 3, vec![42.0]);
        assert_eq!(h.join().unwrap(), vec![42.0]);
    }

    #[test]
    fn try_recv_and_timeout() {
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        assert_eq!(try_recv(&a, 1, 0), None);
        comm.endpoint(1).send(0, 0, vec![5.0]);
        assert_eq!(try_recv(&a, 1, 0), Some(vec![5.0]));
    }

    #[test]
    fn sendrecv_pairs_do_not_deadlock() {
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        let b = comm.endpoint(1);
        let h = thread::spawn(move || b.sendrecv(0, 1, vec![1.0]));
        let got_a = a.sendrecv(1, 1, vec![2.0]);
        assert_eq!(got_a, vec![1.0]);
        assert_eq!(h.join().unwrap(), vec![2.0]);
    }

    #[test]
    fn ring_exchange_four_ranks() {
        let comm = Communicator::new(4);
        let eps = comm.endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|e| {
                thread::spawn(move || {
                    let right = (e.rank() + 1) % e.size();
                    let left = (e.rank() + e.size() - 1) % e.size();
                    e.send(right, 0, vec![e.rank() as f64]);
                    let from_left = e.recv(left, 0);
                    e.barrier();
                    from_left[0] as usize
                })
            })
            .collect();
        let got: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, vec![3, 0, 1, 2]);
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let comm = Communicator::new(3);
        let eps = comm.endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|e| {
                thread::spawn(move || {
                    for _ in 0..50 {
                        e.barrier();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let comm = Communicator::new(4);
        let eps = comm.endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|e| {
                thread::spawn(move || {
                    let r = e.rank() as f64;
                    e.allreduce_sum(vec![r, 1.0])
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![6.0, 4.0]);
        }
    }

    #[test]
    fn single_rank_allreduce_is_identity() {
        let comm = Communicator::new(1);
        let e = comm.endpoint(0);
        assert_eq!(e.allreduce_sum(vec![3.0]), vec![3.0]);
    }

    #[test]
    #[should_panic]
    fn bad_rank_panics() {
        let comm = Communicator::new(2);
        let _ = comm.endpoint(2);
    }

    #[test]
    fn high_volume_interleaved_tags_preserve_per_key_fifo() {
        // Stress: 4 senders each push 500 messages to rank 0 across 3
        // tags; the receiver must see each (source, tag) stream in
        // order, regardless of global interleaving.
        let comm = Communicator::new(5);
        let recv = comm.endpoint(0);
        let handles: Vec<_> = (1..5)
            .map(|r| {
                let ep = comm.endpoint(r);
                thread::spawn(move || {
                    for i in 0..500u32 {
                        ep.send(0, i % 3, vec![r as f64, f64::from(i)]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for src in 1..5 {
            for tag in 0..3u32 {
                let mut last = -1.0;
                while let Some(m) = try_recv(&recv, src, tag) {
                    assert_eq!(m[0] as usize, src);
                    assert!(m[1] > last, "FIFO violated for ({src},{tag})");
                    assert_eq!(m[1] as u32 % 3, tag);
                    last = m[1];
                }
                // 500 messages over 3 tags: 167 or 166 per tag.
                assert!(last >= 497.0, "({src},{tag}) stream incomplete: {last}");
            }
        }
    }

    #[test]
    fn try_recv_latest_collapses_a_report_backlog() {
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        let b = comm.endpoint(1);
        assert_eq!(a.try_recv_latest(1, 5), None, "empty mailbox");
        for load in 0..4 {
            b.send(0, 5, vec![f64::from(load)]);
        }
        assert_eq!(a.try_recv_latest(1, 5), Some(vec![3.0]), "newest wins");
        assert_eq!(a.try_recv_latest(1, 5), None, "backlog fully drained");
        // Other (source, tag) streams are untouched by the collapse.
        b.send(0, 6, vec![9.0]);
        b.send(0, 5, vec![7.0]);
        assert_eq!(a.try_recv_latest(1, 5), Some(vec![7.0]));
        assert_eq!(a.recv(1, 6), vec![9.0]);
    }

    #[test]
    fn empty_payloads_deliver_and_preserve_order() {
        // A zero-length payload is a legitimate message (a doorbell /
        // barrier-ish signal), not a dropped one.
        let comm = Communicator::new(2);
        let a = comm.endpoint(0);
        let b = comm.endpoint(1);
        a.send(1, 0, Vec::new());
        a.send(1, 0, vec![1.0]);
        a.send(1, 0, Vec::new());
        assert_eq!(b.recv(0, 0), Vec::<f64>::new());
        assert_eq!(b.recv(0, 0), vec![1.0]);
        assert_eq!(try_recv(&b, 0, 0), Some(Vec::new()));
        assert_eq!(try_recv(&b, 0, 0), None);
        // Empty sendrecv round-trips too.
        let h = thread::spawn(move || b.sendrecv(0, 1, Vec::new()));
        assert_eq!(a.sendrecv(1, 1, Vec::new()), Vec::<f64>::new());
        assert_eq!(h.join().unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn application_tags_at_the_collective_boundary_do_not_collide() {
        // The highest legal application tag sits directly below the
        // reserved collective block; point-to-point traffic there must
        // not interfere with a concurrent collective (whose internal
        // tags start exactly at COLLECTIVE_TAG_BASE).
        let edge = COLLECTIVE_TAG_BASE - 1;
        let comm = Communicator::new(3);
        let handles: Vec<_> = comm
            .endpoints()
            .into_iter()
            .map(|e| {
                thread::spawn(move || {
                    if e.rank() == 1 {
                        e.send(0, edge, vec![42.0]);
                    }
                    let b = e.broadcast(0, vec![e.rank() as f64]);
                    let edge_msg = (e.rank() == 0).then(|| e.recv(1, edge));
                    (b, edge_msg)
                })
            })
            .collect();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (b, _) in &got {
            assert_eq!(b, &vec![0.0], "broadcast unaffected by edge-tag traffic");
        }
        assert_eq!(got[0].1, Some(vec![42.0]), "edge-tag message intact");
    }

    #[test]
    fn sendrecv_chain_of_many_ranks() {
        // Every rank simultaneously exchanges with both neighbours in a
        // line — the heat ghost-exchange pattern at 8 ranks; any tag or
        // ordering bug deadlocks (caught by the 10 s watchdog of the
        // harness) or corrupts a payload.
        let n = 8;
        let comm = Communicator::new(n);
        let handles: Vec<_> = comm
            .endpoints()
            .into_iter()
            .map(|ep| {
                thread::spawn(move || {
                    let r = ep.rank();
                    let mut got = Vec::new();
                    for it in 0..50u32 {
                        if r > 0 {
                            got.push(ep.sendrecv(r - 1, it, vec![r as f64])[0]);
                        }
                        if r + 1 < ep.size() {
                            got.push(ep.sendrecv(r + 1, it, vec![r as f64])[0]);
                        }
                    }
                    got
                })
            })
            .collect();
        for (r, h) in handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            for v in got {
                assert!(
                    (v - (r as f64 - 1.0)).abs() < 1e-12 || (v - (r as f64 + 1.0)).abs() < 1e-12,
                    "rank {r} received {v}, expected a neighbour id"
                );
            }
        }
    }
}
