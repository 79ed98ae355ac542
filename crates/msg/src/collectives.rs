//! MPI-style collectives over [`Endpoint`]s.
//!
//! All collectives are *rooted at rank 0* internally (star topology):
//! with ranks living in one process, message latency is a mutex acquire,
//! so tree algorithms would only add complexity. Semantics follow MPI:
//! every rank of the communicator must call the same collectives in the
//! same order; tags are reserved from the top of the tag space so
//! collectives never collide with application point-to-point traffic
//! (which should use small tags).

use crate::{Endpoint, Payload};

/// Reserved tag block for collectives. Application tags must stay below
/// this value; [`Endpoint::send`] does not enforce it (tags are a
/// convention, as in MPI).
pub(crate) const COLLECTIVE_TAG_BASE: u32 = u32::MAX - 16;

const T_BCAST: u32 = COLLECTIVE_TAG_BASE;
const T_GATHER: u32 = COLLECTIVE_TAG_BASE + 1;
const T_REDUCE: u32 = COLLECTIVE_TAG_BASE + 2;
const T_ALLGATHER: u32 = COLLECTIVE_TAG_BASE + 3;

/// Element-wise reduction operators for [`Endpoint::allreduce`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Endpoint {
    /// Broadcast `root`'s payload to every rank; the non-root `payload`
    /// arguments are ignored (pass `Vec::new()`). Returns the broadcast
    /// value on every rank.
    pub(crate) fn broadcast(&self, root: usize, payload: Payload) -> Payload {
        assert!(root < self.size(), "broadcast root {root} out of range");
        if self.size() == 1 {
            return payload;
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send(dst, T_BCAST, payload.clone());
                }
            }
            payload
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "collective call discipline — the root sends to every non-root \
                          rank unconditionally, so the frame this recv waits on is \
                          guaranteed by the matching broadcast."
            )]
            self.recv(root, T_BCAST)
        }
    }

    /// Gather every rank's payload at `root`, rank order. Non-root ranks
    /// get `None`.
    pub(crate) fn gather(&self, root: usize, payload: Payload) -> Option<Vec<Payload>> {
        assert!(root < self.size(), "gather root {root} out of range");
        if self.rank() == root {
            let mut out: Vec<Payload> = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(payload.clone());
                } else {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "every non-root rank's matching gather call sends \
                                  unconditionally (non-blocking), so the part is in \
                                  flight by collective discipline."
                    )]
                    out.push(self.recv(src, T_GATHER));
                }
            }
            Some(out)
        } else {
            self.send(root, T_GATHER, payload);
            None
        }
    }

    /// Element-wise reduce of equally sized vectors at `root`; non-root
    /// ranks get `None`.
    pub(crate) fn reduce(&self, root: usize, op: ReduceOp, mut local: Payload) -> Option<Payload> {
        assert!(root < self.size(), "reduce root {root} out of range");
        if self.rank() == root {
            for src in 0..self.size() {
                if src == root {
                    continue;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "every non-root rank's matching reduce call sends its part \
                              unconditionally before returning None — collective \
                              discipline bounds this wait."
                )]
                let part = self.recv(src, T_REDUCE);
                assert_eq!(part.len(), local.len(), "reduce length mismatch");
                for (a, b) in local.iter_mut().zip(part) {
                    *a = op.apply(*a, b);
                }
            }
            Some(local)
        } else {
            self.send(root, T_REDUCE, local);
            None
        }
    }

    /// Reduce at rank 0 followed by broadcast: every rank gets the
    /// reduced vector. Generalises [`Endpoint::allreduce_sum`] to any
    /// [`ReduceOp`].
    pub fn allreduce(&self, op: ReduceOp, local: Payload) -> Payload {
        match self.reduce(0, op, local) {
            Some(v) => self.broadcast(0, v),
            None => self.broadcast(0, Payload::new()),
        }
    }

    /// All ranks receive the concatenation of every rank's payload in
    /// rank order (lengths may differ per rank).
    pub fn allgather(&self, payload: Payload) -> Vec<Payload> {
        if self.size() == 1 {
            return vec![payload];
        }
        // Gather at 0, then one broadcast per slot (keeps per-rank
        // payload boundaries without an encoding step).
        match self.gather(0, payload) {
            Some(out) => {
                for dst in 1..self.size() {
                    for part in &out {
                        self.send(dst, T_ALLGATHER, part.clone());
                    }
                }
                out
            }
            None => (0..self.size())
                .map(|_| {
                    #[expect(clippy::disallowed_methods, reason = "rank 0 only starts its broadcast leg after gathering every part; ours was sent by the gather above, so rank 0 cannot be stuck waiting on this rank.")]
                    self.recv(0, T_ALLGATHER)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Communicator;
    use std::thread;

    /// Run `f` on every rank of an `n`-communicator and return the
    /// per-rank results in rank order.
    fn on_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(Endpoint) -> T + Send + Sync + Copy + 'static,
    ) -> Vec<T> {
        let comm = Communicator::new(n);
        let handles: Vec<_> = comm
            .endpoints()
            .into_iter()
            .map(|e| thread::spawn(move || f(e)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let got = on_ranks(3, move |e| {
                let payload = if e.rank() == root {
                    vec![root as f64, 42.0]
                } else {
                    Vec::new()
                };
                e.broadcast(root, payload)
            });
            for v in got {
                assert_eq!(v, vec![root as f64, 42.0]);
            }
        }
    }

    #[test]
    fn gather_preserves_rank_order() {
        let got = on_ranks(4, |e| e.gather(2, vec![e.rank() as f64]));
        for (r, res) in got.iter().enumerate() {
            if r == 2 {
                let v = res.as_ref().unwrap();
                assert_eq!(v.len(), 4);
                for (s, part) in v.iter().enumerate() {
                    assert_eq!(part, &vec![s as f64]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn reduce_ops() {
        for (op, expect) in [
            (ReduceOp::Sum, vec![6.0, 4.0]),
            (ReduceOp::Min, vec![0.0, 1.0]),
            (ReduceOp::Max, vec![3.0, 1.0]),
        ] {
            let got = on_ranks(4, move |e| e.reduce(0, op, vec![e.rank() as f64, 1.0]));
            assert_eq!(got[0].as_ref().unwrap(), &expect, "{op:?}");
            assert!(got[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_matches_allreduce_sum() {
        let a = on_ranks(3, |e| e.allreduce(ReduceOp::Sum, vec![e.rank() as f64]));
        let b = on_ranks(3, |e| e.allreduce_sum(vec![e.rank() as f64]));
        assert_eq!(a, b);
        let m = on_ranks(3, |e| e.allreduce(ReduceOp::Max, vec![e.rank() as f64]));
        for v in m {
            assert_eq!(v, vec![2.0]);
        }
    }

    #[test]
    fn allgather_with_ragged_lengths() {
        let got = on_ranks(3, |e| e.allgather(vec![e.rank() as f64; e.rank() + 1]));
        for per_rank in got {
            assert_eq!(per_rank.len(), 3);
            for (s, part) in per_rank.iter().enumerate() {
                assert_eq!(part, &vec![s as f64; s + 1]);
            }
        }
    }

    #[test]
    fn repeated_collectives_stay_in_step() {
        let got = on_ranks(3, |e| {
            let mut acc = 0.0;
            for i in 0..20 {
                let v = e.allreduce(ReduceOp::Sum, vec![(e.rank() + i) as f64]);
                acc += v[0];
            }
            acc
        });
        // sum over i of (0+i)+(1+i)+(2+i) = 3 + 9i summed for i in 0..20.
        let expect: f64 = (0..20).map(|i| 3.0 + 3.0 * i as f64).sum();
        for v in got {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn single_rank_barrier_and_repeated_collectives_never_block() {
        // A 1-rank communicator must treat every collective (and the
        // barrier) as an immediate identity, generation after
        // generation — the shape a 1-node cluster drain epilogue runs.
        let comm = Communicator::new(1);
        let e = comm.endpoint(0);
        for i in 0..10 {
            e.barrier();
            let v = e.allreduce(ReduceOp::Sum, vec![i as f64]);
            assert_eq!(v, vec![i as f64]);
            let g = e.gather(0, vec![i as f64]).unwrap();
            assert_eq!(g, vec![vec![i as f64]]);
        }
    }

    #[test]
    fn empty_payload_collectives_round_trip() {
        // Zero-length vectors are valid collective payloads: a node
        // with nothing to report still participates (the cluster drain
        // gathers empty record batches from idle nodes).
        let got = on_ranks(3, |e| {
            let g = e.gather(0, Vec::new());
            let r = e.reduce(0, ReduceOp::Sum, Vec::new());
            let b = e.broadcast(0, Vec::new());
            (g, r, b)
        });
        let (g, r, b) = got.into_iter().next().unwrap();
        assert_eq!(g.unwrap(), vec![Vec::<f64>::new(); 3]);
        assert_eq!(r.unwrap(), Vec::<f64>::new());
        assert_eq!(b, Vec::<f64>::new());
    }

    #[test]
    fn single_rank_collectives_are_identities() {
        let got = on_ranks(1, |e| {
            let b = e.broadcast(0, vec![1.0]);
            let g = e.gather(0, vec![2.0]).unwrap();
            let r = e.reduce(0, ReduceOp::Sum, vec![4.0]).unwrap();
            let ag = e.allgather(vec![5.0]);
            (b, g, r, ag)
        });
        let (b, g, r, ag) = got.into_iter().next().unwrap();
        assert_eq!(b, vec![1.0]);
        assert_eq!(g, vec![vec![2.0]]);
        assert_eq!(r, vec![4.0]);
        assert_eq!(ag, vec![vec![5.0]]);
    }
}
