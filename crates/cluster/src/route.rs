//! Routing policies of the cluster dispatcher.
//!
//! Every policy is a pure function of (policy state, seeded RNG, the
//! load view) — no clocks, no thread identity — so a fixed route seed
//! makes the whole routing sequence reproducible. The load view is fed
//! exclusively by per-node reports shipped back over the message layer
//! (`wire::T_LOAD`), never by dispatcher-side guessing: because every
//! node pushes a fresh report *before* acknowledging a command, the
//! view is exact by the time the next routing decision runs, which is
//! what makes [`RoutePolicy::LeastOutstanding`] and
//! [`RoutePolicy::PowerOfTwo`] deterministic for the simulator backend.
//!
//! With per-node admission bounds (`SessionBuilder::max_outstanding`),
//! every decision is also checked against the node's bound: a full pick
//! returns `None` and the dispatcher sheds the job with
//! `ExecError::Overloaded`. [`RoutePolicy::LoadShed`] goes further and
//! *routes around* fullness — it never selects a full node while a
//! non-full node exists.

use rand::rngs::SmallRng;
use rand::Rng;

/// How the dispatcher assigns an incoming job to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Cycle through the nodes in order, ignoring load. The baseline:
    /// perfectly balanced for uniform jobs, oblivious to stragglers.
    RoundRobin,
    /// Route to the node with the fewest outstanding jobs (ties to the
    /// lowest node id). Optimal balance, O(nodes) per decision.
    LeastOutstanding,
    /// Power of two choices: sample two distinct nodes with the seeded
    /// RNG and take the less loaded (ties to the lower id). O(1) per
    /// decision with near-least-outstanding balance — the classic
    /// load-balancing result, and the default.
    PowerOfTwo,
    /// Least-outstanding restricted to nodes *below their admission
    /// bound*: the overload-aware policy. While any node has a free
    /// slot the job routes there (ties to the lowest id); only when
    /// every node is full does the dispatcher shed. Identical to
    /// [`RoutePolicy::LeastOutstanding`] when no bound is configured.
    LoadShed,
}

impl RoutePolicy {
    /// Every policy, for sweeps and differential tests.
    pub const ALL: [RoutePolicy; 4] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastOutstanding,
        RoutePolicy::PowerOfTwo,
        RoutePolicy::LoadShed,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastOutstanding => "least-out",
            RoutePolicy::PowerOfTwo => "po2",
            RoutePolicy::LoadShed => "load-shed",
        }
    }
}

/// One routing decision over nodes `0..n`, or `None` to shed the job.
/// `view(i)` is node `i`'s last reported outstanding-job count and its
/// admission bound (`f64::INFINITY` when unbounded), or `None` while
/// the node is closed to routing (dead, removed or leaving — never
/// picked); `rr` is the round-robin cursor (advanced by the caller's
/// borrow).
///
/// Non-shedding policies pick exactly as they always did — limits never
/// bend the choice, they only turn a full pick into `None` (so the
/// rejection is attributable to the picked node, and the decision
/// sequence with and without bounds is identical). `LoadShed` instead
/// restricts the candidate set to non-full nodes.
///
/// With every node open the decision — including the RNG draw
/// sequence of [`RoutePolicy::PowerOfTwo`] — is bit-identical to the
/// pre-membership behaviour; that is what keeps the no-fault
/// determinism pins green. Closed nodes shrink the candidate set:
/// round-robin skips them (cursor still advances per attempt),
/// power-of-two samples over the open index map, and the argmin
/// policies filter them out.
pub(crate) fn pick(
    policy: RoutePolicy,
    n: usize,
    view: impl Fn(usize) -> Option<(f64, f64)>,
    rr: &mut usize,
    rng: &mut SmallRng,
) -> Option<usize> {
    debug_assert!(n > 0);
    let open = |i: usize| view(i).is_some();
    let load = |i: usize| view(i).map_or(f64::INFINITY, |(load, _)| load);
    let full = |i: usize| view(i).is_none_or(|(load, limit)| load >= limit);
    let node = match policy {
        RoutePolicy::RoundRobin => {
            let mut node = *rr % n;
            *rr = (*rr + 1) % n;
            let mut hops = 1;
            while !open(node) {
                if hops == n {
                    return None; // every node is closed
                }
                node = *rr % n;
                *rr = (*rr + 1) % n;
                hops += 1;
            }
            node
        }
        RoutePolicy::LeastOutstanding => argmin(load, (0..n).filter(|&i| open(i)))?,
        RoutePolicy::PowerOfTwo => {
            // Sample over the open nodes' ranks; with every node open
            // rank and index coincide and this is the historical path,
            // draw for draw.
            let nth = |k: usize| (0..n).filter(|&i| open(i)).nth(k);
            match (0..n).filter(|&i| open(i)).count() {
                0 => return None,
                1 => nth(0)?,
                m => {
                    let a = rng.gen_range(0..m);
                    let mut b = rng.gen_range(0..m - 1);
                    if b >= a {
                        b += 1;
                    }
                    // Ranks ascend with indices, so mapping min/max
                    // through them preserves the low-id tie rule.
                    argmin(load, [nth(a.min(b))?, nth(a.max(b))?])?
                }
            }
        }
        RoutePolicy::LoadShed => return argmin(load, (0..n).filter(|&i| !full(i))),
    };
    (!full(node)).then_some(node)
}

/// Index of the smallest load among `candidates` (first/lowest id wins
/// ties), or `None` for an empty candidate set.
fn argmin(
    load: impl Fn(usize) -> f64,
    candidates: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    candidates
        .into_iter()
        .fold(None, |best: Option<usize>, i| match best {
            Some(b) if load(b) <= load(i) => Some(b),
            _ => Some(i),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const NO_LIMIT: [f64; 8] = [f64::INFINITY; 8];
    const ALL_ALIVE: [bool; 8] = [true; 8];

    /// [`super::pick`] over parallel slices: node `i` is open to
    /// routing iff `alive[i]`.
    fn pick(
        policy: RoutePolicy,
        loads: &[f64],
        limits: &[f64],
        alive: &[bool],
        rr: &mut usize,
        rng: &mut SmallRng,
    ) -> Option<usize> {
        assert!(limits.len() == loads.len() && alive.len() == loads.len());
        let view = |i: usize| alive[i].then_some((loads[i], limits[i]));
        super::pick(policy, loads.len(), view, rr, rng)
    }

    #[test]
    fn round_robin_cycles() {
        let loads = [5.0, 0.0, 0.0];
        let mut rr = 0;
        let mut rng = SmallRng::seed_from_u64(1);
        let picks: Vec<Option<usize>> = (0..6)
            .map(|_| {
                pick(
                    RoutePolicy::RoundRobin,
                    &loads,
                    &NO_LIMIT[..3],
                    &ALL_ALIVE[..3],
                    &mut rr,
                    &mut rng,
                )
            })
            .collect();
        let expected: Vec<Option<usize>> = [0, 1, 2, 0, 1, 2].map(Some).to_vec();
        assert_eq!(picks, expected, "load-oblivious cycle");
    }

    #[test]
    fn least_outstanding_takes_the_minimum_with_low_id_ties() {
        let mut rr = 0;
        let mut rng = SmallRng::seed_from_u64(1);
        let node = pick(
            RoutePolicy::LeastOutstanding,
            &[3.0, 1.0, 1.0, 2.0],
            &NO_LIMIT[..4],
            &ALL_ALIVE[..4],
            &mut rr,
            &mut rng,
        );
        assert_eq!(node, Some(1));
    }

    #[test]
    fn power_of_two_prefers_the_lighter_sample() {
        // One node massively loaded: po2 must avoid it whenever its
        // sample pair contains any alternative, i.e. always (n = 2).
        let mut rr = 0;
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let node = pick(
                RoutePolicy::PowerOfTwo,
                &[100.0, 0.0],
                &NO_LIMIT[..2],
                &ALL_ALIVE[..2],
                &mut rr,
                &mut rng,
            );
            assert_eq!(node, Some(1));
        }
        // Single node: always 0, no RNG draw needed.
        assert_eq!(
            pick(
                RoutePolicy::PowerOfTwo,
                &[9.0],
                &NO_LIMIT[..1],
                &ALL_ALIVE[..1],
                &mut rr,
                &mut rng
            ),
            Some(0)
        );
    }

    #[test]
    fn power_of_two_is_seed_reproducible() {
        let run = |seed| {
            let mut rr = 0;
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..32)
                .map(|_| {
                    pick(
                        RoutePolicy::PowerOfTwo,
                        &[0.0; 8],
                        &NO_LIMIT,
                        &ALL_ALIVE,
                        &mut rr,
                        &mut rng,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds explore differently");
    }

    #[test]
    fn full_picks_shed_without_bending_the_decision() {
        // Non-shedding policies pick the same node with or without
        // bounds; a bound only turns the full pick into None.
        let loads = [2.0, 5.0, 1.0];
        let limits = [8.0, 8.0, 1.0]; // node 2 is exactly full
        let mut rr = 0;
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            pick(
                RoutePolicy::LeastOutstanding,
                &loads,
                &limits,
                &ALL_ALIVE[..3],
                &mut rr,
                &mut rng
            ),
            None,
            "least-outstanding still picks node 2 and node 2 is full"
        );
        // Round-robin: the cursor advances even across a shed decision.
        let limits = [8.0, 0.0, 8.0];
        let picks: Vec<Option<usize>> = (0..3)
            .map(|_| {
                pick(
                    RoutePolicy::RoundRobin,
                    &loads,
                    &limits,
                    &ALL_ALIVE[..3],
                    &mut rr,
                    &mut rng,
                )
            })
            .collect();
        assert_eq!(picks, vec![Some(0), None, Some(2)]);
    }

    #[test]
    fn load_shed_routes_around_full_nodes_and_sheds_only_when_all_full() {
        let mut rr = 0;
        let mut rng = SmallRng::seed_from_u64(3);
        // Node 1 is the global minimum but full: LoadShed avoids it.
        let loads = [4.0, 0.0, 6.0];
        let limits = [10.0, 0.0, 10.0];
        assert_eq!(
            pick(
                RoutePolicy::LoadShed,
                &loads,
                &limits,
                &ALL_ALIVE[..3],
                &mut rr,
                &mut rng
            ),
            Some(0),
            "least-loaded among non-full nodes"
        );
        // All full: shed.
        assert_eq!(
            pick(
                RoutePolicy::LoadShed,
                &loads,
                &[4.0, 0.0, 6.0],
                &ALL_ALIVE[..3],
                &mut rr,
                &mut rng
            ),
            None
        );
        // No bounds: identical to LeastOutstanding.
        assert_eq!(
            pick(
                RoutePolicy::LoadShed,
                &loads,
                &NO_LIMIT[..3],
                &ALL_ALIVE[..3],
                &mut rr,
                &mut rng
            ),
            Some(1)
        );
    }

    #[test]
    fn dead_nodes_are_never_picked_by_any_policy() {
        let loads = [0.0, 0.0, 0.0, 0.0];
        let alive = [true, false, true, false];
        let mut rng = SmallRng::seed_from_u64(5);
        // Round-robin cycles over the survivors only.
        let mut rr = 0;
        let picks: Vec<Option<usize>> = (0..4)
            .map(|_| {
                pick(
                    RoutePolicy::RoundRobin,
                    &loads,
                    &NO_LIMIT[..4],
                    &alive,
                    &mut rr,
                    &mut rng,
                )
            })
            .collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
        // The argmin policies filter the dead even when a dead node is
        // the global minimum.
        let mut rr = 0;
        let node = pick(
            RoutePolicy::LeastOutstanding,
            &[5.0, 0.0, 7.0, 0.0],
            &NO_LIMIT[..4],
            &alive,
            &mut rr,
            &mut rng,
        );
        assert_eq!(node, Some(0));
        // Po2 over 64 decisions with a dead minimum: never picks it.
        for _ in 0..64 {
            let node = pick(
                RoutePolicy::PowerOfTwo,
                &[5.0, 0.0, 7.0, 0.0],
                &NO_LIMIT[..4],
                &alive,
                &mut rr,
                &mut rng,
            )
            .unwrap();
            assert!(alive[node], "picked dead node {node}");
        }
        // LoadShed: alive-and-full plus dead-and-empty means shed.
        assert_eq!(
            pick(
                RoutePolicy::LoadShed,
                &[1.0, 0.0, 1.0, 0.0],
                &[1.0, 9.0, 1.0, 9.0],
                &alive,
                &mut rr,
                &mut rng,
            ),
            None
        );
        // All dead: every policy sheds rather than picking a corpse.
        let dead = [false; 4];
        for policy in RoutePolicy::ALL {
            let mut rr = 0;
            assert_eq!(
                pick(policy, &loads, &NO_LIMIT[..4], &dead, &mut rr, &mut rng),
                None,
                "{policy:?} picked among the dead"
            );
        }
    }

    #[test]
    fn po2_all_alive_draws_match_the_historical_sequence() {
        // The alive-aware pick must consume the RNG identically to the
        // pre-membership implementation when every node is alive: same
        // draws, same picks. (This is the no-fault determinism pin at
        // the unit level.)
        let historical = |rng: &mut SmallRng, loads: &[f64]| {
            let n = loads.len();
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            super::argmin(|i| loads[i], [a.min(b), a.max(b)]).unwrap()
        };
        let loads = [3.0, 1.0, 4.0, 1.0, 5.0];
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let mut rr = 0;
        for _ in 0..128 {
            let picked = pick(
                RoutePolicy::PowerOfTwo,
                &loads,
                &NO_LIMIT[..5],
                &ALL_ALIVE[..5],
                &mut rr,
                &mut rng_a,
            );
            assert_eq!(picked, Some(historical(&mut rng_b, &loads)));
        }
    }

    #[test]
    fn names_are_stable() {
        for p in RoutePolicy::ALL {
            assert!(!p.name().is_empty());
        }
    }
}
