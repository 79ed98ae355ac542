//! Time-varying platform performance: the *dynamic* half of dynamic
//! asymmetry.
//!
//! An [`Environment`] turns the static topology (cluster base speeds)
//! into per-core speed functions of time by composing [`Modifier`]s:
//!
//! * [`Modifier::CoRunner`] — an interfering application time-shares one
//!   core (§5.1): the victim core's useful speed drops by the CPU share
//!   taken, and, for memory-intensive interference, the whole cluster
//!   experiences memory pressure;
//! * [`Modifier::DvfsSquareWave`] — periodic frequency switching of one
//!   cluster between a high and a low frequency (§5.2: 2035 MHz ↔
//!   345 MHz with a 5 s + 5 s cycle);
//! * [`Modifier::Slowdown`] — an arbitrary multiplicative slow-down over a
//!   core range and time window (used for the socket-level interference of
//!   §5.4 and for fault-injection tests).
//!
//! All modifiers are piecewise-constant in time, so the simulator can ask
//! for the [`Environment::next_change_after`] a given instant and
//! re-integrate running tasks only at those points.

use das_topology::{ClusterId, CoreId, Topology};
use std::ops::Range;
use std::sync::Arc;

/// One source of dynamic performance variation. Times are seconds of
/// simulated time since the start of the run; `until = f64::INFINITY`
/// means "for the whole run".
#[derive(Clone, Debug)]
pub enum Modifier {
    /// A co-running application pinned to `core`.
    CoRunner {
        /// The victim core.
        core: CoreId,
        /// Fraction of the victim's CPU taken by the co-runner (0..1).
        /// The paper's single-chain co-runner takes ~half: 0.5.
        cpu_share: f64,
        /// Memory-bandwidth pressure (0..1) applied to the victim's whole
        /// cluster. Non-zero for memory-intensive co-runners (the Copy
        /// chain of §5.1); zero for compute-bound ones.
        mem_pressure: f64,
        /// Start of the interference episode (inclusive).
        from: f64,
        /// End of the episode (exclusive).
        until: f64,
    },
    /// Square-wave DVFS on a cluster: frequency alternates between the
    /// nominal (factor 1.0) and `low_factor`, each phase lasting
    /// `half_period` seconds, starting in the *high* phase at `from`.
    DvfsSquareWave {
        /// The cluster whose frequency oscillates.
        cluster: ClusterId,
        /// Relative speed during the low phase (345/2035 ≈ 0.17 for the
        /// TX2 experiment).
        low_factor: f64,
        /// Length of one phase in seconds (5.0 in the paper: "a 10 s
        /// period for a full cycle (i.e. 5 s + 5 s)").
        half_period: f64,
        /// When the wave starts (high phase first).
        from: f64,
        /// When the wave stops.
        until: f64,
    },
    /// Multiplicative slow-down of a contiguous range of cores.
    Slowdown {
        /// First affected core.
        first_core: CoreId,
        /// Number of affected cores.
        num_cores: usize,
        /// Speed multiplier (0..1].
        factor: f64,
        /// Optional memory pressure applied to the affected clusters.
        mem_pressure: f64,
        /// Window start.
        from: f64,
        /// Window end.
        until: f64,
    },
}

impl Modifier {
    /// Convenience: the paper's §5.1 co-runner — a compute chain on one
    /// core for the whole run.
    pub fn compute_corunner(core: CoreId) -> Modifier {
        Modifier::CoRunner {
            core,
            cpu_share: 0.5,
            mem_pressure: 0.0,
            from: 0.0,
            until: f64::INFINITY,
        }
    }

    /// Convenience: the §5.1 memory-interference co-runner (Copy chain).
    pub fn memory_corunner(core: CoreId) -> Modifier {
        Modifier::CoRunner {
            core,
            cpu_share: 0.5,
            mem_pressure: 0.35,
            from: 0.0,
            until: f64::INFINITY,
        }
    }

    /// Convenience: the §5.2 TX2 DVFS wave (2035 MHz ↔ 345 MHz, 5 s+5 s)
    /// on `cluster`.
    pub fn tx2_dvfs(cluster: ClusterId) -> Modifier {
        Modifier::DvfsSquareWave {
            cluster,
            low_factor: 345.0 / 2035.0,
            half_period: 5.0,
            from: 0.0,
            until: f64::INFINITY,
        }
    }

    /// The cores this modifier can ever slow, clamped to the cores
    /// `topo` has: a window overhanging the last core, a co-runner on a
    /// core that does not exist or a wave on an unknown cluster names
    /// only what exists (possibly nothing). [`Environment`] resolves
    /// this where it builds its lookup index, for speed and pressure
    /// alike.
    fn cores(&self, topo: &Topology) -> Range<usize> {
        let n = topo.num_cores();
        match *self {
            Modifier::CoRunner { core, .. } => core.0.min(n)..core.0.saturating_add(1).min(n),
            Modifier::DvfsSquareWave { cluster, .. } => topo
                .clusters()
                .get(cluster.0)
                .map_or(0..0, |cl| cl.core_range()),
            Modifier::Slowdown {
                first_core,
                num_cores,
                ..
            } => first_core.0.min(n)..first_core.0.saturating_add(num_cores).min(n),
        }
    }

    /// Speed multiplier at `t` on each of this modifier's
    /// [`cores`](Modifier::cores).
    fn speed_factor(&self, t: f64) -> f64 {
        match *self {
            Modifier::CoRunner {
                cpu_share,
                from,
                until,
                ..
            } => {
                if t >= from && t < until {
                    1.0 - cpu_share
                } else {
                    1.0
                }
            }
            Modifier::DvfsSquareWave {
                low_factor,
                half_period,
                from,
                until,
                ..
            } => {
                if t < from || t >= until {
                    return 1.0;
                }
                let phase = ((t - from) / half_period).floor() as u64;
                if phase.is_multiple_of(2) {
                    1.0
                } else {
                    low_factor
                }
            }
            Modifier::Slowdown {
                factor,
                from,
                until,
                ..
            } => {
                if t >= from && t < until {
                    factor
                } else {
                    1.0
                }
            }
        }
    }

    /// The memory pressure this modifier exerts while its window is
    /// open (zero for a frequency wave).
    fn peak_pressure(&self) -> f64 {
        match *self {
            Modifier::CoRunner { mem_pressure, .. } | Modifier::Slowdown { mem_pressure, .. } => {
                mem_pressure
            }
            Modifier::DvfsSquareWave { .. } => 0.0,
        }
    }

    /// The clusters (by id) this modifier can ever pressure: those
    /// sharing a memory domain with one of its [`cores`](Modifier::cores),
    /// none if its pressure is zero.
    fn pressured_clusters<'a>(&self, topo: &'a Topology) -> impl Iterator<Item = usize> + 'a {
        let (cores, clusters) = if self.peak_pressure() != 0.0 {
            (self.cores(topo), topo.clusters())
        } else {
            (0..0, &[][..])
        };
        let domain_of = |c: usize| topo.cluster_of(CoreId(c)).mem_domain;
        clusters
            .iter()
            .filter(move |cl| cores.clone().any(|c| domain_of(c) == cl.mem_domain))
            .map(|cl| cl.id.0)
    }

    /// Memory pressure at `t`. It propagates across the victims' whole
    /// *memory domain* — every cluster sharing the DRAM controller with
    /// one of this modifier's [`cores`](Modifier::cores) ("the sharing
    /// of resources between applications", §1). On the TX2 both clusters
    /// share one LPDDR4 controller, so a streaming co-runner pressures
    /// the entire SoC; on a dual-socket Haswell each socket has its own
    /// controllers and pressure stays socket-local.
    fn mem_pressure(&self, t: f64) -> f64 {
        match *self {
            Modifier::CoRunner { from, until, .. } | Modifier::Slowdown { from, until, .. }
                if t >= from && t < until =>
            {
                self.peak_pressure()
            }
            _ => 0.0,
        }
    }

    /// Next instant strictly after `t` at which this modifier changes
    /// value, if any.
    fn next_change_after(&self, t: f64) -> Option<f64> {
        match *self {
            Modifier::CoRunner { from, until, .. } | Modifier::Slowdown { from, until, .. } => {
                if t < from {
                    Some(from)
                } else if t < until && until.is_finite() {
                    Some(until)
                } else {
                    None
                }
            }
            Modifier::DvfsSquareWave {
                half_period,
                from,
                until,
                ..
            } => {
                if t < from {
                    return Some(from);
                }
                if t >= until {
                    return None;
                }
                let mut k = ((t - from) / half_period).floor() + 1.0;
                let mut next = from + k * half_period;
                // Strict progress: when `t` lies exactly on a phase edge
                // whose quotient rounded down (e.g. t = 15·hp but
                // t/hp = 14.999…98 in binary), the naive formula returns
                // `next == t` and the event loop would reschedule the
                // same instant forever.
                while next <= t {
                    k += 1.0;
                    next = from + k * half_period;
                }
                if next < until {
                    Some(next)
                } else if until.is_finite() {
                    Some(until)
                } else {
                    None
                }
            }
        }
    }
}

/// For each key (a core or a cluster), the indices into the modifier
/// list of the modifiers that name it, ascending, all rows in one
/// allocation: set-up cost and memory stay O(modifiers + keys).
#[derive(Clone, Debug)]
struct ModIndex {
    /// Row `k` is `items[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    items: Vec<usize>,
}

impl ModIndex {
    fn build<K: Iterator<Item = usize>>(
        rows: usize,
        mods: &[Modifier],
        keys: impl Fn(&Modifier) -> K,
    ) -> Self {
        let mut start = vec![0; rows + 1];
        for m in mods {
            for k in keys(m) {
                start[k + 1] += 1;
            }
        }
        for k in 0..rows {
            start[k + 1] += start[k];
        }
        let mut items = vec![0; start[rows]];
        let mut next = start.clone();
        for (i, m) in mods.iter().enumerate() {
            for k in keys(m) {
                items[next[k]] = i;
                next[k] += 1;
            }
        }
        ModIndex { start, items }
    }

    fn row(&self, k: usize) -> &[usize] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// The composed, time-varying performance state of the platform.
#[derive(Clone, Debug)]
pub struct Environment {
    topo: Arc<Topology>,
    mods: Vec<Modifier>,
    /// Per core, the modifiers whose [`Modifier::cores`] hold it.
    /// [`Environment::speed`] folds over these alone; every modifier it
    /// skips would have multiplied by exactly `1.0`, so the product is
    /// bit-identical to a fold over all of `mods`.
    by_core: ModIndex,
    /// Per cluster, the modifiers with non-zero pressure and a core in
    /// the cluster's memory domain; the skipped ones would have added
    /// exactly `0.0`.
    by_cluster: ModIndex,
}

impl Environment {
    /// No interference at all: every core runs at its cluster's static
    /// base speed forever.
    pub fn interference_free(topo: Arc<Topology>) -> Self {
        Environment::with_modifiers(topo, Vec::new())
    }

    /// An environment with the given modifiers.
    pub(crate) fn with_modifiers(topo: Arc<Topology>, mods: Vec<Modifier>) -> Self {
        Environment {
            by_core: ModIndex::build(topo.num_cores(), &mods, |m| m.cores(&topo)),
            by_cluster: ModIndex::build(topo.num_clusters(), &mods, |m| {
                m.pressured_clusters(&topo)
            }),
            topo,
            mods,
        }
    }

    /// Append a modifier (builder style). Rebuilds the lookup index, so
    /// a long modifier list belongs in a [`Scenario`](crate::Scenario),
    /// whose [`environment`](crate::Scenario::environment) builds it once.
    pub fn and(mut self, m: Modifier) -> Self {
        self.mods.push(m);
        Environment::with_modifiers(self.topo, self.mods)
    }

    /// Effective speed of `core` at time `t`: static cluster base speed ×
    /// the factors of all modifiers naming the core.
    pub fn speed(&self, core: CoreId, t: f64) -> f64 {
        let base = self.topo.cluster_of(core).base_speed;
        self.by_core
            .row(core.0)
            .iter()
            .fold(base, |s, &i| s * self.mods[i].speed_factor(t))
    }

    /// Memory pressure on `cluster` at `t` (sum over the modifiers
    /// pressuring its memory domain, clamped to 0.9 so rates never hit
    /// zero).
    pub(crate) fn mem_pressure(&self, cluster: ClusterId, t: f64) -> f64 {
        self.by_cluster
            .row(cluster.0)
            .iter()
            .fold(0.0, |s, &i| s + self.mods[i].mem_pressure(t))
            .min(0.9)
    }

    /// The earliest instant strictly after `t` at which any modifier
    /// changes, or `None` if the environment is constant from `t` on.
    pub(crate) fn next_change_after(&self, t: f64) -> Option<f64> {
        self.mods
            .iter()
            .filter_map(|m| m.next_change_after(t))
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tx2() -> Arc<Topology> {
        Arc::new(Topology::tx2())
    }

    #[test]
    fn interference_free_uses_base_speeds() {
        let e = Environment::interference_free(tx2());
        assert_eq!(e.speed(CoreId(0), 0.0), 2.0); // denver
        assert_eq!(e.speed(CoreId(3), 123.0), 1.0); // a57
        assert_eq!(e.mem_pressure(ClusterId(0), 0.0), 0.0);
        assert_eq!(e.next_change_after(0.0), None);
    }

    #[test]
    fn corunner_halves_victim_core() {
        let e = Environment::interference_free(tx2()).and(Modifier::compute_corunner(CoreId(0)));
        assert_eq!(e.speed(CoreId(0), 1.0), 1.0); // 2.0 * 0.5
        assert_eq!(e.speed(CoreId(1), 1.0), 2.0); // untouched sibling
        assert_eq!(e.next_change_after(0.0), None); // infinite episode
    }

    #[test]
    fn memory_corunner_pressures_whole_memory_domain() {
        // TX2: one shared LPDDR4 controller — pressure reaches both
        // clusters.
        let e = Environment::interference_free(tx2()).and(Modifier::memory_corunner(CoreId(0)));
        assert!(e.mem_pressure(ClusterId(0), 0.0) > 0.0);
        assert!(e.mem_pressure(ClusterId(1), 0.0) > 0.0);
        // Dual-socket Haswell: per-socket controllers — pressure stays on
        // the victim's socket.
        let h = Arc::new(Topology::haswell_2x8());
        let e = Environment::interference_free(Arc::clone(&h))
            .and(Modifier::memory_corunner(CoreId(0)));
        assert!(e.mem_pressure(ClusterId(0), 0.0) > 0.0);
        assert_eq!(e.mem_pressure(ClusterId(1), 0.0), 0.0);
    }

    #[test]
    fn dvfs_square_wave_phases_and_changes() {
        let e = Environment::interference_free(tx2()).and(Modifier::tx2_dvfs(ClusterId(0)));
        let lo = 2.0 * 345.0 / 2035.0;
        assert_eq!(e.speed(CoreId(0), 0.0), 2.0); // high phase
        assert_eq!(e.speed(CoreId(0), 4.999), 2.0);
        assert!((e.speed(CoreId(0), 5.0) - lo).abs() < 1e-12); // low phase
        assert_eq!(e.speed(CoreId(0), 10.0), 2.0); // high again
                                                   // A57 cluster unaffected.
        assert_eq!(e.speed(CoreId(2), 5.0), 1.0);
        // Change points at every multiple of 5 s.
        assert_eq!(e.next_change_after(0.0), Some(5.0));
        assert_eq!(e.next_change_after(5.0), Some(10.0));
        assert_eq!(e.next_change_after(7.3), Some(10.0));
    }

    #[test]
    fn windowed_slowdown() {
        let e = Environment::interference_free(tx2()).and(Modifier::Slowdown {
            first_core: CoreId(2),
            num_cores: 2,
            factor: 0.25,
            mem_pressure: 0.0,
            from: 10.0,
            until: 20.0,
        });
        assert_eq!(e.speed(CoreId(2), 5.0), 1.0);
        assert_eq!(e.speed(CoreId(2), 10.0), 0.25);
        assert_eq!(e.speed(CoreId(3), 19.9), 0.25);
        assert_eq!(e.speed(CoreId(4), 15.0), 1.0); // outside range
        assert_eq!(e.speed(CoreId(2), 20.0), 1.0);
        assert_eq!(e.next_change_after(0.0), Some(10.0));
        assert_eq!(e.next_change_after(10.0), Some(20.0));
        assert_eq!(e.next_change_after(20.0), None);
    }

    #[test]
    fn dvfs_change_points_always_strictly_advance() {
        // Regression: a half-period that is not exactly representable in
        // binary (0.0796/16) used to produce `next_change_after(t) == t`
        // at the 15th edge, wedging the simulator in a same-instant
        // event loop.
        let e = Environment::interference_free(tx2()).and(Modifier::DvfsSquareWave {
            cluster: ClusterId(0),
            low_factor: 0.2,
            half_period: 0.0796 / 16.0,
            from: 0.0,
            until: f64::INFINITY,
        });
        let mut t = 0.0;
        for _ in 0..10_000 {
            let next = e
                .next_change_after(t)
                .expect("infinite wave keeps changing");
            assert!(next > t, "no progress at t={t}");
            t = next;
        }
    }

    #[test]
    fn windows_overhanging_the_machine_name_only_existing_cores() {
        // Regression: cores 14..18 of a 16-core machine. With pressure
        // the domain walk used to index past the last core (a panic
        // inside `exec_rate`, mid-simulation, when cluster 0 was asked
        // first); without pressure the same window was accepted.
        let h = Arc::new(Topology::haswell_2x8());
        let overhang = |mem_pressure| Modifier::Slowdown {
            first_core: CoreId(14),
            num_cores: 4,
            factor: 0.5,
            mem_pressure,
            from: 0.0,
            until: 1.0,
        };
        let ghost = Modifier::CoRunner {
            core: CoreId(99),
            cpu_share: 0.5,
            mem_pressure: 0.4,
            from: 0.0,
            until: 1.0,
        };
        let pressured = Environment::interference_free(Arc::clone(&h))
            .and(overhang(0.3))
            .and(ghost);
        let plain = Environment::interference_free(Arc::clone(&h)).and(overhang(0.0));
        // Pressure lands on the socket of cores 14 and 15 only; a
        // co-runner on a core that does not exist pressures nothing.
        assert_eq!(pressured.mem_pressure(ClusterId(0), 0.5), 0.0);
        assert_eq!(pressured.mem_pressure(ClusterId(1), 0.5), 0.3);
        assert_eq!(pressured.mem_pressure(ClusterId(1), 1.0), 0.0);
        // Both halves agree on which cores the window names.
        for c in h.cores() {
            let want = if c.0 >= 14 { 0.5 } else { 1.0 };
            assert_eq!(pressured.speed(c, 0.5), want, "{c}");
            assert_eq!(plain.speed(c, 0.5), want, "{c}");
        }
    }

    /// What one modifier does to `core`'s speed at `t`, asked of the
    /// modifier alone: the reference `Environment::speed` is checked
    /// against.
    fn ref_speed_factor(topo: &Topology, m: &Modifier, core: CoreId, t: f64) -> f64 {
        match *m {
            Modifier::CoRunner {
                core: victim,
                cpu_share,
                from,
                until,
                ..
            } if core == victim && t >= from && t < until => 1.0 - cpu_share,
            Modifier::DvfsSquareWave {
                cluster,
                low_factor,
                half_period,
                from,
                until,
            } if topo.cluster_of(core).id == cluster && t >= from && t < until => {
                let phase = ((t - from) / half_period).floor() as u64;
                if phase.is_multiple_of(2) {
                    1.0
                } else {
                    low_factor
                }
            }
            Modifier::Slowdown {
                first_core,
                num_cores,
                factor,
                from,
                until,
                ..
            } if (first_core.0..first_core.0 + num_cores).contains(&core.0)
                && t >= from
                && t < until =>
            {
                factor
            }
            _ => 1.0,
        }
    }

    /// The same for the pressure one modifier puts on `cluster`.
    fn ref_mem_pressure(topo: &Topology, m: &Modifier, cluster: ClusterId, t: f64) -> f64 {
        let shares_domain = |c: usize| {
            c < topo.num_cores()
                && topo.cluster_of(CoreId(c)).mem_domain == topo.cluster(cluster).mem_domain
        };
        match *m {
            Modifier::CoRunner {
                core,
                mem_pressure,
                from,
                until,
                ..
            } if shares_domain(core.0) && t >= from && t < until => mem_pressure,
            Modifier::Slowdown {
                first_core,
                num_cores,
                mem_pressure,
                from,
                until,
                ..
            } if (first_core.0..first_core.0 + num_cores).any(shares_domain)
                && t >= from
                && t < until =>
            {
                mem_pressure
            }
            _ => 0.0,
        }
    }

    /// All three kinds, on cores and clusters that may not exist, with
    /// windows that overlap inside [0, 3).
    fn arb_modifier() -> impl Strategy<Value = Modifier> {
        let pressure = || prop_oneof![Just(0.0), 0.0f64..0.4];
        let window = || (0.0f64..2.0, 0.0f64..1.0);
        prop_oneof![
            (0usize..24, 0.0f64..0.9, pressure(), window()).prop_map(
                |(core, cpu_share, mem_pressure, (from, len))| Modifier::CoRunner {
                    core: CoreId(core),
                    cpu_share,
                    mem_pressure,
                    from,
                    until: from + len,
                }
            ),
            (0usize..4, 0.1f64..1.0, 0.05f64..0.5, window()).prop_map(
                |(cluster, low_factor, half_period, (from, len))| Modifier::DvfsSquareWave {
                    cluster: ClusterId(cluster),
                    low_factor,
                    half_period,
                    from,
                    until: from + len,
                }
            ),
            ((0usize..24, 0usize..12), 0.1f64..1.0, pressure(), window()).prop_map(
                |((first, num_cores), factor, mem_pressure, (from, len))| Modifier::Slowdown {
                    first_core: CoreId(first),
                    num_cores,
                    factor,
                    mem_pressure,
                    from,
                    until: from + len,
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn indexed_lookups_equal_a_fold_over_every_modifier(
            topo in prop_oneof![Just(Topology::tx2()), Just(Topology::haswell_2x8())],
            mods in prop::collection::vec(arb_modifier(), 0..24),
            appended in 0usize..24,
        ) {
            let topo = Arc::new(topo);
            // Some modifiers arrive through `with_modifiers`, the rest
            // through `and` calls.
            let split = mods.len() - appended.min(mods.len());
            let env = mods[split..].iter().cloned().fold(
                Environment::with_modifiers(Arc::clone(&topo), mods[..split].to_vec()),
                Environment::and,
            );
            prop_assert_eq!(env.mods.len(), mods.len());
            for step in 0..=32 {
                let t = step as f64 * 0.1;
                for core in topo.cores() {
                    let want = mods.iter().fold(
                        topo.cluster_of(core).base_speed,
                        |s, m| s * ref_speed_factor(&topo, m, core, t),
                    );
                    prop_assert_eq!(env.speed(core, t).to_bits(), want.to_bits(), "{} t={}", core, t);
                }
                for cl in topo.clusters() {
                    let want = mods
                        .iter()
                        .fold(0.0, |s, m| s + ref_mem_pressure(&topo, m, cl.id, t))
                        .min(0.9);
                    prop_assert_eq!(
                        env.mem_pressure(cl.id, t).to_bits(),
                        want.to_bits(),
                        "cluster {} t={}", cl.id.0, t
                    );
                }
            }
        }
    }

    #[test]
    fn pressure_clamped() {
        let mut env = Environment::interference_free(tx2());
        for _ in 0..5 {
            env = env.and(Modifier::memory_corunner(CoreId(0)));
        }
        assert!(env.mem_pressure(ClusterId(0), 0.0) <= 0.9);
    }

    #[test]
    fn modifiers_compose_multiplicatively() {
        let e = Environment::interference_free(tx2())
            .and(Modifier::compute_corunner(CoreId(0)))
            .and(Modifier::tx2_dvfs(ClusterId(0)));
        let lo = 345.0 / 2035.0;
        // Low DVFS phase and co-runner at once.
        assert!((e.speed(CoreId(0), 6.0) - 2.0 * 0.5 * lo).abs() < 1e-12);
    }
}
