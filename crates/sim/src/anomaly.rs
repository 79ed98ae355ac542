//! A library of named interference scenarios.
//!
//! The paper cites HPAS — Ates et al., *HPAS: An HPC Performance Anomaly
//! Suite for Reproducing Performance Variations* (ICPP 2019) — as the way
//! performance-variability studies inject controlled anomalies. This
//! module plays that role for the simulator: each [`Scenario`] is a named,
//! reproducible bundle of [`Modifier`]s mirroring one HPAS anomaly class,
//! so robustness experiments can sweep `Scenario::suite(&topo)` the same
//! way HPAS sweeps its anomaly binaries.
//!
//! Scenarios are pure data (built on the simulator's existing modifier
//! primitives); nothing here changes the engine.

use das_topology::{ClusterId, CoreId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::env::{Environment, Modifier};
use std::sync::Arc;

/// A named, reproducible interference scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short identifier ("cpuoccupy", "membw", ...), HPAS-style.
    pub name: &'static str,
    mods: Vec<Modifier>,
}

impl Scenario {
    /// Materialise the scenario as an [`Environment`] over `topo`.
    pub fn environment(&self, topo: Arc<Topology>) -> Environment {
        Environment::with_modifiers(topo, self.mods.clone())
    }

    /// HPAS `cpuoccupy`: a compute-bound co-runner takes `share` of one
    /// core for `[from, until)`.
    pub fn cpu_occupy(core: CoreId, share: f64, from: f64, until: f64) -> Scenario {
        Scenario {
            name: "cpuoccupy",
            mods: vec![Modifier::CoRunner {
                core,
                cpu_share: share,
                mem_pressure: 0.0,
                from,
                until,
            }],
        }
    }

    /// HPAS `membw`: a streaming co-runner on `core` saturating its
    /// cluster's memory bandwidth (cluster-wide pressure) while also
    /// time-sharing the core.
    pub(crate) fn memory_bandwidth(core: CoreId, pressure: f64, from: f64, until: f64) -> Scenario {
        Scenario {
            name: "membw",
            mods: vec![Modifier::CoRunner {
                core,
                cpu_share: 0.5,
                mem_pressure: pressure,
                from,
                until,
            }],
        }
    }

    /// HPAS `cachecopy`-like cache thrashing: short periodic slow-down
    /// bursts over a whole cluster (duty cycle `burst / period`).
    /// Piecewise-constant, expressed as one [`Modifier::Slowdown`] window
    /// per burst.
    pub(crate) fn cache_thrash(
        topo: &Topology,
        cluster: ClusterId,
        factor: f64,
        burst: f64,
        period: f64,
        until: f64,
    ) -> Scenario {
        assert!(burst > 0.0 && period > burst && until.is_finite());
        let cl = topo.cluster(cluster);
        let mut mods = Vec::new();
        let mut t = 0.0;
        while t < until {
            mods.push(Modifier::Slowdown {
                first_core: cl.first_core,
                num_cores: cl.num_cores,
                factor,
                mem_pressure: 0.0,
                from: t,
                until: (t + burst).min(until),
            });
            t += period;
        }
        Scenario {
            name: "cachethrash",
            mods,
        }
    }

    /// HPAS `powerdvfs`: the square-wave frequency throttle of §5.2.
    pub(crate) fn dvfs(cluster: ClusterId, low_factor: f64, half_period: f64) -> Scenario {
        Scenario {
            name: "powerdvfs",
            mods: vec![Modifier::DvfsSquareWave {
                cluster,
                low_factor,
                half_period,
                from: 0.0,
                until: f64::INFINITY,
            }],
        }
    }

    /// A descending power-capping staircase: the cluster speed steps
    /// through `factors` (e.g. `[0.9, 0.7, 0.5]`), each step lasting
    /// `step` seconds, then recovers. Models RAPL-style progressive
    /// throttling rather than a square wave.
    pub(crate) fn power_staircase(
        topo: &Topology,
        cluster: ClusterId,
        factors: &[f64],
        step: f64,
    ) -> Scenario {
        assert!(!factors.is_empty() && step > 0.0);
        let cl = topo.cluster(cluster);
        let mods = factors
            .iter()
            .enumerate()
            .map(|(i, &f)| Modifier::Slowdown {
                first_core: cl.first_core,
                num_cores: cl.num_cores,
                factor: f,
                mem_pressure: 0.0,
                from: i as f64 * step,
                until: (i + 1) as f64 * step,
            })
            .collect();
        Scenario {
            name: "powerstaircase",
            mods,
        }
    }

    /// A slow-down episode that *migrates* across the cores of the
    /// machine round-robin (an OS housekeeping daemon bouncing between
    /// cores). Each core suffers `factor` for `dwell` seconds in turn,
    /// cycling until `until`.
    pub fn rolling_interference(topo: &Topology, factor: f64, dwell: f64, until: f64) -> Scenario {
        assert!(dwell > 0.0 && until.is_finite());
        let n = topo.num_cores();
        let mut mods = Vec::new();
        let mut t = 0.0;
        let mut core = 0usize;
        while t < until {
            mods.push(Modifier::Slowdown {
                first_core: CoreId(core),
                num_cores: 1,
                factor,
                mem_pressure: 0.0,
                from: t,
                until: (t + dwell).min(until),
            });
            core = (core + 1) % n;
            t += dwell;
        }
        Scenario {
            name: "rolling",
            mods,
        }
    }

    /// Seeded random interference bursts: `n` slow-down windows with
    /// uniformly random victim core, start, duration in `dur`, and factor
    /// in `fac`. Reproducible from `seed` (every figure stays
    /// deterministic).
    pub(crate) fn random_bursts(
        topo: &Topology,
        seed: u64,
        n: usize,
        horizon: f64,
        dur: (f64, f64),
        fac: (f64, f64),
    ) -> Scenario {
        assert!(dur.0 > 0.0 && dur.0 <= dur.1 && fac.0 > 0.0 && fac.0 <= fac.1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mods = (0..n)
            .map(|_| {
                let from = rng.gen_range(0.0..horizon);
                Modifier::Slowdown {
                    first_core: CoreId(rng.gen_range(0..topo.num_cores())),
                    num_cores: 1,
                    factor: rng.gen_range(fac.0..=fac.1),
                    mem_pressure: 0.0,
                    from,
                    until: from + rng.gen_range(dur.0..=dur.1),
                }
            })
            .collect();
        Scenario {
            name: "randombursts",
            mods,
        }
    }

    /// A representative suite over `topo`, one scenario per anomaly class
    /// — the sweep robustness experiments iterate. Deterministic.
    pub fn suite(topo: &Topology) -> Vec<Scenario> {
        let fast = topo.fastest_cluster();
        let victim = fast.first_core;
        vec![
            Scenario::cpu_occupy(victim, 0.5, 0.0, f64::INFINITY),
            Scenario::memory_bandwidth(victim, 0.35, 0.0, f64::INFINITY),
            Scenario::cache_thrash(topo, fast.id, 0.4, 0.5, 2.0, 60.0),
            Scenario::dvfs(fast.id, 345.0 / 2035.0, 5.0),
            Scenario::power_staircase(topo, fast.id, &[0.9, 0.7, 0.5, 0.7, 0.9], 5.0),
            Scenario::rolling_interference(topo, 0.3, 2.0, 60.0),
            Scenario::random_bursts(topo, 42, 24, 60.0, (0.5, 3.0), (0.2, 0.8)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_topology::Topology;

    fn tx2() -> Arc<Topology> {
        Arc::new(Topology::tx2())
    }

    #[test]
    fn cpu_occupy_matches_corunner_helper() {
        let topo = tx2();
        let s = Scenario::cpu_occupy(CoreId(0), 0.5, 0.0, f64::INFINITY);
        let env = s.environment(Arc::clone(&topo));
        let reference = Environment::interference_free(Arc::clone(&topo))
            .and(Modifier::compute_corunner(CoreId(0)));
        for t in [0.0, 3.7, 100.0] {
            for c in topo.cores() {
                assert_eq!(env.speed(c, t), reference.speed(c, t));
            }
        }
    }

    #[test]
    fn cache_thrash_duty_cycle() {
        let topo = tx2();
        let s = Scenario::cache_thrash(&topo, ClusterId(1), 0.4, 0.5, 2.0, 10.0);
        let env = s.environment(Arc::clone(&topo));
        // In-burst at t=0.25, recovered at t=1.0, burst again at 2.2.
        assert_eq!(env.speed(CoreId(2), 0.25), 0.4);
        assert_eq!(env.speed(CoreId(2), 1.0), 1.0);
        assert_eq!(env.speed(CoreId(2), 2.2), 0.4);
        // Other cluster untouched.
        assert_eq!(env.speed(CoreId(0), 0.25), 2.0);
        // Ends after the horizon.
        assert_eq!(env.speed(CoreId(2), 11.0), 1.0);
    }

    #[test]
    fn power_staircase_steps_down_then_recovers() {
        let topo = tx2();
        let s = Scenario::power_staircase(&topo, ClusterId(0), &[0.8, 0.5], 10.0);
        let env = s.environment(Arc::clone(&topo));
        assert!((env.speed(CoreId(0), 5.0) - 2.0 * 0.8).abs() < 1e-12);
        assert!((env.speed(CoreId(0), 15.0) - 2.0 * 0.5).abs() < 1e-12);
        assert_eq!(env.speed(CoreId(0), 25.0), 2.0);
    }

    #[test]
    fn rolling_interference_visits_cores_in_turn() {
        let topo = tx2();
        let s = Scenario::rolling_interference(&topo, 0.3, 1.0, 12.0);
        let env = s.environment(Arc::clone(&topo));
        for k in 0..12usize {
            let t = k as f64 + 0.5;
            let victim = CoreId(k % 6);
            let base = topo.cluster_of(victim).base_speed;
            assert!((env.speed(victim, t) - base * 0.3).abs() < 1e-12, "t={t}");
            // Exactly one victim at a time.
            for c in topo.cores().filter(|&c| c != victim) {
                assert_eq!(env.speed(c, t), topo.cluster_of(c).base_speed);
            }
        }
    }

    #[test]
    fn random_bursts_reproducible_and_bounded() {
        let topo = tx2();
        let a = Scenario::random_bursts(&topo, 7, 10, 30.0, (1.0, 2.0), (0.3, 0.6));
        let b = Scenario::random_bursts(&topo, 7, 10, 30.0, (1.0, 2.0), (0.3, 0.6));
        assert_eq!(a.mods.len(), 10);
        let env_a = a.environment(Arc::clone(&topo));
        let env_b = b.environment(Arc::clone(&topo));
        for t in 0..40 {
            for c in topo.cores() {
                assert_eq!(env_a.speed(c, t as f64), env_b.speed(c, t as f64));
            }
        }
        // A different seed differs somewhere.
        let c = Scenario::random_bursts(&topo, 8, 10, 30.0, (1.0, 2.0), (0.3, 0.6));
        let env_c = c.environment(Arc::clone(&topo));
        let differs = (0..300).any(|k| {
            let t = k as f64 * 0.1;
            topo.cores()
                .any(|core| env_a.speed(core, t) != env_c.speed(core, t))
        });
        assert!(differs);
    }

    #[test]
    fn suite_is_nonempty_with_unique_names() {
        let topo = tx2();
        let suite = Scenario::suite(&topo);
        assert!(suite.len() >= 6);
        let mut names: Vec<_> = suite.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}
