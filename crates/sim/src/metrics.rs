//! Per-run measurements: everything the paper's figures plot.

use std::collections::BTreeMap;

/// `(leader core, width)` — the key of execution-place histograms, using
/// raw indices so it is `Ord` and prints like the paper's labels.
pub type PlaceKey = (usize, usize);

/// Measurements of one simulated DAG execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Simulated seconds from start to last task commit.
    pub makespan: f64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Pure kernel execution time accumulated per core (Fig. 6's
    /// "accumulation of kernels' work time on each core excluding the
    /// runtime's activity and idleness").
    pub core_work: Vec<f64>,
    /// Occupancy per core including rendezvous wait (joining an assembly
    /// until its completion).
    pub(crate) core_busy: Vec<f64>,
    /// How many *high-priority* tasks committed at each execution place —
    /// the pie charts of Fig. 5.
    pub high_priority_places: BTreeMap<PlaceKey, usize>,
    /// How many tasks (any priority) committed at each place.
    pub all_places: BTreeMap<PlaceKey, usize>,
    /// Successful steals.
    pub steals: usize,
    /// Steal attempts that found no victim.
    pub failed_steals: usize,
    /// Discrete events the engine processed to complete the run — the
    /// numerator of `das_benchmark`'s `sim.events_per_s` (simulator
    /// throughput is events per *wall* second, measured by the caller).
    pub events: u64,
}

impl RunStats {
    pub(crate) fn new(num_cores: usize) -> Self {
        RunStats {
            core_work: vec![0.0; num_cores],
            core_busy: vec![0.0; num_cores],
            ..RunStats::default()
        }
    }

    /// Tasks per simulated second — the Y axis of Figs. 4, 7 and 10.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.tasks as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Fraction of high-priority tasks that committed on a given core
    /// (summed over widths led by that core).
    pub fn high_priority_share_on_core(&self, core: usize) -> f64 {
        let total: usize = self.high_priority_places.values().sum();
        if total == 0 {
            return 0.0;
        }
        let on: usize = self
            .high_priority_places
            .iter()
            .filter(|((c, _), _)| *c == core)
            .map(|(_, n)| *n)
            .sum();
        on as f64 / total as f64
    }

    /// Fill `all_places` and `high_priority_places` from a dense tally:
    /// `tally[leader * widths.len() + i]` counts `[all, high-priority]`
    /// commits at `(leader, widths[i])`. With `widths` ascending the
    /// keys come out in map order, so each map is built in bulk.
    pub(crate) fn set_places(&mut self, tally: &[[u32; 2]], widths: &[usize]) {
        let places = |kind: usize| {
            tally
                .iter()
                .enumerate()
                .filter(move |(_, n)| n[kind] > 0)
                .map(|(i, n)| {
                    let key = (i / widths.len(), widths[i % widths.len()]);
                    (key, n[kind] as usize)
                })
                .collect()
        };
        self.all_places = places(0);
        self.high_priority_places = places(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_shares() {
        let mut s = RunStats::new(4);
        s.makespan = 2.0;
        s.tasks = 3;
        // Leaders 0..2, widths [1, 2]: (0,1) high, (1,1) low, (1,2) high.
        s.set_places(&[[1, 1], [0, 0], [1, 0], [1, 1]], &[1, 2]);
        assert_eq!(
            s.all_places,
            BTreeMap::from([((0, 1), 1), ((1, 1), 1), ((1, 2), 1)])
        );
        assert_eq!(
            s.high_priority_places,
            BTreeMap::from([((0, 1), 1), ((1, 2), 1)])
        );
        assert!((s.throughput() - 1.5).abs() < 1e-12);
        assert!((s.high_priority_share_on_core(1) - 0.5).abs() < 1e-12);
        assert_eq!(s.high_priority_share_on_core(3), 0.0);
    }

    #[test]
    fn empty_run_throughput_zero() {
        let s = RunStats::new(2);
        assert_eq!(s.throughput(), 0.0);
    }
}
