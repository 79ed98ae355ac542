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
    pub core_busy: Vec<f64>,
    /// How many *high-priority* tasks committed at each execution place —
    /// the pie charts of Fig. 5.
    pub high_priority_places: BTreeMap<PlaceKey, usize>,
    /// How many tasks (any priority) committed at each place — the curves
    /// of Fig. 9(b)/(c) are per-tag slices of this.
    pub all_places: BTreeMap<PlaceKey, usize>,
    /// Per-tag place histogram (`tag` is the app-defined grouping,
    /// e.g. the K-means iteration).
    pub tag_places: BTreeMap<(u64, PlaceKey), usize>,
    /// Per-tag `(first wake-up, last commit)` span.
    pub tag_span: BTreeMap<u64, (f64, f64)>,
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

    /// Total kernel work time across cores (the "Total" bar of Fig. 6).
    pub fn total_work(&self) -> f64 {
        self.core_work.iter().sum()
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

    /// Duration of one tag group (e.g. one K-means iteration), if seen.
    pub fn tag_duration(&self, tag: u64) -> Option<f64> {
        self.tag_span.get(&tag).map(|(a, b)| b - a)
    }

    pub(crate) fn record_commit(&mut self, place: (usize, usize), high: bool, tag: u64) {
        self.tasks += 1;
        *self.all_places.entry(place).or_insert(0) += 1;
        if high {
            *self.high_priority_places.entry(place).or_insert(0) += 1;
        }
        *self.tag_places.entry((tag, place)).or_insert(0) += 1;
    }

    pub(crate) fn record_tag_event(&mut self, tag: u64, t: f64) {
        let e = self.tag_span.entry(tag).or_insert((t, t));
        e.0 = e.0.min(t);
        e.1 = e.1.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_shares() {
        let mut s = RunStats::new(4);
        s.makespan = 2.0;
        s.record_commit((0, 1), true, 0);
        s.record_commit((1, 2), true, 0);
        s.record_commit((1, 1), false, 1);
        assert_eq!(s.tasks, 3);
        assert!((s.throughput() - 1.5).abs() < 1e-12);
        assert!((s.high_priority_share_on_core(1) - 0.5).abs() < 1e-12);
        assert_eq!(s.high_priority_share_on_core(3), 0.0);
        assert_eq!(s.all_places.len(), 3);
        assert_eq!(s.tag_places[&(0, (0, 1))], 1);
    }

    #[test]
    fn tag_span_tracks_min_max() {
        let mut s = RunStats::new(1);
        s.record_tag_event(7, 5.0);
        s.record_tag_event(7, 2.0);
        s.record_tag_event(7, 9.0);
        assert_eq!(s.tag_span[&7], (2.0, 9.0));
        assert_eq!(s.tag_duration(7), Some(7.0));
        assert_eq!(s.tag_duration(8), None);
    }

    #[test]
    fn empty_run_throughput_zero() {
        let s = RunStats::new(2);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.total_work(), 0.0);
    }
}
