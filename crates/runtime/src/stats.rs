//! Measurements of a real (threaded) run.

use std::collections::BTreeMap;
use std::time::Duration;

/// `(leader core, width)` histogram key, as in `das-sim`.
pub(crate) type PlaceKey = (usize, usize);

/// Detailed per-run statistics, carried by [`crate::JobOutcome`].
#[derive(Clone, Debug, Default)]
pub struct RtStats {
    /// Wall-clock time from first root release to last commit.
    pub(crate) makespan: Duration,
    /// Number of tasks committed.
    pub tasks: usize,
    /// Kernel execution time accumulated per worker.
    pub(crate) core_busy: Vec<Duration>,
    /// Execution-place histogram of high-priority tasks (Fig. 5).
    pub high_priority_places: BTreeMap<PlaceKey, usize>,
    /// Execution-place histogram of all tasks.
    pub all_places: BTreeMap<PlaceKey, usize>,
    /// Successful steals.
    pub steals: usize,
}
