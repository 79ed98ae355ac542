//! Execution places: `(leader core, resource width)` tuples.

use crate::{CoreId, Topology};
use std::fmt;

/// An execution place, the unit of task assignment (§2 of the paper).
///
/// `leader` is the core whose PTT row records the observation and which
/// performs the weighted PTT update when the task commits; `width` is the
/// number of cooperating cores. The member cores are the `width`-aligned
/// block of the leader's cluster that contains the leader, starting at
/// [`ExecutionPlace::first_core`].
///
/// Displayed as `(C<leader>,<width>)`, the notation of Fig. 5/9 in the
/// paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExecutionPlace {
    /// Leader core (the PTT row owner).
    pub leader: CoreId,
    /// Number of cooperating cores.
    pub width: usize,
    first: CoreId,
}

impl ExecutionPlace {
    pub(crate) fn new(leader: CoreId, width: usize, first: CoreId) -> Self {
        debug_assert!(width > 0);
        debug_assert!((first.0..first.0 + width).contains(&leader.0));
        ExecutionPlace {
            leader,
            width,
            first,
        }
    }

    /// A width-1 place on `core` (always valid). Useful for schedulers
    /// that never mold (RWS, FA, DA).
    pub fn solo(core: CoreId) -> Self {
        ExecutionPlace {
            leader: core,
            width: 1,
            first: core,
        }
    }

    /// First member core of the aligned block.
    pub fn first_core(&self) -> CoreId {
        self.first
    }

    /// All member cores, ascending. The leader is always among them.
    pub fn member_cores(&self) -> impl Iterator<Item = CoreId> + 'static {
        (self.first.0..self.first.0 + self.width).map(CoreId)
    }

    /// Rank of `core` within this place (`0..width`), or `None` if the
    /// core is not a member. Task bodies use the rank to partition work.
    pub fn rank_of(&self, core: CoreId) -> Option<usize> {
        if (self.first.0..self.first.0 + self.width).contains(&core.0) {
            Some(core.0 - self.first.0)
        } else {
            None
        }
    }
}

impl fmt::Display for ExecutionPlace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(C{},{})", self.leader.0, self.width)
    }
}

/// Iterator over every valid execution place of a topology (the global
/// search space). Yields places core-major, width-minor, i.e. the PTT row
/// of core 0 first.
pub struct PlaceIter<'t> {
    topo: &'t Topology,
    core: usize,
    width_idx: usize,
}

impl<'t> PlaceIter<'t> {
    pub(crate) fn new(topo: &'t Topology) -> Self {
        PlaceIter {
            topo,
            core: 0,
            width_idx: 0,
        }
    }
}

impl Iterator for PlaceIter<'_> {
    type Item = ExecutionPlace;

    fn next(&mut self) -> Option<ExecutionPlace> {
        while self.core < self.topo.num_cores() {
            let cl = self.topo.cluster_of(CoreId(self.core));
            let widths = cl.valid_widths();
            if self.width_idx >= widths.len() {
                self.core += 1;
                self.width_idx = 0;
                continue;
            }
            let w = widths[self.width_idx];
            self.width_idx += 1;
            if let Some(p) = self.topo.place(CoreId(self.core), w) {
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn display_matches_paper_notation() {
        let t = Topology::tx2();
        let p = t.place(CoreId(2), 4).unwrap();
        assert_eq!(p.to_string(), "(C2,4)");
        assert_eq!(ExecutionPlace::solo(CoreId(0)).to_string(), "(C0,1)");
    }

    #[test]
    fn rank_of_members() {
        let t = Topology::tx2();
        let p = t.place(CoreId(3), 4).unwrap(); // block {2,3,4,5}
        assert_eq!(p.rank_of(CoreId(2)), Some(0));
        assert_eq!(p.rank_of(CoreId(3)), Some(1));
        assert_eq!(p.rank_of(CoreId(5)), Some(3));
        assert_eq!(p.rank_of(CoreId(0)), None);
        assert_eq!(p.rank_of(CoreId(1)), None);
    }

    #[test]
    fn iterator_is_exhaustive_and_unique() {
        let t = Topology::haswell_2x8();
        let v: Vec<_> = t.places().collect();
        let mut dedup = v.clone();
        dedup.sort_by_key(|p| (p.leader, p.width));
        dedup.dedup();
        assert_eq!(dedup.len(), v.len(), "no duplicate places");
        // Every (core,width) with valid alignment appears.
        for c in t.cores() {
            for &w in t.cluster_of(c).valid_widths() {
                if let Some(p) = t.place(c, w) {
                    assert!(v.contains(&p));
                }
            }
        }
    }
}
