//! The seven scheduling policies of Table 1.

use std::fmt;

/// Scheduler configuration (Table 1 of the paper).
///
/// | Name    | Asymmetry awareness | Moldability | Priority placement |
/// |---------|---------------------|-------------|--------------------|
/// | RWS     | –                   | –           | –                  |
/// | RWSM-C  | –                   | yes         | resource cost      |
/// | FA      | fixed               | no          | –                  |
/// | FAM-C   | fixed               | yes         | resource cost      |
/// | DA      | dynamic             | no          | –                  |
/// | DAM-C   | dynamic             | yes         | resource cost      |
/// | DAM-P   | dynamic             | yes         | performance        |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Policy {
    /// Random work stealing: decentralised greedy baseline; priority is
    /// ignored, every task is stealable, width is always 1.
    Rws,
    /// RWS + moldability: the PTT's local search picks the width that
    /// minimises parallel cost; placement is still stealing-driven.
    RwsmC,
    /// Fixed asymmetry (CATS-like): high-priority tasks are pinned
    /// round-robin onto the statically fastest cluster, width 1.
    Fa,
    /// FA + moldability targeting resource cost.
    FamC,
    /// Dynamic asymmetry without moldability: global search for the
    /// fastest *single core* for high-priority tasks.
    Da,
    /// Dynamic Asymmetry scheduler with Moldability, targeting parallel
    /// **C**ost: global search minimising `time × width` for critical
    /// tasks, local search for the rest. The paper's headline scheduler.
    DamC,
    /// DAM variant whose critical tasks target best parallel
    /// **P**erformance (`min time`), preferable at low DAG parallelism.
    DamP,
    /// **Extension** (not in Table 1): dynamic Heterogeneous Earliest
    /// Finish Time, the reference scheduler the CATS authors use
    /// (Chronaki et al.; §6 of the paper). Every task is assigned, at
    /// release time, to the core with the earliest predicted finish time
    /// (outstanding predicted work + learned execution time), width 1,
    /// no stealing. Uses the PTT as its online execution-time model.
    DHeft,
}

impl Policy {
    /// All policies in the order of Table 1 / the figures' legends.
    pub const ALL: [Policy; 7] = [
        Policy::Rws,
        Policy::RwsmC,
        Policy::Fa,
        Policy::FamC,
        Policy::Da,
        Policy::DamC,
        Policy::DamP,
    ];

    /// Table-1 policies plus the dHEFT extension (for ablations).
    pub const WITH_EXTENSIONS: [Policy; 8] = [
        Policy::Rws,
        Policy::RwsmC,
        Policy::Fa,
        Policy::FamC,
        Policy::Da,
        Policy::DamC,
        Policy::DamP,
        Policy::DHeft,
    ];

    /// The subset evaluated on statically symmetric platforms (Fig. 9/10
    /// drop FA and FAM-C: "the Intel Haswell platform is statically
    /// symmetric").
    pub const SYMMETRIC: [Policy; 5] = [
        Policy::Rws,
        Policy::RwsmC,
        Policy::Da,
        Policy::DamC,
        Policy::DamP,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Rws => "RWS",
            Policy::RwsmC => "RWSM-C",
            Policy::Fa => "FA",
            Policy::FamC => "FAM-C",
            Policy::Da => "DA",
            Policy::DamC => "DAM-C",
            Policy::DamP => "DAM-P",
            Policy::DHeft => "dHEFT",
        }
    }

    /// "\[A\]symmetry awareness" column of Table 1.
    pub fn asymmetry_awareness(self) -> &'static str {
        match self {
            Policy::Rws | Policy::RwsmC => "N/A",
            Policy::Fa | Policy::FamC => "Fixed",
            Policy::Da | Policy::DamC | Policy::DamP | Policy::DHeft => "Dynamic",
        }
    }

    /// "\[M\]oldability" column of Table 1.
    pub fn moldable(self) -> bool {
        matches!(
            self,
            Policy::RwsmC | Policy::FamC | Policy::DamC | Policy::DamP
        )
    }

    /// "Priority placement" column of Table 1.
    pub fn priority_placement(self) -> &'static str {
        match self {
            Policy::Rws => "N/A",
            Policy::RwsmC | Policy::FamC | Policy::DamC => "Resource Cost",
            Policy::Fa | Policy::Da => "N/A",
            Policy::DamP => "Performance",
            Policy::DHeft => "Earliest Finish Time",
        }
    }

    /// Does the policy treat high-priority tasks specially (pinning them
    /// and disabling stealing)? RWS and RWSM-C do not: "irrespective of
    /// their priority, child tasks are pushed to the local queues and
    /// allowed to be stolen".
    pub fn respects_priority(self) -> bool {
        !matches!(self, Policy::Rws | Policy::RwsmC)
    }

    /// Is the policy aware of *dynamic* asymmetry (the DAS family)?
    pub fn dynamic(self) -> bool {
        matches!(
            self,
            Policy::Da | Policy::DamC | Policy::DamP | Policy::DHeft
        )
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_feature_matrix() {
        use Policy::*;
        assert_eq!(Rws.asymmetry_awareness(), "N/A");
        assert!(!Rws.moldable());
        assert_eq!(Rws.priority_placement(), "N/A");

        assert_eq!(RwsmC.asymmetry_awareness(), "N/A");
        assert!(RwsmC.moldable());
        assert_eq!(RwsmC.priority_placement(), "Resource Cost");

        assert_eq!(Fa.asymmetry_awareness(), "Fixed");
        assert!(!Fa.moldable());

        assert_eq!(FamC.asymmetry_awareness(), "Fixed");
        assert!(FamC.moldable());

        assert_eq!(Da.asymmetry_awareness(), "Dynamic");
        assert!(!Da.moldable());

        assert_eq!(DamC.asymmetry_awareness(), "Dynamic");
        assert!(DamC.moldable());
        assert_eq!(DamC.priority_placement(), "Resource Cost");

        assert_eq!(DamP.asymmetry_awareness(), "Dynamic");
        assert!(DamP.moldable());
        assert_eq!(DamP.priority_placement(), "Performance");
    }

    #[test]
    fn priority_respect() {
        assert!(!Policy::Rws.respects_priority());
        assert!(!Policy::RwsmC.respects_priority());
        for p in [
            Policy::Fa,
            Policy::FamC,
            Policy::Da,
            Policy::DamC,
            Policy::DamP,
        ] {
            assert!(p.respects_priority());
        }
    }

    #[test]
    fn all_has_unique_names() {
        let mut names: Vec<_> = Policy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
