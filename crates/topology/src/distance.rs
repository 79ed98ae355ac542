//! Communication distance between cores.
//!
//! The schedulers themselves never consult distances (they learn costs
//! online through the PTT), but two substrates do:
//!
//! * the simulated cluster network of `das-sim` charges different
//!   latencies for intra-socket, inter-socket and inter-node transfers;
//! * cost models can penalise places whose *leader* is far from the data
//!   produced by a predecessor (data-reuse, §3.2: local search "enhances
//!   data-reuse across dependent tasks").

use crate::{CoreId, Topology};
use std::fmt;

/// Discrete communication distance classes, ordered from cheapest to most
/// expensive.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Distance {
    /// The same hardware context.
    SameCore,
    /// Different cores sharing a cache (same resource partition).
    SameCluster,
    /// Different partitions of one shared-memory node (e.g. two sockets).
    SameNode,
    /// Different distributed-memory nodes: traffic crosses the network.
    CrossNode,
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Distance::SameCore => "same-core",
            Distance::SameCluster => "same-cluster",
            Distance::SameNode => "same-node",
            Distance::CrossNode => "cross-node",
        };
        f.write_str(s)
    }
}

impl Topology {
    /// Communication distance class between two cores.
    ///
    /// # Panics
    /// Panics if either core is out of range.
    pub fn distance(&self, a: CoreId, b: CoreId) -> Distance {
        if a == b {
            return Distance::SameCore;
        }
        let ca = self.cluster_of(a);
        let cb = self.cluster_of(b);
        if ca.id == cb.id {
            Distance::SameCluster
        } else if ca.node == cb.node {
            Distance::SameNode
        } else {
            Distance::CrossNode
        }
    }

    /// The distributed-memory node a core belongs to.
    pub fn node_of(&self, core: CoreId) -> usize {
        self.cluster_of(core).node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_classes_on_tx2() {
        let t = Topology::tx2();
        assert_eq!(t.distance(CoreId(0), CoreId(0)), Distance::SameCore);
        assert_eq!(t.distance(CoreId(0), CoreId(1)), Distance::SameCluster);
        assert_eq!(t.distance(CoreId(1), CoreId(2)), Distance::SameNode);
        assert_eq!(t.distance(CoreId(2), CoreId(5)), Distance::SameCluster);
    }

    #[test]
    fn distance_cross_node_on_cluster() {
        let t = Topology::haswell_cluster(2);
        // Cores 0..20 on node 0, 20..40 on node 1.
        assert_eq!(t.distance(CoreId(0), CoreId(19)), Distance::SameNode);
        assert_eq!(t.distance(CoreId(0), CoreId(20)), Distance::CrossNode);
        assert_eq!(t.distance(CoreId(20), CoreId(29)), Distance::SameCluster);
    }

    #[test]
    fn distance_is_symmetric() {
        let t = Topology::haswell_cluster(2);
        for a in t.cores() {
            for b in t.cores() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn weights_strictly_increase() {
        let ds = [
            Distance::SameCore,
            Distance::SameCluster,
            Distance::SameNode,
            Distance::CrossNode,
        ];
        for w in ds.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn cores_of_node_partition_the_machine() {
        let t = Topology::haswell_cluster(3);
        let mut all: Vec<_> = (0..t.num_nodes())
            .flat_map(|n| t.clusters_of_node(n).flat_map(|c| c.cores()))
            .collect();
        all.sort();
        assert_eq!(all, t.cores().collect::<Vec<_>>());
        assert_eq!(t.node_of(CoreId(45)), 2);
    }
}
