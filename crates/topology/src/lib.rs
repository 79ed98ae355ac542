//! # das-topology — platform model for the Dynamic Asymmetry Scheduler
//!
//! This crate describes the *shape* of the machine the scheduler runs on:
//! which cores exist, how they are grouped into **resource partitions**
//! (clusters of cores sharing a cache level), and which **execution
//! places** — `(leader core, resource width)` tuples — a moldable task may
//! be assigned to.
//!
//! The model follows §2 of Chen et al., *Scheduling Task-parallel
//! Applications in Dynamically Asymmetric Environments* (ICPP Workshops
//! 2020):
//!
//! * cores share an ISA but not necessarily performance;
//! * an *execution place* is a tuple `(core, width)` where `core` is the
//!   leader thread and `width` is how many threads cooperate on the task;
//! * meaningful places never cross a resource partition, because the whole
//!   point of molding is to exploit a shared cache.
//!
//! The scheduler itself never consults the static speed hints stored here
//! (it learns performance online through the PTT); they exist for the
//! `FA`/`FAM-C` baselines, which *do* assume a fixed notion of fast cores,
//! and for the simulator's cost model.
//!
//! ## Example
//!
//! ```
//! use das_topology::Topology;
//!
//! // The NVIDIA Jetson TX2 used in the paper: 2 Denver cores (fast)
//! // plus 4 ARM A57 cores, each cluster with its own shared L2.
//! let topo = Topology::tx2();
//! assert_eq!(topo.num_cores(), 6);
//! assert_eq!(topo.num_clusters(), 2);
//!
//! // Valid widths on the Denver cluster are {1, 2}; on the A57 cluster
//! // {1, 2, 4} (Fig. 2(a) in the paper).
//! assert_eq!(topo.cluster(das_topology::ClusterId(0)).valid_widths(), &[1, 2]);
//! assert_eq!(topo.cluster(das_topology::ClusterId(1)).valid_widths(), &[1, 2, 4]);
//! ```

mod builders;
mod detect;
mod distance;
mod place;
mod summary;

pub use detect::detect;
pub use distance::Distance;
pub use place::{ExecutionPlace, PlaceIter};

use std::fmt;

/// Identifier of a single hardware execution context (core / thread).
///
/// Cores are numbered densely from `0` to `Topology::num_cores() - 1`,
/// cluster by cluster, so all cores of a cluster are contiguous.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of a resource partition (cluster of cores with a shared
/// cache, e.g. one socket or one big.LITTLE cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClusterId(pub usize);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// A resource partition: a contiguous range of cores sharing a cache.
///
/// The valid resource widths of a cluster are the powers of two that fit
/// in the cluster, plus the full cluster size itself (so a 10-core socket
/// supports widths `1, 2, 4, 8, 10`). Width-`w` places are aligned on
/// `w`-core boundaries within the cluster, mirroring XiTAO's *elastic
/// places* (Pericàs, TACO 2018).
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    /// Position of this cluster in [`Topology::clusters`].
    pub id: ClusterId,
    /// First core (inclusive) of the contiguous core range.
    pub first_core: CoreId,
    /// Number of cores in the cluster.
    pub num_cores: usize,
    /// Human-readable name ("denver", "a57", "haswell-s0", ...).
    pub name: String,
    /// Static speed hint relative to a baseline core (1.0). Only the
    /// fixed-asymmetry baselines and the simulator look at this; the
    /// dynamic schedulers learn real speeds online.
    pub base_speed: f64,
    /// Per-core L1 data cache size in KiB (for the cache-fit cost model).
    pub l1_kib: usize,
    /// Shared L2 (or last-level) cache size in KiB.
    pub l2_kib: usize,
    /// Identifier of the node (distributed-memory rank) this cluster
    /// belongs to. Zero for shared-memory platforms.
    pub node: usize,
    /// Identifier of the memory domain (memory-controller scope) this
    /// cluster belongs to. Clusters sharing a domain contend for the
    /// same DRAM bandwidth: a memory-hogging co-runner pressures every
    /// cluster of its domain. Defaults to one domain per cluster
    /// (NUMA-style sockets with their own controllers); SoC-style
    /// platforms where all clusters share one controller (Jetson TX2's
    /// LPDDR4) override this via [`TopologyBuilder::mem_domain`].
    pub mem_domain: usize,
    valid_widths: Vec<usize>,
}

impl Cluster {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: ClusterId,
        first_core: CoreId,
        num_cores: usize,
        name: impl Into<String>,
        base_speed: f64,
        l1_kib: usize,
        l2_kib: usize,
        node: usize,
        mem_domain: usize,
    ) -> Self {
        assert!(num_cores > 0, "cluster must contain at least one core");
        assert!(base_speed > 0.0, "base speed must be positive");
        let mut valid_widths: Vec<usize> = std::iter::successors(Some(1usize), |w| {
            w.checked_mul(2).filter(|w2| *w2 <= num_cores)
        })
        .collect();
        if *valid_widths
            .last()
            .expect("successors(Some(1), …) yields at least one width")
            != num_cores
        {
            valid_widths.push(num_cores);
        }
        Cluster {
            id,
            first_core,
            num_cores,
            name: name.into(),
            base_speed,
            l1_kib,
            l2_kib,
            node,
            mem_domain,
            valid_widths,
        }
    }

    /// Cores of this cluster as a half-open range of raw indices.
    pub fn core_range(&self) -> std::ops::Range<usize> {
        self.first_core.0..self.first_core.0 + self.num_cores
    }

    /// Iterator over the cores of this cluster.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.core_range().map(CoreId)
    }

    /// Returns `true` if `core` belongs to this cluster.
    pub fn contains(&self, core: CoreId) -> bool {
        self.core_range().contains(&core.0)
    }

    /// Resource widths supported by this cluster, ascending.
    pub fn valid_widths(&self) -> &[usize] {
        &self.valid_widths
    }

    /// Largest valid width (= cluster size).
    pub fn max_width(&self) -> usize {
        self.num_cores
    }
}

/// Immutable description of the whole platform.
///
/// Build one with [`Topology::tx2`], [`Topology::haswell_2x8`],
/// [`Topology::haswell_cluster`], [`Topology::symmetric`],
/// [`Topology::builder`] or [`detect`].
#[derive(Clone, Debug)]
pub struct Topology {
    clusters: Vec<Cluster>,
    num_cores: usize,
    /// `core -> cluster` lookup.
    cluster_of: Vec<ClusterId>,
    /// Union of all clusters' valid widths, ascending (used by the PTT to
    /// shape its table).
    all_widths: Vec<usize>,
}

impl Topology {
    /// Start building a custom topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of cores (== number of worker threads).
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of resource partitions.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// All clusters, ordered by first core.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Look up a cluster by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0]
    }

    /// The cluster a core belongs to.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn cluster_of(&self, core: CoreId) -> &Cluster {
        &self.clusters[self.cluster_of[core.0].0]
    }

    /// Iterator over all cores.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores).map(CoreId)
    }

    /// Ascending union of every cluster's valid widths. This is the width
    /// axis of the Performance Trace Table.
    pub fn all_widths(&self) -> &[usize] {
        &self.all_widths
    }

    /// The cluster with the highest static speed hint — the "fast" cores a
    /// fixed-asymmetry scheduler pins critical tasks to.
    pub fn fastest_cluster(&self) -> &Cluster {
        self.clusters
            .iter()
            .max_by(|a, b| a.base_speed.total_cmp(&b.base_speed))
            .expect("topology has at least one cluster")
    }

    /// Clusters belonging to distributed-memory node `node`.
    pub fn clusters_of_node(&self, node: usize) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter().filter(move |c| c.node == node)
    }

    /// Number of distinct nodes in the platform.
    pub fn num_nodes(&self) -> usize {
        self.clusters.iter().map(|c| c.node).max().unwrap_or(0) + 1
    }

    /// The execution place with leader `core` and width `width`, if valid.
    ///
    /// A place is valid when `width` is a valid width of `core`'s cluster
    /// and the aligned `width`-wide block containing `core` fits in the
    /// cluster. The member cores of the place are that aligned block (the
    /// leader need not be the first core of the block).
    pub fn place(&self, core: CoreId, width: usize) -> Option<ExecutionPlace> {
        let cl = self.cluster_of(core);
        if !cl.valid_widths().contains(&width) {
            return None;
        }
        let offset = core.0 - cl.first_core.0;
        let start = cl.first_core.0 + (offset / width) * width;
        if start + width <= cl.first_core.0 + cl.num_cores {
            Some(ExecutionPlace::new(CoreId(core.0), width, CoreId(start)))
        } else {
            None
        }
    }

    /// All valid execution places, cluster by cluster, width-major within
    /// a core. This is the search space of the scheduler's *global search*.
    pub fn places(&self) -> PlaceIter<'_> {
        PlaceIter::new(self)
    }

    /// All valid places whose member cores lie within cluster `id`.
    pub fn places_in_cluster(&self, id: ClusterId) -> impl Iterator<Item = ExecutionPlace> + '_ {
        let cl = self.cluster(id);
        cl.cores().flat_map(move |c| {
            cl.valid_widths()
                .iter()
                .filter_map(move |&w| self.place(c, w))
        })
    }

    fn from_clusters(clusters: Vec<Cluster>) -> Self {
        assert!(!clusters.is_empty(), "topology needs at least one cluster");
        let mut cluster_of = Vec::new();
        let mut expected_first = 0usize;
        for cl in &clusters {
            assert_eq!(
                cl.first_core.0, expected_first,
                "clusters must tile the core range contiguously"
            );
            cluster_of.extend(std::iter::repeat_n(cl.id, cl.num_cores));
            expected_first += cl.num_cores;
        }
        let mut all_widths: Vec<usize> = clusters
            .iter()
            .flat_map(|c| c.valid_widths().iter().copied())
            .collect();
        all_widths.sort_unstable();
        all_widths.dedup();
        Topology {
            num_cores: expected_first,
            clusters,
            cluster_of,
            all_widths,
        }
    }
}

/// Incremental [`Topology`] construction.
#[derive(Default)]
pub struct TopologyBuilder {
    clusters: Vec<Cluster>,
    next_core: usize,
    node: usize,
    mem_domain: Option<usize>,
}

impl TopologyBuilder {
    /// Append a cluster of `num_cores` cores with the given name and
    /// static speed hint. Cache sizes default to 32 KiB L1 / 1 MiB L2.
    pub fn cluster(self, name: &str, num_cores: usize, base_speed: f64) -> Self {
        self.cluster_with_caches(name, num_cores, base_speed, 32, 1024)
    }

    /// Append a cluster with explicit cache sizes (KiB).
    pub fn cluster_with_caches(
        mut self,
        name: &str,
        num_cores: usize,
        base_speed: f64,
        l1_kib: usize,
        l2_kib: usize,
    ) -> Self {
        let id = ClusterId(self.clusters.len());
        let first = CoreId(self.next_core);
        let mem_domain = self.mem_domain.unwrap_or(id.0);
        self.clusters.push(Cluster::new(
            id, first, num_cores, name, base_speed, l1_kib, l2_kib, self.node, mem_domain,
        ));
        self.next_core += num_cores;
        self
    }

    /// Subsequent clusters belong to distributed-memory node `node`.
    pub fn node(mut self, node: usize) -> Self {
        self.node = node;
        self
    }

    /// Subsequent clusters share memory domain `domain` (one DRAM
    /// controller). Without this call each cluster gets its own domain.
    pub fn mem_domain(mut self, domain: usize) -> Self {
        self.mem_domain = Some(domain);
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if no cluster was added or clusters do not tile contiguously.
    pub fn build(self) -> Topology {
        Topology::from_clusters(self.clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_widths_powers_of_two_plus_full() {
        let c = Cluster::new(ClusterId(0), CoreId(0), 10, "s", 1.0, 32, 25600, 0, 0);
        assert_eq!(c.valid_widths(), &[1, 2, 4, 8, 10]);
        let c = Cluster::new(ClusterId(0), CoreId(0), 4, "s", 1.0, 32, 2048, 0, 0);
        assert_eq!(c.valid_widths(), &[1, 2, 4]);
        let c = Cluster::new(ClusterId(0), CoreId(0), 1, "s", 1.0, 32, 2048, 0, 0);
        assert_eq!(c.valid_widths(), &[1]);
    }

    #[test]
    fn tx2_matches_paper_figure_2a() {
        let t = Topology::tx2();
        assert_eq!(t.num_cores(), 6);
        // Denver cores are 0..2, A57 cores 2..6.
        assert_eq!(t.cluster_of(CoreId(0)).name, "denver");
        assert_eq!(t.cluster_of(CoreId(1)).name, "denver");
        for c in 2..6 {
            assert_eq!(t.cluster_of(CoreId(c)).name, "a57");
        }
        assert_eq!(t.all_widths(), &[1, 2, 4]);
        assert_eq!(t.fastest_cluster().name, "denver");
    }

    #[test]
    fn place_alignment() {
        let t = Topology::tx2();
        // Leader core 3 at width 2 maps to the aligned block {2,3}.
        let p = t.place(CoreId(3), 2).unwrap();
        assert_eq!(
            p.member_cores().collect::<Vec<_>>(),
            vec![CoreId(2), CoreId(3)]
        );
        assert_eq!(p.leader, CoreId(3));
        // Width 4 on the A57 cluster spans the whole cluster.
        let p = t.place(CoreId(5), 4).unwrap();
        assert_eq!(p.first_core(), CoreId(2));
        assert_eq!(p.width, 4);
        // Width 4 is invalid on the 2-core Denver cluster.
        assert!(t.place(CoreId(0), 4).is_none());
    }

    #[test]
    fn places_never_cross_clusters() {
        for topo in [
            Topology::tx2(),
            Topology::haswell_2x8(),
            Topology::symmetric(7),
        ] {
            for p in topo.places() {
                let cl = topo.cluster_of(p.leader);
                for m in p.member_cores() {
                    assert!(cl.contains(m), "{p} crosses out of {}", cl.name);
                }
            }
        }
    }

    #[test]
    fn tx2_place_count_matches_fig2b() {
        // Denver: 2 cores × w1 + 2 leaders × w2 = 4 places; A57: 4 × w1 +
        // 4 × w2 + 4 × w4 = 12 places.
        let t = Topology::tx2();
        assert_eq!(t.places().count(), 16);
    }

    #[test]
    fn builder_contiguity_and_nodes() {
        let t = Topology::builder()
            .node(0)
            .cluster("n0s0", 10, 1.0)
            .cluster("n0s1", 10, 1.0)
            .node(1)
            .cluster("n1s0", 10, 1.0)
            .cluster("n1s1", 10, 1.0)
            .build();
        assert_eq!(t.num_cores(), 40);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.clusters_of_node(1).count(), 2);
        assert_eq!(t.cluster_of(CoreId(25)).node, 1);
    }

    #[test]
    #[should_panic]
    fn empty_topology_panics() {
        let _ = Topology::builder().build();
    }

    #[test]
    fn fastest_cluster_prefers_speed_hint() {
        let t = Topology::builder()
            .cluster("slow", 4, 1.0)
            .cluster("fast", 2, 2.0)
            .build();
        assert_eq!(t.fastest_cluster().name, "fast");
    }

    #[test]
    fn places_in_cluster_stay_inside() {
        let t = Topology::haswell_2x8();
        for p in t.places_in_cluster(ClusterId(1)) {
            assert!(t.cluster(ClusterId(1)).contains(p.leader));
        }
        // 8 cores × widths {1,2,4,8} = 32 slots per socket.
        assert_eq!(t.places_in_cluster(ClusterId(0)).count(), 32);
    }
}
