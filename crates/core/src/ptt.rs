//! The Performance Trace Table (§4.1.1).
//!
//! One table exists per task type. Entry `(core, width)` holds a weighted
//! moving average of the execution times observed by *leader* `core` at
//! resource width `width`. Entries start at zero, which guarantees every
//! execution place is tried at least once: a zero entry makes both the
//! predicted time and the parallel cost zero, so the searches prefer
//! unexplored places. The *local* search explores per `(core, width)`
//! exactly as in the paper; the *global* searches apply a
//! cluster-symmetry prior ([`Ptt::estimate`]) so their forced
//! exploration completes per `(cluster, width)` — see the method docs
//! for why large machines need this.
//!
//! The table is a dense `num_cores × num_widths` array of atomic f64 bit
//! patterns, so concurrent workers can read and update it without locks —
//! the paper stresses that rows are cache-line sized and a core "mainly
//! accesses a single cache line indexed with its own core id".
//!
//! Beside the entries the table keeps one cache-line-sized [`SlotCell`]
//! per `(cluster, width)` *slot*: the running aggregate behind the
//! symmetry prior, and an arg-min index over the slot's entries that
//! writers invalidate (one version bump) and the global search rebuilds
//! lazily. [`Ptt::global_search`] therefore reads `clusters × widths`
//! cells instead of sweeping every place — §5.4's "non negligible
//! overheads when scaling to platforms with large amount of execution
//! places and cores" — and still returns exactly the place the sweep
//! would.

use das_topology::{CoreId, ExecutionPlace, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::TaskTypeId;

/// Weight of a new observation in the PTT moving average.
///
/// `updated = ((den - num) * old + num * new) / den`.
///
/// The paper's sensitivity analysis (§5.3, Fig. 8) selects **1:4**, i.e.
/// `num = 1, den = 5`: after a performance change at least three
/// observations are needed before the entry approaches the new value,
/// making the model robust to isolated outliers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightRatio {
    /// Weight of the new sample.
    pub num: u32,
    /// Total weight (`den - num` goes to the old value).
    pub den: u32,
}

impl WeightRatio {
    /// The paper's default, 1/5 (written "1:4" in §4.1.1).
    pub const PAPER: WeightRatio = WeightRatio { num: 1, den: 5 };

    /// Create a ratio `num/den`.
    ///
    /// # Panics
    /// Panics unless `0 < num <= den`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && num <= den, "need 0 < num <= den");
        WeightRatio { num, den }
    }

    /// `1` means "always replace" (no averaging), the rightmost point of
    /// the Fig. 8 sweep.
    pub fn replace() -> Self {
        WeightRatio { num: 1, den: 1 }
    }

    /// Apply the weighted update.
    #[inline]
    pub fn mix(self, old: f64, new: f64) -> f64 {
        (f64::from(self.den - self.num) * old + f64::from(self.num) * new) / f64::from(self.den)
    }

    /// Label used by the Fig. 8 harness (e.g. `"1/5"`).
    pub fn label(self) -> String {
        if self.den == self.num {
            "1".to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }
}

impl Default for WeightRatio {
    fn default() -> Self {
        WeightRatio::PAPER
    }
}

/// Sentinel for "not a width of this topology" in the width lookup
/// table.
const INVALID_WIDTH: usize = usize::MAX;

/// The Performance Trace Table of a single task type.
///
/// All operations are lock-free; `update` uses a CAS loop so concurrent
/// leaders never lose each other's contribution entirely (one of two
/// racing weighted updates wins, which matches the tolerance of the
/// model — it is a heuristic average, not an accounting ledger).
///
/// Every per-place read on the Algorithm 1 fast path is O(1): the
/// width axis is resolved through a precomputed lookup table instead of
/// a linear scan, and [`Ptt::estimate`]'s cluster-symmetry prior reads a
/// running per-`(cluster, width)` aggregate (sum + count of observed
/// entries, maintained by the write paths) instead of rescanning the
/// cluster. [`Ptt::global_search`] does not visit places at all: it
/// combines one cached arg-min per `(cluster, width)` slot, so it costs
/// O(clusters × widths) cell reads plus one O(cluster size) rescan per
/// slot written since the previous search — not the O(places) sweep
/// §5.4 flags as the obstacle to "platforms with large amount of
/// execution places and cores".
pub struct Ptt {
    topo: Arc<Topology>,
    ratio: WeightRatio,
    /// Dense `core * num_widths + width_idx`, f64 bit patterns.
    entries: Box<[AtomicU64]>,
    /// Per-entry observation counters, same indexing as `entries`.
    visits: Box<[AtomicU64]>,
    widths: Vec<usize>,
    /// `width -> position in widths` lookup (`INVALID_WIDTH` for gaps),
    /// so no lookup scans the width axis.
    width_idx: Vec<usize>,
    /// One cell per `(cluster, width_idx)` slot, indexed
    /// `cluster * num_widths + width_idx`.
    slots: Box<[SlotCell]>,
    /// Per slot, how many leading cores of the cluster lead a place of
    /// that width (`⌊size / width⌋ × width`; the tail does not fit an
    /// aligned block), `0` where the width is not one of the cluster's.
    /// Read-only, so validating a place never touches a line writers
    /// dirty.
    spans: Box<[usize]>,
    /// Debug builds only: writers in flight, for the cross-check in
    /// [`Ptt::global_search`]. A writer adds `1` before it touches an
    /// entry and `1 << 32` once its slot version is bumped, so the two
    /// halves are equal exactly when no write is half-done (until 2³²
    /// writes to one table, which no debug run reaches).
    #[cfg(debug_assertions)]
    write_log: AtomicU64,
}

/// "No such entry" in the offset fields of [`SlotCell::cache`].
const NO_OFFSET: u64 = 0xFFFF;

/// What the table keeps per `(cluster, width)` slot, on a cache line of
/// its own: a writer training one cluster does not invalidate the line
/// a writer (or a search) on the next cluster is using.
///
/// `sum` / `cnt` are the running aggregate behind [`Ptt::estimate`]'s
/// borrow. `version` / `cache` are the arg-min index behind
/// [`Ptt::global_search`]: a writer bumps `version` *after* its entry
/// write, and a search that finds `cache`'s stamp different from
/// `version` rescans the slot's entries and caches what it found under
/// the version it read *before* the rescan — so a write racing the
/// rescan leaves the stamp behind the version and the next search
/// rescans again. Nothing is locked and writers never scan.
///
/// `cache` packs `stamp << 32 | min_off << 16 | zero_off` into one word
/// so that racing searches replace it whole: the offsets (from the
/// cluster's first core; [`NO_OFFSET`] for "none") of the smallest
/// non-zero entry, lowest core on ties, and of the first zero entry.
/// The stamp is the low 32 bits of `version`. A wrapped stamp could
/// validate a stale cache only if a multiple of 2³² writes — not one
/// more, not one fewer — hit this one slot between two consecutive
/// searches of it (at one write per 100 ns, seven minutes with no
/// critical task waking); and the price would be one advisory
/// placement made on an old minimum, healed by the slot's next write.
#[repr(align(64))]
struct SlotCell {
    /// Sum of the *current* non-zero entry values (f64 bits, CAS-added).
    sum: AtomicU64,
    /// Number of non-zero entries. Entries never return to zero (both
    /// write paths reject non-positive samples), so it only grows.
    cnt: AtomicU64,
    version: AtomicU64,
    cache: AtomicU64,
}

impl SlotCell {
    /// The cell of an all-zero slot: no minimum, first zero at offset 0
    /// (a valid width always fits the cluster's first block), stamped
    /// with the initial version.
    fn new() -> Self {
        SlotCell {
            sum: AtomicU64::new(0),
            cnt: AtomicU64::new(0),
            version: AtomicU64::new(0),
            cache: AtomicU64::new(NO_OFFSET << 16),
        }
    }

    /// Mean of the slot's non-zero entries — the estimate every zero
    /// entry of the slot borrows — or `0.0` while there is none.
    #[inline]
    fn mean(&self) -> f64 {
        // relaxed-ok: cluster-average fallback; count and sum are
        // advisory and may be mutually stale without harm.
        let n = self.cnt.load(Ordering::Relaxed);
        if n > 0 {
            // relaxed-ok: same advisory aggregate as the count above.
            f64::from_bits(self.sum.load(Ordering::Relaxed)) / n as f64
        } else {
            0.0
        }
    }
}

/// CAS-add `delta` onto an f64 stored as bits in an atomic. Racing
/// adders each commit exactly their own delta, so the cell stays the
/// sum of all applied deltas.
#[inline]
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    // relaxed-ok: self-contained accumulator cell; the CAS loop only
    // needs atomicity of the bit-pattern, no other memory is published.
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + delta).to_bits();
        // relaxed-ok: same cell as above; failure just reloads it.
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

impl Ptt {
    /// An all-zero table shaped for `topo`.
    pub fn new(topo: Arc<Topology>, ratio: WeightRatio) -> Self {
        let widths = topo.all_widths().to_vec();
        let mut width_idx = vec![INVALID_WIDTH; widths.last().copied().unwrap_or(0) + 1];
        for (i, &w) in widths.iter().enumerate() {
            width_idx[w] = i;
        }
        let n = topo.num_cores() * widths.len();
        let entries = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let visits = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        assert!(
            topo.clusters()
                .iter()
                .all(|cl| cl.num_cores < NO_OFFSET as usize),
            "a cluster's core offsets must fit the slot cache's 16-bit fields"
        );
        let slots = (0..topo.num_clusters() * widths.len())
            .map(|_| SlotCell::new())
            .collect();
        let spans = topo
            .clusters()
            .iter()
            .flat_map(|cl| {
                widths.iter().map(|&w| {
                    if cl.valid_widths().contains(&w) {
                        cl.num_cores / w * w
                    } else {
                        0
                    }
                })
            })
            .collect();
        Ptt {
            topo,
            ratio,
            entries: entries.into_boxed_slice(),
            visits: visits.into_boxed_slice(),
            widths,
            width_idx,
            slots,
            spans,
            #[cfg(debug_assertions)]
            write_log: AtomicU64::new(0),
        }
    }

    /// The topology this table is shaped for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The update ratio in force.
    pub fn ratio(&self) -> WeightRatio {
        self.ratio
    }

    /// Where `(core, width)` lives: its index into `entries` / `visits`
    /// and its slot's index into `slots` / `spans` — or `None` if it is
    /// not a place of this topology, the verdict [`Topology::place`]
    /// gives, from two table lookups instead of a width scan.
    #[inline]
    fn locate(&self, core: CoreId, width: usize) -> Option<(usize, usize)> {
        let wi = *self.width_idx.get(width)?;
        if wi == INVALID_WIDTH {
            return None;
        }
        let cl = self.topo.cluster_of(core);
        let slot = cl.id.0 * self.widths.len() + wi;
        (core.0 - cl.first_core.0 < self.spans[slot])
            .then_some((core.0 * self.widths.len() + wi, slot))
    }

    /// Entry `i` as stored.
    #[inline]
    fn load(&self, i: usize) -> f64 {
        // relaxed-ok: advisory estimate read; a stale EWMA value only
        // shades a scheduling decision, no invariant depends on it.
        f64::from_bits(self.entries[i].load(Ordering::Relaxed))
    }

    /// Fold one committed entry transition `old -> new` into slot
    /// `slot`'s aggregate, then invalidate its arg-min cache. `new` is
    /// always positive (the write paths guard), so an entry leaves zero
    /// exactly once.
    #[inline]
    fn record_aggregate(&self, slot: usize, old: f64, new: f64) {
        let cell = &self.slots[slot];
        if old == 0.0 {
            // relaxed-ok: advisory sample counter for the cluster
            // fallback average; slight staleness only shades estimates.
            cell.cnt.fetch_add(1, Ordering::Relaxed);
        }
        atomic_f64_add(&cell.sum, new - old);
        // Release, paired with the Acquire load in `slot_offsets`: a
        // search that reads this version also sees the entry write
        // sequenced before it, so it can never stamp a pre-write scan
        // with a post-write version.
        cell.version.fetch_add(1, Ordering::Release);
        #[cfg(debug_assertions)]
        self.write_log.fetch_add(1 << 32, Ordering::SeqCst);
    }

    /// Predicted execution time for leader `core` at `width`; `0.0` means
    /// the place has not been observed yet. `None` if `(core, width)` is
    /// not a valid place on this topology.
    pub fn predict(&self, core: CoreId, width: usize) -> Option<f64> {
        let (i, _) = self.locate(core, width)?;
        Some(self.load(i))
    }

    /// Record an observed execution time (seconds) for a committed task.
    ///
    /// The first observation replaces the zero directly; later
    /// observations apply the weighted average. Non-finite or negative
    /// samples are ignored (defensive: the runtime's clock can glitch).
    pub fn update(&self, place: ExecutionPlace, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        // An invalid place must not touch a cluster aggregate the valid
        // entries' estimates read.
        let Some((i, slot)) = self.locate(place.leader, place.width) else {
            return;
        };
        let cell = &self.entries[i];
        #[cfg(debug_assertions)]
        self.write_log.fetch_add(1, Ordering::SeqCst);
        // relaxed-ok: EWMA update CAS loop on one self-contained cell;
        // only atomicity of the blend matters.
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = if old == 0.0 {
                seconds
            } else {
                self.ratio.mix(old, seconds)
            };
            match cell.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed, // relaxed-ok: same advisory cell as the load above
                Ordering::Relaxed, // relaxed-ok: failure just reloads the cell
            ) {
                Ok(_) => {
                    // relaxed-ok: monotone visit counter, read only for
                    // interference detection heuristics and reports.
                    self.visits[i].fetch_add(1, Ordering::Relaxed);
                    self.record_aggregate(slot, old, new);
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// How many committed observations entry `(core, width)` has absorbed.
    /// `None` if the place is invalid on this topology.
    ///
    /// This is not part of the paper's PTT (§4.1.1 stores only the
    /// average); it is exposed so harnesses can reason about *training
    /// coverage* — the §5.4 discussion notes that "a simple model like the
    /// PTT may not have enough training data within a single iteration to
    /// detect interference".
    pub fn visits(&self, core: CoreId, width: usize) -> Option<u64> {
        let (i, _) = self.locate(core, width)?;
        // relaxed-ok: monotone counter read for heuristics/reports.
        Some(self.visits[i].load(Ordering::Relaxed))
    }

    /// Total observations across all entries.
    pub fn total_visits(&self) -> u64 {
        // relaxed-ok: statistics sum over monotone counters; a torn
        // cross-cell snapshot is acceptable for reporting.
        self.visits.iter().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Number of valid places that have been observed at least once,
    /// together with the total number of valid places. `(explored, total)`
    /// — `explored == total` means the exploration phase guaranteed by
    /// zero-initialisation has completed.
    pub fn coverage(&self) -> (usize, usize) {
        let mut explored = 0;
        let mut total = 0;
        for p in self.topo.places() {
            total += 1;
            if self.visits(p.leader, p.width).unwrap_or(0) > 0 {
                explored += 1;
            }
        }
        (explored, total)
    }

    /// Forcibly set an entry (tests, optimistic-init ablation).
    ///
    /// Applies the same sample guard as [`Ptt::update`]: non-finite,
    /// negative and zero-cost values are rejected. A poisoned seed is
    /// worse than a poisoned observation — it corrupts every subsequent
    /// weighted average built on top of it (and a NaN seed would never
    /// wash out, since `mix(NaN, x)` is NaN forever).
    pub fn seed(&self, core: CoreId, width: usize, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        // Seeding an invalid slot was always unobservable (every read
        // validates the place first); now that the cluster aggregates
        // are incremental it would also poison them, so reject it
        // outright.
        let Some((i, slot)) = self.locate(core, width) else {
            return;
        };
        #[cfg(debug_assertions)]
        self.write_log.fetch_add(1, Ordering::SeqCst);
        // relaxed-ok: seeding an advisory estimate cell; the swap is
        // atomic and nothing else is published under it.
        let old = f64::from_bits(self.entries[i].swap(seconds.to_bits(), Ordering::Relaxed));
        self.record_aggregate(slot, old, seconds);
    }

    /// **Local search** (Algorithm 1, line 4): keep the core fixed, mold
    /// only the width; return the place minimising predicted *parallel
    /// cost* `time × width`. Zero (unexplored) entries yield cost 0 and
    /// are therefore explored first, smaller widths before larger ones.
    pub fn local_search(&self, core: CoreId) -> ExecutionPlace {
        let mut best: Option<(f64, usize)> = None;
        for &w in self.topo.cluster_of(core).valid_widths() {
            let Some((i, _)) = self.locate(core, w) else {
                continue;
            };
            let cost = self.load(i) * w as f64;
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, w));
            }
        }
        let (_, width) = best.expect("every core has at least the width-1 place");
        self.topo
            .place(core, width)
            .expect("located against the same topology")
    }

    /// Predicted time with a **cluster-symmetry prior** for unexplored
    /// entries: a zero `(core, width)` entry borrows the mean of the
    /// non-zero entries at the same width in the same cluster (cores of
    /// one resource partition are identical hardware, so an observation
    /// on a sibling is the best available estimate). Entries unexplored
    /// across the whole cluster stay at zero, preserving the §4.1.1
    /// explore-first guarantee — but per `(cluster, width)` instead of
    /// per `(core, width)`, which shrinks the forced-exploration phase
    /// from `O(cores × widths)` to `O(clusters × widths)` decisions.
    ///
    /// Without this, a large machine starves: §5.4 observes that "for
    /// the 20 cores of this configuration, there are many resource
    /// partition choices to exhaust", and a task type with few instances
    /// (one ghost exchange per node per iteration) spends the entire run
    /// "exploring" — including places on interfered cores.
    ///
    /// O(1): the borrow reads the running `(cluster, width)` aggregate
    /// maintained by [`Ptt::update`]/[`Ptt::seed`] instead of rescanning
    /// the cluster's entries; the tests compare it against that rescan.
    pub fn estimate(&self, core: CoreId, width: usize) -> Option<f64> {
        let (i, slot) = self.locate(core, width)?;
        Some(self.estimate_at(i, slot))
    }

    /// [`Ptt::estimate`] of entry `i` of slot `slot`: one table load
    /// plus, for a zero entry, the slot's aggregate.
    #[inline]
    fn estimate_at(&self, i: usize, slot: usize) -> f64 {
        let raw = self.load(i);
        if raw > 0.0 {
            raw
        } else {
            self.slots[slot].mean()
        }
    }

    /// Scan slot `slot`, whose first core's entry is `first`: offsets
    /// from that core of the non-zero entry with the smallest
    /// `value × scale` (lowest core on ties) and of the first zero
    /// entry, [`NO_OFFSET`] where there is none. Cores past the slot's
    /// span lead no place of this width and stay out.
    fn scan_slot(&self, slot: usize, first: usize, scale: f64) -> (u64, u64) {
        let mut min = (0.0, NO_OFFSET);
        let mut zero = NO_OFFSET;
        for off in 0..self.spans[slot] {
            let v = self.load(first + off * self.widths.len());
            if v > 0.0 {
                if min.1 == NO_OFFSET || v * scale < min.0 {
                    min = (v * scale, off as u64);
                }
            } else if zero == NO_OFFSET {
                zero = off as u64;
            }
        }
        (min.1, zero)
    }

    /// [`Ptt::scan_slot`] at `scale` 1 through the slot's cache: the
    /// scan runs only if the slot was written since it was last cached
    /// (see [`SlotCell`] for the protocol).
    #[inline]
    fn slot_offsets(&self, slot: usize, first: usize) -> (u64, u64) {
        let cell = &self.slots[slot];
        // Acquire, paired with the Release bump in `record_aggregate`:
        // the scan below sees every entry write this version counts.
        let version = cell.version.load(Ordering::Acquire);
        // relaxed-ok: the packed word is self-contained (stamp and
        // offsets travel together) and publishes no other memory.
        let mut cached = cell.cache.load(Ordering::Relaxed);
        if cached >> 32 != version & 0xFFFF_FFFF {
            let (min, zero) = self.scan_slot(slot, first, 1.0);
            cached = version << 32 | min << 16 | zero;
            // relaxed-ok: same self-contained word; a racing search's
            // store may win, and either is a scan no older than its stamp.
            cell.cache.store(cached, Ordering::Relaxed);
        }
        (cached >> 16 & NO_OFFSET, cached & NO_OFFSET)
    }

    /// **Global search** (Algorithm 1, lines 8 and 11): the place
    /// minimising `time × width` when `minimize_cost` (DAM-C) or raw
    /// `time` otherwise (DAM-P), the first such place in
    /// [`Topology::places`] order on ties. `width_one_only` restricts
    /// the search to solo places (the DA scheduler). `node` restricts it
    /// to clusters of one distributed-memory node.
    ///
    /// The answer is the one a strict-`<` sweep of `places()` over
    /// [`Ptt::estimate`] gives, without the sweep. Within a
    /// `(cluster, width)` slot every zero entry borrows the same
    /// estimate, so the lowest zero core stands for all of them, and
    /// the cost is monotone in the entry value, so the smallest
    /// non-zero entry (lowest core on ties) stands for the rest: two
    /// candidates per slot, found through the slot's cached arg-min.
    /// Candidates are then ordered by `(cost, core, width)`, which is
    /// `places()` order among equal costs. (`value × width` is strictly
    /// monotone only where the product is exact, i.e. for power-of-two
    /// widths; a cluster-sized width such as 10 could round two
    /// neighbouring values onto one cost, so under `minimize_cost` such
    /// a slot is scanned by cost instead of read from the cache.)
    ///
    /// Under concurrent writers a cached slot may lag a write whose
    /// version bump has not landed yet — indistinguishable from the
    /// search having run just before that write; the table is advisory.
    pub fn global_search(
        &self,
        minimize_cost: bool,
        width_one_only: bool,
        node: Option<usize>,
    ) -> ExecutionPlace {
        #[cfg(debug_assertions)]
        let log = self.write_log.load(Ordering::SeqCst);
        let nw = self.widths.len();
        let mut best: Option<(f64, CoreId, usize)> = None;
        for cl in self.topo.clusters() {
            if node.is_some_and(|n| cl.node != n) {
                continue;
            }
            for &w in cl.valid_widths() {
                if width_one_only && w != 1 {
                    break;
                }
                let wi = self.width_idx[w];
                let (slot, first) = (cl.id.0 * nw + wi, cl.first_core.0 * nw + wi);
                let scale = if minimize_cost { w as f64 } else { 1.0 };
                let (min_off, zero_off) = if minimize_cost && !w.is_power_of_two() {
                    self.scan_slot(slot, first, scale)
                } else {
                    self.slot_offsets(slot, first)
                };
                for off in [min_off, zero_off] {
                    if off == NO_OFFSET {
                        continue;
                    }
                    let core = CoreId(cl.first_core.0 + off as usize);
                    let cost = self.estimate_at(first + off as usize * nw, slot) * scale;
                    if best
                        .is_none_or(|(b, bc, bw)| cost < b || (cost == b && (core, w) < (bc, bw)))
                    {
                        best = Some((cost, core, w));
                    }
                }
            }
        }
        let (_, core, width) = best.expect("topology has at least one place");
        let place = self
            .topo
            .place(core, width)
            .expect("slot offsets name valid places");
        #[cfg(debug_assertions)]
        self.check_against_sweep(log, place, minimize_cost, width_one_only, node);
        place
    }

    /// Debug builds only: the plain strict-`<` sweep of `places()` must
    /// name the place the index named, so every debug-profile test is a
    /// differential test of the index. Skipped when a writer was in
    /// flight at `log` (read before the indexed search) or since: the
    /// two searches then read different tables.
    #[cfg(debug_assertions)]
    fn check_against_sweep(
        &self,
        log: u64,
        indexed: ExecutionPlace,
        minimize_cost: bool,
        width_one_only: bool,
        node: Option<usize>,
    ) {
        if log >> 32 != log & 0xFFFF_FFFF {
            return;
        }
        let mut best: Option<(f64, ExecutionPlace)> = None;
        for place in self.topo.places() {
            if (width_one_only && place.width != 1)
                || node.is_some_and(|n| self.topo.cluster_of(place.leader).node != n)
            {
                continue;
            }
            let t = self
                .estimate(place.leader, place.width)
                .expect("places() are valid");
            let cost = if minimize_cost {
                t * place.width as f64
            } else {
                t
            };
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, place));
            }
        }
        // The fence keeps the sweep's loads ahead of the re-read.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.write_log.load(Ordering::SeqCst) == log {
            let swept = best.expect("topology has at least one place").1;
            debug_assert_eq!(
                (indexed.leader, indexed.width),
                (swept.leader, swept.width),
                "arg-min index disagrees with the places() sweep \
                 (minimize_cost={minimize_cost}, width_one_only={width_one_only}, node={node:?})"
            );
        }
    }

    /// Scalable **sampled global search** — an answer to the paper's
    /// stated future work ("the design … may result in non negligible
    /// overheads when scaling to platforms with large amount of execution
    /// places and cores. The design and evaluation of scalable performance
    /// prediction models is left for future work").
    ///
    /// Instead of considering every `(core, width)` place, the search
    /// evaluates:
    ///
    /// * **all** places of `probe`'s own cluster (full local knowledge),
    /// * for every *other* cluster, only the places led by the cluster's
    ///   first core (one representative row per cluster).
    ///
    /// That is `O((clusters + cluster_size) × widths)` entry reads on
    /// every call, whatever the writers did in between. The exhaustive
    /// [`Ptt::global_search`] is no longer the `O(cores × widths)` sweep
    /// this was designed against: it reads `O(clusters × widths)` cached
    /// slots and is the cheaper of the two on a table at rest — but it
    /// rescans every slot written since the previous search, `O(cores ×
    /// widths)` again when all of them were. What the sampled search
    /// still buys is that write-independent bound. On symmetric clusters
    /// the representative row is an unbiased stand-in; on a perturbed
    /// cluster it can be stale for non-representative leaders, which is
    /// the accuracy trade-off the `ablation_sampled_search` bench
    /// quantifies.
    pub fn global_search_sampled(
        &self,
        minimize_cost: bool,
        node: Option<usize>,
        probe: CoreId,
    ) -> ExecutionPlace {
        let home = self.topo.cluster_of(probe).id;
        let mut best: Option<(f64, ExecutionPlace)> = None;
        let mut consider = |place: ExecutionPlace, this: &Self| {
            let t = this
                .estimate(place.leader, place.width)
                .expect("candidate places are valid by construction");
            let cost = if minimize_cost {
                t * place.width as f64
            } else {
                t
            };
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, place));
            }
        };
        for cl in self.topo.clusters() {
            if let Some(n) = node {
                if cl.node != n {
                    continue;
                }
            }
            if cl.id == home {
                for place in self.topo.places_in_cluster(cl.id) {
                    consider(place, self);
                }
            } else {
                for &w in cl.valid_widths() {
                    if let Some(place) = self.topo.place(cl.first_core, w) {
                        consider(place, self);
                    }
                }
            }
        }
        match best {
            Some((_, p)) => p,
            // `probe` was outside the requested node: fall back to the
            // exhaustive node-restricted search.
            None => self.global_search(minimize_cost, false, node),
        }
    }

    /// Local search restricted to node `node` — falls back to a global
    /// search of the node if `core` itself is outside it.
    pub fn local_search_on_node(&self, core: CoreId, node: usize) -> ExecutionPlace {
        if self.topo.cluster_of(core).node == node {
            self.local_search(core)
        } else {
            self.global_search(true, false, Some(node))
        }
    }

    /// A copy of the current table for analysis / display, shaped
    /// `[core][width_idx]` with `f64::NAN` for invalid places.
    pub fn snapshot(&self) -> PttSnapshot {
        let w = self.widths.len();
        let mut rows = Vec::with_capacity(self.topo.num_cores());
        for c in 0..self.topo.num_cores() {
            let mut row = Vec::with_capacity(w);
            for &width in &self.widths {
                // Tearing across cells is acceptable in a report.
                row.push(self.predict(CoreId(c), width).unwrap_or(f64::NAN));
            }
            rows.push(row);
        }
        PttSnapshot {
            widths: self.widths.clone(),
            rows,
        }
    }
}

/// Immutable copy of a PTT for reporting (Fig. 2(b) style).
#[derive(Clone, Debug)]
pub struct PttSnapshot {
    /// Width axis (columns).
    pub widths: Vec<usize>,
    /// One row per core; `NAN` marks invalid `(core, width)` combinations.
    pub rows: Vec<Vec<f64>>,
}

impl PttSnapshot {
    /// The predicted time stored for `(core, width)`, or `None` for
    /// invalid/unknown combinations.
    pub fn entry(&self, core: CoreId, width: usize) -> Option<f64> {
        let wi = self.widths.iter().position(|&w| w == width)?;
        let v = *self.rows.get(core.0)?.get(wi)?;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Largest absolute difference between two snapshots of the same
    /// shape, over valid entries. Harnesses use this to detect model
    /// convergence (`delta < eps` ⇒ the PTT has settled) and to localise
    /// which entries an interference episode moved.
    ///
    /// # Panics
    /// Panics if the snapshots have different shapes.
    pub fn delta(&self, other: &PttSnapshot) -> f64 {
        assert_eq!(self.widths, other.widths, "snapshot width axes differ");
        assert_eq!(
            self.rows.len(),
            other.rows.len(),
            "snapshot core counts differ"
        );
        let mut max = 0.0f64;
        for (ra, rb) in self.rows.iter().zip(&other.rows) {
            for (a, b) in ra.iter().zip(rb) {
                if a.is_nan() || b.is_nan() {
                    continue;
                }
                max = max.max((a - b).abs());
            }
        }
        max
    }

    /// The `(core, width)` of the smallest positive (i.e. observed) entry,
    /// if any — "which place does the model currently believe is fastest".
    pub fn fastest_entry(&self) -> Option<(CoreId, usize, f64)> {
        let mut best: Option<(CoreId, usize, f64)> = None;
        for (c, row) in self.rows.iter().enumerate() {
            for (wi, &v) in row.iter().enumerate() {
                if v.is_nan() || v <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, _, b)| v < b) {
                    best = Some((CoreId(c), self.widths[wi], v));
                }
            }
        }
        best
    }
}

impl std::fmt::Display for PttSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core ")?;
        for w in &self.widths {
            write!(f, "{:>12}", format!("w={w}"))?;
        }
        writeln!(f)?;
        for (c, row) in self.rows.iter().enumerate() {
            write!(f, "C{c:<4}")?;
            for v in row {
                if v.is_nan() {
                    write!(f, "{:>12}", "-")?;
                } else {
                    write!(f, "{v:>12.3e}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// All PTTs of an application: one per task type, created on demand
/// (§4.1.1: "one such table is instantiated for each task type").
pub struct PttRegistry {
    topo: Arc<Topology>,
    ratio: WeightRatio,
    tables: RwLock<Vec<Arc<Ptt>>>,
}

impl PttRegistry {
    /// Empty registry for `topo` with update ratio `ratio`.
    pub fn new(topo: Arc<Topology>, ratio: WeightRatio) -> Self {
        PttRegistry {
            topo,
            ratio,
            tables: RwLock::new(Vec::new()),
        }
    }

    /// The PTT of task type `ty`, creating it (and any table for a lower
    /// type id) if needed.
    pub fn table(&self, ty: TaskTypeId) -> Arc<Ptt> {
        let want = ty.0 as usize;
        {
            let tables = self.tables.read().expect("ptt registry poisoned");
            if let Some(t) = tables.get(want) {
                return Arc::clone(t);
            }
        }
        let mut tables = self.tables.write().expect("ptt registry poisoned");
        while tables.len() <= want {
            tables.push(Arc::new(Ptt::new(Arc::clone(&self.topo), self.ratio)));
        }
        Arc::clone(&tables[want])
    }

    /// Number of task types seen so far.
    pub fn len(&self) -> usize {
        self.tables.read().expect("ptt registry poisoned").len()
    }

    /// `true` if no task type has been seen.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Update ratio used for newly created tables.
    pub fn ratio(&self) -> WeightRatio {
        self.ratio
    }

    /// Largest absolute PTT entry movement ([`PttSnapshot::delta`])
    /// since the previous call with the same `last`, across every
    /// table; `last` (indexed by task type, grown as types appear) is
    /// left holding the current snapshots. A table seen for the first
    /// time contributes its largest absolute entry (movement from the
    /// all-zero initial model).
    pub fn residual(&self, last: &mut Vec<PttSnapshot>) -> f64 {
        let mut max = 0.0f64;
        for ty in 0..self.len() {
            let snap = self.table(TaskTypeId(ty as u16)).snapshot();
            let d = match last.get(ty) {
                Some(prev) => snap.delta(prev),
                None => snap
                    .rows
                    .iter()
                    .flatten()
                    .filter(|v| !v.is_nan())
                    .fold(0.0f64, |m, v| m.max(v.abs())),
            };
            max = max.max(d);
            if ty < last.len() {
                last[ty] = snap;
            } else {
                last.push(snap);
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx2_ptt() -> Ptt {
        Ptt::new(Arc::new(Topology::tx2()), WeightRatio::PAPER)
    }

    /// Reference for [`Ptt::estimate`]: the pre-aggregate algorithm,
    /// recomputing the cluster-sibling mean from scratch. It differs
    /// from the cached aggregate only by floating-point association
    /// order (deltas folded in observation order vs entries summed in
    /// core order), i.e. by at most a few ULPs.
    fn estimate_rescan(ptt: &Ptt, core: CoreId, width: usize) -> Option<f64> {
        let raw = ptt.predict(core, width)?;
        if raw > 0.0 {
            return Some(raw);
        }
        let (mut sum, mut n) = (0.0, 0u32);
        for c in ptt.topology().cluster_of(core).cores() {
            if let Some(v) = ptt.predict(c, width).filter(|&v| v > 0.0) {
                sum += v;
                n += 1;
            }
        }
        Some(if n > 0 { sum / f64::from(n) } else { 0.0 })
    }

    /// Reference for [`Ptt::global_search`] over [`estimate_rescan`]:
    /// same strict-`<` arg-min in `places()` order.
    fn global_search_rescan(
        ptt: &Ptt,
        minimize_cost: bool,
        width_one_only: bool,
    ) -> ExecutionPlace {
        let mut best: Option<(f64, ExecutionPlace)> = None;
        for place in ptt.topology().places() {
            if width_one_only && place.width != 1 {
                continue;
            }
            let t = estimate_rescan(ptt, place.leader, place.width).unwrap();
            let cost = if minimize_cost {
                t * place.width as f64
            } else {
                t
            };
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, place));
            }
        }
        best.unwrap().1
    }

    #[test]
    fn zero_initialised_and_first_sample_replaces() {
        let ptt = tx2_ptt();
        assert_eq!(ptt.predict(CoreId(0), 1), Some(0.0));
        let p = ptt.topology().place(CoreId(0), 1).unwrap();
        ptt.update(p, 4.0);
        assert_eq!(ptt.predict(CoreId(0), 1), Some(4.0));
    }

    #[test]
    fn weighted_update_matches_paper_formula() {
        let ptt = tx2_ptt();
        let p = ptt.topology().place(CoreId(2), 2).unwrap();
        ptt.update(p, 10.0);
        ptt.update(p, 5.0);
        // (4*10 + 1*5)/5 = 9.0
        assert!((ptt.predict(CoreId(2), 2).unwrap() - 9.0).abs() < 1e-12);
        ptt.update(p, 5.0);
        // (4*9 + 5)/5 = 8.2
        assert!((ptt.predict(CoreId(2), 2).unwrap() - 8.2).abs() < 1e-12);
    }

    #[test]
    fn three_measurements_to_approach_new_value() {
        // §4.1.1: "after a performance variation, at least three
        // measurements need to be taken before the PTT value becomes
        // closer to the new value".
        let ptt = tx2_ptt();
        let p = ptt.topology().place(CoreId(1), 1).unwrap();
        ptt.update(p, 1.0);
        // Performance degrades to 2.0. With the 1:4 ratio the average
        // crosses the midpoint only at the fourth new observation, i.e.
        // "at least three measurements" are insufficient — the PTT is
        // resilient to up to three divergent samples.
        let target = 2.0f64;
        let mut crossed_at = None;
        for i in 1..=10 {
            ptt.update(p, target);
            let v = ptt.predict(CoreId(1), 1).unwrap();
            if (v - target).abs() < (v - 1.0).abs() && crossed_at.is_none() {
                crossed_at = Some(i);
            }
        }
        assert_eq!(crossed_at, Some(4));
        assert!(crossed_at.unwrap() > 3);
    }

    #[test]
    fn invalid_places_rejected() {
        let ptt = tx2_ptt();
        assert_eq!(ptt.predict(CoreId(0), 4), None); // denver max width 2
        assert_eq!(ptt.predict(CoreId(2), 4), Some(0.0));
    }

    #[test]
    fn table_validity_is_topology_validity() {
        // The table's own span lookup must give `Topology::place`'s
        // verdict for every core and every width, on the axis or off it.
        for topo in [
            Topology::tx2(),
            Topology::haswell_2x10(),
            Topology::big_little(3, 5, 2.0),
            Topology::grid(2, 2, 12),
        ] {
            let ptt = Ptt::new(Arc::new(topo.clone()), WeightRatio::PAPER);
            for c in topo.cores() {
                for w in 0..=topo.all_widths().last().unwrap() + 1 {
                    assert_eq!(
                        ptt.predict(c, w).is_some(),
                        topo.place(c, w).is_some(),
                        "({c}, w={w})"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_samples_ignored() {
        let ptt = tx2_ptt();
        let p = ptt.topology().place(CoreId(0), 1).unwrap();
        ptt.update(p, f64::NAN);
        ptt.update(p, -1.0);
        ptt.update(p, 0.0);
        assert_eq!(ptt.predict(CoreId(0), 1), Some(0.0));
    }

    #[test]
    fn seed_applies_same_guard_as_update() {
        let ptt = tx2_ptt();
        ptt.seed(CoreId(0), 1, 2.0);
        // Poisoned seeds must not displace the good value; before the
        // guard, a NaN here corrupted every later weighted average.
        ptt.seed(CoreId(0), 1, f64::NAN);
        ptt.seed(CoreId(0), 1, f64::INFINITY);
        ptt.seed(CoreId(0), 1, -3.0);
        ptt.seed(CoreId(0), 1, 0.0);
        assert_eq!(ptt.predict(CoreId(0), 1), Some(2.0));
        let p = ptt.topology().place(CoreId(0), 1).unwrap();
        ptt.update(p, 1.0);
        assert!(ptt.predict(CoreId(0), 1).unwrap().is_finite());
    }

    #[test]
    fn local_search_explores_then_minimises_cost() {
        let ptt = tx2_ptt();
        // All zero: smallest width explored first.
        assert_eq!(ptt.local_search(CoreId(2)).width, 1);
        ptt.seed(CoreId(2), 1, 8.0);
        // w=2 still zero -> explored next.
        assert_eq!(ptt.local_search(CoreId(2)).width, 2);
        ptt.seed(CoreId(2), 2, 3.0);
        assert_eq!(ptt.local_search(CoreId(2)).width, 4);
        ptt.seed(CoreId(2), 4, 2.5);
        // Costs: 8*1=8, 3*2=6, 2.5*4=10 -> width 2 wins.
        assert_eq!(ptt.local_search(CoreId(2)).width, 2);
    }

    #[test]
    fn global_search_cost_vs_perf() {
        let ptt = tx2_ptt();
        for p in ptt.topology().places() {
            // Make everything explored and mediocre.
            ptt.seed(p.leader, p.width, 10.0);
        }
        // Fast wide place: low time, high cost.
        ptt.seed(CoreId(2), 4, 1.0); // cost 4.0
        ptt.seed(CoreId(1), 1, 2.0); // cost 2.0
        let cost = ptt.global_search(true, false, None);
        assert_eq!((cost.leader, cost.width), (CoreId(1), 1));
        let perf = ptt.global_search(false, false, None);
        assert_eq!((perf.leader, perf.width), (CoreId(2), 4));
    }

    #[test]
    fn global_search_width_one_only_is_da() {
        let ptt = tx2_ptt();
        for p in ptt.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        ptt.seed(CoreId(2), 4, 0.5);
        ptt.seed(CoreId(3), 1, 2.0);
        let p = ptt.global_search(false, true, None);
        assert_eq!((p.leader, p.width), (CoreId(3), 1));
    }

    #[test]
    fn node_restriction() {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        for p in topo.places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        // Best overall on node 0, best on node 1 elsewhere. Node 1 spans
        // cores 20..40 on the 2-node (2×2×10-core) cluster.
        ptt.seed(CoreId(0), 1, 0.1);
        ptt.seed(CoreId(25), 1, 1.0);
        let p = ptt.global_search(false, false, Some(1));
        assert_eq!(topo.cluster_of(p.leader).node, 1);
        assert_eq!((p.leader, p.width), (CoreId(25), 1));
        // Local search on a core of the wrong node redirects into the node.
        let p = ptt.local_search_on_node(CoreId(0), 1);
        assert_eq!(topo.cluster_of(p.leader).node, 1);
    }

    #[test]
    fn registry_creates_one_table_per_type() {
        let reg = PttRegistry::new(Arc::new(Topology::tx2()), WeightRatio::PAPER);
        assert!(reg.is_empty());
        let a = reg.table(TaskTypeId(2));
        let b = reg.table(TaskTypeId(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 3);
        let c = reg.table(TaskTypeId(0));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn concurrent_updates_do_not_corrupt() {
        let ptt = Arc::new(tx2_ptt());
        let p = ptt.topology().place(CoreId(0), 1).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let ptt = Arc::clone(&ptt);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    ptt.update(p, 1.0 + ((t * i) % 7) as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = ptt.predict(CoreId(0), 1).unwrap();
        assert!(v.is_finite() && (1.0..=8.0).contains(&v), "v={v}");
    }

    #[test]
    fn estimate_borrows_from_cluster_siblings() {
        let ptt = tx2_ptt();
        // Nothing observed anywhere: estimate stays 0 (explore).
        assert_eq!(ptt.estimate(CoreId(3), 1), Some(0.0));
        // Observe (C2,1) and (C4,1): the unexplored (C3,1) borrows their
        // mean; the explored entries return their raw values.
        ptt.seed(CoreId(2), 1, 2.0);
        ptt.seed(CoreId(4), 1, 4.0);
        assert_eq!(ptt.estimate(CoreId(3), 1), Some(3.0));
        assert_eq!(ptt.estimate(CoreId(2), 1), Some(2.0));
        // Other widths and other clusters are not consulted.
        assert_eq!(ptt.estimate(CoreId(3), 2), Some(0.0));
        assert_eq!(ptt.estimate(CoreId(0), 1), Some(0.0));
        // Invalid place.
        assert_eq!(ptt.estimate(CoreId(0), 4), None);
    }

    #[test]
    fn global_search_exploration_is_per_cluster_width() {
        // With the symmetry prior, once one (a57, w=1) row is observed,
        // the global search stops treating the other a57 w=1 rows as
        // free exploration targets.
        let ptt = tx2_ptt();
        // Observe every denver place and one a57 row fully.
        for w in [1usize, 2] {
            ptt.seed(CoreId(0), w, 5.0);
            ptt.seed(CoreId(1), w, 5.0);
        }
        for w in [1usize, 2, 4] {
            ptt.seed(CoreId(2), w, 1.0);
        }
        // Remaining zeros: a57 rows 3..=5 — all estimable from core 2's
        // observations, so the search must pick the genuinely best
        // (estimated) place rather than the first zero entry.
        let p = ptt.global_search(false, false, None);
        assert_eq!(topo_cluster(&ptt, p), ClusterIdHelper::A57);
        let t = ptt.estimate(p.leader, p.width).unwrap();
        assert!(t > 0.0, "no cost-0 exploration left on this topology");
    }

    #[derive(PartialEq, Debug)]
    enum ClusterIdHelper {
        Denver,
        A57,
    }

    fn topo_cluster(ptt: &Ptt, p: ExecutionPlace) -> ClusterIdHelper {
        if ptt.topology().cluster_of(p.leader).name == "denver" {
            ClusterIdHelper::Denver
        } else {
            ClusterIdHelper::A57
        }
    }

    #[test]
    fn visits_count_only_committed_updates() {
        let ptt = tx2_ptt();
        let p = ptt.topology().place(CoreId(0), 1).unwrap();
        assert_eq!(ptt.visits(CoreId(0), 1), Some(0));
        ptt.update(p, 1.0);
        ptt.update(p, 2.0);
        ptt.update(p, f64::NAN); // rejected, must not count
        assert_eq!(ptt.visits(CoreId(0), 1), Some(2));
        assert_eq!(ptt.visits(CoreId(0), 4), None); // invalid place
        assert_eq!(ptt.total_visits(), 2);
    }

    #[test]
    fn coverage_tracks_exploration() {
        let ptt = tx2_ptt();
        let (explored, total) = ptt.coverage();
        assert_eq!((explored, total), (0, 16));
        for p in ptt.topology().places() {
            ptt.update(p, 1.0);
        }
        assert_eq!(ptt.coverage(), (16, 16));
    }

    #[test]
    fn sampled_search_sees_own_cluster_fully() {
        let ptt = tx2_ptt();
        for p in ptt.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        // Best place led by a NON-representative core of the probe's own
        // cluster: full visibility inside the home cluster must find it.
        ptt.seed(CoreId(3), 1, 0.5);
        let p = ptt.global_search_sampled(false, None, CoreId(2));
        assert_eq!((p.leader, p.width), (CoreId(3), 1));
    }

    #[test]
    fn sampled_search_sees_other_clusters_via_representative() {
        let ptt = tx2_ptt();
        for p in ptt.topology().places() {
            ptt.seed(p.leader, p.width, 10.0);
        }
        // Fast entry on the representative (first) core of the Denver
        // cluster, probed from the A57 cluster.
        ptt.seed(CoreId(0), 1, 0.25);
        let p = ptt.global_search_sampled(false, None, CoreId(4));
        assert_eq!((p.leader, p.width), (CoreId(0), 1));
        // A fast entry hidden on a non-representative remote core is the
        // accuracy trade-off: the sampled search cannot see it.
        let ptt2 = tx2_ptt();
        for p in ptt2.topology().places() {
            ptt2.seed(p.leader, p.width, 10.0);
        }
        ptt2.seed(CoreId(1), 1, 0.25); // denver core 1, not representative
        let p = ptt2.global_search_sampled(false, None, CoreId(4));
        assert_ne!((p.leader, p.width), (CoreId(1), 1));
    }

    #[test]
    fn sampled_search_respects_node_and_falls_back() {
        let topo = Arc::new(Topology::haswell_cluster(2));
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        for p in topo.places() {
            ptt.seed(p.leader, p.width, 5.0);
        }
        ptt.seed(CoreId(20), 1, 0.5); // first core of node 1
                                      // Probe on node 0, restricted to node 1: falls through to
                                      // node-restricted scan and still lands on node 1.
        let p = ptt.global_search_sampled(false, Some(1), CoreId(0));
        assert_eq!(topo.cluster_of(p.leader).node, 1);
    }

    #[test]
    fn snapshot_entry_and_delta() {
        let ptt = tx2_ptt();
        ptt.seed(CoreId(0), 1, 2.0);
        let a = ptt.snapshot();
        assert_eq!(a.entry(CoreId(0), 1), Some(2.0));
        assert_eq!(a.entry(CoreId(0), 4), None); // invalid on denver
        ptt.seed(CoreId(2), 2, 7.0);
        let b = ptt.snapshot();
        assert!((a.delta(&b) - 7.0).abs() < 1e-12);
        assert_eq!(a.delta(&a), 0.0);
        assert_eq!(b.fastest_entry(), Some((CoreId(0), 1, 2.0)));
    }

    #[test]
    #[should_panic(expected = "snapshot")]
    fn snapshot_delta_shape_mismatch_panics() {
        let a = tx2_ptt().snapshot();
        let b = Ptt::new(Arc::new(Topology::symmetric(4)), WeightRatio::PAPER).snapshot();
        let _ = a.delta(&b);
    }

    #[test]
    fn cached_estimate_matches_rescan_reference() {
        // Interleave seeds and updates across two clusters; the O(1)
        // aggregate must track the from-scratch recomputation on every
        // slot (valid widths and unexplored entries alike).
        let ptt = tx2_ptt();
        let topo = Arc::new(Topology::tx2());
        let steps: &[(usize, usize, f64)] = &[
            (2, 1, 3.0),
            (4, 1, 5.0),
            (2, 1, 1.0),
            (0, 2, 2.0),
            (3, 4, 7.0),
            (1, 1, 0.5),
            (2, 2, 9.0),
        ];
        for (k, &(core, width, v)) in steps.iter().enumerate() {
            if k % 2 == 0 {
                ptt.seed(CoreId(core), width, v);
            } else if let Some(p) = topo.place(CoreId(core), width) {
                ptt.update(p, v);
            }
            for c in topo.cores() {
                for &w in topo.all_widths() {
                    assert_eq!(
                        ptt.estimate(c, w),
                        estimate_rescan(&ptt, c, w),
                        "({c}, w={w}) after step {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn seed_of_invalid_slot_is_rejected_and_does_not_pollute_aggregates() {
        // On a 10-core cluster width 8 is valid for cores 0..8 but the
        // aligned block of cores 8..10 does not fit: seeding there must
        // be a no-op, or the (cluster, w=8) aggregate every valid core
        // borrows from would include a phantom entry.
        let topo = Arc::new(Topology::haswell_2x10());
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        assert!(topo.place(CoreId(8), 8).is_none());
        ptt.seed(CoreId(8), 8, 5.0);
        assert_eq!(ptt.estimate(CoreId(0), 8), Some(0.0));
        ptt.seed(CoreId(0), 8, 2.0);
        assert_eq!(ptt.estimate(CoreId(1), 8), Some(2.0));
        assert_eq!(
            ptt.estimate(CoreId(1), 8),
            estimate_rescan(&ptt, CoreId(1), 8)
        );
    }

    #[test]
    fn global_search_rescan_agrees_with_fast_path() {
        let ptt = tx2_ptt();
        ptt.seed(CoreId(2), 1, 2.0);
        ptt.seed(CoreId(0), 1, 4.0);
        for minimize_cost in [false, true] {
            for width_one in [false, true] {
                let a = ptt.global_search(minimize_cost, width_one, None);
                let b = global_search_rescan(&ptt, minimize_cost, width_one);
                assert_eq!((a.leader, a.width), (b.leader, b.width));
            }
        }
    }

    #[test]
    fn concurrent_updates_keep_aggregates_consistent() {
        // Hammer one cluster from several threads, then check the
        // cached borrow stays a sane mean of the final entries (exact
        // equality is not promised under races — the aggregate is a
        // heuristic — but it must stay within the entries' hull).
        let ptt = Arc::new(tx2_ptt());
        let mut handles = Vec::new();
        for t in 0..4usize {
            let ptt = Arc::clone(&ptt);
            handles.push(std::thread::spawn(move || {
                let core = CoreId(2 + t); // all four a57 cores at w=1
                let p = ptt.topology().place(core, 1).unwrap();
                for i in 0..1000 {
                    ptt.update(p, 1.0 + ((t + i) % 5) as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All a57 w=1 entries trained; a fresh w=2 query borrows. The
        // single-threaded rescan is exact now that writers are done.
        let cached = ptt.estimate(CoreId(2), 1).unwrap();
        assert!(cached > 0.0);
        let borrow = estimate_rescan(&ptt, CoreId(3), 2).unwrap();
        assert_eq!(borrow, 0.0, "w=2 never observed");
        let mean_cached = {
            // Force the borrow path by querying through a snapshot of
            // an untouched sibling width... w=4 also unexplored.
            ptt.estimate(CoreId(3), 4).unwrap()
        };
        assert_eq!(mean_cached, 0.0);
    }

    /// Reference for the indexed [`Ptt::global_search`]: the strict-`<`
    /// sweep of `places()` over the public, cached [`Ptt::estimate`] —
    /// the same floats the index compares, so equality is exact.
    fn global_search_sweep(
        ptt: &Ptt,
        minimize_cost: bool,
        width_one_only: bool,
        node: Option<usize>,
    ) -> ExecutionPlace {
        let topo = ptt.topology();
        let mut best: Option<(f64, ExecutionPlace)> = None;
        for place in topo.places() {
            if (width_one_only && place.width != 1)
                || node.is_some_and(|n| topo.cluster_of(place.leader).node != n)
            {
                continue;
            }
            let t = ptt.estimate(place.leader, place.width).unwrap();
            let cost = if minimize_cost {
                t * place.width as f64
            } else {
                t
            };
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, place));
            }
        }
        best.unwrap().1
    }

    #[test]
    fn slot_cells_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<SlotCell>(), 64);
        assert_eq!(std::mem::size_of::<SlotCell>(), 64);
    }

    #[test]
    fn indexed_search_skips_tail_cores_and_breaks_ties_in_places_order() {
        // 10-core clusters: cores 8 and 9 lead no width-8 place, so the
        // width-8 slot's "first zero" must never name them; and equal
        // seeds across clusters and widths must resolve to the first
        // place in `places()` order.
        let topo = Arc::new(Topology::grid(2, 2, 10));
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        for p in topo.places() {
            if p.width != 8 {
                ptt.seed(p.leader, p.width, 4.0);
            }
        }
        for c in 0..8 {
            ptt.seed(CoreId(c), 8, 4.0);
        }
        // Only cluster 0's width-8 slot is fully explored; the others'
        // zero entries (cost 0) win, lowest valid core first.
        let p = ptt.global_search(false, false, None);
        assert_eq!((p.leader, p.width), (CoreId(10), 8));
        let p = ptt.global_search(true, false, Some(1));
        assert_eq!((p.leader, p.width), (CoreId(20), 8));
        for cl in 1..4 {
            for c in 0..8 {
                ptt.seed(CoreId(cl * 10 + c), 8, 4.0);
            }
        }
        // Everything 4.0: DAM-P ties everywhere, (C0, 1) is first.
        let p = ptt.global_search(false, false, None);
        assert_eq!((p.leader, p.width), (CoreId(0), 1));
        // A later core ties with an earlier core's wider place.
        ptt.seed(CoreId(5), 1, 1.0);
        ptt.seed(CoreId(3), 4, 1.0);
        let p = ptt.global_search(false, false, None);
        assert_eq!((p.leader, p.width), (CoreId(3), 4));
        for (cost, one, node) in [(false, true, None), (true, false, Some(1))] {
            let (a, b) = (
                ptt.global_search(cost, one, node),
                global_search_sweep(&ptt, cost, one, node),
            );
            assert_eq!((a.leader, a.width), (b.leader, b.width));
        }
    }

    #[test]
    fn searches_racing_writers_stay_valid_and_heal() {
        // Four writers hammer overlapping slots of a three-cluster
        // machine for as long as one thread searches (the searcher, not
        // a timer, ends the writers, so every search overlaps them). A
        // racing search may lag a write, but it must always name a real
        // place; once the writers have joined, the cache must have
        // healed: the indexed search equals the sweep for every
        // argument combination.
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let topo = Arc::new(Topology::grid(1, 3, 16));
        let ptt = Ptt::new(Arc::clone(&topo), WeightRatio::PAPER);
        let places: Vec<_> = topo.places().collect();
        let start = Barrier::new(5);
        let searching = AtomicBool::new(true);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (ptt, places, start, searching) = (&ptt, &places, &start, &searching);
                s.spawn(move || {
                    start.wait();
                    // At least one full pass, then until the searcher is
                    // done. Strides coprime to the 240 places: every
                    // writer visits every slot, in a different order.
                    let mut i = 0usize;
                    while i < places.len() || searching.load(Ordering::SeqCst) {
                        let p = places[(i * [1, 7, 11, 13][t] + t) % places.len()];
                        ptt.update(p, 1.0 + ((i * 7 + t * 13) % 97) as f64);
                        i += 1;
                    }
                });
            }
            start.wait();
            for k in 0..4_000 {
                let p = ptt.global_search(k % 2 == 0, false, None);
                assert_eq!(topo.place(p.leader, p.width), Some(p));
            }
            searching.store(false, Ordering::SeqCst);
        });
        for minimize_cost in [false, true] {
            for width_one_only in [false, true] {
                let a = ptt.global_search(minimize_cost, width_one_only, None);
                let b = global_search_sweep(&ptt, minimize_cost, width_one_only, None);
                assert_eq!((a.leader, a.width), (b.leader, b.width));
            }
        }
    }

    #[test]
    fn snapshot_display() {
        let ptt = tx2_ptt();
        ptt.seed(CoreId(0), 1, 1.5);
        let s = ptt.snapshot();
        assert_eq!(s.rows.len(), 6);
        assert_eq!(s.rows[0][0], 1.5);
        assert!(s.rows[0][2].is_nan()); // (C0, w=4) invalid
        let text = s.to_string();
        assert!(text.contains("w=4"));
    }
}
