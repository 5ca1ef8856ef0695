//! The L2 tag-array **victim bits** extension (paper §4.1, Figure 6).
//!
//! Each L2 line carries one bit per L1 cache (or per group of `S_v`
//! cores, §4.3's overhead reduction). The bit for L1 *p* is set when the L2
//! services a request for the line from core *p* and cleared when the line
//! leaves the L2. If the bit is *already set* when core *p* requests the
//! line again, the L1 fetched this line recently and evicted it before
//! re-use — contention. The old bit value travels back to the L1 with the
//! response as the *victim hint* that drives G-Cache's bypass switch.
//!
//! Which cores share a bit is not hard-coded: the tracker is built from a
//! [`CoreGrouping`], an injected core→group map. The flat machine uses the
//! modular `core / S_v` grouping; a clustered topology derives the map from
//! its cluster placement instead, so cores that share an L1.5 also share a
//! victim bit regardless of where they sit on the mesh.

use crate::addr::CoreId;
use crate::geometry::CacheGeometry;
use crate::record;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// An injected core→victim-bit-group mapping: group *g* owns bit *g* of
/// every line's mask. §4.3's sharing factor made topology-aware.
///
/// # Examples
///
/// ```
/// use gcache_core::victim_bits::CoreGrouping;
///
/// // The flat default: cores 0..4 share bit 0, cores 4..8 bit 1, ...
/// let modular = CoreGrouping::modular(16, 4);
/// assert_eq!(modular.groups(), 4);
/// assert_eq!(modular.group_of(5), 1);
///
/// // An explicit (e.g. cluster-derived) map need not be contiguous.
/// let mapped = CoreGrouping::from_map(vec![0, 1, 0, 1]);
/// assert_eq!(mapped.groups(), 2);
/// assert_eq!(mapped.group_of(2), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreGrouping {
    /// Victim-bit group of each core, indexed by core id.
    group_of: Vec<usize>,
    groups: usize,
}

impl CoreGrouping {
    /// The modular mapping `core / share` (the paper's flat-machine `S_v`;
    /// `share` = 1 gives every core a private bit).
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `share` is zero, or if the resulting group
    /// count exceeds 64 (the mask width).
    pub fn modular(cores: usize, share: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(share > 0, "sharing factor must be positive");
        CoreGrouping::from_map((0..cores).map(|c| c / share).collect())
    }

    /// Builds a grouping from an explicit per-core map (group ids need not
    /// be assigned contiguously across cores). The group count is
    /// `max(id) + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or names a group id ≥ 64 (the mask
    /// width).
    pub fn from_map(group_of: Vec<usize>) -> Self {
        let groups = group_of
            .iter()
            .max()
            .map(|&g| g + 1)
            .expect("need at least one core");
        assert!(
            groups <= 64,
            "at most 64 victim-bit groups supported, got {groups}"
        );
        CoreGrouping { group_of, groups }
    }

    /// Number of cores mapped.
    pub fn cores(&self) -> usize {
        self.group_of.len()
    }

    /// Number of distinct groups (victim bits per line, `L_v`).
    pub const fn groups(&self) -> usize {
        self.groups
    }

    /// The victim-bit group of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the mapped core count.
    pub fn group_of(&self, core: usize) -> usize {
        self.group_of[core]
    }
}

record! {
    /// Running counters over a [`VictimBits`] tracker's activity, for
    /// time-series telemetry (set/hit/clear rates across a kernel).
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct VictimBitStats {
        /// Observations that newly set a bit (first request from a group since
        /// the line was filled).
        pub sets: u64,
        /// Observations that found the bit already set — each one is a
        /// contention signal (a victim hint sent back to an L1).
        pub hits: u64,
        /// Line clears that actually dropped at least one set bit (fills and
        /// evictions of untouched lines are not counted).
        pub clears: u64,
    }
    impl merge;
}

/// Per-line victim-bit storage for one L2 bank.
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::victim_bits::VictimBits;
/// use gcache_core::addr::CoreId;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(128 * 1024, 16, 128)?;
/// let mut vb = VictimBits::new(&geom, 16, 1);
/// // First request from core 3: no contention yet.
/// assert!(!vb.observe(0, 0, CoreId(3)));
/// // Second request from core 3 for the same resident line: contention.
/// assert!(vb.observe(0, 0, CoreId(3)));
/// // Other cores are tracked independently.
/// assert!(!vb.observe(0, 0, CoreId(4)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct VictimBits {
    ways: usize,
    grouping: CoreGrouping,
    /// One bitmask per line; bit g = group g has requested the line since
    /// it was filled.
    bits: Vec<u64>,
    stats: VictimBitStats,
}

impl VictimBits {
    /// Creates victim-bit storage for an L2 bank of the given geometry,
    /// serving `cores` L1 caches with the modular `share`-cores-per-bit
    /// grouping (the paper's `S_v`; 1 = a private bit per core). Shorthand
    /// for [`VictimBits::with_grouping`] over [`CoreGrouping::modular`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CoreGrouping::modular`].
    pub fn new(geom: &CacheGeometry, cores: usize, share: usize) -> Self {
        VictimBits::with_grouping(geom, CoreGrouping::modular(cores, share))
    }

    /// Creates victim-bit storage with an injected core→group map (e.g.
    /// derived from a cluster topology).
    pub fn with_grouping(geom: &CacheGeometry, grouping: CoreGrouping) -> Self {
        VictimBits {
            ways: geom.ways() as usize,
            grouping,
            bits: vec![0; geom.lines() as usize],
            stats: VictimBitStats::default(),
        }
    }

    /// Number of victim bits per line (`L_v`, §4.3).
    pub const fn bits_per_line(&self) -> usize {
        self.grouping.groups()
    }

    /// The core→group map this tracker was built with.
    pub const fn grouping(&self) -> &CoreGrouping {
        &self.grouping
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn group_mask(&self, core: CoreId) -> u64 {
        1u64 << self.grouping.group_of(core.index())
    }

    /// Records that the L2 fulfilled a request for line (set, way) from
    /// `core`, returning the *previous* bit value — `true` means this L1
    /// already requested the line recently (contention; the victim hint).
    pub fn observe(&mut self, set: usize, way: usize, core: CoreId) -> bool {
        let mask = self.group_mask(core);
        let i = self.idx(set, way);
        let old = self.bits[i] & mask != 0;
        self.bits[i] |= mask;
        if old {
            self.stats.hits += 1;
        } else {
            self.stats.sets += 1;
        }
        old
    }

    /// Reads the bit for `core` without setting it.
    #[cfg(test)]
    fn peek(&self, set: usize, way: usize, core: CoreId) -> bool {
        self.bits[self.idx(set, way)] & self.group_mask(core) != 0
    }

    /// Clears all bits of line (set, way) — called when the line is evicted
    /// from, or newly filled into, the L2.
    pub fn clear(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        if self.bits[i] != 0 {
            self.stats.clears += 1;
        }
        self.bits[i] = 0;
    }

    /// Running set/hit/clear counters (telemetry).
    pub const fn stats(&self) -> &VictimBitStats {
        &self.stats
    }

    /// Total storage cost of this tracker in bits (one `L_v`-bit mask per
    /// line). See [`crate::overhead`] for the paper's arithmetic.
    pub fn storage_bits(&self) -> u64 {
        self.bits.len() as u64 * self.grouping.groups() as u64
    }
}

impl Snapshot for VictimBits {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("victim_bits", |w| {
            w.u64s(&self.bits);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("victim_bits", |r| {
            r.u64s(&mut self.bits, "victim-bit lines")?;
            self.stats = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::assert_round_trip;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(128 * 1024, 16, 128).unwrap() // 64 sets, 16 ways
    }

    #[test]
    fn first_observe_is_clean() {
        let mut vb = VictimBits::new(&geom(), 16, 1);
        assert!(!vb.observe(5, 3, CoreId(0)));
        assert!(vb.peek(5, 3, CoreId(0)));
        assert!(!vb.peek(5, 3, CoreId(1)));
    }

    #[test]
    fn re_request_detected_per_core() {
        let mut vb = VictimBits::new(&geom(), 16, 1);
        assert!(!vb.observe(0, 0, CoreId(7)));
        assert!(vb.observe(0, 0, CoreId(7)));
        assert!(!vb.observe(0, 0, CoreId(8)));
        assert!(vb.observe(0, 0, CoreId(8)));
    }

    #[test]
    fn clear_resets_all_cores() {
        let mut vb = VictimBits::new(&geom(), 16, 1);
        vb.observe(2, 2, CoreId(0));
        vb.observe(2, 2, CoreId(15));
        vb.clear(2, 2);
        assert!(!vb.observe(2, 2, CoreId(0)));
        assert!(!vb.peek(2, 2, CoreId(15)));
    }

    #[test]
    fn lines_are_independent() {
        let mut vb = VictimBits::new(&geom(), 16, 1);
        vb.observe(0, 0, CoreId(0));
        assert!(!vb.observe(0, 1, CoreId(0)));
        assert!(!vb.observe(1, 0, CoreId(0)));
    }

    #[test]
    fn sharing_factor_groups_cores() {
        let mut vb = VictimBits::new(&geom(), 16, 4);
        assert_eq!(vb.bits_per_line(), 4);
        // Cores 0..4 share bit 0: core 1 request after core 0 looks like a
        // re-request (the accuracy/overhead tradeoff of §4.1).
        assert!(!vb.observe(0, 0, CoreId(0)));
        assert!(vb.observe(0, 0, CoreId(1)));
        // Core 4 is in the next group.
        assert!(!vb.observe(0, 0, CoreId(4)));
    }

    #[test]
    fn all_cores_share_one_bit() {
        let mut vb = VictimBits::new(&geom(), 16, 16);
        assert_eq!(vb.bits_per_line(), 1);
        assert!(!vb.observe(0, 0, CoreId(0)));
        assert!(vb.observe(0, 0, CoreId(15)));
    }

    #[test]
    fn injected_grouping_overrides_modular_arithmetic() {
        // A deliberately non-contiguous map: even cores in group 0, odd in
        // group 1 — something `core / share` can never express. The tracker
        // must follow the map, not the core index.
        let grouping = CoreGrouping::from_map(vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let mut vb = VictimBits::with_grouping(&geom(), grouping);
        assert_eq!(vb.bits_per_line(), 2);
        assert!(!vb.observe(0, 0, CoreId(0)));
        // Core 2 shares group 0 with core 0 → contention signal.
        assert!(vb.observe(0, 0, CoreId(2)));
        // Core 1 is in group 1, untouched so far.
        assert!(!vb.observe(0, 0, CoreId(1)));
        assert!(vb.observe(0, 0, CoreId(3)));
    }

    #[test]
    fn modular_grouping_matches_division() {
        let g = CoreGrouping::modular(16, 4);
        for core in 0..16 {
            assert_eq!(g.group_of(core), core / 4);
        }
        assert_eq!(g.cores(), 16);
        assert_eq!(g.groups(), 4);
    }

    #[test]
    fn storage_matches_paper_example() {
        // §4.3: 16-core GPU, 512-set 16-way L2 (1 MB) -> O_v = 16 K bits per
        // bank-set... the paper counts P×N×M bits = 16×512×16 = 128 Kbit
        // = 16 KB over the whole L2.
        let whole_l2 = CacheGeometry::with_sets(512, 16, 128).unwrap();
        let vb = VictimBits::new(&whole_l2, 16, 1);
        assert_eq!(vb.storage_bits(), 16 * 512 * 16);
        assert_eq!(vb.storage_bits() / 8 / 1024, 16); // 16 KB
    }

    #[test]
    fn clustered_share_16_storage_is_1kb() {
        // §4.3's clustered configuration: all 16 cores share one bit
        // (S_v = 16) → 1×512×16 bits = 1 KB over the whole L2.
        let whole_l2 = CacheGeometry::with_sets(512, 16, 128).unwrap();
        let vb = VictimBits::new(&whole_l2, 16, 16);
        assert_eq!(vb.storage_bits() / 8, 1024);
    }

    #[test]
    fn stats_count_sets_hits_and_clears() {
        let mut vb = VictimBits::new(&geom(), 16, 1);
        vb.observe(0, 0, CoreId(0)); // set
        vb.observe(0, 0, CoreId(0)); // hit
        vb.observe(0, 0, CoreId(1)); // set
        vb.clear(0, 0); // counted: bits were set
        vb.clear(0, 1); // not counted: nothing to drop
        let s = *vb.stats();
        assert_eq!(s.sets, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.clears, 1);
        let mut merged = VictimBitStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.sets, 4);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn rejects_too_many_groups() {
        let _ = VictimBits::new(&geom(), 128, 1);
    }

    #[test]
    #[should_panic(expected = "sharing factor")]
    fn rejects_zero_share() {
        let _ = VictimBits::new(&geom(), 16, 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn rejects_empty_map() {
        let _ = CoreGrouping::from_map(Vec::new());
    }

    #[test]
    fn stats_round_trip_through_a_snapshot() {
        assert_round_trip(&VictimBitStats {
            sets: 1,
            hits: 2,
            clears: 3,
        });
    }
}
