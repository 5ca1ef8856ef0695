//! **G-Cache** — the paper's adaptive bypass + insertion policy (§4).
//!
//! G-Cache augments a 3-bit SRRIP L1 cache with:
//!
//! * a per-set **bypass switch**, opened when a fill response arrives with
//!   its victim bit set (the L2 detected that this L1 re-requested a line it
//!   had recently fetched → the line was evicted early → contention);
//! * a **bypass-on-fill** rule: while the switch is on and *every* resident
//!   line of the target set is hot (RRPV < `TH_hot`), the incoming block is
//!   not cached;
//! * **ageing on bypass**: every bypass increments the RRPVs of the resident
//!   lines, so a block that keeps returning eventually displaces stale "hot"
//!   lines (Figure 7's `b1` becoming hot);
//! * **hint-aware insertion**: blocks whose victim bit is set lost locality
//!   to contention and are inserted hot (RRPV = 0); all other blocks insert
//!   with SRRIP's long prediction;
//! * a lowered hotness threshold for hint-carrying fills, making it easier
//!   for a block that demonstrably lost locality to displace a resident line;
//! * periodic **epoch reset** of all bypass switches to bound the side
//!   effects of stale bypass decisions.

use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::policy::rrip::RrpvTable;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Tunables of the [`GCache`] policy.
///
/// The defaults reproduce the paper's configuration: 3-bit RRPVs, hot means
/// RRPV < 2 (Figure 7: "both a₁ and a₂ are hot (with RRPVs less than 2)"),
/// hint-carrying fills use the stricter threshold 1, and ageing happens on
/// every bypass (`aging_period = 1`; §5.1 proposes raising it for
/// very-large-reuse-distance workloads like KMN/NW).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GCacheConfig {
    /// RRPV width in bits (paper: 3).
    pub rrpv_bits: u8,
    /// A resident line is *hot* iff its RRPV is strictly below this value.
    pub th_hot: u8,
    /// Hotness threshold applied when the incoming block carries a set
    /// victim bit. Must be ≤ `th_hot`; a lower value makes it easier for
    /// the incoming block to replace a resident line.
    pub th_hot_victim: u8,
    /// Age resident RRPVs on every `aging_period`-th bypass of a set
    /// (1 = every bypass, the paper's base design).
    pub aging_period: u32,
    /// §5.1's proposed extension: adjust the ageing period at runtime from
    /// the contention information the L2 collects. Each epoch, if bypasses
    /// vastly outnumber hits (protection is not paying off — the workload's
    /// reuse distance exceeds the current reach), the period doubles (up to
    /// [`GCacheConfig::MAX_ADAPTIVE_PERIOD`]), extending protection; when
    /// hits dominate it decays back towards the configured `aging_period`.
    pub adaptive_aging: bool,
}

impl GCacheConfig {
    /// Upper bound for the runtime-adjusted ageing period.
    pub const MAX_ADAPTIVE_PERIOD: u32 = 16;

    /// The paper's base design plus the §5.1 adaptive-ageing extension.
    pub fn adaptive() -> Self {
        GCacheConfig {
            adaptive_aging: true,
            ..GCacheConfig::default()
        }
    }
}

impl Default for GCacheConfig {
    fn default() -> Self {
        GCacheConfig {
            rrpv_bits: 3,
            th_hot: 2,
            th_hot_victim: 1,
            aging_period: 1,
            adaptive_aging: false,
        }
    }
}

impl GCacheConfig {
    fn validate(&self) {
        assert!((1..=7).contains(&self.rrpv_bits), "rrpv_bits must be 1..=7");
        let max = (1u8 << self.rrpv_bits) - 1;
        assert!(
            self.th_hot >= 1 && self.th_hot <= max,
            "th_hot out of range"
        );
        assert!(
            self.th_hot_victim >= 1 && self.th_hot_victim <= self.th_hot,
            "th_hot_victim must be in 1..=th_hot"
        );
        assert!(self.aging_period >= 1, "aging_period must be positive");
    }
}

/// The G-Cache L1 policy (paper name: **GC**).
///
/// # Examples
///
/// Reproducing the access walk of the paper's Figure 7 on a 2-way set: the
/// hot lines `a₁`, `a₂` are protected and the streaming fills are bypassed
/// once contention has opened the switch.
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::gcache::GCache;
/// use gcache_core::policy::{AccessCtx, FillDecision, ReplacementPolicy};
/// use gcache_core::addr::{CoreId, LineAddr};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(256, 2, 128)?; // one 2-way set
/// let mut gc = GCache::with_defaults(&geom);
/// let plain = AccessCtx::plain(LineAddr::new(0), CoreId(0));
/// // a1 and a2 fill, then hit (hot, RRPV 0).
/// gc.on_insert(0, 0, &plain);
/// gc.on_insert(0, 1, &plain);
/// gc.on_hit(0, 0);
/// gc.on_hit(0, 1);
/// // a1 misses again: the response carries a set victim bit -> the switch
/// // opens, and because both resident lines are hot the fill bypasses.
/// let hinted = AccessCtx { victim_hint: true, ..plain };
/// assert_eq!(gc.fill_decision(0, 0b11, &hinted), FillDecision::Bypass);
/// // Streaming block b1 (no hint) now also bypasses: switch stays open.
/// assert_eq!(gc.fill_decision(0, 0b11, &plain), FillDecision::Bypass);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GCache {
    cfg: GCacheConfig,
    table: RrpvTable,
    /// Per-set bypass switch (Figure 5).
    switch: Vec<bool>,
    /// Per-set count of bypasses since the last ageing, for `aging_period`.
    since_aging: Vec<u32>,
    /// Effective ageing period (== `cfg.aging_period` unless adaptive).
    current_period: u32,
    /// Bypasses / hits within the current epoch, for the adaptive rule.
    epoch_bypasses: u64,
    epoch_hits: u64,
}

impl GCache {
    /// Creates a G-Cache policy with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`GCacheConfig`]
    /// field docs).
    pub fn new(geom: &CacheGeometry, cfg: GCacheConfig) -> Self {
        cfg.validate();
        GCache {
            table: RrpvTable::new(geom, cfg.rrpv_bits),
            switch: vec![false; geom.sets() as usize],
            since_aging: vec![0; geom.sets() as usize],
            current_period: cfg.aging_period,
            epoch_bypasses: 0,
            epoch_hits: 0,
            cfg,
        }
    }

    /// Creates a G-Cache policy with the paper's default tunables.
    pub fn with_defaults(geom: &CacheGeometry) -> Self {
        GCache::new(geom, GCacheConfig::default())
    }

    /// The active configuration.
    pub const fn config(&self) -> &GCacheConfig {
        &self.cfg
    }

    /// Whether the bypass switch of `set` is currently open.
    pub fn switch_open(&self, set: usize) -> bool {
        self.switch[set]
    }

    /// Number of sets whose bypass switch is currently open (telemetry:
    /// the switch-on fraction is this over [`GCache::sets`]).
    pub fn open_switches(&self) -> usize {
        self.switch.iter().filter(|&&s| s).count()
    }

    /// Number of sets this policy manages.
    pub fn sets(&self) -> usize {
        self.switch.len()
    }

    /// Read access to the RRPV table.
    pub fn table(&self) -> &RrpvTable {
        &self.table
    }

    /// The ageing period currently in force (differs from the configured
    /// one only when [`GCacheConfig::adaptive_aging`] is on).
    #[cfg(test)]
    const fn current_aging_period(&self) -> u32 {
        self.current_period
    }
}

impl ReplacementPolicy for GCache {
    fn name(&self) -> &'static str {
        "GC"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.epoch_hits += 1;
        self.table.promote(set, way);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, ctx: &AccessCtx) -> FillDecision {
        // A returning victim bit notifies this L1 that the line was
        // referenced before and became a victim of early eviction: open the
        // bypass switch of the target set (§4.2).
        if ctx.victim_hint {
            self.switch[set] = true;
        }

        // Free space never bypasses.
        if let Some(way) = first_invalid_way(valid_mask, self.table.ways()) {
            return FillDecision::Insert { way };
        }

        let threshold = if ctx.victim_hint {
            self.cfg.th_hot_victim
        } else {
            self.cfg.th_hot
        };
        if self.switch[set] && self.table.all_below(set, valid_mask, threshold) {
            // Protect the hot resident lines; the bypass victim could be a
            // hot line in the future, so reduce the hotness of the resident
            // lines (every `aging_period`-th bypass).
            self.epoch_bypasses += 1;
            self.since_aging[set] += 1;
            if self.since_aging[set] >= self.current_period {
                self.since_aging[set] = 0;
                self.table.age_set(set, valid_mask);
            }
            return FillDecision::Bypass;
        }

        // Replace the coldest line directly (no SRRIP ageing loop: that
        // would saturate every RRPV and erase the absolute hotness the
        // bypass test reads; G-Cache ages through bypasses instead).
        let way = self
            .table
            .find_coldest(set, valid_mask)
            .expect("set is full, victim exists");
        FillDecision::Insert { way }
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        // Insertion treats hot and cold blocks differently: a block that
        // provably lost locality to contention inserts hot, anything else
        // (potentially streaming) inserts with SRRIP's long prediction.
        let rrpv = if ctx.victim_hint {
            0
        } else {
            self.table.max() - 1
        };
        self.table.set(set, way, rrpv);
    }

    fn on_epoch(&mut self) {
        // Shut the bypass switches down periodically to bound the side
        // effects of stale bypass decisions (§4.2).
        self.switch.fill(false);
        if self.cfg.adaptive_aging {
            // §5.1's runtime M adjustment: bypassing without hits means the
            // protected lines' reuse distance exceeds the current reach —
            // slow the ageing down; plentiful hits let it decay back.
            if self.epoch_bypasses > self.epoch_hits.saturating_mul(2) {
                self.current_period =
                    (self.current_period * 2).min(GCacheConfig::MAX_ADAPTIVE_PERIOD);
            } else if self.epoch_hits > self.epoch_bypasses.saturating_mul(2)
                && self.current_period > self.cfg.aging_period
            {
                self.current_period /= 2;
            }
            self.epoch_bypasses = 0;
            self.epoch_hits = 0;
        }
    }
}

impl Snapshot for GCache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("gcache", |w| {
            self.table.save(w);
            w.put(&self.switch);
            w.put_each(&self.since_aging);
            w.put(&(self.current_period, self.epoch_bypasses, self.epoch_hits));
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("gcache", |r| {
            self.table.restore(r)?;
            r.fill(&mut self.switch, "G-Cache sets")?;
            r.get_each(&mut self.since_aging)?;
            (self.current_period, self.epoch_bypasses, self.epoch_hits) = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, LineAddr};

    fn geom(ways: u32) -> CacheGeometry {
        CacheGeometry::with_sets(4, ways, 128).unwrap()
    }

    fn plain() -> AccessCtx {
        AccessCtx::plain(LineAddr::new(0), CoreId(0))
    }

    fn hinted() -> AccessCtx {
        AccessCtx {
            victim_hint: true,
            ..plain()
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = GCacheConfig::default();
        assert_eq!(cfg.rrpv_bits, 3);
        assert_eq!(cfg.th_hot, 2);
        assert_eq!(cfg.th_hot_victim, 1);
        assert_eq!(cfg.aging_period, 1);
    }

    #[test]
    #[should_panic(expected = "th_hot_victim")]
    fn rejects_victim_threshold_above_hot() {
        let cfg = GCacheConfig {
            th_hot: 2,
            th_hot_victim: 3,
            ..GCacheConfig::default()
        };
        let _ = GCache::new(&geom(2), cfg);
    }

    #[test]
    fn no_bypass_while_switch_closed() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        // All lines hot, but no victim hint ever arrived: normal SRRIP fill.
        assert!(matches!(
            gc.fill_decision(0, 0b11, &plain()),
            FillDecision::Insert { .. }
        ));
        assert!(!gc.switch_open(0));
    }

    #[test]
    fn hint_opens_switch_and_bypasses_hot_set() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass);
        assert!(gc.switch_open(0));
        // Switch stays open for plain fills too.
        assert_eq!(gc.fill_decision(0, 0b11, &plain()), FillDecision::Bypass);
    }

    #[test]
    fn bypass_requires_all_lines_hot() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain()); // RRPV 6: cold
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0); // way 0 hot, way 1 cold
        let d = gc.fill_decision(0, 0b11, &hinted());
        // Way 1 is cold (RRPV 6) -> SRRIP eviction of way 1, no bypass.
        assert_eq!(d, FillDecision::Insert { way: 1 });
        assert!(gc.switch_open(0)); // the hint still opened the switch
    }

    #[test]
    fn bypass_never_happens_with_free_way() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_hit(0, 0);
        assert_eq!(
            gc.fill_decision(0, 0b01, &hinted()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn bypass_ages_resident_lines_until_replaceable() {
        // Figure 7's tail: b1 keeps arriving; ageing eventually lets it in.
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1); // both RRPV 0
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass); // ages to 1
        assert_eq!(gc.fill_decision(0, 0b11, &plain()), FillDecision::Bypass); // ages to 2
                                                                               // Now RRPVs are 2 >= th_hot: next plain fill inserts via SRRIP.
        assert!(matches!(
            gc.fill_decision(0, 0b11, &plain()),
            FillDecision::Insert { .. }
        ));
    }

    #[test]
    fn victim_threshold_is_stricter() {
        // Lines at RRPV 1: hot for plain fills (th 2) but not for hinted
        // fills (th 1), so the hinted block gets inserted.
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        // Open the switch, ageing RRPVs 0 -> 1.
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass);
        // RRPV 1 each: a plain fill still bypasses (1 < 2)...
        assert_eq!(gc.fill_decision(0, 0b11, &plain()), FillDecision::Bypass);
        // (that bypass aged lines to 2, bring them back to 1)
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        gc.table.age_set(0, 0b11); // not part of the policy API: direct setup
                                   // ...but a hinted fill does not (1 >= th_hot_victim = 1).
        assert!(matches!(
            gc.fill_decision(0, 0b11, &hinted()),
            FillDecision::Insert { .. }
        ));
    }

    #[test]
    fn hinted_insert_is_hot_plain_insert_is_long() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &hinted());
        gc.on_insert(0, 1, &plain());
        assert_eq!(gc.table().get(0, 0), 0);
        assert_eq!(gc.table().get(0, 1), 6);
    }

    #[test]
    fn epoch_closes_switches() {
        let mut gc = GCache::with_defaults(&geom(2));
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass);
        assert!(gc.switch_open(0));
        gc.on_epoch();
        assert!(!gc.switch_open(0));
        // After the reset the same hot set no longer bypasses plain fills.
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        assert!(matches!(
            gc.fill_decision(0, 0b11, &plain()),
            FillDecision::Insert { .. }
        ));
    }

    #[test]
    fn aging_period_slows_ageing() {
        let cfg = GCacheConfig {
            aging_period: 2,
            ..GCacheConfig::default()
        };
        let mut gc = GCache::new(&geom(2), cfg);
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        gc.on_hit(0, 0);
        gc.on_hit(0, 1);
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass);
        // First bypass: no ageing yet (period 2).
        assert_eq!(gc.table().get(0, 0), 0);
        assert_eq!(gc.fill_decision(0, 0b11, &plain()), FillDecision::Bypass);
        // Second bypass: ageing fires.
        assert_eq!(gc.table().get(0, 0), 1);
    }

    #[test]
    fn adaptive_aging_slows_under_fruitless_bypassing() {
        let mut gc = GCache::new(&geom(2), GCacheConfig::adaptive());
        assert_eq!(gc.current_aging_period(), 1);
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        // Many bypasses, no hits: the epoch should double the period.
        let mut bypassed = 0;
        for _ in 0..10 {
            gc.on_hit(0, 0);
            gc.on_hit(0, 1);
            if gc.fill_decision(0, 0b11, &hinted()) == FillDecision::Bypass {
                bypassed += 1;
            }
        }
        assert!(bypassed > 0);
        // Force hit/bypass imbalance: clear hit counter effect by issuing
        // extra bypasses only.
        for _ in 0..50 {
            gc.on_hit(0, 0);
            gc.on_hit(0, 1);
            let _ = gc.fill_decision(0, 0b11, &hinted());
        }
        // 60 bypass attempts vs 120 hits: hits dominate -> stays at 1.
        gc.on_epoch();
        assert_eq!(gc.current_aging_period(), 1);
        // Now bypasses without hits.
        for _ in 0..40 {
            gc.table.promote(0, 0);
            gc.table.promote(0, 1);
            let _ = gc.fill_decision(0, 0b11, &hinted());
        }
        gc.on_epoch();
        assert_eq!(gc.current_aging_period(), 2, "period must double");
        // And decay back once hits dominate again.
        for _ in 0..100 {
            gc.on_hit(0, 0);
        }
        gc.on_epoch();
        assert_eq!(gc.current_aging_period(), 1, "period must decay");
    }

    #[test]
    fn adaptive_period_is_capped() {
        let mut gc = GCache::new(&geom(2), GCacheConfig::adaptive());
        gc.on_insert(0, 0, &plain());
        gc.on_insert(0, 1, &plain());
        for _ in 0..12 {
            for _ in 0..20 {
                gc.table.promote(0, 0);
                gc.table.promote(0, 1);
                let _ = gc.fill_decision(0, 0b11, &hinted());
            }
            gc.on_epoch();
        }
        assert_eq!(gc.current_aging_period(), GCacheConfig::MAX_ADAPTIVE_PERIOD);
    }

    #[test]
    fn switches_are_per_set() {
        let mut gc = GCache::with_defaults(&geom(2));
        for set in [0usize, 1] {
            gc.on_insert(set, 0, &plain());
            gc.on_insert(set, 1, &plain());
            gc.on_hit(set, 0);
            gc.on_hit(set, 1);
        }
        assert_eq!(gc.fill_decision(0, 0b11, &hinted()), FillDecision::Bypass);
        assert!(gc.switch_open(0));
        assert!(!gc.switch_open(1));
        // Set 1 with closed switch: no bypass.
        assert!(matches!(
            gc.fill_decision(1, 0b11, &plain()),
            FillDecision::Insert { .. }
        ));
    }
}
