//! Re-Reference Interval Prediction (RRIP, Jaleel et al. ISCA'10).
//!
//! The paper's `BS-S` design is the baseline with a 3-bit SRRIP L1
//! replacement policy; G-Cache builds its hotness test on the same RRPV
//! state, so the RRPV table is factored out as [`RrpvTable`] and shared.

use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// The per-line RRPV state shared by [`Rrip`] and
/// [`crate::policy::gcache::GCache`].
#[derive(Clone, Debug)]
pub struct RrpvTable {
    ways: usize,
    max: u8,
    rrpv: Vec<u8>,
}

impl RrpvTable {
    /// Creates a table of `bits`-bit RRPVs, all initialised to the distant
    /// value (matching hardware reset of an empty cache).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn new(geom: &CacheGeometry, bits: u8) -> Self {
        assert!(
            (1..=7).contains(&bits),
            "RRPV width must be 1..=7 bits, got {bits}"
        );
        let max = (1u8 << bits) - 1;
        RrpvTable {
            ways: geom.ways() as usize,
            max,
            rrpv: vec![max; geom.lines() as usize],
        }
    }

    /// The maximum (distant) RRPV value, `2^bits − 1`.
    pub const fn max(&self) -> u8 {
        self.max
    }

    /// Associativity the table was sized for.
    pub const fn ways(&self) -> usize {
        self.ways
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Current RRPV of (set, way).
    pub fn get(&self, set: usize, way: usize) -> u8 {
        self.rrpv[self.idx(set, way)]
    }

    /// Overwrites the RRPV of (set, way).
    pub fn set(&mut self, set: usize, way: usize, value: u8) {
        debug_assert!(value <= self.max);
        let i = self.idx(set, way);
        self.rrpv[i] = value;
    }

    /// Hit promotion: RRPV ← 0 (the "hit priority" variant used by SRRIP).
    pub fn promote(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = 0;
    }

    /// Increments the RRPV of every *valid* way in `set`, saturating at max.
    ///
    /// G-Cache calls this on every bypass to age resident "hot" lines.
    pub fn age_set(&mut self, set: usize, valid_mask: u64) {
        for w in 0..self.ways {
            if valid_mask & (1 << w) != 0 {
                let i = self.idx(set, w);
                if self.rrpv[i] < self.max {
                    self.rrpv[i] += 1;
                }
            }
        }
    }

    /// SRRIP victim search over the valid ways of `set`: find a way with
    /// RRPV = max, ageing the whole set until one appears. Lowest way wins
    /// ties. Returns `None` when `valid_mask` is empty.
    pub fn find_victim(&mut self, set: usize, valid_mask: u64) -> Option<usize> {
        if valid_mask == 0 {
            return None;
        }
        loop {
            for w in 0..self.ways {
                if valid_mask & (1 << w) != 0 && self.get(set, w) == self.max {
                    return Some(w);
                }
            }
            for w in 0..self.ways {
                if valid_mask & (1 << w) != 0 {
                    let i = self.idx(set, w);
                    self.rrpv[i] += 1;
                }
            }
        }
    }

    /// The valid way with the largest RRPV (ties → lowest way), *without*
    /// ageing the set. G-Cache uses this for its insertions: resident
    /// lines' absolute hotness (`RRPV < TH_hot`) must survive a fill —
    /// SRRIP's age-until-distant loop would saturate every RRPV and erase
    /// the information the bypass test depends on. Ageing in G-Cache comes
    /// from bypasses instead (§4.2).
    pub fn find_coldest(&self, set: usize, valid_mask: u64) -> Option<usize> {
        (0..self.ways)
            .filter(|&w| valid_mask & (1 << w) != 0)
            .max_by_key(|&w| (self.get(set, w), std::cmp::Reverse(w)))
    }

    /// Whether every valid way of `set` has RRPV strictly below `threshold`
    /// (G-Cache's "all resident lines are hot" test). Vacuously false when
    /// no line is valid.
    pub fn all_below(&self, set: usize, valid_mask: u64, threshold: u8) -> bool {
        if valid_mask == 0 {
            return false;
        }
        (0..self.ways)
            .filter(|&w| valid_mask & (1 << w) != 0)
            .all(|w| self.get(set, w) < threshold)
    }
}

impl Snapshot for RrpvTable {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("rrpv", |w| {
            w.u8s(self.rrpv.iter().copied());
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("rrpv", |r| {
            let bytes = r.u8s(self.rrpv.len(), "RRPV table size")?;
            let max = self.max;
            for (slot, &b) in self.rrpv.iter_mut().zip(bytes) {
                if b > max {
                    return Err(SnapshotError::BadValue {
                        what: "RRPV".to_string(),
                        value: b as u64,
                    });
                }
                *slot = b;
            }
            Ok(())
        })
    }
}

/// SRRIP replacement: every insertion predicts a *long* re-reference
/// interval (RRPV = max − 1). Never bypasses — this is the paper's `BS-S`
/// when configured as `Rrip::srrip(&geom, 3)`.
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::rrip::Rrip;
/// use gcache_core::policy::ReplacementPolicy;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(32 * 1024, 4, 128)?;
/// let srrip = Rrip::srrip(&geom, 3);
/// assert_eq!(srrip.name(), "SRRIP");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Rrip {
    table: RrpvTable,
    /// Fills so far. Nothing reads it; it is counted because the
    /// snapshot format has carried it since version 1.
    insertions: u64,
}

impl Rrip {
    /// Static RRIP with `bits`-bit RRPVs (the paper uses 3).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=7`.
    pub fn srrip(geom: &CacheGeometry, bits: u8) -> Self {
        Rrip {
            table: RrpvTable::new(geom, bits),
            insertions: 0,
        }
    }

    /// Read access to the underlying RRPV table (useful in tests/benches).
    pub fn table(&self) -> &RrpvTable {
        &self.table
    }
}

impl ReplacementPolicy for Rrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.table.promote(set, way);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        if let Some(way) = first_invalid_way(valid_mask, self.table.ways()) {
            return FillDecision::Insert { way };
        }
        let way = self
            .table
            .find_victim(set, valid_mask)
            .expect("set is full, victim exists");
        FillDecision::Insert { way }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.insertions += 1;
        self.table.set(set, way, self.table.max() - 1);
    }
}

impl Snapshot for Rrip {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("srrip", |w| {
            self.table.save(w);
            w.u64(self.insertions);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("srrip", |r| {
            self.table.restore(r)?;
            self.insertions = r.u64()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, LineAddr};

    fn geom(ways: u32) -> CacheGeometry {
        CacheGeometry::with_sets(2, ways, 128).unwrap()
    }

    fn ctx() -> AccessCtx {
        AccessCtx::plain(LineAddr::new(0), CoreId(0))
    }

    #[test]
    fn table_rejects_bad_widths() {
        let g = geom(4);
        assert!(std::panic::catch_unwind(|| RrpvTable::new(&g, 0)).is_err());
        assert!(std::panic::catch_unwind(|| RrpvTable::new(&g, 8)).is_err());
        assert_eq!(RrpvTable::new(&g, 3).max(), 7);
        assert_eq!(RrpvTable::new(&g, 2).max(), 3);
    }

    #[test]
    fn promote_and_age() {
        let g = geom(4);
        let mut t = RrpvTable::new(&g, 3);
        t.set(0, 1, 3);
        t.promote(0, 1);
        assert_eq!(t.get(0, 1), 0);
        t.age_set(0, 0b0010);
        assert_eq!(t.get(0, 1), 1);
        // Ageing saturates at max.
        for _ in 0..20 {
            t.age_set(0, 0b0010);
        }
        assert_eq!(t.get(0, 1), 7);
    }

    #[test]
    fn age_skips_invalid_ways() {
        let g = geom(2);
        let mut t = RrpvTable::new(&g, 3);
        t.set(0, 0, 0);
        t.set(0, 1, 0);
        t.age_set(0, 0b01);
        assert_eq!(t.get(0, 0), 1);
        assert_eq!(t.get(0, 1), 0);
    }

    #[test]
    fn victim_search_ages_until_distant() {
        let g = geom(4);
        let mut t = RrpvTable::new(&g, 3);
        for w in 0..4 {
            t.set(0, w, 2);
        }
        t.set(0, 2, 5);
        // way 2 reaches max (7) after 2 increments; others reach 4.
        assert_eq!(t.find_victim(0, 0b1111), Some(2));
        assert_eq!(t.get(0, 0), 4);
        assert_eq!(t.get(0, 2), 7);
    }

    #[test]
    fn victim_search_lowest_way_ties() {
        let g = geom(4);
        let mut t = RrpvTable::new(&g, 3);
        for w in 0..4 {
            t.set(0, w, 7);
        }
        assert_eq!(t.find_victim(0, 0b1111), Some(0));
    }

    #[test]
    fn victim_search_empty_mask() {
        let g = geom(4);
        let mut t = RrpvTable::new(&g, 3);
        assert_eq!(t.find_victim(0, 0), None);
    }

    #[test]
    fn all_below_hotness_test() {
        let g = geom(2);
        let mut t = RrpvTable::new(&g, 3);
        t.set(0, 0, 1);
        t.set(0, 1, 1);
        assert!(t.all_below(0, 0b11, 2));
        t.set(0, 1, 2);
        assert!(!t.all_below(0, 0b11, 2));
        // Only checks valid ways.
        assert!(t.all_below(0, 0b01, 2));
        // Vacuously false on empty set.
        assert!(!t.all_below(0, 0, 2));
    }

    #[test]
    fn srrip_inserts_long() {
        let g = geom(2);
        let mut p = Rrip::srrip(&g, 3);
        p.on_insert(0, 0, &ctx());
        assert_eq!(p.table().get(0, 0), 6); // max-1 for 3 bits
    }

    #[test]
    fn srrip_hit_promotes_to_zero() {
        let g = geom(2);
        let mut p = Rrip::srrip(&g, 3);
        p.on_insert(0, 0, &ctx());
        p.on_hit(0, 0);
        assert_eq!(p.table().get(0, 0), 0);
    }

    #[test]
    fn srrip_prefers_invalid() {
        let g = geom(2);
        let mut p = Rrip::srrip(&g, 3);
        assert_eq!(
            p.fill_decision(0, 0b01, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn srrip_protects_reused_line() {
        let g = geom(2);
        let mut p = Rrip::srrip(&g, 3);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        p.on_hit(0, 0); // way 0 hot (RRPV 0), way 1 at 6
        let d = p.fill_decision(0, 0b11, &ctx());
        assert_eq!(d, FillDecision::Insert { way: 1 });
    }
}
