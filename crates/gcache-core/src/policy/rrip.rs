//! Re-Reference Interval Prediction (RRIP, Jaleel et al. ISCA'10).
//!
//! The paper's `BS-S` design is the baseline with a 3-bit SRRIP L1
//! replacement policy; G-Cache builds its hotness test on the same RRPV
//! state, so the RRPV table is factored out as [`RrpvTable`] and shared.

use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// How RRIP assigns the RRPV of a newly inserted line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertionMode {
    /// Static RRIP: every insertion predicts a *long* re-reference interval
    /// (RRPV = max − 1).
    Long,
    /// Bimodal RRIP: insertions predict a *distant* interval (RRPV = max)
    /// except every `period`-th insertion, which predicts long. Implemented
    /// with a deterministic counter for reproducibility.
    Bimodal {
        /// Every `period`-th insertion is long; the rest are distant.
        period: u32,
    },
}

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

/// SRRIP / BRRIP replacement. Never bypasses — this is the paper's `BS-S`
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
    mode: InsertionMode,
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
            mode: InsertionMode::Long,
            insertions: 0,
        }
    }

    /// Bimodal RRIP: distant insertion except every `period`-th fill.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=7` or `period` is 0.
    pub fn brrip(geom: &CacheGeometry, bits: u8, period: u32) -> Self {
        assert!(period > 0, "bimodal period must be positive");
        RrpvTable::new(geom, bits); // validate bits early
        Rrip {
            table: RrpvTable::new(geom, bits),
            mode: InsertionMode::Bimodal { period },
            insertions: 0,
        }
    }

    /// Read access to the underlying RRPV table (useful in tests/benches).
    pub fn table(&self) -> &RrpvTable {
        &self.table
    }

    fn insertion_rrpv(&mut self) -> u8 {
        self.insertions += 1;
        match self.mode {
            InsertionMode::Long => self.table.max() - 1,
            InsertionMode::Bimodal { period } => {
                if self.insertions.is_multiple_of(period as u64) {
                    self.table.max() - 1
                } else {
                    self.table.max()
                }
            }
        }
    }
}

impl ReplacementPolicy for Rrip {
    fn name(&self) -> &'static str {
        match self.mode {
            InsertionMode::Long => "SRRIP",
            InsertionMode::Bimodal { .. } => "BRRIP",
        }
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
        let rrpv = self.insertion_rrpv();
        self.table.set(set, way, rrpv);
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

/// Dynamic RRIP with set dueling (Jaleel ISCA'10 §4) — an extension beyond
/// the paper's evaluation, included for completeness of the RRIP family.
///
/// A few *leader sets* always insert SRRIP-style, another few always
/// BRRIP-style; a saturating policy-selection counter (`PSEL`) tracks
/// which leaders miss less and steers all follower sets.
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::rrip::Drrip;
/// use gcache_core::policy::ReplacementPolicy;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(32 * 1024, 4, 128)?;
/// let drrip = Drrip::new(&geom, 3);
/// assert_eq!(drrip.name(), "DRRIP");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Drrip {
    table: RrpvTable,
    sets: usize,
    /// Saturating counter; high = BRRIP winning.
    psel: i32,
    psel_max: i32,
    brrip_tick: u64,
}

/// Leader-set spacing: every 32nd set leads for SRRIP, the next one for
/// BRRIP.
const DUEL_STRIDE: usize = 32;

impl Drrip {
    /// Creates a DRRIP policy with `bits`-bit RRPVs.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=7`.
    pub fn new(geom: &CacheGeometry, bits: u8) -> Self {
        Drrip {
            table: RrpvTable::new(geom, bits),
            sets: geom.sets() as usize,
            psel: 0,
            psel_max: 512,
            brrip_tick: 0,
        }
    }

    fn leader_kind(&self, set: usize) -> Option<bool> {
        // Some(false) = SRRIP leader, Some(true) = BRRIP leader.
        match set % DUEL_STRIDE {
            0 => Some(false),
            1 if self.sets > 1 => Some(true),
            _ => None,
        }
    }

    /// Whether followers currently use BRRIP insertion.
    pub fn brrip_selected(&self) -> bool {
        self.psel < 0
    }

    /// The policy-selection counter (positive = SRRIP leaders missing more).
    pub const fn psel(&self) -> i32 {
        self.psel
    }

    fn use_brrip(&self, set: usize) -> bool {
        match self.leader_kind(set) {
            Some(kind) => kind,
            None => self.brrip_selected(),
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "DRRIP"
    }

    fn on_set_access(&mut self, _set: usize) {}

    fn on_hit(&mut self, set: usize, way: usize) {
        self.table.promote(set, way);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        // A fill means the access missed: leaders vote. An SRRIP-leader
        // miss nudges towards BRRIP and vice versa.
        match self.leader_kind(set) {
            Some(false) => self.psel = (self.psel - 1).max(-self.psel_max),
            Some(true) => self.psel = (self.psel + 1).min(self.psel_max),
            None => {}
        }
        if let Some(way) = first_invalid_way(valid_mask, self.table.ways()) {
            return FillDecision::Insert { way };
        }
        let way = self
            .table
            .find_victim(set, valid_mask)
            .expect("set is full");
        FillDecision::Insert { way }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        let rrpv = if self.use_brrip(set) {
            self.brrip_tick += 1;
            if self.brrip_tick.is_multiple_of(32) {
                self.table.max() - 1
            } else {
                self.table.max()
            }
        } else {
            self.table.max() - 1
        };
        self.table.set(set, way, rrpv);
    }
}

impl Snapshot for Drrip {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("drrip", |w| {
            self.table.save(w);
            w.i32(self.psel);
            w.u64(self.brrip_tick);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("drrip", |r| {
            self.table.restore(r)?;
            self.psel = r.i32()?;
            self.brrip_tick = r.u64()?;
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

    #[test]
    fn brrip_mostly_distant() {
        let g = geom(2);
        let mut p = Rrip::brrip(&g, 3, 32);
        let mut distant = 0;
        let mut long = 0;
        for _ in 0..64 {
            p.on_insert(0, 0, &ctx());
            match p.table().get(0, 0) {
                7 => distant += 1,
                6 => long += 1,
                v => panic!("unexpected insertion RRPV {v}"),
            }
        }
        assert_eq!(long, 2);
        assert_eq!(distant, 62);
        assert_eq!(p.name(), "BRRIP");
    }

    #[test]
    #[should_panic(expected = "bimodal period")]
    fn brrip_rejects_zero_period() {
        let _ = Rrip::brrip(&geom(2), 3, 0);
    }

    #[test]
    fn drrip_leaders_steer_psel() {
        // 64 sets: set 0 leads SRRIP, set 1 leads BRRIP.
        let g = CacheGeometry::with_sets(64, 4, 128).unwrap();
        let mut d = Drrip::new(&g, 3);
        assert!(!d.brrip_selected());
        // Misses in the SRRIP leader push PSEL negative -> BRRIP selected.
        for _ in 0..10 {
            let _ = d.fill_decision(0, 0b1111, &ctx());
        }
        assert!(d.psel() < 0);
        assert!(d.brrip_selected());
        // Misses in the BRRIP leader pull it back.
        for _ in 0..20 {
            let _ = d.fill_decision(1, 0b1111, &ctx());
        }
        assert!(d.psel() > 0);
        assert!(!d.brrip_selected());
    }

    #[test]
    fn drrip_followers_obey_selection() {
        let g = CacheGeometry::with_sets(64, 4, 128).unwrap();
        let mut d = Drrip::new(&g, 3);
        // Follower set 5 under SRRIP selection: long insertion (max-1).
        d.on_insert(5, 0, &ctx());
        assert_eq!(d.table.get(5, 0), 6);
        // Flip to BRRIP and insert many times: mostly distant (max).
        for _ in 0..10 {
            let _ = d.fill_decision(0, 0b1111, &ctx());
        }
        let mut distant = 0;
        for _ in 0..31 {
            d.on_insert(5, 0, &ctx());
            if d.table.get(5, 0) == 7 {
                distant += 1;
            }
        }
        assert!(
            distant >= 29,
            "BRRIP insertion must be mostly distant, got {distant}"
        );
    }

    #[test]
    fn drrip_leader_sets_never_flip_insertion() {
        let g = CacheGeometry::with_sets(64, 4, 128).unwrap();
        let mut d = Drrip::new(&g, 3);
        // SRRIP leader (set 32): always long regardless of PSEL.
        for _ in 0..50 {
            let _ = d.fill_decision(0, 0b1111, &ctx());
        }
        d.on_insert(32, 0, &ctx());
        assert_eq!(d.table.get(32, 0), 6);
    }
}
