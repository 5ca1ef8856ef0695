//! Static Protection-Distance Policy with bypass (**SPDP-B**, Duong et al.
//! MICRO'12), the strongest comparison point in the paper's evaluation.
//!
//! Every line carries a *remaining protection distance* (RPD) counter, reset
//! to the protection distance `PD` on insertion and on every hit, and
//! decremented on every access to the line's set. A line is **protected**
//! while its RPD is non-zero. Replacement only ever evicts unprotected
//! lines; if every resident line is protected, the incoming fill is
//! **bypassed**.
//!
//! The static variant uses one fixed `PD` for the whole execution; the
//! paper's SPDP-B numbers use the per-benchmark *best* PD found by an
//! offline sweep (reproduced by the `table3` experiment binary).

use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Shared RPD-counter machinery used by [`StaticPdp`] and
/// [`crate::policy::pdp_dyn::DynamicPdp`].
#[derive(Clone, Debug)]
pub(crate) struct RpdTable {
    ways: usize,
    /// rpd[set*ways + way]: remaining protection distance.
    rpd: Vec<u16>,
}

impl RpdTable {
    pub(crate) fn new(geom: &CacheGeometry) -> Self {
        RpdTable {
            ways: geom.ways() as usize,
            rpd: vec![0; geom.lines() as usize],
        }
    }

    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    pub(crate) fn get(&self, set: usize, way: usize) -> u16 {
        self.rpd[set * self.ways + way]
    }

    pub(crate) fn protect(&mut self, set: usize, way: usize, pd: u16) {
        self.rpd[set * self.ways + way] = pd;
    }

    /// Ages every way of `set` by one set access.
    pub(crate) fn age(&mut self, set: usize) {
        for w in 0..self.ways {
            let i = set * self.ways + w;
            self.rpd[i] = self.rpd[i].saturating_sub(1);
        }
    }

    /// First valid way whose protection has expired, preferring the way
    /// that has been unprotected the longest is not tracked — ties break to
    /// the lowest way, which is what a priority encoder would do.
    pub(crate) fn find_unprotected(&self, set: usize, valid_mask: u64) -> Option<usize> {
        (0..self.ways).find(|&w| valid_mask & (1 << w) != 0 && self.get(set, w) == 0)
    }
}

impl Snapshot for RpdTable {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("rpd", |w| {
            w.put(&self.rpd);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("rpd", |r| r.fill(&mut self.rpd, "RPD table size"))
    }
}

/// Static PDP with bypass (paper name: **SPDP-B** when `pd` is the
/// per-benchmark optimum).
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::pdp::StaticPdp;
/// use gcache_core::policy::{AccessCtx, FillDecision, ReplacementPolicy};
/// use gcache_core::addr::{CoreId, LineAddr};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(256, 2, 128)?; // one 2-way set
/// let mut pdp = StaticPdp::new(&geom, 4);
/// let ctx = AccessCtx::plain(LineAddr::new(0), CoreId(0));
/// pdp.on_insert(0, 0, &ctx);
/// pdp.on_insert(0, 1, &ctx);
/// // Both lines freshly protected: an incoming fill bypasses.
/// assert_eq!(pdp.fill_decision(0, 0b11, &ctx), FillDecision::Bypass);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StaticPdp {
    table: RpdTable,
    pd: u16,
    bypasses: u64,
}

impl StaticPdp {
    /// Creates a static PDP policy with protection distance `pd` (in
    /// accesses to the set).
    ///
    /// # Panics
    ///
    /// Panics if `pd` is zero.
    pub fn new(geom: &CacheGeometry, pd: u16) -> Self {
        assert!(pd > 0, "protection distance must be positive");
        StaticPdp {
            table: RpdTable::new(geom),
            pd,
            bypasses: 0,
        }
    }

    /// The configured protection distance.
    pub const fn pd(&self) -> u16 {
        self.pd
    }

    /// Remaining protection distance of (set, way) — exposed for tests.
    pub fn rpd(&self, set: usize, way: usize) -> u16 {
        self.table.get(set, way)
    }
}

impl ReplacementPolicy for StaticPdp {
    fn name(&self) -> &'static str {
        "SPDP-B"
    }

    fn on_set_access(&mut self, set: usize) {
        self.table.age(set);
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.table.protect(set, way, self.pd);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        if let Some(way) = first_invalid_way(valid_mask, self.table.ways()) {
            return FillDecision::Insert { way };
        }
        match self.table.find_unprotected(set, valid_mask) {
            Some(way) => FillDecision::Insert { way },
            None => {
                self.bypasses += 1;
                FillDecision::Bypass
            }
        }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.table.protect(set, way, self.pd);
    }

    fn bypasses(&self) -> u64 {
        self.bypasses
    }
}

impl Snapshot for StaticPdp {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("spdp", |w| {
            self.table.save(w);
            w.u64(self.bypasses);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("spdp", |r| {
            self.table.restore(r)?;
            self.bypasses = r.u64()?;
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
    #[should_panic(expected = "protection distance")]
    fn rejects_zero_pd() {
        let _ = StaticPdp::new(&geom(2), 0);
    }

    #[test]
    fn insert_protects_for_pd_accesses() {
        let mut p = StaticPdp::new(&geom(2), 3);
        p.on_insert(0, 0, &ctx());
        assert_eq!(p.rpd(0, 0), 3);
        p.on_set_access(0);
        p.on_set_access(0);
        assert_eq!(p.rpd(0, 0), 1);
        p.on_set_access(0);
        assert_eq!(p.rpd(0, 0), 0);
        // Saturates at zero.
        p.on_set_access(0);
        assert_eq!(p.rpd(0, 0), 0);
    }

    #[test]
    fn hit_reprotects() {
        let mut p = StaticPdp::new(&geom(2), 3);
        p.on_insert(0, 0, &ctx());
        p.on_set_access(0);
        p.on_set_access(0);
        p.on_hit(0, 0);
        assert_eq!(p.rpd(0, 0), 3);
    }

    #[test]
    fn bypasses_while_all_protected() {
        let mut p = StaticPdp::new(&geom(2), 4);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        assert_eq!(p.fill_decision(0, 0b11, &ctx()), FillDecision::Bypass);
        assert_eq!(p.bypasses(), 1);
    }

    #[test]
    fn evicts_expired_line() {
        let mut p = StaticPdp::new(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        // Age way 0's protection away; way 1 re-protected by a hit.
        p.on_set_access(0);
        p.on_set_access(0);
        p.on_hit(0, 1);
        assert_eq!(
            p.fill_decision(0, 0b11, &ctx()),
            FillDecision::Insert { way: 0 }
        );
    }

    #[test]
    fn prefers_invalid_way() {
        let mut p = StaticPdp::new(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        assert_eq!(
            p.fill_decision(0, 0b01, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn aging_is_per_set() {
        let mut p = StaticPdp::new(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(1, 0, &ctx());
        p.on_set_access(0);
        p.on_set_access(0);
        assert_eq!(p.rpd(0, 0), 0);
        assert_eq!(p.rpd(1, 0), 2);
    }

    #[test]
    fn streaming_with_small_pd_never_bypasses() {
        // PD=1: each set access expires the previous insertion, so a pure
        // stream (no reuse) inserts every time — matching Table 3's 0 %
        // SPDP-B bypass ratio for streaming benchmarks at PD 4.
        let mut p = StaticPdp::new(&geom(4), 1);
        for i in 0..100 {
            p.on_set_access(0);
            let mask = if i < 4 { (1 << i.min(4)) - 1 } else { 0b1111 };
            match p.fill_decision(0, mask, &ctx()) {
                FillDecision::Insert { way } => p.on_insert(0, way, &ctx()),
                FillDecision::Bypass => panic!("stream bypassed at access {i}"),
            }
        }
        assert_eq!(p.bypasses(), 0);
    }
}
