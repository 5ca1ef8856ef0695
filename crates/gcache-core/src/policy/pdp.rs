//! The Protection-Distance Policy with bypass (Duong et al. MICRO'12), the
//! strongest comparison point in the paper's evaluation.
//!
//! Every line carries a *remaining protection distance* (RPD) counter, reset
//! to the protection distance `PD` on insertion and on every hit, and
//! decremented on every access to the line's set. A line is **protected**
//! while its RPD is non-zero. Replacement only ever evicts unprotected
//! lines; if every resident line is protected, the incoming fill is
//! **bypassed**.
//!
//! One mechanism, two ways to choose `PD`:
//!
//! * [`Pdp::fixed`] keeps one `PD` for the whole execution (**SPDP-B**);
//!   the paper's numbers use the per-benchmark *best* PD found by an
//!   offline sweep (reproduced by the `table3` experiment binary);
//! * [`Pdp::estimated`] re-estimates `PD` every epoch from sampled reuse
//!   distances (**PDP-3** / **PDP-8**, see [`crate::policy::pdp_dyn`]).

use super::pdp_dyn::{DynamicPdpConfig, Estimator, INITIAL_PD};
use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// The protection-distance policy (paper names: **SPDP-B** with a fixed
/// distance, **PDP-3** / **PDP-8** with an estimated one).
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::pdp::Pdp;
/// use gcache_core::policy::pdp_dyn::DynamicPdpConfig;
/// use gcache_core::policy::{AccessCtx, FillDecision, ReplacementPolicy};
/// use gcache_core::addr::{CoreId, LineAddr};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(256, 2, 128)?; // one 2-way set
/// let mut pdp = Pdp::fixed(&geom, 4);
/// let ctx = AccessCtx::plain(LineAddr::new(0), CoreId(0));
/// pdp.on_insert(0, 0, &ctx);
/// pdp.on_insert(0, 1, &ctx);
/// // Both lines freshly protected: an incoming fill bypasses.
/// assert_eq!(pdp.fill_decision(0, 0b11, &ctx), FillDecision::Bypass);
///
/// let pdp3 = Pdp::estimated(&geom, DynamicPdpConfig::pdp3());
/// assert_eq!(pdp3.name(), "PDP-3");
/// assert_eq!(pdp3.pd(), 4); // initial PD before the first estimation
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Pdp {
    ways: usize,
    /// rpd[set*ways + way]: remaining protection distance.
    rpd: Vec<u16>,
    /// The protection distance in force.
    pd: u16,
    /// Re-estimates `pd` every epoch; `None` keeps it fixed.
    estimator: Option<Estimator>,
}

impl Pdp {
    /// SPDP-B: protection distance `pd` (in accesses to the set) for the
    /// whole execution.
    ///
    /// # Panics
    ///
    /// Panics if `pd` is zero.
    pub fn fixed(geom: &CacheGeometry, pd: u16) -> Self {
        assert!(pd > 0, "protection distance must be positive");
        Pdp::with(geom, pd, None)
    }

    /// PDP-3 / PDP-8: the distance starts at 4 and is
    /// re-estimated every epoch, capped by `cfg`'s counter width.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.counter_bits` is outside `1..=15` or cannot hold the
    /// initial distance.
    pub fn estimated(geom: &CacheGeometry, cfg: DynamicPdpConfig) -> Self {
        Pdp::with(geom, INITIAL_PD, Some(Estimator::new(geom, cfg)))
    }

    fn with(geom: &CacheGeometry, pd: u16, estimator: Option<Estimator>) -> Self {
        Pdp {
            ways: geom.ways() as usize,
            rpd: vec![0; geom.lines() as usize],
            pd,
            estimator,
        }
    }

    /// The protection distance currently in force.
    pub const fn pd(&self) -> u16 {
        self.pd
    }

    /// Remaining protection distance of (set, way).
    #[cfg(test)]
    fn rpd(&self, set: usize, way: usize) -> u16 {
        self.rpd[set * self.ways + way]
    }

    fn protect(&mut self, set: usize, way: usize) {
        self.rpd[set * self.ways + way] = self.pd;
    }
}

impl ReplacementPolicy for Pdp {
    fn name(&self) -> &'static str {
        self.estimator.as_ref().map_or("SPDP-B", Estimator::name)
    }

    fn on_access(&mut self, set: usize, tag: u64) {
        for r in &mut self.rpd[set * self.ways..(set + 1) * self.ways] {
            *r = r.saturating_sub(1);
        }
        if let Some(e) = &mut self.estimator {
            e.sample(set, tag);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.protect(set, way);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        if let Some(way) = first_invalid_way(valid_mask, self.ways) {
            return FillDecision::Insert { way };
        }
        // The first valid way whose protection has expired; ties break to
        // the lowest way, as a priority encoder would.
        let rpd = &self.rpd[set * self.ways..(set + 1) * self.ways];
        match (0..self.ways).find(|&w| valid_mask & (1 << w) != 0 && rpd[w] == 0) {
            Some(way) => FillDecision::Insert { way },
            None => FillDecision::Bypass,
        }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.protect(set, way);
    }

    fn on_epoch(&mut self) {
        if let Some(e) = &mut self.estimator {
            self.pd = e.estimate();
        }
    }
}

/// The section carries whether the distance is estimated and the distance
/// in force, so a snapshot restores only into a policy of its own kind: a
/// fixed distance into the same fixed distance, an estimated one into an
/// estimated one.
impl Snapshot for Pdp {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("pdp", |w| {
            w.put(&self.rpd);
            w.put(&(self.estimator.is_some(), self.pd));
            if let Some(e) = &self.estimator {
                e.save(w);
            }
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("pdp", |r| {
            r.fill(&mut self.rpd, "RPD table size")?;
            let (estimated, pd): (bool, u16) = r.get()?;
            if estimated != self.estimator.is_some() || (!estimated && pd != self.pd) {
                let saved = if estimated { "estimated" } else { "fixed" };
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "protection distance ({saved} {pd} saved, {} built)",
                        self.name()
                    ),
                });
            }
            self.pd = pd;
            match &mut self.estimator {
                Some(e) => e.restore(r),
                None => Ok(()),
            }
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
        let _ = Pdp::fixed(&geom(2), 0);
    }

    #[test]
    fn insert_protects_for_pd_accesses() {
        let mut p = Pdp::fixed(&geom(2), 3);
        p.on_insert(0, 0, &ctx());
        assert_eq!(p.rpd(0, 0), 3);
        p.on_access(0, 0);
        p.on_access(0, 0);
        assert_eq!(p.rpd(0, 0), 1);
        p.on_access(0, 0);
        assert_eq!(p.rpd(0, 0), 0);
        // Saturates at zero.
        p.on_access(0, 0);
        assert_eq!(p.rpd(0, 0), 0);
    }

    #[test]
    fn hit_reprotects() {
        let mut p = Pdp::fixed(&geom(2), 3);
        p.on_insert(0, 0, &ctx());
        p.on_access(0, 0);
        p.on_access(0, 0);
        p.on_hit(0, 0);
        assert_eq!(p.rpd(0, 0), 3);
    }

    #[test]
    fn bypasses_while_all_protected() {
        let mut p = Pdp::fixed(&geom(2), 4);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        assert_eq!(p.fill_decision(0, 0b11, &ctx()), FillDecision::Bypass);
    }

    #[test]
    fn evicts_expired_line() {
        let mut p = Pdp::fixed(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        // Age way 0's protection away; way 1 re-protected by a hit.
        p.on_access(0, 0);
        p.on_access(0, 0);
        p.on_hit(0, 1);
        assert_eq!(
            p.fill_decision(0, 0b11, &ctx()),
            FillDecision::Insert { way: 0 }
        );
    }

    #[test]
    fn prefers_invalid_way() {
        let mut p = Pdp::fixed(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        assert_eq!(
            p.fill_decision(0, 0b01, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn aging_is_per_set() {
        let mut p = Pdp::fixed(&geom(2), 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(1, 0, &ctx());
        p.on_access(0, 0);
        p.on_access(0, 0);
        assert_eq!(p.rpd(0, 0), 0);
        assert_eq!(p.rpd(1, 0), 2);
    }

    #[test]
    fn streaming_with_small_pd_never_bypasses() {
        // PD=1: each set access expires the previous insertion, so a pure
        // stream (no reuse) inserts every time — matching Table 3's 0 %
        // SPDP-B bypass ratio for streaming benchmarks at PD 4.
        let mut p = Pdp::fixed(&geom(4), 1);
        for i in 0..100 {
            p.on_access(0, 0);
            let mask = if i < 4 { (1 << i.min(4)) - 1 } else { 0b1111 };
            match p.fill_decision(0, mask, &ctx()) {
                FillDecision::Insert { way } => p.on_insert(0, way, &ctx()),
                FillDecision::Bypass => panic!("stream bypassed at access {i}"),
            }
        }
    }
}
