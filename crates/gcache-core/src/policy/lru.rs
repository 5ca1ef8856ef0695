//! True-LRU replacement — the paper's `BS` (baseline) L1 policy.

use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Least-recently-used replacement. Never bypasses.
///
/// Recency is tracked with a per-line logical timestamp; the victim is the
/// valid line with the smallest stamp. This is true LRU (not tree-PLRU),
/// matching GPGPU-Sim's baseline L1 configuration.
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::lru::Lru;
/// use gcache_core::policy::{AccessCtx, FillDecision, ReplacementPolicy};
/// use gcache_core::addr::{CoreId, LineAddr};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(512, 2, 128)?; // 2 sets, 2 ways
/// let mut lru = Lru::new(&geom);
/// let ctx = AccessCtx::plain(LineAddr::new(0), CoreId(0));
/// // Fill both ways of set 0, touch way 0, then the victim must be way 1.
/// lru.on_insert(0, 0, &ctx);
/// lru.on_insert(0, 1, &ctx);
/// lru.on_hit(0, 0);
/// assert_eq!(lru.fill_decision(0, 0b11, &ctx), FillDecision::Insert { way: 1 });
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    /// stamp[set * ways + way] = logical time of last use.
    stamp: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates an LRU policy for the given geometry.
    pub fn new(geom: &CacheGeometry) -> Self {
        Lru {
            ways: geom.ways() as usize,
            stamp: vec![0; geom.lines() as usize],
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        let t = self.tick();
        let i = self.idx(set, way);
        self.stamp[i] = t;
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        if let Some(way) = first_invalid_way(valid_mask, self.ways) {
            return FillDecision::Insert { way };
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamp[self.idx(set, w)])
            .expect("cache has at least one way");
        FillDecision::Insert { way: victim }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        let t = self.tick();
        let i = self.idx(set, way);
        self.stamp[i] = t;
    }
}

impl Snapshot for Lru {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("lru", |w| {
            w.u64s(&self.stamp);
            w.put(&self.clock);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("lru", |r| {
            r.u64s(&mut self.stamp, "LRU stamps")?;
            self.clock = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, LineAddr};

    fn policy(ways: u32) -> Lru {
        let geom = CacheGeometry::with_sets(2, ways, 128).unwrap();
        Lru::new(&geom)
    }

    fn ctx() -> AccessCtx {
        AccessCtx::plain(LineAddr::new(0), CoreId(0))
    }

    #[test]
    fn prefers_invalid_ways_in_order() {
        let mut lru = policy(4);
        assert_eq!(
            lru.fill_decision(0, 0b0000, &ctx()),
            FillDecision::Insert { way: 0 }
        );
        assert_eq!(
            lru.fill_decision(0, 0b0101, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = policy(4);
        for w in 0..4 {
            lru.on_insert(0, w, &ctx());
        }
        // Touch ways 0, 2, 3; way 1 is now LRU.
        lru.on_hit(0, 0);
        lru.on_hit(0, 2);
        lru.on_hit(0, 3);
        assert_eq!(
            lru.fill_decision(0, 0b1111, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn insert_counts_as_use() {
        let mut lru = policy(2);
        lru.on_insert(0, 0, &ctx());
        lru.on_insert(0, 1, &ctx());
        // way 0 is older.
        assert_eq!(
            lru.fill_decision(0, 0b11, &ctx()),
            FillDecision::Insert { way: 0 }
        );
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = policy(2);
        lru.on_insert(0, 0, &ctx());
        lru.on_insert(0, 1, &ctx());
        lru.on_insert(1, 0, &ctx());
        lru.on_insert(1, 1, &ctx());
        lru.on_hit(0, 0); // does not affect set 1
        assert_eq!(
            lru.fill_decision(1, 0b11, &ctx()),
            FillDecision::Insert { way: 0 }
        );
        assert_eq!(
            lru.fill_decision(0, 0b11, &ctx()),
            FillDecision::Insert { way: 1 }
        );
    }

    #[test]
    fn never_bypasses() {
        let mut lru = policy(2);
        lru.on_insert(0, 0, &ctx());
        lru.on_insert(0, 1, &ctx());
        for _ in 0..100 {
            assert!(matches!(
                lru.fill_decision(0, 0b11, &ctx()),
                FillDecision::Insert { .. }
            ));
        }
    }
}
