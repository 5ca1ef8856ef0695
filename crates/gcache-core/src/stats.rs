//! Per-cache statistics: hit/miss/bypass counters and the reuse-count
//! histogram behind the paper's Figure 2.

use crate::policy::AccessKind;
use crate::record;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;
use std::ops::AddAssign;

/// Number of explicit reuse-count buckets; counts of `REUSE_BUCKETS - 1` or
/// more land in the final (saturating) bucket. Figure 2 plots buckets
/// 0, 1, 2, 3–7, ≥8; keeping 16 fine-grained buckets lets the harness
/// re-bin freely.
pub const REUSE_BUCKETS: usize = 16;

/// Histogram of per-residency reuse counts (hits a line received between
/// fill and eviction).
///
/// # Examples
///
/// ```
/// use gcache_core::stats::ReuseHistogram;
///
/// let mut h = ReuseHistogram::new();
/// h.record(0);
/// h.record(0);
/// h.record(3);
/// assert_eq!(h.total(), 3);
/// assert!((h.fraction_zero() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    buckets: [u64; REUSE_BUCKETS],
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ReuseHistogram::default()
    }

    /// Records one line residency that ended with `reuse` hits.
    pub fn record(&mut self, reuse: u32) {
        let b = (reuse as usize).min(REUSE_BUCKETS - 1);
        self.buckets[b] += 1;
    }

    /// Count in bucket `i` (`i = REUSE_BUCKETS-1` is "that many or more").
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// All buckets.
    pub fn buckets(&self) -> &[u64; REUSE_BUCKETS] {
        &self.buckets
    }

    /// Total number of residencies recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of residencies with zero reuse (the "wasted cache space" of
    /// Figure 2); 0 when nothing was recorded.
    pub fn fraction_zero(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.buckets[0] as f64 / t as f64
        }
    }

    /// Fraction of residencies with reuse count in `range` (inclusive
    /// bucket indices, clamped to the histogram).
    pub fn fraction_in(&self, lo: usize, hi: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let hi = hi.min(REUSE_BUCKETS - 1);
        let sum: u64 = self.buckets[lo..=hi].iter().sum();
        sum as f64 / t as f64
    }
}

/// Merges another histogram into this one, bucket by bucket.
impl AddAssign<&ReuseHistogram> for ReuseHistogram {
    fn add_assign(&mut self, other: &ReuseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// The buckets travel in a section of their own inside the owning
/// [`CacheStats`].
impl Codec for ReuseHistogram {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.section("reuse_hist", |w| w.put_each(&self.buckets));
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut hist = ReuseHistogram::new();
        r.section("reuse_hist", |r| r.get_each(&mut hist.buckets))?;
        Ok(hist)
    }
}

record! {
    /// Counters for a single cache. [`CacheStats::merge`] aggregates the 16
    /// per-core L1s.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Load accesses.
        pub reads: u64,
        /// Load hits.
        pub read_hits: u64,
        /// Store accesses.
        pub writes: u64,
        /// Store hits.
        pub write_hits: u64,
        /// Atomic read-modify-write accesses.
        pub atomics: u64,
        /// Atomic hits.
        pub atomic_hits: u64,
        /// Lines installed.
        pub fills: u64,
        /// Fills the policy chose to bypass.
        pub bypassed_fills: u64,
        /// Subset of `bypassed_fills` denied by the request-class bypass plane
        /// ([`crate::cache::BypassPlane`]) before the policy was consulted.
        pub plane_bypasses: u64,
        /// Valid lines displaced by fills or invalidations.
        pub evictions: u64,
        /// Evictions of dirty lines (write-backs generated).
        pub writebacks: u64,
        /// Clean evictions the copy-back plane chose to push down anyway
        /// ([`crate::cache::CopyBackPlane`], RDC-style clean copy-back).
        pub clean_copy_backs: u64,
        /// Reuse-count distribution over completed residencies.
        pub reuse: ReuseHistogram,
    }
    impl merge;
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records an access with the given kind and hit/miss outcome.
    pub fn record_access(&mut self, kind: AccessKind, hit: bool) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                if hit {
                    self.read_hits += 1;
                }
            }
            AccessKind::Write => {
                self.writes += 1;
                if hit {
                    self.write_hits += 1;
                }
            }
            AccessKind::Atomic => {
                self.atomics += 1;
                if hit {
                    self.atomic_hits += 1;
                }
            }
            // Clean copy-backs are hierarchy maintenance traffic, not
            // demand accesses: they are counted at the emitting cache via
            // `clean_copy_backs` and must not skew hit/miss rates here.
            AccessKind::CopyBack => {}
        }
    }

    /// Total accesses of all kinds.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes + self.atomics
    }

    /// Total hits of all kinds.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits + self.atomic_hits
    }

    /// Total misses of all kinds.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Miss rate over all accesses; 0 when no accesses were recorded.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }

    /// Bypassed fills as a fraction of all accesses (Table 3's "bypass
    /// ratio"); 0 when no accesses were recorded.
    pub fn bypass_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.bypassed_fills as f64 / a as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% miss, {:.1}% bypassed, {} fills, {} writebacks",
            self.accesses(),
            self.miss_rate() * 100.0,
            self.bypass_ratio() * 100.0,
            self.fills,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::assert_round_trip;

    #[test]
    fn histogram_saturates() {
        let mut h = ReuseHistogram::new();
        h.record(1000);
        h.record(REUSE_BUCKETS as u32 - 1);
        assert_eq!(h.bucket(REUSE_BUCKETS - 1), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = ReuseHistogram::new();
        for _ in 0..8 {
            h.record(0);
        }
        h.record(1);
        h.record(2);
        assert!((h.fraction_zero() - 0.8).abs() < 1e-12);
        assert!((h.fraction_in(1, 2) - 0.2).abs() < 1e-12);
        assert!((h.fraction_in(0, REUSE_BUCKETS + 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let h = ReuseHistogram::new();
        assert_eq!(h.fraction_zero(), 0.0);
        assert_eq!(h.fraction_in(0, 3), 0.0);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = ReuseHistogram::new();
        let mut b = ReuseHistogram::new();
        a.record(0);
        b.record(0);
        b.record(5);
        a += &b;
        assert_eq!(a.bucket(0), 2);
        assert_eq!(a.bucket(5), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn stats_rates() {
        let mut s = CacheStats::new();
        for i in 0..10 {
            s.record_access(AccessKind::Read, i % 2 == 0);
        }
        s.record_access(AccessKind::Write, false);
        s.record_access(AccessKind::Atomic, true);
        assert_eq!(s.accesses(), 12);
        assert_eq!(s.hits(), 6);
        assert_eq!(s.misses(), 6);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.bypass_ratio(), 0.0);
    }

    #[test]
    fn bypass_ratio_over_accesses() {
        let mut s = CacheStats::new();
        for _ in 0..10 {
            s.record_access(AccessKind::Read, false);
        }
        s.bypassed_fills = 3;
        assert!((s.bypass_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats::new();
        let mut b = CacheStats::new();
        a.record_access(AccessKind::Read, true);
        b.record_access(AccessKind::Read, false);
        b.fills = 4;
        b.writebacks = 2;
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.hits(), 1);
        assert_eq!(a.fills, 4);
        assert_eq!(a.writebacks, 2);
    }

    #[test]
    fn display_is_compact() {
        let mut s = CacheStats::new();
        s.record_access(AccessKind::Read, false);
        let d = s.to_string();
        assert!(d.contains("1 accesses"));
        assert!(d.contains("100.0% miss"));
    }

    #[test]
    fn stats_round_trip_through_a_snapshot() {
        let mut reuse = ReuseHistogram::new();
        reuse.record(0);
        reuse.record(7);
        assert_round_trip(&CacheStats {
            reads: 1,
            read_hits: 2,
            writes: 3,
            write_hits: 4,
            atomics: 5,
            atomic_hits: 6,
            fills: 7,
            bypassed_fills: 8,
            plane_bypasses: 9,
            evictions: 10,
            writebacks: 11,
            clean_copy_backs: 12,
            reuse,
        });
    }
}
