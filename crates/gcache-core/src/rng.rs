//! Small deterministic PRNG used by the synthetic workloads and the
//! randomised tests.
//!
//! The build environment is offline, so instead of depending on an
//! external `rand` crate the workspace vendors the only generator it
//! needs: xoshiro256** seeded through SplitMix64 — the same construction
//! `rand`'s `SmallRng` uses on 64-bit targets. Everything here is fully
//! deterministic: the same seed always yields the same stream, on every
//! platform, which is what makes simulation results reproducible and
//! lets the parallel sweep engine guarantee bit-identical output.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::ops::Range;

/// A small, fast, deterministic generator (xoshiro256**).
///
/// Not cryptographically secure — statistical quality only, which is all
/// address-stream synthesis and property tests need.
///
/// # Examples
///
/// ```
/// use gcache_core::rng::SmallRng;
///
/// let mut a = SmallRng::seed_from_u64(42);
/// let mut b = SmallRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64 step: the standard seed expander for xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SmallRng {
    /// Builds a generator from a 64-bit seed, expanding it into the full
    /// 256-bit state with SplitMix64 (so nearby seeds give uncorrelated
    /// streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// A uniform draw from `range` (half-open). Uses the widening-multiply
    /// reduction; the bias is < 2⁻⁶⁴ · span, far below anything the
    /// synthetic workloads could observe.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = range.end - range.start;
        range.start + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        // 53 uniform mantissa bits, same construction as a uniform f64 draw.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl Snapshot for SmallRng {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("rng", |w| w.put_each(&self.s));
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("rng", |r| r.get_each(&mut self.s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_resumes_the_stream() {
        let mut a = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            a.next_u64();
        }
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        let bytes = w.finish();
        let mut b = SmallRng::seed_from_u64(0);
        b.restore(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10..17);
            assert!((10..17).contains(&v));
        }
        // Single-element range is a constant.
        assert_eq!(r.gen_range(5..6), 5);
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.gen_range(0..4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(0).gen_range(4..4);
    }
}
