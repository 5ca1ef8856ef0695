//! Randomised-property tests pitting the production cache substrate
//! against simple reference models over seeded random access streams
//! (dependency-free [`gcache_core::rng::SmallRng`], exact reproduction).

use gcache::prelude::*;
use gcache_core::geometry::CacheGeometry;
use gcache_core::rng::SmallRng;
use std::collections::VecDeque;

const CASES: u64 = 64;

/// A straightforward reference LRU cache: per-set deque of line addresses,
/// most recent first.
struct RefLru {
    geom: CacheGeometry,
    sets: Vec<VecDeque<u64>>,
}

impl RefLru {
    fn new(geom: CacheGeometry) -> Self {
        RefLru {
            geom,
            sets: vec![VecDeque::new(); geom.sets() as usize],
        }
    }

    /// Returns hit/miss and performs the LRU update + fill.
    fn access(&mut self, line: LineAddr) -> bool {
        let set = self.geom.set_of(line);
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&l| l == line.raw()) {
            q.remove(pos);
            q.push_front(line.raw());
            true
        } else {
            q.push_front(line.raw());
            q.truncate(self.geom.ways() as usize);
            false
        }
    }
}

fn small_geom() -> CacheGeometry {
    CacheGeometry::new(2048, 4, 128).unwrap() // 4 sets, 4 ways
}

/// The production Cache under LRU, driven access+fill-on-miss, must agree
/// hit-for-hit with the reference model.
#[test]
fn lru_cache_matches_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2001 ^ case);
        let n = rng.gen_range(1..400) as usize;
        let lines: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let geom = small_geom();
        let mut dut = Cache::new(CacheConfig::l1(geom, 0), Lru::new(&geom));
        let mut reference = RefLru::new(geom);
        for (i, &raw) in lines.iter().enumerate() {
            let line = LineAddr::new(raw);
            let dut_hit = dut.access(line, AccessKind::Read, CoreId(0)).is_hit();
            if !dut_hit {
                dut.fill(AccessCtx::plain(line, CoreId(0)), false);
            }
            let ref_hit = reference.access(line);
            assert_eq!(
                dut_hit, ref_hit,
                "case {case}: divergence at access {i} (line {raw:#x})"
            );
        }
        // Stats agree with the replay.
        assert_eq!(dut.stats().accesses(), lines.len() as u64, "case {case}");
    }
}

/// Under any policy, a cache never reports more hits than accesses and
/// never holds more lines than its capacity; flush returns the cache to
/// empty.
#[test]
fn cache_global_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2002 ^ case);
        let geom = small_geom();
        let policy: PolicyKind = match rng.gen_range(0..4) {
            0 => Lru::new(&geom).into(),
            1 => Rrip::srrip(&geom, 3).into(),
            2 => GCache::with_defaults(&geom).into(),
            _ => StaticPdp::new(&geom, 5).into(),
        };
        let mut dut = Cache::new(CacheConfig::l1(geom, 64), policy);
        let n = rng.gen_range(1..300) as usize;
        for _ in 0..n {
            let line = LineAddr::new(rng.gen_range(0..128));
            if !dut.access(line, AccessKind::Read, CoreId(0)).is_hit() {
                let hint = rng.gen_bool(0.5);
                dut.fill(
                    AccessCtx {
                        line,
                        core: CoreId(0),
                        victim_hint: hint,
                        class: None,
                    },
                    false,
                );
            }
            assert!(dut.occupancy() <= geom.lines() as usize, "case {case}");
        }
        let s = dut.stats();
        assert!(s.hits() <= s.accesses(), "case {case}");
        assert!(s.fills + s.bypassed_fills <= s.accesses(), "case {case}");
        dut.flush();
        assert_eq!(dut.occupancy(), 0, "case {case}");
        // After a flush every residency is accounted in the reuse histogram.
        assert_eq!(dut.stats().reuse.total(), dut.stats().fills, "case {case}");
    }
}

/// A bypassing policy must never bypass when the set has free space.
#[test]
fn no_bypass_with_free_ways() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2003 ^ case);
        let geom = CacheGeometry::new(1024, 4, 128).unwrap(); // 2 sets
        let mut dut = Cache::new(CacheConfig::l1(geom, 0), StaticPdp::new(&geom, 16));
        let n = rng.gen_range(1..64) as usize;
        for _ in 0..n {
            let raw = rng.gen_range(0..16);
            let line = LineAddr::new(raw);
            let set = geom.set_of(line);
            let free_before =
                (0..geom.ways() as usize).count() > dut_occupancy_of_set(&dut, set, geom);
            if !dut.access(line, AccessKind::Read, CoreId(0)).is_hit() {
                let out = dut.fill(AccessCtx::plain(line, CoreId(0)), false);
                if free_before
                    && dut_occupancy_of_set(&dut, set, geom) < geom.ways() as usize
                    && out.bypassed
                {
                    panic!("case {case}: bypassed with a free way available");
                }
            }
        }
    }
}

/// MSHR files conserve targets: everything allocated is returned by
/// completions, in order, exactly once.
#[test]
fn mshr_conserves_targets() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2004 ^ case);
        let n = rng.gen_range(1..200) as usize;
        let mut mshr: MshrFile<usize> = MshrFile::new(4, 4);
        let mut outstanding: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        let mut returned = 0usize;
        let mut accepted = 0usize;
        for i in 0..n {
            let line = rng.gen_range(0..8);
            if rng.gen_bool(0.5) {
                let got = mshr.complete(LineAddr::new(line));
                let expect = outstanding.remove(&line);
                assert_eq!(got.clone(), expect, "case {case}");
                returned += got.map_or(0, |v| v.len());
            } else if mshr.allocate(LineAddr::new(line), i).is_ok() {
                outstanding.entry(line).or_default().push(i);
                accepted += 1;
            }
        }
        // Drain the rest, by the model's outstanding lines: the file must
        // hold exactly those.
        for (line, expect) in outstanding.drain() {
            let got = mshr.complete(LineAddr::new(line));
            assert_eq!(got.as_ref(), Some(&expect), "case {case}");
            returned += expect.len();
        }
        assert_eq!(returned, accepted, "case {case}");
        assert!(mshr.is_empty(), "case {case}");
        assert!(outstanding.is_empty(), "case {case}");
    }
}

fn dut_occupancy_of_set(dut: &Cache, set: usize, geom: CacheGeometry) -> usize {
    // Count occupancy of one set by probing all possible lines of that set
    // in the small test universe.
    (0u64..16)
        .filter(|&raw| geom.set_of(LineAddr::new(raw)) == set && dut.contains(LineAddr::new(raw)))
        .count()
}
