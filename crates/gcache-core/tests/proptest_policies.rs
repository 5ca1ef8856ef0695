//! Randomised-property tests of the policy layer: structural invariants
//! that must hold for every policy under arbitrary access/fill
//! interleavings.
//!
//! Each test replays a fixed number of seeded random cases through the
//! dependency-free [`gcache_core::rng::SmallRng`], so failures reproduce
//! exactly (the offending case index is part of the assertion message).

use gcache_core::addr::{CoreId, LineAddr};
use gcache_core::geometry::CacheGeometry;
use gcache_core::policy::gcache::{GCache, GCacheConfig};
use gcache_core::policy::lru::Lru;
use gcache_core::policy::pdp::Pdp;
use gcache_core::policy::pdp_dyn::{estimate_pd, DynamicPdpConfig};
use gcache_core::policy::rrip::{Rrip, RrpvTable};
use gcache_core::policy::{AccessCtx, FillDecision, ReplacementPolicy};
use gcache_core::rng::SmallRng;
use gcache_core::victim_bits::VictimBits;

const CASES: u64 = 64;

fn geom() -> CacheGeometry {
    CacheGeometry::with_sets(4, 4, 128).unwrap()
}

fn all_policies() -> Vec<Box<dyn ReplacementPolicy>> {
    let g = geom();
    vec![
        Box::new(Lru::new(&g)),
        Box::new(Rrip::srrip(&g, 3)),
        Box::new(GCache::with_defaults(&g)),
        Box::new(GCache::new(&g, GCacheConfig::adaptive())),
        Box::new(Pdp::fixed(&g, 6)),
        Box::new(Pdp::estimated(&g, DynamicPdpConfig::pdp3())),
        Box::new(Pdp::estimated(&g, DynamicPdpConfig::pdp8())),
    ]
}

/// With free ways available, every policy must insert into a *free* way
/// (never evict, never bypass), and every named way must be legal.
#[test]
fn free_ways_are_used_first() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0001 ^ case);
        let n = rng.gen_range(1..200) as usize;
        let ops: Vec<(usize, u64, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..4) as usize,
                    rng.gen_range(0..64),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        for mut policy in all_policies() {
            let name = policy.name();
            // valid_mask per set, maintained from the decisions.
            let mut valid = [0u64; 4];
            for &(set, tag, hint) in &ops {
                policy.on_access(set, tag);
                let ctx = AccessCtx {
                    line: LineAddr::new((tag * 4 + set as u64) & !3 | set as u64),
                    core: CoreId(0),
                    victim_hint: hint,
                    class: None,
                };
                match policy.fill_decision(set, valid[set], &ctx) {
                    FillDecision::Insert { way } => {
                        assert!(way < 4, "case {case}: {name}: way out of range");
                        if valid[set] != 0b1111 {
                            assert_eq!(
                                valid[set] & (1 << way),
                                0,
                                "case {case}: {name} evicted with a free way available"
                            );
                        }
                        valid[set] |= 1 << way;
                        policy.on_insert(set, way, &ctx);
                    }
                    FillDecision::Bypass => {
                        assert_eq!(
                            valid[set], 0b1111,
                            "case {case}: {name} bypassed a non-full set"
                        );
                    }
                }
            }
        }
    }
}

/// Policies that never bypass... never bypass.
#[test]
fn non_bypassing_policies_always_insert() {
    let g = geom();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0002 ^ case);
        let n = rng.gen_range(1..200) as usize;
        let sets: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4) as usize).collect();
        let non_bypassing: Vec<Box<dyn ReplacementPolicy>> =
            vec![Box::new(Lru::new(&g)), Box::new(Rrip::srrip(&g, 3))];
        for mut p in non_bypassing {
            let name = p.name();
            for (i, &set) in sets.iter().enumerate() {
                let ctx = AccessCtx::plain(LineAddr::new(i as u64 * 4 + set as u64), CoreId(0));
                match p.fill_decision(set, 0b1111, &ctx) {
                    FillDecision::Insert { way } => p.on_insert(set, way, &ctx),
                    FillDecision::Bypass => panic!("case {case}: {name} bypassed"),
                }
            }
        }
    }
}

/// RRPV tables: promote/age keep values within range, and find_victim
/// returns a valid way whose RRPV reached max.
#[test]
fn rrpv_table_stays_in_range() {
    let g = geom();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0003 ^ case);
        let n = rng.gen_range(1..300) as usize;
        let mut t = RrpvTable::new(&g, 3);
        for _ in 0..n {
            let set = rng.gen_range(0..4) as usize;
            let way = rng.gen_range(0..4) as usize;
            match rng.gen_range(0..3) {
                0 => t.promote(set, way),
                1 => t.age_set(set, 0b1111),
                _ => {
                    let v = t.find_victim(set, 0b1111).unwrap();
                    assert!(v < 4, "case {case}");
                    assert_eq!(t.get(set, v), t.max(), "case {case}");
                    t.set(set, v, t.max() - 1); // simulate insert
                }
            }
            for s in 0..4 {
                for w in 0..4 {
                    assert!(t.get(s, w) <= t.max(), "case {case}: rrpv out of range");
                }
            }
        }
    }
}

/// The PDP estimator never exceeds its cap and always picks a distance
/// that covers some observed reuse; `None` only when no reuse is in reach.
#[test]
fn pd_estimator_bounds() {
    for case in 0..CASES * 4 {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0004 ^ case);
        let rdd: Vec<u64> = (0..16).map(|_| rng.gen_range(0..50)).collect();
        let overflow = rng.gen_range(0..100);
        let cap = rng.gen_range(1..32) as u16;
        if let Some(pd) = estimate_pd(&rdd, overflow, cap) {
            assert!(
                pd >= 1 && pd <= cap,
                "case {case}: pd {pd} outside 1..={cap}"
            );
            assert!(
                rdd.iter().take(pd as usize).any(|&c| c > 0),
                "case {case}: chosen pd covers no observed reuse"
            );
        } else {
            assert!(
                rdd.iter().take(cap as usize).all(|&c| c == 0),
                "case {case}: estimator gave up despite reachable reuse"
            );
        }
    }
}

/// Victim bits: observe returns exactly the previous state; clear resets
/// all groups; disjoint groups never interfere.
#[test]
fn victim_bits_model() {
    let g = geom();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0005 ^ case);
        let share = rng.gen_range(1..4) as usize;
        let n = rng.gen_range(1..300) as usize;
        let mut vb = VictimBits::new(&g, 8, share);
        let groups = 8usize.div_ceil(share);
        let mut model = vec![vec![false; groups]; 16]; // set*4+way
        for _ in 0..n {
            let set = rng.gen_range(0..4) as usize;
            let way = rng.gen_range(0..4) as usize;
            let core = rng.gen_range(0..8) as usize;
            let idx = set * 4 + way;
            if rng.gen_bool(0.5) {
                vb.clear(set, way);
                model[idx].fill(false);
            } else {
                let expected = model[idx][core / share];
                let got = vb.observe(set, way, CoreId(core));
                assert_eq!(got, expected, "case {case}: observe mismatch");
                model[idx][core / share] = true;
            }
        }
    }
}

/// GCache never bypasses with the switch closed unless the fill itself
/// carries the victim hint that opens it.
#[test]
fn gcache_bypass_accounting() {
    let g = geom();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0006 ^ case);
        let n = rng.gen_range(1..300) as usize;
        let mut gc = GCache::with_defaults(&g);
        // Pre-fill all sets, promote everything hot.
        for set in 0..4 {
            for way in 0..4 {
                gc.on_insert(
                    set,
                    way,
                    &AccessCtx::plain(LineAddr::new(set as u64), CoreId(0)),
                );
                gc.on_hit(set, way);
            }
        }
        for _ in 0..n {
            let set = rng.gen_range(0..4) as usize;
            let hint = rng.gen_bool(0.5);
            let switch_before = gc.switch_open(set);
            let ctx = AccessCtx {
                line: LineAddr::new(set as u64),
                core: CoreId(0),
                victim_hint: hint,
                class: None,
            };
            match gc.fill_decision(set, 0b1111, &ctx) {
                FillDecision::Bypass => {
                    assert!(
                        switch_before || hint,
                        "case {case}: bypass with closed switch and no hint"
                    );
                }
                FillDecision::Insert { way } => gc.on_insert(set, way, &ctx),
            }
        }
    }
}
