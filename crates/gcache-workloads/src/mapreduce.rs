//! MapReduce (Mars) benchmarks: **PVC**, **SSC**, **IIX**, **PVR**.
//!
//! All four share the map-side shape — streaming input records fanned out
//! into table structures by key — and differ in how much of the table is
//! hot:
//!
//! * PVC (Page View Count) — popular pages dominate: a hot bucket set that
//!   L1 management can protect (cache sensitive, optimal PD ≈ 10).
//! * SSC (Similarity Score) — document-pair feature tiles re-read across
//!   the inner loop at moderate distance (sensitive, PD ≈ 20).
//! * IIX (Inverted Index) — skewed dictionary + clustered postings
//!   (sensitive, PD ≈ 12).
//! * PVR (Page View Rank) — rank table far larger than any cache with weak
//!   skew: G-Cache detects contention and bypasses heavily but there is
//!   little locality to save (moderate; SPDP-B's optimal PD is tiny).

use crate::gen::{
    clustered_indices, coalesced_load, gather_load, region, scatter_atomic, skewed_index, warp_rng,
    CyclicWalk, LINE,
};
use crate::spec::wid;
use gcache_sim::isa::{self, Op, WarpProgram};

/// Page View Count (Mars). Cache sensitive.
pub(crate) fn pvc(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Hot bucket lines (~56 KB), sized for a per-set footprint of 10 —
    /// PVC's PD.
    const HOT_LINES: u64 = 640;
    const SEED: u64 = 0x9c;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Popular pages' buckets: a shared hot region every warp keeps
    // revisiting (phase-shifted walk).
    let mut buckets = CyclicWalk::new(region(1), HOT_LINES, rng.gen_range(0..HOT_LINES));
    Box::new(isa::steps(iters, move |i, ops| {
        let i = i as u64;
        // Log records: streaming.
        ops.push(coalesced_load(region(0), (w * iters as u64 + i) * 32));
        // Bucket probes over the hot set.
        for _ in 0..3 {
            ops.push(buckets.next_gather(&mut rng, 2));
        }
        // Count update: clustered atomic into the hot buckets.
        if i % 4 == 3 {
            let base = rng.gen_range(0..HOT_LINES - 2);
            ops.push(scatter_atomic(
                region(1),
                &clustered_indices(&mut rng, base, 1),
            ));
        }
        ops.push(Op::Compute { cycles: 2 });
    }))
}

/// Similarity Score (Mars). Cache sensitive.
pub(crate) fn ssc(pairs: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Shared feature-table lines; per-set distance ≈ 20.
    const TABLE_LINES: u64 = 1280;
    const SEED: u64 = 0x55c;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Document feature vectors: the shared hot table re-walked by all
    // warps — per-set footprint ≈ 20, SSC's optimal PD.
    let mut table = CyclicWalk::new(region(2), TABLE_LINES, rng.gen_range(0..TABLE_LINES));
    Box::new(isa::steps(pairs, move |p, ops| {
        for _ in 0..3u64 {
            // Compare features of the pair against the shared table.
            ops.push(table.next_coalesced());
            ops.push(table.next_coalesced());
            ops.push(table.next_broadcast());
            ops.push(Op::Compute { cycles: 3 });
        }
        // Pair list: streaming.
        ops.push(coalesced_load(
            region(1),
            (w * pairs as u64 + p as u64) * 32,
        ));
    }))
}

/// Inverted Index (Mars). Cache sensitive.
pub(crate) fn iix(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Hot dictionary lines, sized for a per-set footprint of 12 — IIX's
    /// PD.
    const DICT_LINES: u64 = 768;
    const SEED: u64 = 0x11c;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Common words' dictionary entries: shared hot walk.
    let mut dict = CyclicWalk::new(region(1), DICT_LINES, rng.gen_range(0..DICT_LINES));
    Box::new(isa::steps(iters, move |i, ops| {
        // Input text: streaming.
        ops.push(coalesced_load(
            region(0),
            (w * iters as u64 + i as u64) * 32,
        ));
        // Dictionary probes over the hot set.
        for _ in 0..3 {
            ops.push(dict.next_gather(&mut rng, 2));
        }
        // Postings append: cold clustered writes' read-for-ownership.
        let base = rng.gen_range(0..1 << 12);
        ops.push(gather_load(
            region(2),
            &clustered_indices(&mut rng, base, 1),
        ));
        ops.push(Op::Compute { cycles: 2 });
    }))
}

/// Page View Rank (Mars). Moderately sensitive: the rank table is too big
/// and too uniformly accessed for protection to pay off.
pub(crate) fn pvr(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Rank-table lines (≫ L2).
    const RANK_LINES: u64 = 1 << 16;
    const SEED: u64 = 0x9f4;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    let elems = LINE / 4;
    let rank_elems = RANK_LINES * elems;
    Box::new(isa::steps(iters, move |i, ops| {
        // Edge list: streaming.
        ops.push(coalesced_load(
            region(0),
            (w * iters as u64 + i as u64) * 32,
        ));
        // Rank lookups: weak skew over a huge table — a thin layer of
        // genuinely hot lines keeps triggering contention detection
        // without giving a bypass policy much to save.
        let idx: Vec<u64> = (0..32)
            .map(|_| skewed_index(&mut rng, 64 * elems, rank_elems, 0.35))
            .collect();
        ops.push(gather_load(region(1), &idx));
        ops.push(Op::Compute { cycles: 2 });
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Scale};

    #[test]
    fn all_programs_terminate_and_are_deterministic() {
        for name in ["PVC", "SSC", "IIX", "PVR"] {
            let k = by_name(name, Scale::Test).unwrap();
            let mut count = 0;
            let mut a = k.warp_program(1, 2);
            let mut b = k.warp_program(1, 2);
            loop {
                let (x, y) = (a.next_op(), b.next_op());
                assert_eq!(x, y, "{name}");
                if x.is_none() {
                    break;
                }
                count += 1;
                assert!(count < 100_000, "{name} runaway program");
            }
            assert!(count > 5, "{name} suspiciously short");
        }
    }

    #[test]
    fn pvc_contains_atomics() {
        let mut p = by_name("PVC", Scale::Paper).unwrap().warp_program(0, 0);
        let mut atomics = 0;
        while let Some(op) = p.next_op() {
            if matches!(op, Op::Atomic { .. }) {
                atomics += 1;
            }
        }
        assert!(atomics > 0, "PVC must exercise the AOU");
    }

    #[test]
    fn pvr_footprint_is_huge() {
        use std::collections::HashSet;
        let pvr = by_name("PVR", Scale::Paper).unwrap();
        let mut lines = HashSet::new();
        for warp in 0..8 {
            let mut p = pvr.warp_program(0, warp % 4);
            while let Some(op) = p.next_op() {
                if let Op::Load { addrs } = op {
                    for a in addrs.iter().flatten() {
                        lines.insert(a.to_line(128));
                    }
                }
            }
        }
        assert!(
            lines.len() > 2000,
            "PVR footprint {} lines too small",
            lines.len()
        );
    }
}
