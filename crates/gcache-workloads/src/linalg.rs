//! Dense linear-algebra / transform benchmarks: **KMN**, **SYRK**, **FFT**,
//! **BP**, **FWT**.
//!
//! * KMN — k-means: streaming points, with the centroid table re-walked
//!   per point. The table is sized so its per-set reuse distance (~24)
//!   exceeds G-Cache's 3-bit protection reach but not a static PD of 24 —
//!   the paper's case where SPDP-B beats GC (Table 3).
//! * SYRK — rank-K update: tiled re-reads of A at short reuse distance
//!   (optimal PD 9): squarely inside G-Cache's comfort zone.
//! * FFT — butterfly stages with doubling strides: moderate, phase-varying
//!   locality (optimal PD 32, only 8.5 % GC bypass).
//! * BP — back-propagation: layer weights streamed, tiny activation set
//!   that never leaves the cache: insensitive, ~0 % bypass.
//! * FWT — fast Walsh transform: pure strided streaming with no re-use at
//!   all: the 0 %-bypass control row of Table 3.

use crate::gen::{coalesced_load, coalesced_store, region, warp_rng, CyclicWalk, LINE};
use crate::spec::wid;
use gcache_sim::isa::{self, Op, WarpProgram};

/// Total lines of KMN's centroid table (~192 KB: per-set distance ≈ 24).
pub(crate) const KMN_TABLE_LINES: u64 = 1536;

/// K-means Clustering (Rodinia). Cache sensitive, with reuse distances at
/// the edge of what bypass policies can protect.
pub(crate) fn kmn(
    points: usize,
    cta: usize,
    warp: usize,
    table_lines: u64,
) -> Box<dyn WarpProgram> {
    /// Centroid-table lines walked per point.
    const WALK_PER_POINT: usize = 16;
    const SEED: u64 = 0x4a3;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Random phase decorrelates warps: the centroid table is shared but
    // walked out of sync, so per-set contention is genuine.
    let phase = rng.gen_range(0..table_lines);
    let mut walk = CyclicWalk::new(region(1), table_lines, phase);
    Box::new(isa::steps(points, move |p, ops| {
        let p = p as u64;
        // The point itself: streaming.
        ops.push(coalesced_load(region(0), (w * points as u64 + p) * 32));
        // Distance computation against a stretch of the centroid table.
        for _ in 0..WALK_PER_POINT {
            ops.push(walk.next_broadcast());
        }
        ops.push(Op::Compute { cycles: 4 });
        // Membership update.
        ops.push(coalesced_store(region(2), (w * points as u64 + p) * 32));
    }))
}

/// Symmetric Rank-K update (PolyBench). Cache sensitive with short reuse
/// distances — G-Cache's comfort zone.
pub(crate) fn syrk(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Lines of the shared A tile (~48 KB), sized for a per-set footprint
    /// of 9 — SYRK's optimal PD.
    const TILE_LINES: u64 = 576;
    const SEED: u64 = 0x777;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Rows of A: a shared hot tile cyclically re-read by every warp in
    // the rank-K inner loop (phase-shifted per warp).
    let mut a = CyclicWalk::new(region(0), TILE_LINES, rng.gen_range(0..TILE_LINES));
    Box::new(isa::steps(iters, move |i, ops| {
        for _ in 0..6 {
            ops.push(a.next_coalesced());
        }
        ops.push(Op::Compute { cycles: 6 });
        // C update: streaming.
        ops.push(coalesced_store(
            region(1),
            (w * iters as u64 + i as u64) * 32,
        ));
    }))
}

/// Fast Fourier Transform (Parboil). Moderately sensitive: butterfly
/// strides give phase-dependent, partially recoverable locality.
pub(crate) fn fft(butterflies: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    const STAGES: usize = 6;
    /// Twiddle-factor table lines (hot, moderate size).
    const TWIDDLE_LINES: u64 = 512;
    let w = wid(cta, warp);
    let elems = LINE / 4;
    let mut walk = CyclicWalk::new(region(2), TWIDDLE_LINES, w * 7);
    // One step per butterfly, stage-major.
    Box::new(isa::steps(STAGES * butterflies, move |step, ops| {
        let s = (step / butterflies) as u64;
        let b = (step % butterflies) as u64;
        let stride_lines = 1u64 << s;
        let base = w * 512 + b * 2 * stride_lines;
        // The two butterfly inputs, `stride` lines apart.
        ops.push(coalesced_load(region(0), (base % (1 << 20)) * elems));
        ops.push(coalesced_load(
            region(0),
            ((base + stride_lines) % (1 << 20)) * elems,
        ));
        // Twiddle factors: shared table walk.
        ops.push(walk.next_broadcast());
        ops.push(Op::Compute { cycles: 3 });
        ops.push(coalesced_store(region(1), (base % (1 << 20)) * elems));
    }))
}

/// Back Propagation (Rodinia). Cache insensitive: weights stream once,
/// the small activation set never leaves the cache.
pub(crate) fn bp(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Activation lines (tiny: always resident).
    const ACT_LINES: u64 = 32;
    let w = wid(cta, warp);
    let mut walk = CyclicWalk::new(region(1), ACT_LINES, w % ACT_LINES);
    Box::new(isa::steps(iters, move |i, ops| {
        // Weight matrix row: pure streaming.
        ops.push(coalesced_load(
            region(0),
            (w * iters as u64 + i as u64) * 32,
        ));
        // Activations: tiny shared set, trivially cached.
        ops.push(walk.next_broadcast());
        ops.push(Op::Compute { cycles: 2 });
        if i + 1 == iters {
            ops.push(coalesced_store(region(2), w * 32));
        }
    }))
}

/// Fast Walsh Transform (CUDA SDK). Cache insensitive; pure strided
/// streaming with no re-reference — Table 3's 0 %-bypass control.
pub(crate) fn fwt(per_stage: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    const STAGES: usize = 4;
    let w = wid(cta, warp);
    let elems = LINE / 4;
    // Every line index below is unique per (warp, stage, i): no line is
    // ever touched twice by anyone. One step per i, stage-major.
    Box::new(isa::steps(STAGES * per_stage, move |step, ops| {
        let s = (step / per_stage) as u64;
        let i = (step % per_stage) as u64;
        let idx = ((w * STAGES as u64 + s) * per_stage as u64 + i) * 2;
        ops.push(coalesced_load(region(0), idx * elems));
        ops.push(coalesced_load(region(0), (idx + 1) * elems));
        ops.push(Op::Compute { cycles: 2 });
        ops.push(coalesced_store(region(1), idx * elems));
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Scale};
    use gcache_core::reuse::ReuseProfiler;

    fn profile_loads(mut p: Box<dyn WarpProgram>, depth: usize) -> ReuseProfiler {
        let mut prof = ReuseProfiler::new(depth);
        while let Some(op) = p.next_op() {
            if let Op::Load { addrs } = op {
                // Coalesce first: the cache sees line transactions, not lanes.
                for line in gcache_sim::coalescer::coalesce(&addrs, 128) {
                    prof.record(line);
                }
            }
        }
        prof
    }

    #[test]
    fn fwt_is_pure_streaming() {
        let fwt = by_name("FWT", Scale::Test).unwrap();
        let prof = profile_loads(fwt.warp_program(0, 0), 256);
        assert_eq!(prof.overflow_accesses(), 0);
        assert!(
            (prof.single_use_fraction() - 1.0).abs() < 1e-9,
            "FWT must never re-use a line"
        );
    }

    #[test]
    fn bp_activations_have_tiny_footprint() {
        let bp = by_name("BP", Scale::Paper).unwrap();
        let prof = profile_loads(bp.warp_program(0, 0), 256);
        // Streaming weights + a 32-line activation loop: hot lines reused.
        assert!(prof.mean_distance().is_some());
        let d = prof.mean_distance().unwrap();
        assert!(d < 70.0, "BP activation reuse distance {d} too large");
    }

    #[test]
    fn kmn_reuse_distance_is_table_sized() {
        let prof = profile_loads(kmn(300, 0, 0, 96), 256);
        let d = prof.mean_distance().expect("centroid walk re-uses lines");
        // One full table walk between re-uses: distance ≈ table + stream.
        assert!(
            (80.0..130.0).contains(&d),
            "KMN per-warp reuse distance {d}, expected near table size 96"
        );
    }

    #[test]
    fn syrk_warps_share_the_tile() {
        // Reuse is cross-warp: phase-shifted walks over one shared tile.
        use std::collections::HashSet;
        let syrk = by_name("SYRK", Scale::Paper).unwrap();
        let lines = |warp: usize| -> HashSet<u64> {
            let mut out = HashSet::new();
            let mut p = syrk.warp_program(0, warp);
            while let Some(op) = p.next_op() {
                if let Op::Load { addrs } = op {
                    for l in gcache_sim::coalescer::coalesce(&addrs, 128) {
                        out.insert(l.raw());
                    }
                }
            }
            out
        };
        let (a, b) = (lines(0), lines(1));
        // 96 consecutive lines each over a 576-line shared tile: random
        // phases overlap with high probability across several warps.
        let union: HashSet<_> = a.union(&b).collect();
        assert!(union.len() <= 576, "all loads stay inside the shared tile");
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn deterministic_generation() {
        for name in ["KMN", "SYRK", "FFT", "BP", "FWT"] {
            let k = by_name(name, Scale::Test).unwrap();
            let mut a = k.warp_program(2, 3);
            let mut b = k.warp_program(2, 3);
            for _ in 0..30 {
                assert_eq!(a.next_op(), b.next_op(), "{name} not deterministic");
            }
        }
    }
}
