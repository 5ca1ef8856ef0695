//! Stencil / grid benchmarks: **SD2**, **SD1**, **STL**, **WP**.
//!
//! * SD2 (srad, small input) — neighbouring warps share halo rows, and the
//!   per-core row footprint (~96 KB) thrashes a 32 KB L1: cache sensitive.
//!   The paper notes SD2 gains 33 % *without* a big miss-rate drop — the
//!   benefit comes from bypass-on-fill extending line lifetime.
//! * SD1 (srad, large input) — same stencil with private rows: pure
//!   streaming, cache insensitive.
//! * STL (Parboil stencil) — 3D 7-point sweep over planes far larger than
//!   any cache; a small shared boundary set keeps triggering contention
//!   detection (GC bypasses ~11 % for nothing).
//! * WP (weather prediction) — many per-cell field arrays streamed with a
//!   small constants table that keeps being evicted and re-fetched: GC's
//!   "bypass happens, no benefit" row (31.9 % bypass, flat speedup).

use crate::gen::{broadcast_load, coalesced_load, coalesced_store, region, CyclicWalk, LINE};
use crate::spec::wid;
use gcache_sim::isa::{self, Op, WarpProgram};

fn elems() -> u64 {
    LINE / 4
}

/// Graphic Diffusion, cache-sensitive variant (Rodinia srad, small grid).
pub(crate) fn sd2(cols: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Row-to-row re-walk count: each warp sweeps its rows twice.
    const SWEEPS: usize = 3;
    let w = wid(cta, warp);
    let steps = SWEEPS * cols;
    let cols = cols as u64;
    // The diffusion image wraps at `grid_lines` (per-set footprint 16 —
    // SD2's optimal PD). Each warp's sweep starts at a decorrelated
    // phase (real srad warps drift apart after the first border sync),
    // so halo reuse is contended rather than trivially temporal.
    let grid_lines = 1024u64;
    let phase = (w.wrapping_mul(0x9e37_79b9) >> 3) % grid_lines;
    let mut walk = CyclicWalk::new(region(0), grid_lines, phase);
    // One step per column, sweep-major.
    Box::new(isa::steps(steps, move |step, ops| {
        let (s, c) = (step as u64 / cols, step as u64 % cols);
        // North/centre/south rows of the 5-point stencil — disjoint
        // line triples per step (the halo overlap lives *between*
        // warps at shifted phases, not inside one warp's window).
        let base = walk.next_window(3);
        for dr in 0..3u64 {
            ops.push(coalesced_load(
                region(0),
                ((base + dr) % grid_lines) * elems(),
            ));
        }
        ops.push(Op::Compute { cycles: 3 });
        ops.push(coalesced_store(
            region(1),
            ((phase + s * cols + c) % grid_lines) * elems(),
        ));
    }))
}

/// Graphic Diffusion, insensitive variant (Rodinia srad, large grid):
/// private rows, single sweep — pure streaming.
pub(crate) fn sd1(cols: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    let w = wid(cta, warp);
    let steps = cols;
    let cols = cols as u64;
    Box::new(isa::steps(steps, move |c, ops| {
        let c = c as u64;
        // Rows are strided 3 apart: no sharing between warps, and no
        // second sweep: every line is touched once.
        for dr in 0..3u64 {
            let row = w * 3 + dr;
            ops.push(coalesced_load(region(0), (row * cols + c) * elems()));
        }
        ops.push(Op::Compute { cycles: 3 });
        ops.push(coalesced_store(region(1), (w * cols + c) * elems()));
    }))
}

/// 3D Stencil (Parboil). Cache insensitive.
pub(crate) fn stl(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Shared boundary lines re-read occasionally (triggers contention
    /// detection without recoverable locality).
    const BOUNDARY_LINES: u64 = 640;
    let w = wid(cta, warp);
    Box::new(isa::steps(iters, move |i, ops| {
        let i = i as u64;
        // Three z-planes: all unique lines, pure streaming.
        for plane in 0..3u64 {
            let line = (w * iters as u64 + i) * 3 + plane;
            ops.push(coalesced_load(region(0), line * elems()));
        }
        // Shared boundary: sparse re-reads — contention signal, no win.
        if i.is_multiple_of(4) {
            let line = (w + i) % BOUNDARY_LINES;
            ops.push(broadcast_load(region(2), line));
        }
        ops.push(Op::Compute { cycles: 3 });
        ops.push(coalesced_store(region(1), (w * iters as u64 + i) * elems()));
    }))
}

/// Weather Prediction (CUDA SDK port). Cache insensitive despite heavy
/// bypass activity.
pub(crate) fn wp(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Constants-table lines: small enough to be useful, large enough to
    /// be constantly evicted by the field streams.
    const CONST_LINES: u64 = 896;
    let w = wid(cta, warp);
    Box::new(isa::steps(iters, move |i, ops| {
        let i = i as u64;
        // Eight field arrays per cell: streaming from separate regions.
        for f in 0..8u64 {
            ops.push(coalesced_load(region(f), (w * iters as u64 + i) * 32));
        }
        // Physics constants: shared table, cyclically re-read but
        // drowned by 8:1 stream pressure.
        ops.push(broadcast_load(
            region(9),
            (w * iters as u64 + i) % CONST_LINES,
        ));
        ops.push(Op::Compute { cycles: 5 });
        ops.push(coalesced_store(region(10), (w * iters as u64 + i) * 32));
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Benchmark, Scale};
    use gcache_core::reuse::ReuseProfiler;
    use std::collections::HashSet;

    fn load_lines(k: &dyn Benchmark, cta: usize, warp: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut p = k.warp_program(cta, warp);
        while let Some(op) = p.next_op() {
            if let Op::Load { addrs } = op {
                // Coalesce first: the cache sees line transactions, not lanes.
                for line in gcache_sim::coalescer::coalesce(&addrs, 128) {
                    out.push(line.raw());
                }
            }
        }
        out
    }

    #[test]
    fn sd2_warps_share_the_image() {
        // Phase-decorrelated sweeps over one shared image: across a handful
        // of warps the footprints overlap.
        let sd2 = by_name("SD2", Scale::Paper).unwrap();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut shared = 0usize;
        for cta in 0..4 {
            for warp in 0..4 {
                for l in load_lines(sd2.as_ref(), cta, warp) {
                    if !seen.insert(l) {
                        shared += 1;
                    }
                }
            }
        }
        assert!(shared > 0, "SD2 warps must share image lines");
        assert!(
            seen.len() <= 1024,
            "all loads stay inside the wrapped image"
        );
    }

    #[test]
    fn sd1_warps_share_nothing() {
        let sd1 = by_name("SD1", Scale::Paper).unwrap();
        let a: HashSet<u64> = load_lines(sd1.as_ref(), 0, 0).into_iter().collect();
        let b: HashSet<u64> = load_lines(sd1.as_ref(), 0, 1).into_iter().collect();
        assert_eq!(a.intersection(&b).count(), 0, "SD1 rows are private");
    }

    #[test]
    fn sd2_windows_are_disjoint_within_a_warp() {
        // Reuse lives *between* warps (phase overlap on the shared image);
        // a single warp's sweep never re-touches a line.
        let sd2 = by_name("SD2", Scale::Paper).unwrap();
        let mut prof = ReuseProfiler::new(512);
        for l in load_lines(sd2.as_ref(), 0, 0) {
            prof.record(gcache_core::addr::LineAddr::new(l));
        }
        assert!(
            prof.single_use_fraction() > 0.99,
            "intra-warp SD2 lines must be single-touch, got {}",
            prof.single_use_fraction()
        );
    }

    #[test]
    fn sd1_is_streaming_per_warp() {
        let sd1 = by_name("SD1", Scale::Paper).unwrap();
        let mut prof = ReuseProfiler::new(512);
        for l in load_lines(sd1.as_ref(), 0, 0) {
            prof.record(gcache_core::addr::LineAddr::new(l));
        }
        assert!(
            prof.single_use_fraction() > 0.99,
            "SD1 single-use fraction {}",
            prof.single_use_fraction()
        );
    }

    #[test]
    fn wp_streams_dominate() {
        let wp = by_name("WP", Scale::Paper).unwrap();
        let lines = load_lines(wp.as_ref(), 0, 0);
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        // 9 loads per iteration, 8 of them unique stream lines.
        assert!(distinct.len() as f64 > lines.len() as f64 * 0.8);
    }

    #[test]
    fn all_deterministic() {
        for name in ["SD2", "SD1", "STL", "WP"] {
            let k = by_name(name, Scale::Test).unwrap();
            let mut a = k.warp_program(5, 0);
            let mut b = k.warp_program(5, 0);
            for _ in 0..40 {
                assert_eq!(a.next_op(), b.next_op(), "{name}");
            }
        }
    }
}
