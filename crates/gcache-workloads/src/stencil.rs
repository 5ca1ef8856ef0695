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
use crate::spec::{Benchmark, Category, Scale, WorkloadInfo};
use gcache_sim::isa::{self, GridDim, Kernel, Op, WarpProgram};

const CTAS: usize = 128;
const TPC: usize = 128;
const WARPS_PER_CTA: usize = 4;

fn wid(cta: usize, warp: usize) -> u64 {
    (cta * WARPS_PER_CTA + warp) as u64
}

fn elems() -> u64 {
    LINE / 4
}

/// Graphic Diffusion, cache-sensitive variant (Rodinia srad, small grid).
#[derive(Clone, Copy, Debug)]
pub struct Sd2 {
    ctas: usize,
    cols: usize,
    /// Row-to-row re-walk count: each warp sweeps its rows twice.
    sweeps: usize,
}

impl Sd2 {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Sd2 {
            ctas: scale.ctas(CTAS),
            cols: scale.iters(16),
            sweeps: 3,
        }
    }
}

impl Kernel for Sd2 {
    fn name(&self) -> &str {
        "SD2"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let k = *self;
        let w = wid(cta, warp);
        let cols = k.cols as u64;
        // The diffusion image wraps at `grid_lines` (per-set footprint 16 —
        // SD2's optimal PD). Each warp's sweep starts at a decorrelated
        // phase (real srad warps drift apart after the first border sync),
        // so halo reuse is contended rather than trivially temporal.
        let grid_lines = 1024u64;
        let phase = (w.wrapping_mul(0x9e37_79b9) >> 3) % grid_lines;
        let mut walk = CyclicWalk::new(region(0), grid_lines, phase);
        // One step per column, sweep-major.
        Box::new(isa::steps(k.sweeps * k.cols, move |step, ops| {
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
}

impl Benchmark for Sd2 {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SD2",
            description: "Graphic Diffusion",
            suite: "Rodinia",
            category: Category::Sensitive,
        }
    }
}

/// Graphic Diffusion, insensitive variant (Rodinia srad, large grid):
/// private rows, single sweep — pure streaming.
#[derive(Clone, Copy, Debug)]
pub struct Sd1 {
    ctas: usize,
    cols: usize,
}

impl Sd1 {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Sd1 {
            ctas: scale.ctas(CTAS),
            cols: scale.iters(32),
        }
    }
}

impl Kernel for Sd1 {
    fn name(&self) -> &str {
        "SD1"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let w = wid(cta, warp);
        let cols = self.cols as u64;
        Box::new(isa::steps(self.cols, move |c, ops| {
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
}

impl Benchmark for Sd1 {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SD1",
            description: "Graphic Diffusion",
            suite: "Rodinia",
            category: Category::Insensitive,
        }
    }
}

/// 3D Stencil (Parboil). Cache insensitive.
#[derive(Clone, Copy, Debug)]
pub struct Stl {
    ctas: usize,
    iters: usize,
    /// Shared boundary lines re-read occasionally (triggers contention
    /// detection without recoverable locality).
    boundary_lines: u64,
}

impl Stl {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Stl {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(28),
            boundary_lines: 640,
        }
    }
}

impl Kernel for Stl {
    fn name(&self) -> &str {
        "STL"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let k = *self;
        let w = wid(cta, warp);
        Box::new(isa::steps(k.iters, move |i, ops| {
            let i = i as u64;
            // Three z-planes: all unique lines, pure streaming.
            for plane in 0..3u64 {
                let line = (w * k.iters as u64 + i) * 3 + plane;
                ops.push(coalesced_load(region(0), line * elems()));
            }
            // Shared boundary: sparse re-reads — contention signal, no win.
            if i.is_multiple_of(4) {
                let line = (w + i) % k.boundary_lines;
                ops.push(broadcast_load(region(2), line));
            }
            ops.push(Op::Compute { cycles: 3 });
            ops.push(coalesced_store(
                region(1),
                (w * k.iters as u64 + i) * elems(),
            ));
        }))
    }
}

impl Benchmark for Stl {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "STL",
            description: "3D Stencil",
            suite: "Parboil",
            category: Category::Insensitive,
        }
    }
}

/// Weather Prediction (CUDA SDK port). Cache insensitive despite heavy
/// bypass activity.
#[derive(Clone, Copy, Debug)]
pub struct Wp {
    ctas: usize,
    iters: usize,
    /// Constants-table lines: small enough to be useful, large enough to
    /// be constantly evicted by the field streams.
    const_lines: u64,
}

impl Wp {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Wp {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(16),
            const_lines: 896,
        }
    }
}

impl Kernel for Wp {
    fn name(&self) -> &str {
        "WP"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let k = *self;
        let w = wid(cta, warp);
        Box::new(isa::steps(k.iters, move |i, ops| {
            let i = i as u64;
            // Eight field arrays per cell: streaming from separate regions.
            for f in 0..8u64 {
                ops.push(coalesced_load(region(f), (w * k.iters as u64 + i) * 32));
            }
            // Physics constants: shared table, cyclically re-read but
            // drowned by 8:1 stream pressure.
            ops.push(broadcast_load(
                region(9),
                (w * k.iters as u64 + i) % k.const_lines,
            ));
            ops.push(Op::Compute { cycles: 5 });
            ops.push(coalesced_store(region(10), (w * k.iters as u64 + i) * 32));
        }))
    }
}

impl Benchmark for Wp {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "WP",
            description: "Weather Prediction",
            suite: "CUDA SDK",
            category: Category::Insensitive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::reuse::ReuseProfiler;
    use std::collections::HashSet;

    fn load_lines(k: &dyn Kernel, cta: usize, warp: usize) -> Vec<u64> {
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
        let sd2 = Sd2::new(Scale::Paper);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut shared = 0usize;
        for cta in 0..4 {
            for warp in 0..4 {
                for l in load_lines(&sd2, cta, warp) {
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
        let sd1 = Sd1::new(Scale::Paper);
        let a: HashSet<u64> = load_lines(&sd1, 0, 0).into_iter().collect();
        let b: HashSet<u64> = load_lines(&sd1, 0, 1).into_iter().collect();
        assert_eq!(a.intersection(&b).count(), 0, "SD1 rows are private");
    }

    #[test]
    fn sd2_windows_are_disjoint_within_a_warp() {
        // Reuse lives *between* warps (phase overlap on the shared image);
        // a single warp's sweep never re-touches a line.
        let sd2 = Sd2::new(Scale::Paper);
        let mut prof = ReuseProfiler::new(512);
        for l in load_lines(&sd2, 0, 0) {
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
        let sd1 = Sd1::new(Scale::Paper);
        let mut prof = ReuseProfiler::new(512);
        for l in load_lines(&sd1, 0, 0) {
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
        let wp = Wp::new(Scale::Paper);
        let lines = load_lines(&wp, 0, 0);
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        // 9 loads per iteration, 8 of them unique stream lines.
        assert!(distinct.len() as f64 > lines.len() as f64 * 0.8);
    }

    #[test]
    fn all_deterministic() {
        for k in [
            &Sd2::new(Scale::Test) as &dyn Kernel,
            &Sd1::new(Scale::Test),
            &Stl::new(Scale::Test),
            &Wp::new(Scale::Test),
        ] {
            let mut a = k.warp_program(5, 0);
            let mut b = k.warp_program(5, 0);
            for _ in 0..40 {
                assert_eq!(a.next_op(), b.next_op(), "{}", k.name());
            }
        }
    }
}
