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
use crate::spec::{Benchmark, Category, Scale, WorkloadInfo};
use gcache_sim::isa::{self, GridDim, Kernel, Op, WarpProgram};

const CTAS: usize = 128;
const TPC: usize = 128;
const WARPS_PER_CTA: usize = 4;

fn wid(cta: usize, warp: usize) -> u64 {
    (cta * WARPS_PER_CTA + warp) as u64
}

/// K-means Clustering (Rodinia). Cache sensitive, with reuse distances at
/// the edge of what bypass policies can protect.
#[derive(Clone, Copy, Debug)]
pub struct Kmn {
    ctas: usize,
    points: usize,
    /// Centroid-table lines walked per point.
    walk_per_point: usize,
    /// Total centroid-table lines (~192 KB: per-set distance ≈ 24).
    table_lines: u64,
    seed: u64,
}

impl Kmn {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Kmn {
            ctas: scale.ctas(CTAS),
            points: scale.iters(12),
            walk_per_point: 16,
            table_lines: 1536,
            seed: 0x4a3,
        }
    }
}

impl Kernel for Kmn {
    fn name(&self) -> &str {
        "KMN"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let k = *self;
        let mut rng = warp_rng(k.seed, cta, warp);
        let w = wid(cta, warp);
        // Random phase decorrelates warps: the centroid table is shared but
        // walked out of sync, so per-set contention is genuine.
        let phase = rng.gen_range(0..k.table_lines);
        let mut walk = CyclicWalk::new(region(1), k.table_lines, phase);
        Box::new(isa::steps(k.points, move |p, ops| {
            let p = p as u64;
            // The point itself: streaming.
            ops.push(coalesced_load(region(0), (w * k.points as u64 + p) * 32));
            // Distance computation against a stretch of the centroid table.
            for _ in 0..k.walk_per_point {
                ops.push(walk.next_broadcast());
            }
            ops.push(Op::Compute { cycles: 4 });
            // Membership update.
            ops.push(coalesced_store(region(2), (w * k.points as u64 + p) * 32));
        }))
    }
}

impl Benchmark for Kmn {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "KMN",
            description: "K-means Clustering",
            suite: "Rodinia",
            category: Category::Sensitive,
        }
    }
}

/// Symmetric Rank-K update (PolyBench). Cache sensitive with short reuse
/// distances — G-Cache's comfort zone.
#[derive(Clone, Copy, Debug)]
pub struct Syrk {
    ctas: usize,
    iters: usize,
    /// Lines of the shared A tile (~48 KB).
    tile_lines: u64,
    seed: u64,
}

impl Syrk {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        // Tile sized for a per-set footprint of 9 — SYRK's optimal PD.
        Syrk {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(32),
            tile_lines: 576,
            seed: 0x777,
        }
    }
}

impl Kernel for Syrk {
    fn name(&self) -> &str {
        "SYRK"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let k = *self;
        let mut rng = warp_rng(k.seed, cta, warp);
        let w = wid(cta, warp);
        // Rows of A: a shared hot tile cyclically re-read by every warp in
        // the rank-K inner loop (phase-shifted per warp).
        let mut a = CyclicWalk::new(region(0), k.tile_lines, rng.gen_range(0..k.tile_lines));
        Box::new(isa::steps(k.iters, move |i, ops| {
            for _ in 0..6 {
                ops.push(a.next_coalesced());
            }
            ops.push(Op::Compute { cycles: 6 });
            // C update: streaming.
            ops.push(coalesced_store(
                region(1),
                (w * k.iters as u64 + i as u64) * 32,
            ));
        }))
    }
}

impl Benchmark for Syrk {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SYRK",
            description: "Symmetric Rank-K",
            suite: "PolyBench",
            category: Category::Sensitive,
        }
    }
}

/// Fast Fourier Transform (Parboil). Moderately sensitive: butterfly
/// strides give phase-dependent, partially recoverable locality.
#[derive(Clone, Copy, Debug)]
pub struct Fft {
    ctas: usize,
    stages: usize,
    butterflies: usize,
    /// Twiddle-factor table lines (hot, moderate size).
    twiddle_lines: u64,
}

impl Fft {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Fft {
            ctas: scale.ctas(CTAS),
            stages: 6,
            butterflies: scale.iters(8),
            twiddle_lines: 512,
        }
    }
}

impl Kernel for Fft {
    fn name(&self) -> &str {
        "FFT"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let w = wid(cta, warp);
        let elems = LINE / 4;
        let k = *self;
        let mut walk = CyclicWalk::new(region(2), k.twiddle_lines, w * 7);
        // One step per butterfly, stage-major.
        Box::new(isa::steps(k.stages * k.butterflies, move |step, ops| {
            let s = (step / k.butterflies) as u64;
            let b = (step % k.butterflies) as u64;
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
}

impl Benchmark for Fft {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "FFT",
            description: "Fast Fourier Transform",
            suite: "Parboil",
            category: Category::Moderate,
        }
    }
}

/// Back Propagation (Rodinia). Cache insensitive: weights stream once,
/// the small activation set never leaves the cache.
#[derive(Clone, Copy, Debug)]
pub struct Bp {
    ctas: usize,
    iters: usize,
    /// Activation lines (tiny: always resident).
    act_lines: u64,
}

impl Bp {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Bp {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(48),
            act_lines: 32,
        }
    }
}

impl Kernel for Bp {
    fn name(&self) -> &str {
        "BP"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let w = wid(cta, warp);
        let k = *self;
        let mut walk = CyclicWalk::new(region(1), k.act_lines, w % k.act_lines);
        Box::new(isa::steps(k.iters, move |i, ops| {
            // Weight matrix row: pure streaming.
            ops.push(coalesced_load(
                region(0),
                (w * k.iters as u64 + i as u64) * 32,
            ));
            // Activations: tiny shared set, trivially cached.
            ops.push(walk.next_broadcast());
            ops.push(Op::Compute { cycles: 2 });
            if i + 1 == k.iters {
                ops.push(coalesced_store(region(2), w * 32));
            }
        }))
    }
}

impl Benchmark for Bp {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "BP",
            description: "Back Propagation",
            suite: "Rodinia",
            category: Category::Insensitive,
        }
    }
}

/// Fast Walsh Transform (CUDA SDK). Cache insensitive; pure strided
/// streaming with no re-reference — Table 3's 0 %-bypass control.
#[derive(Clone, Copy, Debug)]
pub struct Fwt {
    ctas: usize,
    stages: usize,
    per_stage: usize,
}

impl Fwt {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Fwt {
            ctas: scale.ctas(CTAS),
            stages: 4,
            per_stage: scale.iters(12),
        }
    }
}

impl Kernel for Fwt {
    fn name(&self) -> &str {
        "FWT"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let w = wid(cta, warp);
        let elems = LINE / 4;
        let k = *self;
        // Every line index below is unique per (warp, stage, i): no line is
        // ever touched twice by anyone. One step per i, stage-major.
        Box::new(isa::steps(k.stages * k.per_stage, move |step, ops| {
            let s = (step / k.per_stage) as u64;
            let i = (step % k.per_stage) as u64;
            let idx = ((w * k.stages as u64 + s) * k.per_stage as u64 + i) * 2;
            ops.push(coalesced_load(region(0), idx * elems));
            ops.push(coalesced_load(region(0), (idx + 1) * elems));
            ops.push(Op::Compute { cycles: 2 });
            ops.push(coalesced_store(region(1), idx * elems));
        }))
    }
}

impl Benchmark for Fwt {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "FWT",
            description: "Fast Walsh Transform",
            suite: "CUDA SDK",
            category: Category::Insensitive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::reuse::ReuseProfiler;

    fn profile_loads(k: &dyn Kernel, cta: usize, warp: usize, depth: usize) -> ReuseProfiler {
        let mut prof = ReuseProfiler::new(depth);
        let mut p = k.warp_program(cta, warp);
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
        let prof = profile_loads(&Fwt::new(Scale::Test), 0, 0, 256);
        assert_eq!(prof.overflow_accesses(), 0);
        assert!(
            (prof.single_use_fraction() - 1.0).abs() < 1e-9,
            "FWT must never re-use a line"
        );
    }

    #[test]
    fn bp_activations_have_tiny_footprint() {
        let prof = profile_loads(&Bp::new(Scale::Paper), 0, 0, 256);
        // Streaming weights + a 32-line activation loop: hot lines reused.
        assert!(prof.mean_distance().is_some());
        let d = prof.mean_distance().unwrap();
        assert!(d < 70.0, "BP activation reuse distance {d} too large");
    }

    #[test]
    fn kmn_reuse_distance_is_table_sized() {
        let kmn = Kmn {
            ctas: 1,
            points: 300,
            walk_per_point: 12,
            table_lines: 96,
            seed: 1,
        };
        let prof = profile_loads(&kmn, 0, 0, 256);
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
        let syrk = Syrk::new(Scale::Paper);
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
        for k in [
            &Kmn::new(Scale::Test) as &dyn Kernel,
            &Syrk::new(Scale::Test),
            &Fft::new(Scale::Test),
            &Bp::new(Scale::Test),
            &Fwt::new(Scale::Test),
        ] {
            let mut a = k.warp_program(2, 3);
            let mut b = k.warp_program(2, 3);
            for _ in 0..30 {
                assert_eq!(a.next_op(), b.next_op(), "{} not deterministic", k.name());
            }
        }
    }
}
