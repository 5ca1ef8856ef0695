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
use crate::spec::{Benchmark, Category, Scale, WorkloadInfo};
use gcache_sim::isa::{self, GridDim, Kernel, Op, WarpProgram};

const CTAS: usize = 128;
const TPC: usize = 128;
const WARPS_PER_CTA: usize = 4;

fn wid(cta: usize, warp: usize) -> u64 {
    (cta * WARPS_PER_CTA + warp) as u64
}

/// Page View Count (Mars). Cache sensitive.
#[derive(Clone, Copy, Debug)]
pub struct Pvc {
    ctas: usize,
    iters: usize,
    /// Hot bucket lines (~56 KB).
    hot_lines: u64,
    seed: u64,
}

impl Pvc {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        // Bucket set sized for a per-set footprint of 10 — PVC's PD.
        Pvc {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(40),
            hot_lines: 640,
            seed: 0x9c,
        }
    }
}

impl Kernel for Pvc {
    fn name(&self) -> &str {
        "PVC"
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
        // Popular pages' buckets: a shared hot region every warp keeps
        // revisiting (phase-shifted walk).
        let mut buckets = CyclicWalk::new(region(1), k.hot_lines, rng.gen_range(0..k.hot_lines));
        Box::new(isa::steps(k.iters, move |i, ops| {
            let i = i as u64;
            // Log records: streaming.
            ops.push(coalesced_load(region(0), (w * k.iters as u64 + i) * 32));
            // Bucket probes over the hot set.
            for _ in 0..3 {
                ops.push(buckets.next_gather(&mut rng, 2));
            }
            // Count update: clustered atomic into the hot buckets.
            if i % 4 == 3 {
                let base = rng.gen_range(0..k.hot_lines - 2);
                ops.push(scatter_atomic(
                    region(1),
                    &clustered_indices(&mut rng, base, 1),
                ));
            }
            ops.push(Op::Compute { cycles: 2 });
        }))
    }
}

impl Benchmark for Pvc {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "PVC",
            description: "Page View Count",
            suite: "Mars",
            category: Category::Sensitive,
        }
    }
}

/// Similarity Score (Mars). Cache sensitive.
#[derive(Clone, Copy, Debug)]
pub struct Ssc {
    ctas: usize,
    pairs: usize,
    /// Shared feature-table lines; per-set distance ≈ 20.
    table_lines: u64,
    seed: u64,
}

impl Ssc {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Ssc {
            ctas: scale.ctas(CTAS),
            pairs: scale.iters(20),
            table_lines: 1280,
            seed: 0x55c,
        }
    }
}

impl Kernel for Ssc {
    fn name(&self) -> &str {
        "SSC"
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
        // Document feature vectors: the shared hot table re-walked by all
        // warps — per-set footprint ≈ 20, SSC's optimal PD.
        let mut table = CyclicWalk::new(region(2), k.table_lines, rng.gen_range(0..k.table_lines));
        Box::new(isa::steps(k.pairs, move |p, ops| {
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
                (w * k.pairs as u64 + p as u64) * 32,
            ));
        }))
    }
}

impl Benchmark for Ssc {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SSC",
            description: "Similarity Score",
            suite: "Mars",
            category: Category::Sensitive,
        }
    }
}

/// Inverted Index (Mars). Cache sensitive.
#[derive(Clone, Copy, Debug)]
pub struct Iix {
    ctas: usize,
    iters: usize,
    /// Hot dictionary lines.
    dict_lines: u64,
    seed: u64,
}

impl Iix {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        // Dictionary sized for a per-set footprint of 12 — IIX's PD.
        Iix {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(40),
            dict_lines: 768,
            seed: 0x11c,
        }
    }
}

impl Kernel for Iix {
    fn name(&self) -> &str {
        "IIX"
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
        // Common words' dictionary entries: shared hot walk.
        let mut dict = CyclicWalk::new(region(1), k.dict_lines, rng.gen_range(0..k.dict_lines));
        Box::new(isa::steps(k.iters, move |i, ops| {
            // Input text: streaming.
            ops.push(coalesced_load(
                region(0),
                (w * k.iters as u64 + i as u64) * 32,
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
}

impl Benchmark for Iix {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "IIX",
            description: "Inverted Index",
            suite: "Mars",
            category: Category::Sensitive,
        }
    }
}

/// Page View Rank (Mars). Moderately sensitive: the rank table is too big
/// and too uniformly accessed for protection to pay off.
#[derive(Clone, Copy, Debug)]
pub struct Pvr {
    ctas: usize,
    iters: usize,
    /// Rank-table lines (≫ L2).
    rank_lines: u64,
    seed: u64,
}

impl Pvr {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Pvr {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(48),
            rank_lines: 1 << 16,
            seed: 0x9f4,
        }
    }
}

impl Kernel for Pvr {
    fn name(&self) -> &str {
        "PVR"
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
        let elems = LINE / 4;
        let rank_elems = k.rank_lines * elems;
        Box::new(isa::steps(k.iters, move |i, ops| {
            // Edge list: streaming.
            ops.push(coalesced_load(
                region(0),
                (w * k.iters as u64 + i as u64) * 32,
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
}

impl Benchmark for Pvr {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "PVR",
            description: "Page View Rank",
            suite: "Mars",
            category: Category::Moderate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_terminate_and_are_deterministic() {
        for k in [
            &Pvc::new(Scale::Test) as &dyn Kernel,
            &Ssc::new(Scale::Test),
            &Iix::new(Scale::Test),
            &Pvr::new(Scale::Test),
        ] {
            let mut count = 0;
            let mut a = k.warp_program(1, 2);
            let mut b = k.warp_program(1, 2);
            loop {
                let (x, y) = (a.next_op(), b.next_op());
                assert_eq!(x, y, "{}", k.name());
                if x.is_none() {
                    break;
                }
                count += 1;
                assert!(count < 100_000, "{} runaway program", k.name());
            }
            assert!(count > 5, "{} suspiciously short", k.name());
        }
    }

    #[test]
    fn pvc_contains_atomics() {
        let mut p = Pvc::new(Scale::Paper).warp_program(0, 0);
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
        let mut lines = HashSet::new();
        for warp in 0..8 {
            let mut p = Pvr::new(Scale::Paper).warp_program(0, warp % 4);
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
