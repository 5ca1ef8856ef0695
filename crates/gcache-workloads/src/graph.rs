//! Graph / sparse / wavefront benchmarks: **BFS**, **SPMV**, **CFD**, **NW**.
//!
//! Each generator reproduces the memory-access *structure* its real
//! counterpart is known for (see DESIGN.md §2 for the substitution
//! argument):
//!
//! * BFS — streaming frontier + CSR row pointers, clustered adjacency
//!   gathers, and skewed `visited`-flag gathers whose hub nodes form the
//!   contended hot set (~80 % of lines never reused, Figure 2).
//! * SPMV — streaming matrix (`row_ptr`/`col_idx`/`vals`) mixed with
//!   gathers into a hot `x` vector: the paper's Figure 7 access shape and
//!   G-Cache's best case versus PDP.
//! * CFD — unstructured-mesh neighbour gathers over a footprint several
//!   times the L1: moderate, partially recoverable locality.
//! * NW — wavefront dynamic programming: per-warp slices re-touched at
//!   very long reuse distances; only a large static protection distance
//!   helps (Table 3: optimal PD 68), G-Cache's ageing cannot reach it.

use crate::gen::{
    clustered_indices, coalesced_load, coalesced_store, gather_load, region, warp_rng, CyclicWalk,
    LINE,
};
use crate::spec::{Benchmark, Category, Scale, WorkloadInfo};
use gcache_sim::isa::{self, GridDim, Kernel, Op, WarpProgram};

const CTAS: usize = 128;
const TPC: usize = 128; // 4 warps per CTA
const WARPS_PER_CTA: usize = 4;

fn wid(cta: usize, warp: usize) -> u64 {
    (cta * WARPS_PER_CTA + warp) as u64
}

/// Breadth-First Search (Rodinia). Cache sensitive.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    ctas: usize,
    iters: usize,
    /// Hot `visited` lines (graph hubs) contended in L1.
    hot_lines: u64,
    seed: u64,
}

impl Bfs {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Bfs {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(32),
            hot_lines: 896,
            seed: 0xbf5,
        }
    }
}

impl Kernel for Bfs {
    fn name(&self) -> &str {
        "BFS"
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
        // Hub nodes' visited/level flags: a shared hot region revisited by
        // every warp (phase-shifted), per-set footprint ≈ hot_lines / 64
        // ≈ the paper's optimal PD of 14 for BFS.
        let mut hubs = CyclicWalk::new(region(3), k.hot_lines, rng.gen_range(0..k.hot_lines));
        let tail_lines = k.hot_lines * 128; // cold graph tail
        Box::new(isa::steps(k.iters, move |i, ops| {
            let i = i as u64;
            // Frontier chunk: streaming, coalesced.
            ops.push(coalesced_load(region(0), (w * k.iters as u64 + i) * 32));
            // Hub visited flags: clustered gathers walking the hot region.
            for _ in 0..4 {
                ops.push(hubs.next_gather(&mut rng, 2));
            }
            // Cold adjacency of low-degree nodes: clustered gather over the
            // long tail (effectively streaming).
            let base = rng.gen_range(0..tail_lines);
            ops.push(gather_load(
                region(2),
                &clustered_indices(&mut rng, base, 2),
            ));
            ops.push(Op::Compute { cycles: 2 });
        }))
    }
}

impl Benchmark for Bfs {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "BFS",
            description: "Breadth First Search",
            suite: "Rodinia",
            category: Category::Sensitive,
        }
    }
}

/// Sparse Matrix-Vector Multiply (Parboil). Cache sensitive; the paper's
/// showcase for G-Cache beating PDP (streaming matrix vs hot vector).
#[derive(Clone, Copy, Debug)]
pub struct Spmv {
    ctas: usize,
    rows: usize,
    /// Lines of the hot `x` vector (≈ 48 KB: thrashes a 32 KB L1, fits 64).
    x_lines: u64,
    seed: u64,
}

impl Spmv {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Spmv {
            ctas: scale.ctas(CTAS),
            rows: scale.iters(48),
            x_lines: 384,
            seed: 0x59a7,
        }
    }
}

impl Kernel for Spmv {
    fn name(&self) -> &str {
        "SPMV"
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
        // The Figure 7 mixture: the matrix streams, the x vector is a hot
        // shared region re-walked by every warp (phase-shifted). Per-set
        // footprint ≈ x_lines / 64 = 6 — the paper's optimal PD for SPMV.
        let mut x = CyclicWalk::new(region(3), k.x_lines, rng.gen_range(0..k.x_lines));
        Box::new(isa::steps(k.rows, move |r, ops| {
            let r = r as u64;
            let row = w * k.rows as u64 + r;
            // Matrix data: streaming arrays (each coalesced load covers a
            // 32-nonzero chunk, so the stream is thin relative to the
            // per-nonzero x gathers).
            if r.is_multiple_of(2) {
                ops.push(coalesced_load(region(0), row * 32)); // col_idx + vals
            }
            if r.is_multiple_of(4) {
                ops.push(coalesced_load(region(1), row * 32)); // row_ptr
            }
            // Vector x: the hot walk (gathered at line granularity).
            for _ in 0..4 {
                ops.push(x.next_gather(&mut rng, 1));
            }
            ops.push(Op::Compute { cycles: 2 });
            if r % 4 == 3 {
                ops.push(coalesced_store(region(4), row * 32)); // y
            }
        }))
    }
}

impl Benchmark for Spmv {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SPMV",
            description: "Sparse Matrix Vector Multiply",
            suite: "Parboil",
            category: Category::Sensitive,
        }
    }
}

/// CFD Solver (Rodinia): unstructured-mesh neighbour gathers. Moderately
/// sensitive — the mesh footprint is several L1s deep, so only part of the
/// locality is recoverable.
#[derive(Clone, Copy, Debug)]
pub struct Cfd {
    ctas: usize,
    iters: usize,
    cell_lines: u64,
    seed: u64,
}

impl Cfd {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        Cfd {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(40),
            cell_lines: 1536,
            seed: 0xcfd,
        }
    }
}

impl Kernel for Cfd {
    fn name(&self) -> &str {
        "CFD"
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
        Box::new(isa::steps(k.iters, move |i, ops| {
            let i = i as u64;
            // Own cell data: streaming (fluxes, normals).
            ops.push(coalesced_load(region(0), (w * k.iters as u64 + i) * 32));
            ops.push(coalesced_load(region(1), (w * k.iters as u64 + i) * 32));
            // Neighbour cells: clustered gathers over the shared mesh.
            for _ in 0..2 {
                let base = rng.gen_range(0..k.cell_lines - 8);
                ops.push(gather_load(
                    region(2),
                    &clustered_indices(&mut rng, base, 8),
                ));
            }
            ops.push(Op::Compute { cycles: 4 });
            ops.push(coalesced_store(region(3), (w * k.iters as u64 + i) * 32));
        }))
    }
}

impl Benchmark for Cfd {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "CFD",
            description: "CFD Solver",
            suite: "Rodinia",
            category: Category::Moderate,
        }
    }
}

/// Needleman-Wunsch (Rodinia): wavefront DP. Moderately sensitive; reuse
/// distances far beyond G-Cache's 3-bit reach (Table 3: optimal PD 68) —
/// the workload where SPDP-B's oracle distance wins.
#[derive(Clone, Copy, Debug)]
pub struct Nw {
    ctas: usize,
    iters: usize,
    /// Per-warp DP slice in lines; per-set reuse distance ≈ slice × 32
    /// warps / 64 sets.
    slice_lines: u64,
}

impl Nw {
    /// Creates the benchmark at `scale`.
    pub fn new(scale: Scale) -> Self {
        // 2 line touches per iteration over a 64-line slice: 96 iterations
        // walk the slice three times, so every line is re-used twice at
        // reuse distance 64 (≈ 32 per L1 set with 32 warps on 64 sets).
        Nw {
            ctas: scale.ctas(CTAS),
            iters: scale.iters(96),
            slice_lines: 64,
        }
    }
}

impl Kernel for Nw {
    fn name(&self) -> &str {
        "NW"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: TPC,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let w = wid(cta, warp);
        // Each warp cyclically re-walks its own DP slice (the wavefront
        // re-reading the previous diagonal), so every line's reuse distance
        // is the whole slice.
        let k = *self;
        let mut walk = CyclicWalk::new(region(0), k.slice_lines, 0);
        let elems = LINE / 4;
        Box::new(isa::steps(k.iters, move |i, ops| {
            let l1 = w * k.slice_lines + walk.next_line();
            let l2 = w * k.slice_lines + walk.next_line();
            ops.push(coalesced_load(region(0), l1 * elems));
            ops.push(coalesced_load(region(0), l2 * elems));
            ops.push(Op::Compute { cycles: 3 });
            ops.push(coalesced_store(
                region(1),
                (w * k.iters as u64 + i as u64) * 32,
            ));
        }))
    }
}

impl Benchmark for Nw {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "NW",
            description: "Needleman-Wunsch",
            suite: "Rodinia",
            category: Category::Moderate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_well_formed() {
        for b in [
            &Bfs::new(Scale::Test) as &dyn Benchmark,
            &Spmv::new(Scale::Test),
            &Cfd::new(Scale::Test),
            &Nw::new(Scale::Test),
        ] {
            let g = b.grid();
            assert!(g.ctas > 0);
            assert_eq!(g.threads_per_cta % 32, 0);
        }
    }

    #[test]
    fn programs_are_deterministic() {
        let spmv = Spmv::new(Scale::Test);
        let mut a = spmv.warp_program(3, 1);
        let mut b = spmv.warp_program(3, 1);
        for _ in 0..50 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_warps_differ() {
        let bfs = Bfs::new(Scale::Test);
        let ops_a: Vec<_> = std::iter::from_fn(|| bfs.warp_program(0, 0).next_op())
            .take(1)
            .collect();
        let ops_b: Vec<_> = std::iter::from_fn(|| bfs.warp_program(0, 1).next_op())
            .take(1)
            .collect();
        // First op is a frontier load at a warp-specific offset.
        assert_ne!(format!("{ops_a:?}"), format!("{ops_b:?}"));
    }

    #[test]
    fn spmv_mixes_streams_and_hot_gathers() {
        let spmv = Spmv::new(Scale::Paper);
        let mut p = spmv.warp_program(0, 0);
        let mut loads = 0;
        let mut stores = 0;
        while let Some(op) = p.next_op() {
            match op {
                Op::Load { .. } => loads += 1,
                Op::Store { .. } => stores += 1,
                _ => {}
            }
        }
        assert!(loads > 10, "loads {loads}");
        assert!(stores >= 1, "stores {stores}");
    }

    #[test]
    fn nw_walk_revisits_its_slice() {
        use gcache_core::reuse::ReuseProfiler;
        let nw = Nw {
            ctas: 1,
            iters: 200,
            slice_lines: 16,
        };
        let mut prof = ReuseProfiler::new(64);
        let mut p = nw.warp_program(0, 0);
        while let Some(op) = p.next_op() {
            if let Op::Load { addrs } = op {
                // Coalesce first: the cache sees line transactions, not lanes.
                for line in gcache_sim::coalescer::coalesce(&addrs, 128) {
                    prof.record(line);
                }
            }
        }
        // 16-line cycle → every line re-used many times at distance 16.
        let d = prof.mean_distance().expect("reuse exists");
        assert!((15.0..17.0).contains(&d), "mean distance {d}");
    }
}
