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
use crate::spec::wid;
use gcache_sim::isa::{self, Op, WarpProgram};

/// Breadth-First Search (Rodinia). Cache sensitive.
pub(crate) fn bfs(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Hot `visited` lines (graph hubs) contended in L1.
    const HOT_LINES: u64 = 896;
    const SEED: u64 = 0xbf5;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Hub nodes' visited/level flags: a shared hot region revisited by
    // every warp (phase-shifted), per-set footprint ≈ HOT_LINES / 64
    // ≈ the paper's optimal PD of 14 for BFS.
    let mut hubs = CyclicWalk::new(region(3), HOT_LINES, rng.gen_range(0..HOT_LINES));
    let tail_lines = HOT_LINES * 128; // cold graph tail
    Box::new(isa::steps(iters, move |i, ops| {
        let i = i as u64;
        // Frontier chunk: streaming, coalesced.
        ops.push(coalesced_load(region(0), (w * iters as u64 + i) * 32));
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

/// Sparse Matrix-Vector Multiply (Parboil). Cache sensitive; the paper's
/// showcase for G-Cache beating PDP (streaming matrix vs hot vector).
pub(crate) fn spmv(rows: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Lines of the hot `x` vector (≈ 48 KB: thrashes a 32 KB L1, fits 64).
    const X_LINES: u64 = 384;
    const SEED: u64 = 0x59a7;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // The Figure 7 mixture: the matrix streams, the x vector is a hot
    // shared region re-walked by every warp (phase-shifted). Per-set
    // footprint ≈ X_LINES / 64 = 6 — the paper's optimal PD for SPMV.
    let mut x = CyclicWalk::new(region(3), X_LINES, rng.gen_range(0..X_LINES));
    Box::new(isa::steps(rows, move |r, ops| {
        let r = r as u64;
        let row = w * rows as u64 + r;
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

/// CFD Solver (Rodinia): unstructured-mesh neighbour gathers. Moderately
/// sensitive — the mesh footprint is several L1s deep, so only part of the
/// locality is recoverable.
pub(crate) fn cfd(iters: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    const CELL_LINES: u64 = 1536;
    const SEED: u64 = 0xcfd;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    Box::new(isa::steps(iters, move |i, ops| {
        let i = i as u64;
        // Own cell data: streaming (fluxes, normals).
        ops.push(coalesced_load(region(0), (w * iters as u64 + i) * 32));
        ops.push(coalesced_load(region(1), (w * iters as u64 + i) * 32));
        // Neighbour cells: clustered gathers over the shared mesh.
        for _ in 0..2 {
            let base = rng.gen_range(0..CELL_LINES - 8);
            ops.push(gather_load(
                region(2),
                &clustered_indices(&mut rng, base, 8),
            ));
        }
        ops.push(Op::Compute { cycles: 4 });
        ops.push(coalesced_store(region(3), (w * iters as u64 + i) * 32));
    }))
}

/// NW's per-warp DP slice in lines; per-set reuse distance ≈ slice × 32
/// warps / 64 sets. With 2 line touches per iteration, the row's 96
/// iterations walk the 64-line slice three times, so every line is
/// re-used twice at reuse distance 64 (≈ 32 per L1 set with 32 warps on
/// 64 sets).
pub(crate) const NW_SLICE_LINES: u64 = 64;

/// Needleman-Wunsch (Rodinia): wavefront DP. Moderately sensitive; reuse
/// distances far beyond G-Cache's 3-bit reach (Table 3: optimal PD 68) —
/// the workload where SPDP-B's oracle distance wins.
pub(crate) fn nw(iters: usize, cta: usize, warp: usize, slice_lines: u64) -> Box<dyn WarpProgram> {
    let w = wid(cta, warp);
    // Each warp cyclically re-walks its own DP slice (the wavefront
    // re-reading the previous diagonal), so every line's reuse distance
    // is the whole slice.
    let mut walk = CyclicWalk::new(region(0), slice_lines, 0);
    let elems = LINE / 4;
    Box::new(isa::steps(iters, move |i, ops| {
        let l1 = w * slice_lines + walk.next_line();
        let l2 = w * slice_lines + walk.next_line();
        ops.push(coalesced_load(region(0), l1 * elems));
        ops.push(coalesced_load(region(0), l2 * elems));
        ops.push(Op::Compute { cycles: 3 });
        ops.push(coalesced_store(
            region(1),
            (w * iters as u64 + i as u64) * 32,
        ));
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Scale};

    #[test]
    fn programs_are_deterministic() {
        let spmv = by_name("SPMV", Scale::Test).unwrap();
        let mut a = spmv.warp_program(3, 1);
        let mut b = spmv.warp_program(3, 1);
        for _ in 0..50 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_warps_differ() {
        let bfs = by_name("BFS", Scale::Test).unwrap();
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
        let mut p = by_name("SPMV", Scale::Paper).unwrap().warp_program(0, 0);
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
        let mut prof = ReuseProfiler::new(64);
        let mut p = nw(200, 0, 0, 16);
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
