//! ML-era kernels: **GEMM**, **CONV**, **ATTN**.
//!
//! These extend the paper's Table 1 zoo with the access patterns that
//! dominate accelerator workloads a decade later, each tagged with the
//! [`RequestClass`] hints a HyDRA-style compiler would emit
//! ([`Op::SetClass`]), so the composable policy planes have something to
//! act on:
//!
//! * GEMM — tiled matrix multiply: both operand tiles are hot shared
//!   regions re-walked every k-step (short reuse distances, *Cache
//!   Sensitive*), the C output streams out once. Tile loads are declared
//!   `Relaxed/High`, the output `Relaxed/Streaming`.
//! * CONV — convolution/pooling: a window slides along input rows, so
//!   each input line is re-read a window-width number of times at a
//!   moderate distance before retiring (*Moderately Sensitive*); the tiny
//!   filter taps are always resident. Windows are declared
//!   `Tight/Moderate` (inference deadline, modest reuse) — exactly the
//!   class the HyDRA plane refuses to cache.
//! * ATTN — attention softmax row-scan: per query, a small hot Q/softmax
//!   tile (`Relaxed/High`) is consulted while the K/V panel — far larger
//!   than the L1 — streams through once per row (`Tight/Streaming`,
//!   *Cache Insensitive* at L1 reach). The declared-streaming scan is the
//!   bypass plane's headline win: it stops the panel from thrashing the
//!   hot tile.
//!
//! The declared sensitivity class of each kernel is verified against its
//! *measured* reuse-distance profile in this module's tests, mirroring
//! the Table 1 calibration of the original zoo.

use crate::gen::{coalesced_load, coalesced_store, region, warp_rng, CyclicWalk};
use crate::spec::wid;
use gcache_core::policy::{RequestClass, ReuseClass, SlackBucket};
use gcache_sim::isa::{self, Op, WarpProgram};

fn set_class(slack: SlackBucket, reuse: ReuseClass) -> Op {
    Op::SetClass {
        class: Some(RequestClass { slack, reuse }),
    }
}

/// Tiled dense matrix multiply (the BLAS-3 workhorse behind every
/// fully-connected layer). Cache sensitive: the A and B tiles are re-read
/// every k-step at tile-sized reuse distance.
pub(crate) fn gemm(k_steps: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Lines per operand tile (shared per grid; ~24 KB each).
    const TILE_LINES: u64 = 96;
    const SEED: u64 = 0x6e44;
    let mut rng = warp_rng(SEED, cta, warp);
    let w = wid(cta, warp);
    // Phase-shifted walks over the two shared operand tiles.
    let mut a = CyclicWalk::new(region(0), TILE_LINES, rng.gen_range(0..TILE_LINES));
    let mut b = CyclicWalk::new(region(1), TILE_LINES, rng.gen_range(0..TILE_LINES));
    Box::new(isa::steps(k_steps, move |k, ops| {
        let k = k as u64;
        if k == 0 {
            ops.push(set_class(SlackBucket::Relaxed, ReuseClass::High));
        }
        // One A row and one B column stripe per k-step: the walks wrap
        // the shared tiles every `TILE_LINES / 8` steps, so every tile
        // line carries a tile-sized reuse distance.
        for _ in 0..8 {
            ops.push(a.next_coalesced());
            ops.push(b.next_coalesced());
        }
        ops.push(Op::Compute { cycles: 8 });
        // Epilogue every few steps: the C tile streams out once.
        if (k + 1).is_multiple_of(4) {
            ops.push(set_class(SlackBucket::Relaxed, ReuseClass::Streaming));
            ops.push(coalesced_store(region(2), (w * k_steps as u64 + k) * 32));
            ops.push(set_class(SlackBucket::Relaxed, ReuseClass::High));
        }
    }))
}

/// Convolution / pooling with a sliding window: each input line is
/// re-read `WINDOW` times at a row-stride distance, then never again.
/// Moderately sensitive — reuse exists but retires quickly.
pub(crate) fn conv(outputs: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Sliding-window width in lines.
    const WINDOW: u64 = 3;
    /// Filter-tap lines (tiny, always resident).
    const TAP_LINES: u64 = 4;
    let w = wid(cta, warp);
    let elems = 32; // elements per line
    let mut taps = CyclicWalk::new(region(2), TAP_LINES, w % TAP_LINES);
    // Each warp owns one input row; rows do not alias across warps.
    let row_base = w * (outputs as u64 + WINDOW);
    Box::new(isa::steps(outputs, move |o, ops| {
        let o = o as u64;
        // The sliding window: lines [o, o + WINDOW) of this warp's row.
        // Line o+WINDOW-1 is new; the rest are re-reads of recent lines.
        ops.push(set_class(SlackBucket::Tight, ReuseClass::Moderate));
        for t in 0..WINDOW {
            ops.push(coalesced_load(region(0), (row_base + o + t) * elems));
        }
        // Filter taps: tiny hot set.
        ops.push(set_class(SlackBucket::Tight, ReuseClass::High));
        ops.push(taps.next_broadcast());
        ops.push(Op::Compute { cycles: 4 });
        // One output element per position: streaming store.
        ops.push(set_class(SlackBucket::Tight, ReuseClass::Streaming));
        ops.push(coalesced_store(region(1), (row_base + o) * elems));
    }))
}

/// K/V panel lines ATTN scans per query.
const ATTN_SCAN_LINES: u64 = 48;

/// Attention softmax row-scan: a hot per-warp query/accumulator tile is
/// consulted while the K/V panel — far larger than the L1 — streams
/// through once per query. Cache insensitive at L1 reach: the panel's
/// reuse distance is the panel size.
pub(crate) fn attn(queries: usize, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
    /// Total K/V panel lines (shared; far exceeds the L1).
    const PANEL_LINES: u64 = 8192;
    /// Hot query/softmax accumulator lines per warp.
    const Q_LINES: u64 = 8;
    let mut rng = warp_rng(0xa77, cta, warp);
    let w = wid(cta, warp);
    let elems = 32;
    // Each warp's scan window starts at a random phase of the shared
    // panel, so panel lines really do carry panel-sized distances.
    let mut kv = CyclicWalk::new(region(0), PANEL_LINES, rng.gen_range(0..PANEL_LINES));
    let mut q = CyclicWalk::new(region(1), Q_LINES, 0);
    // One step per scan line, query-major: a whole query's scan is 60
    // memory ops, too many for every resident warp to hold at once.
    let scan_steps = queries * ATTN_SCAN_LINES as usize;
    Box::new(isa::steps(scan_steps, move |step, ops| {
        let (qy, s) = (step as u64 / ATTN_SCAN_LINES, step as u64 % ATTN_SCAN_LINES);
        // K/V panel: declared streaming — one visit per query.
        ops.push(set_class(SlackBucket::Tight, ReuseClass::Streaming));
        ops.push(kv.next_coalesced());
        // Softmax accumulator: the hot tile the scan thrashes,
        // touched once per few panel lines.
        if s.is_multiple_of(4) {
            ops.push(set_class(SlackBucket::Relaxed, ReuseClass::High));
            ops.push(q.next_broadcast());
        }
        // The query's last scan line: normalise and write its row out.
        if s + 1 == ATTN_SCAN_LINES {
            ops.push(Op::Compute { cycles: 6 });
            ops.push(set_class(SlackBucket::Relaxed, ReuseClass::Streaming));
            ops.push(coalesced_store(
                region(2),
                (w * queries as u64 + qy) * elems,
            ));
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_name, Scale, ML_KERNELS};
    use gcache_core::reuse::ReuseProfiler;

    fn profile_loads(name: &str, depth: usize) -> ReuseProfiler {
        let mut prof = ReuseProfiler::new(depth);
        let mut p = by_name(name, Scale::Paper).unwrap().warp_program(0, 0);
        while let Some(op) = p.next_op() {
            if let Op::Load { addrs } = op {
                for line in gcache_sim::coalescer::coalesce(&addrs, 128) {
                    prof.record(line);
                }
            }
        }
        prof
    }

    /// GEMM's declared class is Sensitive: tile-sized (short) reuse
    /// distances dominate the measured histogram.
    #[test]
    fn gemm_profile_matches_sensitive_class() {
        let prof = profile_loads("GEMM", 512);
        let d = prof.mean_distance().expect("tiles are re-walked");
        // Two interleaved 96-line tile walks: per-tile distance ≈ 2×96.
        assert!(
            (120.0..300.0).contains(&d),
            "GEMM mean reuse distance {d}, expected tile-sized (~192)"
        );
        assert!(
            prof.single_use_fraction() < 0.3,
            "a sensitive kernel's lines are mostly re-used, got {}",
            prof.single_use_fraction()
        );
    }

    /// CONV's declared class is Moderate: every input line is re-read
    /// window−1 times at short distance, then retires for good.
    #[test]
    fn conv_profile_matches_moderate_class() {
        let prof = profile_loads("CONV", 256);
        let d = prof.mean_distance().expect("windows re-read lines");
        assert!(d < 16.0, "CONV window re-reads are near-immediate, got {d}");
        // Window width 3: each input line is seen ~3 times (plus the hot
        // taps), so the mean sits well above single-use but below hot-table
        // territory.
        let mean_uses = prof.mean_accesses_per_line();
        assert!(
            (2.0..6.0).contains(&mean_uses),
            "CONV mean accesses per line {mean_uses}, expected window-sized"
        );
    }

    /// ATTN's declared class is Insensitive: the K/V panel scan carries
    /// panel-sized distances (beyond any L1 protection reach), so most
    /// recorded distances overflow a generous profiler window.
    #[test]
    fn attn_profile_matches_insensitive_class() {
        let prof = profile_loads("ATTN", 1024);
        let row = ML_KERNELS.iter().find(|row| row.info.name == "ATTN");
        let queries = row.expect("ATTN row").loops as u64;
        // The hot Q tile produces short-distance hits, but panel re-visits
        // (distance ≈ 8192) must overflow the 1024-deep window.
        let panel_revisits = prof.overflow_accesses();
        let near = prof.distance_histogram().iter().sum::<u64>();
        assert!(
            prof.footprint() as u64 > ATTN_SCAN_LINES * queries / 2,
            "panel scan must keep touching fresh lines"
        );
        assert!(
            near > 0,
            "the hot Q tile must produce short-distance re-uses"
        );
        assert_eq!(
            panel_revisits, 0,
            "one warp never wraps the 8192-line panel at test scale"
        );
        // Panel lines are visited once per warp: excluding the q_lines hot
        // tile, the single-use fraction is high.
        assert!(
            prof.single_use_fraction() > 0.5,
            "insensitive kernel must be dominated by single-use lines, got {}",
            prof.single_use_fraction()
        );
    }

    /// Every ML kernel declares its phase classes through `Op::SetClass`
    /// (the plumbing the policy planes act on), and class tags precede the
    /// first global-memory op.
    #[test]
    fn ml_kernels_declare_request_classes() {
        for name in ["GEMM", "CONV", "ATTN"] {
            let k = by_name(name, Scale::Test).unwrap();
            let mut p = k.warp_program(0, 0);
            let mut mem_seen = false;
            let mut unclassified_mem = false;
            let mut classes = std::collections::HashSet::new();
            while let Some(op) = p.next_op() {
                match op {
                    Op::SetClass { class: Some(c) } => {
                        classes.insert((c.slack as u8, c.reuse as u8));
                    }
                    ref op if op.is_global_mem() => {
                        if classes.is_empty() {
                            unclassified_mem = true;
                        }
                        mem_seen = true;
                    }
                    _ => {}
                }
            }
            assert!(mem_seen, "{name}: kernel must touch memory");
            assert!(
                !unclassified_mem,
                "{name}: first memory op must already be classified"
            );
            assert!(
                classes.len() >= 2,
                "{name}: phases must carry distinct classes"
            );
        }
    }

    #[test]
    fn deterministic_generation() {
        for name in ["GEMM", "CONV", "ATTN"] {
            let k = by_name(name, Scale::Test).unwrap();
            let mut a = k.warp_program(2, 3);
            let mut b = k.warp_program(2, 3);
            for _ in 0..30 {
                assert_eq!(a.next_op(), b.next_op(), "{name} not deterministic");
            }
        }
    }
}
