//! `seeded_rw`'s kernel: the one workload whose inputs `--seed` changes.
//!
//! The Table-1 generators hard-wire their seeds, so a change tuned against
//! them has no data held back from tuning. This kernel draws every
//! address from the benchmark's seed: per item one coalesced stream load,
//! one skewed gather into a hot table four times the 32 KB L1 (it fits
//! the L2), a coalesced store every 3rd item and an atomic scatter every
//! 8th — the only real atomic stream in the benchmark.

use gcache_sim::isa::{GridDim, Kernel, Op, WarpProgram};
use gcache_workloads::gen::{
    clustered_indices, coalesced_load, coalesced_store, gather_load, region, scatter_atomic,
    skewed_index, warp_rng, LINE,
};
use gcache_workloads::{Benchmark, Category, WorkloadInfo};
use std::collections::VecDeque;

const CTAS: usize = 128;
const WARPS_PER_CTA: usize = 4;
/// Items per warp, sized so one design point costs about a second of
/// host time on the reference host.
const ITEMS: u64 = 224;
/// Hot table: 4 × the 32 KB L1, in lines.
const TABLE_LINES: u64 = 4 * 32 * 1024 / LINE;
/// The eighth of the table that draws most gathers.
const HOT_LINES: u64 = TABLE_LINES / 8;
/// Lines a gather's lanes fan out over.
const GATHER_SPAN: u64 = 4;
/// Histogram the atomics scatter into, in lines.
const HIST_LINES: u64 = 64;

/// The seeded read/write kernel.
#[derive(Clone, Copy, Debug)]
pub struct SeededRw {
    seed: u64,
}

impl SeededRw {
    /// The kernel whose address streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        SeededRw { seed }
    }
}

impl Kernel for SeededRw {
    fn name(&self) -> &str {
        "SRW"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: CTAS,
            threads_per_cta: WARPS_PER_CTA * 32,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        Box::new(RwProgram {
            rng: warp_rng(self.seed, cta, warp),
            warp_id: (cta * WARPS_PER_CTA + warp) as u64,
            item: 0,
            pending: VecDeque::with_capacity(5),
        })
    }
}

impl Benchmark for SeededRw {
    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "SRW",
            description: "Seeded stream + skewed gather + store + atomic scatter",
            suite: "gcache-perf",
            category: Category::Moderate,
        }
    }
}

/// Generates one item's ops at a time, so a resident warp holds a handful
/// of ops rather than its whole stream.
struct RwProgram {
    rng: gcache_core::rng::SmallRng,
    warp_id: u64,
    item: u64,
    pending: VecDeque<Op>,
}

impl WarpProgram for RwProgram {
    fn next_op(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            if self.item == ITEMS {
                return None;
            }
            let elem = (self.warp_id * ITEMS + self.item) * 32;
            self.pending.push_back(coalesced_load(region(0), elem));
            let base = skewed_index(&mut self.rng, HOT_LINES, TABLE_LINES - GATHER_SPAN, 0.75);
            let idx = clustered_indices(&mut self.rng, base, GATHER_SPAN);
            self.pending.push_back(gather_load(region(1), &idx));
            self.pending.push_back(Op::Compute { cycles: 4 });
            if self.item % 3 == 2 {
                self.pending.push_back(coalesced_store(region(2), elem));
            }
            if self.item % 8 == 7 {
                let line = self.rng.gen_range(0..HIST_LINES - 1);
                let idx = clustered_indices(&mut self.rng, line, 2);
                self.pending.push_back(scatter_atomic(region(3), &idx));
            }
            self.item += 1;
        }
        self.pending.pop_front()
    }
}
