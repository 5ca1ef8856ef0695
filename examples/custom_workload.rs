//! Bring your own kernel: implement [`Kernel`] for an application the
//! workload crate doesn't ship — here, a histogram over skewed data
//! (hot bins contended by every warp + streaming input), then check
//! whether G-Cache helps it.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use gcache::prelude::*;
use gcache_core::addr::Addr;

/// A histogram kernel: streaming input, atomics into a skewed bin array.
struct Histogram {
    ctas: usize,
    items_per_warp: usize,
    hot_bins_lines: u64,
}

impl Kernel for Histogram {
    fn name(&self) -> &str {
        "histogram"
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: 128,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        let wid = (cta * 4 + warp) as u64;
        let (items, hot_lines) = (self.items_per_warp as u64, self.hot_bins_lines);
        // A deterministic pseudo-random walk keyed by the warp id.
        let mut state = wid.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One step per input item: the closure keeps the walk's state from
        // item to item, and the program holds one item's ops at a time.
        Box::new(isa::steps(self.items_per_warp, move |i, ops| {
            let i = i as u64;
            // Input chunk: coalesced stream.
            ops.push(Op::strided_load(Addr::new((wid * items + i) * 128), 4, 32));
            // Bin lookups: 80% of keys land in the hot bins.
            let line = if next() % 10 < 8 {
                next() % hot_lines
            } else {
                hot_lines + next() % (hot_lines * 64)
            };
            ops.push(Op::Load {
                addrs: (0..32)
                    .map(|_| Some(Addr::new((1 << 36) + line * 128)))
                    .collect(),
            });
            // Count bump (coalesced atomic on the same bin line).
            if i.is_multiple_of(4) {
                ops.push(Op::Atomic {
                    addrs: (0..32)
                        .map(|_| Some(Addr::new((1 << 36) + line * 128)))
                        .collect(),
                });
            }
        }))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = Histogram {
        ctas: 32,
        items_per_warp: 24,
        hot_bins_lines: 512,
    };

    println!("Custom kernel '{}' on the Table 2 GPU:\n", kernel.name());
    let bs = Gpu::new(GpuConfig::fermi_with_policy(L1PolicyKind::Lru)?).run_kernel(&kernel)?;
    let gc = Gpu::new(GpuConfig::fermi_with_policy(L1PolicyKind::GCache(
        GCacheConfig::default(),
    ))?)
    .run_kernel(&kernel)?;

    println!("{bs}\n");
    println!("{gc}\n");
    println!(
        "verdict: G-Cache {} this kernel ({:+.1}% IPC)",
        if gc.ipc() >= bs.ipc() {
            "helps"
        } else {
            "does not help"
        },
        (gc.speedup_over(&bs) - 1.0) * 100.0
    );
    Ok(())
}
