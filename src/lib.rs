//! # gcache
//!
//! A full reproduction of *"Adaptive Cache Bypass and Insertion for
//! Many-core Accelerators"* (Chen et al., MES '14 — the **G-Cache**
//! paper), built as three layers re-exported here:
//!
//! * [`core`] ([`gcache_core`]) — the cache substrate and every management
//!   policy the paper evaluates: LRU, SRRIP, static & dynamic PDP,
//!   and G-Cache itself with its victim-bit and bypass-switch hardware
//!   extensions;
//! * [`sim`] ([`gcache_sim`]) — a cycle-level GPU timing simulator (SIMT
//!   cores, warp/CTA scheduling, coalescing, MSHRs, 2D-mesh NoC, banked
//!   L2, FR-FCFS GDDR5 DRAM) reproducing the paper's Table 2 machine;
//! * [`workloads`] ([`gcache_workloads`]) — generators for the 17
//!   benchmarks of Table 1.
//!
//! ## Quick start
//!
//! Run one of the paper's benchmarks under the baseline and under G-Cache
//! and compare:
//!
//! ```
//! use gcache::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spmv = by_name("SPMV", Scale::Test).expect("Table 1 benchmark");
//!
//! let baseline = Gpu::new(GpuConfig::fermi_with_policy(L1PolicyKind::Lru)?)
//!     .run_kernel(spmv.as_ref())?;
//! let gcache = Gpu::new(GpuConfig::fermi_with_policy(
//!     L1PolicyKind::GCache(GCacheConfig::default()),
//! )?)
//! .run_kernel(spmv.as_ref())?;
//!
//! println!("BS IPC {:.3} -> GC IPC {:.3}", baseline.ipc(), gcache.ipc());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and the `gcache-bench` crate for
//! the binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use gcache_core as core;
pub use gcache_sim as sim;
pub use gcache_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use gcache_core::prelude::*;
    pub use gcache_sim::prelude::*;
    pub use gcache_workloads::{by_name, registry, Benchmark, Category, Scale, WorkloadInfo};
}
