//! # gcache-sim
//!
//! A cycle-level many-core-accelerator (GPU) timing simulator built from
//! scratch for the G-Cache reproduction (Chen et al., MES '14). It models
//! the full memory system of the paper's Figure 1 / Table 2:
//!
//! * **SIMT cores** — warp contexts, LRR/GTO warp schedulers, CTA barrier
//!   semantics, an LD/ST unit with a coalescing stage;
//! * **L1 memory** — per-core write-through/no-allocate data caches with
//!   MSHRs and any [`gcache_core`] management policy (LRU, SRRIP, G-Cache,
//!   PDP);
//! * **interconnect** — separate request/response 2D meshes with XY
//!   routing, bounded router queues and 32 B-channel serialisation;
//! * **memory partitions** — write-back/write-allocate L2 banks carrying
//!   the G-Cache victim-bit extension, atomic-operation units, and
//!   FR-FCFS GDDR5 DRAM channels.
//!
//! Kernels are *abstract instruction streams* ([`isa::Kernel`] /
//! [`isa::WarpProgram`]); see the `gcache-workloads` crate for generators
//! reproducing the paper's 17 benchmarks.
//!
//! ## Quick start
//!
//! ```
//! use gcache_sim::config::{GpuConfig, L1PolicyKind};
//! use gcache_sim::gpu::Gpu;
//! use gcache_sim::isa::{self, GridDim, Kernel, Op, WarpProgram};
//! use gcache_core::addr::Addr;
//! use gcache_core::policy::gcache::GCacheConfig;
//!
//! struct Stream;
//! impl Kernel for Stream {
//!     fn name(&self) -> &str { "stream" }
//!     fn grid(&self) -> GridDim { GridDim { ctas: 4, threads_per_cta: 64 } }
//!     fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
//!         let tid = cta * 2 + warp;
//!         // Eight loop steps of one load each, made as the warp gets to them.
//!         Box::new(isa::steps(8, move |i, ops| {
//!             ops.push(Op::strided_load(Addr::new(((tid * 8 + i) * 128) as u64), 4, 32));
//!         }))
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = GpuConfig::fermi_with_policy(L1PolicyKind::GCache(GCacheConfig::default()))?;
//! let stats = Gpu::new(cfg).run_kernel(&Stream)?;
//! println!("{stats}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clocked;
pub mod coalescer;
pub mod config;
pub mod core;
pub mod dram;
pub mod energy;
pub mod gpu;
pub mod icnt;
pub mod isa;
pub mod l15;
pub mod partition;
pub mod port;
pub mod request;
pub mod scheduler;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod xbar;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::clocked::{Clocked, Watchdog};
    pub use crate::config::{DramTiming, GpuConfig, Hierarchy, L1PolicyKind, WarpSchedKind};
    pub use crate::energy::{EnergyBreakdown, EnergyModel};
    pub use crate::gpu::{Gpu, SimError};
    pub use crate::isa::{self, GridDim, Kernel, Op, StepProgram, TraceProgram, WarpProgram};
    pub use crate::port::{RxPort, TxPort};
    pub use crate::stats::{geomean, SimStats};
    pub use crate::system::{ClusterComplex, CoreComplex, Interconnect, MemorySystem, Topology};
    pub use crate::telemetry::{Profile, Sample, Sampler, TelemetrySnapshot};
    pub use crate::xbar::{ClusterXbar, XbarStats};
}
