//! # gcache-workloads
//!
//! Synthetic kernel generators reproducing the memory-access patterns of
//! the 17 benchmarks evaluated in the G-Cache paper (Table 1): Rodinia,
//! Parboil, Mars (MapReduce), PolyBench and CUDA SDK applications, plus
//! three ML-era kernels (GEMM, CONV, ATTN) kept in a registry of their
//! own.
//!
//! The real benchmarks are CUDA programs; this crate substitutes each with
//! a deterministic generator that emits the same *locality structure* —
//! streaming vs hot-table vs thrashing mixtures, coalesced vs divergent
//! shapes, and per-benchmark reuse-distance scales (calibrated against the
//! optimal protection distances of the paper's Table 3). Cache-management
//! studies are sensitive to exactly these properties of the address
//! stream; see DESIGN.md §2 for the substitution argument.
//!
//! ## Quick start
//!
//! ```
//! use gcache_workloads::spec::{registry, by_name, Category, Scale};
//! use gcache_sim::config::GpuConfig;
//! use gcache_sim::gpu::Gpu;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Run one benchmark...
//! let spmv = by_name("SPMV", Scale::Test).expect("table 1 benchmark");
//! let stats = Gpu::new(GpuConfig::fermi()?).run_kernel(spmv.as_ref())?;
//! assert!(stats.l1.accesses() > 0);
//!
//! // ...or iterate the whole of Table 1.
//! for b in registry(Scale::Test) {
//!     let info = b.info();
//!     println!("{:5} {:?}", info.name, info.category);
//! }
//! # Ok(())
//! # }
//! ```

//!
//! ## Adding a kernel
//!
//! From outside this crate, implement [`gcache_sim::isa::Kernel`] (and
//! [`Benchmark`] if the harness should list it) for a type of your own,
//! as `examples/custom_workload.rs` does. Inside it a built-in kernel is
//! not a type but two declarations:
//!
//! 1. the generator, in the module it belongs to ([`graph`], [`linalg`],
//!    [`mapreduce`], [`stencil`], [`ml`]): a `pub(crate) fn name(loops,
//!    cta, warp) -> Box<dyn WarpProgram>` whose body is one
//!    [`gcache_sim::isa::steps`] closure, with its fixed sizes and seed
//!    as documented `const`s beside it;
//! 2. the row, in `spec.rs`'s `TABLE_1` (or `ML_KERNELS`): name,
//!    description, suite, [`Category`], paper-scale CTAs and loop trips,
//!    and that function.
//!
//! [`registry`], [`by_name`], `Kernel::name`, the harness's `--bench`
//! filter and Table 1 all read the row; `tests/signatures.rs` then pins
//! the new op stream.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod graph;
pub mod linalg;
pub mod mapreduce;
pub mod ml;
pub mod spec;
pub mod stencil;

pub use spec::{by_name, ml_registry, registry, Benchmark, Category, Scale, WorkloadInfo};
