//! # gcache-core
//!
//! The cache substrate and management policies of **G-Cache** — a
//! reproduction of *"Adaptive Cache Bypass and Insertion for Many-core
//! Accelerators"* (Chen et al., MES '14).
//!
//! This crate is self-contained and usable without the GPU simulator: it
//! models set-associative caches at the granularity of line addresses and
//! exposes every management policy evaluated in the paper behind one trait.
//!
//! ## The G-Cache design in one paragraph
//!
//! GPU L1 caches thrash: tens of warps share a few KB, so lines are evicted
//! before re-use and locality information never accumulates. G-Cache reuses
//! the **L2 tag array** to collect it instead — each L2 line carries
//! per-core *victim bits* ([`victim_bits::VictimBits`]); a second request
//! from the same core for a recently served line proves the L1 evicted it
//! early. That hint opens a per-set *bypass switch* in the L1
//! ([`policy::gcache::GCache`]), which then refuses to cache incoming
//! blocks while every resident line is hot (low RRPV), ageing residents on
//! each bypass so the set cannot be locked forever.
//!
//! ## Quick start
//!
//! ```
//! use gcache_core::prelude::*;
//!
//! # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
//! // A 32 KB, 4-way L1 under the G-Cache policy.
//! let geom = CacheGeometry::new(32 * 1024, 4, 128)?;
//! let mut l1 = Cache::new(CacheConfig::l1(geom, 4096), GCache::with_defaults(&geom));
//!
//! let line = Addr::new(0x1_0000).to_line(128);
//! if let Lookup::Miss = l1.access(line, AccessKind::Read, CoreId(0)) {
//!     // fetch from L2, then fill with the victim hint the L2 returned:
//!     l1.fill(AccessCtx::plain(line, CoreId(0)), false);
//! }
//! assert!(l1.contains(line));
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`addr`], [`geometry`], [`line`](mod@line) | addresses, cache shapes, line state |
//! | [`tag_array`] | the set-associative tag store |
//! | [`mshr`] | miss-status holding registers with merging |
//! | [`policy`] | LRU, SRRIP, G-Cache, static & dynamic PDP |
//! | [`victim_bits`] | the L2 tag extension of §4.1 |
//! | [`cache`] | the assembled cache (lookup / fill / flush) |
//! | [`controller`] | cache + MSHRs + the generic miss-handling machine (admit, then commit) |
//! | [`reuse`] | offline reuse profiling (Figure 2 infrastructure) |
//! | [`trace`](mod@trace) | opt-in structured event tracing (sinks, ring buffer, text dumper) |
//! | [`trace_export`] | trace ring → Chrome `trace_event` JSON (Perfetto-loadable timelines) |
//! | [`json`] | minimal JSON reader/escaper shared by the observability tooling |
//! | [`snapshot`] | versioned checkpoint format (writer/reader, sections, checksums) |
//! | [`overhead`] | the storage-cost arithmetic of §4.3 |
//! | [`stats`] | counters and reuse histograms |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod controller;
pub mod geometry;
pub mod json;
pub mod line;
pub mod mshr;
pub mod overhead;
pub mod policy;
pub mod reuse;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod tag_array;
pub mod trace;
pub mod trace_export;
pub mod victim_bits;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::addr::{Addr, CoreId, LineAddr, PartitionId};
    pub use crate::cache::{
        BypassPlane, Cache, CacheConfig, CopyBackPlane, FillOutcome, Lookup, WriteMode,
    };
    pub use crate::controller::{
        Admission, AtomicHandling, CacheController, ControllerOutcome, FillParams,
    };
    pub use crate::geometry::CacheGeometry;
    pub use crate::mshr::{MshrAlloc, MshrFile, MshrReject};
    pub use crate::policy::gcache::{GCache, GCacheConfig};
    pub use crate::policy::lru::Lru;
    pub use crate::policy::pdp::Pdp;
    pub use crate::policy::pdp_dyn::DynamicPdpConfig;
    pub use crate::policy::rrip::Rrip;
    pub use crate::policy::{
        AccessCtx, AccessKind, FillDecision, PolicyKind, ReplacementPolicy, RequestClass,
        ReuseClass, SlackBucket,
    };
    pub use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
    pub use crate::stats::CacheStats;
    pub use crate::trace::{
        dump_filtered, SharedTraceRing, TraceEvent, TraceFilter, TraceKind, TraceLevel,
        TraceSource, Tracer,
    };
}
