//! Simulator configuration (the paper's Table 2).

use crate::system::Topology;
use gcache_core::cache::{BypassPlane, CopyBackPlane};
use gcache_core::geometry::{CacheGeometry, GeometryError};
use gcache_core::policy::gcache::{GCache, GCacheConfig};
use gcache_core::policy::lru::Lru;
use gcache_core::policy::pdp::StaticPdp;
use gcache_core::policy::pdp_dyn::{DynamicPdp, DynamicPdpConfig};
use gcache_core::policy::rrip::Rrip;
use gcache_core::policy::PolicyKind;
use std::fmt;

/// Which L1 management policy a design point uses (§5's design names).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum L1PolicyKind {
    /// `BS` — baseline LRU.
    Lru,
    /// `BS-S` — static RRIP with the given RRPV width (paper: 3).
    Srrip {
        /// RRPV width in bits.
        bits: u8,
    },
    /// `GC` — the paper's G-Cache policy.
    GCache(GCacheConfig),
    /// `SPDP-B` — static PDP with bypass at a fixed protection distance.
    StaticPdp {
        /// Protection distance in set accesses.
        pd: u16,
    },
    /// `PDP-3` / `PDP-8` — dynamic PDP.
    DynamicPdp(DynamicPdpConfig),
}

impl L1PolicyKind {
    /// The short design name used in the paper's figures.
    pub fn design_name(&self) -> &'static str {
        match self {
            L1PolicyKind::Lru => "BS",
            L1PolicyKind::Srrip { .. } => "BS-S",
            L1PolicyKind::GCache(_) => "GC",
            L1PolicyKind::StaticPdp { .. } => "SPDP-B",
            L1PolicyKind::DynamicPdp(cfg) => match cfg.counter_bits {
                3 => "PDP-3",
                8 => "PDP-8",
                _ => "PDP-dyn",
            },
        }
    }
}

/// Builds the L1 policy for a design point (enum-dispatched: the hooks
/// run on every cache access, so no `Box<dyn>` vtable on that path).
pub fn make_l1_policy(kind: &L1PolicyKind, geom: &CacheGeometry) -> PolicyKind {
    match kind {
        L1PolicyKind::Lru => Lru::new(geom).into(),
        L1PolicyKind::Srrip { bits } => Rrip::srrip(geom, *bits).into(),
        L1PolicyKind::GCache(cfg) => GCache::new(geom, *cfg).into(),
        L1PolicyKind::StaticPdp { pd } => StaticPdp::new(geom, *pd).into(),
        L1PolicyKind::DynamicPdp(cfg) => DynamicPdp::new(geom, *cfg).into(),
    }
}

/// The shape of the on-chip cache hierarchy — a sweepable design axis.
///
/// `Flat` is Table 2's machine: private L1s talk straight to the L2 banks
/// over the mesh. `SharedL15` interposes a cluster-shared cache level: every
/// `cluster_size` consecutive cores route their memory traffic through one
/// write-through/no-allocate L1.5 sitting on its own mesh node (see
/// [`crate::l15`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Hierarchy {
    /// Private L1s directly over the L2 banks (Table 2's default).
    #[default]
    Flat,
    /// Core clusters with a shared L1.5 between the L1s and the L2.
    SharedL15 {
        /// Cores per cluster (must evenly divide the core count).
        cluster_size: usize,
        /// Capacity of each shared L1.5 in KB (a power of two).
        kb: u64,
    },
}

/// Associativity of the shared L1.5 (fixed organisation, between the L1's
/// 4 ways and the L2 bank's 16).
const L15_WAYS: u32 = 8;

impl Hierarchy {
    /// Number of cluster nodes this hierarchy adds to the mesh (0 = flat,
    /// and for the cluster size of zero no machine is built with).
    pub const fn clusters(&self, cores: usize) -> usize {
        match self {
            Hierarchy::SharedL15 { cluster_size, .. } if *cluster_size > 0 => cores / *cluster_size,
            _ => 0,
        }
    }

    /// Short shape label for sweep tables: `flat`, `c4/64KB`.
    pub fn label(&self) -> String {
        match self {
            Hierarchy::Flat => "flat".to_string(),
            Hierarchy::SharedL15 { cluster_size, kb } => format!("c{cluster_size}/{kb}KB"),
        }
    }
}

/// Warp scheduling discipline (§2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WarpSchedKind {
    /// Loose round-robin (the paper's configuration).
    #[default]
    Lrr,
    /// Greedy-then-oldest.
    Gto,
}

/// GDDR5 timing parameters in DRAM-clock cycles (Table 2's bottom row).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency.
    pub t_cl: u32,
    /// Row precharge.
    pub t_rp: u32,
    /// Row cycle (ACT-to-ACT, same bank).
    pub t_rc: u32,
    /// Row active time (ACT-to-PRE minimum).
    pub t_ras: u32,
    /// RAS-to-CAS delay.
    pub t_rcd: u32,
    /// ACT-to-ACT, different banks.
    pub t_rrd: u32,
    /// Data-bus cycles to transfer one 128 B line.
    pub t_burst: u32,
}

impl Default for DramTiming {
    fn default() -> Self {
        // Table 2: GDDR5 1.4 GHz, tCL=12, tRP=12, tRC=40, tRAS=28,
        // tRCD=12, tRRD=6; 128 B over a 32 B/cycle channel = 4 cycles.
        DramTiming {
            t_cl: 12,
            t_rp: 12,
            t_rc: 40,
            t_ras: 28,
            t_rcd: 12,
            t_rrd: 6,
            t_burst: 4,
        }
    }
}

/// Full GPU configuration. [`GpuConfig::fermi`] reproduces Table 2.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of SIMT cores.
    pub cores: usize,
    /// Threads per warp (SIMT width).
    pub warp_width: usize,
    /// Maximum resident warps per core.
    pub max_warps_per_core: usize,
    /// Maximum resident threads per core.
    pub max_threads_per_core: usize,
    /// Maximum resident CTAs per core.
    pub max_ctas_per_core: usize,
    /// L1 data cache geometry (per core).
    pub l1_geometry: CacheGeometry,
    /// L1 management policy (the design point under evaluation).
    pub l1_policy: L1PolicyKind,
    /// L1 MSHR entries per core.
    pub l1_mshr_entries: usize,
    /// Maximum merged targets per L1 MSHR entry.
    pub l1_mshr_merge: usize,
    /// L1 policy epoch length in accesses (bypass-switch reset period).
    pub l1_epoch_len: u64,
    /// L1 fill-time class-driven bypass plane (orthogonal to
    /// `l1_policy`); `BypassPlane::Policy` is the pass-through default.
    pub l1_bypass: BypassPlane,
    /// L1 eviction-time clean copy-back plane;
    /// `CopyBackPlane::Policy` (with every built-in policy's default
    /// drop) is the classical behaviour.
    pub l1_copy_back: CopyBackPlane,
    /// Number of memory partitions (L2 banks / memory controllers).
    pub partitions: usize,
    /// Geometry of each L2 bank.
    pub l2_geometry: CacheGeometry,
    /// L2 MSHR entries per bank.
    pub l2_mshr_entries: usize,
    /// Maximum merged targets per L2 MSHR entry.
    pub l2_mshr_merge: usize,
    /// Core cycles between L2 bank ticks (2 models the 700 MHz L2 under a
    /// 1.4 GHz core clock).
    pub l2_period: u64,
    /// L2 pipeline latency in core cycles (tag + data access).
    pub l2_latency: u64,
    /// Victim-bit sharing factor `S_v` (1 = private bit per core).
    pub victim_bit_share: usize,
    /// Shape of the cache hierarchy (flat, or cluster-shared L1.5s).
    pub hierarchy: Hierarchy,
    /// L1.5 pipeline latency in core cycles (tag + data access); only
    /// meaningful under [`Hierarchy::SharedL15`].
    pub l15_latency: u64,
    /// Transfer ports per lane of each cluster's core↔L1.5 crossbar; only
    /// meaningful under [`Hierarchy::SharedL15`]. `1` (the default) keeps
    /// the legacy wiring through the cluster's single mesh injection port —
    /// the serialization-equivalent setting, bit-identical to the
    /// pre-crossbar model — while `≥ 2` interposes a
    /// [`crate::xbar::ClusterXbar`] so intra-cluster traffic no longer
    /// funnels through one port.
    pub cluster_ports: usize,
    /// Mesh width (nodes per row); cores then partitions are placed
    /// row-major. `mesh_width × mesh_height ≥ cores + partitions`.
    pub mesh_width: usize,
    /// Mesh height.
    pub mesh_height: usize,
    /// Channel width in bytes (flit size).
    pub channel_bytes: u32,
    /// Router input-queue depth in packets.
    pub router_queue: usize,
    /// Per-hop router latency in core cycles.
    pub hop_latency: u64,
    /// DRAM banks per memory controller.
    pub dram_banks: usize,
    /// DRAM row size in bytes.
    pub dram_row_bytes: u32,
    /// DRAM controller queue depth.
    pub dram_queue: usize,
    /// GDDR5 timing.
    pub dram_timing: DramTiming,
    /// Warp scheduler.
    pub warp_sched: WarpSchedKind,
    /// Scratchpad (shared-memory) access latency in core cycles.
    pub shared_latency: u32,
    /// Atomic-operation-unit service time per access, in core cycles.
    pub atomic_latency: u64,
    /// Hard cap on simulated cycles (guards against livelock); `run_kernel`
    /// errors out beyond this.
    pub max_cycles: u64,
    /// Skip provably idle cycles by jumping the global clock to the next
    /// component event (see `clocked`'s module docs). Results are
    /// bit-identical either way; disable to cross-check or to profile the
    /// plain cycle loop.
    pub fast_forward: bool,
}

impl GpuConfig {
    /// The paper's baseline configuration (Table 2): 16 cores, 32 KB 4-way
    /// L1s, 8 × 128 KB 16-way L2 banks, 2D mesh, FR-FCFS GDDR5.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the cache shapes are invalid (they are
    /// not, for the built-in constants — the error type is exposed so
    /// callers tweaking geometries get validation for free).
    pub fn fermi() -> Result<Self, GeometryError> {
        Ok(GpuConfig {
            cores: 16,
            warp_width: 32,
            max_warps_per_core: 48,
            max_threads_per_core: 1536,
            max_ctas_per_core: 8,
            l1_geometry: CacheGeometry::new(32 * 1024, 4, 128)?,
            l1_policy: L1PolicyKind::Lru,
            l1_mshr_entries: 32,
            l1_mshr_merge: 8,
            l1_epoch_len: 512,
            l1_bypass: BypassPlane::Policy,
            l1_copy_back: CopyBackPlane::Policy,
            partitions: 8,
            l2_geometry: CacheGeometry::new(128 * 1024, 16, 128)?,
            l2_mshr_entries: 32,
            l2_mshr_merge: 8,
            l2_period: 2,
            l2_latency: 24,
            victim_bit_share: 1,
            hierarchy: Hierarchy::Flat,
            l15_latency: 12,
            cluster_ports: 1,
            mesh_width: 6,
            mesh_height: 4,
            channel_bytes: 32,
            router_queue: 8,
            hop_latency: 2,
            dram_banks: 4,
            dram_row_bytes: 2048,
            dram_queue: 32,
            dram_timing: DramTiming::default(),
            warp_sched: WarpSchedKind::Lrr,
            shared_latency: 2,
            atomic_latency: 4,
            max_cycles: 200_000_000,
            fast_forward: true,
        })
    }

    /// Same as [`GpuConfig::fermi`] but with the given L1 policy — the
    /// one-liner the experiment harness uses for each design point.
    ///
    /// # Errors
    ///
    /// See [`GpuConfig::fermi`].
    pub fn fermi_with_policy(policy: L1PolicyKind) -> Result<Self, GeometryError> {
        let mut cfg = GpuConfig::fermi()?;
        cfg.l1_policy = policy;
        Ok(cfg)
    }

    /// Replaces the per-core L1 with a cache of `kb` KB (same 4-way, 128 B
    /// organisation) — used by the Figure 3/4/10 size sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if `kb` is not a power of two ≥ 1.
    pub fn with_l1_kb(mut self, kb: u64) -> Result<Self, GeometryError> {
        self.l1_geometry = CacheGeometry::new(kb * 1024, 4, 128)?;
        Ok(self)
    }

    /// This configuration with a different L1 fill-time bypass plane.
    #[must_use]
    pub const fn with_l1_bypass(mut self, bypass: BypassPlane) -> Self {
        self.l1_bypass = bypass;
        self
    }

    /// This configuration with a different L1 clean copy-back plane.
    #[must_use]
    pub const fn with_l1_copy_back(mut self, copy_back: CopyBackPlane) -> Self {
        self.l1_copy_back = copy_back;
        self
    }

    /// Reshapes the cache hierarchy, growing the mesh as needed to seat
    /// the cluster nodes. `Hierarchy::Flat` is a no-op, so threading a
    /// hierarchy through an experiment grid is behaviour-preserving for
    /// flat points.
    ///
    /// # Errors
    ///
    /// Returns [`GpuConfig::check`]'s message for the reshaped machine:
    /// `cluster_size` does not evenly divide the core count, nests
    /// incompatibly with `victim_bit_share`, or the L1.5 capacity is not
    /// a valid cache geometry.
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Result<Self, String> {
        self.hierarchy = hierarchy;
        if hierarchy != Hierarchy::Flat {
            let nodes = self.cores + self.partitions + hierarchy.clusters(self.cores);
            let rows = nodes.div_ceil(self.mesh_width.max(1));
            self.mesh_height = self.mesh_height.max(rows);
        }
        self.check()?;
        Ok(self)
    }

    /// Sets the per-lane transfer port count of the cluster crossbars
    /// (see [`GpuConfig::cluster_ports`]). A no-op for flat hierarchies,
    /// and `1` is the legacy serialization-equivalent wiring, so threading
    /// this through an experiment grid is behaviour-preserving for
    /// non-crossbar points.
    ///
    /// # Errors
    ///
    /// Returns [`GpuConfig::check`]'s message when `ports` is zero.
    pub fn with_cluster_ports(mut self, ports: usize) -> Result<Self, String> {
        self.cluster_ports = ports;
        self.check()?;
        Ok(self)
    }

    /// The geometry of each shared L1.5, `None` on the flat machine.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is invalid —
    /// [`GpuConfig::with_hierarchy`] and [`GpuConfig::validate`] reject
    /// such shapes up front.
    pub fn l15_geometry(&self) -> Option<CacheGeometry> {
        match self.hierarchy {
            Hierarchy::Flat => None,
            Hierarchy::SharedL15 { kb, .. } => Some(
                CacheGeometry::new(kb * 1024, L15_WAYS, self.line_size())
                    .expect("validated L1.5 geometry"),
            ),
        }
    }

    /// Line size shared by the whole hierarchy.
    pub fn line_size(&self) -> u32 {
        self.l1_geometry.line_size()
    }

    /// The node placement on the mesh — topology as data: cores occupy
    /// nodes `0..cores` row-major, partitions the next `partitions` nodes,
    /// and (under [`Hierarchy::SharedL15`]) cluster nodes follow the
    /// partitions. The cluster map assigns `cluster_size` consecutive
    /// cores to each cluster, so the cores of one cluster are contiguous
    /// on the mesh. Components address each other through this table (see
    /// [`crate::system`]), so alternative placements only change this
    /// method.
    pub fn topology(&self) -> Topology {
        let parts_end = self.cores + self.partitions;
        let (cluster_of, cluster_nodes) = match self.hierarchy {
            Hierarchy::Flat => ((0..self.cores).collect(), Vec::new()),
            Hierarchy::SharedL15 { cluster_size, .. } => (
                (0..self.cores).map(|c| c / cluster_size).collect(),
                (parts_end..parts_end + self.hierarchy.clusters(self.cores)).collect(),
            ),
        };
        Topology {
            mesh_width: self.mesh_width,
            mesh_height: self.mesh_height,
            core_nodes: (0..self.cores).collect(),
            part_nodes: (self.cores..parts_end).collect(),
            cluster_of,
            cluster_nodes,
        }
    }

    /// Every invariant a machine must hold before it is built, in one
    /// list: [`GpuConfig::validate`], [`GpuConfig::with_hierarchy`] and
    /// [`GpuConfig::with_cluster_ports`] all ask here, and no component
    /// constructor is reached with a value it would panic on. What a
    /// kernel's grid asks of a core is not a property of the machine and
    /// is checked at launch ([`crate::gpu::SimError::CtaNeverFits`]).
    ///
    /// # Errors
    ///
    /// The first broken invariant, as `field = value: rule`.
    pub fn check(&self) -> Result<(), String> {
        let broken = |field: &str, value: &dyn fmt::Display, rule: &str| {
            Err(format!("{field} = {value}: {rule}"))
        };
        let positive = [
            ("cores", self.cores as u64),
            ("partitions", self.partitions as u64),
            ("warp_width", self.warp_width as u64),
            ("max_warps_per_core", self.max_warps_per_core as u64),
            ("l1_mshr_entries", self.l1_mshr_entries as u64),
            ("l1_mshr_merge", self.l1_mshr_merge as u64),
            ("l2_mshr_entries", self.l2_mshr_entries as u64),
            ("l2_mshr_merge", self.l2_mshr_merge as u64),
            ("l2_period", self.l2_period),
            ("victim_bit_share", self.victim_bit_share as u64),
            ("cluster_ports", self.cluster_ports as u64),
            ("mesh_width", self.mesh_width as u64),
            ("mesh_height", self.mesh_height as u64),
            ("channel_bytes", u64::from(self.channel_bytes)),
            ("router_queue", self.router_queue as u64),
            ("hop_latency", self.hop_latency),
            ("dram_banks", self.dram_banks as u64),
            ("dram_queue", self.dram_queue as u64),
            ("max_cycles", self.max_cycles),
        ];
        if let Some((field, _)) = positive.into_iter().find(|&(_, value)| value == 0) {
            return broken(field, &0, "must be at least 1");
        }
        // Lane and warp-ready masks are one 64-bit word each; the mesh
        // counts the packets of a queue in 16 bits. A DRAM channel
        // allocates its banks and its queue when it is built.
        let capped = [
            ("warp_width", self.warp_width, 64),
            ("max_warps_per_core", self.max_warps_per_core, 64),
            ("router_queue", self.router_queue, usize::from(u16::MAX)),
            ("dram_banks", self.dram_banks, 64),
            ("dram_queue", self.dram_queue, usize::from(u16::MAX)),
        ];
        if let Some((field, value, most)) = capped.into_iter().find(|&(_, v, most)| v > most) {
            return broken(field, &value, &format!("must be at most {most}"));
        }
        if !self.partitions.is_power_of_two() {
            return broken("partitions", &self.partitions, "must be a power of two");
        }
        let share = self.victim_bit_share;
        if !self.cores.is_multiple_of(share) {
            let rule = format!("must evenly divide the {} cores", self.cores);
            return broken("victim_bit_share", &share, &rule);
        }
        if let Hierarchy::SharedL15 { cluster_size, kb } = self.hierarchy {
            if cluster_size == 0 || !self.cores.is_multiple_of(cluster_size) {
                let rule = format!("must evenly divide the {} cores", self.cores);
                return broken("cluster_size", &cluster_size, &rule);
            }
            if !share.is_multiple_of(cluster_size) && !cluster_size.is_multiple_of(share) {
                let rule = format!(
                    "must nest with victim_bit_share = {share} (one evenly divides the other)"
                );
                return broken("cluster_size", &cluster_size, &rule);
            }
            if let Err(e) = CacheGeometry::new(kb.saturating_mul(1024), L15_WAYS, self.line_size())
            {
                return broken("L1.5 kb", &kb, &format!("invalid capacity: {e}"));
            }
        }
        // Past the two rules above, flat and clustered machines alike get
        // `cores / share` groups from `Topology::victim_grouping`, and an
        // L2 line keeps its victim bits in one 64-bit word.
        let groups = self.cores / share;
        if groups > 64 {
            let rule = format!(
                "at most 64 victim-bit groups fit a line, {} cores make {groups}",
                self.cores
            );
            return broken("victim_bit_share", &share, &rule);
        }
        let nodes = self.cores + self.partitions + self.hierarchy.clusters(self.cores);
        if self.mesh_width.saturating_mul(self.mesh_height) < nodes {
            let mesh = format!("{}x{}", self.mesh_width, self.mesh_height);
            let rule = format!("mesh too small for {nodes} nodes");
            return broken("mesh_width x mesh_height", &mesh, &rule);
        }
        if self.l1_geometry.line_size() != self.l2_geometry.line_size() {
            let rule = format!(
                "must equal the L2 line size {}",
                self.l2_geometry.line_size()
            );
            return broken("l1_geometry line size", &self.line_size(), &rule);
        }
        if self.dram_row_bytes < self.line_size() {
            let rule = format!("must hold a {} B line", self.line_size());
            return broken("dram_row_bytes", &self.dram_row_bytes, &rule);
        }
        Ok(())
    }

    /// [`GpuConfig::check`] for callers that cannot go on without a
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics with `check`'s message on an inconsistent configuration;
    /// call at construction time of the GPU.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid GpuConfig: {e}");
        }
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SIMT cores        : {} (x{} SIMT width)",
            self.cores, self.warp_width
        )?;
        writeln!(
            f,
            "Resources / core  : {} threads, {} warps, {} CTAs",
            self.max_threads_per_core, self.max_warps_per_core, self.max_ctas_per_core
        )?;
        writeln!(
            f,
            "L1D / core        : {} [{}]",
            self.l1_geometry,
            self.l1_policy.design_name()
        )?;
        if let Hierarchy::SharedL15 { cluster_size, kb } = self.hierarchy {
            writeln!(
                f,
                "L1.5 / cluster    : {} KB x{} clusters ({} cores each)",
                kb,
                self.hierarchy.clusters(self.cores),
                cluster_size
            )?;
        }
        writeln!(
            f,
            "L2 bank           : {} x{} banks, 1:{} clock",
            self.l2_geometry, self.partitions, self.l2_period
        )?;
        writeln!(
            f,
            "MSHRs             : {}/core, {}/bank",
            self.l1_mshr_entries, self.l2_mshr_entries
        )?;
        writeln!(
            f,
            "Interconnect      : {}x{} mesh, {}B channels",
            self.mesh_width, self.mesh_height, self.channel_bytes
        )?;
        writeln!(
            f,
            "DRAM              : FR-FCFS, {} MCs x {} banks, {}B rows",
            self.partitions, self.dram_banks, self.dram_row_bytes
        )?;
        let t = self.dram_timing;
        write!(
            f,
            "GDDR5 timing      : tCL={} tRP={} tRC={} tRAS={} tRCD={} tRRD={}",
            t.t_cl, t.t_rp, t.t_rc, t.t_ras, t.t_rcd, t.t_rrd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_matches_table_2() {
        let c = GpuConfig::fermi().unwrap();
        c.validate();
        assert_eq!(c.cores, 16);
        assert_eq!(c.warp_width, 32);
        assert_eq!(c.max_warps_per_core, 48);
        assert_eq!(c.max_threads_per_core, 1536);
        assert_eq!(c.l1_geometry.total_bytes(), 32 * 1024);
        assert_eq!(c.l1_geometry.ways(), 4);
        assert_eq!(c.l2_geometry.total_bytes(), 128 * 1024);
        assert_eq!(c.l2_geometry.ways(), 16);
        assert_eq!(c.partitions, 8);
        assert_eq!(c.l1_mshr_entries, 32);
        assert_eq!(c.dram_timing, DramTiming::default());
    }

    #[test]
    fn design_names() {
        assert_eq!(L1PolicyKind::Lru.design_name(), "BS");
        assert_eq!(L1PolicyKind::Srrip { bits: 3 }.design_name(), "BS-S");
        assert_eq!(
            L1PolicyKind::GCache(GCacheConfig::default()).design_name(),
            "GC"
        );
        assert_eq!(L1PolicyKind::StaticPdp { pd: 14 }.design_name(), "SPDP-B");
        assert_eq!(
            L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp3()).design_name(),
            "PDP-3"
        );
        assert_eq!(
            L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp8()).design_name(),
            "PDP-8"
        );
    }

    #[test]
    fn l1_size_sweep_builder() {
        let c = GpuConfig::fermi().unwrap().with_l1_kb(64).unwrap();
        assert_eq!(c.l1_geometry.total_bytes(), 64 * 1024);
        assert_eq!(c.l1_geometry.ways(), 4);
        c.validate();
    }

    #[test]
    fn check_names_the_broken_field() {
        fn l15(cluster_size: usize, kb: u64) -> Hierarchy {
            Hierarchy::SharedL15 { cluster_size, kb }
        }
        /// A field (the head of the message it must draw) and a way to break it.
        type Mutation = (&'static str, fn(&mut GpuConfig));
        let mutations: [Mutation; 36] = [
            ("cores", |c| c.cores = 0),
            ("partitions", |c| c.partitions = 0),
            ("partitions", |c| c.partitions = 6),
            ("warp_width", |c| c.warp_width = 0),
            ("warp_width", |c| c.warp_width = 65),
            ("max_warps_per_core", |c| c.max_warps_per_core = 0),
            ("max_warps_per_core", |c| c.max_warps_per_core = 65),
            ("l1_mshr_entries", |c| c.l1_mshr_entries = 0),
            ("l1_mshr_merge", |c| c.l1_mshr_merge = 0),
            ("l2_mshr_entries", |c| c.l2_mshr_entries = 0),
            ("l2_mshr_merge", |c| c.l2_mshr_merge = 0),
            ("l2_period", |c| c.l2_period = 0),
            ("victim_bit_share", |c| c.victim_bit_share = 0),
            ("victim_bit_share", |c| c.victim_bit_share = 3),
            // 128 victim-bit groups, flat and as 32 clusters of 4: an L2
            // line's mask word holds 64.
            ("victim_bit_share", |c| {
                (c.cores, c.victim_bit_share, c.mesh_width, c.mesh_height) = (128, 1, 12, 12);
            }),
            ("victim_bit_share", |c| {
                (c.cores, c.victim_bit_share, c.mesh_width, c.mesh_height) = (128, 1, 13, 13);
                c.hierarchy = l15(4, 64);
            }),
            ("cluster_ports", |c| c.cluster_ports = 0),
            ("mesh_width", |c| c.mesh_width = 0),
            ("mesh_height", |c| c.mesh_height = 0),
            ("mesh_width x mesh_height", |c| c.mesh_height = 3),
            ("channel_bytes", |c| c.channel_bytes = 0),
            ("router_queue", |c| c.router_queue = 0),
            ("router_queue", |c| c.router_queue = 1 << 16),
            ("hop_latency", |c| c.hop_latency = 0),
            ("dram_banks", |c| c.dram_banks = 0),
            ("dram_banks", |c| c.dram_banks = 1 << 40),
            ("dram_queue", |c| c.dram_queue = 0),
            ("dram_queue", |c| c.dram_queue = usize::MAX),
            ("dram_row_bytes", |c| c.dram_row_bytes = 64),
            ("max_cycles", |c| c.max_cycles = 0),
            ("l1_geometry line size", |c| {
                c.l1_geometry = CacheGeometry::new(32 * 1024, 4, 64).unwrap();
            }),
            ("cluster_size", |c| c.hierarchy = l15(0, 64)),
            ("cluster_size", |c| c.hierarchy = l15(5, 64)),
            // 4 and 6 both divide 12 cores, but neither divides the other:
            // victim-bit groups would straddle cluster boundaries.
            ("cluster_size", |c| {
                (c.cores, c.victim_bit_share, c.hierarchy) = (12, 4, l15(6, 64));
            }),
            ("L1.5 kb", |c| c.hierarchy = l15(4, 48)),
            // A hierarchy set by hand does not grow the mesh for its nodes.
            ("mesh_width x mesh_height", |c| c.hierarchy = l15(4, 64)),
        ];
        for (field, mutate) in mutations {
            let mut c = GpuConfig::fermi().unwrap();
            mutate(&mut c);
            let err = c.check().expect_err(field);
            assert!(err.starts_with(&format!("{field} = ")), "{field}: {err}");
        }
    }

    #[test]
    fn check_accepts_fermi_and_every_cluster_shape() {
        let fermi = GpuConfig::fermi().unwrap();
        assert_eq!(fermi.check(), Ok(()));
        // Every `cN:KB` the command line takes for the Table 2 machine.
        for cluster_size in [1, 2, 4, 8, 16] {
            for kb in [1, 16, 64, 1024] {
                let shape = Hierarchy::SharedL15 { cluster_size, kb };
                // Both builders end in `check`.
                let c = fermi.clone().with_hierarchy(shape);
                let c = c.unwrap_or_else(|e| panic!("{}: {e}", shape.label()));
                for ports in [1, 2, 64] {
                    let c = c.clone().with_cluster_ports(ports);
                    assert_eq!(c.err(), None, "{} x{ports}", shape.label());
                }
                // The group count `check` caps is the one the topology
                // builds, whichever way share and cluster size nest.
                for victim_bit_share in [1, 2, 4, 8, 16] {
                    let c = GpuConfig {
                        victim_bit_share,
                        ..c.clone()
                    };
                    assert_eq!(c.check(), Ok(()), "{} /{victim_bit_share}", shape.label());
                    let grouping = c.topology().victim_grouping(victim_bit_share);
                    assert_eq!(grouping.groups(), c.cores / victim_bit_share);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid GpuConfig: channel_bytes = 0: must be at least 1")]
    fn validate_panics_with_the_check_message() {
        let mut c = GpuConfig::fermi().unwrap();
        c.channel_bytes = 0;
        c.validate();
    }

    #[test]
    fn with_hierarchy_flat_is_identity() {
        let c = GpuConfig::fermi()
            .unwrap()
            .with_hierarchy(Hierarchy::Flat)
            .unwrap();
        assert_eq!(c.hierarchy, Hierarchy::Flat);
        assert_eq!((c.mesh_width, c.mesh_height), (6, 4));
        c.validate();
    }

    #[test]
    fn with_hierarchy_grows_mesh_for_cluster_nodes() {
        let h = Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        };
        let c = GpuConfig::fermi().unwrap().with_hierarchy(h).unwrap();
        assert_eq!(c.hierarchy, h);
        // 16 cores + 8 partitions + 4 clusters = 28 nodes > 6x4.
        assert!(c.mesh_width * c.mesh_height >= 28);
        c.validate();
        assert_eq!(c.l15_geometry().unwrap().total_bytes(), 64 * 1024);
    }

    #[test]
    fn with_hierarchy_rejects_non_dividing_cluster_size() {
        let h = Hierarchy::SharedL15 {
            cluster_size: 5,
            kb: 64,
        };
        let err = GpuConfig::fermi().unwrap().with_hierarchy(h).unwrap_err();
        assert!(err.contains("evenly divide"), "got: {err}");
        let h = Hierarchy::SharedL15 {
            cluster_size: 0,
            kb: 64,
        };
        assert!(GpuConfig::fermi().unwrap().with_hierarchy(h).is_err());
    }

    #[test]
    fn builders_return_the_check_message() {
        let fermi = GpuConfig::fermi().unwrap();
        let err = fermi.clone().with_cluster_ports(0).unwrap_err();
        assert!(err.starts_with("cluster_ports = 0"), "got: {err}");
        let h = Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 48,
        };
        let err = fermi.clone().with_hierarchy(h).unwrap_err();
        assert!(err.starts_with("L1.5 kb = 48"), "got: {err}");
        // No mesh of no columns can be grown to seat the cluster nodes.
        let no_columns = GpuConfig {
            mesh_width: 0,
            ..fermi
        };
        let err = no_columns.with_hierarchy(h).unwrap_err();
        assert!(err.starts_with("mesh_width = 0"), "got: {err}");
    }

    #[test]
    fn hierarchy_labels() {
        assert_eq!(Hierarchy::Flat.label(), "flat");
        assert_eq!(
            Hierarchy::SharedL15 {
                cluster_size: 4,
                kb: 64
            }
            .label(),
            "c4/64KB"
        );
        assert_eq!(Hierarchy::Flat.clusters(16), 0);
        assert_eq!(
            Hierarchy::SharedL15 {
                cluster_size: 8,
                kb: 32
            }
            .clusters(16),
            2
        );
    }

    #[test]
    fn display_mentions_key_fields() {
        let c = GpuConfig::fermi().unwrap();
        let s = c.to_string();
        assert!(s.contains("16"));
        assert!(s.contains("FR-FCFS"));
        assert!(s.contains("tCL=12"));
    }
}
