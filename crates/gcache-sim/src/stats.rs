//! Aggregated simulation statistics.

use crate::core::CoreStats;
use crate::dram::DramStats;
use crate::icnt::NocStats;
use crate::partition::PartitionStats;
use crate::xbar::XbarStats;
use gcache_core::stats::CacheStats;
use std::fmt;

/// Everything a kernel run produced, aggregated across cores/partitions.
#[derive(Clone, Debug)]
pub struct SimStats {
    /// Kernel name.
    pub kernel: String,
    /// Design name of the L1 policy (e.g. `"GC"`).
    pub design: &'static str,
    /// Simulated core cycles.
    pub cycles: u64,
    /// Warp instructions issued across all cores.
    pub instructions: u64,
    /// Merged L1 statistics (all cores).
    pub l1: CacheStats,
    /// Merged shared-L1.5 statistics (all clusters); all-zero on a flat
    /// machine, which has no L1.5 level.
    pub l15: CacheStats,
    /// Merged L2 statistics (all banks).
    pub l2: CacheStats,
    /// Merged DRAM statistics (all channels).
    pub dram: DramStats,
    /// Request-network statistics.
    pub noc_req: NocStats,
    /// Response-network statistics.
    pub noc_resp: NocStats,
    /// Combined cluster-crossbar statistics (all clusters, both lanes);
    /// all-zero without crossbars (flat, or the legacy 1-port wiring).
    pub xbar: XbarStats,
    /// Total crossbar transfer ports (all clusters × both lanes), the
    /// denominator for a port-occupancy reading; 0 without crossbars.
    pub xbar_ports: u64,
    /// Merged core issue statistics.
    pub core: CoreStats,
    /// Merged partition statistics.
    pub partition: PartitionStats,
}

impl SimStats {
    /// An empty record for `kernel` under `design` (all counters zero) —
    /// the starting point for merges, and a convenient test fixture.
    pub fn new(kernel: &str, design: &'static str) -> Self {
        SimStats {
            kernel: kernel.to_string(),
            design,
            cycles: 0,
            instructions: 0,
            l1: Default::default(),
            l15: Default::default(),
            l2: Default::default(),
            dram: Default::default(),
            noc_req: Default::default(),
            noc_resp: Default::default(),
            xbar: Default::default(),
            xbar_ports: 0,
            core: Default::default(),
            partition: Default::default(),
        }
    }

    /// Instructions per cycle (warp-level); 0 for an empty run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1 miss rate over all L1 accesses.
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// Shared-L1.5 miss rate over all L1.5 accesses (0 on a flat machine).
    pub fn l15_miss_rate(&self) -> f64 {
        self.l15.miss_rate()
    }

    /// L1 bypass ratio (Table 3).
    pub fn l1_bypass_ratio(&self) -> f64 {
        self.l1.bypass_ratio()
    }

    /// Mean cluster-crossbar port occupancy: the fraction of available
    /// port·cycles spent serialising packets; 0 without crossbars.
    pub fn xbar_occupancy(&self) -> f64 {
        if self.xbar_ports == 0 || self.cycles == 0 {
            0.0
        } else {
            self.xbar.flit_cycles as f64 / (self.xbar_ports * self.cycles) as f64
        }
    }

    /// Speedup of this run over a baseline run of the same kernel
    /// (IPC ratio — cycle ratio would be equivalent for equal work).
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} cycles, {} instructions, IPC {:.3}",
            self.kernel,
            self.design,
            self.cycles,
            self.instructions,
            self.ipc()
        )?;
        writeln!(
            f,
            "  L1: {:.1}% miss, {:.1}% bypass ({} accesses)",
            self.l1.miss_rate() * 100.0,
            self.l1.bypass_ratio() * 100.0,
            self.l1.accesses()
        )?;
        if self.l15.accesses() > 0 {
            writeln!(
                f,
                "  L1.5: {:.1}% miss ({} accesses)",
                self.l15.miss_rate() * 100.0,
                self.l15.accesses()
            )?;
        }
        writeln!(
            f,
            "  L2: {:.1}% miss ({} accesses), {} writebacks",
            self.l2.miss_rate() * 100.0,
            self.l2.accesses(),
            self.l2.writebacks
        )?;
        write!(
            f,
            "  DRAM: {} reads, {} writes, {:.1}% row hits | NoC mean lat {:.1}/{:.1}",
            self.dram.reads,
            self.dram.writes,
            self.dram.row_hit_rate() * 100.0,
            self.noc_req.mean_latency(),
            self.noc_resp.mean_latency()
        )
    }
}

/// Geometric mean of an iterator of ratios.
///
/// Defined edge cases (the inputs are measured speedups, so they can
/// legitimately degenerate):
///
/// * an **empty** iterator yields `1.0` — the mean over no benchmarks is
///   the identity speedup, so aggregating an empty suite is neutral;
/// * any **non-positive** value yields `0.0` — a zero or negative ratio
///   has no real logarithm, and a benchmark that made no progress should
///   drag the aggregate to the floor rather than poison it with `NaN`.
///
/// # Examples
///
/// ```
/// use gcache_sim::stats::geomean;
///
/// let g = geomean([2.0, 8.0]);
/// assert!((g - 4.0).abs() < 1e-12);
/// assert_eq!(geomean(std::iter::empty::<f64>()), 1.0);
/// assert_eq!(geomean([2.0, 0.0, 8.0]), 0.0);
/// ```
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, instructions: u64) -> SimStats {
        SimStats {
            kernel: "test".into(),
            design: "BS",
            cycles,
            instructions,
            l1: CacheStats::new(),
            l15: CacheStats::new(),
            l2: CacheStats::new(),
            dram: DramStats::default(),
            noc_req: NocStats::default(),
            noc_resp: NocStats::default(),
            xbar: XbarStats::default(),
            xbar_ports: 0,
            core: CoreStats::default(),
            partition: PartitionStats::default(),
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = stats(1000, 2000);
        let fast = stats(500, 2000);
        assert!((base.ipc() - 2.0).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert_eq!(stats(0, 0).ipc(), 0.0);
        assert_eq!(fast.speedup_over(&stats(0, 0)), 0.0);
    }

    #[test]
    fn geomean_edge_cases() {
        assert_eq!(
            geomean(std::iter::empty::<f64>()),
            1.0,
            "empty suite is the identity speedup"
        );
        assert_eq!(geomean([3.5]), 3.5, "singleton is itself");
        assert_eq!(geomean([1.0, 0.0]), 0.0, "zero drags to the floor");
        assert_eq!(geomean([-2.0, 4.0]), 0.0, "negative is clamped, not NaN");
        let g = geomean([0.5, 2.0]);
        assert!((g - 1.0).abs() < 1e-12, "reciprocal pair cancels");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([4.0]) - 4.0).abs() < 1e-12);
        let g = geomean([1.2, 1.5, 0.9]);
        assert!(g > 0.9 && g < 1.5);
    }

    #[test]
    fn merge_core_stats() {
        let mut a = CoreStats {
            instructions: 10,
            ..CoreStats::default()
        };
        let b = CoreStats {
            instructions: 5,
            transactions: 7,
            ..CoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.transactions, 7);
    }

    #[test]
    fn display_contains_sections() {
        let s = stats(100, 100).to_string();
        assert!(s.contains("IPC"));
        assert!(s.contains("L1:"));
        assert!(s.contains("DRAM:"));
    }
}
