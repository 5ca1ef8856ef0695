//! The benchmark's metric tables — the single list `BENCHMARK.json`, the
//! printed report and the result files are checked against.

use crate::stats::Summary;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name; per-layer names are `<module>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Deterministic: must repeat bit-for-bit between runs of one commit
    /// and is compared for equality, not tolerance.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics defined (and never 0) on every workload — the
/// `end_to_end` list of `BENCHMARK.json`, reported by `--trace 0`.
/// `failed_points` travels as the result line's `failed`/`attempted`;
/// `gc_speedup_gm` and `paper_gap_gc` exist only on some workloads and
/// are listed in [`PER_LAYER`] (see README.md).
pub const END_TO_END: [MetricDef; 7] = [
    e2e("host_cost", "cal_s", Lower, 0.25, false),
    e2e("sim_kcycles_per_s", "kcycle/cal_s", Higher, 0.25, false),
    e2e("warp_kinstr_per_s", "kinstr/cal_s", Higher, 0.25, false),
    e2e("points_per_s", "1/cal_s", Higher, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.05, false),
    e2e("sim_ipc_gm", "instr/cycle", Higher, 0.05, true),
];

/// Per-layer metrics — the `per_layer` list of `BENCHMARK.json`, reported
/// by `--trace 1`. A metric whose layer a workload does not exercise (or
/// cannot observe, as inside the server's worker processes) reads 0.
pub const PER_LAYER: [MetricDef; 64] = [
    // Simulated end-to-end metrics that are not defined on every workload.
    layer("gc_speedup_gm", "ratio", Higher, true),
    layer("paper_gap_gc", "ratio", Lower, true),
    // Gpu::profile() and SimStats of the traced pass.
    layer("gpu.ns_per_ticked_cycle", "ns", Lower, false),
    layer("gpu.dispatch_share", "ratio", Lower, false),
    layer("gpu.ticked_cycles", "count", Lower, true),
    layer("gpu.cycles_skipped", "count", Higher, true),
    layer("gpu.bounds_computed", "count", Lower, true),
    layer("gpu.wake_skips", "count", Higher, true),
    layer("core.share", "ratio", Lower, false),
    layer("core.ns_per_ticked_cycle", "ns", Lower, false),
    layer("core.stall_cycles", "count", Lower, true),
    layer("icnt.share", "ratio", Lower, false),
    layer("icnt.ns_per_ticked_cycle", "ns", Lower, false),
    layer("icnt.req_packets", "count", Lower, true),
    layer("icnt.mean_latency", "cycles", Lower, true),
    layer("icnt.inject_fail_rate", "ratio", Lower, true),
    layer("cluster.share", "ratio", Lower, false),
    layer("xbar.occupancy", "ratio", Lower, true),
    layer("l15.miss_rate", "ratio", Lower, true),
    layer("mem.share", "ratio", Lower, false),
    layer("mem.ns_per_ticked_cycle", "ns", Lower, false),
    layer("partition.l2_accesses", "count", Lower, true),
    layer("partition.l2_miss_rate", "ratio", Lower, true),
    layer("dram.requests", "count", Lower, true),
    layer("dram.row_hit_rate", "ratio", Higher, true),
    layer("dram.mean_latency", "cycles", Lower, true),
    layer("l1.accesses", "count", Lower, true),
    layer("l1.miss_rate", "ratio", Lower, true),
    layer("l1.bypass_ratio", "ratio", Higher, true),
    layer("l1.write_share", "ratio", Lower, true),
    layer("policy.plane_bypasses", "count", Higher, true),
    layer("policy.clean_copy_backs", "count", Higher, true),
    // Drivers calling one layer's public functions directly.
    layer("workloads.gen_ns_per_op", "ns", Lower, false),
    layer("workloads.ops", "count", Lower, true),
    layer("coalescer.ns_per_op", "ns", Lower, false),
    layer("coalescer.lines_per_op", "ratio", Lower, true),
    layer("tag_array.ns_per_probe", "ns", Lower, false),
    layer("l1.ns_per_access.bs", "ns", Lower, false),
    layer("l1.ns_per_access.gc", "ns", Lower, false),
    layer("l1.replay_miss_rate", "ratio", Lower, true),
    layer("partition.ns_per_req", "ns", Lower, false),
    layer("dram.ns_per_req", "ns", Lower, false),
    layer("dram.replay_row_hit_rate", "ratio", Higher, true),
    layer("icnt.ns_per_tick", "ns", Lower, false),
    layer("icnt.ns_per_flit", "ns", Lower, false),
    layer("icnt.accept_ratio", "ratio", Higher, true),
    layer("xbar.ns_per_transfer", "ns", Lower, false),
    layer("core.ns_per_instr", "ns", Lower, false),
    // Snapshot and the cost of watching.
    layer("snapshot.count", "count", Lower, true),
    layer("snapshot.bytes", "bytes", Lower, true),
    layer("snapshot.save_us", "us", Lower, false),
    layer("snapshot.restore_us", "us", Lower, false),
    layer("telemetry.overhead", "ratio", Lower, false),
    layer("trace.overhead", "ratio", Lower, false),
    // Harness level.
    layer("sweep.parallel_speedup", "ratio", Higher, false),
    layer("server.coord_overhead", "ratio", Lower, false),
    layer("server.ckpt_overhead", "ratio", Lower, false),
    layer("server.respawns", "count", Lower, true),
    layer("bench.trace_overhead", "ratio", Lower, false),
    layer("host.raw_wall_s", "s", Lower, false),
    layer("host.cal_ms", "ms", Lower, false),
    layer("host.cal_spread", "ratio", Lower, false),
    layer("host.nproc", "count", Higher, false),
    layer("failed_points", "count", Lower, true),
];

/// The definition of metric `name`, from either table.
pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Measured values keyed by metric name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, Summary)>);

impl Values {
    /// Records `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: Summary) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Records a single exact observation.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<Summary> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every recorded value.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Summary)> + '_ {
        self.0.iter().copied()
    }
}
