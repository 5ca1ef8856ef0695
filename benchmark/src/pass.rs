//! One pass over a workload's design points, untraced or traced, and the
//! simulated metrics and output checks derived from its statistics.

use crate::cal::{Timer, Timing};
use crate::span::Tracer;
use crate::workloads::Plan;
use gcache_bench::sweep::run_design_points;
use gcache_core::snapshot::fnv1a;
use gcache_core::stats::CacheStats;
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::{geomean, SimStats};
use gcache_sim::telemetry::Profile;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One timed design point; `stats` is `None` when the point failed.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// The point's statistics.
    pub stats: Option<SimStats>,
    /// Its host time: config + `Gpu::new` + `run_kernel`.
    pub timing: Timing,
}

/// Runs every point once through the sweep engine (`jobs = 1`), with a
/// calibration loop between every two points.
pub fn untraced_pass(plan: &Plan, timer: &mut Timer) -> Vec<PointRun> {
    (0..plan.points.len())
        .map(|i| {
            let (stats, timing) = timer.time(|| sweep_point(plan, i));
            PointRun { stats, timing }
        })
        .collect()
}

/// Point `i` through the sweep engine; `None` if it panicked.
pub fn sweep_point(plan: &Plan, i: usize) -> Option<SimStats> {
    let point = plan.design_point(i);
    catch_unwind(AssertUnwindSafe(|| run_design_points(&[point], 1).pop()))
        .ok()
        .flatten()
}

/// Point `i` the way the untraced reps run it, inside a `point_untraced`
/// span: the traced pass's reference for `bench.trace_overhead`.
pub fn reference_point(plan: &Plan, i: usize, timer: &mut Timer, tracer: &mut Tracer) -> PointRun {
    let (stats, timing) = timer.time_in(tracer, "point_untraced", |_| sweep_point(plan, i));
    PointRun { stats, timing }
}

/// Runs point `i` with `Gpu::enable_profiling()`, one span per boundary:
/// `point` > {`kernel_build`, `gpu_new`, `run_kernel`}, with the
/// simulated counts attached to `run_kernel`. Returns the timed run and
/// the point's host profile.
pub fn traced_point(
    plan: &Plan,
    i: usize,
    timer: &mut Timer,
    tracer: &mut Tracer,
) -> (PointRun, Option<Profile>) {
    let ((stats, profile), timing) = timer.time_in(tracer, "point", |t| {
        let kernel = t.span("kernel_build", |_| plan.build_kernel(i));
        let mut gpu = t.span("gpu_new", |_| {
            let mut gpu = Gpu::new(plan.config(i));
            gpu.enable_profiling();
            gpu
        });
        let stats = t.span("run_kernel", |t| {
            let stats = gpu.run_kernel(kernel.as_ref()).ok();
            if let Some(s) = &stats {
                t.count("cycles", s.cycles as f64);
                t.count("instructions", s.instructions as f64);
                t.count("l1_accesses", s.l1.accesses() as f64);
                t.count("noc_req_packets", s.noc_req.packets as f64);
                t.count("l2_accesses", s.l2.accesses() as f64);
                t.count("dram_requests", (s.dram.reads + s.dram.writes) as f64);
            }
            stats
        });
        // On a flat machine the cluster stage is skipped; what the
        // profile holds for it is the cost of its two time stamps.
        let profile = gpu.profile().map(|mut p| {
            if !plan.config(i).topology().is_clustered() {
                p.cluster_ns = 0;
            }
            p
        });
        (stats, profile)
    });
    (PointRun { stats, timing }, profile)
}

/// Adds `p` into `acc`, field by field.
pub fn add_profile(acc: &mut Profile, p: &Profile) {
    acc.core_ns += p.core_ns;
    acc.icnt_ns += p.icnt_ns;
    acc.cluster_ns += p.cluster_ns;
    acc.mem_ns += p.mem_ns;
    acc.dispatch_ns += p.dispatch_ns;
    acc.ticked_cycles += p.ticked_cycles;
    acc.bounds_computed += p.bounds_computed;
    acc.ff_jumps += p.ff_jumps;
    acc.cycles_skipped += p.cycles_skipped;
    acc.wake_skips += p.wake_skips;
}

/// Sums over one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTotals {
    /// Calibrated seconds, all points.
    pub host_cost: f64,
    /// Raw wall seconds, all points (calibration loops excluded).
    pub raw_wall_s: f64,
    /// Simulated cycles, all points.
    pub cycles: u64,
    /// Warp instructions, all points.
    pub instructions: u64,
    /// Points that produced statistics.
    pub points: usize,
}

/// Totals of `runs`.
pub fn totals(runs: &[PointRun]) -> PassTotals {
    let mut t = PassTotals::default();
    for r in runs {
        t.host_cost += r.timing.cal_s;
        t.raw_wall_s += r.timing.raw_ns / 1e9;
        if let Some(s) = &r.stats {
            t.cycles += s.cycles;
            t.instructions += s.instructions;
            t.points += 1;
        }
    }
    t
}

/// A stable digest of one point's complete statistics.
pub fn digest(stats: &SimStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// The exact simulated end-to-end metrics of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSummary {
    /// Geomean IPC over all points.
    pub ipc_gm: f64,
    /// Geomean IPC(GC)/IPC(BS) over the kernels run under both designs
    /// on the same machine; `None` when no kernel was.
    pub gc_speedup_gm: Option<f64>,
    /// The per-kernel speed-ups behind `gc_speedup_gm`.
    pub per_kernel: Vec<(String, f64)>,
}

/// Simulated metrics of a pass from `(cycles, instructions)` per point;
/// failed points (`None`) are left out.
pub fn sim_summary(plan: &Plan, counts: &[Option<(u64, u64)>]) -> SimSummary {
    let ipc = |i: usize| counts[i].map(|(c, n)| n as f64 / c.max(1) as f64);
    let ipc_gm = geomean((0..counts.len()).filter_map(ipc));
    let mut per_kernel = Vec::new();
    for k in 0..plan.kernels.len() {
        let of = |want: fn(&_) -> bool| {
            (0..plan.points.len())
                .find(|&i| plan.points[i].kernel == k && want(&plan.points[i].policy))
                .and_then(ipc)
        };
        if let (Some(bs), Some(gc)) = (of(Plan::is_bs), of(Plan::is_gc)) {
            per_kernel.push((plan.kernels[k].info().name.to_string(), gc / bs));
        }
    }
    SimSummary {
        ipc_gm,
        gc_speedup_gm: (!per_kernel.is_empty()).then(|| geomean(per_kernel.iter().map(|p| p.1))),
        per_kernel,
    }
}

/// `|measured − reference| / reference`.
pub fn paper_gap(measured: f64, reference: f64) -> f64 {
    (measured - reference).abs() / reference
}

/// Internal-consistency violations in one point's statistics. At every
/// cache level: hits may not exceed accesses, per kind (so `hits + misses
/// == accesses` holds without underflow); every fill or bypassed fill
/// answers a miss (`fills` counts installed lines only, so it is `fills +
/// bypassed_fills` that the misses bound); plane bypasses are a subset of
/// bypassed fills and write-backs of evictions.
pub fn invariant_violations(stats: &SimStats) -> Vec<String> {
    let mut out = Vec::new();
    let mut level = |name: &str, c: &CacheStats| {
        let kinds_ok =
            c.read_hits <= c.reads && c.write_hits <= c.writes && c.atomic_hits <= c.atomics;
        if !kinds_ok || c.hits() + c.misses() != c.accesses() {
            out.push(format!(
                "{name}: hits {} + misses != accesses {}",
                c.hits(),
                c.accesses()
            ));
        } else if c.fills + c.bypassed_fills > c.misses() {
            out.push(format!(
                "{name}: fills {} + bypassed fills {} > misses {}",
                c.fills,
                c.bypassed_fills,
                c.misses()
            ));
        }
        if c.plane_bypasses > c.bypassed_fills {
            out.push(format!(
                "{name}: plane bypasses {} > bypassed fills {}",
                c.plane_bypasses, c.bypassed_fills
            ));
        }
        if c.writebacks > c.evictions {
            out.push(format!(
                "{name}: write-backs {} > evictions {}",
                c.writebacks, c.evictions
            ));
        }
    };
    level("l1", &stats.l1);
    level("l15", &stats.l15);
    level("l2", &stats.l2);
    out
}
