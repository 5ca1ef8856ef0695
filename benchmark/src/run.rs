//! Runs one workload: the untraced reps that give the end-to-end metrics,
//! or the traced pass that gives the per-layer ones.

use crate::cal::{Timer, CAL_SPREAD_LIMIT, CAL_STEPS_SMALL};
use crate::drivers;
use crate::metrics::Values;
use crate::pass::{
    add_profile, digest, invariant_violations, paper_gap, reference_point, sim_summary,
    sweep_point, totals, traced_point, untraced_pass, PassTotals, PointRun, SimSummary,
};
use crate::server::{self, ServerRun};
use crate::span::Tracer;
use crate::stats::{median, Summary};
use crate::workloads::{Plan, Workload};
use gcache_bench::sweep::run_design_points;
use gcache_core::stats::CacheStats;
use gcache_core::trace::SharedTraceRing;
use gcache_sim::dram::DramStats;
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::{Profile, Sampler, DEFAULT_INTERVAL};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated until it has this many samples ...
const SETUP_MIN: usize = 3;
/// ... and either this many or a second of them.
const SETUP_MAX: usize = 9;
/// Server starts that sample `server_ckpt`'s set-up time ...
const SETUP_PROBES: usize = 31;
/// ... each on this kernel's six design points (the grid's shortest).
const SETUP_PROBE_KERNEL: &str = "BP";
/// Capacity of the event ring `trace.overhead` records into; old events
/// are overwritten, the recording cost per event is what is measured.
const TRACE_RING: usize = 1 << 16;
/// Rounds of plain / sampled / traced runs behind the watching overheads.
const WATCH_ROUNDS: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of `seeded_rw`'s inputs and the mesh driver's RNG.
    pub seed: u64,
    /// How long to keep measuring reps, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of untraced reps.
    pub trace: bool,
    /// One rep only; the output is labelled not gateable.
    pub quick: bool,
    /// Directory for run directories and result files.
    pub out_dir: PathBuf,
}

/// What the host looked like during the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo` (empty when unreadable).
    pub cpu_model: String,
    /// Wall-clock length of one calibration loop, ms.
    pub cal_ms: f64,
    /// Mean relative difference between neighbouring calibrations.
    pub cal_spread: f64,
}

impl Host {
    /// The part of the host that must match for two results' times to be
    /// compared.
    pub fn fingerprint(&self) -> String {
        format!("{} x{}", self.cpu_model, self.nproc)
    }

    /// Whether the host was steady enough for the run's times to be
    /// compared with another run's.
    pub fn steady(&self) -> bool {
        self.cal_spread <= CAL_SPREAD_LIMIT
    }
}

fn host(timer: &Timer) -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_default();
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        cal_ms: timer.cal_ms(),
        cal_spread: timer.cal_spread(),
    }
}

/// The result of running one workload once.
#[derive(Debug)]
pub struct Outcome {
    /// The measured metrics.
    pub values: Values,
    /// Design points attempted (over all reps) plus output checks made.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The GC-over-BS speed-ups per kernel, where both designs ran.
    pub per_kernel: Vec<(String, f64)>,
    /// The host during the run.
    pub host: Host,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Failure bookkeeping shared by both kinds of run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Per point of one pass: it produced statistics, they are internally
    /// consistent, and they equal the reference pass's.
    fn pass(&mut self, plan: &Plan, reference: &[PointRun], runs: &[PointRun], what: &str) {
        for (i, (r, first)) in runs.iter().zip(reference).enumerate() {
            let label = plan.label(i);
            match &r.stats {
                None => self.check(false, || format!("{label}: {what} point failed")),
                Some(s) => {
                    let broken = invariant_violations(s);
                    self.check(broken.is_empty(), || {
                        format!("{label}: {}", broken.join("; "))
                    });
                    let same = first.stats.as_ref().map(digest) == Some(digest(s));
                    self.check(same, || {
                        format!("{label}: {what} statistics differ from the first pass")
                    });
                }
            }
        }
    }
}

fn counts(runs: &[PointRun]) -> Vec<Option<(u64, u64)>> {
    runs.iter()
        .map(|r| r.stats.as_ref().map(|s| (s.cycles, s.instructions)))
        .collect()
}

/// Records the end-to-end metrics of `reps`, each timing as `center` of
/// its reps.
fn end_to_end(
    values: &mut Values,
    reps: &[PassTotals],
    center: fn(&[f64]) -> Summary,
    setup: &[f64],
    peak_rss_mb: f64,
    sim: &SimSummary,
    reference: Option<f64>,
) {
    let of = |f: &dyn Fn(&PassTotals) -> f64| -> Summary {
        center(&reps.iter().map(f).collect::<Vec<_>>())
    };
    values.set("host_cost", of(&|t| t.host_cost));
    values.set(
        "sim_kcycles_per_s",
        of(&|t| t.cycles as f64 / 1e3 / t.host_cost),
    );
    values.set(
        "warp_kinstr_per_s",
        of(&|t| t.instructions as f64 / 1e3 / t.host_cost),
    );
    values.set("points_per_s", of(&|t| t.points as f64 / t.host_cost));
    values.set("setup_s", Summary::median_of(setup));
    values.set_exact("peak_rss_mb", peak_rss_mb);
    values.set_exact("sim_ipc_gm", sim.ipc_gm);
    values.set("host.raw_wall_s", of(&|t| t.raw_wall_s));
    sim_metrics(values, sim, reference);
}

fn sim_metrics(values: &mut Values, sim: &SimSummary, reference: Option<f64>) {
    if let Some(gm) = sim.gc_speedup_gm {
        values.set_exact("gc_speedup_gm", gm);
        if let Some(reference) = reference {
            values.set_exact("paper_gap_gc", paper_gap(gm, reference));
        }
    }
}

fn finish(
    mut values: Values,
    checks: Checks,
    sim: SimSummary,
    timer: &Timer,
    tracer: Option<Tracer>,
) -> Outcome {
    let host = host(timer);
    values.set_exact("host.cal_ms", host.cal_ms);
    values.set_exact("host.cal_spread", host.cal_spread);
    values.set_exact("host.nproc", host.nproc as f64);
    values.set_exact("failed_points", checks.failures.len() as f64);
    Outcome {
        values,
        attempted: checks.attempted,
        failed: checks.failures.len() as u64,
        failures: checks.failures,
        per_kernel: sim.per_kernel,
        host,
        tracer,
    }
}

/// Runs `args.workload` and returns what it measured.
pub fn run(args: &Args) -> Outcome {
    match (args.workload.name == "server_ckpt", args.trace) {
        (false, false) => untraced(args),
        (false, true) => traced(args),
        (true, false) => server_untraced(args),
        (true, true) => server_traced(args),
    }
}

fn keep_going(args: &Args, started: Instant, reps: usize, share: f64) -> bool {
    reps == 0 || (!args.quick && started.elapsed().as_secs_f64() < args.seconds * share)
}

/// Untraced reps of an in-process workload.
fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut timer = Timer::new(w.cal_steps);

    // Set-up, several times over: build the kernels and design points and
    // run one untimed warm-up point. The first sample pays the process's
    // cold start; the median does not.
    let mut setup = Vec::new();
    let plan = loop {
        let (plan, timing) = timer.time(|| {
            let plan = Plan::build(w.name, args.seed);
            let _ = sweep_point(&plan, 0);
            plan
        });
        setup.push(timing.cal_s);
        let spent: f64 = setup.iter().sum();
        if args.quick || setup.len() >= SETUP_MAX || (setup.len() >= SETUP_MIN && spent >= 1.0) {
            break plan;
        }
    };

    let mut checks = Checks::default();
    let mut reps = Vec::new();
    let mut first: Option<Vec<PointRun>> = None;
    let started = Instant::now();
    while keep_going(args, started, reps.len(), 1.0) {
        let runs = untraced_pass(&plan, &mut timer);
        checks.pass(&plan, first.as_deref().unwrap_or(&runs), &runs, "untraced");
        reps.push(totals(&runs));
        first.get_or_insert(runs);
    }
    let first = first.expect("at least one rep ran");
    let sim = sim_summary(&plan, &counts(&first));
    let mut values = Values::default();
    end_to_end(
        &mut values,
        &reps,
        Summary::mean_of,
        &setup,
        server::peak_rss_mb(std::process::id()),
        &sim,
        w.reference,
    );
    finish(values, checks, sim, &timer, None)
}

/// Sums of the simulated statistics the per-layer metrics quote.
#[derive(Default)]
struct LayerSums {
    l1: CacheStats,
    l15: CacheStats,
    l2: CacheStats,
    dram: DramStats,
    stall_cycles: u64,
    req_packets: u64,
    req_delivered: u64,
    req_latency: u64,
    req_inject_fails: u64,
    xbar_flit_cycles: u64,
    xbar_port_cycles: u64,
}

impl LayerSums {
    fn add(&mut self, s: &SimStats) {
        self.l1.merge(&s.l1);
        self.l15.merge(&s.l15);
        self.l2.merge(&s.l2);
        self.dram.merge(&s.dram);
        self.stall_cycles += s.core.mem_stall_cycles + s.core.ldst_full_stalls;
        self.req_packets += s.noc_req.packets;
        self.req_delivered += s.noc_req.delivered;
        self.req_latency += s.noc_req.total_latency;
        self.req_inject_fails += s.noc_req.inject_fails;
        self.xbar_flit_cycles += s.xbar.flit_cycles;
        self.xbar_port_cycles += s.xbar_ports * s.cycles;
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Records the metrics read off `Gpu::profile()` and `SimStats`.
fn layer_metrics(values: &mut Values, p: &Profile, sums: &LayerSums) {
    let total = p.total_ns();
    values.set_exact("gpu.ns_per_ticked_cycle", ratio(total, p.ticked_cycles));
    values.set_exact("gpu.dispatch_share", ratio(p.dispatch_ns, total));
    values.set_exact("gpu.ticked_cycles", p.ticked_cycles as f64);
    values.set_exact("gpu.cycles_skipped", p.cycles_skipped as f64);
    values.set_exact("gpu.bounds_computed", p.bounds_computed as f64);
    values.set_exact("gpu.wake_skips", p.wake_skips as f64);
    values.set_exact("core.share", ratio(p.core_ns, total));
    values.set_exact(
        "core.ns_per_ticked_cycle",
        ratio(p.core_ns, p.ticked_cycles),
    );
    values.set_exact("core.stall_cycles", sums.stall_cycles as f64);
    values.set_exact("icnt.share", ratio(p.icnt_ns, total));
    values.set_exact(
        "icnt.ns_per_ticked_cycle",
        ratio(p.icnt_ns, p.ticked_cycles),
    );
    values.set_exact("icnt.req_packets", sums.req_packets as f64);
    values.set_exact(
        "icnt.mean_latency",
        ratio(sums.req_latency, sums.req_delivered),
    );
    values.set_exact(
        "icnt.inject_fail_rate",
        ratio(
            sums.req_inject_fails,
            sums.req_packets + sums.req_inject_fails,
        ),
    );
    values.set_exact("cluster.share", ratio(p.cluster_ns, total));
    values.set_exact(
        "xbar.occupancy",
        ratio(sums.xbar_flit_cycles, sums.xbar_port_cycles),
    );
    values.set_exact("l15.miss_rate", sums.l15.miss_rate());
    values.set_exact("mem.share", ratio(p.mem_ns, total));
    values.set_exact("mem.ns_per_ticked_cycle", ratio(p.mem_ns, p.ticked_cycles));
    values.set_exact("partition.l2_accesses", sums.l2.accesses() as f64);
    values.set_exact("partition.l2_miss_rate", sums.l2.miss_rate());
    values.set_exact("dram.requests", (sums.dram.reads + sums.dram.writes) as f64);
    values.set_exact("dram.row_hit_rate", sums.dram.row_hit_rate());
    values.set_exact("dram.mean_latency", sums.dram.mean_latency());
    values.set_exact("l1.accesses", sums.l1.accesses() as f64);
    values.set_exact("l1.miss_rate", sums.l1.miss_rate());
    values.set_exact("l1.bypass_ratio", sums.l1.bypass_ratio());
    values.set_exact("l1.write_share", ratio(sums.l1.writes, sums.l1.accesses()));
    values.set_exact("policy.plane_bypasses", sums.l1.plane_bypasses as f64);
    values.set_exact("policy.clean_copy_backs", sums.l1.clean_copy_backs as f64);
}

/// Snapshot cost on point `i` (the workload's longest kernel, whose
/// statistics are `expect`): one run checkpointing at the server
/// workload's cadence (or 32 times a run, whichever is rarer), which must
/// give the plain run's statistics; then, from a mid-run snapshot,
/// restores into fresh GPUs, one of which finishes the kernel (same
/// statistics again), and a burst of saves on consecutive cycles, which
/// times `save` with next to no simulation in between.
fn snapshot_metrics(
    plan: &Plan,
    i: usize,
    expect: &SimStats,
    values: &mut Values,
    checks: &mut Checks,
) {
    const RESTORES: usize = 3;
    const SAVES: u32 = 16;
    let kernel = plan.kernels[plan.points[i].kernel].as_ref();
    let label = plan.label(i);
    let every = server::CADENCE.max(expect.cycles / 32);
    let (mut count, mut bytes, mut kept) = (0u64, 0u64, None);
    let checkpointed = Gpu::new(plan.config(i))
        .run_kernel_checkpointed(kernel, every, |cycle, snapshot| {
            count += 1;
            bytes += snapshot.len() as u64;
            if kept.is_none() && cycle >= expect.cycles / 2 {
                kept = Some(snapshot);
            }
            Ok(())
        })
        .ok();
    checks.check(
        checkpointed.as_ref().map(digest) == Some(digest(expect)),
        || format!("{label}: checkpointed run differs from the plain run"),
    );
    values.set_exact("snapshot.count", count as f64);
    values.set_exact("snapshot.bytes", bytes as f64);
    let Some(kept) = kept else {
        return;
    };

    let mut restore_us = Vec::new();
    let mut restored = Vec::new();
    for _ in 0..RESTORES {
        let mut gpu = Gpu::new(plan.config(i));
        let t0 = Instant::now();
        let ok = gpu.restore_checkpoint(&kept, kernel).is_ok();
        restore_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        restored.extend(ok.then_some(gpu));
    }
    values.set_exact("snapshot.restore_us", median(&restore_us));
    checks.check(restored.len() == RESTORES, || {
        format!("{label}: restoring a snapshot failed")
    });

    if let Some(mut gpu) = restored.pop() {
        let mut taken = 0;
        let t0 = Instant::now();
        let _ = gpu.run_kernel_checkpointed(kernel, 1, |_, snapshot| {
            std::hint::black_box(snapshot);
            taken += 1;
            if taken == SAVES {
                return Err(std::io::Error::other("burst complete"));
            }
            Ok(())
        });
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        values.set_exact("snapshot.save_us", us / f64::from(taken.max(1)));
    }
    let finished = restored
        .pop()
        .and_then(|mut gpu| gpu.run_kernel(kernel).ok());
    checks.check(
        finished.as_ref().map(digest) == Some(digest(expect)),
        || format!("{label}: run resumed from a snapshot differs from the plain run"),
    );
}

/// `telemetry.overhead` and `trace.overhead` on point `i`: the same
/// kernel plain, with a sampler and with an event ring attached,
/// interleaved; ratios of the median calibrated times.
fn watching_metrics(plan: &Plan, i: usize, timer: &mut Timer, values: &mut Values) {
    let kernel = plan.kernels[plan.points[i].kernel].as_ref();
    let (mut plain, mut sampled, mut ringed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..WATCH_ROUNDS {
        let mut run = |attach: &dyn Fn(&mut Gpu)| {
            let (_, t) = timer.time(|| {
                let mut gpu = Gpu::new(plan.config(i));
                attach(&mut gpu);
                gpu.run_kernel(kernel).ok()
            });
            t.cal_s
        };
        plain.push(run(&|_| {}));
        sampled.push(run(&|gpu| {
            gpu.attach_sampler(Sampler::new(DEFAULT_INTERVAL))
        }));
        ringed.push(run(&|gpu| {
            gpu.attach_trace(&SharedTraceRing::new(TRACE_RING))
        }));
    }
    values.set_exact("telemetry.overhead", median(&sampled) / median(&plain));
    values.set_exact("trace.overhead", median(&ringed) / median(&plain));
}

/// The drivers, the snapshot cost and the watching overheads, each in a
/// `driver.*` span. `stats[i]` are point `i`'s statistics.
fn layer_drivers(
    args: &Args,
    plan: &Plan,
    stats: &[Option<SimStats>],
    timer: &mut Timer,
    tracer: &mut Tracer,
    values: &mut Values,
    checks: &mut Checks,
) {
    if let Some(first) = &stats[0] {
        let kernel = plan.kernels[plan.points[0].kernel].as_ref();
        drivers::run_all(&plan.config(0), kernel, first, args.seed, tracer, values);
    }
    let cycles: Vec<u64> = stats
        .iter()
        .map(|s| s.as_ref().map_or(0, |s| s.cycles))
        .collect();
    let longest = plan.longest(&cycles);
    if let Some(expect) = &stats[longest] {
        tracer.span("driver.snapshot", |_| {
            snapshot_metrics(plan, longest, expect, values, checks);
        });
    }
    timer.reset();
    tracer.span("driver.watching", |_| {
        watching_metrics(plan, longest, timer, values);
    });
}

/// The traced pass of an in-process workload.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut timer = Timer::new(w.cal_steps);
    let mut tracer = Tracer::new();
    let mut values = Values::default();
    let mut checks = Checks::default();
    let plan = Plan::build(w.name, args.seed);
    let _ = sweep_point(&plan, 0);

    let sim = tracer.span("workload", |t| {
        // Each point untraced then traced, back to back, so the tracing
        // overhead is a ratio of neighbours.
        let (mut untraced_cost, mut traced_cost, mut raw_wall_s) = (0.0, 0.0, 0.0);
        let mut first: Option<Vec<PointRun>> = None;
        let mut profile = Profile::default();
        let started = Instant::now();
        let mut reps = 0;
        while keep_going(args, started, reps, 0.4) {
            let mut plain_runs = Vec::new();
            let mut traced_runs = Vec::new();
            t.span("rep", |t| {
                for i in 0..plan.points.len() {
                    plain_runs.push(reference_point(&plan, i, &mut timer, t));
                    let (run, p) = traced_point(&plan, i, &mut timer, t);
                    if let (0, Some(p)) = (reps, p) {
                        add_profile(&mut profile, &p);
                    }
                    traced_runs.push(run);
                }
            });
            let traced_totals = totals(&traced_runs);
            untraced_cost += totals(&plain_runs).host_cost;
            traced_cost += traced_totals.host_cost;
            raw_wall_s += traced_totals.raw_wall_s;
            let reference = first.as_deref().unwrap_or(&plain_runs);
            checks.pass(&plan, reference, &plain_runs, "untraced");
            checks.pass(&plan, reference, &traced_runs, "traced");
            first.get_or_insert(plain_runs);
            reps += 1;
        }
        let first = first.expect("at least one rep ran");
        values.set_exact("bench.trace_overhead", traced_cost / untraced_cost);
        values.set_exact("host.raw_wall_s", raw_wall_s / reps as f64);

        let mut sums = LayerSums::default();
        for s in first.iter().filter_map(|r| r.stats.as_ref()) {
            sums.add(s);
        }
        layer_metrics(&mut values, &profile, &sums);
        let sim = sim_summary(&plan, &counts(&first));
        sim_metrics(&mut values, &sim, w.reference);

        // One kernel again with the idle-cycle fast-forward off: the plain
        // cycle loop must give the same statistics.
        t.span("check.no_fast_forward", |_| {
            let mut cfg = plan.config(0);
            cfg.fast_forward = false;
            let kernel = plan.kernels[plan.points[0].kernel].as_ref();
            let slow = Gpu::new(cfg).run_kernel(kernel).ok();
            let same = slow.as_ref().map(digest) == first[0].stats.as_ref().map(digest);
            checks.check(same, || {
                format!(
                    "{}: fast_forward = false changes the statistics",
                    plan.label(0)
                )
            });
        });

        if w.name == "grid_smoke" {
            t.span("sweep.parallel", |_| {
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                let grid: Vec<_> = (0..plan.points.len())
                    .map(|i| plan.design_point(i))
                    .collect();
                timer.reset();
                let (parallel, timing) = timer.time(|| run_design_points(&grid, nproc));
                let serial = totals(&first).host_cost;
                values.set_exact("sweep.parallel_speedup", serial / timing.cal_s);
                let same = parallel.iter().map(digest).map(Some).collect::<Vec<_>>()
                    == first
                        .iter()
                        .map(|r| r.stats.as_ref().map(digest))
                        .collect::<Vec<_>>();
                checks.check(same, || {
                    "jobs = nproc results differ from jobs = 1".to_string()
                });
            });
        }

        let stats: Vec<Option<SimStats>> = first.into_iter().map(|r| r.stats).collect();
        layer_drivers(args, &plan, &stats, &mut timer, t, &mut values, &mut checks);
        sim
    });
    finish(values, checks, sim, &timer, Some(tracer))
}

fn run_dir(args: &Args, tag: &str) -> PathBuf {
    args.out_dir.join(format!("server-{tag}"))
}

/// One timed rep of the server: a run with one worker on each of
/// [`server::KERNELS`] in turn, a calibration loop between every two.
/// The rep's `host_cost` is the calibrated CPU time of those runs; `Err`
/// is recorded as a failure.
fn server_rep(
    args: &Args,
    tag: &str,
    cadence: Option<u64>,
    timer: &mut Timer,
    checks: &mut Checks,
) -> Option<(ServerRun, PassTotals)> {
    let dir = run_dir(args, tag);
    let mut rep: Option<ServerRun> = None;
    let mut host_cost = 0.0;
    for kernel in server::KERNELS {
        let (run, timing) =
            timer.time(|| server::run(&dir, Some(kernel), server::WORKERS, cadence));
        let _ = std::fs::remove_dir_all(&dir);
        match run {
            Err(e) => {
                checks.check(false, || format!("sweep_server on {kernel}: {e}"));
                return None;
            }
            Ok(run) => {
                // The CPU time of the server's processes, not their wall
                // time: one rep in twelve waits on the shared disk, for up
                // to as long again (README.md has the measurement).
                host_cost += timing.calibrated(run.cpu_ns, server::CAL_ELASTICITY);
                rep = Some(match rep {
                    None => run,
                    Some(so_far) => so_far.then(run),
                });
            }
        }
    }
    let run = rep?;
    let totals = PassTotals {
        host_cost,
        raw_wall_s: run.wall_ns / 1e9,
        cycles: run.rows.iter().map(|r| r.0).sum(),
        instructions: run.rows.iter().map(|r| r.1).sum(),
        points: run.rows.len(),
    };
    Some((run, totals))
}

/// Per rep of the server: `merged.tsv` has a header and one row per
/// point of the plan and is byte-identical to the first rep's.
fn check_merged(checks: &mut Checks, plan: &Plan, first: &ServerRun, run: &ServerRun) {
    for i in 0..plan.points.len() {
        checks.check(i < run.rows.len(), || format!("merged.tsv lacks row {i}"));
    }
    checks.check(run.merged == first.merged, || {
        "merged.tsv differs from the first rep's".to_string()
    });
}

/// The whole quick grid once, sharded across every CPU at the server's
/// default cadence, nothing timed: `merged.tsv` must hold a header and
/// 102 rows, among them every row of the timed run `run` (the index
/// column aside), byte for byte.
fn check_whole_grid(args: &Args, run: &ServerRun, checks: &mut Checks) {
    let dir = run_dir(args, "whole-grid");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let whole = server::run(&dir, None, nproc, None);
    let _ = std::fs::remove_dir_all(&dir);
    match whole {
        Err(e) => checks.check(false, || format!("sweep_server on the whole grid: {e}")),
        Ok(whole) => {
            checks.check(whole.rows.len() == server::GRID_POINTS, || {
                format!("the whole grid's merged.tsv has {} rows", whole.rows.len())
            });
            let body = |row: &str| row.split_once('\t').map(|(_, rest)| rest.to_string());
            let rows: Vec<String> = whole.merged.lines().skip(1).filter_map(body).collect();
            for row in run.merged.lines().skip(1) {
                checks.check(body(row).is_some_and(|b| rows.contains(&b)), || {
                    format!("the whole grid's merged.tsv lacks the row {row}")
                });
            }
        }
    }
}

/// The simulated metrics of a server run's merged rows (of nothing, when
/// no run succeeded).
fn server_sim(plan: &Plan, run: Option<&ServerRun>) -> SimSummary {
    let counts: Vec<_> = (0..plan.points.len())
        .map(|i| run.and_then(|r| r.rows.get(i)).copied())
        .collect();
    sim_summary(plan, &counts)
}

/// Untraced reps of `server_ckpt`.
fn server_untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut timer = Timer::new(w.cal_steps);
    let mut checks = Checks::default();
    let plan = Plan::build(w.name, args.seed);

    // Set-up (spawn until the first point starts) takes milliseconds, and
    // beside a running server the calibration loops wait for a CPU. It is
    // sampled on its own: the server started on one kernel's six points,
    // each start between two calibration loops.
    let mut setup = Vec::new();
    let mut probe_timer = Timer::new(CAL_STEPS_SMALL);
    for _ in 0..if args.quick { 1 } else { SETUP_PROBES } {
        let dir = run_dir(args, "setup");
        let (probe, timing) =
            probe_timer.time(|| server::run(&dir, Some(SETUP_PROBE_KERNEL), server::WORKERS, None));
        let _ = std::fs::remove_dir_all(&dir);
        match probe {
            Ok(probe) => setup.push(timing.calibrated(probe.setup_ns, 1.0)),
            Err(e) => checks.check(false, || format!("sweep_server set-up probe: {e}")),
        }
    }

    let mut reps = Vec::new();
    let mut runs: Vec<ServerRun> = Vec::new();
    let started = Instant::now();
    let mut tries = 0;
    while keep_going(args, started, tries, 1.0) {
        tries += 1;
        if let Some((run, rep)) = server_rep(
            args,
            "untraced",
            Some(server::CADENCE),
            &mut timer,
            &mut checks,
        ) {
            check_merged(&mut checks, &plan, runs.first().unwrap_or(&run), &run);
            runs.push(run);
            reps.push(rep);
        }
    }
    let mut values = Values::default();
    let sim = server_sim(&plan, runs.first());
    let peak = runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    // Six or seven reps, each five server runs, now and then one of them
    // beside a burst of another tenant's: the median leaves that rep out
    // (README.md has the measurement).
    end_to_end(
        &mut values,
        &reps,
        Summary::median_of,
        &setup,
        peak,
        &sim,
        w.reference,
    );
    finish(values, checks, sim, &timer, None)
}

/// The traced pass of `server_ckpt`: one run at the measured cadence,
/// one at the server's default and the whole-grid check, then the
/// in-process drivers on the grid's own kernels. What happens inside the worker processes cannot be
/// profiled from outside, so the `Gpu::profile()` metrics read 0.
fn server_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut timer = Timer::new(w.cal_steps);
    let mut tracer = Tracer::new();
    let mut values = Values::default();
    let mut checks = Checks::default();
    let plan = Plan::build(w.name, args.seed);
    let sim = tracer.span("workload", |t| {
        let measured = t.span("rep", |t| {
            let measured = t.span("server_run", |t| {
                let r = server_rep(
                    args,
                    "traced",
                    Some(server::CADENCE),
                    &mut timer,
                    &mut checks,
                );
                if let Some((run, rep)) = &r {
                    t.count("wall_ms", run.wall_ns / 1e6);
                    t.count("setup_ms", run.setup_ns / 1e6);
                    t.count("point_ms_sum", run.point_ms_sum);
                    t.count("cal_s", rep.host_cost);
                }
                r
            });
            let default = t.span("server_run_default_cadence", |_| {
                server_rep(args, "traced-default", None, &mut timer, &mut checks)
            });
            if let (Some((run, rep)), Some((base_run, base))) = (&measured, &default) {
                check_merged(&mut checks, &plan, base_run, run);
                values.set_exact("server.coord_overhead", server::coord_overhead(run));
                values.set_exact("server.ckpt_overhead", rep.host_cost / base.host_cost);
                values.set_exact("server.respawns", run.respawns as f64);
                values.set_exact("host.raw_wall_s", rep.raw_wall_s);
            }
            if let Some((run, _)) = &measured {
                t.span("check.whole_grid", |_| {
                    check_whole_grid(args, run, &mut checks);
                });
            }
            measured
        });
        let run = measured.as_ref().map(|m| &m.0);
        let sim = server_sim(&plan, run);
        sim_metrics(&mut values, &sim, w.reference);

        // The drivers need full statistics, which merged.tsv does not
        // carry: run the grid's first kernel and its longest in-process.
        let cycles: Vec<u64> = (0..plan.points.len())
            .map(|i| run.and_then(|r| r.rows.get(i)).map_or(0, |r| r.0))
            .collect();
        let longest = plan.longest(&cycles);
        let mut stats: Vec<Option<SimStats>> = vec![None; plan.points.len()];
        for i in [0, longest] {
            stats[i] = sweep_point(&plan, i);
        }
        layer_drivers(args, &plan, &stats, &mut timer, t, &mut values, &mut checks);
        sim
    });
    finish(values, checks, sim, &timer, Some(tracer))
}
