//! Parallel sweep engine: a work-stealing job queue over scoped threads.
//!
//! Every paper artefact is a grid of fully independent single-threaded
//! simulations (benchmark × policy × config). This module fans that grid
//! out over OS threads with zero dependencies: jobs are dealt round-robin
//! into per-worker deques, idle workers steal from the back of their
//! neighbours' queues, and results land in pre-allocated slots keyed by
//! submission index — so the output order (and therefore every table
//! printed from it) is **bit-identical** to a serial run regardless of
//! `--jobs`. Each simulation stays single-threaded and seeded; parallelism
//! never changes what is computed, only when.
//!
//! Entry points: [`Sweep`], the run context every experiment binary
//! drives its grids through; [`parallel_map`] for arbitrary job types;
//! [`run_design_points_with`] for the stats of a benchmark grid under
//! explicit [`RunOpts`], and [`run_design_points`] as its
//! default-options form.

use crate::{
    export_trace, run_point, select_optimal_pd, write_telemetry_series, Cli, PolicyPlanes, RunOpts,
    TelemetrySeries, PD_CANDIDATES,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::Sampler;
use gcache_workloads::Benchmark;
use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

/// One cell of an experiment grid: a benchmark run under one L1 policy,
/// optionally at a non-default L1 capacity or hierarchy shape.
#[derive(Clone, Copy)]
pub struct DesignPoint<'a> {
    /// The workload.
    pub bench: &'a dyn Benchmark,
    /// The L1 management policy under test.
    pub policy: L1PolicyKind,
    /// L1 capacity override in KB (`None` = Table 2's 32 KB).
    pub l1_kb: Option<u64>,
    /// Memory-hierarchy shape (`Hierarchy::Flat` = Table 2's machine).
    pub hierarchy: Hierarchy,
    /// Cluster-crossbar port count (`1` = the legacy single-injection-port
    /// mesh node; ignored on flat shapes).
    pub cluster_ports: usize,
    /// Orthogonal L1 policy planes composed around `policy`
    /// ([`PolicyPlanes::default`] = both planes defer to the policy).
    pub planes: PolicyPlanes,
}

impl std::fmt::Debug for DesignPoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignPoint")
            .field("bench", &self.bench.name())
            .field("policy", &self.policy)
            .field("l1_kb", &self.l1_kb)
            .field("hierarchy", &self.hierarchy)
            .field("cluster_ports", &self.cluster_ports)
            .field("planes", &self.planes)
            .finish()
    }
}

impl<'a> DesignPoint<'a> {
    /// `bench` under `policy` on the flat Table 2 machine: default L1
    /// size, one port, both planes deferring to the policy. Other cells
    /// override fields with struct-update syntax.
    pub fn flat(bench: &'a dyn Benchmark, policy: L1PolicyKind) -> Self {
        DesignPoint {
            bench,
            policy,
            l1_kb: None,
            hierarchy: Hierarchy::Flat,
            cluster_ports: 1,
            planes: PolicyPlanes::default(),
        }
    }

    /// The validated machine configuration of this point — the single
    /// place a grid cell becomes a [`GpuConfig`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid L1 size, hierarchy, or port count — grid axes
    /// are expected to be pre-validated at the command line.
    pub fn config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::fermi_with_policy(self.policy).expect("valid config");
        if let Some(kb) = self.l1_kb {
            cfg = cfg.with_l1_kb(kb).expect("valid L1 size");
        }
        cfg.with_hierarchy(self.hierarchy)
            .unwrap_or_else(|e| panic!("invalid hierarchy {:?}: {e}", self.hierarchy))
            .with_cluster_ports(self.cluster_ports)
            .expect("positive cluster port count")
            .with_l1_bypass(self.planes.l1_bypass)
            .with_l1_copy_back(self.planes.l1_copy_back)
    }

    /// A stable identity for this point, embedded in (and hashed into the
    /// filename of) its checkpoint so `--resume` can never cross wires
    /// between points — not even between the sampled and unsampled runs
    /// of the same configuration, whose machine states coincide but whose
    /// telemetry does not. Also the point's name in the sweep server's
    /// manifest and merged output.
    pub fn label(&self, sampled: bool) -> String {
        format!(
            "{}|{:?}|kb={:?}|{:?}|ports={}|planes={}|sampled={sampled}",
            self.bench.info().name,
            self.policy,
            self.l1_kb,
            self.hierarchy,
            self.cluster_ports,
            self.planes.label()
        )
    }

    /// Simulates this point under `opts` (see [`run_point`]): its stats
    /// and, when `opts.sampled`, its telemetry series.
    pub fn run(&self, opts: &RunOpts) -> (SimStats, Option<Sampler>) {
        run_point(self.config(), self.bench, &self.label(opts.sampled), opts)
    }
}

/// One run of a grid: a design point, or a design point's machine with
/// one more [`GpuConfig`] field changed (`ablation`'s sharing factor,
/// epoch length and warp scheduler, which [`DesignPoint`] has no axis
/// for).
pub struct Cell<'a> {
    point: DesignPoint<'a>,
    cfg: GpuConfig,
    tag: String,
}

impl<'a> From<DesignPoint<'a>> for Cell<'a> {
    fn from(point: DesignPoint<'a>) -> Self {
        Cell {
            cfg: point.config(),
            point,
            tag: String::new(),
        }
    }
}

impl<'a> Cell<'a> {
    /// `point` on its machine after `tweak`. `tag` names the change; it
    /// is appended to the point's label, so the tweaked cell and the
    /// plain one never share a checkpoint file.
    pub fn tweaked(point: DesignPoint<'a>, tag: &str, tweak: impl FnOnce(&mut GpuConfig)) -> Self {
        let mut cell = Cell::from(point);
        tweak(&mut cell.cfg);
        cell.tag = format!("|{tag}");
        cell
    }
}

/// The run context of one experiment binary: the command line, the
/// benchmarks it selected and how its points run, resolved once. Every
/// grid of every binary goes through [`Sweep::grid`].
pub struct Sweep {
    /// The parsed command line.
    pub cli: Cli,
    /// The selected benchmarks, in registry order.
    pub benches: Vec<Box<dyn Benchmark>>,
    jobs: usize,
    opts: RunOpts,
}

impl Sweep {
    /// A sweep over the Table 1 benchmarks `cli` selects.
    pub fn new(cli: Cli) -> Sweep {
        let benches = cli.benchmarks();
        Sweep::over(cli, benches)
    }

    /// A sweep over `benches` (a selection from another registry).
    pub fn over(cli: Cli, benches: Vec<Box<dyn Benchmark>>) -> Sweep {
        Sweep {
            jobs: cli.jobs(),
            opts: cli.run_opts(),
            cli,
            benches,
        }
    }

    /// Runs `variants(b)` for every selected benchmark `b` as one flat
    /// grid on the `--jobs` worker threads and hands the stats back per
    /// benchmark, in the order the variants were given. `what` names the
    /// grid in the progress line on stderr. With `series`, every run
    /// carries the telemetry sampler and the recorded series are appended
    /// there, likewise one `Vec` per benchmark.
    ///
    /// # Panics
    ///
    /// Panics if two cells of the grid share a label — labels name
    /// checkpoint files, so `--resume` would cross wires between them —
    /// or if a simulation fails (see [`run_point`]).
    pub fn grid<'a, I>(
        &'a self,
        what: &str,
        mut series: Option<&mut Vec<Vec<Sampler>>>,
        mut variants: impl FnMut(&'a dyn Benchmark) -> I,
    ) -> Vec<Vec<SimStats>>
    where
        I: IntoIterator,
        I::Item: Into<Cell<'a>>,
    {
        let opts = RunOpts {
            sampled: series.is_some(),
            ..self.opts.clone()
        };
        let mut sizes = Vec::new();
        let mut cells = Vec::new();
        let mut labels = HashSet::new();
        for b in &self.benches {
            let before = cells.len();
            for cell in variants(b.as_ref()) {
                let Cell { point, cfg, tag } = cell.into();
                let label = point.label(opts.sampled) + &tag;
                assert!(labels.insert(label.clone()), "two cells labelled {label}");
                cells.push((cfg, point.bench, label));
            }
            sizes.push(cells.len() - before);
        }
        let (binary, jobs) = (self.cli.binary, self.jobs);
        eprintln!("[{binary}] {what}: {} runs on {jobs} jobs ...", cells.len());
        let mut runs = parallel_map(&cells, jobs, |(cfg, bench, label)| {
            run_point(cfg.clone(), *bench, label, &opts)
        })
        .into_iter();
        sizes
            .into_iter()
            .map(|n| {
                let (stats, sampled): (Vec<_>, Vec<_>) = runs.by_ref().take(n).unzip();
                if let Some(series) = series.as_deref_mut() {
                    series.push(sampled.into_iter().flatten().collect());
                }
                stats
            })
            .collect()
    }

    /// The SPDP-B oracle at an L1 size (`None` = Table 2's 32 KB): every
    /// selected benchmark under each of [`PD_CANDIDATES`], reduced per
    /// benchmark to `(best_pd, stats at best_pd)` by
    /// [`select_optimal_pd`].
    pub fn oracle(&self, l1_kb: Option<u64>) -> Vec<(u16, SimStats)> {
        let sweep = self.grid("SPDP-B sweep", None, |b| {
            PD_CANDIDATES.iter().map(move |&pd| DesignPoint {
                l1_kb,
                ..DesignPoint::flat(b, L1PolicyKind::StaticPdp { pd })
            })
        });
        sweep
            .into_iter()
            .map(|runs| select_optimal_pd(PD_CANDIDATES.iter().copied().zip(runs)))
            .collect()
    }

    /// Honours `--telemetry` and `--trace-out` once the binary has
    /// printed its report (both are no-ops without their flag, so stdout
    /// stays byte-identical). `series` is what the binary sampled itself;
    /// `None` asks for the default, the selected benchmarks under GC.
    ///
    /// # Panics
    ///
    /// Panics if a simulation fails or a file cannot be written.
    pub fn finish(&self, series: Option<Vec<TelemetrySeries>>) {
        if let Some(path) = &self.cli.telemetry {
            let series = series.unwrap_or_else(|| {
                let gc = L1PolicyKind::GCache(GCacheConfig::default());
                let mut samplers = Vec::new();
                let runs = self.grid("telemetry", Some(&mut samplers), |b| {
                    [DesignPoint::flat(b, gc)]
                });
                let named = self
                    .benches
                    .iter()
                    .zip(runs)
                    .zip(samplers.into_iter().flatten());
                named
                    .map(|((b, run), s)| (b.info().name.to_string(), run[0].design, s))
                    .collect()
            });
            write_telemetry_series(path, &series);
        }
        if let Some(path) = &self.cli.trace_out {
            export_trace(path, &self.benches, self.opts.fast_forward);
        }
    }
}

/// Runs a grid of design points on `jobs` worker threads under `opts`,
/// returning stats in submission order.
pub fn run_design_points_with(
    points: &[DesignPoint<'_>],
    jobs: usize,
    opts: &RunOpts,
) -> Vec<SimStats> {
    parallel_map(points, jobs, |p| p.run(opts).0)
}

/// [`run_design_points_with`] under [`RunOpts::default`]: fast-forward
/// on, no checkpoints.
pub fn run_design_points(points: &[DesignPoint<'_>], jobs: usize) -> Vec<SimStats> {
    run_design_points_with(points, jobs, &RunOpts::default())
}

/// Applies `f` to every item on a pool of `jobs` scoped worker threads
/// and returns the results **in submission order**.
///
/// `jobs <= 1` (or a single item) degenerates to a plain serial loop on
/// the calling thread — the parallel path produces byte-identical results
/// because `f` is pure per item and slot `i` always holds `f(&items[i])`.
///
/// Scheduling is work-stealing: items are dealt round-robin across
/// per-worker deques; a worker pops from its own queue front and, once
/// empty, steals from the back of the next non-empty neighbour. The job
/// set is fixed before any worker starts, so an empty sweep of all queues
/// means the worker can exit.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (the scope joins all workers
/// first), and panics if a result slot is left unfilled — impossible
/// unless `f` panicked.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Deal jobs round-robin so every worker starts with a fair share.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..items.len() {
        queues[i % workers].lock().unwrap().push_back(i);
    }

    // One slot per job, keyed by submission index — collection order is
    // fixed no matter which worker finishes when.
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            s.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    let r = f(&items[i]);
                    *slots[i].lock().unwrap() = Some(r);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker exited without filling its slot")
        })
        .collect()
}

/// Pops the next job for worker `w`: its own queue first (front), then a
/// steal from the back of the nearest non-empty victim. `None` means all
/// queues are drained and the worker can exit (the job set is fixed).
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().unwrap().pop_front() {
        return Some(i);
    }
    for off in 1..queues.len() {
        let victim = (w + off) % queues.len();
        if let Some(i) = queues[victim].lock().unwrap().pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(&items, 1, |&x| x * x + 1);
        let parallel = parallel_map(&items, 8, |&x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_come_back_in_submission_order_under_contention() {
        // Early jobs sleep longest, so completion order is roughly the
        // reverse of submission order — the collected Vec must still be
        // in submission order.
        let items: Vec<usize> = (0..24).collect();
        let order = AtomicUsize::new(0);
        let results = parallel_map(&items, 4, |&i| {
            std::thread::sleep(Duration::from_millis((24 - i) as u64 / 4));
            (i, order.fetch_add(1, Ordering::SeqCst))
        });
        let submitted: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(submitted, items, "slots must follow submission order");
        let completion: Vec<usize> = results.iter().map(|&(_, c)| c).collect();
        assert_ne!(
            completion, submitted,
            "jobs should have completed out of order under staggered sleeps"
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 8, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map(&[10u32, 20], 16, |&x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = parallel_map(&items, 8, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }
}
