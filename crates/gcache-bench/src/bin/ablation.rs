//! Ablation study of G-Cache's design choices (DESIGN.md §5):
//!
//! * hotness threshold `TH_hot`,
//! * ageing period `M` (§5.1's proposed fix for very large reuse
//!   distances),
//! * victim-bit sharing factor `S_v` (§4.1/§4.3's overhead knob),
//! * epoch length (bypass-switch reset period),
//! * warp scheduler (LRR vs GTO) interaction.
//!
//! Run with `cargo run --release -p gcache-bench --bin ablation`
//! (`--bench` restricts the benchmark set; default: SPMV, SYRK, KMN).
//! `--jobs N` fans the runs out over worker threads; stdout is
//! byte-identical for every N.

use gcache_bench::sweep::{parallel_map, run_design_points_with, DesignPoint};
use gcache_bench::{bench_cli, export_telemetry, export_trace, run_point, speedup, RunOpts, Table};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{GpuConfig, L1PolicyKind, WarpSchedKind};
use gcache_sim::stats::SimStats;
use gcache_workloads::Benchmark;

/// A grid cell whose machine is not expressible as a [`DesignPoint`]: the
/// point's configuration with one more `GpuConfig` field changed, the
/// benchmark, and a label naming the change (checkpoint identity).
type Cell<'a> = (GpuConfig, &'a dyn Benchmark, String);

fn cell(point: DesignPoint<'_>) -> Cell<'_> {
    (point.config(), point.bench, point.label(false))
}

fn tweaked<'a>(
    point: DesignPoint<'a>,
    tag: String,
    tweak: impl FnOnce(&mut GpuConfig),
) -> Cell<'a> {
    let (mut cfg, bench, label) = cell(point);
    tweak(&mut cfg);
    (cfg, bench, format!("{label}|{tag}"))
}

fn run_cells(cells: &[Cell<'_>], jobs: usize, opts: &RunOpts) -> Vec<SimStats> {
    parallel_map(cells, jobs, |(cfg, bench, label)| {
        run_point(cfg.clone(), *bench, label, opts).0
    })
}

fn gc(cfg: GCacheConfig) -> L1PolicyKind {
    L1PolicyKind::GCache(cfg)
}

fn main() {
    let mut cli = bench_cli();
    if cli.only.is_empty() {
        cli.only = vec!["SPMV".into(), "SYRK".into(), "KMN".into()];
    }
    let benches = cli.benchmarks();
    let jobs = cli.jobs();
    let opts = cli.run_opts();

    // --- TH_hot sweep -----------------------------------------------------
    eprintln!(
        "[ablation/th_hot] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(L1PolicyKind::Lru)
                .chain([1u8, 2, 3, 4].into_iter().map(|t| {
                    gc(GCacheConfig {
                        th_hot: t,
                        th_hot_victim: 1,
                        ..GCacheConfig::default()
                    })
                }))
                .map(move |policy| DesignPoint::flat(b.as_ref(), policy))
        })
        .collect();
    let mut results = run_design_points_with(&grid, jobs, &opts).into_iter();
    let mut th = Table::new(&["Bench", "TH=1", "TH=2 (paper)", "TH=3", "TH=4"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        th.row(row);
    }
    println!("## Ablation: hotness threshold TH_hot (GC speedup over BS)\n");
    println!("{}", th.render());

    // --- Ageing period M (§5.1) -------------------------------------------
    eprintln!(
        "[ablation/aging] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(L1PolicyKind::Lru)
                .chain([1u32, 2, 4, 8].into_iter().map(|m| {
                    gc(GCacheConfig {
                        aging_period: m,
                        ..GCacheConfig::default()
                    })
                }))
                .map(move |policy| DesignPoint::flat(b.as_ref(), policy))
        })
        .collect();
    let mut results = run_design_points_with(&grid, jobs, &opts).into_iter();
    let mut aging = Table::new(&["Bench", "M=1 (paper)", "M=2", "M=4", "M=8"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        aging.row(row);
    }
    println!("## Ablation: ageing period M — larger M extends protection reach (§5.1)\n");
    println!("{}", aging.render());

    // --- Victim-bit sharing S_v (§4.1 / §4.3) ------------------------------
    eprintln!(
        "[ablation/share] {} runs on {jobs} jobs ...",
        benches.len() * 4
    );
    let grid: Vec<Cell<'_>> = benches
        .iter()
        .flat_map(|b| {
            let gc_point = DesignPoint::flat(b.as_ref(), gc(GCacheConfig::default()));
            std::iter::once(cell(DesignPoint::flat(b.as_ref(), L1PolicyKind::Lru))).chain(
                [1usize, 4, 16].into_iter().map(move |s_v| {
                    tweaked(gc_point, format!("S_v={s_v}"), |c| c.victim_bit_share = s_v)
                }),
            )
        })
        .collect();
    let mut results = run_cells(&grid, jobs, &opts).into_iter();
    let mut share = Table::new(&["Bench", "S_v=1 (paper)", "S_v=4", "S_v=16 (1 bit)"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(3) {
            row.push(speedup(s.speedup_over(&base)));
        }
        share.row(row);
    }
    println!("## Ablation: victim-bit sharing factor S_v (overhead/accuracy tradeoff)\n");
    println!("{}", share.render());

    // --- Epoch length -------------------------------------------------------
    eprintln!(
        "[ablation/epoch] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<Cell<'_>> = benches
        .iter()
        .flat_map(|b| {
            let gc_point = DesignPoint::flat(b.as_ref(), gc(GCacheConfig::default()));
            std::iter::once(cell(DesignPoint::flat(b.as_ref(), L1PolicyKind::Lru))).chain(
                [256u64, 512, 2048, 0]
                    .into_iter()
                    .map(move |e| tweaked(gc_point, format!("epoch={e}"), |c| c.l1_epoch_len = e)),
            )
        })
        .collect();
    let mut results = run_cells(&grid, jobs, &opts).into_iter();
    let mut epoch = Table::new(&["Bench", "256", "512 (default)", "2048", "off"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        epoch.row(row);
    }
    println!("## Ablation: bypass-switch reset epoch\n");
    println!("{}", epoch.render());

    // --- Scheduler interaction (§6.2) ---------------------------------------
    eprintln!(
        "[ablation/sched] {} runs on {jobs} jobs ...",
        benches.len() * 4
    );
    let grid: Vec<Cell<'_>> = benches
        .iter()
        .flat_map(|b| {
            let bs = DesignPoint::flat(b.as_ref(), L1PolicyKind::Lru);
            let gc_point = DesignPoint::flat(b.as_ref(), gc(GCacheConfig::default()));
            let gto = |c: &mut GpuConfig| c.warp_sched = WarpSchedKind::Gto;
            [
                cell(bs),
                cell(gc_point),
                tweaked(bs, "sched=Gto".into(), gto),
                tweaked(gc_point, "sched=Gto".into(), gto),
            ]
        })
        .collect();
    let mut results = run_cells(&grid, jobs, &opts).into_iter();
    let mut sched = Table::new(&["Bench", "LRR BS", "LRR GC", "GTO BS", "GTO GC"]);
    for b in &benches {
        let lrr_bs = results.next().expect("LRR BS present");
        let lrr_gc = results.next().expect("LRR GC present");
        let gto_bs = results.next().expect("GTO BS present");
        let gto_gc = results.next().expect("GTO GC present");
        sched.row(vec![
            b.info().name.to_string(),
            format!("{:.3}", lrr_bs.ipc()),
            format!(
                "{:.3} ({})",
                lrr_gc.ipc(),
                speedup(lrr_gc.speedup_over(&lrr_bs))
            ),
            format!("{:.3}", gto_bs.ipc()),
            format!(
                "{:.3} ({})",
                gto_gc.ipc(),
                speedup(gto_gc.speedup_over(&gto_bs))
            ),
        ]);
    }
    println!("## Ablation: warp scheduler interaction (GC works under both, §6.2)\n");
    println!("{}", sched.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
