//! Figures 8 & 9: IPC speedup (normalised to BS) and L1 miss rate of all
//! designs — BS-S, PDP-3, PDP-8, SPDP-B, GC — over the 17 benchmarks,
//! plus geometric means for the cache-sensitive set and overall.
//!
//! Run with `cargo run --release -p gcache-bench --bin fig8_fig9`.
//! `--jobs N` fans the runs out over worker threads; stdout is
//! byte-identical for every N.

use gcache_bench::sweep::{run_design_points_with, DesignPoint};
use gcache_bench::{
    bench_cli, designs, export_telemetry, export_trace, pct, select_optimal_pd, speedup, Table,
    PD_CANDIDATES,
};
use gcache_sim::config::L1PolicyKind;
use gcache_sim::stats::geomean;
use gcache_workloads::Category;

fn main() {
    let cli = bench_cli();
    let benches = cli.benchmarks();
    let jobs = cli.jobs();
    let opts = cli.run_opts();

    // Phase 1: the SPDP-B oracle — every benchmark × candidate PD as one
    // flat grid, reduced per benchmark afterwards.
    let pd_grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            PD_CANDIDATES
                .iter()
                .map(|&pd| DesignPoint::flat(b.as_ref(), L1PolicyKind::StaticPdp { pd }))
        })
        .collect();
    eprintln!(
        "[fig8] SPDP-B sweep: {} runs on {jobs} jobs ...",
        pd_grid.len()
    );
    let mut pd_stats = run_design_points_with(&pd_grid, jobs, &opts).into_iter();
    let best_pds: Vec<u16> = benches
        .iter()
        .map(|_| {
            let chunk = pd_stats.by_ref().take(PD_CANDIDATES.len());
            select_optimal_pd(PD_CANDIDATES.iter().copied().zip(chunk)).0
        })
        .collect();

    // Phase 2: the six Figure 8 designs per benchmark.
    let design_grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .zip(&best_pds)
        .flat_map(|(b, &pd)| {
            designs(pd)
                .into_iter()
                .map(|policy| DesignPoint::flat(b.as_ref(), policy))
        })
        .collect();
    eprintln!(
        "[fig8] design grid: {} runs on {jobs} jobs ...",
        design_grid.len()
    );
    let per_design = designs(0).len();
    let mut all = run_design_points_with(&design_grid, jobs, &opts).into_iter();

    let design_names = ["BS", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); design_names.len()];
    let mut fig8 = Table::new(&["Bench", "Cat", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    let mut fig9 = Table::new(&["Bench", "BS", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    let mut cats = Vec::new();

    for b in &benches {
        let info = b.info();
        let runs: Vec<_> = all.by_ref().take(per_design).collect();
        let base = &runs[0];
        assert_eq!(base.design, "BS");
        let mut f8 = vec![info.name.to_string(), format!("{:?}", info.category)];
        let mut f9 = vec![info.name.to_string()];
        for (i, r) in runs.iter().enumerate() {
            let s = r.speedup_over(base);
            speedups[i].push(s);
            if i > 0 {
                f8.push(speedup(s));
            }
            f9.push(pct(r.l1_miss_rate()));
        }
        fig8.row(f8);
        fig9.row(f9);
        cats.push(info.category);
    }

    // Geometric means per group.
    for (label, filter) in [
        ("GM (sensitive)", Some(Category::Sensitive)),
        ("GM (all)", None),
    ] {
        let mut f8 = vec![label.to_string(), String::new()];
        for per_design in speedups.iter().skip(1) {
            let g = geomean(
                per_design
                    .iter()
                    .zip(&cats)
                    .filter(|(_, c)| filter.is_none_or(|f| **c == f))
                    .map(|(s, _)| *s),
            );
            f8.push(speedup(g));
        }
        fig8.row(f8);
    }

    println!("## Figure 8: IPC speedup over BS (Table 2 machine, 32KB L1)\n");
    println!("{}", fig8.render());
    println!("## Figure 9: L1 miss rate of all designs\n");
    println!("{}", fig9.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
