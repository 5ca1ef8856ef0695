//! Table 3: bypass ratio (bypassed fills / accesses) of G-Cache and
//! SPDP-B, and the per-benchmark optimal protection distance found by the
//! SPDP-B sweep.
//!
//! Run with `cargo run --release -p gcache-bench --bin table3`.
//! `--jobs N` fans the runs out over worker threads; stdout is
//! byte-identical for every N.

use gcache_bench::sweep::{run_design_points_with, DesignPoint};
use gcache_bench::{
    bench_cli, export_telemetry, export_trace, pct, select_optimal_pd, Table, PD_CANDIDATES,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;

fn main() {
    let cli = bench_cli();
    let benches = cli.benchmarks();
    let jobs = cli.jobs();

    // One flat grid: per benchmark, the GC run followed by the SPDP-B
    // candidate sweep. Chunks are reduced per benchmark afterwards.
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(L1PolicyKind::GCache(GCacheConfig::default()))
                .chain(
                    PD_CANDIDATES
                        .iter()
                        .map(|&pd| L1PolicyKind::StaticPdp { pd }),
                )
                .map(|policy| DesignPoint::flat(b.as_ref(), policy))
        })
        .collect();
    eprintln!("[table3] {} runs on {jobs} jobs ...", grid.len());
    let mut results = run_design_points_with(&grid, jobs, &cli.run_opts()).into_iter();

    let mut t = Table::new(&[
        "Benchmark",
        "G-Cache Bypass Ratio",
        "SPDP-B Bypass Ratio",
        "Optimal PD of SPDP-B",
    ]);
    for b in &benches {
        let info = b.info();
        let gc = results.next().expect("GC run present");
        let sweep = results.by_ref().take(PD_CANDIDATES.len());
        let (best_pd, spdp) = select_optimal_pd(PD_CANDIDATES.iter().copied().zip(sweep));
        t.row(vec![
            info.name.to_string(),
            pct(gc.l1_bypass_ratio()),
            pct(spdp.l1_bypass_ratio()),
            format!("{best_pd}"),
        ]);
    }
    println!("## Table 3: bypass control of G-Cache and SPDP-B (32KB 4-way L1)\n");
    println!("{}", t.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
