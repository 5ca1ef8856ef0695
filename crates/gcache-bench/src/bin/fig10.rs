//! Figure 10: the 64 KB-L1 scalability study — GC and SPDP-B speedup over
//! a 64 KB baseline ("even if larger caches are applied, the contention
//! cannot be eliminated").
//!
//! Run with `cargo run --release -p gcache-bench --bin fig10`.
//! `--jobs N` fans the runs out over worker threads; stdout is
//! byte-identical for every N.

use gcache_bench::sweep::{run_design_points_with, DesignPoint};
use gcache_bench::{
    bench_cli, export_telemetry, export_trace, select_optimal_pd, speedup, Table, PD_CANDIDATES,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;
use gcache_sim::stats::geomean;
use gcache_workloads::Category;

const L1_KB: u64 = 64;

fn main() {
    let cli = bench_cli();
    let benches = cli.benchmarks();
    let jobs = cli.jobs();

    // Phase 1: per benchmark, the 64 KB baseline, the SPDP-B candidate
    // sweep and the GC run — one flat grid.
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(L1PolicyKind::Lru)
                .chain(
                    PD_CANDIDATES
                        .iter()
                        .map(|&pd| L1PolicyKind::StaticPdp { pd }),
                )
                .chain(std::iter::once(L1PolicyKind::GCache(
                    GCacheConfig::default(),
                )))
                .map(|policy| DesignPoint {
                    l1_kb: Some(L1_KB),
                    ..DesignPoint::flat(b.as_ref(), policy)
                })
        })
        .collect();
    eprintln!("[fig10] {} runs on {jobs} jobs ...", grid.len());
    let mut results = run_design_points_with(&grid, jobs, &cli.run_opts()).into_iter();

    let mut t = Table::new(&["Bench", "Cat", "SPDP-B", "GC"]);
    let mut spdp_s = Vec::new();
    let mut gc_s = Vec::new();
    let mut cats = Vec::new();

    for b in &benches {
        let info = b.info();
        let base = results.next().expect("baseline run present");
        let sweep = results.by_ref().take(PD_CANDIDATES.len());
        let (_, spdp) = select_optimal_pd(PD_CANDIDATES.iter().copied().zip(sweep));
        let gc = results.next().expect("GC run present");
        let (ss, gs) = (spdp.speedup_over(&base), gc.speedup_over(&base));
        t.row(vec![
            info.name.to_string(),
            format!("{:?}", info.category),
            speedup(ss),
            speedup(gs),
        ]);
        spdp_s.push(ss);
        gc_s.push(gs);
        cats.push(info.category);
    }

    for (label, filter) in [
        ("GM (sensitive)", Some(Category::Sensitive)),
        ("GM (all)", None),
    ] {
        let sel = |v: &[f64]| {
            geomean(
                v.iter()
                    .zip(&cats)
                    .filter(|(_, c)| filter.is_none_or(|f| **c == f))
                    .map(|(s, _)| *s),
            )
        };
        t.row(vec![
            label.to_string(),
            String::new(),
            speedup(sel(&spdp_s)),
            speedup(sel(&gc_s)),
        ]);
    }

    println!("## Figure 10: speedup over the 64KB-L1 baseline\n");
    println!("{}", t.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
