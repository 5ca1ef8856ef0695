//! Figures 3 & 4: L1 cache-size sensitivity of the baseline (BS) —
//! miss rate and speedup at 16/32/64/128 KB L1s, cache-sensitive set.
//!
//! Run with `cargo run --release -p gcache-bench --bin fig3_fig4`.
//! `--all` includes every benchmark (the paper plots only the sensitive
//! ones).
//!
//! Every run goes through the telemetry [`Sampler`] (`RunOpts::sampled`),
//! so `--telemetry PATH` exports the per-interval series of each
//! (benchmark, L1 size) point for free; the figures themselves are
//! derived from the same `SimStats` as before, byte-identically
//! (`scripts/check.sh` diffs the quick output against a golden).
//! `--jobs N` fans the runs out over worker threads; stdout and the
//! telemetry file are byte-identical for every N.
//!
//! [`Sampler`]: gcache_sim::telemetry::Sampler

use gcache_bench::sweep::{parallel_map, DesignPoint};
use gcache_bench::{bench_cli_with_switches, pct, speedup, RunOpts, Table, TelemetrySeries};
use gcache_sim::config::L1PolicyKind;
use gcache_workloads::Category;

const SIZES_KB: [u64; 4] = [16, 32, 64, 128];

fn main() {
    let (cli, switches) = bench_cli_with_switches(&["--all"]);
    let all = switches[0];
    let benches: Vec<_> = cli
        .benchmarks()
        .into_iter()
        .filter(|b| all || b.info().category == Category::Sensitive || !cli.only.is_empty())
        .collect();
    let jobs = cli.jobs();

    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            SIZES_KB.map(|kb| DesignPoint {
                l1_kb: Some(kb),
                ..DesignPoint::flat(b.as_ref(), L1PolicyKind::Lru)
            })
        })
        .collect();
    eprintln!("[fig3/4] {} runs on {jobs} jobs ...", grid.len());
    let opts = RunOpts {
        sampled: true,
        ..cli.run_opts()
    };
    let mut results = parallel_map(&grid, jobs, |p| p.run(&opts)).into_iter();

    let headers = ["Bench", "16KB", "32KB", "64KB", "128KB"];
    let mut fig3 = Table::new(&headers);
    let mut fig4 = Table::new(&headers);
    let mut series: Vec<TelemetrySeries> = Vec::new();

    for b in &benches {
        let info = b.info();
        let runs: Vec<_> = SIZES_KB
            .iter()
            .zip(results.by_ref())
            .map(|(kb, (stats, sampler))| {
                let sampler = sampler.expect("a sampled run returns its series");
                series.push((format!("{}@{kb}KB", info.name), stats.design, sampler));
                stats
            })
            .collect();
        let base = &runs[1]; // 32 KB is the baseline machine
        fig3.row(
            std::iter::once(info.name.to_string())
                .chain(runs.iter().map(|r| pct(r.l1_miss_rate())))
                .collect(),
        );
        fig4.row(
            std::iter::once(info.name.to_string())
                .chain(runs.iter().map(|r| speedup(r.speedup_over(base))))
                .collect(),
        );
    }

    println!("## Figure 3: L1 miss rate vs L1 size (BS, LRU)\n");
    println!("{}", fig3.render());
    println!("## Figure 4: speedup vs L1 size (normalised to 32KB)\n");
    println!("{}", fig4.render());

    if let Some(path) = &cli.telemetry {
        gcache_bench::write_telemetry_series(path, &series);
    }
    gcache_bench::export_trace(&cli);
}
