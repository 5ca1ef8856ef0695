//! Figures 3 & 4: L1 cache-size sensitivity of the baseline (BS) —
//! miss rate and speedup at 16/32/64/128 KB L1s, cache-sensitive set.
//!
//! Run with `cargo run --release -p gcache-bench --bin fig3_fig4`.
//! `--all` includes every benchmark (the paper plots only the sensitive
//! ones).
//!
//! Every run goes through the telemetry sampler, so `--telemetry PATH`
//! exports the per-interval series of each (benchmark, L1 size) point for
//! free; the figures themselves are derived from the same `SimStats` as
//! before, byte-identically (`scripts/check.sh` diffs the quick output
//! against a golden).

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{pct, speedup, Cli, FlagDoc, Table, TelemetrySeries, SIMULATE};
use gcache_sim::config::L1PolicyKind;
use gcache_workloads::Category;

const SIZES_KB: [u64; 4] = [16, 32, 64, 128];

const OWN_FLAGS: &[FlagDoc] = &[(
    "--all",
    "include every benchmark, not only the cache-sensitive\nones the paper plots",
)];

fn main() {
    let mut all = false;
    let cli = Cli::parse("fig3_fig4", SIMULATE, OWN_FLAGS, |_, _| {
        all = true;
        Ok(())
    });
    let mut benches = cli.benchmarks();
    benches.retain(|b| all || b.info().category == Category::Sensitive || !cli.only.is_empty());
    let sweep = Sweep::over(cli, benches);

    let mut samplers = Vec::new();
    let runs = sweep.grid("L1 sizes", Some(&mut samplers), |b| {
        SIZES_KB.map(|kb| DesignPoint {
            l1_kb: Some(kb),
            ..DesignPoint::flat(b, L1PolicyKind::Lru)
        })
    });

    let headers = ["Bench", "16KB", "32KB", "64KB", "128KB"];
    let mut fig3 = Table::new(&headers);
    let mut fig4 = Table::new(&headers);
    let mut series: Vec<TelemetrySeries> = Vec::new();

    for ((b, runs), samplers) in sweep.benches.iter().zip(&runs).zip(samplers) {
        let name = b.info().name;
        let sampled = SIZES_KB.iter().zip(runs).zip(samplers);
        series.extend(sampled.map(|((kb, r), s)| (format!("{name}@{kb}KB"), r.design, s)));
        let base = &runs[1]; // 32 KB is the baseline machine
        fig3.row(
            std::iter::once(name.to_string())
                .chain(runs.iter().map(|r| pct(r.l1_miss_rate())))
                .collect(),
        );
        fig4.row(
            std::iter::once(name.to_string())
                .chain(runs.iter().map(|r| speedup(r.speedup_over(base))))
                .collect(),
        );
    }

    println!("## Figure 3: L1 miss rate vs L1 size (BS, LRU)\n");
    println!("{}", fig3.render());
    println!("## Figure 4: speedup vs L1 size (normalised to 32KB)\n");
    println!("{}", fig4.render());

    sweep.finish(Some(series));
}
