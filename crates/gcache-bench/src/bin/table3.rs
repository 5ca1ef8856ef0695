//! Table 3: bypass ratio (bypassed fills / accesses) of G-Cache and
//! SPDP-B, and the per-benchmark optimal protection distance found by the
//! SPDP-B sweep.
//!
//! Run with `cargo run --release -p gcache-bench --bin table3`.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, pct, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;

fn main() {
    let sweep = Sweep::new(bench_cli("table3", SIMULATE));
    let oracle = sweep.oracle(None);
    let gc = L1PolicyKind::GCache(GCacheConfig::default());
    let runs = sweep.grid("GC", None, |b| [DesignPoint::flat(b, gc)]);

    let mut t = Table::new(&[
        "Benchmark",
        "G-Cache Bypass Ratio",
        "SPDP-B Bypass Ratio",
        "Optimal PD of SPDP-B",
    ]);
    for ((b, (best_pd, spdp)), run) in sweep.benches.iter().zip(&oracle).zip(&runs) {
        t.row(vec![
            b.info().name.to_string(),
            pct(run[0].l1_bypass_ratio()),
            pct(spdp.l1_bypass_ratio()),
            format!("{best_pd}"),
        ]);
    }
    println!("## Table 3: bypass control of G-Cache and SPDP-B (32KB 4-way L1)\n");
    println!("{}", t.render());

    sweep.finish(None);
}
