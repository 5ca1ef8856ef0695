//! Figure 2: L1 reuse-count distribution under the baseline — the
//! fraction of L1 residencies that end with 0, 1, 2, 3–7 and ≥8 hits.
//! "Whenever a cache line is never reused it is effectively wasting cache
//! space."
//!
//! Run with `cargo run --release -p gcache-bench --bin fig2`.

use gcache_bench::sweep::DesignPoint;
use gcache_bench::{bench_cli, export_telemetry, export_trace, pct, Table};
use gcache_sim::config::L1PolicyKind;

fn main() {
    let cli = bench_cli();
    let opts = cli.run_opts();
    let mut t = Table::new(&["Bench", "0", "1", "2", "3-7", ">=8"]);
    for b in cli.benchmarks() {
        let info = b.info();
        eprintln!("[fig2] running {} ...", info.name);
        let (stats, _) = DesignPoint::flat(b.as_ref(), L1PolicyKind::Lru).run(&opts);
        let h = &stats.l1.reuse;
        t.row(vec![
            info.name.to_string(),
            pct(h.fraction_zero()),
            pct(h.fraction_in(1, 1)),
            pct(h.fraction_in(2, 2)),
            pct(h.fraction_in(3, 7)),
            pct(h.fraction_in(8, usize::MAX)),
        ]);
    }
    println!("## Figure 2: L1 reuse-count distribution (BS)\n");
    println!("{}", t.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
