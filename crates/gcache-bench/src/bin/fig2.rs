//! Figure 2: L1 reuse-count distribution under the baseline — the
//! fraction of L1 residencies that end with 0, 1, 2, 3–7 and ≥8 hits.
//! "Whenever a cache line is never reused it is effectively wasting cache
//! space."
//!
//! Run with `cargo run --release -p gcache-bench --bin fig2`.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, pct, Table, SIMULATE};
use gcache_sim::config::L1PolicyKind;

fn main() {
    let sweep = Sweep::new(bench_cli("fig2", SIMULATE));
    let runs = sweep.grid("BS", None, |b| [DesignPoint::flat(b, L1PolicyKind::Lru)]);
    let mut t = Table::new(&["Bench", "0", "1", "2", "3-7", ">=8"]);
    for (b, run) in sweep.benches.iter().zip(&runs) {
        let h = &run[0].l1.reuse;
        t.row(vec![
            b.info().name.to_string(),
            pct(h.fraction_zero()),
            pct(h.fraction_in(1, 1)),
            pct(h.fraction_in(2, 2)),
            pct(h.fraction_in(3, 7)),
            pct(h.fraction_in(8, usize::MAX)),
        ]);
    }
    println!("## Figure 2: L1 reuse-count distribution (BS)\n");
    println!("{}", t.render());

    sweep.finish(None);
}
