//! Figures 8 & 9: IPC speedup (normalised to BS) and L1 miss rate of all
//! designs — BS-S, PDP-3, PDP-8, SPDP-B, GC — over the 17 benchmarks,
//! plus geometric means for the cache-sensitive set and overall.
//!
//! Run with `cargo run --release -p gcache-bench --bin fig8_fig9`.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, designs, pct, speedup, Table, SIMULATE};

fn main() {
    let sweep = Sweep::new(bench_cli("fig8_fig9", SIMULATE));

    // The six Figure 8 designs per benchmark, SPDP-B at its oracle PD.
    let mut best = sweep.oracle(None).into_iter();
    let runs = sweep.grid("designs", None, |b| {
        let (pd, _) = best.next().expect("one oracle result per benchmark");
        designs(pd)
            .into_iter()
            .map(move |p| DesignPoint::flat(b, p))
    });

    let mut fig8 = Table::new(&["Bench", "Cat", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    let mut fig9 = Table::new(&["Bench", "BS", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    let (mut cats, mut speedups) = (Vec::new(), Vec::new());
    for (b, runs) in sweep.benches.iter().zip(&runs) {
        let info = b.info();
        let base = &runs[0];
        assert_eq!(base.design, "BS");
        let over_bs: Vec<f64> = runs[1..].iter().map(|r| r.speedup_over(base)).collect();
        fig8.row(
            [info.name.to_string(), format!("{:?}", info.category)]
                .into_iter()
                .chain(over_bs.iter().map(|&s| speedup(s)))
                .collect(),
        );
        fig9.row(
            std::iter::once(info.name.to_string())
                .chain(runs.iter().map(|r| pct(r.l1_miss_rate())))
                .collect(),
        );
        cats.push(info.category);
        speedups.push(over_bs);
    }
    fig8.gm_rows(&cats, &speedups);

    println!("## Figure 8: IPC speedup over BS (Table 2 machine, 32KB L1)\n");
    println!("{}", fig8.render());
    println!("## Figure 9: L1 miss rate of all designs\n");
    println!("{}", fig9.render());

    sweep.finish(None);
}
