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

use gcache_bench::sweep::{Cell, DesignPoint, Sweep};
use gcache_bench::{bench_cli, speedup, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{GpuConfig, L1PolicyKind, WarpSchedKind};
use gcache_sim::stats::SimStats;
use gcache_workloads::Benchmark;
use std::iter::once;

fn bs(b: &dyn Benchmark) -> DesignPoint<'_> {
    DesignPoint::flat(b, L1PolicyKind::Lru)
}

fn gc(b: &dyn Benchmark, cfg: GCacheConfig) -> DesignPoint<'_> {
    DesignPoint::flat(b, L1PolicyKind::GCache(cfg))
}

/// One row per benchmark: each run's speedup over the benchmark's first.
fn speedups_over_first(sweep: &Sweep, headers: &[&str], runs: &[Vec<SimStats>]) -> String {
    let mut t = Table::new(headers);
    for (b, runs) in sweep.benches.iter().zip(runs) {
        let over_first = runs[1..].iter().map(|s| speedup(s.speedup_over(&runs[0])));
        t.row(once(b.info().name.to_string()).chain(over_first).collect());
    }
    t.render()
}

fn main() {
    let mut cli = bench_cli("ablation", SIMULATE);
    if cli.only.is_empty() {
        cli.only = vec!["SPMV".into(), "SYRK".into(), "KMN".into()];
    }
    let sweep = Sweep::new(cli);
    let default = GCacheConfig::default();

    let runs = sweep.grid("th_hot", None, |b| {
        let th = |th_hot| GCacheConfig {
            th_hot,
            th_hot_victim: 1,
            ..default
        };
        once(bs(b)).chain([1u8, 2, 3, 4].map(|t| gc(b, th(t))))
    });
    let headers = ["Bench", "TH=1", "TH=2 (paper)", "TH=3", "TH=4"];
    println!("## Ablation: hotness threshold TH_hot (GC speedup over BS)\n");
    println!("{}", speedups_over_first(&sweep, &headers, &runs));

    let runs = sweep.grid("aging", None, |b| {
        let aged = |aging_period| GCacheConfig {
            aging_period,
            ..default
        };
        once(bs(b)).chain([1u32, 2, 4, 8].map(|m| gc(b, aged(m))))
    });
    let headers = ["Bench", "M=1 (paper)", "M=2", "M=4", "M=8"];
    println!("## Ablation: ageing period M — larger M extends protection reach (§5.1)\n");
    println!("{}", speedups_over_first(&sweep, &headers, &runs));

    // The last three vary a machine field no `DesignPoint` axis names.
    let runs = sweep.grid("share", None, |b| {
        let shared = |s_v| {
            Cell::tweaked(gc(b, default), &format!("S_v={s_v}"), |c| {
                c.victim_bit_share = s_v
            })
        };
        once(bs(b).into()).chain([1usize, 4, 16].map(shared))
    });
    let headers = ["Bench", "S_v=1 (paper)", "S_v=4", "S_v=16 (1 bit)"];
    println!("## Ablation: victim-bit sharing factor S_v (overhead/accuracy tradeoff)\n");
    println!("{}", speedups_over_first(&sweep, &headers, &runs));

    let runs = sweep.grid("epoch", None, |b| {
        let reset = |e| {
            Cell::tweaked(gc(b, default), &format!("epoch={e}"), |c| {
                c.l1_epoch_len = e
            })
        };
        once(bs(b).into()).chain([256u64, 512, 2048, 0].map(reset))
    });
    let headers = ["Bench", "256", "512 (default)", "2048", "off"];
    println!("## Ablation: bypass-switch reset epoch\n");
    println!("{}", speedups_over_first(&sweep, &headers, &runs));

    let runs = sweep.grid("sched", None, |b| {
        let gto = |c: &mut GpuConfig| c.warp_sched = WarpSchedKind::Gto;
        [
            bs(b).into(),
            gc(b, default).into(),
            Cell::tweaked(bs(b), "sched=Gto", gto),
            Cell::tweaked(gc(b, default), "sched=Gto", gto),
        ]
    });
    let mut sched = Table::new(&["Bench", "LRR BS", "LRR GC", "GTO BS", "GTO GC"]);
    for (b, run) in sweep.benches.iter().zip(&runs) {
        let ipc = |s: &SimStats| format!("{:.3}", s.ipc());
        let ipc_over = |s: &SimStats, base: &SimStats| {
            format!("{:.3} ({})", s.ipc(), speedup(s.speedup_over(base)))
        };
        sched.row(vec![
            b.info().name.to_string(),
            ipc(&run[0]),
            ipc_over(&run[1], &run[0]),
            ipc(&run[2]),
            ipc_over(&run[3], &run[2]),
        ]);
    }
    println!("## Ablation: warp scheduler interaction (GC works under both, §6.2)\n");
    println!("{}", sched.render());

    sweep.finish(None);
}
