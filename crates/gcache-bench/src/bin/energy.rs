//! Memory-system traffic and energy comparison (the paper's §3 motivation:
//! better cache efficiency "will reduce memory latency as well as DRAM
//! traffic, which save bandwidth and energy consumption").
//!
//! For each benchmark, compares the baseline against G-Cache on NoC flits,
//! DRAM accesses, and the first-order relative dynamic energy of
//! [`gcache_sim::energy::EnergyModel`].
//!
//! Run with `cargo run --release -p gcache-bench --bin energy`.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;
use gcache_sim::energy::EnergyModel;
use gcache_sim::stats::SimStats;

fn main() {
    let sweep = Sweep::new(bench_cli("energy", SIMULATE));
    let designs = [
        L1PolicyKind::Lru,
        L1PolicyKind::GCache(GCacheConfig::default()),
    ];
    let runs = sweep.grid("BS and GC", None, |b| {
        designs.map(|policy| DesignPoint::flat(b, policy))
    });
    let model = EnergyModel::default();
    let mut t = Table::new(&[
        "Bench",
        "NoC flits BS",
        "NoC flits GC",
        "DRAM acc BS",
        "DRAM acc GC",
        "rel. energy GC/BS",
    ]);
    for (b, run) in sweep.benches.iter().zip(&runs) {
        let (bs, gc) = (&run[0], &run[1]);
        let flits = |s: &SimStats| s.noc_req.flits + s.noc_resp.flits;
        let dram = |s: &SimStats| s.dram.reads + s.dram.writes;
        t.row(vec![
            b.info().name.to_string(),
            format!("{}", flits(bs)),
            format!("{}", flits(gc)),
            format!("{}", dram(bs)),
            format!("{}", dram(gc)),
            format!("{:.3}", model.relative(gc, bs)),
        ]);
    }
    println!("## Memory-system traffic & relative dynamic energy (GC vs BS)\n");
    println!("{}", t.render());
    println!("rel. energy < 1.0 means G-Cache reduces memory-system energy.");

    sweep.finish(None);
}
