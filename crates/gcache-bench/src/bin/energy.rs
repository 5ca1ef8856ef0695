//! Memory-system traffic and energy comparison (the paper's §3 motivation:
//! better cache efficiency "will reduce memory latency as well as DRAM
//! traffic, which save bandwidth and energy consumption").
//!
//! For each benchmark, compares the baseline against G-Cache on NoC flits,
//! DRAM accesses, and the first-order relative dynamic energy of
//! [`gcache_sim::energy::EnergyModel`].
//!
//! Run with `cargo run --release -p gcache-bench --bin energy`.

use gcache_bench::sweep::DesignPoint;
use gcache_bench::{bench_cli, export_telemetry, export_trace, Table};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;
use gcache_sim::energy::EnergyModel;

fn main() {
    let cli = bench_cli();
    let opts = cli.run_opts();
    let model = EnergyModel::default();
    let mut t = Table::new(&[
        "Bench",
        "NoC flits BS",
        "NoC flits GC",
        "DRAM acc BS",
        "DRAM acc GC",
        "rel. energy GC/BS",
    ]);
    for b in cli.benchmarks() {
        let info = b.info();
        eprintln!("[energy] running {} ...", info.name);
        let run = |policy| DesignPoint::flat(b.as_ref(), policy).run(&opts).0;
        let bs = run(L1PolicyKind::Lru);
        let gc = run(L1PolicyKind::GCache(GCacheConfig::default()));
        let flits = |s: &gcache_sim::stats::SimStats| s.noc_req.flits + s.noc_resp.flits;
        let dram = |s: &gcache_sim::stats::SimStats| s.dram.reads + s.dram.writes;
        t.row(vec![
            info.name.to_string(),
            format!("{}", flits(&bs)),
            format!("{}", flits(&gc)),
            format!("{}", dram(&bs)),
            format!("{}", dram(&gc)),
            format!("{:.3}", model.relative(&gc, &bs)),
        ]);
    }
    println!("## Memory-system traffic & relative dynamic energy (GC vs BS)\n");
    println!("{}", t.render());
    println!("rel. energy < 1.0 means G-Cache reduces memory-system energy.");

    export_telemetry(&cli);
    export_trace(&cli);
}
