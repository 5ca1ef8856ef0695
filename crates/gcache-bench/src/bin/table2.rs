//! Table 2: the simulated GPU configuration, plus the §4.3 storage
//! overhead arithmetic of the G-Cache extension.
//!
//! Run with `cargo run --release -p gcache-bench --bin table2`.

use gcache_bench::bench_cli;
use gcache_core::overhead::OverheadModel;
use gcache_sim::config::GpuConfig;

fn main() {
    bench_cli("table2", &[]);
    let cfg = GpuConfig::fermi().expect("table 2 configuration is valid");
    println!("## Table 2: simulation configuration\n");
    println!("{cfg}\n");

    let total_l2_sets = cfg.l2_geometry.sets() as u64 * cfg.partitions as u64;
    let model = OverheadModel {
        cores: cfg.cores as u64,
        l2_sets: total_l2_sets,
        l2_ways: cfg.l2_geometry.ways() as u64,
        share: cfg.victim_bit_share as u64,
        l1_sets: cfg.l1_geometry.sets() as u64,
    };
    println!("## §4.3 G-Cache storage overhead\n");
    println!("{model}");
    println!(
        "victim bits total : {} bits = {} KB ({:.2}% of L2 data)",
        model.victim_bits(),
        model.victim_bytes() / 1024,
        model.fraction_of_l2(cfg.line_size() as u64) * 100.0
    );
    println!("per-core share    : {:.2} KB", model.victim_kb_per_core());
    for share in [2u64, 4, 8, 16] {
        let m = OverheadModel { share, ..model };
        println!(
            "with S_v = {share:2}     : {} KB ({} bits/line)",
            m.victim_bytes() / 1024,
            m.bits_per_line()
        );
    }
}
