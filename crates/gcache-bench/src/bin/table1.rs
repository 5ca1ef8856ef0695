//! Table 1: the benchmark list with categories, plus basic stream shape
//! statistics from the generators (accesses, footprint, coalescing).
//!
//! Run with `cargo run --release -p gcache-bench --bin table1`.

use gcache_bench::{bench_cli, Table};
use gcache_sim::coalescer::coalesce;
use gcache_sim::isa::Op;
use std::collections::HashSet;

fn main() {
    let cli = bench_cli("table1", &["--quick", "--bench"]);
    let mut t = Table::new(&[
        "Benchmark",
        "Description",
        "Suite",
        "Category",
        "Warp ops",
        "Txns/mem-op",
        "Footprint (lines, 4 warps)",
    ]);
    for b in cli.benchmarks() {
        let info = b.info();
        let mut ops = 0u64;
        let mut mem_ops = 0u64;
        let mut txns = 0u64;
        let mut lines: HashSet<u64> = HashSet::new();
        for warp in 0..4 {
            let mut p = b.warp_program(0, warp);
            while let Some(op) = p.next_op() {
                ops += 1;
                if let Op::Load { addrs } | Op::Store { addrs } | Op::Atomic { addrs } = &op {
                    mem_ops += 1;
                    let t = coalesce(addrs, 128);
                    txns += t.len() as u64;
                    lines.extend(t.iter().map(|l| l.raw()));
                }
            }
        }
        t.row(vec![
            info.name.to_string(),
            info.description.to_string(),
            info.suite.to_string(),
            format!("{:?}", info.category),
            format!("{}", ops / 4),
            format!("{:.1}", txns as f64 / mem_ops.max(1) as f64),
            format!("{}", lines.len()),
        ]);
    }
    println!("## Table 1: benchmarks\n");
    println!("{}", t.render());
}
