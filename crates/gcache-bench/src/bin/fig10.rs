//! Figure 10: the 64 KB-L1 scalability study — GC and SPDP-B speedup over
//! a 64 KB baseline ("even if larger caches are applied, the contention
//! cannot be eliminated").
//!
//! Run with `cargo run --release -p gcache-bench --bin fig10`.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, speedup, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;

const L1_KB: u64 = 64;

fn main() {
    let sweep = Sweep::new(bench_cli("fig10", SIMULATE));
    let oracle = sweep.oracle(Some(L1_KB));
    let designs = [
        L1PolicyKind::Lru,
        L1PolicyKind::GCache(GCacheConfig::default()),
    ];
    let runs = sweep.grid("BS and GC", None, |b| {
        designs.map(|policy| DesignPoint {
            l1_kb: Some(L1_KB),
            ..DesignPoint::flat(b, policy)
        })
    });

    let mut t = Table::new(&["Bench", "Cat", "SPDP-B", "GC"]);
    let (mut cats, mut speedups) = (Vec::new(), Vec::new());
    for ((b, (_, spdp)), run) in sweep.benches.iter().zip(&oracle).zip(&runs) {
        let info = b.info();
        let (base, gc) = (&run[0], &run[1]);
        let over_bs = vec![spdp.speedup_over(base), gc.speedup_over(base)];
        t.row(vec![
            info.name.to_string(),
            format!("{:?}", info.category),
            speedup(over_bs[0]),
            speedup(over_bs[1]),
        ]);
        cats.push(info.category);
        speedups.push(over_bs);
    }
    t.gm_rows(&cats, &speedups);

    println!("## Figure 10: speedup over the 64KB-L1 baseline\n");
    println!("{}", t.render());

    sweep.finish(None);
}
