//! ML workload plane sweep: the composable-plane study over the ML-era
//! kernels (GEMM, CONV, ATTN). Each kernel runs under the G-Cache
//! replacement policy with every cross-product of the orthogonal L1
//! policy planes:
//!
//! * `GC` — both planes defer to the policy (the paper's design),
//! * `GC+HYDRA` — HyDRA-style class-driven fill bypass composed in front,
//! * `GC+CB` — RDC-style clean copy-back of reuse-proven victims,
//! * `GC+HYDRA+CB` — both planes composed.
//!
//! Run with `cargo run --release -p gcache-bench --bin mlsweep`.
//! `--bench NAMES` restricts the kernel set (GEMM, CONV, ATTN — not the
//! Table 1 names) and `--telemetry PATH` re-runs the grid with the
//! per-epoch sampler attached and writes the combined series.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, pct, speedup, usage_exit, PolicyPlanes, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;
use gcache_workloads::{ml_registry, Benchmark};

/// The swept plane compositions, in presentation order.
fn compositions() -> [(&'static str, PolicyPlanes); 4] {
    [
        ("GC", PolicyPlanes::default()),
        ("GC+HYDRA", PolicyPlanes::hydra()),
        ("GC+CB", PolicyPlanes::clean_copy_back(2)),
        (
            "GC+HYDRA+CB",
            PolicyPlanes {
                l1_bypass: PolicyPlanes::hydra().l1_bypass,
                l1_copy_back: PolicyPlanes::clean_copy_back(2).l1_copy_back,
            },
        ),
    ]
}

/// `b` under G-Cache with each composition around it.
fn variants(b: &dyn Benchmark) -> impl Iterator<Item = DesignPoint<'_>> {
    let gc = L1PolicyKind::GCache(GCacheConfig::default());
    compositions()
        .into_iter()
        .map(move |(_, planes)| DesignPoint {
            planes,
            ..DesignPoint::flat(b, gc)
        })
}

fn main() {
    let cli = bench_cli("mlsweep", SIMULATE);
    let benches = cli
        .select(ml_registry(cli.scale()))
        .unwrap_or_else(|e| usage_exit(&e, &cli.usage));
    let sweep = Sweep::over(cli, benches);

    let combos = compositions();
    let runs = sweep.grid("planes", None, variants);

    let mut t = Table::new(&[
        "Bench",
        "Planes",
        "IPC",
        "vs GC",
        "L1 miss",
        "Plane byp",
        "Clean CB",
    ]);
    for (b, runs) in sweep.benches.iter().zip(&runs) {
        let base = &runs[0]; // plain GC is the first composition
        for ((name, _), stats) in combos.iter().zip(runs) {
            t.row(vec![
                b.info().name.to_string(),
                name.to_string(),
                format!("{:.4}", stats.ipc()),
                speedup(stats.speedup_over(base)),
                pct(stats.l1.miss_rate()),
                stats.l1.plane_bypasses.to_string(),
                stats.l1.clean_copy_backs.to_string(),
            ]);
        }
    }

    println!("## ML workload plane sweep (G-Cache replacement x L1 policy planes)\n");
    println!("{}", t.render());

    // `--telemetry`: the same grid once more, this time through the sampler.
    let series = sweep.cli.telemetry.is_some().then(|| {
        let mut samplers = Vec::new();
        sweep.grid("planes, sampled", Some(&mut samplers), variants);
        let per_bench = sweep.benches.iter().zip(samplers);
        let labelled = per_bench.flat_map(|(b, samplers)| {
            let named = combos.iter().zip(samplers);
            named.map(move |(&(name, _), s)| (b.info().name.to_string(), name, s))
        });
        labelled.collect()
    });
    sweep.finish(series);
}
