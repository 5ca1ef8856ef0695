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
//! `--quick` shrinks the kernels for smoke runs, `--bench NAMES`
//! restricts the kernel set, `--jobs N` fans the grid out (stdout is
//! byte-identical for every N) and `--telemetry PATH` re-runs the grid
//! with the per-epoch sampler attached and writes the combined series.

use gcache_bench::sweep::{parallel_map, run_design_points_with, DesignPoint};
use gcache_bench::{
    bench_cli, pct, speedup, usage_exit, write_telemetry_series, PolicyPlanes, RunOpts, Table,
    TelemetrySeries,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::L1PolicyKind;
use gcache_workloads::ml_registry;

/// The swept plane compositions, in presentation order.
fn compositions() -> Vec<(&'static str, PolicyPlanes)> {
    vec![
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

fn main() {
    let cli = bench_cli();
    let benches = cli
        .select(ml_registry(cli.scale()))
        .unwrap_or_else(|e| usage_exit(&e));
    let jobs = cli.jobs();
    let opts = cli.run_opts();

    let combos = compositions();
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            combos.iter().map(move |&(_, planes)| DesignPoint {
                planes,
                ..DesignPoint::flat(b.as_ref(), L1PolicyKind::GCache(GCacheConfig::default()))
            })
        })
        .collect();
    eprintln!("[mlsweep] {} runs on {jobs} jobs ...", grid.len());
    let mut results = run_design_points_with(&grid, jobs, &opts).into_iter();

    let mut t = Table::new(&[
        "Bench",
        "Planes",
        "IPC",
        "vs GC",
        "L1 miss",
        "Plane byp",
        "Clean CB",
    ]);
    for b in &benches {
        let runs: Vec<_> = results.by_ref().take(combos.len()).collect();
        let base = &runs[0]; // plain GC is the first composition
        for ((name, _), stats) in combos.iter().zip(&runs) {
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

    if let Some(path) = &cli.telemetry {
        // The same grid once more, this time through the sampler.
        let sampled = RunOpts {
            sampled: true,
            ..opts
        };
        let labels = benches
            .iter()
            .flat_map(|b| combos.iter().map(move |&(name, _)| (b.info().name, name)));
        let series: Vec<TelemetrySeries> = labels
            .zip(parallel_map(&grid, jobs, |p| p.run(&sampled)))
            .map(|((bench, name), (_, sampler))| {
                let sampler = sampler.expect("a sampled run returns its series");
                (bench.to_string(), name, sampler)
            })
            .collect();
        write_telemetry_series(path, &series);
    }
    gcache_bench::export_trace(&cli);
}
