//! Differential gate for idle-cycle fast-forward (see `gcache_sim::clocked`
//! module docs): every benchmark × design point at test scale is simulated
//! twice — once jumping the clock over provably idle cycles, once ticking
//! every cycle — and the *entire* [`SimStats`] struct must match, not just
//! the rendered tables. Cycle counts, per-core stall/idle accounting,
//! replay counters, NoC and DRAM stats are all covered by comparing the
//! `Debug` renderings field for field.
//!
//! The second test repeats the differential through the sweep engine as
//! an in-process A/B: no run reads process-wide state, so a default and a
//! `fast_forward: false` sweep of the same grid run *concurrently* and
//! must agree, and parsing a command line cannot steer a later run.

use gcache_bench::sweep::{run_design_points, run_design_points_with, DesignPoint};
use gcache_bench::{CheckpointOpts, Cli, RunOpts, SIMULATE};
use gcache_core::cache::CopyBackPlane;
use gcache_sim::config::{GpuConfig, Hierarchy};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_workloads::{Benchmark, Scale};

fn simulate(bench: &dyn Benchmark, cfg: &GpuConfig, fast_forward: bool) -> SimStats {
    let mut cfg = cfg.clone();
    cfg.fast_forward = fast_forward;
    Gpu::new(cfg)
        .run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.info().name))
}

fn test_scale(names: &[&str]) -> Vec<Box<dyn Benchmark>> {
    let benches: Vec<_> = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .filter(|b| names.contains(&b.info().name))
        .collect();
    assert_eq!(benches.len(), names.len(), "benchmark registry changed");
    benches
}

/// The differential itself: `bench` on `cfg`, jumping idle cycles and
/// ticking every one, must give the same [`SimStats`].
fn assert_same_with_and_without_fast_forward(bench: &dyn Benchmark, cfg: &GpuConfig, shape: &str) {
    let fast = simulate(bench, cfg, true);
    let slow = simulate(bench, cfg, false);
    let point = format!("{} / {} / {shape}", bench.info().name, fast.design);
    assert_eq!(
        fast.cycles, slow.cycles,
        "{point}: fast-forward changed the cycle count"
    );
    // SimStats has no PartialEq; its Debug rendering covers every
    // field (and nested stats struct) by derivation.
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "{point}: fast-forward changed the statistics"
    );
}

#[test]
fn fast_forward_stats_match_plain_loop() {
    // BFS (cache-sensitive), CFD (moderate, exercises G-Cache bypass),
    // STL (streaming/insensitive) — same spectrum the golden tests use.
    let benches = test_scale(&["BFS", "CFD", "STL"]);

    // The clustered hierarchy adds a third clocked component between the
    // interconnect and the partitions, so its `next_event` bound is part of
    // the differential too: a too-optimistic bound would skip an L1.5
    // wake-up and change cycle counts.
    let shapes = [
        Hierarchy::Flat,
        Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        },
    ];

    for bench in &benches {
        for policy in gcache_bench::designs(6) {
            for &hierarchy in &shapes {
                let cfg = GpuConfig::fermi_with_policy(policy)
                    .expect("valid config")
                    .with_hierarchy(hierarchy)
                    .expect("valid hierarchy");
                assert_same_with_and_without_fast_forward(
                    bench.as_ref(),
                    &cfg,
                    &format!("{hierarchy:?}"),
                );
            }
        }
    }
}

/// Odd but legal machines — the first piece of ROADMAP 4.iii's config
/// fuzz: each must build, finish both kernels without an error, and make
/// the same statistics with and without fast-forward.
#[test]
fn odd_but_legal_machines_match_plain_loop() {
    fn clustered(cfg: GpuConfig, cluster_size: usize) -> GpuConfig {
        let shape = Hierarchy::SharedL15 {
            cluster_size,
            kb: 64,
        };
        cfg.with_hierarchy(shape).expect("valid hierarchy")
    }
    fn mesh(cfg: GpuConfig, mesh_width: usize, mesh_height: usize) -> GpuConfig {
        GpuConfig {
            mesh_width,
            mesh_height,
            ..cfg
        }
    }
    /// A label and the reshaping of Table 2's machine it names.
    type Shape = (&'static str, fn(GpuConfig) -> GpuConfig);
    #[rustfmt::skip]
    let shapes: [Shape; 23] = [
        ("cores=1", |c| GpuConfig { cores: 1, ..c }),
        ("partitions=1", |c| GpuConfig { partitions: 1, ..c }),
        ("24x1 mesh", |c| mesh(c, 24, 1)),
        ("1x24 mesh", |c| mesh(c, 1, 24)),
        // Crosses the 64-router word of the mesh's due-mask.
        ("10x10 mesh", |c| mesh(c, 10, 10)),
        ("warp_width=16", |c| GpuConfig { warp_width: 16, ..c }),
        ("warp_width=64", |c| GpuConfig { warp_width: 64, ..c }),
        ("l2_period=3", |c| GpuConfig { l2_period: 3, ..c }),
        ("l2_latency=0", |c| GpuConfig { l2_latency: 0, ..c }),
        ("dram_row_bytes=128", |c| GpuConfig { dram_row_bytes: 128, ..c }),
        // One bank takes every request; a one-deep queue stalls the L2.
        ("dram_banks=1", |c| GpuConfig { dram_banks: 1, ..c }),
        ("dram_banks=16", |c| GpuConfig { dram_banks: 16, ..c }),
        ("dram_queue=1", |c| GpuConfig { dram_queue: 1, ..c }),
        // Each parks an L2 head on one wait reason: a DRAM slot or an MSHR
        // entry, a fill, and (a clean copy-back evicting dirty) a slot.
        ("l2_mshr_entries=1", |c| GpuConfig { l2_mshr_entries: 1, ..c }),
        ("l2_mshr_merge=1", |c| GpuConfig { l2_mshr_merge: 1, ..c }),
        ("dram_queue=1, clean copy-back", |c| GpuConfig { dram_queue: 1, ..c }
            .with_l1_copy_back(CopyBackPlane::CleanReuse { min_reuse: 1 })),
        ("victim_bit_share=16", |c| GpuConfig { victim_bit_share: 16, ..c }),
        // 64 victim-bit groups: the whole mask word of an L2 line.
        ("128 cores, share 2", |c| GpuConfig { cores: 128, victim_bit_share: 2, ..mesh(c, 12, 12) }),
        ("c1", |c| clustered(c, 1)),
        ("c16", |c| clustered(c, 16)),
        ("c4, 64 ports", |c| clustered(c, 4).with_cluster_ports(64).expect("valid ports")),
        ("c4, l15_latency=0", |c| GpuConfig { l15_latency: 0, ..clustered(c, 4) }),
        // The L1.5 sizes its MSHR file from the L1's: its heads park.
        ("c4, l1_mshr_entries=1", |c| GpuConfig { l1_mshr_entries: 1, ..clustered(c, 4) }),
    ];
    let designs = gcache_bench::designs(6);
    for bench in &test_scale(&["BFS", "STL"]) {
        for policy in [designs[0], designs[5]] {
            for (shape, reshape) in shapes {
                let cfg = reshape(GpuConfig::fermi_with_policy(policy).expect("valid config"));
                assert_same_with_and_without_fast_forward(bench.as_ref(), &cfg, shape);
            }
        }
    }
}

#[test]
fn sweep_engine_ab_in_one_process() {
    let benches = test_scale(&["BFS", "STL"]);
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            gcache_bench::designs(6)
                .into_iter()
                .map(|policy| DesignPoint::flat(b.as_ref(), policy))
        })
        .collect();
    let render = |stats: &[SimStats]| stats.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>();

    // A/B: both sweeps start together (the barrier) and overlap for their
    // whole length, each under its own explicit options.
    let plain_loop = RunOpts {
        fast_forward: false,
        ..RunOpts::default()
    };
    let start = std::sync::Barrier::new(2);
    let (fast, slow) = std::thread::scope(|s| {
        let slow = s.spawn(|| {
            start.wait();
            run_design_points_with(&grid, 2, &plain_loop)
        });
        start.wait();
        let fast = run_design_points(&grid, 2);
        (fast, slow.join().expect("plain-loop sweep panicked"))
    });
    assert_eq!(
        render(&fast),
        render(&slow),
        "concurrent sweeps under different RunOpts disagree"
    );

    // Parsing is pure. The stem's directory exists while the flags are
    // validated and is gone afterwards, so a default-options sweep that
    // picked the parsed options up would fail at its first checkpoint
    // write (every 500 cycles) instead of completing.
    let dir = std::env::temp_dir().join(format!("gcache-ff-ab-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let stem = dir.join("ck").display().to_string();
    let args = [
        "--no-fast-forward",
        "--checkpoint",
        &stem,
        "--checkpoint-every",
        "500",
    ];
    let args = args.iter().map(|s| s.to_string());
    let cli = Cli::try_parse("test", SIMULATE, &[], args, |_, _| Ok(())).expect("valid flags");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let want = RunOpts {
        fast_forward: false,
        checkpoint: Some(CheckpointOpts {
            write: Some(stem),
            every: 500,
            resume: None,
        }),
        sampled: false,
    };
    assert_eq!(cli.run_opts(), want);
    let unrunnable = std::thread::scope(|s| {
        s.spawn(|| run_design_points_with(&grid[..1], 1, &want))
            .join()
            .is_err()
    });
    assert!(
        unrunnable,
        "vacuous check: the parsed options should not be runnable any more"
    );
    assert_eq!(
        render(&run_design_points(&grid, 2)),
        render(&fast),
        "parsing a command line changed a default-options sweep"
    );
}
