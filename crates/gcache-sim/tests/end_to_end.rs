//! End-to-end integration tests of the GPU timing simulator: whole-kernel
//! runs exercising cores, schedulers, coalescing, both meshes, L2 banks,
//! victim bits and DRAM together.

use gcache_core::addr::Addr;
use gcache_core::policy::gcache::GCacheConfig;
use gcache_core::policy::pdp_dyn::DynamicPdpConfig;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind, WarpSchedKind};
use gcache_sim::gpu::{Gpu, SimError};
use gcache_sim::isa::{GridDim, Kernel, Op, TraceProgram, WarpProgram};
use gcache_sim::stats::SimStats;

/// A kernel built from a closure: `(cta, warp) -> Vec<Op>`.
struct FnKernel<F: Fn(usize, usize) -> Vec<Op> + Send + Sync> {
    name: &'static str,
    grid: GridDim,
    gen: F,
}

impl<F: Fn(usize, usize) -> Vec<Op> + Send + Sync> Kernel for FnKernel<F> {
    fn name(&self) -> &str {
        self.name
    }
    fn grid(&self) -> GridDim {
        self.grid
    }
    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        Box::new(TraceProgram::new((self.gen)(cta, warp)))
    }
}

fn run(policy: L1PolicyKind, kernel: &dyn Kernel) -> SimStats {
    let cfg = GpuConfig::fermi_with_policy(policy).unwrap();
    Gpu::new(cfg)
        .run_kernel(kernel)
        .expect("simulation completes")
}

/// Pure streaming: every warp reads its own fresh lines once.
fn streaming_kernel(ctas: usize, loads: usize) -> impl Kernel {
    FnKernel {
        name: "stream",
        grid: GridDim {
            ctas,
            threads_per_cta: 128,
        },
        gen: move |cta, warp| {
            let wid = (cta * 4 + warp) as u64;
            (0..loads)
                .map(|i| Op::strided_load(Addr::new((wid * loads as u64 + i as u64) * 128), 4, 32))
                .collect()
        },
    }
}

/// Every warp hammers the same small hot working set.
fn hot_kernel(ctas: usize, iters: usize) -> impl Kernel {
    FnKernel {
        name: "hot",
        grid: GridDim {
            ctas,
            threads_per_cta: 128,
        },
        gen: move |_, _| {
            (0..iters)
                .map(|i| Op::strided_load(Addr::new(((i % 4) * 128) as u64), 4, 32))
                .collect()
        },
    }
}

#[test]
fn empty_grid_finishes_immediately() {
    let k = FnKernel {
        name: "empty",
        grid: GridDim {
            ctas: 0,
            threads_per_cta: 64,
        },
        gen: |_, _| vec![],
    };
    let stats = run(L1PolicyKind::Lru, &k);
    assert_eq!(stats.cycles, 0);
    assert_eq!(stats.instructions, 0);
    assert_eq!(stats.core.ctas_completed, 0);
}

/// A CTA no core could ever seat is turned down before the first cycle,
/// not found by the watchdog half a million idle cycles later.
#[test]
fn unplaceable_cta_is_an_error_at_cycle_zero() {
    let kernel = |threads_per_cta| FnKernel {
        name: "wide",
        grid: GridDim {
            ctas: 2,
            threads_per_cta,
        },
        gen: |_, _| vec![Op::Compute { cycles: 1 }],
    };
    let fermi = || GpuConfig::fermi().unwrap();
    let (mut two_warps, mut no_ctas) = (fermi(), fermi());
    two_warps.max_warps_per_core = 2;
    no_ctas.max_ctas_per_core = 0;
    // (machine, threads per CTA, limit, asked, allowed)
    let cases = [
        (fermi(), 1568, "max_threads_per_core", 1568, 1536),
        (two_warps, 128, "max_warps_per_core", 4, 2),
        (no_ctas, 128, "max_ctas_per_core", 1, 0),
        (fermi(), 0, "min threads_per_cta", 0, 1),
    ];
    for (cfg, threads, limit, asked, allowed) in cases {
        let mut gpu = Gpu::new(cfg);
        let err = gpu.run_kernel(&kernel(threads)).unwrap_err();
        let expect = SimError::CtaNeverFits {
            limit,
            asked,
            allowed,
        };
        assert_eq!(err, expect);
        assert_eq!(gpu.cycle(), 0, "{err}");
        for part in [limit.to_string(), asked.to_string(), allowed.to_string()] {
            assert!(err.to_string().contains(&part), "{err}");
        }
    }
    // A core's worth of threads in one CTA is the most that fits, and runs.
    let stats = run(L1PolicyKind::Lru, &kernel(1536));
    assert_eq!(stats.core.ctas_completed, 2);
    assert_eq!(stats.instructions, 2 * 48);
}

#[test]
fn all_ctas_complete_and_counts_add_up() {
    let stats = run(L1PolicyKind::Lru, &streaming_kernel(40, 8));
    assert_eq!(stats.core.ctas_completed, 40);
    // 40 CTAs x 4 warps x 8 loads = 1280 warp instructions.
    assert_eq!(stats.instructions, 1280);
    assert_eq!(stats.core.mem_instructions, 1280);
    // Each strided load = 1 transaction (perfectly coalesced).
    assert_eq!(stats.core.transactions, 1280);
    assert_eq!(stats.l1.accesses(), 1280);
    assert!(stats.cycles > 0);
}

#[test]
fn streaming_misses_everywhere() {
    let stats = run(L1PolicyKind::Lru, &streaming_kernel(20, 16));
    assert!(
        stats.l1_miss_rate() > 0.99,
        "streaming L1 miss rate {}",
        stats.l1_miss_rate()
    );
    assert!(
        stats.l2.miss_rate() > 0.99,
        "streaming L2 miss rate {}",
        stats.l2.miss_rate()
    );
    assert_eq!(stats.dram.reads, stats.l2.misses());
    // Figure 2's signature: all residencies end with zero reuse.
    assert!((stats.l1.reuse.fraction_zero() - 1.0).abs() < 1e-9);
}

#[test]
fn hot_set_hits_in_l1() {
    let stats = run(L1PolicyKind::Lru, &hot_kernel(16, 64));
    assert!(
        stats.l1_miss_rate() < 0.1,
        "hot working set should hit, miss rate {}",
        stats.l1_miss_rate()
    );
    // Only 4 distinct lines: DRAM traffic is tiny.
    assert!(stats.dram.reads <= 64, "dram reads {}", stats.dram.reads);
}

#[test]
fn determinism_same_cycles_same_stats() {
    let a = run(L1PolicyKind::Lru, &streaming_kernel(12, 12));
    let b = run(L1PolicyKind::Lru, &streaming_kernel(12, 12));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.l1.misses(), b.l1.misses());
    assert_eq!(a.dram.reads, b.dram.reads);
}

#[test]
fn barrier_synchronises_whole_cta() {
    // Warp 0 computes 500 cycles *before* the barrier; warps 1..3 compute
    // 500 cycles *after* it. With the barrier the phases serialise
    // (~1000 cycles); without it all computes overlap (~500 cycles).
    fn gen(with_barrier: bool) -> impl Fn(usize, usize) -> Vec<Op> {
        move |_, warp| {
            let mut ops = Vec::new();
            if warp == 0 {
                ops.push(Op::Compute { cycles: 500 });
            }
            if with_barrier {
                ops.push(Op::Barrier);
            }
            if warp != 0 {
                ops.push(Op::Compute { cycles: 500 });
            }
            ops
        }
    }
    let grid = GridDim {
        ctas: 1,
        threads_per_cta: 128,
    };
    let with = run(
        L1PolicyKind::Lru,
        &FnKernel {
            name: "barrier",
            grid,
            gen: gen(true),
        },
    );
    let without = run(
        L1PolicyKind::Lru,
        &FnKernel {
            name: "nobarrier",
            grid,
            gen: gen(false),
        },
    );
    assert!(
        with.cycles > without.cycles + 400,
        "barrier must serialise the phases: with={} without={}",
        with.cycles,
        without.cycles
    );
    assert!(with.cycles >= 1000);
    assert!(without.cycles < 600);
}

#[test]
fn atomics_complete_and_serialise() {
    let k = FnKernel {
        name: "atomics",
        grid: GridDim {
            ctas: 8,
            threads_per_cta: 64,
        },
        gen: |_, _| {
            // Every warp atomically updates the same line: heavy AOU
            // serialisation at one partition.
            vec![Op::Atomic {
                addrs: (0..32).map(|_| Some(Addr::new(0))).collect(),
            }]
        },
    };
    let stats = run(L1PolicyKind::Lru, &k);
    assert_eq!(stats.core.ctas_completed, 8);
    assert_eq!(
        stats.partition.atomics, 16,
        "8 CTAs x 2 warps, 1 coalesced atomic each"
    );
}

#[test]
fn stores_write_through_to_l2_and_dram() {
    let k = FnKernel {
        name: "stores",
        grid: GridDim {
            ctas: 4,
            threads_per_cta: 64,
        },
        gen: |cta, warp| {
            let wid = (cta * 2 + warp) as u64;
            (0..8)
                .map(|i| Op::strided_store(Addr::new((wid * 8 + i) * 4096), 4, 32))
                .collect()
        },
    };
    let stats = run(L1PolicyKind::Lru, &k);
    // L1 is no-write-allocate: nothing cached, all accesses recorded.
    assert_eq!(stats.l1.accesses(), 64);
    assert_eq!(stats.l1.fills, 0);
    // L2 write-allocates: every store miss fetches then dirties...
    assert!(stats.l2.writes == 64);
    // ...and the kernel-end flush writes the dirty lines back.
    assert!(stats.l2.writebacks > 0);
}

#[test]
fn gto_and_lrr_both_complete() {
    let mut cfg = GpuConfig::fermi().unwrap();
    cfg.warp_sched = WarpSchedKind::Gto;
    let gto = Gpu::new(cfg).run_kernel(&streaming_kernel(16, 8)).unwrap();
    let lrr = run(L1PolicyKind::Lru, &streaming_kernel(16, 8));
    assert_eq!(gto.instructions, lrr.instructions);
    assert_eq!(gto.core.ctas_completed, 16);
}

#[test]
fn divergent_loads_generate_many_transactions() {
    let k = FnKernel {
        name: "divergent",
        grid: GridDim {
            ctas: 2,
            threads_per_cta: 32,
        },
        gen: |cta, _| {
            // Each lane touches its own line: 32 transactions per load.
            vec![Op::gather(
                (0..32)
                    .map(|l| Some(Addr::new((cta * 32 + l) as u64 * 128 * 64)))
                    .collect(),
            )]
        },
    };
    let stats = run(L1PolicyKind::Lru, &k);
    assert_eq!(stats.core.mem_instructions, 2);
    assert_eq!(stats.core.transactions, 64);
    assert_eq!(stats.l1.accesses(), 64);
}

#[test]
fn every_design_point_runs_the_same_kernel() {
    let designs = [
        L1PolicyKind::Lru,
        L1PolicyKind::Srrip { bits: 3 },
        L1PolicyKind::GCache(GCacheConfig::default()),
        L1PolicyKind::StaticPdp { pd: 8 },
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp3()),
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp8()),
    ];
    for d in designs {
        let stats = run(d, &streaming_kernel(8, 8));
        assert_eq!(stats.core.ctas_completed, 8, "design {d:?}");
        assert_eq!(stats.instructions, 256, "design {d:?}");
        assert_eq!(stats.design, d.design_name());
    }
}

fn run_clustered(policy: L1PolicyKind, cluster_size: usize, kernel: &dyn Kernel) -> SimStats {
    let cfg = GpuConfig::fermi_with_policy(policy)
        .unwrap()
        .with_hierarchy(Hierarchy::SharedL15 {
            cluster_size,
            kb: 64,
        })
        .unwrap();
    Gpu::new(cfg)
        .run_kernel(kernel)
        .expect("clustered simulation completes")
}

#[test]
fn flat_runs_report_no_l15_traffic() {
    let stats = run(L1PolicyKind::Lru, &streaming_kernel(8, 8));
    assert_eq!(stats.l15.accesses(), 0);
    assert_eq!(stats.l15_miss_rate(), 0.0);
}

#[test]
fn clustered_hierarchy_completes_same_work_as_flat() {
    for cluster_size in [4, 8] {
        let flat = run(L1PolicyKind::Lru, &streaming_kernel(24, 8));
        let clustered = run_clustered(L1PolicyKind::Lru, cluster_size, &streaming_kernel(24, 8));
        assert_eq!(clustered.core.ctas_completed, 24, "c{cluster_size}");
        assert_eq!(clustered.instructions, flat.instructions, "c{cluster_size}");
        assert_eq!(
            clustered.l1.accesses(),
            flat.l1.accesses(),
            "c{cluster_size}"
        );
        // Every L1 miss, store and atomic passes through the L1.5.
        assert!(clustered.l15.accesses() > 0, "c{cluster_size}");
        // Streaming lines are fresh everywhere: L1.5 misses dominate, and
        // every L1.5 miss reaches the L2 exactly as in the flat machine.
        assert_eq!(
            clustered.l2.accesses(),
            flat.l2.accesses(),
            "c{cluster_size}"
        );
        assert_eq!(clustered.dram.reads, flat.dram.reads, "c{cluster_size}");
    }
}

#[test]
fn shared_l15_absorbs_l1_thrash() {
    // Each warp cyclically scans 6 lines of one L1 set: 6 tags over the
    // 4-way L1 is LRU's cyclic-eviction pathology, so the L1 misses every
    // round — but the set fits in the 8-way L1.5, so from the second
    // round on those misses hit the shared cluster cache instead of
    // travelling to the L2.
    let thrash = FnKernel {
        name: "l1thrash",
        grid: GridDim {
            ctas: 16,
            threads_per_cta: 32,
        },
        gen: |_, _| {
            (0..4u64)
                .flat_map(|_| (0..6u64).map(|j| Op::strided_load(Addr::new(j * 64 * 128), 4, 32)))
                .collect()
        },
    };
    let flat = run(L1PolicyKind::Lru, &thrash);
    let clustered = run_clustered(L1PolicyKind::Lru, 4, &thrash);
    assert_eq!(clustered.instructions, flat.instructions);
    assert!(clustered.l15.accesses() > 0);
    assert!(
        clustered.l15.hits() > 0,
        "repeat L1 misses should hit the shared L1.5: {:?}",
        clustered.l15
    );
    assert!(
        clustered.l2.accesses() < flat.l2.accesses(),
        "the L1.5 should absorb L2 traffic: clustered {} vs flat {}",
        clustered.l2.accesses(),
        flat.l2.accesses()
    );
}

#[test]
fn clustered_runs_are_deterministic() {
    let a = run_clustered(
        L1PolicyKind::GCache(GCacheConfig::default()),
        4,
        &hot_kernel(12, 32),
    );
    let b = run_clustered(
        L1PolicyKind::GCache(GCacheConfig::default()),
        4,
        &hot_kernel(12, 32),
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l15.hits(), b.l15.hits());
    assert_eq!(a.l2.accesses(), b.l2.accesses());
    assert_eq!(a.dram.reads, b.dram.reads);
}

/// The headline behavioural test: an inter-warp thrashing kernel where
/// G-Cache must beat the LRU baseline by protecting hot lines.
#[test]
fn gcache_beats_lru_on_thrashing_kernel() {
    // Each warp loops over a per-warp working set sized so that the warps
    // sharing a core overflow the L1 together (thrash under LRU), mixed
    // with streaming lines that pollute the cache.
    // Coordinated inter-warp thrash: per core, exactly 6 hot lines land in
    // every 4-way L1 set (LRU's cyclic-eviction pathology), plus one
    // streaming line per warp-round as pollution. CTA c deterministically
    // lands on core c % 16 (round-robin), which lets the generator spread
    // work per core.
    let thrash = FnKernel {
        name: "thrash",
        grid: GridDim {
            ctas: 128,
            threads_per_cta: 128,
        },
        gen: |cta, warp| {
            let core = (cta % 16) as u64;
            let w = ((cta / 16) * 4 + warp) as u64; // core-local warp index
            let mut ops = Vec::new();
            for round in 0..8u64 {
                for j in 0..12u64 {
                    let u = w * 12 + j; // 0..384 per core
                    let (set, g) = (u % 64, u / 64);
                    let line = (core * 6 + g) * 64 + set;
                    ops.push(Op::strided_load(Addr::new(line * 128), 4, 32));
                }
                let su = w * 8 + round;
                let sline = (1 << 22) + (core * 256 + su) * 64 + (w * 12) % 64;
                ops.push(Op::strided_load(Addr::new(sline * 128), 4, 32));
            }
            ops
        },
    };
    let bs = run(L1PolicyKind::Lru, &thrash);
    let bss = run(L1PolicyKind::Srrip { bits: 3 }, &thrash);
    let gc = run(L1PolicyKind::GCache(GCacheConfig::default()), &thrash);
    assert!(
        gc.l1_miss_rate() + 0.03 < bs.l1_miss_rate(),
        "GC miss rate {:.3} must clearly beat LRU {:.3}",
        gc.l1_miss_rate(),
        bs.l1_miss_rate()
    );
    assert!(
        gc.l1.bypassed_fills > 0,
        "GC should have bypassed some fills"
    );
    let speedup = gc.speedup_over(&bs);
    assert!(speedup > 1.02, "GC speedup over BS was {speedup:.3}");
    // The paper's §5.1 finding: replacement policy alone (BS-S) barely
    // moves — the benefit comes from bypassing.
    assert!(
        gc.speedup_over(&bss) > 1.02,
        "GC must also beat SRRIP-only: {:.3}",
        gc.speedup_over(&bss)
    );
}
