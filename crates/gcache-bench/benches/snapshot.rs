//! Micro-benchmarks of the checkpoint path on a real machine state: a
//! quick-scale BFS run under G-Cache is snapshotted mid-kernel, then the
//! section checksum, a whole-`Gpu` save and a whole-`Gpu` restore are
//! timed on that state.
//!
//! The repo benchmark (`bash benchmark/run.sh`) reports the same layer as
//! `snapshot.save_us` / `snapshot.restore_us` per workload; this target
//! adds the checksum's own throughput, which bounds both.

use gcache_bench::microbench::{black_box, measure};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_core::snapshot::checksum64;
use gcache_sim::config::{GpuConfig, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_workloads::{by_name, Scale};
use std::time::Instant;

/// Checkpoint cadence of the capture run (the sweep server's quick
/// cadence in the repo benchmark).
const EVERY: u64 = 1200;
/// Saves timed back to back, on consecutive cycles of the restored run.
const SAVES: u32 = 64;
/// Restores timed, each into a freshly built machine.
const RESTORES: u32 = 16;

fn main() {
    let bfs = by_name("BFS", Scale::Test).unwrap();
    let kernel = bfs.as_ref();
    let gpu = || {
        let policy = L1PolicyKind::GCache(GCacheConfig::default());
        Gpu::new(GpuConfig::fermi_with_policy(policy).unwrap())
    };

    let mut snapshots = Vec::new();
    gpu()
        .run_kernel_checkpointed(kernel, EVERY, |_, bytes| {
            snapshots.push(bytes);
            Ok(())
        })
        .unwrap();
    let mid = snapshots.swap_remove(snapshots.len() / 2);
    drop(snapshots);

    let sum = measure(|| {
        black_box(checksum64(black_box(&mid)));
    });
    // Bytes per nanosecond is GB/s.
    let gbps = mid.len() as f64 / sum.ns_per_iter;
    println!("{:<40} {gbps:>14.2} GB/s", "snapshot/checksum_gbps");

    let mut restore_ns = 0;
    let mut restored = None;
    for _ in 0..RESTORES {
        let mut fresh = gpu();
        let t0 = Instant::now();
        fresh.restore_checkpoint(&mid, kernel).unwrap();
        restore_ns += t0.elapsed().as_nanos();
        restored = Some(fresh);
    }
    let mut restored = restored.expect("RESTORES is positive");

    // Each save also ticks one simulated cycle (about a microsecond).
    let mut taken = 0;
    let t0 = Instant::now();
    let burst = restored.run_kernel_checkpointed(kernel, 1, |_, bytes| {
        black_box(bytes);
        taken += 1;
        if taken == SAVES {
            return Err(std::io::Error::other("burst complete"));
        }
        Ok(())
    });
    let save_ns = t0.elapsed().as_nanos();
    assert!(burst.is_err() && taken == SAVES, "kernel ended mid-burst");

    let us = |ns: u128, n: u32| ns as f64 / 1e3 / f64::from(n);
    println!(
        "{:<40} {:>14.1} us/save",
        "snapshot/save_us",
        us(save_ns, SAVES)
    );
    println!(
        "{:<40} {:>14.1} us/restore",
        "snapshot/restore_us",
        us(restore_ns, RESTORES)
    );
    println!("{:<40} {:>14} bytes", "snapshot/bytes", mid.len());
}
