//! Damaged, stale and hostile checkpoints: whatever reaches
//! `Gpu::restore_checkpoint` or a `--checkpoint` stem that is not a snapshot
//! this build wrote must come back as an `Err` — and, through
//! `run_point_observed`, as [`PointEvent::CheckpointIgnored`] followed by
//! a fresh simulation with the uninterrupted run's statistics — never as a
//! panic (a panicking sweep-server worker is respawned into the same file
//! until its shard gives up) and never as a silently accepted restore.
//!
//! The fixture is a real machine state: quick-scale BFS under G-Cache,
//! snapshotted mid-kernel.

use gcache_bench::{run_point_observed, CheckpointOpts, PointEvent, RunOpts};
use gcache_core::rng::SmallRng;
use gcache_core::snapshot::{checksum64, SnapshotError, HEADER_LEN, MAGIC};
use gcache_sim::config::{GpuConfig, Hierarchy};
use gcache_sim::gpu::Gpu;
use gcache_sim::telemetry::Sampler;
use gcache_workloads::{by_name, Benchmark, Scale};
use std::path::{Path, PathBuf};

const EVERY: u64 = 1200;
const LABEL: &str = "BFS|corruption-test";

fn bfs() -> Box<dyn Benchmark> {
    by_name("BFS", Scale::Test).expect("BFS registered")
}

fn gc_config() -> GpuConfig {
    let policy = gcache_bench::designs(6)
        .into_iter()
        .find(|p| p.design_name() == "GC")
        .expect("GC design");
    GpuConfig::fermi_with_policy(policy).expect("valid config")
}

/// A snapshot from the middle of `gpu`'s run.
fn mid_run_snapshot(mut gpu: Gpu, bench: &dyn Benchmark) -> Vec<u8> {
    let mut snapshots = Vec::new();
    gpu.run_kernel_checkpointed(bench, EVERY, |_, bytes| {
        snapshots.push(bytes);
        Ok(())
    })
    .expect("checkpointed run");
    assert!(snapshots.len() >= 2, "run too short for a mid-run snapshot");
    snapshots.swap_remove(snapshots.len() / 2)
}

/// The bytes of a snapshot are a contract with every checkpoint already on
/// disk: a refactor of the encoders must reproduce them exactly, and a
/// deliberate layout change must bump `VERSION` and re-capture these
/// constants. The flat machine covers cores, meshes, partitions and DRAM;
/// the clustered one adds the `l15`, `xbar` and `sampler` sections. The
/// station arrays' `wake_skips` words count elided ticks, so a change to
/// event gating moves them and these checksums, never the lengths.
#[test]
fn snapshot_wire_format_is_pinned() {
    let bench = bfs();
    let flat = mid_run_snapshot(Gpu::new(gc_config()), bench.as_ref());
    assert_eq!(
        (flat.len(), checksum64(&flat)),
        (339_552, 0xafcd_10a0_9236_8be8),
        "flat BFS/GC"
    );

    let cfg = gc_config()
        .with_hierarchy(Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        })
        .and_then(|c| c.with_cluster_ports(2))
        .expect("valid hierarchy");
    let mut gpu = Gpu::new(cfg);
    gpu.attach_sampler(Sampler::new(700));
    let clustered = mid_run_snapshot(gpu, bench.as_ref());
    assert_eq!(
        (clustered.len(), checksum64(&clustered)),
        (393_838, 0xcd98_7f3e_5a58_6ebe),
        "SharedL15 c4/64KB, 2 ports, sampled BFS/GC"
    );
}

#[test]
fn damaged_snapshots_are_errors_never_panics_never_accepted() {
    let bench = bfs();
    let snapshot = mid_run_snapshot(Gpu::new(gc_config()), bench.as_ref());
    let restore = |bytes: &[u8]| Gpu::new(gc_config()).restore_checkpoint(bytes, bench.as_ref());
    restore(&snapshot).expect("the undamaged snapshot restores");

    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
    let mut damaged = snapshot.clone();
    for _ in 0..2000 {
        let bit = rng.gen_range(0..snapshot.len() as u64 * 8) as usize;
        damaged[bit / 8] ^= 1 << (bit % 8);
        assert!(
            restore(&damaged).is_err(),
            "bit {} of byte {} flipped, restore accepted it",
            bit % 8,
            bit / 8
        );
        damaged[bit / 8] = snapshot[bit / 8];
    }

    // Every length class: empty, inside the header, and 200 spread over
    // the file (random, so section boundaries are not favoured).
    let cuts = (0..=HEADER_LEN + 1)
        .chain((0..200).map(|_| rng.gen_range(0..snapshot.len() as u64) as usize));
    for cut in cuts {
        assert!(
            restore(&snapshot[..cut]).is_err(),
            "file cut at {cut} of {}, restore accepted it",
            snapshot.len()
        );
    }

    let mut stale = snapshot;
    stale[MAGIC.len()..HEADER_LEN].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        restore(&stale).unwrap_err(),
        SnapshotError::BadVersion { found: 1 }
    );
}

/// Runs the fixture point (sampled, so the file carries a `sampler`
/// section) until its first checkpoint is on disk, then aborts (as a killed
/// worker would) and returns the checkpoint file.
fn interrupted_point(bench: &dyn Benchmark, stem: &str, dir: &Path) -> PathBuf {
    let opts = RunOpts {
        checkpoint: Some(CheckpointOpts {
            stem: stem.to_string(),
            every: EVERY,
        }),
        sampled: true,
    };
    let aborted = run_point_observed(gc_config(), bench, LABEL, &opts, &mut |event| match event {
        PointEvent::Checkpointed { .. } => Err("killed".to_string()),
        _ => Ok(()),
    });
    assert_eq!(
        aborted.err().as_deref().map(|e| e.contains("killed")),
        Some(true)
    );
    let mut files = std::fs::read_dir(dir)
        .expect("scratch directory")
        .map(|e| e.unwrap().path());
    let file = files.next().expect("one checkpoint file");
    assert!(files.next().is_none(), "exactly one checkpoint file");
    file
}

/// Resumes the fixture point from `stem`; returns the stats' Debug
/// rendering and what the observer heard about the checkpoint.
fn resume_point(bench: &dyn Benchmark, stem: Option<&str>) -> (String, Vec<String>) {
    let opts = RunOpts {
        checkpoint: stem.map(|s| CheckpointOpts {
            stem: s.to_string(),
            every: EVERY,
        }),
        sampled: true,
    };
    let mut heard = Vec::new();
    let (stats, _) = run_point_observed(gc_config(), bench, LABEL, &opts, &mut |event| {
        match event {
            PointEvent::Resumed { .. } => heard.push("resumed".to_string()),
            PointEvent::CheckpointIgnored { reason, .. } => {
                heard.push(format!("ignored: {reason}"))
            }
            PointEvent::Checkpointed { .. } | PointEvent::Finished { .. } => {}
        }
        Ok(())
    })
    .expect("the point completes");
    (format!("{stats:?}"), heard)
}

#[test]
fn unusable_checkpoint_files_are_ignored_and_the_point_reruns() {
    let bench = bfs();
    let dir = std::env::temp_dir().join(format!("gcache-ckpt-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let stem = dir.join("ck").to_string_lossy().into_owned();
    let file = interrupted_point(bench.as_ref(), &stem, &dir);
    let intact = std::fs::read(&file).expect("checkpoint file");
    let (fresh, heard) = resume_point(bench.as_ref(), None);
    assert!(heard.is_empty());

    // The file as written resumes, to the uninterrupted statistics.
    let (stats, heard) = resume_point(bench.as_ref(), Some(&stem));
    assert_eq!(heard, ["resumed"]);
    assert_eq!(stats, fresh);

    // A file from the version-3 format: rejected by its header, not
    // migrated.
    let mut stale = intact.clone();
    stale[MAGIC.len()..HEADER_LEN].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&file, stale).expect("rewrite checkpoint");
    let (stats, heard) = resume_point(bench.as_ref(), Some(&stem));
    assert_eq!(heard.len(), 1, "{heard:?}");
    assert!(
        heard[0].starts_with("ignored: ") && heard[0].contains("version 3"),
        "{heard:?}"
    );
    assert_eq!(stats, fresh);

    // The outermost section's length field — the one value in the file no
    // checksum covers — claiming almost 2^64 bytes.
    let len_at = HEADER_LEN + 2 + "bench_ckpt".len();
    let mut hostile = intact.clone();
    hostile[len_at..len_at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
    std::fs::write(&file, hostile).expect("rewrite checkpoint");
    let (stats, heard) = resume_point(bench.as_ref(), Some(&stem));
    assert_eq!(heard.len(), 1, "{heard:?}");
    assert!(
        heard[0].starts_with("ignored: ") && heard[0].contains("truncated"),
        "{heard:?}"
    );
    assert_eq!(stats, fresh);

    // An element count no checksum objects to: the sampler's row count
    // (after its interval and capacity) raised to 2^63 - 1, then the
    // `sampler` section and the wrapper around the snapshot sealed again.
    // Reserving for that many rows would abort the worker.
    let mut hostile = intact;
    let tag = b"\x07\x00sampler";
    let tag_at = (0..hostile.len() - tag.len())
        .rfind(|&at| hostile[at..].starts_with(tag))
        .expect("a sampler section");
    let count_at = tag_at + tag.len() + 8 + 16;
    hostile[count_at..count_at + 8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
    let end = hostile.len();
    for (payload, sum_at) in [(tag_at + tag.len() + 8, end - 16), (len_at + 8, end - 8)] {
        let sum = checksum64(&hostile[payload..sum_at]);
        hostile[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    std::fs::write(&file, hostile).expect("rewrite checkpoint");
    let (stats, heard) = resume_point(bench.as_ref(), Some(&stem));
    assert_eq!(heard.len(), 1, "{heard:?}");
    assert!(
        heard[0].starts_with("ignored: ") && heard[0].contains("truncated"),
        "{heard:?}"
    );
    assert_eq!(stats, fresh);
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
