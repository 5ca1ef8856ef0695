//! Differential gate for checkpoint/resume (see `gcache_sim::gpu`):
//! every covered benchmark × design × hierarchy × fast-forward point is
//! simulated three ways — straight through, straight through while writing
//! checkpoints, and restored from a mid-run checkpoint into a freshly
//! built GPU — and all three must produce bit-identical [`SimStats`] and
//! telemetry series.
//!
//! The first comparison proves the checkpoint hooks are passive (writing
//! snapshots never perturbs the simulation); the second proves a snapshot
//! captures *all* authoritative state (anything missed — a warp's program
//! position, a mesh ring's head cache, an MSHR merge list, a policy's
//! set-dueling counter — would shift downstream timing and show up in the
//! Debug rendering of the stats).
//!
//! `GpuConfig::fast_forward` is set directly on per-run configs.

use gcache_sim::config::{GpuConfig, Hierarchy};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::Sampler;
use gcache_workloads::{Benchmark, Scale};

/// Checkpoint cadence in cycles — far off the watchdog/telemetry grids so
/// the test also covers fast-forward jumps being capped at checkpoint
/// boundaries that nothing else would land on.
const EVERY: u64 = 1100;

/// Telemetry interval; chosen not to divide `EVERY` for the same reason.
const SAMPLE_INTERVAL: u64 = 1792;

fn fresh_gpu(cfg: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.attach_sampler(Sampler::new(SAMPLE_INTERVAL));
    gpu
}

/// One uninterrupted run: the reference output.
fn run_straight(bench: &dyn Benchmark, cfg: &GpuConfig) -> (SimStats, String) {
    let mut gpu = fresh_gpu(cfg);
    let stats = gpu
        .run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.info().name));
    (stats, gpu.take_sampler().unwrap().to_csv())
}

/// One run that also writes checkpoints, keeping every snapshot produced.
fn run_checkpointed(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
) -> (SimStats, String, Vec<(u64, Vec<u8>)>) {
    let mut ckpts = Vec::new();
    let mut gpu = fresh_gpu(cfg);
    let stats = gpu
        .run_kernel_checkpointed(bench, EVERY, |cycle, bytes| {
            ckpts.push((cycle, bytes));
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.info().name));
    (stats, gpu.take_sampler().unwrap().to_csv(), ckpts)
}

/// Restores `snapshot` into a freshly built GPU and runs to completion.
fn run_resumed(bench: &dyn Benchmark, cfg: &GpuConfig, snapshot: &[u8]) -> (SimStats, String) {
    let mut gpu = fresh_gpu(cfg);
    gpu.restore_checkpoint(snapshot, bench)
        .unwrap_or_else(|e| panic!("{} restore failed: {e}", bench.info().name));
    let stats = gpu
        .run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} resume failed: {e}", bench.info().name));
    (stats, gpu.take_sampler().unwrap().to_csv())
}

#[test]
fn resumed_run_is_bit_identical() {
    // BFS (cache-sensitive, exercises G-Cache's adaptive state), STL
    // (streaming, exercises bypass paths and DRAM pressure).
    let names = ["BFS", "STL"];
    let benches: Vec<_> = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .filter(|b| names.contains(&b.info().name))
        .collect();
    assert_eq!(benches.len(), names.len(), "benchmark registry changed");

    // The two policies with the most mutable machinery: G-Cache (per-set
    // switches, victim bits, epochs) and dynamic PDP (RPD sampling).
    let policies: Vec<_> = gcache_bench::designs(6)
        .into_iter()
        .filter(|p| matches!(p.design_name(), "GC" | "PDP-3"))
        .collect();
    assert_eq!(policies.len(), 2, "design roster changed");

    fn clustered(cfg: GpuConfig) -> GpuConfig {
        let shape = Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        };
        cfg.with_hierarchy(shape).expect("valid hierarchy")
    }
    /// A label and the reshaping of Table 2's machine it names. The last
    /// two keep an L2 head and an L1.5 head parked on one MSHR entry for
    /// much of the run, so checkpoints land while stations sleep on a
    /// stalled head.
    type Shape = (&'static str, fn(GpuConfig) -> GpuConfig);
    let shapes: [Shape; 4] = [
        ("flat", |c| c),
        ("c4", clustered),
        ("l2_mshr_entries=1", |c| GpuConfig {
            l2_mshr_entries: 1,
            ..c
        }),
        ("c4, l1_mshr_entries=1", |c| GpuConfig {
            l1_mshr_entries: 1,
            ..clustered(c)
        }),
    ];

    for bench in &benches {
        for &policy in &policies {
            for (shape, reshape) in shapes {
                for fast_forward in [true, false] {
                    let mut cfg =
                        reshape(GpuConfig::fermi_with_policy(policy).expect("valid config"));
                    cfg.fast_forward = fast_forward;
                    let ctx = format!(
                        "{} / {} / {shape} / ff={fast_forward}",
                        bench.info().name,
                        policy.design_name(),
                    );

                    let (straight, straight_csv) = run_straight(bench.as_ref(), &cfg);
                    let (hooked, hooked_csv, ckpts) = run_checkpointed(bench.as_ref(), &cfg);
                    assert_eq!(
                        format!("{straight:?}"),
                        format!("{hooked:?}"),
                        "{ctx}: checkpoint hooks perturbed the simulation"
                    );
                    assert_eq!(
                        straight_csv, hooked_csv,
                        "{ctx}: checkpoint hooks perturbed the telemetry"
                    );
                    assert!(
                        ckpts.len() >= 2,
                        "{ctx}: run too short to test mid-run resume ({} checkpoints)",
                        ckpts.len()
                    );

                    // Resume from a mid-run snapshot, not the last one, so
                    // a substantial tail is re-simulated from restored
                    // state.
                    let (cycle, snapshot) = &ckpts[ckpts.len() / 2];
                    assert_eq!(cycle % EVERY, 0, "{ctx}: checkpoint off-grid");
                    let (resumed, resumed_csv) = run_resumed(bench.as_ref(), &cfg, snapshot);
                    assert_eq!(
                        format!("{straight:?}"),
                        format!("{resumed:?}"),
                        "{ctx}: resume from cycle {cycle} diverged"
                    );
                    assert_eq!(
                        straight_csv, resumed_csv,
                        "{ctx}: resume from cycle {cycle} diverged in telemetry"
                    );
                }
            }
        }
    }
}

/// The packed tag arrays serialize only their logical slots; the per-set
/// validity/dirty mask words are rebuilt on restore. Snapshot mid-kernel,
/// restore into a fresh GPU, and assert the rebuilt masks of every cache
/// in the machine (L1s, L1.5s, L2 banks) equal the reference recomputed
/// from the per-slot states, for every set — and that the check is not
/// vacuous (the mid-kernel caches actually hold lines).
#[test]
fn restored_tag_masks_equal_recomputed() {
    let bench = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .find(|b| b.info().name == "BFS")
        .expect("BFS registered");
    let policy = gcache_bench::designs(6)
        .into_iter()
        .find(|p| p.design_name() == "GC")
        .expect("GC design");
    // Clustered hierarchy so the L1.5 tag arrays are covered too.
    let cfg = GpuConfig::fermi_with_policy(policy)
        .expect("valid config")
        .with_hierarchy(Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        })
        .expect("valid hierarchy");

    let mut ckpts = Vec::new();
    fresh_gpu(&cfg)
        .run_kernel_checkpointed(bench.as_ref(), EVERY, |cycle, bytes| {
            ckpts.push((cycle, bytes));
            Ok(())
        })
        .expect("checkpointed run");
    assert!(ckpts.len() >= 2, "run too short for a mid-kernel snapshot");
    let (cycle, snapshot) = &ckpts[ckpts.len() / 2];

    let mut gpu = fresh_gpu(&cfg);
    gpu.restore_checkpoint(snapshot, bench.as_ref())
        .expect("restore");
    assert!(
        gpu.tag_masks_consistent(),
        "cycle {cycle}: restored mask words diverge from the recomputed reference"
    );
    let stats = gpu.run_kernel(bench.as_ref()).expect("resume");
    assert!(
        stats.l1.hits() > 0,
        "vacuous check: resumed run never hit a restored L1 line"
    );
    assert!(
        gpu.tag_masks_consistent(),
        "masks drifted from the slot states during the resumed run"
    );
}

#[test]
fn restore_rejects_mismatched_machine() {
    let bench = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .find(|b| b.info().name == "BFS")
        .expect("BFS registered");
    let policy = gcache_bench::designs(6)
        .into_iter()
        .find(|p| p.design_name() == "GC")
        .expect("GC design");
    let cfg = GpuConfig::fermi_with_policy(policy).expect("valid config");

    let mut ckpts = Vec::new();
    let mut gpu = fresh_gpu(&cfg);
    gpu.run_kernel_checkpointed(bench.as_ref(), EVERY, |cycle, bytes| {
        ckpts.push((cycle, bytes));
        Ok(())
    })
    .expect("checkpointed run");
    let (_, snapshot) = ckpts.first().expect("at least one checkpoint");

    // Different configuration: fingerprint mismatch.
    let lru = gcache_bench::designs(6)
        .into_iter()
        .find(|p| p.design_name() == "BS")
        .expect("baseline design");
    let other = GpuConfig::fermi_with_policy(lru).expect("valid config");
    let err = fresh_gpu(&other)
        .restore_checkpoint(snapshot, bench.as_ref())
        .expect_err("config mismatch must be rejected");
    assert!(format!("{err}").contains("fingerprint"), "got: {err}");

    // No sampler attached although the snapshot carries telemetry.
    let err = Gpu::new(cfg.clone())
        .restore_checkpoint(snapshot, bench.as_ref())
        .expect_err("missing sampler must be rejected");
    assert!(format!("{err}").contains("sampler"), "got: {err}");

    // Truncated snapshot: the checksummed format fails loudly.
    let err = fresh_gpu(&cfg)
        .restore_checkpoint(&snapshot[..snapshot.len() / 2], bench.as_ref())
        .expect_err("truncation must be rejected");
    let msg = format!("{err}");
    assert!(
        msg.contains("truncated") || msg.contains("checksum") || msg.contains("short"),
        "got: {msg}"
    );
}
