//! Kill-safety gate for the sharded sweep server (see
//! `gcache_bench::server`): a small grid is swept four ways — clean,
//! with a worker aborted mid-point (after a checkpoint write), with a
//! worker aborted *between* finishing a point and publishing its
//! result, and with the coordinator itself `SIGKILL`ed mid-sweep and
//! re-run — and every interrupted variant must converge to a merged
//! output byte-identical to the clean sweep's.
//!
//! The scenarios drive the real binary (`CARGO_BIN_EXE_sweep_server`),
//! so respawn supervision, checkpoint resume, atomic publication and
//! the manifest guard are all exercised at the process level, exactly
//! as `scripts/check.sh`'s smoke does in release.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Grid flags shared by every scenario: 2 benchmarks × 6 designs = 12
/// points, two worker processes, checkpoints every 1200 cycles (each
/// quick point runs ~10k+ cycles, so every point checkpoints several
/// times).
const GRID: &[&str] = &[
    "--quick",
    "--bench",
    "BFS,STL",
    "--jobs",
    "2",
    "--checkpoint-every",
    "1200",
];

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_sweep_server")
}

fn rundir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcache-sweep-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(exe());
    cmd.arg("--dir").arg(dir).args(GRID);
    cmd
}

fn run_sweep(dir: &Path, fault: Option<&str>) -> Output {
    let mut cmd = sweep_cmd(dir);
    match fault {
        Some(spec) => cmd.env("GCACHE_SWEEP_FAULT", spec),
        None => cmd.env_remove("GCACHE_SWEEP_FAULT"),
    };
    cmd.output().expect("spawn sweep_server")
}

/// Returns once the sweep running in `dir` has a checkpoint file on
/// disk: from then on a point is provably in flight, however fast the
/// simulator is (a fixed sleep is a bet on it being slow).
fn wait_for_checkpoint(dir: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let has_checkpoint = || {
        std::fs::read_dir(dir.join("ckpt")).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|entry| entry.path().extension().is_some_and(|ext| ext == "ckpt"))
        })
    };
    while !has_checkpoint() {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared under {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn assert_ok(out: &Output, ctx: &str) {
    assert!(
        out.status.success(),
        "{ctx}: exit {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn interrupted_sweeps_merge_byte_identical() {
    // Reference: one clean, uninterrupted sweep.
    let dir_a = rundir("clean");
    let clean = run_sweep(&dir_a, None);
    assert_ok(&clean, "clean sweep");
    assert!(
        !clean.stdout.is_empty() && clean.stdout.ends_with(b"\n"),
        "clean sweep printed no merged output"
    );
    let merged = std::fs::read(dir_a.join("merged.tsv")).expect("merged.tsv written");
    assert_eq!(merged, clean.stdout, "merged.tsv must mirror stdout");

    // Scenario 1: a worker dies right after writing its second
    // checkpoint (mid-point). The coordinator must respawn it and the
    // replacement must resume the in-flight point from its snapshot.
    let dir_w = rundir("worker-kill");
    let out = run_sweep(&dir_w, Some("ckpt:2"));
    assert_ok(&out, "worker-kill sweep");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault injection"), "fault never fired:\n{err}");
    assert!(err.contains("respawn"), "worker was not respawned:\n{err}");
    assert!(
        err.contains("resuming 00000"),
        "in-flight point was not resumed from its checkpoint:\n{err}"
    );
    assert_eq!(
        out.stdout, clean.stdout,
        "worker kill changed the merged bytes"
    );

    // Scenario 2: a worker dies in the window between completing a
    // point and publishing its result. The replacement must re-reach
    // completion (resuming from the point's last checkpoint) and
    // publish the identical bytes.
    let dir_p = rundir("publish-kill");
    let out = run_sweep(&dir_p, Some("result:2"));
    assert_ok(&out, "publish-kill sweep");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault injection"), "fault never fired:\n{err}");
    assert!(err.contains("respawn"), "worker was not respawned:\n{err}");
    assert_eq!(
        out.stdout, clean.stdout,
        "publish-window kill changed the merged bytes"
    );

    // Scenario 3: the coordinator itself is SIGKILLed mid-sweep;
    // re-running the same command against the same directory must
    // complete the sweep. (Workers orphaned by the kill may still be
    // running during the re-run — PID-suffixed temp files, atomic
    // renames and checksummed checkpoints make the race benign.)
    let dir_c = rundir("coordinator-kill");
    let mut child = sweep_cmd(&dir_c)
        .env_remove("GCACHE_SWEEP_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    wait_for_checkpoint(&dir_c);
    child.kill().expect("SIGKILL coordinator");
    let status = child.wait().expect("reap coordinator");
    assert!(!status.success(), "coordinator survived SIGKILL");
    let out = run_sweep(&dir_c, None);
    assert_ok(&out, "post-coordinator-kill re-run");
    assert_eq!(
        out.stdout, clean.stdout,
        "coordinator kill changed the merged bytes"
    );

    // Re-running a completed sweep is an idempotent no-op: every point
    // is skipped and the identical merge is re-emitted.
    let out = run_sweep(&dir_a, None);
    assert_ok(&out, "idempotent re-run");
    assert_eq!(out.stdout, clean.stdout, "re-run changed the merged bytes");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("12 already complete"),
        "re-run re-simulated completed points"
    );

    // The manifest pins the directory to its grid: different flags must
    // be rejected, not merged.
    let out = Command::new(exe())
        .arg("--dir")
        .arg(&dir_a)
        .args(["--quick", "--bench", "BFS"])
        .output()
        .expect("spawn sweep_server");
    assert!(!out.status.success(), "grid mismatch was not rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("manifest"),
        "unexpected mismatch error:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for d in [dir_a, dir_w, dir_p, dir_c] {
        let _ = std::fs::remove_dir_all(d);
    }
}
