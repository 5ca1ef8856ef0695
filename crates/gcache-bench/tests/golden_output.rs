//! Golden-output equivalence gate for the componentized memory hierarchy.
//!
//! The experiment binaries' stdout at test scale (`--quick`, three
//! benchmarks spanning the cache-sensitive/insensitive spectrum, CFD
//! exercising G-Cache bypass) was captured before the
//! `CacheController`/`Clocked` refactor and committed under
//! `tests/golden/`. These tests rerun the same commands and byte-compare:
//! any divergence means a simulator behavior change, which must be
//! intentional and accompanied by regenerated goldens **and** regenerated
//! `results/*.txt` (see EXPERIMENTS.md).
//!
//! Progress chatter goes to stderr by design, so only stdout is compared.

use std::process::Command;

const BENCHES: &str = "BFS,CFD,STL";

fn run_quick(bin: &str, golden: &str) {
    run_quick_with(bin, &[], golden);
}

fn run_quick_with(bin: &str, extra_args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(["--quick", "--bench", BENCHES])
        .args(extra_args)
        .output()
        .expect("spawn experiment binary");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("experiment output is UTF-8");
    if stdout != golden {
        // A plain assert_eq! on multi-kilobyte tables is unreadable; show
        // the first diverging line instead.
        for (i, (got, want)) in stdout.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at stdout line {}", i + 1);
        }
        assert_eq!(
            stdout.lines().count(),
            golden.lines().count(),
            "line count differs from golden"
        );
        panic!("stdout differs from golden only in line endings or trailing bytes");
    }
}

#[test]
fn fig8_fig9_quick_stdout_matches_pre_refactor_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_fig8_fig9"),
        include_str!("golden/fig8_fig9_quick.txt"),
    );
}

#[test]
fn table3_quick_stdout_matches_pre_refactor_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_table3"),
        include_str!("golden/table3_quick.txt"),
    );
}

/// fig3_fig4 runs every point through the telemetry sampler
/// (`RunOpts::sampled`); its figures must still be derived from byte-identical
/// stats — the golden was captured from the pre-sampler binary.
#[test]
fn fig3_fig4_quick_stdout_matches_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_fig3_fig4"),
        include_str!("golden/fig3_fig4_quick.txt"),
    );
}

#[test]
fn fig10_quick_stdout_matches_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_fig10"),
        include_str!("golden/fig10_quick.txt"),
    );
}

#[test]
fn ablation_quick_stdout_matches_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_ablation"),
        include_str!("golden/ablation_quick.txt"),
    );
}

/// The hierarchy sweep's default port axis includes the 1-port
/// (serialization-equivalent) setting, so this golden pins both the
/// legacy cluster numbers and the multi-port crossbar results.
#[test]
fn hierarchy_quick_stdout_matches_golden() {
    run_quick(
        env!("CARGO_BIN_EXE_hierarchy"),
        include_str!("golden/hierarchy_quick.txt"),
    );
}

/// The ML plane sweep runs its own registry (GEMM/CONV/ATTN), so it
/// takes no `--bench` filter: the golden pins the full quick-scale
/// plane-composition table, including the plane-bypass and clean
/// copy-back counters.
#[test]
fn mlsweep_quick_stdout_matches_golden() {
    let bin = env!("CARGO_BIN_EXE_mlsweep");
    let out = Command::new(bin)
        .arg("--quick")
        .output()
        .expect("spawn mlsweep");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("mlsweep output is UTF-8");
    assert_eq!(stdout, include_str!("golden/mlsweep_quick.txt"));
}

/// Disabling idle-cycle fast-forward must reproduce the same bytes the
/// (fast-forwarding) golden was captured with — the end-to-end complement
/// of the stats-level differential test.
#[test]
fn fig8_fig9_quick_without_fast_forward_matches_golden() {
    run_quick_with(
        env!("CARGO_BIN_EXE_fig8_fig9"),
        &["--no-fast-forward"],
        include_str!("golden/fig8_fig9_quick.txt"),
    );
}

/// A `--bench` name the registry does not hold is a usage error, not an
/// empty table whose geomean rows read 1.000x.
#[test]
fn unknown_bench_name_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig8_fig9"))
        .args(["--quick", "--bench", "NOPE"])
        .output()
        .expect("spawn fig8_fig9");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(out.stdout.is_empty(), "no table for a misspelt benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark 'NOPE'"), "got: {stderr}");
}
