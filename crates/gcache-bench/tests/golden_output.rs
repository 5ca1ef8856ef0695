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

/// fig2 and energy fan their runs out over `--jobs` like every other
/// figure; the goldens were captured from the serial loops they replace.
#[test]
fn fig2_quick_stdout_matches_golden() {
    let golden = include_str!("golden/fig2_quick.txt");
    run_quick(env!("CARGO_BIN_EXE_fig2"), golden);
    run_quick_with(env!("CARGO_BIN_EXE_fig2"), &["--jobs", "4"], golden);
}

#[test]
fn energy_quick_stdout_matches_golden() {
    let golden = include_str!("golden/energy_quick.txt");
    run_quick(env!("CARGO_BIN_EXE_energy"), golden);
    run_quick_with(env!("CARGO_BIN_EXE_energy"), &["--jobs", "4"], golden);
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

/// `bin args` must be refused at the command line: exit status 2,
/// nothing on stdout, `needle` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a report");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

/// A `--bench` name the registry does not hold is a usage error, not an
/// empty table whose geomean rows read 1.000x.
#[test]
fn unknown_bench_name_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig8_fig9"),
        &["--quick", "--bench", "NOPE"],
        "unknown benchmark 'NOPE'",
    );
}

/// The hierarchy axes exist in `hierarchy` and `sweep_server` only; a
/// flat-machine figure must not print the flat numbers under a
/// `--hierarchy c4` heading it never read.
#[test]
fn hierarchy_flags_outside_the_hierarchy_sweep_are_usage_errors() {
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    assert_usage_error(
        fig2,
        &["--quick", "--hierarchy", "c4"],
        "fig2 does not take '--hierarchy'",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig8_fig9"),
        &["--quick", "--cluster-ports", "2"],
        "fig8_fig9 does not take '--cluster-ports'",
    );
    // The usage text lists what the binary takes and nothing else.
    let out = Command::new(fig2)
        .arg("--hierarchy")
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: fig2 [--quick]"), "got: {stderr}");
    assert!(!stderr.contains("SHAPE"), "got: {stderr}");
}

/// `table1` simulates nothing, so every flag that steers a simulation
/// is refused instead of exiting 0 with nothing written.
#[test]
fn table1_refuses_simulation_flags() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    for flag in ["--jobs", "--telemetry", "--trace-out", "--checkpoint"] {
        let needle = format!("table1 does not take '{flag}'");
        assert_usage_error(table1, &[flag, "x"], &needle);
    }
    for flag in ["--checkpoint-every", "--resume", "--no-fast-forward"] {
        let needle = format!("table1 does not take '{flag}'");
        assert_usage_error(table1, &[flag], &needle);
    }
}

#[test]
fn table2_refuses_any_argument() {
    let table2 = env!("CARGO_BIN_EXE_table2");
    assert_usage_error(table2, &["--quick"], "table2 does not take '--quick'");
    assert_usage_error(table2, &["extra"], "table2 does not take 'extra'");
}
