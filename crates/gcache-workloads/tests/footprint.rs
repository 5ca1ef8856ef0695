//! What a resident warp costs the host: a warp program holds the ops of
//! one loop step, so a whole paper-scale grid of freshly launched warps —
//! what `begin_kernel` creates before cycle 1 — fits in a few megabytes.
//! A generator that builds its warp's op list up front fails this (the
//! twenty of them together took 142 MB); so does a step that is a whole
//! inner loop (ATTN stepped per query: 18 MB).
//!
//! One test, alone in its binary: the process's peak resident set is the
//! measurement, and another test's allocations would be counted in it.

use gcache_sim::isa::WarpProgram;
use gcache_workloads::{ml_registry, registry, Scale};

/// Peak resident set of this process so far, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib = line.split_whitespace().nth(1).expect("VmHWM value");
    kib.parse().expect("VmHWM in kB")
}

#[test]
fn a_launched_grid_holds_one_step_per_warp() {
    const LIMIT_KIB: u64 = 16 * 1024;
    let before = vm_hwm_kib();
    for bench in registry(Scale::Paper)
        .into_iter()
        .chain(ml_registry(Scale::Paper))
    {
        let grid = bench.grid();
        let mut resident: Vec<Box<dyn WarpProgram>> = Vec::new();
        for cta in 0..grid.ctas {
            for warp in 0..grid.warps_per_cta(32) {
                let mut program = bench.warp_program(cta, warp);
                assert!(program.next_op().is_some(), "{}", bench.info().name);
                resident.push(program);
            }
        }
        assert_eq!(
            resident.len(),
            512,
            "{}: paper-scale grid",
            bench.info().name
        );
        let grown = vm_hwm_kib() - before;
        assert!(
            grown < LIMIT_KIB,
            "peak RSS grew {grown} KiB by the time {}'s {} warps were launched (limit {LIMIT_KIB})",
            bench.info().name,
            resident.len(),
        );
    }
}
