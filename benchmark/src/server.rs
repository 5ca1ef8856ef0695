//! Runs the `sweep_server` binary from outside: fresh run directory,
//! `--quick`, logs and the status endpoint on; watches the logs for the
//! first `point_start` (set-up) and the workers' peak RSS, and reads
//! `merged.tsv` and the `point_ms` records back.

use gcache_core::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Worker processes of a timed run: one, so the run keeps one thread
/// busy like every other workload. With two on a 2-thread shared host
/// the runs measured the scheduler (README.md has the numbers).
pub const WORKERS: usize = 1;
/// The kernels a timed rep sweeps, one server run each, under all six
/// designs: three cache-sensitive and two streaming ones, ≈ 1.6 s
/// together at [`CADENCE`], so a run of the benchmark holds several reps
/// and no server run is far from a calibration loop.
pub const KERNELS: [&str; 5] = ["BFS", "SPMV", "IIX", "SD1", "STL"];
/// Checkpoint cadence of the measured runs, in cycles: low enough that
/// snapshots and checkpoint I/O are more than half of the work.
pub const CADENCE: u64 = 1200;
/// How strongly the server's CPU time follows the calibration loops on
/// either side of it. More than half of this workload is serialising
/// snapshots and writing checkpoint files, which the host's slow phases
/// hit far less than the allocation-heavy loop: over 228 reps the loop's
/// cost ranged from 0.8 to 4.9 times its nominal and a rep's CPU time by
/// ±4.6 %; over runs of seven reps the coefficient of variation of the
/// median of `cpu / loop^e` was smallest at e ≈ 0.5 (2.3 %; 3.8 % at
/// e = 0, 4.0 % at e = 1, which over-corrects).
pub const CAL_ELASTICITY: f64 = 0.5;
/// Rows the whole quick grid's `merged.tsv` must hold.
pub const GRID_POINTS: usize = 102;

/// What one server run produced.
#[derive(Clone, Debug)]
pub struct ServerRun {
    /// Wall time of the server process, ns.
    pub wall_ns: f64,
    /// CPU time, user + system, of the coordinator and its workers, ns.
    pub cpu_ns: f64,
    /// Spawn until the first `point_start` log record, ns.
    pub setup_ns: f64,
    /// Largest `VmHWM` seen among the coordinator and its workers, MB.
    pub peak_rss_mb: f64,
    /// `merged.tsv`, byte for byte.
    pub merged: String,
    /// `(cycles, instructions)` per merged row, in row order.
    pub rows: Vec<(u64, u64)>,
    /// Sum of the workers' logged `point_ms`.
    pub point_ms_sum: f64,
    /// Worker respawns the coordinator logged.
    pub respawns: u64,
    /// Worker processes the run was sharded across.
    pub workers: usize,
}

impl ServerRun {
    /// This run followed by `next`: times and counts add up, `next`'s
    /// rows follow this run's.
    pub fn then(mut self, next: ServerRun) -> ServerRun {
        self.wall_ns += next.wall_ns;
        self.cpu_ns += next.cpu_ns;
        self.peak_rss_mb = self.peak_rss_mb.max(next.peak_rss_mb);
        self.merged
            .extend(next.merged.split_inclusive('\n').skip(1));
        self.rows.extend(next.rows);
        self.point_ms_sum += next.point_ms_sum;
        self.respawns += next.respawns;
        self
    }
}

/// The `sweep_server` binary next to this executable (both are built
/// into the same target directory by `run.sh`).
pub fn binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("sweep_server");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with benchmark/run.sh",
            path.display()
        ))
    }
}

/// `VmHWM` of process `pid` in MB (0 when it cannot be read).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let kb = || -> Option<f64> {
        let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    kb().unwrap_or(0.0) / 1024.0
}

/// CPU time, user + system, of every child process this one has waited
/// for so far, and of theirs, in ns (0 when it cannot be read): `cutime`
/// + `cstime` of `/proc/self/stat`, which Linux reports in ticks of 10 ms.
fn children_cpu_ns() -> f64 {
    let ticks = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields 16 and 17; the first two end at the last ')'.
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(13);
        Some(fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?)
    };
    ticks().unwrap_or(0) as f64 * 1e7
}

fn shard_logs(dir: &Path, workers: usize) -> Vec<PathBuf> {
    (0..workers)
        .map(|s| dir.join(format!("logs/shard-{s:04}.jsonl")))
        .collect()
}

fn worker_pids(dir: &Path, workers: usize) -> Vec<u32> {
    (0..workers)
        .filter_map(|s| {
            let text =
                std::fs::read_to_string(dir.join(format!("logs/heartbeat-{s:04}.json"))).ok()?;
            let pid = Json::parse(&text).ok()?.get("pid")?.as_f64()?;
            Some(pid as u32)
        })
        .collect()
}

/// Runs the server to completion in the fresh directory `dir` on the
/// whole quick grid, or on the kernels `bench` names (comma-separated),
/// sharded across `workers` processes, with the given checkpoint cadence
/// (`None` = the server's default). The caller only sleeps and reads
/// `/proc` while the server runs.
///
/// # Errors
///
/// A description of what went wrong: the binary is missing, the server
/// exited non-zero, or an output file is absent or malformed.
pub fn run(
    dir: &Path,
    bench: Option<&str>,
    workers: usize,
    cadence: Option<u64>,
) -> Result<ServerRun, String> {
    let bin = binary()?;
    let _ = std::fs::remove_dir_all(dir);
    let mut cmd = Command::new(bin);
    cmd.arg("--dir")
        .arg(dir)
        .args(["--quick", "--workers", &workers.to_string()])
        .args(["--status-addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(every) = cadence {
        cmd.args(["--checkpoint-every", &every.to_string()]);
    }
    if let Some(name) = bench {
        cmd.args(["--bench", name]);
    }
    let cpu0 = children_cpu_ns();
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn sweep_server: {e}"))?;

    // Watch from outside until the server exits: tightly until the first
    // point starts (set-up), then every 25 ms for the workers' VmHWM.
    let logs = shard_logs(dir, workers);
    let mut setup_ns = None;
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if setup_ns.is_none() {
            let started = logs.iter().any(|p| {
                std::fs::read_to_string(p).is_ok_and(|t| t.contains("\"event\":\"point_start\""))
            });
            if started {
                setup_ns = Some(t0.elapsed().as_nanos() as f64);
            }
            std::thread::sleep(Duration::from_micros(200));
        } else {
            for pid in worker_pids(dir, workers).into_iter().chain([child.id()]) {
                peak = peak.max(peak_rss_mb(pid));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let cpu_ns = children_cpu_ns() - cpu0;
    if !status.success() {
        return Err(format!("sweep_server exited with {status}"));
    }

    let merged =
        std::fs::read_to_string(dir.join("merged.tsv")).map_err(|e| format!("merged.tsv: {e}"))?;
    let rows = merged
        .lines()
        .skip(1)
        .map(|row| {
            let mut cols = row.split('\t').skip(2);
            let mut num = || cols.next()?.parse::<u64>().ok();
            Some((num()?, num()?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("merged.tsv: malformed row")?;

    let mut point_ms_sum = 0.0;
    for log in &logs {
        let text = std::fs::read_to_string(log).map_err(|e| format!("{}: {e}", log.display()))?;
        for line in text.lines() {
            let record = Json::parse(line).map_err(|e| format!("{}: {e}", log.display()))?;
            if let Some(ms) = record.get("point_ms").and_then(Json::as_f64) {
                point_ms_sum += ms;
            }
        }
    }
    let coordinator = std::fs::read_to_string(dir.join("logs/coordinator.jsonl"))
        .map_err(|e| format!("coordinator.jsonl: {e}"))?;
    let respawns = coordinator
        .lines()
        .filter(|l| l.contains("\"event\":\"worker_respawn\""))
        .count() as u64;

    Ok(ServerRun {
        wall_ns,
        cpu_ns,
        setup_ns: setup_ns.ok_or("no point_start record was logged")?,
        peak_rss_mb: peak,
        merged,
        rows,
        point_ms_sum,
        respawns,
        workers,
    })
}

/// `1 − Σ point_ms ÷ workers ÷ server wall`: the share of the server's
/// wall time not spent inside a worker's design point.
pub fn coord_overhead(run: &ServerRun) -> f64 {
    1.0 - run.point_ms_sum * 1e6 / run.workers as f64 / run.wall_ns
}
