//! The kill-safe sharded sweep server behind the `sweep_server` binary.
//!
//! A sweep is a deterministic grid of design points (benchmark × design ×
//! hierarchy × crossbar ports). The coordinator writes the grid's
//! manifest into a run directory, deals the points round-robin across
//! `--workers` **processes** — the process-level analogue of
//! [`parallel_map`]'s round-robin deal — and supervises them with one
//! thread per shard, over `parallel_map` itself. Each worker walks its
//! shard in submission order and, per point:
//!
//! * skips it when `results/NNNNN.result` already exists (completed on a
//!   previous attempt),
//! * otherwise resumes from `ckpt/NNNNN.<label-hash>.ckpt` when one
//!   matches the point's label, simulates with periodic checkpoints at
//!   the same cadence as `--checkpoint-every`, and
//! * publishes the finished point atomically (temp file + rename) before
//!   deleting its checkpoint.
//!
//! Every file the server writes is replaced atomically, and every
//! checkpoint embeds the point's label and the machine's configuration
//! fingerprint, so a `SIGKILL` — of a worker, or of the coordinator
//! itself — never corrupts the run directory. Re-running the same
//! command against the same directory picks up exactly where the sweep
//! died: completed points are skipped, in-flight points resume from
//! their latest snapshot, and the merged output (stdout and
//! `merged.tsv`) is byte-identical to an uninterrupted sweep. A killed
//! worker is respawned by the coordinator itself, up to
//! [`MAX_RESPAWNS`] times per shard.
//!
//! The run directory also survives *concurrent* duplicate writers (an
//! orphaned worker from a killed coordinator racing its respawned
//! replacement): temp names carry the writer PID, renames are atomic,
//! result bytes for a given point are identical no matter who computes
//! them, and a torn checkpoint is caught by its checksum and simply
//! re-simulated.
//!
//! [`parallel_map`]: crate::sweep::parallel_map

use crate::obs::{
    fresh_run_id, replace_atomic, status_path, unix_ms, FleetState, Heartbeat, HeartbeatWriter,
    Logger, RunState, ShardStatus, StatusPlane, StatusSnapshot,
};
use crate::sweep::{parallel_map, DesignPoint};
use crate::{
    designs, run_point_observed, CheckpointOpts, Cli, FlagDoc, PointEvent, RunOpts,
    DEFAULT_CHECKPOINT_EVERY,
};
use gcache_sim::config::Hierarchy;
use gcache_sim::stats::SimStats;
use gcache_workloads::Benchmark;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How many times the coordinator respawns one shard's worker process
/// before declaring the sweep failed. A deterministic crash (a panic in
/// the simulator) repeats on every respawn; the cap turns that into a
/// clean error instead of a crash loop.
pub const MAX_RESPAWNS: usize = 5;

/// Default `--stale-after-ms`: a worker whose heartbeat is older than
/// this while its shard still has work in flight is flagged stale (a
/// warning event plus a status gauge — detection only, never a kill).
const DEFAULT_STALE_AFTER_MS: u64 = 30_000;

/// First line of `manifest.txt`; bumped if the run-directory layout ever
/// changes incompatibly.
const MANIFEST_HEADER: &str = "gcache-sweep-server v1";

/// Environment variable carrying a fault-injection spec for the
/// kill-resume tests: `ckpt:N` makes a worker abort right after writing
/// its `N`-th checkpoint, `result:N` right before publishing its `N`-th
/// result. The coordinator forwards the spec to the *first* spawn of
/// shard 0 only, so the respawned replacement runs clean.
pub const FAULT_ENV: &str = "GCACHE_SWEEP_FAULT";

/// The flags of `sweep_server`'s own. `--shard` and `--run-id` are how
/// the coordinator addresses a worker process it spawns, not part of the
/// public interface.
const OWN_FLAGS: &[FlagDoc] = &[
    (
        "--dir RUNDIR",
        "run directory (required): manifest, per-point\n\
         checkpoints and results, and the final merged.tsv live\n\
         here. Re-running the same command against the same\n\
         directory resumes an interrupted sweep; the merged\n\
         output is byte-identical to an uninterrupted run",
    ),
    (
        "--workers N",
        "worker *processes* to shard the grid across (default:\n\
         the --jobs resolution order). The count may differ\n\
         between a run and its resumption",
    ),
    (
        "--status-addr ADDR",
        "serve live fleet status over HTTP on ADDR (e.g.\n\
         127.0.0.1:0; the bound port is logged at startup):\n\
         GET /status.json for the aggregated JSON document",
    ),
    (
        "--stale-after-ms N",
        "flag a shard stale when its heartbeat is older than N ms\n\
         while work is still in flight (default 30000; detection\n\
         only — a warning event plus a status gauge)",
    ),
    (
        "--no-logs",
        "disable the observability files (logs/*.jsonl,\n\
         heartbeats, status.json); structured records still go\n\
         to stderr, and stale-shard detection is off (there are\n\
         no heartbeats to age). The sweep output is\n\
         byte-identical either way",
    ),
    ("--shard INDEX", "(internal) run as this shard's worker"),
    ("--run-id ID", "(internal) the coordinator's run identity"),
];

/// The shared flags `sweep_server` honours: the grid selection, and
/// `--checkpoint-every` for the cadence of the checkpoints it always
/// takes into RUNDIR/ckpt (so `--checkpoint`/`--resume` do not apply).
const SHARED_FLAGS: &[&str] = &[
    "--quick",
    "--bench",
    "--jobs",
    "--hierarchy",
    "--cluster-ports",
    "--no-fast-forward",
    "--checkpoint-every",
];

/// The sweep grid in submission order: every benchmark of `benches` × the
/// six Figure 8 designs (SPDP-B pinned at PD 8 — a fixed grid, not the
/// per-benchmark oracle) × every hierarchy shape (default: flat) × the
/// crossbar-port axis on clustered shapes (default: 1 port). Built
/// deterministically from the command line, so the coordinator and each
/// worker process reconstruct the identical grid from the identical
/// flags.
fn grid<'a>(cli: &Cli, benches: &'a [Box<dyn Benchmark>]) -> Vec<DesignPoint<'a>> {
    let shapes = cli.shapes(&[Hierarchy::Flat], &[1]);
    let mut points = Vec::new();
    for bench in benches {
        for &(hierarchy, cluster_ports) in &shapes {
            points.extend(designs(8).into_iter().map(|policy| DesignPoint {
                hierarchy,
                cluster_ports,
                ..DesignPoint::flat(bench.as_ref(), policy)
            }));
        }
    }
    points
}

/// The manifest body: header, point count, then one `NNNNN label` line
/// per point in submission order.
fn manifest(points: &[DesignPoint<'_>]) -> String {
    let mut out = format!("{MANIFEST_HEADER}\npoints={}\n", points.len());
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "{i:05} {}", p.label(false));
    }
    out
}

/// Parsed `sweep_server` command line: the server-specific flags plus
/// the shared grid flags, and the raw argument list workers are
/// respawned with.
#[derive(Debug)]
pub struct ServerOpts {
    /// Run directory (`--dir`).
    pub dir: PathBuf,
    /// Worker-process count.
    pub workers: usize,
    /// Checkpoint cadence in cycles.
    pub every: u64,
    /// `Some(shard)` in a worker process (`--shard`, spawned by the
    /// coordinator — not part of the public interface).
    pub shard: Option<usize>,
    /// Listen address of the live status endpoint (`--status-addr`),
    /// coordinator-only.
    pub status_addr: Option<String>,
    /// Heartbeat staleness threshold (`--stale-after-ms`).
    pub stale_after_ms: u64,
    /// Disable the observability files (`--no-logs`); structured records
    /// still mirror to stderr.
    pub no_logs: bool,
    /// Run identity (`--run-id`, stamped onto worker spawns by the
    /// coordinator — not part of the public interface).
    pub run_id: Option<String>,
    /// Shared grid flags.
    pub cli: Cli,
    /// The original argument list (without `--shard`/`--run-id` and the
    /// coordinator-only status flags), re-issued to worker processes.
    passthrough: Vec<String>,
}

impl ServerOpts {
    /// Parses a `sweep_server` argument list (no program name).
    pub fn parse(args: Vec<String>) -> Result<ServerOpts, String> {
        let (mut dir, mut shard, mut workers) = (None, None, None);
        let (mut status_addr, mut run_id, mut no_logs) = (None, None, false);
        let mut stale_after_ms = DEFAULT_STALE_AFTER_MS;
        let cli = Cli::try_parse(
            "sweep_server",
            SHARED_FLAGS,
            OWN_FLAGS,
            args.into_iter(),
            |flag, v| {
                match flag {
                    "--dir" => dir = Some(v.string()?),
                    "--workers" => workers = Some(v.positive()?),
                    "--status-addr" => status_addr = Some(v.string()?),
                    "--stale-after-ms" => stale_after_ms = v.positive()?,
                    "--no-logs" => no_logs = true,
                    "--shard" => {
                        let s = v.string()?;
                        let index = s.parse::<usize>();
                        shard = Some(
                            index.map_err(|_| format!("--shard expects an index, got '{s}'"))?,
                        );
                    }
                    "--run-id" => run_id = Some(v.string()?),
                    other => unreachable!("{other} is not in OWN_FLAGS"),
                }
                Ok(())
            },
        )?;
        let dir: String = dir.ok_or("--dir RUNDIR is required (the sweep's state lives there)")?;
        // Worker-process count: `--workers`, falling back to the shared
        // `--jobs` resolution order.
        let workers = workers.unwrap_or_else(|| cli.jobs());
        // What a worker process is spawned with: the run directory, the
        // shared flags as given (so it rebuilds the identical grid at the
        // identical cadence) and the resolved worker count — the
        // round-robin deal must match between coordinator and workers
        // even when the coordinator's count came from the environment.
        // `--shard`/`--run-id` are added per spawn; the status flags are
        // the coordinator's alone.
        let mut passthrough = vec!["--dir".into(), dir.clone()];
        passthrough.extend(["--workers".to_string(), workers.to_string()]);
        if no_logs {
            passthrough.push("--no-logs".into());
        }
        passthrough.extend(cli.shared_args.iter().cloned());
        Ok(ServerOpts {
            dir: PathBuf::from(dir),
            workers,
            every: cli.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            shard,
            status_addr,
            stale_after_ms,
            no_logs,
            run_id,
            cli,
            passthrough,
        })
    }
}

/// The result file of point `i`.
fn result_path(dir: &Path, i: usize) -> PathBuf {
    dir.join("results").join(format!("{i:05}.result"))
}

/// The checkpoint stem of point `i`: its snapshots live in
/// `ckpt/NNNNN.<label-hash>.ckpt` (see [`CheckpointOpts`]).
fn ckpt_stem(dir: &Path, i: usize) -> String {
    dir.join("ckpt")
        .join(format!("{i:05}"))
        .display()
        .to_string()
}

/// Column header of the merged output (and, sans `index`/`point`, of
/// each result line's payload).
const RESULT_HEADER: &str =
    "index\tpoint\tcycles\tinstructions\tipc\tl1_miss_rate\tl1_bypass_ratio\tl15_miss_rate\n";

/// Renders one completed point as its result-file line. Fixed-precision
/// floats over deterministic simulation output: the bytes are identical
/// no matter which worker (or which attempt) computes them — the
/// property the merge's byte-identity guarantee rests on.
fn result_line(index: usize, label: &str, stats: &SimStats) -> String {
    format!(
        "{index:05}\t{label}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
        stats.cycles,
        stats.instructions,
        stats.ipc(),
        stats.l1_miss_rate(),
        stats.l1_bypass_ratio(),
        stats.l15_miss_rate(),
    )
}

/// The shard owning point `i` under a round-robin deal across `workers`
/// shards — the same deal [`parallel_map`] opens with.
fn owner(i: usize, workers: usize) -> usize {
    i % workers
}

/// Fault-injection spec parsed from [`FAULT_ENV`] (tests only).
enum Fault {
    /// Abort right after writing the `n`-th checkpoint.
    AfterCkpt(u64),
    /// Abort right before publishing the `n`-th result.
    BeforeResult(u64),
}

fn parse_fault() -> Option<Fault> {
    let spec = std::env::var(FAULT_ENV).ok()?;
    let (kind, n) = spec.split_once(':')?;
    let n: u64 = n.parse().ok()?;
    match kind {
        "ckpt" => Some(Fault::AfterCkpt(n)),
        "result" => Some(Fault::BeforeResult(n)),
        _ => None,
    }
}

/// Worker process: walks shard `shard`'s points in submission order,
/// resuming and checkpointing each through `RUNDIR/ckpt`, publishing
/// completed points into `RUNDIR/results`.
fn run_worker(
    opts: &ServerOpts,
    grid: &[DesignPoint<'_>],
    shard: usize,
    workers: usize,
) -> Result<(), String> {
    let run_id = opts.run_id.clone().unwrap_or_else(fresh_run_id);
    let logs = (!opts.no_logs).then_some(opts.dir.as_path());
    let log = Logger::new(logs, &run_id, Some(shard));
    let fault = parse_fault();
    let mine: Vec<usize> = (0..grid.len())
        .filter(|&i| owner(i, workers) == shard)
        .collect();
    let mut hb = HeartbeatWriter::new(logs, shard, mine.len());
    hb.beat();
    log.info("worker_start")
        .num("points", mine.len() as i64)
        .flag("fault_armed", fault.is_some())
        .emit();

    let mut ckpts_written: u64 = 0;
    let mut results_written: u64 = 0;
    for i in mine {
        let res = result_path(&opts.dir, i);
        if res.exists() {
            // Completed on a previous attempt.
            hb.hb.done += 1;
            hb.beat();
            continue;
        }
        let p = &grid[i];
        let label = p.label(false);
        // The server always checkpoints into and resumes from RUNDIR/ckpt.
        let stem = ckpt_stem(&opts.dir, i);
        let run_opts = RunOpts {
            checkpoint: Some(CheckpointOpts {
                write: Some(stem.clone()),
                every: opts.every,
                resume: Some(stem),
            }),
            ..opts.cli.run_opts()
        };

        let point_start = Instant::now();
        hb.hb.current_index = Some(i);
        hb.hb.current_label = label.clone();
        hb.hb.last_ckpt_cycle = 0;
        hb.beat();
        log.info("point_start")
            .num("index", i as i64)
            .str_field("point_label", &label)
            .emit();

        let abort = |what: &str, n: u64| -> ! {
            log.error("fault_abort")
                .num("index", i as i64)
                .num("nth", n as i64)
                .msg(format!("fault injection: abort {what} {n}"))
                .emit();
            std::process::abort()
        };
        let mut observe = |event: PointEvent<'_>| -> Result<(), String> {
            match event {
                PointEvent::Resumed { cycle, .. } => {
                    hb.hb.last_ckpt_cycle = cycle;
                    hb.beat();
                    log.info("point_resume")
                        .num("index", i as i64)
                        .str_field("point_label", &label)
                        .num("cycle", cycle as i64)
                        .msg(format!("resuming {i:05} ({label}) from cycle {cycle}"))
                        .emit();
                }
                PointEvent::CheckpointIgnored { reason, .. } => log
                    .warn("ckpt_ignored")
                    .num("index", i as i64)
                    .msg(format!("ignoring checkpoint {i:05}: {reason}"))
                    .emit(),
                PointEvent::Checkpointed { cycle } => {
                    ckpts_written += 1;
                    hb.hb.last_ckpt_cycle = cycle;
                    hb.beat();
                    if matches!(fault, Some(Fault::AfterCkpt(n)) if ckpts_written == n) {
                        abort("after checkpoint", ckpts_written);
                    }
                }
                // Publish before the checkpoint goes away: a kill in
                // between re-reaches completion from the last snapshot.
                PointEvent::Finished { stats } => {
                    if matches!(fault, Some(Fault::BeforeResult(n)) if results_written + 1 == n) {
                        abort("before result", results_written + 1);
                    }
                    replace_atomic(&res, result_line(i, &label, stats).as_bytes())
                        .map_err(|e| format!("cannot publish {}: {e}", res.display()))?;
                    results_written += 1;
                }
            }
            Ok(())
        };
        let (stats, _) = run_point_observed(p.config(), p.bench, &label, &run_opts, &mut observe)
            .map_err(|e| format!("point {i:05}: {e}"))?;

        hb.hb.done += 1;
        hb.hb.current_index = None;
        hb.hb.current_label.clear();
        hb.beat();
        log.info("point_done")
            .num("index", i as i64)
            .str_field("point_label", &label)
            .num("cycles", stats.cycles as i64)
            .float("point_ms", point_start.elapsed().as_secs_f64() * 1e3)
            .msg(format!("{i:05} ({label}) done"))
            .emit();
    }
    log.info("worker_done")
        .num("results_written", results_written as i64)
        .num("ckpts_written", ckpts_written as i64)
        .emit();
    Ok(())
}

/// Spawns and supervises shard `shard`'s worker process, respawning it
/// on any abnormal exit (a `SIGKILL`ed worker included), up to
/// [`MAX_RESPAWNS`] times. `fault` is forwarded only to the first spawn
/// of shard 0 — see [`FAULT_ENV`].
fn supervise(
    opts: &ServerOpts,
    shard: usize,
    fault: Option<&str>,
    run_id: &str,
    log: &Logger,
    fleet: &FleetState,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    for attempt in 0..=MAX_RESPAWNS {
        let mut cmd = Command::new(&exe);
        cmd.args(&opts.passthrough)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--run-id")
            .arg(run_id)
            .env_remove(FAULT_ENV);
        if let (0, 0, Some(spec)) = (shard, attempt, fault) {
            cmd.env(FAULT_ENV, spec);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot spawn worker {shard}: {e}"))?;
        if status.success() {
            return Ok(());
        }
        fleet.respawns[shard].fetch_add(1, Ordering::Relaxed);
        log.warn("worker_respawn")
            .num("worker", shard as i64)
            .num("attempt", (attempt + 1) as i64)
            .num("max_respawns", MAX_RESPAWNS as i64)
            .str_field("exit", &status.to_string())
            .msg(format!(
                "worker {shard} died ({status}); respawn {}/{MAX_RESPAWNS}",
                attempt + 1
            ))
            .emit();
    }
    fleet.gave_up[shard].store(true, Ordering::Relaxed);
    log.error("worker_gave_up")
        .num("worker", shard as i64)
        .num("attempts", (MAX_RESPAWNS + 1) as i64)
        .msg(format!(
            "worker {shard} failed {} times; giving up",
            MAX_RESPAWNS + 1
        ))
        .emit();
    Err(format!(
        "worker {shard} failed {} times; giving up",
        MAX_RESPAWNS + 1
    ))
}

/// Reads every result file in submission order and renders the merged
/// document. Errors on a missing file or on a line that does not open
/// with the expected `index\tlabel\t` prefix (a stale or foreign run
/// directory).
fn merge(dir: &Path, grid: &[DesignPoint<'_>]) -> Result<String, String> {
    let mut out = String::from(RESULT_HEADER);
    for (i, p) in grid.iter().enumerate() {
        let path = result_path(dir, i);
        let line = std::fs::read_to_string(&path)
            .map_err(|e| format!("missing result {}: {e}", path.display()))?;
        let want = format!("{i:05}\t{}\t", p.label(false));
        if !line.starts_with(&want) {
            return Err(format!(
                "{} does not match the manifest (expected prefix '{want}')",
                path.display()
            ));
        }
        out.push_str(&line);
    }
    Ok(out)
}

/// Coordinator process: prepares the run directory, deals the grid
/// across worker processes, supervises them, and — once every point has
/// published — merges the results in submission order to `merged.tsv`
/// and stdout.
fn run_coordinator(
    opts: &ServerOpts,
    grid: &[DesignPoint<'_>],
    workers: usize,
) -> Result<(), String> {
    if grid.is_empty() {
        return Err("the grid is empty (no benchmark matched)".into());
    }
    std::fs::create_dir_all(opts.dir.join("results"))
        .and_then(|()| std::fs::create_dir_all(opts.dir.join("ckpt")))
        .map_err(|e| format!("cannot prepare {}: {e}", opts.dir.display()))?;

    let run_id = opts.run_id.clone().unwrap_or_else(fresh_run_id);
    let logs = (!opts.no_logs).then_some(opts.dir.as_path());
    let log = Arc::new(Logger::new(logs, &run_id, None));

    // The manifest pins the grid to the directory: resuming with
    // different flags (a different grid) must fail loudly instead of
    // merging unrelated results.
    let manifest = manifest(grid);
    let mpath = opts.dir.join("manifest.txt");
    let mut resumed = false;
    match std::fs::read_to_string(&mpath) {
        Ok(prev) if prev != manifest => {
            return Err(format!(
                "{} belongs to a different sweep (manifest mismatch); \
                 use a fresh --dir or re-run with the original flags",
                opts.dir.display()
            ));
        }
        Ok(_) => {
            resumed = true;
            log.info("sweep_resume")
                .msg(format!("resuming sweep in {}", opts.dir.display()))
                .emit();
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            replace_atomic(&mpath, manifest.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", mpath.display()))?;
        }
        Err(e) => return Err(format!("cannot read {}: {e}", mpath.display())),
    }

    let done = (0..grid.len())
        .filter(|&i| result_path(&opts.dir, i).exists())
        .count();
    // The fault spec (tests only) is consumed here so the respawned
    // replacement of a deliberately killed worker runs clean.
    let fault = std::env::var(FAULT_ENV).ok();
    log.info("run_start")
        .num("points", grid.len() as i64)
        .num("already_done", done as i64)
        .num("workers", workers as i64)
        .num("checkpoint_every", opts.every as i64)
        .flag("resumed", resumed)
        .msg(format!(
            "{} points ({done} already complete), {workers} worker processes, \
             checkpoint every {} cycles",
            grid.len(),
            opts.every
        ))
        .emit();
    if let Some(spec) = &fault {
        log.warn("fault_armed")
            .str_field("spec", spec)
            .msg(format!(
                "fault injection armed: {spec} (first spawn of shard 0)"
            ))
            .emit();
    }

    let fleet = Arc::new(FleetState::new(workers, fault.clone()));
    let plane = start_status_plane(opts, grid.len(), done, workers, &run_id, &log, &fleet)?;
    if let Some(addr) = plane.as_ref().and_then(|plane| plane.addr) {
        log.info("status_endpoint")
            .str_field("addr", &addr.to_string())
            .msg(format!(
                "status endpoint listening on http://{addr}/status.json"
            ))
            .emit();
    }

    if done < grid.len() {
        // One supervisor thread per shard, over the sweep engine's own
        // fan-out.
        let shards: Vec<usize> = (0..workers).collect();
        let outcomes = parallel_map(&shards, workers, |&shard| {
            supervise(opts, shard, fault.as_deref(), &run_id, &log, &fleet)
        });
        let failures: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
        if !failures.is_empty() {
            fleet.set_state(RunState::Failed);
            return Err(failures.join("; "));
        }
    }

    fleet.set_state(RunState::Merging);
    let merged = merge(&opts.dir, grid)?;
    let out = opts.dir.join("merged.tsv");
    replace_atomic(&out, merged.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    fleet.set_state(RunState::Complete);
    log.info("run_complete")
        .num("points", grid.len() as i64)
        .msg(format!(
            "merged {} results into {}",
            grid.len(),
            out.display()
        ))
        .emit();
    // The final snapshot (`complete`) is published before the output.
    drop(plane);
    print!("{merged}");
    Ok(())
}

/// Starts the coordinator's status plane: periodic aggregation of the
/// worker heartbeats plus the coordinator-owned fleet bookkeeping into
/// `status.json` (skipped under `--no-logs`) and the optional live
/// endpoint. Returns `None` when there is nothing to publish at all.
/// `done_at_start` points were complete before this coordinator started.
/// Stale shards are detected here, on each aggregation pass, and logged
/// once per stale episode.
fn start_status_plane(
    opts: &ServerOpts,
    points_total: usize,
    done_at_start: usize,
    workers: usize,
    run_id: &str,
    log: &Arc<Logger>,
    fleet: &Arc<FleetState>,
) -> Result<Option<StatusPlane>, String> {
    if opts.no_logs && opts.status_addr.is_none() {
        return Ok(None);
    }
    let dir = opts.dir.clone();
    let run_id = run_id.to_string();
    let stale_after_ms = opts.stale_after_ms;
    // Under --no-logs the workers write no heartbeat files at all, so a
    // missing/old heartbeat carries no signal — staleness detection
    // would flag every healthy shard, and a file left by an earlier
    // logged attempt would pass for live progress. Keep the plane
    // (endpoint, counts) but read no heartbeats.
    let heartbeats_enabled = !opts.no_logs;
    let log = Arc::clone(log);
    let fleet = Arc::clone(fleet);
    let start = Instant::now();
    let mut warned = vec![false; workers];
    let make = move || {
        let state = *fleet.state.lock().unwrap();
        let running = state == RunState::Running;
        let elapsed_ms = start.elapsed().as_millis() as u64;
        let now = unix_ms();
        let points_done = (0..points_total)
            .filter(|&i| result_path(&dir, i).exists())
            .count();
        let shards: Vec<ShardStatus> = (0..workers)
            .map(|s| {
                let heartbeat = heartbeats_enabled
                    .then(|| Heartbeat::read(&dir, s))
                    .flatten();
                let age_ms = heartbeat
                    .as_ref()
                    .map(|hb| now.saturating_sub(hb.updated_ms));
                let complete = heartbeat.as_ref().is_some_and(|hb| hb.done >= hb.total);
                let stale = heartbeats_enabled
                    && running
                    && !complete
                    && age_ms.unwrap_or(elapsed_ms) > stale_after_ms;
                if stale && !warned[s] {
                    warned[s] = true;
                    log.warn("shard_stale")
                        .num("worker", s as i64)
                        .num("age_ms", age_ms.unwrap_or(elapsed_ms) as i64)
                        .num("stale_after_ms", stale_after_ms as i64)
                        .msg(format!(
                            "worker {s} heartbeat is stale ({} ms old; threshold {stale_after_ms})",
                            age_ms.unwrap_or(elapsed_ms)
                        ))
                        .emit();
                } else if !stale {
                    warned[s] = false;
                }
                ShardStatus {
                    heartbeat,
                    respawns: fleet.respawns[s].load(Ordering::Relaxed),
                    gave_up: fleet.gave_up[s].load(Ordering::Relaxed),
                    age_ms,
                    stale,
                }
            })
            .collect();
        StatusSnapshot {
            run_id: run_id.clone(),
            state,
            points_total,
            points_done,
            workers,
            elapsed_ms,
            eta_ms: eta_ms(elapsed_ms, done_at_start, points_done, points_total),
            stale_after_ms,
            fault: fleet.fault.clone(),
            shards,
        }
    };
    let status_file = (!opts.no_logs).then(|| status_path(&opts.dir));
    StatusPlane::start(opts.status_addr.as_deref(), status_file, make).map(Some)
}

/// The time still to go, at the pace of the points this coordinator has
/// finished itself: points found complete at start (`done_at_start`)
/// took none of its `elapsed_ms`. `None` until one of its own lands, and
/// once the sweep is done.
fn eta_ms(
    elapsed_ms: u64,
    done_at_start: usize,
    points_done: usize,
    points_total: usize,
) -> Option<u64> {
    let finished_here = points_done.saturating_sub(done_at_start) as u64;
    (finished_here > 0 && points_done < points_total)
        .then(|| elapsed_ms * (points_total - points_done) as u64 / finished_here)
}

/// Runs the sweep server with parsed options: as coordinator, or — when
/// spawned with `--shard` — as one worker process.
pub fn run(opts: &ServerOpts) -> Result<(), String> {
    let benches = opts.cli.benchmarks();
    let grid = grid(&opts.cli, &benches);
    // Clamped identically in the coordinator and in every worker (both
    // see the same pinned `--jobs` and the same grid), so the deal and
    // the supervised shard set always agree.
    let workers = opts.workers.clamp(1, grid.len().max(1));
    match opts.shard {
        Some(shard) => run_worker(opts, &grid, shard, workers),
        None => run_coordinator(opts, &grid, workers),
    }
}

/// Prints a `sweep_server` usage failure and exits with status 2.
pub fn usage_exit(err: &str) -> ! {
    crate::usage_exit(err, &crate::usage("sweep_server", SHARED_FLAGS, OWN_FLAGS))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        let args = args.iter().map(|s| s.to_string());
        Cli::try_parse("sweep_server", SHARED_FLAGS, &[], args, |_, _| Ok(())).expect("valid flags")
    }

    #[test]
    fn grid_is_deterministic_and_label_stable() {
        let c = cli(&["--quick", "--bench", "BFS,STL"]);
        let benches = c.benchmarks();
        let a = grid(&c, &benches);
        let b = grid(&c, &benches);
        assert_eq!(a.len(), 2 * 6, "2 benches x 6 designs");
        assert_eq!(manifest(&a), manifest(&b));
        let label = |i: usize| a[i].label(false);
        assert!(label(0).starts_with("BFS|"), "got: {}", label(0));
        // The six designs of one bench precede the next bench.
        assert!(label(6).starts_with("STL|"), "got: {}", label(6));
    }

    #[test]
    fn grid_ports_axis_applies_to_clustered_shapes_only() {
        let c = cli(&[
            "--quick",
            "--bench",
            "BFS",
            "--hierarchy",
            "flat,c4",
            "--cluster-ports",
            "1,2",
        ]);
        let benches = c.benchmarks();
        let g = grid(&c, &benches);
        // flat: 1 port; c4: 2 port counts — (1 + 2) x 6 designs.
        assert_eq!(g.len(), 18);
    }

    #[test]
    fn round_robin_deal_covers_every_point_once() {
        let workers = 3;
        let mut seen = [0u32; 10];
        for shard in 0..workers {
            for i in (0..10).filter(|&i| owner(i, workers) == shard) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn server_opts_parse_extracts_server_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = ServerOpts::parse(args(&[
            "--dir",
            "/tmp/x",
            "--quick",
            "--checkpoint-every",
            "500",
        ]))
        .expect("parses");
        assert_eq!(o.dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.every, 500);
        assert!(o.shard.is_none());
        assert!(o.cli.quick);
        // Workers rebuild the identical grid from the passthrough.
        assert!(o.passthrough.contains(&"--quick".to_string()));
        assert!(!o.passthrough.contains(&"--shard".to_string()));

        let o = ServerOpts::parse(args(&["--dir", "/tmp/x", "--workers", "7"])).expect("parses");
        assert_eq!(o.workers, 7);
        assert!(
            o.passthrough
                .windows(2)
                .any(|w| w[0] == "--workers" && w[1] == "7"),
            "worker count must be pinned for respawned workers: {:?}",
            o.passthrough
        );

        let err = ServerOpts::parse(args(&["--quick"])).unwrap_err();
        assert!(err.contains("--dir"), "got: {err}");
        // The server always checkpoints into RUNDIR/ckpt and samples
        // nothing: flags it would have to ignore are errors.
        for flag in ["--checkpoint", "--resume", "--telemetry", "--trace-out"] {
            let err = ServerOpts::parse(args(&["--dir", "d", flag, "x"])).unwrap_err();
            assert!(
                err.contains("sweep_server") && err.contains(flag),
                "got: {err}"
            );
        }
        let err = ServerOpts::parse(args(&["--dir", "d", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers expects a positive"), "got: {err}");
        let err = ServerOpts::parse(args(&["--dir", "d", "--shard", "zero"])).unwrap_err();
        assert!(err.contains("--shard"), "got: {err}");
    }

    #[test]
    fn eta_counts_only_this_runs_points() {
        // Fresh: 10 of 100 done in 1 s leaves 9 s.
        assert_eq!(eta_ms(1000, 0, 10, 100), Some(9000));
        // Resumed at 90 of 100: the earlier attempt's 90 took none of
        // this second, so nothing is known until one of this run lands,
        // and then the pace is one point per second.
        assert_eq!(eta_ms(1000, 90, 90, 100), None);
        assert_eq!(eta_ms(1000, 90, 91, 100), Some(9000));
        assert_eq!(eta_ms(1000, 90, 100, 100), None, "done");
    }

    #[test]
    fn no_logs_plane_reads_no_heartbeat() {
        use crate::obs::http_get;
        let dir = std::env::temp_dir().join(format!("gcache-server-{}-hb", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // What an earlier, logged attempt left behind.
        let mut old = HeartbeatWriter::new(Some(&dir), 0, 6);
        old.hb.done = 3;
        old.beat();

        let served = |extra: &[&str]| {
            let mut args = vec![
                "--dir",
                dir.to_str().unwrap(),
                "--status-addr",
                "127.0.0.1:0",
            ];
            args.extend(extra);
            let opts = ServerOpts::parse(args.iter().map(|s| s.to_string()).collect()).unwrap();
            let log = Arc::new(Logger::new(None, "r", None));
            let fleet = Arc::new(FleetState::new(1, None));
            let plane = start_status_plane(&opts, 6, 0, 1, "r", &log, &fleet)
                .unwrap()
                .expect("a plane with an endpoint");
            let (code, body) = http_get(plane.addr.unwrap(), "/status.json").unwrap();
            assert_eq!(code, 200);
            body
        };
        assert!(served(&[]).contains(r#""heartbeat":{"shard":0"#));
        let body = served(&["--no-logs"]);
        assert!(body.contains(r#""heartbeat":null"#), "got: {body}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_round_trips_through_merge_prefix_check() {
        let mut s = SimStats::new("BFS", "GC");
        s.cycles = 1000;
        s.instructions = 500;
        let line = result_line(7, "BFS|Lru|kb=None|Flat|ports=1|sampled=false", &s);
        assert!(line.starts_with("00007\tBFS|Lru|"), "got: {line}");
        assert!(line.ends_with('\n'));
        assert_eq!(line.split('\t').count(), 8, "got: {line}");
    }
}
