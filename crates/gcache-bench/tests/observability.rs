//! Gates for the fleet observability plane (see `gcache_bench::obs`):
//!
//! * `observability_is_passive` — the sweep server's merged output is
//!   byte-identical with the structured logs + status endpoint enabled
//!   vs `--no-logs`, and the JSONL/heartbeat/status files land where
//!   DESIGN.md documents them (with the documented schema).
//! * `status_endpoint_serves_live_sweep` — the coordinator logs the
//!   bound endpoint at startup and serves `status.json` over plain HTTP
//!   *while the sweep runs*, and `404` for any other path (this is the
//!   status-endpoint smoke `check.sh` runs).
//! * `trace_out_round_trips` — `export_trace`'s Chrome `trace_event`
//!   JSON parses, its instant-event count matches the trace ring's
//!   contents for the same deterministic run, and the G-Cache
//!   switch-flip instants are present.
//!
//! The sweep scenarios drive the real binary
//! (`CARGO_BIN_EXE_sweep_server`), exactly like the kill-resume gate.

use gcache_bench::obs::http_get;
use gcache_core::json::Json;
use gcache_core::trace::TraceKind;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Grid flags shared by the sweep scenarios: 1 benchmark × 6 designs,
/// two worker processes, frequent checkpoints so heartbeats carry a
/// last-checkpoint cycle.
const GRID: &[&str] = &[
    "--quick",
    "--bench",
    "BFS",
    "--workers",
    "2",
    "--checkpoint-every",
    "2000",
];

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_sweep_server")
}

fn rundir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcache-obs-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_sweep(dir: &Path, extra: &[&str]) -> Output {
    Command::new(exe())
        .arg("--dir")
        .arg(dir)
        .args(GRID)
        .args(extra)
        .env_remove("GCACHE_SWEEP_FAULT")
        .output()
        .expect("spawn sweep_server")
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
fn observability_is_passive() {
    // Leg A: full observability — JSONL logs, heartbeats, status.json,
    // and the live endpoint.
    let dir_a = rundir("obs-on");
    let with_obs = run_sweep(&dir_a, &["--status-addr", "127.0.0.1:0"]);
    assert_ok(&with_obs, "sweep with observability");

    // Leg B: observability files disabled.
    let dir_b = rundir("obs-off");
    let without = run_sweep(&dir_b, &["--no-logs"]);
    assert_ok(&without, "sweep with --no-logs");

    // The simulated output must not change by a single byte.
    assert_eq!(
        with_obs.stdout, without.stdout,
        "stdout must be byte-identical with and without observability"
    );
    let merged_a = std::fs::read(dir_a.join("merged.tsv")).expect("merged.tsv (obs on)");
    let merged_b = std::fs::read(dir_b.join("merged.tsv")).expect("merged.tsv (obs off)");
    assert_eq!(merged_a, merged_b, "merged.tsv must be byte-identical");
    assert_eq!(merged_a, with_obs.stdout, "merged.tsv mirrors stdout");

    // The observability files land exactly where documented — and only
    // in the observed run.
    for f in [
        "logs/coordinator.jsonl",
        "logs/shard-0000.jsonl",
        "logs/shard-0001.jsonl",
        "logs/heartbeat-0000.json",
        "logs/heartbeat-0001.json",
        "status.json",
    ] {
        assert!(dir_a.join(f).is_file(), "missing {f} in observed run");
        assert!(!dir_b.join(f).exists(), "--no-logs run wrote {f}");
    }

    // Every log line is a JSON object with the stable schema prefix,
    // stamped with one shared run_id.
    let coord = std::fs::read_to_string(dir_a.join("logs/coordinator.jsonl")).unwrap();
    let shard0 = std::fs::read_to_string(dir_a.join("logs/shard-0000.jsonl")).unwrap();
    let run_id = Json::parse(coord.lines().next().expect("coordinator logged"))
        .expect("valid JSONL")
        .get("run_id")
        .and_then(Json::as_str)
        .expect("run_id present")
        .to_string();
    let mut events = Vec::new();
    for line in coord.lines().chain(shard0.lines()) {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
        for key in ["ts_ms", "elapsed_ms", "level", "run_id", "shard", "event"] {
            assert!(j.get(key).is_some(), "record missing '{key}': {line}");
        }
        assert_eq!(
            j.get("run_id").and_then(Json::as_str),
            Some(run_id.as_str()),
            "coordinator and workers share one run_id"
        );
        events.push(j.get("event").and_then(Json::as_str).unwrap().to_string());
    }
    for expected in [
        "run_start",
        "status_endpoint",
        "run_complete",
        "worker_start",
        "point_start",
        "point_done",
    ] {
        assert!(
            events.iter().any(|e| e == expected),
            "no '{expected}' event in logs; saw {events:?}"
        );
    }

    // The final status document reflects the completed fleet.
    let status = Json::parse(&std::fs::read_to_string(dir_a.join("status.json")).unwrap())
        .expect("status.json parses");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("complete"));
    assert_eq!(status.get("points_total").and_then(Json::as_f64), Some(6.0));
    assert_eq!(status.get("points_done").and_then(Json::as_f64), Some(6.0));
    let shards = status.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 2);
    for s in shards {
        assert_eq!(s.get("gave_up").and_then(Json::as_bool), Some(false));
        let hb = s.get("heartbeat").expect("heartbeat field");
        assert!(
            hb.get("done").and_then(Json::as_f64) == hb.get("total").and_then(Json::as_f64),
            "shard finished all its points: {hb:?}"
        );
    }
}

#[test]
fn status_endpoint_serves_live_sweep() {
    let dir = rundir("endpoint");
    let mut child = Command::new(exe())
        .arg("--dir")
        .arg(&dir)
        .args(GRID)
        .args(["--status-addr", "127.0.0.1:0"])
        .env_remove("GCACHE_SWEEP_FAULT")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sweep_server");

    // The coordinator logs the bound address before spawning workers;
    // read stderr until that record appears, then probe the endpoint
    // while the sweep is still running.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).expect("read stderr") > 0 {
        if let Ok(j) = Json::parse(line.trim()) {
            if j.get("event").and_then(Json::as_str) == Some("status_endpoint") {
                addr = j.get("addr").and_then(Json::as_str).map(str::to_string);
                break;
            }
        }
        line.clear();
    }
    let addr: std::net::SocketAddr = addr
        .expect("status_endpoint event logged at startup")
        .parse()
        .expect("loggable socket address");

    let (code, body) = http_get(addr, "/status.json").expect("GET /status.json");
    assert_eq!(code, 200);
    let status = Json::parse(&body).expect("live status.json parses");
    assert_eq!(status.get("points_total").and_then(Json::as_f64), Some(6.0));
    assert_eq!(status.get("workers").and_then(Json::as_f64), Some(2.0));
    assert!(status.get("run_id").and_then(Json::as_str).is_some());

    for other in ["/nope", "/metrics"] {
        let (code, _) = http_get(addr, other).expect("GET another path");
        assert_eq!(code, 404, "{other}");
    }

    // Drain the pipes so the child can't block, then require a clean
    // finish with the usual merged output.
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut stdout)
        .expect("drain stdout");
    let code = child.wait().expect("wait for sweep_server");
    assert!(code.success(), "sweep failed:\n{rest}");
    assert!(
        stdout.starts_with("index\tpoint\t"),
        "merged output still printed:\n{stdout}"
    );
}

/// `--no-logs` disables heartbeat files, so a missing heartbeat carries
/// no signal: combined with `--status-addr`, healthy shards must not be
/// flagged stale (regression: a 1 ms threshold used to mark every shard
/// stale and warn `shard_stale` because the absent heartbeat's age
/// defaulted to the coordinator's elapsed time).
#[test]
fn no_logs_with_status_endpoint_never_flags_stale() {
    let dir = rundir("no-logs-endpoint");
    let out = run_sweep(
        &dir,
        &[
            "--no-logs",
            "--status-addr",
            "127.0.0.1:0",
            "--stale-after-ms",
            "1",
        ],
    );
    assert_ok(&out, "sweep with --no-logs + --status-addr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("shard_stale"),
        "healthy shards flagged stale without heartbeat files:\n{stderr}"
    );
    assert!(
        stderr.contains("status_endpoint"),
        "endpoint still serves under --no-logs:\n{stderr}"
    );
    assert!(
        !dir.join("status.json").exists() && !dir.join("logs").exists(),
        "--no-logs run wrote observability files"
    );
}

#[test]
fn trace_out_round_trips() {
    let cli = gcache_bench::Cli {
        quick: true,
        only: vec!["BFS".into()],
        ..gcache_bench::Cli::default()
    };
    let path = std::env::temp_dir().join(format!("gcache-trace-rt-{}.json", std::process::id()));
    gcache_bench::export_trace(&path.to_string_lossy(), &cli.benchmarks(), true);

    let doc = Json::parse(&std::fs::read_to_string(&path).expect("trace file written"))
        .expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    let instants: Vec<&Json> = events.iter().filter(|e| phase(e) == "i").collect();
    let metadata = events.iter().filter(|e| phase(e) == "M").count();
    let spans = events.iter().filter(|e| phase(e) == "X").count();
    assert!(metadata > 0, "process/thread metadata present");
    assert_eq!(spans, 5, "one complete event per host profile stage");
    for e in &instants {
        assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
    }

    // Re-run the same deterministic point with the ring attached: the
    // exported instant events must match the ring's contents one for
    // one (nothing dropped at this scale), including the switch flips.
    let bench = cli.benchmarks().into_iter().next().expect("BFS selected");
    let (ring, profile) = gcache_bench::trace_gc_run(bench.as_ref(), true);
    assert_eq!(ring.dropped(), 0, "quick BFS fits the export ring");
    let ring_events = ring.events();
    assert_eq!(
        instants.len(),
        ring_events.len(),
        "exported instant events match the trace ring"
    );
    assert!(profile.is_some(), "profiler attached during export");

    let ring_flips = ring_events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::SwitchFlip { .. }))
        .count();
    let file_flips = instants
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("switch "))
        })
        .count();
    assert!(ring_flips >= 1, "quick BFS flips at least one switch");
    assert_eq!(file_flips, ring_flips, "switch flips survive the export");
    assert_eq!(
        doc.at(&["otherData", "dropped"]).and_then(Json::as_str),
        Some("0")
    );

    let _ = std::fs::remove_file(&path);
}
