//! The fleet observability plane of the sweep server: structured JSONL
//! logging, per-shard heartbeats, aggregated status, and a std-only
//! status endpoint.
//!
//! Everything here is *provably passive*: the plane only ever appends to
//! `RUNDIR/logs/`, replaces `RUNDIR/status.json` atomically, and serves
//! read-only snapshots over TCP — the sweep's merged output is
//! byte-identical with the plane enabled or disabled (the
//! `observability_passive` integration test gates exactly that).
//!
//! Layout inside a run directory:
//!
//! | Path | Writer | Contents |
//! |---|---|---|
//! | `logs/coordinator.jsonl` | coordinator | levelled JSONL event log |
//! | `logs/shard-NNNN.jsonl` | worker `NNNN` | levelled JSONL event log |
//! | `logs/heartbeat-NNNN.json` | worker `NNNN` | latest progress record (atomic replace) |
//! | `status.json` | coordinator | aggregated fleet status (atomic replace) |
//!
//! Log records are one JSON object per line with a stable key order:
//! `ts_ms`, `elapsed_ms`, `level`, `run_id`, `shard` (`null` in the
//! coordinator), `event`, then event-specific fields, then an optional
//! human-readable `msg`. Every record is mirrored to stderr, so the
//! pre-existing "watch the stderr stream" workflow (and the kill-resume
//! smoke's greps) keep working unchanged.
//!
//! The status endpoint ([`StatusPlane`]) binds a plain
//! [`std::net::TcpListener`] (no HTTP library — the repo is offline and
//! dependency-free) and answers `GET /metrics` with a Prometheus-style
//! text exposition and `GET /` or `GET /status.json` with the same JSON
//! document written to `status.json`.

use gcache_core::json::{escape, Json};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (wall clock; observability only —
/// nothing simulated ever reads it).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A run identity shared by the coordinator and every worker it spawns:
/// start time plus coordinator PID, unique enough to correlate the log
/// files of one invocation (a resumed sweep gets a fresh `run_id`; the
/// logs append, so the directory keeps the full history).
pub fn fresh_run_id() -> String {
    format!("{:012x}-{:05}", unix_ms(), std::process::id())
}

/// The coordinator's JSONL log inside a run directory.
pub fn coordinator_log_path(dir: &Path) -> PathBuf {
    dir.join("logs").join("coordinator.jsonl")
}

/// Worker `shard`'s JSONL log inside a run directory.
pub fn shard_log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("logs").join(format!("shard-{shard:04}.jsonl"))
}

/// Worker `shard`'s heartbeat record inside a run directory.
pub fn heartbeat_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("logs").join(format!("heartbeat-{shard:04}.json"))
}

/// The aggregated status document inside a run directory.
pub fn status_path(dir: &Path) -> PathBuf {
    dir.join("status.json")
}

/// Atomically replaces `path` with `body` (PID-suffixed temp + rename):
/// a reader never observes a torn file, a kill mid-write leaves the
/// previous contents intact, and concurrent writers (an orphaned worker
/// racing its replacement) never tear each other. Every file the harness
/// rewrites in place — status, heartbeats, results, manifests,
/// checkpoints — goes through here. The directory must exist: a
/// `--checkpoint` stem in a directory that does not is an error, not
/// something to paper over on every write.
pub fn replace_atomic(path: &Path, body: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_name().expect("non-empty file name").to_owned();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Log severity. There is deliberately no runtime filtering: a sweep's
/// log volume is bounded by its point count, and post-hoc filtering of
/// JSONL (`grep '"level":"warn"'`) beats losing records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// High-volume progress detail.
    Debug,
    /// Normal lifecycle events.
    Info,
    /// Something odd but survivable (stale shard, ignored checkpoint).
    Warn,
    /// The sweep is in trouble (respawn budget exhausted).
    Error,
}

impl Level {
    /// The stable lower-case name emitted in records.
    pub const fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A levelled JSONL event logger: one per process, writing the
/// coordinator or shard log file (append-only) and mirroring every
/// record to stderr. Construction never fails the sweep — if the log
/// file cannot be opened the logger degrades to stderr-only with a
/// warning.
#[derive(Debug)]
pub struct Logger {
    file: Option<Mutex<std::fs::File>>,
    run_id: String,
    /// `Some(shard)` in a worker process, `None` in the coordinator.
    shard: Option<usize>,
    start: Instant,
}

impl Logger {
    fn open(path: Option<&Path>, run_id: &str, shard: Option<usize>) -> Logger {
        let file = path.and_then(|path| {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)
            {
                Ok(f) => Some(Mutex::new(f)),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open log file {} ({e}); logging to stderr only",
                        path.display()
                    );
                    None
                }
            }
        });
        Logger {
            file,
            run_id: run_id.to_string(),
            shard,
            start: Instant::now(),
        }
    }

    /// The coordinator's logger (`logs/coordinator.jsonl`).
    pub fn coordinator(dir: &Path, run_id: &str) -> Logger {
        Logger::open(Some(&coordinator_log_path(dir)), run_id, None)
    }

    /// Worker `shard`'s logger (`logs/shard-NNNN.jsonl`).
    pub fn shard(dir: &Path, run_id: &str, shard: usize) -> Logger {
        Logger::open(Some(&shard_log_path(dir, shard)), run_id, Some(shard))
    }

    /// A stderr-only logger (`--no-logs`): records keep their structure,
    /// nothing is written into the run directory.
    pub fn stderr_only(run_id: &str, shard: Option<usize>) -> Logger {
        Logger::open(None, run_id, shard)
    }

    /// The run identity this logger stamps onto records.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Starts an event record (finish it with [`Event::emit`]).
    pub fn event(&self, level: Level, event: &str) -> Event<'_> {
        Event {
            log: self,
            level,
            event: event.to_string(),
            fields: String::new(),
            msg: None,
        }
    }

    /// [`Level::Info`] shorthand.
    pub fn info(&self, event: &str) -> Event<'_> {
        self.event(Level::Info, event)
    }

    /// [`Level::Warn`] shorthand.
    pub fn warn(&self, event: &str) -> Event<'_> {
        self.event(Level::Warn, event)
    }

    /// [`Level::Error`] shorthand.
    pub fn error(&self, event: &str) -> Event<'_> {
        self.event(Level::Error, event)
    }

    fn write_line(&self, line: &str) {
        eprintln!("{line}");
        if let Some(file) = &self.file {
            let mut f = file.lock().unwrap();
            let _ = writeln!(f, "{line}");
        }
    }
}

/// One structured log record under construction. Fields are appended in
/// call order after the stable prefix keys; [`Event::emit`] writes the
/// finished line.
#[derive(Debug)]
#[must_use = "an un-emitted event records nothing"]
pub struct Event<'a> {
    log: &'a Logger,
    level: Level,
    event: String,
    fields: String,
    msg: Option<String>,
}

impl Event<'_> {
    /// Adds an integer field.
    pub fn num(mut self, key: &str, value: impl Into<i128>) -> Self {
        let _ = write!(self.fields, ",\"{}\":{}", escape(key), value.into());
        self
    }

    /// Adds a float field (3 decimal places — milliseconds precision).
    /// Non-finite values render as `null`: `NaN`/`inf` are not valid
    /// JSON and would corrupt the record.
    pub fn float(mut self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            let _ = write!(self.fields, ",\"{}\":{value:.3}", escape(key));
        } else {
            let _ = write!(self.fields, ",\"{}\":null", escape(key));
        }
        self
    }

    /// Adds a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        let _ = write!(self.fields, ",\"{}\":\"{}\"", escape(key), escape(value));
        self
    }

    /// Adds a boolean field.
    pub fn flag(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.fields, ",\"{}\":{value}", escape(key));
        self
    }

    /// Attaches the human-readable message (rendered last).
    pub fn msg(mut self, text: impl Into<String>) -> Self {
        self.msg = Some(text.into());
        self
    }

    /// Renders and writes the record (file + stderr mirror).
    pub fn emit(self) {
        let shard = match self.log.shard {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let msg = match &self.msg {
            Some(m) => format!(",\"msg\":\"{}\"", escape(m)),
            None => String::new(),
        };
        let line = format!(
            "{{\"ts_ms\":{},\"elapsed_ms\":{},\"level\":\"{}\",\"run_id\":\"{}\",\
             \"shard\":{shard},\"event\":\"{}\"{}{msg}}}",
            unix_ms(),
            self.log.start.elapsed().as_millis(),
            self.level.as_str(),
            escape(&self.log.run_id),
            escape(&self.event),
            self.fields,
        );
        self.log.write_line(&line);
    }
}

/// One worker's progress record, replaced atomically on every update so
/// the coordinator (and anything else watching the run directory) always
/// reads a consistent snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Heartbeat {
    /// Shard index.
    pub shard: usize,
    /// Worker process id.
    pub pid: u32,
    /// Points of this shard already complete (result file published or
    /// found published on arrival).
    pub done: usize,
    /// Points dealt to this shard.
    pub total: usize,
    /// Grid index of the point in flight (`None` between points / done).
    pub current_index: Option<usize>,
    /// Label of the point in flight (empty when idle).
    pub current_label: String,
    /// Simulated cycle of the last checkpoint written for the in-flight
    /// point (0 before the first).
    pub last_ckpt_cycle: u64,
    /// Wall-clock stamp of this record (Unix ms).
    pub updated_ms: u64,
}

impl Heartbeat {
    /// A fresh heartbeat for a shard that has not started walking yet.
    pub fn new(shard: usize, total: usize) -> Heartbeat {
        Heartbeat {
            shard,
            pid: std::process::id(),
            done: 0,
            total,
            current_index: None,
            current_label: String::new(),
            last_ckpt_cycle: 0,
            updated_ms: 0,
        }
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let current = match self.current_index {
            Some(i) => i.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"shard\":{},\"pid\":{},\"done\":{},\"total\":{},\"current_index\":{current},\
             \"current_label\":\"{}\",\"last_ckpt_cycle\":{},\"updated_ms\":{}}}",
            self.shard,
            self.pid,
            self.done,
            self.total,
            escape(&self.current_label),
            self.last_ckpt_cycle,
            self.updated_ms,
        )
    }

    /// Parses a record previously rendered by [`Heartbeat::to_json`].
    pub fn from_json(j: &Json) -> Option<Heartbeat> {
        Some(Heartbeat {
            shard: j.get("shard")?.as_f64()? as usize,
            pid: j.get("pid")?.as_f64()? as u32,
            done: j.get("done")?.as_f64()? as usize,
            total: j.get("total")?.as_f64()? as usize,
            current_index: j.get("current_index")?.as_f64().map(|v| v as usize),
            current_label: j.get("current_label")?.as_str()?.to_string(),
            last_ckpt_cycle: j.get("last_ckpt_cycle")?.as_f64()? as u64,
            updated_ms: j.get("updated_ms")?.as_f64()? as u64,
        })
    }

    /// Reads the heartbeat of `shard` from a run directory (`None` when
    /// missing or unparsable — a worker that has not started yet).
    pub fn read(dir: &Path, shard: usize) -> Option<Heartbeat> {
        let text = std::fs::read_to_string(heartbeat_path(dir, shard)).ok()?;
        Heartbeat::from_json(&Json::parse(&text).ok()?)
    }
}

/// The worker-side heartbeat publisher: stamps and atomically replaces
/// the shard's record on every beat. Disabled (`--no-logs`) it is a
/// no-op, so the hot path costs one branch.
#[derive(Debug)]
pub struct HeartbeatWriter {
    /// The evolving record (public: the worker mutates fields directly,
    /// then calls [`HeartbeatWriter::beat`]).
    pub hb: Heartbeat,
    path: Option<PathBuf>,
}

impl HeartbeatWriter {
    /// A publisher writing into `dir` (pass `None` to disable), whose
    /// `logs/` it creates if the logger has not already.
    pub fn new(dir: Option<&Path>, shard: usize, total: usize) -> HeartbeatWriter {
        let path = dir.map(|d| heartbeat_path(d, shard));
        if let Some(logs) = path.as_deref().and_then(Path::parent) {
            let _ = std::fs::create_dir_all(logs);
        }
        HeartbeatWriter {
            hb: Heartbeat::new(shard, total),
            path,
        }
    }

    /// Stamps `updated_ms` and publishes the current record.
    pub fn beat(&mut self) {
        if let Some(path) = &self.path {
            self.hb.updated_ms = unix_ms();
            let _ = replace_atomic(path, self.hb.to_json().as_bytes());
        }
    }
}

/// Coordinator-side fleet bookkeeping shared between the supervisor
/// threads (which count respawns) and the status plane (which exposes
/// them): everything the heartbeat files cannot carry because the
/// *coordinator* owns it.
#[derive(Debug)]
pub struct FleetState {
    /// Per-shard respawn counts.
    pub respawns: Vec<std::sync::atomic::AtomicU64>,
    /// Per-shard "respawn budget exhausted" flags.
    pub gave_up: Vec<AtomicBool>,
    /// Coarse run state: `running` → `merging` → `complete` / `failed`.
    pub state: Mutex<String>,
    /// The fault-injection spec in force, if any ([`crate::server::FAULT_ENV`]).
    pub fault: Option<String>,
}

impl FleetState {
    /// Fresh bookkeeping for `workers` shards.
    pub fn new(workers: usize, fault: Option<String>) -> FleetState {
        FleetState {
            respawns: (0..workers).map(|_| Default::default()).collect(),
            gave_up: (0..workers).map(|_| Default::default()).collect(),
            state: Mutex::new("running".to_string()),
            fault,
        }
    }

    /// Sets the coarse run state.
    pub fn set_state(&self, state: &str) {
        *self.state.lock().unwrap() = state.to_string();
    }
}

/// One shard's row in the aggregated status document.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// The latest heartbeat, if the worker has written one.
    pub heartbeat: Option<Heartbeat>,
    /// How many times the coordinator respawned this shard's worker.
    pub respawns: u64,
    /// Whether the respawn budget is exhausted.
    pub gave_up: bool,
    /// Heartbeat age in ms (`None` without a heartbeat).
    pub age_ms: Option<u64>,
    /// Whether the heartbeat is older than the staleness threshold while
    /// the shard still has work in flight.
    pub stale: bool,
}

/// The aggregated fleet status: everything `status.json` and the
/// `/metrics` exposition are rendered from.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// Run identity.
    pub run_id: String,
    /// Coarse run state (`running`, `merging`, `complete`, `failed`).
    pub state: String,
    /// Points in the grid.
    pub points_total: usize,
    /// Points with a published result.
    pub points_done: usize,
    /// Worker-process count.
    pub workers: usize,
    /// Wall-clock ms since the coordinator started.
    pub elapsed_ms: u64,
    /// Naive ETA (elapsed · remaining / done), `None` until the first
    /// point completes or once the sweep is done.
    pub eta_ms: Option<u64>,
    /// Staleness threshold applied to [`ShardStatus::stale`].
    pub stale_after_ms: u64,
    /// Active fault-injection spec, if any.
    pub fault: Option<String>,
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<ShardStatus>,
}

impl StatusSnapshot {
    /// Renders the status document (the `status.json` body).
    pub fn to_json(&self) -> String {
        let mut shards = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            let hb = match &s.heartbeat {
                Some(hb) => hb.to_json(),
                None => "null".into(),
            };
            let age = match s.age_ms {
                Some(a) => a.to_string(),
                None => "null".into(),
            };
            let _ = write!(
                shards,
                "{}{{\"shard\":{i},\"respawns\":{},\"gave_up\":{},\"stale\":{},\
                 \"heartbeat_age_ms\":{age},\"heartbeat\":{hb}}}",
                if i > 0 { "," } else { "" },
                s.respawns,
                s.gave_up,
                s.stale,
            );
        }
        let eta = match self.eta_ms {
            Some(e) => e.to_string(),
            None => "null".into(),
        };
        let fault = match &self.fault {
            Some(f) => format!("\"{}\"", escape(f)),
            None => "null".into(),
        };
        format!(
            "{{\"run_id\":\"{}\",\"state\":\"{}\",\"points_total\":{},\"points_done\":{},\
             \"workers\":{},\"elapsed_ms\":{},\"eta_ms\":{eta},\"stale_after_ms\":{},\
             \"fault\":{fault},\"shards\":[{shards}]}}\n",
            escape(&self.run_id),
            escape(&self.state),
            self.points_total,
            self.points_done,
            self.workers,
            self.elapsed_ms,
            self.stale_after_ms,
        )
    }

    /// Renders the Prometheus-style text exposition (`/metrics`).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "gcache_sweep_points_total",
            "Design points in the sweep grid.",
            self.points_total.to_string(),
        );
        gauge(
            "gcache_sweep_points_done",
            "Design points with a published result.",
            self.points_done.to_string(),
        );
        gauge(
            "gcache_sweep_workers",
            "Worker processes the grid is dealt across.",
            self.workers.to_string(),
        );
        gauge(
            "gcache_sweep_elapsed_ms",
            "Wall-clock milliseconds since the coordinator started.",
            self.elapsed_ms.to_string(),
        );
        gauge(
            "gcache_sweep_eta_ms",
            "Naive completion estimate in milliseconds (-1 = unknown).",
            self.eta_ms.map_or("-1".into(), |e| e.to_string()),
        );
        gauge(
            "gcache_sweep_fault_active",
            "Whether a deterministic fault-injection spec is armed.",
            u32::from(self.fault.is_some()).to_string(),
        );
        let _ = writeln!(
            out,
            "# HELP gcache_sweep_state Coarse run state (1 on the active label)."
        );
        let _ = writeln!(out, "# TYPE gcache_sweep_state gauge");
        let _ = writeln!(
            out,
            "gcache_sweep_state{{state=\"{}\"}} 1",
            escape(&self.state)
        );

        let mut shard_gauge = |name: &str, help: &str, value: &dyn Fn(&ShardStatus) -> String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", value(s));
            }
        };
        shard_gauge(
            "gcache_sweep_shard_points_done",
            "Points of this shard already complete.",
            &|s| {
                s.heartbeat
                    .as_ref()
                    .map_or("0".into(), |hb| hb.done.to_string())
            },
        );
        shard_gauge(
            "gcache_sweep_shard_points_total",
            "Points dealt to this shard.",
            &|s| {
                s.heartbeat
                    .as_ref()
                    .map_or("0".into(), |hb| hb.total.to_string())
            },
        );
        shard_gauge(
            "gcache_sweep_shard_respawns",
            "Times the coordinator respawned this shard's worker.",
            &|s| s.respawns.to_string(),
        );
        shard_gauge(
            "gcache_sweep_shard_gave_up",
            "Whether this shard exhausted its respawn budget.",
            &|s| u32::from(s.gave_up).to_string(),
        );
        shard_gauge(
            "gcache_sweep_shard_stale",
            "Whether this shard's heartbeat is older than the staleness threshold.",
            &|s| u32::from(s.stale).to_string(),
        );
        shard_gauge(
            "gcache_sweep_shard_heartbeat_age_ms",
            "Milliseconds since this shard's last heartbeat (-1 = none yet).",
            &|s| s.age_ms.map_or("-1".into(), |a| a.to_string()),
        );
        out
    }
}

/// How often the status plane re-aggregates and republishes.
pub const STATUS_POLL_MS: u64 = 250;

/// The coordinator's status plane: a background thread that periodically
/// builds a [`StatusSnapshot`] (via the supplied closure), atomically
/// replaces `status.json`, and — when a listen address is given — serves
/// the snapshot over TCP.
#[derive(Debug)]
pub struct StatusPlane {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The bound endpoint address, when serving.
    pub addr: Option<SocketAddr>,
}

impl StatusPlane {
    /// Starts the plane. `listen` is the `--status-addr` value (e.g.
    /// `127.0.0.1:0`); `status_file` is where to publish `status.json`
    /// (`None` disables the file); `make` builds a fresh snapshot each
    /// poll.
    ///
    /// # Errors
    ///
    /// An error message when the listen address cannot be bound (a
    /// missing/invalid `--status-addr` is a startup failure; the file
    /// side never fails the sweep).
    pub fn start(
        listen: Option<&str>,
        status_file: Option<PathBuf>,
        make: impl FnMut() -> StatusSnapshot + Send + 'static,
    ) -> Result<StatusPlane, String> {
        let listener = match listen {
            Some(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| format!("cannot bind --status-addr {addr}: {e}"))?;
                l.set_nonblocking(true)
                    .map_err(|e| format!("cannot configure status listener: {e}"))?;
                Some(l)
            }
            None => None,
        };
        let addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut make = make;
        let handle = std::thread::Builder::new()
            .name("status-plane".into())
            .spawn(move || {
                // `None` forces the first publish; `Instant` arithmetic
                // below an hour of host uptime would panic here.
                let mut last_pub: Option<Instant> = None;
                let mut json = String::new();
                let mut prom = String::new();
                loop {
                    let stopping = stop2.load(Ordering::Relaxed);
                    let due =
                        last_pub.is_none_or(|t| t.elapsed().as_millis() as u64 >= STATUS_POLL_MS);
                    if stopping || due {
                        let snap = make();
                        json = snap.to_json();
                        prom = snap.prometheus();
                        if let Some(path) = &status_file {
                            let _ = replace_atomic(path, json.as_bytes());
                        }
                        last_pub = Some(Instant::now());
                    }
                    if let Some(l) = &listener {
                        while let Ok((stream, _)) = l.accept() {
                            serve_one(stream, &json, &prom);
                        }
                    }
                    if stopping {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
            .map_err(|e| format!("cannot spawn status thread: {e}"))?;
        Ok(StatusPlane {
            stop,
            handle: Some(handle),
            addr,
        })
    }

    /// Publishes one final snapshot and stops the plane.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusPlane {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Answers one status-endpoint connection: a minimal HTTP/1.1 exchange
/// (GET only, connection closed after the response).
fn serve_one(mut stream: TcpStream, json: &str, prom: &str) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 2048];
    let mut len = 0;
    // Read until the end of the request head (or the buffer fills — the
    // request line is all we parse).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", prom),
        "/" | "/status.json" => ("200 OK", "application/json", json),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// A tiny `curl`-equivalent for tests and smoke scripts: issues `GET
/// path` against `addr` and returns `(http_status, body)`.
///
/// # Errors
///
/// Propagates connection/read failures.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: gcache\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gcache-obs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replace_atomic_replaces_contents() {
        let dir = tmpdir("replace");
        let path = dir.join("f.txt");
        replace_atomic(&path, b"one").unwrap();
        replace_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp litter left behind on the happy path.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn snapshot() -> StatusSnapshot {
        StatusSnapshot {
            run_id: "r1".into(),
            state: "running".into(),
            points_total: 12,
            points_done: 5,
            workers: 2,
            elapsed_ms: 1000,
            eta_ms: Some(1400),
            stale_after_ms: 30_000,
            fault: Some("ckpt:2".into()),
            shards: vec![
                ShardStatus {
                    heartbeat: Some(Heartbeat {
                        shard: 0,
                        pid: 42,
                        done: 3,
                        total: 6,
                        current_index: Some(6),
                        current_label: "BFS|Lru".into(),
                        last_ckpt_cycle: 130_000,
                        updated_ms: 1_000_000,
                    }),
                    respawns: 1,
                    gave_up: false,
                    age_ms: Some(120),
                    stale: false,
                },
                ShardStatus {
                    heartbeat: None,
                    respawns: 0,
                    gave_up: false,
                    age_ms: None,
                    stale: true,
                },
            ],
        }
    }

    #[test]
    fn log_records_have_stable_keys_and_parse() {
        let dir = tmpdir("log");
        let log = Logger::coordinator(&dir, "run-1");
        log.info("run_start")
            .num("points", 36)
            .str_field("dir", "/tmp/x")
            .flag("resumed", false)
            .msg("36 points")
            .emit();
        // Coordinator events about a worker use the `worker` key — the
        // `shard` prefix key names the *emitting* process.
        log.warn("shard_stale").num("worker", 2).emit();

        let text = std::fs::read_to_string(coordinator_log_path(&dir)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let j = Json::parse(lines[0]).expect("valid JSONL record");
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "ts_ms",
                "elapsed_ms",
                "level",
                "run_id",
                "shard",
                "event",
                "points",
                "dir",
                "resumed",
                "msg"
            ]
        );
        assert_eq!(j.get("shard").unwrap(), &Json::Null, "coordinator shard");
        assert_eq!(j.get("event").unwrap().as_str(), Some("run_start"));
        assert_eq!(j.get("points").unwrap().as_f64(), Some(36.0));

        let j = Json::parse(lines[1]).unwrap();
        assert_eq!(j.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(j.get("worker").unwrap().as_f64(), Some(2.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_logger_appends_across_instances() {
        let dir = tmpdir("append");
        Logger::shard(&dir, "a", 3).info("worker_start").emit();
        Logger::shard(&dir, "b", 3).info("worker_start").emit();
        let text = std::fs::read_to_string(shard_log_path(&dir, 3)).unwrap();
        assert_eq!(text.lines().count(), 2, "respawn logs append, not truncate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_round_trips() {
        let dir = tmpdir("hb");
        let mut w = HeartbeatWriter::new(Some(&dir), 1, 6);
        w.hb.done = 2;
        w.hb.current_index = Some(7);
        w.hb.current_label = "BFS|GCache".into();
        w.hb.last_ckpt_cycle = 65_536;
        w.beat();
        let back = Heartbeat::read(&dir, 1).expect("heartbeat written");
        assert_eq!(back.done, 2);
        assert_eq!(back.current_index, Some(7));
        assert_eq!(back.current_label, "BFS|GCache");
        assert!(back.updated_ms > 0);

        // A disabled writer writes nothing.
        let mut off = HeartbeatWriter::new(None, 2, 6);
        off.beat();
        assert!(Heartbeat::read(&dir, 2).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_json_and_prometheus_render() {
        let snap = snapshot();
        let j = Json::parse(&snap.to_json()).expect("valid status.json");
        assert_eq!(j.get("points_done").unwrap().as_f64(), Some(5.0));
        assert_eq!(j.get("fault").unwrap().as_str(), Some("ckpt:2"));
        let shards = j.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0]
                .at(&["heartbeat", "current_label"])
                .unwrap()
                .as_str(),
            Some("BFS|Lru")
        );
        assert_eq!(shards[1].get("heartbeat").unwrap(), &Json::Null);
        assert_eq!(shards[1].get("stale").unwrap().as_bool(), Some(true));

        let prom = snap.prometheus();
        assert!(prom.contains("gcache_sweep_points_total 12\n"));
        assert!(prom.contains("gcache_sweep_points_done 5\n"));
        assert!(prom.contains("gcache_sweep_fault_active 1\n"));
        assert!(prom.contains("gcache_sweep_state{state=\"running\"} 1\n"));
        assert!(prom.contains("gcache_sweep_shard_respawns{shard=\"0\"} 1\n"));
        assert!(prom.contains("gcache_sweep_shard_stale{shard=\"1\"} 1\n"));
        assert!(prom.contains("gcache_sweep_shard_heartbeat_age_ms{shard=\"1\"} -1\n"));
        // Every TYPE line declares a gauge (no typos in the plumbing).
        for line in prom.lines().filter(|l| l.starts_with("# TYPE")) {
            assert!(line.ends_with("gauge"), "got: {line}");
        }
    }

    #[test]
    fn status_plane_serves_metrics_and_json() {
        let dir = tmpdir("plane");
        let status_file = status_path(&dir);
        let plane = StatusPlane::start(Some("127.0.0.1:0"), Some(status_file.clone()), snapshot)
            .expect("plane starts");
        let addr = plane.addr.expect("bound address");

        let (code, body) = http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(code, 200);
        assert!(body.contains("gcache_sweep_points_done 5"));

        let (code, body) = http_get(addr, "/status.json").expect("GET /status.json");
        assert_eq!(code, 200);
        let j = Json::parse(&body).expect("valid JSON body");
        assert_eq!(j.get("run_id").unwrap().as_str(), Some("r1"));

        let (code, _) = http_get(addr, "/nope").expect("GET /nope");
        assert_eq!(code, 404);

        plane.finish();
        let text = std::fs::read_to_string(&status_file).expect("status.json published");
        assert_eq!(
            Json::parse(&text).unwrap().get("workers").unwrap().as_f64(),
            Some(2.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_state_tracks_respawns() {
        let fs = FleetState::new(3, None);
        fs.respawns[1].fetch_add(1, Ordering::Relaxed);
        fs.gave_up[2].store(true, Ordering::Relaxed);
        fs.set_state("merging");
        assert_eq!(fs.respawns[1].load(Ordering::Relaxed), 1);
        assert!(fs.gave_up[2].load(Ordering::Relaxed));
        assert_eq!(&*fs.state.lock().unwrap(), "merging");
    }
}
