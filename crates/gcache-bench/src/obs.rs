//! The fleet observability plane of the sweep server: structured JSONL
//! logging, per-shard heartbeats, aggregated status, and a std-only
//! status endpoint.
//!
//! Everything here is *provably passive*: the plane only ever appends to
//! `RUNDIR/logs/`, replaces `RUNDIR/status.json` atomically, and serves
//! read-only snapshots over TCP — the sweep's merged output is the
//! library's own numbers for the same points (the
//! `observability_is_passive` integration test gates exactly that).
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
//! dependency-free) and answers `GET /` or `GET /status.json` with the
//! document written to `status.json`; any other path is `404`.

use gcache_core::json::{Json, JsonWriter};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
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
fn coordinator_log_path(dir: &Path) -> PathBuf {
    dir.join("logs").join("coordinator.jsonl")
}

/// Worker `shard`'s JSONL log inside a run directory.
fn shard_log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("logs").join(format!("shard-{shard:04}.jsonl"))
}

/// Worker `shard`'s heartbeat record inside a run directory.
fn heartbeat_path(dir: &Path, shard: usize) -> PathBuf {
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

/// A levelled JSONL event logger: one per process, writing the
/// coordinator or shard log file (append-only) and mirroring every
/// record to stderr. Construction never fails the sweep — if the log
/// file cannot be opened the logger degrades to stderr-only with a
/// warning. There is deliberately no runtime level filter: a sweep's log
/// volume is bounded by its point count, and post-hoc filtering of JSONL
/// (`grep '"level":"warn"'`) beats losing records.
#[derive(Debug)]
pub struct Logger {
    file: Option<Mutex<std::fs::File>>,
    run_id: String,
    /// `Some(shard)` in a worker process, `None` in the coordinator.
    shard: Option<usize>,
    start: Instant,
}

impl Logger {
    /// The logger of worker `shard` (`logs/shard-NNNN.jsonl`) or, with
    /// `None`, of the coordinator (`logs/coordinator.jsonl`) in run
    /// directory `dir`.
    pub fn new(dir: &Path, run_id: &str, shard: Option<usize>) -> Logger {
        let path = shard.map_or(coordinator_log_path(dir), |s| shard_log_path(dir, s));
        let _ = std::fs::create_dir_all(dir.join("logs"));
        let opened = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path);
        let file = match opened {
            Ok(f) => Some(Mutex::new(f)),
            Err(e) => {
                let path = path.display();
                eprintln!("warning: cannot open log file {path} ({e}); logging to stderr only");
                None
            }
        };
        Logger {
            file,
            run_id: run_id.to_string(),
            shard,
            start: Instant::now(),
        }
    }

    /// The run identity this logger stamps onto records.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Starts an event record with the keys every record opens with —
    /// the one list of them.
    fn event(&self, level: &str, event: &str) -> Event<'_> {
        let mut record = JsonWriter::new();
        record.begin_obj().key("ts_ms").num(unix_ms());
        record
            .key("elapsed_ms")
            .num(self.start.elapsed().as_millis());
        record.key("level").str(level);
        record.key("run_id").str(&self.run_id);
        record.key("shard").opt_num(self.shard);
        record.key("event").str(event);
        Event {
            log: self,
            record,
            msg: None,
        }
    }

    /// Starts an `info` record — a normal lifecycle event (finish it
    /// with [`Event::emit`]).
    pub fn info(&self, event: &str) -> Event<'_> {
        self.event("info", event)
    }

    /// Starts a `warn` record: something odd but survivable (stale
    /// shard, ignored checkpoint).
    pub fn warn(&self, event: &str) -> Event<'_> {
        self.event("warn", event)
    }

    /// Starts an `error` record: the sweep is in trouble (respawn budget
    /// exhausted).
    pub fn error(&self, event: &str) -> Event<'_> {
        self.event("error", event)
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
    record: JsonWriter,
    msg: Option<String>,
}

impl Event<'_> {
    /// Adds an integer field.
    pub fn num(mut self, key: &str, value: impl Into<i128>) -> Self {
        self.record.key(key).num(value.into());
        self
    }

    /// Adds a float field (3 decimal places — milliseconds precision).
    /// Non-finite values render as `null`: `NaN`/`inf` are not valid
    /// JSON and would corrupt the record.
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.record.key(key).fixed(value, 3);
        self
    }

    /// Adds a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        self.record.key(key).str(value);
        self
    }

    /// Adds a boolean field.
    pub fn flag(mut self, key: &str, value: bool) -> Self {
        self.record.key(key).bool(value);
        self
    }

    /// Attaches the human-readable message (rendered last).
    pub fn msg(mut self, text: impl Into<String>) -> Self {
        self.msg = Some(text.into());
        self
    }

    /// Finishes and writes the record (file + stderr mirror).
    pub fn emit(mut self) {
        if let Some(msg) = &self.msg {
            self.record.key("msg").str(msg);
        }
        self.record.end_obj();
        self.log.write_line(&self.record.finish());
    }
}

/// The type of a [`Heartbeat`] field: written as itself, and read back
/// only as itself — a count never rounds a fraction in, wraps a negative
/// or saturates an overflow.
trait Field: Sized {
    fn write(&self, w: &mut JsonWriter);
    fn read(j: &Json) -> Option<Self>;
}

macro_rules! uint_field {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn write(&self, w: &mut JsonWriter) {
                w.num(self);
            }
            fn read(j: &Json) -> Option<Self> {
                j.as_uint()
            }
        }
    )+};
}
uint_field!(u32, u64, usize);

impl Field for Option<usize> {
    fn write(&self, w: &mut JsonWriter) {
        w.opt_num(*self);
    }
    fn read(j: &Json) -> Option<Self> {
        match j {
            Json::Null => Some(None),
            j => j.as_uint().map(Some),
        }
    }
}

impl Field for String {
    fn write(&self, w: &mut JsonWriter) {
        w.str(self);
    }
    fn read(j: &Json) -> Option<Self> {
        j.as_str().map(str::to_string)
    }
}

/// Declares [`Heartbeat`] from its one field list: the struct, its JSON
/// rendering (keys are the field names, in order) and its parser.
macro_rules! heartbeat {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty, )+) => {
        /// One worker's progress record, replaced atomically on every
        /// update so the coordinator (and anything else watching the run
        /// directory) always reads a consistent snapshot.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Heartbeat {
            $( $(#[$doc])* pub $field: $ty, )+
        }

        impl Heartbeat {
            /// Writes the record as one JSON object.
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_obj();
                $( self.$field.write(w.key(stringify!($field))); )+
                w.end_obj();
            }

            /// Parses a record previously rendered by
            /// [`Heartbeat::to_json`]; `None` if a field is missing or
            /// is not a value of its type.
            fn from_json(j: &Json) -> Option<Heartbeat> {
                Some(Heartbeat {
                    $( $field: Field::read(j.get(stringify!($field))?)?, )+
                })
            }
        }
    };
}

heartbeat! {
    /// Shard index.
    shard: usize,
    /// Worker process id.
    pid: u32,
    /// Points of this shard already complete (result file published or
    /// found published on arrival).
    done: usize,
    /// Points dealt to this shard.
    total: usize,
    /// Grid index of the point in flight (`None` between points / done).
    current_index: Option<usize>,
    /// Label of the point in flight (empty when idle).
    current_label: String,
    /// Simulated cycle of the last checkpoint written for the in-flight
    /// point (0 before the first).
    last_ckpt_cycle: u64,
    /// Wall-clock stamp of this record (Unix ms).
    updated_ms: u64,
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
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Reads the heartbeat of `shard` from a run directory (`None` when
    /// missing or unparsable — a worker that has not started yet).
    pub fn read(dir: &Path, shard: usize) -> Option<Heartbeat> {
        let text = std::fs::read_to_string(heartbeat_path(dir, shard)).ok()?;
        Heartbeat::from_json(&Json::parse(&text).ok()?)
    }
}

/// The worker-side heartbeat publisher: stamps and atomically replaces
/// the shard's record on every beat.
#[derive(Debug)]
pub struct HeartbeatWriter {
    /// The evolving record (public: the worker mutates fields directly,
    /// then calls [`HeartbeatWriter::beat`]).
    pub hb: Heartbeat,
    path: PathBuf,
}

impl HeartbeatWriter {
    /// A publisher writing into run directory `dir`, whose `logs/` it
    /// creates if the logger has not already.
    pub fn new(dir: &Path, shard: usize, total: usize) -> HeartbeatWriter {
        let _ = std::fs::create_dir_all(dir.join("logs"));
        HeartbeatWriter {
            hb: Heartbeat::new(shard, total),
            path: heartbeat_path(dir, shard),
        }
    }

    /// Stamps `updated_ms` and publishes the current record.
    pub fn beat(&mut self) {
        self.hb.updated_ms = unix_ms();
        let _ = replace_atomic(&self.path, self.hb.to_json().as_bytes());
    }
}

/// The coarse state of a run: `running` → `merging` → `complete`, or
/// `failed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunState {
    /// Workers are (or are about to be) walking their shards.
    Running,
    /// Every point is published; the coordinator is merging.
    Merging,
    /// `merged.tsv` is written.
    Complete,
    /// A shard exhausted its respawn budget.
    Failed,
}

impl RunState {
    /// The stable lower-case name in `status.json`.
    pub const fn as_str(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Merging => "merging",
            RunState::Complete => "complete",
            RunState::Failed => "failed",
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
    /// Coarse run state.
    pub state: Mutex<RunState>,
    /// The fault-injection spec in force, if any ([`crate::server::FAULT_ENV`]).
    pub fault: Option<String>,
}

impl FleetState {
    /// Fresh bookkeeping for `workers` shards.
    pub fn new(workers: usize, fault: Option<String>) -> FleetState {
        FleetState {
            respawns: (0..workers).map(|_| Default::default()).collect(),
            gave_up: (0..workers).map(|_| Default::default()).collect(),
            state: Mutex::new(RunState::Running),
            fault,
        }
    }

    /// Sets the coarse run state.
    pub fn set_state(&self, state: RunState) {
        *self.state.lock().unwrap() = state;
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

/// The aggregated fleet status: everything `status.json` is rendered
/// from.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// Run identity.
    pub run_id: String,
    /// Coarse run state.
    pub state: RunState,
    /// Points in the grid.
    pub points_total: usize,
    /// Points with a published result.
    pub points_done: usize,
    /// Worker-process count.
    pub workers: usize,
    /// Wall-clock ms since the coordinator started.
    pub elapsed_ms: u64,
    /// Naive ETA (elapsed · remaining / points finished by this
    /// coordinator), `None` until the first of them completes or once the
    /// sweep is done.
    pub eta_ms: Option<u64>,
    /// Staleness threshold applied to [`ShardStatus::stale`].
    pub stale_after_ms: u64,
    /// Active fault-injection spec, if any.
    pub fault: Option<String>,
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<ShardStatus>,
}

impl StatusSnapshot {
    /// Renders the status document (the `status.json` body): identity
    /// and state, the fleet counts (`null` while unknown), the threshold
    /// and fault spec in force, then one row per shard with its latest
    /// heartbeat.
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj().key("run_id").str(&self.run_id);
        w.key("state").str(self.state.as_str());
        w.key("points_total").num(self.points_total);
        w.key("points_done").num(self.points_done);
        w.key("workers").num(self.workers);
        w.key("elapsed_ms").num(self.elapsed_ms);
        w.key("eta_ms").opt_num(self.eta_ms);
        w.key("stale_after_ms").num(self.stale_after_ms);
        match &self.fault {
            Some(spec) => w.key("fault").str(spec),
            None => w.key("fault").null(),
        };
        w.key("shards").begin_arr();
        for (i, shard) in self.shards.iter().enumerate() {
            w.begin_obj().key("shard").num(i);
            w.key("respawns").num(shard.respawns);
            w.key("gave_up").bool(shard.gave_up);
            w.key("stale").bool(shard.stale);
            w.key("heartbeat_age_ms").opt_num(shard.age_ms);
            w.key("heartbeat");
            if let Some(hb) = &shard.heartbeat {
                hb.write_json(&mut w);
            } else {
                w.null();
            }
            w.end_obj();
        }
        w.end_arr().end_obj().space("\n");
        w.finish()
    }
}

/// How often the status plane re-aggregates and republishes.
const STATUS_POLL_MS: u64 = 250;

/// The coordinator's status plane: a background thread that periodically
/// builds a [`StatusSnapshot`] (via the supplied closure), atomically
/// replaces `status.json`, and — when a listen address is given — serves
/// the same document over TCP, each connection on a short-lived thread of
/// its own with one deadline for its whole request head, so no client can
/// hold up a publish or another client. Dropping the plane publishes one
/// final snapshot and stops it.
#[derive(Debug)]
pub struct StatusPlane {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The bound endpoint address, when serving.
    pub addr: Option<SocketAddr>,
}

impl StatusPlane {
    /// Starts the plane. `listen` is the `--status-addr` value (e.g.
    /// `127.0.0.1:0`); `status_file` is where to publish `status.json`;
    /// `make` builds a fresh snapshot each poll.
    ///
    /// # Errors
    ///
    /// An error message when the listen address cannot be bound (a
    /// missing/invalid `--status-addr` is a startup failure; the file
    /// side never fails the sweep).
    pub fn start(
        listen: Option<&str>,
        status_file: PathBuf,
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
                // `status.json` as last published.
                let mut doc = Arc::new(String::new());
                let mut serving: Vec<std::thread::JoinHandle<()>> = Vec::new();
                loop {
                    let stopping = stop2.load(Ordering::Relaxed);
                    let due =
                        last_pub.is_none_or(|t| t.elapsed().as_millis() as u64 >= STATUS_POLL_MS);
                    if stopping || due {
                        doc = Arc::new(make().to_json());
                        let _ = replace_atomic(&status_file, doc.as_bytes());
                        last_pub = Some(Instant::now());
                    }
                    if let Some(l) = &listener {
                        while let Ok((stream, _)) = l.accept() {
                            serving.retain(|thread| !thread.is_finished());
                            // Past the cap (or out of threads) the stream
                            // just drops: closed unanswered.
                            if serving.len() < MAX_CONNECTIONS {
                                let doc = Arc::clone(&doc);
                                let serve = move || serve_one(stream, &doc);
                                if let Ok(thread) = std::thread::Builder::new().spawn(serve) {
                                    serving.push(thread);
                                }
                            }
                        }
                    }
                    if stopping {
                        // Each is at most two deadlines from done.
                        for thread in serving {
                            let _ = thread.join();
                        }
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
}

impl Drop for StatusPlane {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The most a request head may take to arrive in full, and then a
/// response to be taken.
const CONNECTION_DEADLINE: Duration = Duration::from_millis(500);

/// The longest request head accepted (the request line is all that is
/// parsed).
const MAX_REQUEST_HEAD: usize = 2048;

/// Status-endpoint connections served at once; one arriving past that is
/// closed unanswered.
const MAX_CONNECTIONS: usize = 32;

/// Answers one status-endpoint connection: a minimal HTTP/1.1 exchange
/// (GET only, connection closed after the response). The whole request
/// head has one deadline, so a client that sends nothing, a byte at a
/// time, or more than [`MAX_REQUEST_HEAD`] is refused in bounded time.
fn serve_one(mut stream: TcpStream, json: &str) {
    const TEXT: &str = "text/plain; charset=utf-8";
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    // Where accepted sockets inherit the listener's mode.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(CONNECTION_DEADLINE));
    let mut buf = [0u8; MAX_REQUEST_HEAD];
    let mut len = 0;
    let refusal = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break Some(("408 Request Timeout", "timed out\n"));
        }
        match stream.read(&mut buf[len..]) {
            // The peer finished sending: answer what it sent.
            Ok(0) => break None,
            Ok(n) => len += n,
            // A timeout or a signal: the deadline decides.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
            Err(_) => return,
        }
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break None;
        } else if len == buf.len() {
            break Some(("431 Request Header Fields Too Large", "too large\n"));
        }
    };
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1));
    let (status, ctype, body) = match (refusal, path.unwrap_or("/")) {
        (Some((status, body)), _) => (status, TEXT, body),
        (None, "/" | "/status.json") => ("200 OK", "application/json", json),
        (None, _) => ("404 Not Found", TEXT, "not found\n"),
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
            state: RunState::Running,
            points_total: 12,
            points_done: 5,
            workers: 2,
            elapsed_ms: 1000,
            eta_ms: Some(1400),
            stale_after_ms: 30_000,
            fault: Some("ckpt:2 \"q\" b\\s".into()),
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
                    gave_up: true,
                    age_ms: None,
                    stale: true,
                },
            ],
        }
    }

    /// A log line minus its two clock fields (`ts_ms`, `elapsed_ms`).
    fn after_clock(line: &str) -> &str {
        let at = line.find(",\"level\"").expect("level follows the clock");
        &line[at..]
    }

    #[test]
    fn log_records_have_stable_keys_and_parse() {
        // Byte pins (captured at the parent of the writer fold) of
        // everything after the two clock fields. Coordinator events about
        // a worker use the `worker` key — the `shard` prefix key names the
        // *emitting* process.
        let dir = tmpdir("log");
        let log = Logger::new(&dir, "run-1", None);
        log.warn("shard_stale").num("worker", 2).emit();
        let text = std::fs::read_to_string(coordinator_log_path(&dir)).unwrap();
        assert!(text.starts_with("{\"ts_ms\":") && text.contains(",\"elapsed_ms\":"));
        assert_eq!(
            after_clock(&text),
            concat!(
                r#","level":"warn","run_id":"run-1","shard":null,"event":"shard_stale","worker":2}"#,
                "\n"
            )
        );
        assert!(Json::parse(&text).is_ok(), "valid JSONL record");

        // Every field type, a key and strings that need escaping,
        // non-finite floats, a worker's `shard` prefix, the message last.
        let log = Logger::new(&dir, "run \"1\"", Some(3));
        log.info("every\tfield")
            .num("points", 36)
            .num("neg", -7i64)
            .float("ms", 12.34567)
            .float("nan", f64::NAN)
            .float("inf", f64::INFINITY)
            .str_field("dir", "/tmp/\"x\"\\y\n")
            .flag("resumed", false)
            .flag("k\"ey", true)
            .msg("36 points\u{1}")
            .emit();
        let text = std::fs::read_to_string(shard_log_path(&dir, 3)).unwrap();
        assert_eq!(
            after_clock(&text),
            concat!(
                r#","level":"info","run_id":"run \"1\"","shard":3,"event":"every\tfield","points":36,"#,
                r#""neg":-7,"ms":12.346,"nan":null,"inf":null,"dir":"/tmp/\"x\"\\y\n","resumed":false,"#,
                r#""k\"ey":true,"msg":"36 points\u0001"}"#,
                "\n"
            )
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_logger_appends_across_instances() {
        let dir = tmpdir("append");
        Logger::new(&dir, "a", Some(3)).info("worker_start").emit();
        Logger::new(&dir, "b", Some(3)).info("worker_start").emit();
        let text = std::fs::read_to_string(shard_log_path(&dir, 3)).unwrap();
        assert_eq!(text.lines().count(), 2, "respawn logs append, not truncate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_round_trips() {
        let dir = tmpdir("hb");
        let mut w = HeartbeatWriter::new(&dir, 1, 6);
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

        // Byte pin (captured at the parent of the writer fold).
        let hb = Heartbeat {
            shard: 1,
            pid: 4242,
            done: 2,
            total: 6,
            current_index: None,
            current_label: "a\"b\\c\n".into(),
            last_ckpt_cycle: 65_536,
            updated_ms: 1_700_000_000_123,
        };
        assert_eq!(
            hb.to_json(),
            r#"{"shard":1,"pid":4242,"done":2,"total":6,"current_index":null,"current_label":"a\"b\\c\n","last_ckpt_cycle":65536,"updated_ms":1700000000123}"#
        );
        assert_eq!(
            Heartbeat::from_json(&Json::parse(&hb.to_json()).unwrap()),
            Some(hb)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_fields_read_as_their_own_type() {
        let dir = tmpdir("hbtypes");
        std::fs::create_dir_all(dir.join("logs")).unwrap();
        let hb = Heartbeat {
            done: 2,
            current_index: Some(7),
            current_label: "BFS|GCache".into(),
            ..Heartbeat::new(1, 6)
        };
        let good = hb.to_json();
        let put = |text: &str| std::fs::write(heartbeat_path(&dir, 1), text).unwrap();
        put(&good);
        assert_eq!(Heartbeat::read(&dir, 1), Some(hb));

        // Anything else is no heartbeat — never a rounded, wrapped or
        // saturated one (`"done":1e99` used to read as "complete").
        let pid = format!("\"pid\":{}", std::process::id());
        let bad = [
            ("truncated file", good[..good.len() / 2].to_string()),
            ("missing field", good.replace("\"total\":6,", "")),
            ("wrong-typed count", good.replace(&pid, "\"pid\":\"42\"")),
            ("negative count", good.replace("\"done\":2", "\"done\":-1")),
            (
                "overflowing count",
                good.replace("\"done\":2", "\"done\":1e99"),
            ),
            (
                "fractional count",
                good.replace("\"total\":6", "\"total\":6.5"),
            ),
            ("pid past u32", good.replace(&pid, "\"pid\":4294967296")),
            (
                "wrong-typed index",
                good.replace("\"current_index\":7", "\"current_index\":\"7\""),
            ),
            ("wrong-typed label", good.replace("\"BFS|GCache\"", "null")),
        ];
        for (what, text) in bad {
            assert_ne!(text, good, "{what}: the edit applied");
            put(&text);
            assert_eq!(Heartbeat::read(&dir, 1), None, "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_json_renders() {
        // Byte pins: two shards, one without a heartbeat, a fault spec
        // that needs escaping.
        let snap = snapshot();
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"run_id":"r1","state":"running","points_total":12,"points_done":5,"workers":2,"#,
                r#""elapsed_ms":1000,"eta_ms":1400,"stale_after_ms":30000,"fault":"ckpt:2 \"q\" b\\s","#,
                r#""shards":[{"shard":0,"respawns":1,"gave_up":false,"stale":false,"heartbeat_age_ms":120,"#,
                r#""heartbeat":{"shard":0,"pid":42,"done":3,"total":6,"current_index":6,"#,
                r#""current_label":"BFS|Lru","last_ckpt_cycle":130000,"updated_ms":1000000}},"#,
                r#"{"shard":1,"respawns":0,"gave_up":true,"stale":true,"heartbeat_age_ms":null,"#,
                r#""heartbeat":null}]}"#,
                "\n"
            )
        );

        // The unknowns are `null`.
        let idle = StatusSnapshot {
            eta_ms: None,
            fault: None,
            state: RunState::Complete,
            ..snap
        };
        assert!(idle
            .to_json()
            .contains(r#""state":"complete","points_total":12,"points_done":5,"workers":2,"elapsed_ms":1000,"eta_ms":null,"stale_after_ms":30000,"fault":null,"#));
    }

    #[test]
    fn status_plane_serves_status_json() {
        use std::sync::atomic::AtomicU64;
        let dir = tmpdir("plane");
        let status_file = status_path(&dir);
        // `elapsed_ms` counts the publishes, so the file shows them advance.
        let publishes = AtomicU64::new(0);
        let make = move || StatusSnapshot {
            elapsed_ms: publishes.fetch_add(1, Ordering::Relaxed),
            ..snapshot()
        };
        let plane = StatusPlane::start(Some("127.0.0.1:0"), status_file.clone(), make)
            .expect("plane starts");
        let addr = plane.addr.expect("bound address");

        let (code, body) = http_get(addr, "/status.json").expect("GET /status.json");
        assert_eq!(code, 200);
        let j = Json::parse(&body).expect("valid JSON body");
        assert_eq!(j.get("run_id").unwrap().as_str(), Some("r1"));
        for other in ["/nope", "/metrics"] {
            let (code, _) = http_get(addr, other).expect("GET another path");
            assert_eq!(code, 404, "{other}");
        }

        // Clients that stall cost nobody else anything: three that say
        // nothing, one that sends a byte every 50 ms and never finishes
        // its head, one whose head outgrows the limit.
        let connect = || TcpStream::connect(addr).expect("connects");
        let mut silent: Vec<TcpStream> = (0..3).map(|_| connect()).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let (dripping, first_byte) = std::sync::mpsc::channel();
        let drip = std::thread::spawn({
            let (stop, mut stream) = (Arc::clone(&stop), connect());
            move || {
                let head = b"GET /status.json HTTP/1.1\r\nX-Slow: ";
                for byte in head.iter().chain(std::iter::repeat(&b'a')) {
                    if stop.load(Ordering::Relaxed) || stream.write_all(&[*byte]).is_err() {
                        return;
                    }
                    let _ = dripping.send(());
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        });
        first_byte.recv().expect("the drip client is sending");
        let mut oversized = connect();
        oversized.write_all(&[b'A'; 2 * MAX_REQUEST_HEAD]).unwrap();

        let published = || {
            let doc = std::fs::read_to_string(&status_file).ok()?;
            Json::parse(&doc).ok()?.get("elapsed_ms")?.as_f64()
        };
        let before = published();
        let asked = Instant::now();
        let (code, body) = http_get(addr, "/status.json").expect("GET /status.json");
        let took = asked.elapsed();
        assert!(took < Duration::from_secs(1), "/status.json took {took:?}");
        assert_eq!(code, 200);
        assert!(body.contains(r#""points_done":5,"#));
        while published() <= before {
            let stuck = asked.elapsed() > Duration::from_secs(2);
            assert!(!stuck, "status.json stopped advancing");
            std::thread::sleep(Duration::from_millis(10));
        }

        // A silent client is told so once its deadline passes.
        let mut reply = String::new();
        let _ = silent[0].read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 408 "), "got: {reply:?}");

        stop.store(true, Ordering::Relaxed);
        drip.join().expect("drip client exits");
        drop(plane);
        let last = published().expect("a final snapshot is published");
        assert!(last > before.unwrap_or(0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_state_tracks_respawns() {
        let fs = FleetState::new(3, None);
        fs.respawns[1].fetch_add(1, Ordering::Relaxed);
        fs.gave_up[2].store(true, Ordering::Relaxed);
        fs.set_state(RunState::Merging);
        assert_eq!(fs.respawns[1].load(Ordering::Relaxed), 1);
        assert!(fs.gave_up[2].load(Ordering::Relaxed));
        assert_eq!(*fs.state.lock().unwrap(), RunState::Merging);
    }
}
