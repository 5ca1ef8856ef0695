//! # gcache-bench
//!
//! The experiment harness regenerating every table and figure of the
//! G-Cache paper. Each `src/bin/*` binary reproduces one artefact:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — benchmark list |
//! | `table2` | Table 2 — simulated configuration |
//! | `fig2`   | Figure 2 — L1 reuse-count distribution |
//! | `fig3_fig4` | Figures 3 & 4 — L1-size sensitivity (miss rate, speedup) |
//! | `fig8_fig9` | Figures 8 & 9 — IPC speedup and miss rate of all designs |
//! | `table3` | Table 3 — bypass ratios and optimal PDs |
//! | `fig10` | Figure 10 — 64 KB-L1 scalability study |
//!
//! A binary is its variants and its report: it parses its command line
//! through the one flag loop ([`Cli::try_parse`], naming the shared
//! flags it honours — [`SIMULATE`], say — and any of its own) and
//! runs its grids through the one runner ([`sweep::Sweep`]). A flag a
//! binary does not honour is a usage error there. Beyond the
//! per-artefact binaries, `sweep_server` runs whole design-point grids
//! as a kill-safe sharded service (see [`server`]).

#![warn(missing_docs)]

pub mod obs;
pub mod server;
pub mod sweep;

use crate::sweep::DesignPoint;
use gcache_core::cache::{BypassPlane, CopyBackPlane};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_core::policy::pdp_dyn::DynamicPdpConfig;
use gcache_core::snapshot::{
    bytes_len, fnv1a, section_len, SnapshotError, SnapshotReader, SnapshotWriter, HEADER_LEN,
};
use gcache_core::trace::SharedTraceRing;
use gcache_core::trace_export::ChromeTraceBuilder;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::{geomean, SimStats};
use gcache_sim::telemetry::{Profile, Sample, Sampler};
use gcache_workloads::{Benchmark, Category, Scale};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint interval in cycles when `--checkpoint` is given without
/// `--checkpoint-every`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 65_536;

/// Checkpoint/resume options of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Stem from `--checkpoint PATH`: each grid point checkpoints to
    /// `PATH.<label-hash>.ckpt` (distinct files, so parallel sweep workers
    /// never collide), atomically via a temp file + rename.
    pub write: Option<String>,
    /// Checkpoint cadence in cycles (`--checkpoint-every`).
    pub every: u64,
    /// Stem from `--resume PATH`: before each grid point starts, its
    /// checkpoint file is probed and, when present and matching, restored.
    pub resume: Option<String>,
}

/// How to simulate a design point, as opposed to which one
/// ([`sweep::DesignPoint`]): every setting a run honours, passed
/// explicitly to [`run_point`] — no run reads hidden process state, so
/// differently configured runs can share a process.
/// [`Cli::run_opts`] builds it once from the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOpts {
    /// Skip provably idle cycles (`false` = `--no-fast-forward`, the
    /// plain cycle loop; stats are bit-identical either way).
    pub fast_forward: bool,
    /// Checkpoint/resume through labelled per-point files.
    pub checkpoint: Option<CheckpointOpts>,
    /// Attach a per-epoch telemetry [`Sampler`] and return its series.
    /// Sampling is passive: the stats are bit-identical either way (the
    /// `telemetry_off_identical` integration test enforces it).
    pub sampled: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            fast_forward: true,
            checkpoint: None,
            sampled: false,
        }
    }
}

/// Candidate protection distances swept to find SPDP-B's per-benchmark
/// optimum (Table 3's right column).
pub const PD_CANDIDATES: &[u16] = &[2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96];

/// One flag's usage entry: the flag followed by its value placeholder,
/// if it takes one (`"--jobs N"`), and the help text, its lines
/// separated by `\n`.
pub type FlagDoc = (&'static str, &'static str);

/// Every flag the experiment binaries share. A binary honours a subset
/// ([`SIMULATE`], or a list of its own) and names it where it
/// parses; any other flag is a usage error there, and its usage text
/// lists only what it takes.
const SHARED_FLAGS: &[FlagDoc] = &[
    ("--quick", "use shrunk workloads (smoke-test scale)"),
    (
        "--bench NAME[,NAME...]",
        "restrict to these benchmarks (paper abbreviations)",
    ),
    (
        "--jobs N",
        "run sweeps on N worker threads (default: the host's\n\
         available parallelism); results are bit-identical\n\
         for every N",
    ),
    (
        "--hierarchy SHAPE[,SHAPE...]",
        "memory-hierarchy shapes to sweep: 'flat' (Table 2\n\
         machine) or 'cN[:KB]' for N-core clusters sharing a\n\
         KB-sized L1.5 (default 64 KB), e.g.\n\
         --hierarchy flat,c4,c8:128",
    ),
    (
        "--cluster-ports N[,N...]",
        "cluster-crossbar port counts to sweep on clustered\n\
         shapes. 1 = the legacy single-injection-port mesh\n\
         node; >= 2 models a core<->L1.5 crossbar with that\n\
         many transfer ports",
    ),
    (
        "--no-fast-forward",
        "tick every cycle instead of skipping provably idle\n\
         ones; slower, bit-identical output (cross-checking)",
    ),
    (
        "--telemetry PATH",
        "additionally run the selected benchmarks under the GC\n\
         design with the per-epoch time-series sampler attached\n\
         and write the combined series to PATH as CSV. The\n\
         experiment's own stdout stays byte-identical",
    ),
    (
        "--trace-out PATH",
        "additionally run the selected benchmarks under the GC\n\
         design with the event trace ring and self-profiler\n\
         attached, and write the combined timeline to PATH as\n\
         Chrome trace_event JSON (load in ui.perfetto.dev).\n\
         Simulated cycles map to microseconds, each cache/DRAM\n\
         instance gets its own track, and G-Cache switch flips\n\
         appear as instant events. The experiment's own stdout\n\
         stays byte-identical",
    ),
    (
        "--checkpoint PATH",
        "periodically snapshot each in-flight simulation to\n\
         PATH.<point-hash>.ckpt (atomic write; file removed when\n\
         the point completes), so an interrupted run can continue\n\
         instead of restarting. Output stays byte-identical",
    ),
    (
        "--checkpoint-every N",
        "checkpoint cadence in cycles (default 65536)",
    ),
    (
        "--resume PATH",
        "before simulating each point, restore its checkpoint\n\
         file under the PATH stem when one exists; the resumed\n\
         run's output is bit-identical to an uninterrupted one",
    ),
];

/// The shared flags of a binary that simulates on the flat Table 2
/// machine: every figure, `table3`, `energy`, `ablation`, `mlsweep`.
pub const SIMULATE: &[&str] = &[
    "--quick",
    "--bench",
    "--jobs",
    "--no-fast-forward",
    "--telemetry",
    "--trace-out",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
];

/// The flag a usage entry documents.
fn flag_of((head, _): &FlagDoc) -> &'static str {
    head.split_once(' ').map_or(head, |(flag, _)| flag)
}

/// The usage text of `binary`: the shared flags it `takes` and its `own`.
pub fn usage(binary: &str, takes: &[&str], own: &[FlagDoc]) -> String {
    let mut synopsis = format!("usage: {binary}");
    let mut help = String::new();
    let shared = SHARED_FLAGS
        .iter()
        .filter(|doc| takes.contains(&flag_of(doc)));
    for (head, text) in own.iter().chain(shared) {
        let _ = write!(synopsis, " [{head}]");
        let _ = writeln!(help, "  {head}");
        for line in text.lines() {
            let _ = writeln!(help, "                 {line}");
        }
    }
    format!("{synopsis}\n\n{help}")
}

/// Prints a command-line error above `usage` and exits with status 2.
pub fn usage_exit(err: &str, usage: &str) -> ! {
    eprintln!("error: {err}\n\n{usage}");
    std::process::exit(2);
}

/// The process command line of a binary with no flags of its own (see
/// [`Cli::parse`]): the shared flags in `takes` and nothing else.
pub fn bench_cli(binary: &'static str, takes: &[&str]) -> Cli {
    Cli::parse(binary, takes, &[], |_, _| Ok(()))
}

/// Parses `s` as an integer of at least 1, naming `what` (a flag, an
/// environment variable) in the error.
pub fn positive<T>(what: &str, s: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let n = s.trim().parse::<T>().ok();
    n.filter(|n| *n > T::default())
        .ok_or_else(|| format!("{what} expects a positive integer, got '{s}'"))
}

/// The value of the flag being parsed. Shared and binary-specific flags
/// take their values through these methods, so a missing value, a
/// non-positive integer or a destination in a missing directory reads
/// the same for every flag of every binary.
pub struct Value<'a> {
    flag: &'a str,
    args: &'a mut dyn Iterator<Item = String>,
    taken: Vec<String>,
}

impl Value<'_> {
    /// The next argument as it stands.
    pub fn string(&mut self) -> Result<String, String> {
        let v = self.args.next();
        let v = v.ok_or_else(|| format!("{} requires a value", self.flag))?;
        self.taken.push(v.clone());
        Ok(v)
    }

    /// An integer of at least 1.
    pub fn positive<T>(&mut self) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        positive(self.flag, &self.string()?)
    }

    /// A file to write or a stem to write under. Its parent directory
    /// must exist, so a mistyped destination fails at the command line
    /// instead of deep into a run at first write.
    pub fn path(&mut self) -> Result<String, String> {
        let path = self.string()?;
        let parent = Path::new(&path).parent();
        match parent.filter(|p| !p.as_os_str().is_empty() && !p.is_dir()) {
            Some(p) => Err(format!(
                "{} {path}: parent directory '{}' does not exist",
                self.flag,
                p.display()
            )),
            None => Ok(path),
        }
    }

    /// A comma-separated list, each trimmed element through `item`.
    pub fn list<T>(&mut self, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.string()?.split(',').map(|s| item(s.trim())).collect()
    }
}

/// The parsed command line of an experiment binary.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// The binary's name: it tags progress lines and usage errors.
    pub binary: &'static str,
    /// The binary's usage text, for errors found after parsing (an
    /// unknown `--bench` name).
    pub usage: String,
    /// The shared flags as they were given, values included — what a
    /// process re-issues to a child that must make the same selection
    /// (the sweep server's workers).
    pub shared_args: Vec<String>,
    /// Use shrunk workloads (4× fewer CTAs/iterations).
    pub quick: bool,
    /// Restrict to these benchmark names (paper abbreviations).
    pub only: Vec<String>,
    /// Worker-thread count from `--jobs` (`None` = not given; see
    /// [`Cli::jobs`] for the resolution order).
    pub jobs: Option<usize>,
    /// Hierarchy shapes from `--hierarchy` (empty = the binary's default).
    pub hierarchy: Vec<Hierarchy>,
    /// Cluster-crossbar port counts from `--cluster-ports` (empty = the
    /// binary's default).
    pub cluster_ports: Vec<usize>,
    /// Tick every cycle instead of fast-forwarding over idle ones.
    pub no_fast_forward: bool,
    /// Write a per-epoch telemetry time series here as CSV
    /// (`--telemetry`).
    pub telemetry: Option<String>,
    /// Write a Chrome `trace_event` timeline here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Checkpoint file stem (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Checkpoint cadence in cycles (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Resume file stem (`--resume`).
    pub resume: Option<String>,
}

/// Parses one `--hierarchy` shape: `flat`, `cN` or `cN:KB` (cluster size
/// `N`, shared L1.5 of `KB` kilobytes, default 64). The shape is validated
/// against the Table 2 machine immediately so errors surface at the
/// command line, not mid-sweep.
fn parse_hierarchy(s: &str) -> Result<Hierarchy, String> {
    if s.eq_ignore_ascii_case("flat") {
        return Ok(Hierarchy::Flat);
    }
    let body = s
        .strip_prefix('c')
        .ok_or_else(|| format!("hierarchy shape '{s}' must be 'flat' or 'cN[:KB]'"))?;
    let (size, kb) = body.split_once(':').unwrap_or((body, "64"));
    let cluster_size: usize = size
        .parse()
        .map_err(|_| format!("hierarchy shape '{s}': cluster size must be an integer"))?;
    let kb: u64 = kb
        .parse()
        .map_err(|_| format!("hierarchy shape '{s}': KB must be an integer"))?;
    let hierarchy = Hierarchy::SharedL15 { cluster_size, kb };
    GpuConfig::fermi()
        .expect("valid config")
        .with_hierarchy(hierarchy)
        .map_err(|e| format!("hierarchy shape '{s}': {e}"))?;
    Ok(hierarchy)
}

impl Cli {
    /// The one flag loop. `binary` honours the shared flags named in
    /// `takes` and the flags documented in `own`; each of the latter is
    /// handed to `on_own` with its [`Value`]. Anything else — a shared
    /// flag this binary would silently ignore included — is an error
    /// naming the flag and the binary.
    pub fn try_parse(
        binary: &'static str,
        takes: &[&str],
        own: &[FlagDoc],
        mut args: impl Iterator<Item = String>,
        mut on_own: impl FnMut(&str, &mut Value<'_>) -> Result<(), String>,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            binary,
            usage: usage(binary, takes, own),
            ..Cli::default()
        };
        while let Some(flag) = args.next() {
            let mut v = Value {
                flag: &flag,
                args: &mut args,
                taken: Vec::new(),
            };
            if own.iter().any(|doc| flag_of(doc) == flag) {
                on_own(&flag, &mut v)?;
                continue;
            }
            if !takes.contains(&flag.as_str()) {
                return Err(format!("{binary} does not take '{flag}'"));
            }
            match flag.as_str() {
                "--quick" => cli.quick = true,
                "--bench" => cli.only = v.list(|s| Ok(s.to_ascii_uppercase()))?,
                "--jobs" => cli.jobs = Some(v.positive()?),
                "--hierarchy" => cli.hierarchy = v.list(parse_hierarchy)?,
                "--cluster-ports" => cli.cluster_ports = v.list(|s| positive(&flag, s))?,
                "--no-fast-forward" => cli.no_fast_forward = true,
                "--telemetry" => cli.telemetry = Some(v.path()?),
                "--trace-out" => cli.trace_out = Some(v.path()?),
                "--checkpoint" => cli.checkpoint = Some(v.path()?),
                "--checkpoint-every" => cli.checkpoint_every = Some(v.positive()?),
                "--resume" => cli.resume = Some(v.path()?),
                other => unreachable!("{other} is in `takes` but not a shared flag"),
            }
            let taken = v.taken;
            cli.shared_args.push(flag);
            cli.shared_args.extend(taken);
        }
        if takes.contains(&"--checkpoint")
            && cli.checkpoint_every.is_some()
            && cli.checkpoint.is_none()
        {
            return Err("--checkpoint-every requires --checkpoint".into());
        }
        Ok(cli)
    }

    /// The process command line through [`Cli::try_parse`]; any error
    /// prints the binary's usage text and exits with status 2.
    pub fn parse(
        binary: &'static str,
        takes: &[&str],
        own: &[FlagDoc],
        on_own: impl FnMut(&str, &mut Value<'_>) -> Result<(), String>,
    ) -> Cli {
        Cli::try_parse(binary, takes, own, std::env::args().skip(1), on_own)
            .unwrap_or_else(|e| usage_exit(&e, &usage(binary, takes, own)))
    }

    /// The worker-thread count for sweeps: `--jobs` if given, else the
    /// host's available parallelism. A `--jobs` above that parallelism is
    /// honoured with a warning on stderr (stdout stays byte-identical
    /// across job counts).
    pub fn jobs(&self) -> usize {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let Some(j) = self.jobs else { return host };
        if j > host {
            eprintln!(
                "warning: --jobs = {j} exceeds the host's available \
                 parallelism ({host}); workers will contend for CPUs"
            );
        }
        j
    }

    /// How this command line wants its design points simulated
    /// (`--no-fast-forward`, `--checkpoint`, `--checkpoint-every`,
    /// `--resume`), unsampled.
    pub fn run_opts(&self) -> RunOpts {
        let checkpoint =
            (self.checkpoint.is_some() || self.resume.is_some()).then(|| CheckpointOpts {
                write: self.checkpoint.clone(),
                every: self.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
                resume: self.resume.clone(),
            });
        RunOpts {
            fast_forward: !self.no_fast_forward,
            checkpoint,
            sampled: false,
        }
    }

    /// The workload scale implied by the flags.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else {
            Scale::Paper
        }
    }

    /// The machine shapes to sweep, each with a crossbar port count:
    /// `--hierarchy` (else `shapes`) × `--cluster-ports` (else `ports`).
    /// The port axis applies to clustered shapes only — a flat machine
    /// has no cluster node to widen.
    pub fn shapes(&self, shapes: &[Hierarchy], ports: &[usize]) -> Vec<(Hierarchy, usize)> {
        let (no_shapes, no_ports) = (self.hierarchy.is_empty(), self.cluster_ports.is_empty());
        let shapes = if no_shapes { shapes } else { &self.hierarchy };
        let ports = if no_ports { ports } else { &self.cluster_ports };
        let ports_of = |shape| {
            if shape == Hierarchy::Flat {
                &[1]
            } else {
                ports
            }
        };
        let with_ports = |&shape| ports_of(shape).iter().map(move |&p| (shape, p));
        shapes.iter().flat_map(with_ports).collect()
    }

    /// The benchmarks of `all` that `--bench` names (any case), in
    /// `all`'s order; every one of them without `--bench`.
    ///
    /// # Errors
    ///
    /// A requested name that `all` does not hold: a typo must not shrink
    /// the set a table or a geomean is computed over.
    pub fn select(&self, all: Vec<Box<dyn Benchmark>>) -> Result<Vec<Box<dyn Benchmark>>, String> {
        let named = |b: &dyn Benchmark, n: &str| b.info().name.eq_ignore_ascii_case(n);
        if let Some(unknown) = self
            .only
            .iter()
            .find(|n| !all.iter().any(|b| named(b.as_ref(), n)))
        {
            let known: Vec<_> = all.iter().map(|b| b.info().name).collect();
            return Err(format!(
                "--bench: unknown benchmark '{unknown}' (known: {})",
                known.join(", ")
            ));
        }
        Ok(all
            .into_iter()
            .filter(|b| self.only.is_empty() || self.only.iter().any(|n| named(b.as_ref(), n)))
            .collect())
    }

    /// The selected Table 1 benchmarks; exits with the usage message when
    /// `--bench` names one that is not in Table 1.
    pub fn benchmarks(&self) -> Vec<Box<dyn Benchmark>> {
        self.select(gcache_workloads::registry(self.scale()))
            .unwrap_or_else(|e| usage_exit(&e, &self.usage))
    }
}

/// The orthogonal L1 policy-plane axes of one design point: the
/// class-driven fill-time bypass gate and the eviction-time clean
/// copy-back rule, composed around whatever replacement policy the point
/// selects. [`PolicyPlanes::default`] is the pre-plane behaviour (both
/// axes defer to the policy), so every legacy grid is bit-identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyPlanes {
    /// Fill-time bypass plane for the L1.
    pub l1_bypass: BypassPlane,
    /// Eviction-time clean copy-back plane for the L1.
    pub l1_copy_back: CopyBackPlane,
}

impl Default for PolicyPlanes {
    fn default() -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Policy,
            l1_copy_back: CopyBackPlane::Policy,
        }
    }
}

impl PolicyPlanes {
    /// HyDRA-style class-driven cacheability on the fill path.
    pub const fn hydra() -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Hydra,
            l1_copy_back: CopyBackPlane::Policy,
        }
    }

    /// RDC-style clean copy-back of reuse-proven victims.
    pub const fn clean_copy_back(min_reuse: u32) -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Policy,
            l1_copy_back: CopyBackPlane::CleanReuse { min_reuse },
        }
    }

    /// A short stable label for tables and checkpoint identities.
    pub fn label(&self) -> String {
        let bypass = match self.l1_bypass {
            BypassPlane::Policy => "policy",
            BypassPlane::Hydra => "hydra",
        };
        let cb = match self.l1_copy_back {
            CopyBackPlane::Policy => "policy".to_string(),
            CopyBackPlane::CleanReuse { min_reuse } => format!("clean{min_reuse}"),
        };
        format!("{bypass}/{cb}")
    }
}

/// The checkpoint file for one labelled grid point under a `--checkpoint`
/// / `--resume` stem.
fn checkpoint_file(stem: &str, label: &str) -> PathBuf {
    PathBuf::from(format!("{stem}.{:016x}.ckpt", fnv1a(label.as_bytes())))
}

/// Atomically replaces `path` with a labelled checkpoint (the wrapped
/// `Gpu` snapshot): a kill mid-write leaves the previous checkpoint
/// intact, and an orphaned sweep-server worker and its respawned
/// replacement checkpointing the same point cannot tear each other (see
/// [`obs::replace_atomic`]).
fn write_labelled_checkpoint(path: &Path, label: &str, snapshot: &[u8]) -> std::io::Result<()> {
    const TAG: &str = "bench_ckpt";
    // The wrapper's exact size, so the one copy of `snapshot` lands in a
    // buffer that never regrows.
    let fields = bytes_len(label.len()) + bytes_len(snapshot.len());
    let wrapped = HEADER_LEN + section_len(TAG, fields);
    let mut w = SnapshotWriter::with_capacity(wrapped);
    w.section(TAG, |w| {
        w.str(label);
        w.bytes(snapshot);
    });
    let wrapper = w.finish();
    debug_assert_eq!(wrapper.len(), wrapped);
    obs::replace_atomic(path, &wrapper)
}

/// Reads a labelled checkpoint back, returning the wrapped `Gpu` snapshot.
/// `Ok(None)` when no file exists; corrupt files or label mismatches are
/// errors the caller reports before starting the point from scratch.
fn read_labelled_checkpoint(path: &Path, label: &str) -> Result<Option<Vec<u8>>, String> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut r = SnapshotReader::new(&buf).map_err(|e| e.to_string())?;
    let mut snapshot = None;
    r.section("bench_ckpt", |r| {
        let found = r.str()?;
        if found != label {
            return Err(SnapshotError::Mismatch {
                what: format!("checkpoint is for a different grid point ({found})"),
            });
        }
        snapshot = Some(r.bytes()?.to_vec());
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok(snapshot)
}

/// What [`run_point_observed`] tells its observer while a point runs.
#[derive(Debug)]
pub enum PointEvent<'a> {
    /// The point's checkpoint at `path` was restored; simulation
    /// continues from `cycle`.
    Resumed {
        /// The checkpoint file.
        path: &'a Path,
        /// The restored global clock.
        cycle: u64,
    },
    /// A checkpoint file at `path` exists but cannot be used (corrupt,
    /// another point's, another machine's); the point starts fresh.
    CheckpointIgnored {
        /// The checkpoint file.
        path: &'a Path,
        /// Why it was rejected.
        reason: &'a str,
    },
    /// A checkpoint taken at `cycle` is on disk under its final name.
    Checkpointed {
        /// The snapshotted global clock.
        cycle: u64,
    },
    /// The simulation completed. The point's checkpoint file is removed
    /// once the observer returns `Ok`, so an observer that publishes
    /// `stats` somewhere durable does so before the snapshot is gone.
    Finished {
        /// The completed point's statistics.
        stats: &'a SimStats,
    },
}

/// The one way `gcache-bench` turns a configuration into a simulation:
/// builds a GPU for `cfg` (with a telemetry sampler when `opts.sampled`),
/// restores the checkpoint for `label` when `opts` names a resume stem
/// and a matching file exists, runs `bench` — periodically snapshotting
/// when `opts` names a checkpoint stem — and removes the checkpoint file
/// once the point completes. `cfg.fast_forward` is overwritten from
/// `opts`.
///
/// `label` is the point's stable identity
/// ([`sweep::DesignPoint::label`]): it is embedded in, and hashed into
/// the file name of, the checkpoint. `observe` hears about every
/// checkpoint interaction and the completion (see [`PointEvent`]); an
/// `Err` from it aborts the run and is returned.
///
/// # Errors
///
/// The simulation's failure (cycle limit, deadlock, checkpoint write),
/// prefixed with the benchmark and label, or the observer's error.
///
/// # Panics
///
/// Panics if `cfg` is not a valid machine (see [`Gpu::new`]).
pub fn run_point_observed(
    mut cfg: GpuConfig,
    bench: &dyn Benchmark,
    label: &str,
    opts: &RunOpts,
    observe: &mut dyn FnMut(PointEvent<'_>) -> Result<(), String>,
) -> Result<(SimStats, Option<Sampler>), String> {
    cfg.fast_forward = opts.fast_forward;
    let build = || {
        let mut gpu = Gpu::new(cfg.clone());
        if opts.sampled {
            gpu.attach_sampler(Sampler::new(gcache_sim::telemetry::DEFAULT_INTERVAL));
        }
        gpu
    };
    let mut gpu = build();
    let ckpt = opts.checkpoint.as_ref();
    if let Some(stem) = ckpt.and_then(|c| c.resume.as_ref()) {
        let path = checkpoint_file(stem, label);
        let restored = match read_labelled_checkpoint(&path, label) {
            Ok(None) => Ok(false),
            Ok(Some(snapshot)) => gpu
                .restore_checkpoint(&snapshot, bench)
                .map(|()| true)
                .map_err(|e| e.to_string()),
            Err(e) => Err(e),
        };
        match restored {
            Ok(false) => {}
            Ok(true) => observe(PointEvent::Resumed {
                path: &path,
                cycle: gpu.cycle(),
            })?,
            Err(reason) => {
                // A failed restore may leave the GPU half-written.
                gpu = build();
                observe(PointEvent::CheckpointIgnored {
                    path: &path,
                    reason: &reason,
                })?;
            }
        }
    }
    let write = ckpt.and_then(|c| Some((checkpoint_file(c.write.as_ref()?, label), c.every)));
    let result = match &write {
        Some((path, every)) => gpu.run_kernel_checkpointed(bench, *every, |cycle, snapshot| {
            write_labelled_checkpoint(path, label, &snapshot)?;
            observe(PointEvent::Checkpointed { cycle }).map_err(std::io::Error::other)
        }),
        None => gpu.run_kernel(bench),
    };
    let stats = result.map_err(|e| format!("{} ({label}) failed: {e}", bench.info().name))?;
    observe(PointEvent::Finished { stats: &stats })?;
    if let Some((path, _)) = &write {
        // The point is done; its checkpoint would only go stale.
        let _ = std::fs::remove_file(path);
    }
    Ok((stats, gpu.take_sampler()))
}

/// [`run_point_observed`] as the experiment binaries use it: resume
/// diagnostics go to stderr (stdout stays byte-identical), and a failed
/// simulation panics — experiment configurations are expected to
/// complete. Returns the stats and, when `opts.sampled`, the series.
///
/// # Panics
///
/// Panics if the simulation fails (cycle limit / deadlock / checkpoint
/// write) or `cfg` is not a valid machine.
pub fn run_point(
    cfg: GpuConfig,
    bench: &dyn Benchmark,
    label: &str,
    opts: &RunOpts,
) -> (SimStats, Option<Sampler>) {
    let name = bench.info().name;
    run_point_observed(cfg, bench, label, opts, &mut |event| {
        match event {
            PointEvent::Resumed { path, cycle } => {
                eprintln!("resuming {name} from {} (cycle {cycle})", path.display());
            }
            PointEvent::CheckpointIgnored { path, reason } => {
                eprintln!("warning: ignoring checkpoint {}: {reason}", path.display());
            }
            PointEvent::Checkpointed { .. } | PointEvent::Finished { .. } => {}
        }
        Ok(())
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// One labelled telemetry series: `(benchmark, design, recorded series)`.
pub type TelemetrySeries = (String, &'static str, Sampler);

/// Renders labelled telemetry series as one CSV document: the sample
/// columns prefixed by `bench` and `design` label columns.
pub fn telemetry_csv(series: &[TelemetrySeries]) -> String {
    let mut out = format!("bench,design,{}\n", Sample::CSV_HEADER);
    for (bench, design, sampler) in series {
        for s in sampler.samples() {
            let _ = writeln!(out, "{bench},{design},{}", s.csv_row());
        }
    }
    out
}

/// Trace-ring capacity used by [`export_trace`]: large enough to hold a
/// whole `--quick` run's event stream; a longer run keeps the newest
/// events and the export records how many older ones the ring dropped.
const TRACE_EXPORT_CAPACITY: usize = 1 << 21;

/// The `--trace-out PATH` export: runs `benches` under the GC design (flat
/// Table 2 machine) with the event trace ring and the self-profiler
/// attached, and writes the combined timeline to `path` as Chrome
/// `trace_event` JSON (loadable in Perfetto). One Perfetto process per
/// benchmark (its caches/DRAM as tracks, simulated cycles as
/// microseconds), plus one per-benchmark host-stage process from the
/// profiler's wall-clock spans.
///
/// # Panics
///
/// Panics if a simulation fails or the file cannot be written.
pub fn export_trace(path: &str, benches: &[Box<dyn Benchmark>], fast_forward: bool) {
    let mut b = ChromeTraceBuilder::new();
    let mut total_events = 0usize;
    let mut total_dropped = 0u64;
    for (i, bench) in benches.iter().enumerate() {
        let name = bench.info().name;
        let pid = (i + 1) as u32;
        let (ring, profile) = trace_gc_run(bench.as_ref(), fast_forward);
        b.add_process(pid, name);
        total_events += b.add_sim_events(pid, &ring.events());
        total_dropped += ring.dropped();
        if let Some(p) = profile {
            b.add_host_stages(
                1_000_000 + pid,
                &format!("host: {name}"),
                &[
                    ("core", p.core_ns),
                    ("icnt", p.icnt_ns),
                    ("cluster", p.cluster_ns),
                    ("mem", p.mem_ns),
                    ("dispatch", p.dispatch_ns),
                ],
            );
        }
    }
    b.note("events", &total_events.to_string());
    b.note("dropped", &total_dropped.to_string());
    std::fs::write(path, b.finish()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("chrome trace written to {path} ({total_events} events, {total_dropped} dropped)");
}

/// Runs `bench` under the GC design (flat Table 2 machine, fast-forward
/// as given) with the event trace ring and the self-profiler attached,
/// returning the filled ring and the profile — the per-benchmark leg of
/// [`export_trace`], public so the trace round-trip test can regenerate
/// the expected event stream independently of the exported file.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn trace_gc_run(
    bench: &dyn Benchmark,
    fast_forward: bool,
) -> (SharedTraceRing, Option<Profile>) {
    let policy = L1PolicyKind::GCache(GCacheConfig::default());
    let ring = SharedTraceRing::new(TRACE_EXPORT_CAPACITY);
    let mut cfg = DesignPoint::flat(bench, policy).config();
    cfg.fast_forward = fast_forward;
    let mut gpu = Gpu::new(cfg);
    gpu.attach_trace(&ring);
    gpu.enable_profiling();
    gpu.run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} (trace export) failed: {e}", bench.info().name));
    let profile = gpu.profile();
    (ring, profile)
}

/// Writes labelled telemetry series to `path` as CSV and notes on stderr
/// (stdout is reserved for experiment output) the destination and any
/// series whose ring overwrote its oldest rows.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_telemetry_series(path: &str, series: &[TelemetrySeries]) {
    std::fs::write(path, telemetry_csv(series))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("telemetry series written to {path}");
    for (bench, design, sampler) in series {
        let dropped = sampler.dropped();
        if dropped > 0 {
            eprintln!("telemetry {bench}/{design}: ring full, {dropped} oldest rows dropped");
        }
    }
}

/// Reduces a benchmark's [`PD_CANDIDATES`] sweep to `(best_pd, stats at
/// best_pd)` by IPC — the oracle SPDP-B configuration. Candidates must be
/// supplied in [`PD_CANDIDATES`] order, and a later candidate wins only
/// when it beats the incumbent by more than 0.2 %.
///
/// Ties go to the *smallest* PD: protection distance is hardware state,
/// so on a flat IPC curve — streaming benchmarks are flat by
/// construction — the cheapest distance is the "optimal" one, matching
/// Table 3's PD-4 rows for PVR/SD1/STL.
///
/// # Panics
///
/// Panics on an empty candidate list.
pub fn select_optimal_pd(results: impl IntoIterator<Item = (u16, SimStats)>) -> (u16, SimStats) {
    let mut best: Option<(u16, SimStats)> = None;
    for (pd, stats) in results {
        let better = best
            .as_ref()
            .is_none_or(|(_, b)| stats.ipc() > b.ipc() * 1.002);
        if better {
            best = Some((pd, stats));
        }
    }
    best.expect("candidate list is non-empty")
}

/// The six design points of the paper's Figure 8, given a per-benchmark
/// SPDP-B protection distance.
pub fn designs(spdp_pd: u16) -> Vec<L1PolicyKind> {
    vec![
        L1PolicyKind::Lru,
        L1PolicyKind::Srrip { bits: 3 },
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp3()),
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp8()),
        L1PolicyKind::StaticPdp { pd: spdp_pd },
        L1PolicyKind::GCache(GCacheConfig::default()),
    ]
}

/// A minimal markdown table builder for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends the "GM (sensitive)" and "GM (all)" rows of a table whose
    /// columns are `Bench`, `Cat`, then one speedup per design:
    /// `speedups[b]` holds benchmark `b`'s speedups, `cats[b]` its
    /// category.
    pub fn gm_rows(&mut self, cats: &[Category], speedups: &[Vec<f64>]) {
        for (label, only) in [
            ("GM (sensitive)", Some(Category::Sensitive)),
            ("GM (all)", None),
        ] {
            let rows = || speedups.iter().zip(cats);
            let picked = || rows().filter(|(_, c)| only.is_none_or(|o| **c == o));
            let gm = |i: usize| speedup(geomean(picked().map(|(row, _)| row[i])));
            let head = [label.to_string(), String::new()];
            let gms = (0..self.headers.len() - 2).map(gm);
            self.row(head.into_iter().chain(gms).collect());
        }
    }

    /// Renders the table as pipe-aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage string (`0.318` → `"31.8%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup as `"1.31x"`.
pub fn speedup(x: f64) -> String {
    format!("{x:.3}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(takes: &[&str], args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|s| s.to_string());
        Cli::try_parse("exp", takes, &[], args, |_, _| Ok(()))
    }

    #[test]
    fn cli_parses_flags() {
        let cli = parse(SIMULATE, &["--quick", "--bench", "spmv,BFS", "--jobs", "8"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.only, vec!["SPMV", "BFS"]);
        assert_eq!(cli.benchmarks().len(), 2);
        assert_eq!((cli.jobs, cli.jobs()), (Some(8), 8));
        assert_eq!(
            cli.shared_args,
            ["--quick", "--bench", "spmv,BFS", "--jobs", "8"]
        );
        assert!(
            !parse(SIMULATE, &["--no-fast-forward"])
                .unwrap()
                .run_opts()
                .fast_forward
        );
    }

    #[test]
    fn cli_defaults_to_all() {
        let cli = parse(SIMULATE, &[]).unwrap();
        assert!(!cli.quick);
        assert!(cli.jobs.is_none());
        assert_eq!(cli.benchmarks().len(), 17);
        assert_eq!(cli.run_opts(), RunOpts::default());
    }

    #[test]
    fn select_rejects_unknown_names() {
        let cli = |names: &str| parse(&["--bench"], &["--bench", names]);
        let table1 = || gcache_workloads::registry(Scale::Test);
        let names = |picked: Vec<Box<dyn Benchmark>>| -> Vec<_> {
            picked.iter().map(|b| b.info().name).collect()
        };

        // A typo is an error naming the offender and the choices, whether
        // it stands alone or beside a good name.
        for bad in ["NOPE", "BFS,SPVM", ""] {
            let err = cli(bad).unwrap().select(table1()).err().expect(bad);
            let offender = bad.rsplit(',').next().unwrap();
            assert!(err.contains(&format!("'{offender}'")), "got: {err}");
            assert!(err.contains("BFS, KMN, PVC"), "got: {err}");
        }
        // Known names in any case, reported in registry order.
        let mixed = cli("spmv,Bfs").unwrap().select(table1()).unwrap();
        assert_eq!(names(mixed), ["BFS", "SPMV"]);
        // No filter selects everything.
        assert_eq!(Cli::default().select(table1()).unwrap().len(), 17);
        // ablation's default trio, set on `only` directly.
        let trio = Cli {
            only: vec!["SPMV".into(), "SYRK".into(), "KMN".into()],
            ..Cli::default()
        };
        assert_eq!(
            names(trio.select(table1()).unwrap()),
            ["KMN", "SPMV", "SYRK"]
        );
        // A Table 1 name is unknown to another registry.
        let ml = gcache_workloads::ml_registry(Scale::Test);
        let err = cli("GEMM,BFS").unwrap().select(ml).err().unwrap();
        assert!(
            err.contains("'BFS'") && err.contains("GEMM, CONV, ATTN"),
            "got: {err}"
        );
    }

    /// A flag the binary does not honour is an error naming both, whether
    /// another binary knows the flag or none does; the usage text lists
    /// only what the binary takes.
    #[test]
    fn cli_rejects_flags_the_binary_does_not_take() {
        for (takes, flag) in [
            (SIMULATE, "--frobnicate"),
            (SIMULATE, "--hierarchy"),
            (&["--quick", "--bench"], "--jobs"),
            (&[][..], "--quick"),
        ] {
            let err = parse(takes, &[flag, "x"]).unwrap_err();
            assert_eq!(err, format!("exp does not take '{flag}'"));
        }
        let text = usage("exp", &["--quick", "--bench"], &[("--all", "everything")]);
        assert!(text.starts_with("usage: exp [--all] [--quick] [--bench NAME[,NAME...]]\n"));
        assert!(!text.contains("--jobs"), "got: {text}");
    }

    /// The value parsers every flag goes through: one wording per kind
    /// of mistake, naming the flag.
    #[test]
    fn cli_value_parsers() {
        let shapes = [SIMULATE, &["--hierarchy", "--cluster-ports"]].concat();
        for flag in ["--jobs", "--checkpoint-every", "--cluster-ports"] {
            for bad in ["many", "0", "-3", ""] {
                let err = parse(&shapes, &[flag, bad]).unwrap_err();
                let want = format!("{flag} expects a positive integer, got '{bad}'");
                assert_eq!(err, want);
            }
        }
        assert_eq!(positive::<u64>("N", " 7 "), Ok(7));
        for flag in ["--bench", "--jobs", "--telemetry", "--hierarchy"] {
            let err = parse(&shapes, &[flag]).unwrap_err();
            assert_eq!(err, format!("{flag} requires a value"));
        }
        for flag in ["--telemetry", "--trace-out", "--checkpoint", "--resume"] {
            let err = parse(&shapes, &[flag, "/no/such/dir/out"]).unwrap_err();
            assert!(
                err.starts_with(flag) && err.contains("'/no/such/dir'"),
                "got: {err}"
            );
        }
        let cli = parse(
            &shapes,
            &["--cluster-ports", "1, 4", "--hierarchy", "flat,c4:128"],
        )
        .unwrap();
        assert_eq!(cli.cluster_ports, [1, 4]);
        assert_eq!(cli.hierarchy.len(), 2);
        let err = parse(&shapes, &["--checkpoint-every", "5"]).unwrap_err();
        assert_eq!(err, "--checkpoint-every requires --checkpoint");
    }

    #[test]
    fn select_optimal_pd_prefers_smallest_on_flat_curve() {
        let flat = |pd: u16, ipc_scale: u64| {
            let mut s = SimStats::new("X", "SPDP-B");
            s.cycles = 1000;
            s.instructions = ipc_scale;
            (pd, s)
        };
        // Flat IPC: first candidate (smallest PD) wins.
        let (pd, _) = select_optimal_pd([flat(2, 500), flat(4, 500), flat(8, 501)]);
        assert_eq!(pd, 2, "0.2 % tie band must keep the smallest PD");
        // A real improvement (> 0.2 %) switches.
        let (pd, _) = select_optimal_pd([flat(2, 500), flat(8, 600)]);
        assert_eq!(pd, 8);
    }

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["Bench", "IPC"]);
        t.row(vec!["BFS".into(), "1.23".into()]);
        t.row(vec!["LONGNAME".into(), "0.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Bench"));
        assert!(lines[1].starts_with("|--"));
        assert_eq!(lines[2].len(), lines[3].len(), "rows must align");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.309), "30.9%");
        assert_eq!(speedup(1.309), "1.309x");
    }

    #[test]
    fn designs_cover_figure_8() {
        let d = designs(14);
        let names: Vec<_> = d.iter().map(|p| p.design_name()).collect();
        assert_eq!(names, vec!["BS", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    }

    #[test]
    fn telemetry_documents_are_pinned() {
        // Byte pins (captured at the parent of the writer fold).
        use gcache_sim::telemetry::TelemetrySnapshot;
        let snap = |cycle: u64| TelemetrySnapshot {
            cycle,
            instructions: cycle * 3 / 4,
            l1_accesses: cycle / 2,
            l1_misses: cycle / 8,
            switch_open: 8,
            switch_sets: 64,
            mshr_peak: 5,
            ..Default::default()
        };
        let series: Vec<TelemetrySeries> = ["BFS", "STL"]
            .into_iter()
            .map(|bench| {
                let mut s = Sampler::new(1000);
                s.seed(snap(0));
                s.record(snap(1000));
                if bench == "BFS" {
                    s.record(snap(2500));
                }
                (bench.to_string(), "GC", s)
            })
            .collect();
        assert_eq!(
            telemetry_csv(&series),
            format!(
                "bench,design,{}\n\
                 BFS,GC,1000,1000,750,0.75,0.25,0,0,0,0.125,0,0,0,5,0,0,0,0,0\n\
                 BFS,GC,2500,1500,1125,0.75,0.24933333333333332,0,0,0,0.125,0,0,0,5,0,0,0,0,0\n\
                 STL,GC,1000,1000,750,0.75,0.25,0,0,0,0.125,0,0,0,5,0,0,0,0,0\n",
                Sample::CSV_HEADER
            )
        );
    }
}
