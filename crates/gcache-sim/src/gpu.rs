//! The assembled GPU: a thin deterministic driver over the
//! [`crate::system`] components — core array ⇄ interconnect ⇄ (optional
//! cluster caches) ⇄ memory system — ticked in pipeline order each cycle
//! and guarded by a forward-progress [`Watchdog`].

use crate::clocked::{min_event, Clocked, Watchdog};
use crate::config::GpuConfig;
use crate::core::SimtCore;
use crate::isa::Kernel;
use crate::l15::L15Cluster;
use crate::partition::Partition;
use crate::stats::SimStats;
use crate::system::{ClusterComplex, CoreComplex, Interconnect, MemorySystem};
use crate::telemetry::{Profile, Sampler, TelemetrySnapshot};
use gcache_core::snapshot::{fnv1a, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::stats::CacheStats;
use gcache_core::trace::{SharedTraceRing, TraceLevel, TraceSource};
use std::fmt;
use std::time::Instant;

pub use crate::config::make_l1_policy;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle budget was exhausted.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// No forward progress for a long interval — a protocol bug.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Human-readable state summary.
        detail: String,
    },
    /// A checkpoint sink failed; the simulation stops rather than run on
    /// without the crash protection the caller asked for.
    Checkpoint {
        /// What went wrong, including the cycle.
        detail: String,
    },
    /// One CTA of the kernel asks for more than a core has, so no CTA
    /// could ever be placed. Found before the first cycle.
    CtaNeverFits {
        /// The limit it breaks: a [`GpuConfig`] field, or `"min
        /// threads_per_cta"` for a CTA of no threads.
        limit: &'static str,
        /// What one CTA comes to.
        asked: usize,
        /// What the limit allows.
        allowed: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exhausted"),
            SimError::Deadlock { cycle, detail } => {
                write!(f, "no progress by cycle {cycle}: {detail}")
            }
            SimError::Checkpoint { detail } => write!(f, "{detail}"),
            SimError::CtaNeverFits {
                limit,
                asked,
                allowed,
            } => write!(
                f,
                "no CTA can ever be placed: {limit} is {allowed}, the kernel's CTA comes to {asked}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Sampling interval of the forward-progress watchdog, in cycles.
const WATCHDOG_INTERVAL: u64 = 4096;
/// Cycles without progress before the watchdog declares a deadlock.
const WATCHDOG_PATIENCE: u64 = 500_000;

/// The simulated GPU.
///
/// # Examples
///
/// ```
/// use gcache_sim::config::GpuConfig;
/// use gcache_sim::gpu::Gpu;
/// use gcache_sim::isa::{GridDim, Kernel, Op, TraceProgram, WarpProgram};
/// use gcache_core::addr::Addr;
///
/// struct Tiny;
/// impl Kernel for Tiny {
///     fn name(&self) -> &str { "tiny" }
///     fn grid(&self) -> GridDim { GridDim { ctas: 2, threads_per_cta: 64 } }
///     fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
///         let base = Addr::new(((cta * 2 + warp) * 4096) as u64);
///         Box::new(TraceProgram::new(vec![
///             Op::strided_load(base, 4, 32),
///             Op::Compute { cycles: 4 },
///         ]))
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gpu = Gpu::new(GpuConfig::fermi()?);
/// let stats = gpu.run_kernel(&Tiny)?;
/// assert_eq!(stats.core.ctas_completed, 2);
/// assert!(stats.ipc() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    /// Fingerprint of `cfg` (which never changes after [`Gpu::new`]),
    /// embedded in every checkpoint so resume rejects a differently built
    /// machine instead of silently diverging.
    cfg_fingerprint: u64,
    cores: CoreComplex,
    icnt: Interconnect,
    clusters: ClusterComplex,
    mem: MemorySystem,
    cycle: u64,
    /// Optional time-series sampler; when absent (the default) the cycle
    /// loop's only extra work is one discriminant test.
    sampler: Option<Sampler>,
    /// Optional wall-clock self-profile; when absent the pipeline pass
    /// takes its untimed branch.
    profile: Option<Profile>,
    /// Clock handle of the attached event-trace ring, if any; ticked so
    /// recorded events carry the simulated cycle.
    trace: Option<SharedTraceRing>,
    /// Mid-kernel run state restored from a checkpoint, consumed by the
    /// next `run_kernel*` call (which then continues the interrupted
    /// kernel instead of starting it over).
    resume: Option<ResumeState>,
    /// Length of the last snapshot this machine wrote or restored: the
    /// next one of the same run is within a few bytes of it, so its buffer
    /// is sized once instead of doubling up from the default.
    snapshot_len: usize,
}

/// The `run_kernel` locals a checkpoint has to carry across processes:
/// where the kernel started (cycle-limit and per-kernel stat deltas) and
/// the watchdog's progress baseline.
#[derive(Debug)]
struct ResumeState {
    start_cycle: u64,
    watchdog_cycle: u64,
    watchdog_sig: (u64, u64, u64),
}

impl Gpu {
    /// Builds a GPU.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is internally inconsistent (see
    /// [`GpuConfig::validate`]).
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate();
        let cores = CoreComplex::new(&cfg);
        let icnt = Interconnect::new(&cfg, cfg.topology());
        let clusters = ClusterComplex::new(&cfg, icnt.topology());
        let mem = MemorySystem::new(&cfg, icnt.topology());
        Gpu {
            cfg_fingerprint: fnv1a(format!("{cfg:?}").as_bytes()),
            cfg,
            cores,
            icnt,
            clusters,
            mem,
            cycle: 0,
            sampler: None,
            profile: None,
            trace: None,
            resume: None,
            snapshot_len: 0,
        }
    }

    /// Attaches a time-series [`Sampler`]; subsequent kernels record one
    /// telemetry row per sampling interval. Sampling is passive — it reads
    /// counters the simulation updates anyway — so the simulated outcome
    /// is bit-identical with and without a sampler.
    pub fn attach_sampler(&mut self, sampler: Sampler) {
        self.sampler = Some(sampler);
    }

    /// Detaches and returns the sampler (for export after a run).
    pub fn take_sampler(&mut self) -> Option<Sampler> {
        self.sampler.take()
    }

    /// The attached sampler, if any.
    pub const fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Turns on wall-clock self-profiling of the cycle pipeline; see
    /// [`Gpu::profile`]. Profiling times the host, never the simulated
    /// machine, so it cannot change simulation results.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Profile::default());
    }

    /// The self-profile accumulated so far (`None` unless
    /// [`Gpu::enable_profiling`] was called), with the wake-cache skip
    /// counters gathered from the component arrays.
    pub fn profile(&self) -> Option<Profile> {
        self.profile.map(|mut p| {
            p.wake_skips =
                self.cores.wake_skips() + self.mem.wake_skips() + self.clusters.wake_skips();
            p
        })
    }

    /// Whether every tag array in the machine — each core's L1, each
    /// cluster L1.5, each L2 bank — has its maintained per-set
    /// validity/dirty mask words equal to the reference recomputed from
    /// the per-slot states. The masks are acceleration state rebuilt (not
    /// deserialized) on checkpoint restore, so the snapshot round-trip
    /// tests assert this after [`Gpu::restore_checkpoint`].
    pub fn tag_masks_consistent(&self) -> bool {
        self.cores
            .cores()
            .iter()
            .all(|c| c.l1().cache().tags().masks_consistent())
            && self
                .clusters
                .stations()
                .iter()
                .all(|cl| cl.cache().tags().masks_consistent())
            && self
                .mem
                .stations()
                .iter()
                .all(|p| p.l2().tags().masks_consistent())
    }

    /// Attaches a shared structured-event trace ring to every traceable
    /// component: each L1 (cache + MSHR), each cluster L1.5, each L2 bank
    /// (cache + MSHR) and each DRAM channel. The GPU keeps a clock handle
    /// so recorded events carry the simulated cycle. See
    /// [`gcache_core::trace`] for the event taxonomy.
    pub fn attach_trace(&mut self, ring: &SharedTraceRing) {
        for c in self.cores.cores_mut() {
            let src = TraceSource::new(TraceLevel::L1, c.id().0 as u16);
            c.l1_mut().attach_trace(src, ring);
        }
        for (i, cl) in self.clusters.stations_mut().iter_mut().enumerate() {
            cl.attach_trace(i, ring);
        }
        for p in self.mem.stations_mut() {
            p.attach_trace(ring);
        }
        self.trace = Some(ring.clone());
    }

    /// The active configuration.
    pub const fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current simulated cycle.
    pub const fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs one kernel to completion and returns the aggregated statistics.
    ///
    /// A `Gpu` can run several kernels back to back (caches stay warm, as
    /// on real hardware between dependent launches); statistics accumulate
    /// across runs except `cycles`/`instructions`, which are reported per
    /// call via deltas. Use a fresh `Gpu` per measurement for clean stats.
    ///
    /// # Errors
    ///
    /// [`SimError::CtaNeverFits`], before the first cycle, if one CTA of
    /// the kernel asks for more than an empty core has;
    /// [`SimError::CycleLimit`] if `max_cycles` is exceeded;
    /// [`SimError::Deadlock`] if the watchdog detects no forward progress
    /// (a bug in the simulator or a malformed kernel, e.g. mismatched
    /// barriers).
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> Result<SimStats, SimError> {
        self.run_kernel_inner(kernel, None)
    }

    /// [`Gpu::run_kernel`] with crash protection: every `every` cycles
    /// (measured on the global clock, so a resumed run checkpoints on the
    /// same absolute grid as an uninterrupted one) the full machine state
    /// is serialized and handed to `sink` as `(cycle, bytes)`. Feed the
    /// bytes back through [`Gpu::restore_checkpoint`] on a freshly built,
    /// identically configured `Gpu` to continue the kernel; the resumed
    /// run's statistics and telemetry are bit-identical to running
    /// straight through.
    ///
    /// Checkpointing observes the machine between cycles and serializes
    /// only state the simulation mutates anyway, so enabling it does not
    /// perturb the simulated outcome.
    ///
    /// # Errors
    ///
    /// Everything [`Gpu::run_kernel`] returns, plus
    /// [`SimError::Checkpoint`] when `sink` fails.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_kernel_checkpointed(
        &mut self,
        kernel: &dyn Kernel,
        every: u64,
        mut sink: impl FnMut(u64, Vec<u8>) -> std::io::Result<()>,
    ) -> Result<SimStats, SimError> {
        assert!(every > 0, "checkpoint interval must be positive");
        self.run_kernel_inner(kernel, Some((every, &mut sink)))
    }

    #[allow(clippy::type_complexity)]
    fn run_kernel_inner(
        &mut self,
        kernel: &dyn Kernel,
        mut ckpt: Option<(u64, &mut dyn FnMut(u64, Vec<u8>) -> std::io::Result<()>)>,
    ) -> Result<SimStats, SimError> {
        let (start_cycle, mut watchdog) = match self.resume.take() {
            // Continuing a checkpointed kernel: dispatch state came back
            // with the snapshot, so `begin_kernel` must not run again.
            Some(rs) => (
                rs.start_cycle,
                Watchdog::new(
                    WATCHDOG_INTERVAL,
                    WATCHDOG_PATIENCE,
                    rs.watchdog_cycle,
                    rs.watchdog_sig,
                ),
            ),
            None => {
                SimtCore::check_cta_fits(&self.cfg, kernel.grid())?;
                let start = self.cycle;
                self.cores.begin_kernel(kernel);
                let watchdog = Watchdog::new(
                    WATCHDOG_INTERVAL,
                    WATCHDOG_PATIENCE,
                    self.cycle,
                    self.progress_signature(),
                );
                (start, watchdog)
            }
        };
        let mut ckpt_due = match &ckpt {
            Some((every, _)) => (self.cycle / every + 1) * every,
            None => u64::MAX,
        };
        if self.sampler.is_some() {
            // Baseline snapshot; a no-op on back-to-back kernels, keeping
            // one continuous series per attachment.
            let snap = self.telemetry_snapshot();
            if let Some(s) = &mut self.sampler {
                s.seed(snap);
            }
        }

        loop {
            if self.cores.fully_dispatched() && self.all_idle() {
                break;
            }

            // Idle-cycle fast-forward: jump straight to the earliest cycle
            // at which any component can make progress. The bound is
            // conservative (see `clocked`'s module docs), the watchdog's
            // sampling grid and the cycle-limit check are preserved by
            // capping the jump, and the cores bulk-account the skipped
            // cycles — so stats match the plain loop bit for bit.
            if self.cfg.fast_forward {
                let prev = self.cycle;
                let mut ev = self.cores.next_event(prev, &self.icnt);
                if ev != Some(prev + 1) {
                    ev = min_event(ev, Clocked::next_event(&self.icnt, prev));
                }
                if ev != Some(prev + 1) && !self.clusters.is_empty() {
                    ev = min_event(ev, self.clusters.next_event(prev));
                }
                if ev != Some(prev + 1) {
                    ev = min_event(ev, self.mem.next_event(prev));
                }
                let mut cap = watchdog
                    .next_sample(prev)
                    .min(start_cycle + self.cfg.max_cycles + 1);
                if let Some(s) = &self.sampler {
                    // Land exactly on the sampling grid; undershooting a
                    // jump is always safe (the extra ticks are no-ops).
                    cap = cap.min(s.due());
                }
                // Land exactly on the checkpoint grid too (u64::MAX when
                // checkpointing is off).
                cap = cap.min(ckpt_due);
                let target = ev.unwrap_or(cap).min(cap).max(prev + 1);
                let gap = target - prev - 1;
                if gap > 0 {
                    // Only the cores account per cycle here; everything
                    // else is a pure no-op across the gap.
                    self.cores.skip(prev, gap);
                    self.cycle = target - 1;
                }
                if let Some(p) = &mut self.profile {
                    p.bounds_computed += 1;
                    if gap > 0 {
                        p.ff_jumps += 1;
                        p.cycles_skipped += gap;
                    }
                }
            }

            self.cycle += 1;
            let now = self.cycle;
            if now - start_cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }

            if let Some(r) = &self.trace {
                r.set_time(now);
            }

            // One pipeline pass: cores (drain responses, issue, inject
            // requests) → both meshes → cluster caches (when clustered) →
            // memory (drain requests, tick, inject responses) → CTA
            // dispatch. The profiled branch is the same pass with a
            // wall-clock stamp between stages.
            if let Some(mut p) = self.profile.take() {
                let t0 = Instant::now();
                self.cores.tick(now, &mut self.icnt);
                let t1 = Instant::now();
                self.icnt.tick(now);
                let t2 = Instant::now();
                if !self.clusters.is_empty() {
                    self.clusters.tick(now, &mut self.icnt);
                }
                let t3 = Instant::now();
                self.mem.tick(now, &mut self.icnt);
                let t4 = Instant::now();
                self.cores.dispatch(kernel);
                let t5 = Instant::now();
                p.core_ns += (t1 - t0).as_nanos() as u64;
                p.icnt_ns += (t2 - t1).as_nanos() as u64;
                p.cluster_ns += (t3 - t2).as_nanos() as u64;
                p.mem_ns += (t4 - t3).as_nanos() as u64;
                p.dispatch_ns += (t5 - t4).as_nanos() as u64;
                p.ticked_cycles += 1;
                self.profile = Some(p);
            } else {
                self.cores.tick(now, &mut self.icnt);
                self.icnt.tick(now);
                if !self.clusters.is_empty() {
                    self.clusters.tick(now, &mut self.icnt);
                }
                self.mem.tick(now, &mut self.icnt);
                self.cores.dispatch(kernel);
            }

            if self.sampler.as_ref().is_some_and(|s| now >= s.due()) {
                let snap = self.telemetry_snapshot();
                if let Some(s) = &mut self.sampler {
                    s.record(snap);
                }
            }

            let (cores, icnt, mem) = (&self.cores, &self.icnt, &self.mem);
            if watchdog.observe(now, || Self::signature_of(cores, icnt, mem)) {
                return Err(SimError::Deadlock {
                    cycle: now,
                    detail: self.debug_state(),
                });
            }

            if now >= ckpt_due {
                // The pipeline, sampler and watchdog have all seen cycle
                // `now`: the machine is exactly in its between-cycles
                // state, which is what the snapshot captures.
                let bytes = self.encode_checkpoint(kernel.name(), start_cycle, &watchdog);
                self.snapshot_len = bytes.len();
                let (every, sink) = ckpt.as_mut().expect("checkpoint due without a spec");
                sink(now, bytes).map_err(|e| SimError::Checkpoint {
                    detail: format!("checkpoint at cycle {now} failed: {e}"),
                })?;
                ckpt_due = (now / *every + 1) * *every;
            }
        }

        if self.sampler.is_some() {
            // Close the series with a final (possibly short) interval so
            // even sub-interval kernels produce at least one row.
            let snap = self.telemetry_snapshot();
            if let Some(s) = &mut self.sampler {
                s.record_final(snap);
            }
        }

        Ok(self.collect_stats(kernel.name(), self.cycle - start_cycle))
    }

    /// Serializes the whole machine mid-kernel. Wall-clock observers — the
    /// self-profile and the event-trace ring — are observation channels,
    /// not simulation state, and are never serialized; the resuming
    /// harness reattaches its own.
    fn encode_checkpoint(
        &self,
        kernel_name: &str,
        start_cycle: u64,
        watchdog: &Watchdog<(u64, u64, u64)>,
    ) -> Vec<u8> {
        let mut w = match self.snapshot_len {
            0 => SnapshotWriter::new(),
            // Queues and MSHRs breathe a little between two saves.
            last => SnapshotWriter::with_capacity(last + last / 16),
        };
        w.section("gpu", |w| {
            w.str(kernel_name);
            w.u64(self.cfg_fingerprint);
            w.u64(self.cycle);
            w.u64(start_cycle);
            let (wd_cycle, sig) = watchdog.last_progress();
            w.u64(wd_cycle);
            w.u64(sig.0);
            w.u64(sig.1);
            w.u64(sig.2);
            w.bool(self.sampler.is_some());
        });
        self.cores.save(&mut w);
        self.icnt.save(&mut w);
        self.clusters.save(&mut w);
        self.mem.save(&mut w);
        if let Some(s) = &self.sampler {
            s.save(&mut w);
        }
        w.finish()
    }

    /// Restores a [`Gpu::run_kernel_checkpointed`] snapshot into this GPU,
    /// arming it so the next `run_kernel*` call continues the interrupted
    /// kernel. The GPU must be built from the same configuration as the
    /// one that wrote the snapshot (enforced via a config fingerprint),
    /// `kernel` must be the same kernel (its programs are re-derived and
    /// replayed, not serialized), and a sampler must be attached exactly
    /// when one was attached at save time.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on a truncated, corrupt or mismatched
    /// snapshot. The GPU may then be partially overwritten — discard it.
    pub fn restore_checkpoint(
        &mut self,
        bytes: &[u8],
        kernel: &dyn Kernel,
    ) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let mut cycle = 0;
        let mut rs = ResumeState {
            start_cycle: 0,
            watchdog_cycle: 0,
            watchdog_sig: (0, 0, 0),
        };
        let mut has_sampler = false;
        r.section("gpu", |r| {
            let name = r.str()?;
            if name != kernel.name() {
                return Err(SnapshotError::Mismatch {
                    what: format!("kernel (snapshot {:?}, resuming {:?})", name, kernel.name()),
                });
            }
            let fp = r.u64()?;
            if fp != self.cfg_fingerprint {
                return Err(SnapshotError::Mismatch {
                    what: "configuration fingerprint".into(),
                });
            }
            cycle = r.u64()?;
            rs.start_cycle = r.u64()?;
            rs.watchdog_cycle = r.u64()?;
            rs.watchdog_sig = (r.u64()?, r.u64()?, r.u64()?);
            has_sampler = r.bool()?;
            Ok(())
        })?;
        self.cores.restore(&mut r)?;
        self.icnt.restore(&mut r)?;
        self.clusters.restore(&mut r)?;
        self.mem.restore(&mut r)?;
        match (&mut self.sampler, has_sampler) {
            (Some(s), true) => s.restore(&mut r)?,
            (None, false) => {}
            (Some(_), false) => {
                return Err(SnapshotError::Mismatch {
                    what: "sampler attached but the snapshot carries no telemetry".into(),
                });
            }
            (None, true) => {
                return Err(SnapshotError::Mismatch {
                    what: "snapshot carries telemetry but no sampler is attached".into(),
                });
            }
        }
        // Every byte has been checked and decoded; only now is the kernel
        // asked to rebuild and fast-forward the warp programs.
        self.cores.replay(kernel)?;
        self.cycle = cycle;
        self.resume = Some(rs);
        self.snapshot_len = bytes.len();
        Ok(())
    }

    /// Gathers the cumulative counters the sampler differences. Read-only:
    /// no cache is flushed and no statistic is perturbed.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            cycle: self.cycle,
            instructions: self.cores.instructions(),
            ..TelemetrySnapshot::default()
        };
        for c in self.cores.cores() {
            let l1 = c.l1();
            let st = l1.stats();
            s.l1_accesses += st.accesses();
            s.l1_misses += st.misses();
            s.l1_fills += st.fills;
            s.l1_bypassed += st.bypassed_fills;
            if let Some((open, sets)) = l1.cache().policy().switch_summary() {
                s.switch_open += open as u64;
                s.switch_sets += sets as u64;
            }
            s.mshr_peak = s.mshr_peak.max(l1.mshr().peak_occupancy() as u64);
        }
        for cl in self.clusters.stations() {
            let st = cl.stats();
            s.l15_accesses += st.accesses();
            s.l15_misses += st.misses();
        }
        for p in self.mem.stations() {
            let st = p.l2_stats();
            s.l2_accesses += st.accesses();
            s.l2_misses += st.misses();
            if let Some(vs) = p.l2().victim_stats() {
                s.victim_sets += vs.sets;
                s.victim_hits += vs.hits;
                s.victim_clears += vs.clears;
            }
            let d = p.dram_stats();
            s.dram_row_hits += d.row_hits;
            s.dram_row_total += d.row_hits + d.row_opens + d.row_conflicts;
        }
        s.noc_in_flight = self.icnt.in_flight() as u64;
        s.noc_queue_depth = self.icnt.max_queue_depth() as u64;
        let (rq, rs) = (self.icnt.req_stats(), self.icnt.resp_stats());
        s.noc_packets = rq.packets + rs.packets;
        s.noc_inject_fails = rq.inject_fails + rs.inject_fails;
        s.noc_delivered = rq.delivered + rs.delivered;
        s.noc_total_latency = rq.total_latency + rs.total_latency;
        s
    }

    fn all_idle(&self) -> bool {
        self.cores.is_idle() && self.icnt.is_idle() && self.clusters.is_idle() && self.mem.is_idle()
    }

    fn signature_of(
        cores: &CoreComplex,
        icnt: &Interconnect,
        mem: &MemorySystem,
    ) -> (u64, u64, u64) {
        let delivered = icnt.req_stats().delivered + icnt.resp_stats().delivered;
        (cores.instructions(), delivered, mem.dram_completed())
    }

    fn progress_signature(&self) -> (u64, u64, u64) {
        Self::signature_of(&self.cores, &self.icnt, &self.mem)
    }

    /// What a [`SimError::Deadlock`] reports: how much of each array has
    /// drained, and the packets each network still holds — delivered ones
    /// a stalled consumer has not ejected included.
    fn debug_state(&self) -> String {
        fn idle<T>(what: &str, all: &[T], is_idle: fn(&T) -> bool) -> String {
            let idle = all.iter().filter(|x| is_idle(x)).count();
            format!("{idle}/{} {what} idle", all.len())
        }
        let (req, resp, xbars) = self.icnt.in_flight_by_network();
        let mut state = vec![idle("cores", self.cores.cores(), SimtCore::is_idle)];
        if !self.clusters.is_empty() {
            state.push(idle(
                "cluster caches",
                self.clusters.stations(),
                L15Cluster::is_idle,
            ));
        }
        state.push(idle("partitions", self.mem.stations(), Partition::is_idle));
        let mut state = state.join(", ");
        state += &format!("; packets in flight: request mesh {req}, response mesh {resp}");
        if let Some(xbars) = xbars {
            state += &format!(", cluster crossbars {xbars}");
        }
        state
    }

    /// Flushes all caches (end-of-measurement) and aggregates statistics.
    fn collect_stats(&mut self, kernel: &str, cycles: u64) -> SimStats {
        let mut l1 = CacheStats::new();
        let mut core = crate::core::CoreStats::default();
        for c in self.cores.cores_mut() {
            c.l1_mut().cache_mut().flush();
            l1.merge(c.l1().stats());
            core.merge(c.stats());
        }
        let mut l15 = CacheStats::new();
        for cl in self.clusters.stations_mut() {
            cl.cache_mut().flush();
            l15.merge(cl.stats());
        }
        let mut l2 = CacheStats::new();
        let mut dram = crate::dram::DramStats::default();
        let mut partition = crate::partition::PartitionStats::default();
        for p in self.mem.stations_mut() {
            p.l2_mut().flush();
            l2.merge(p.l2_stats());
            dram.merge(p.dram_stats());
            partition.merge(p.stats());
        }
        SimStats {
            kernel: kernel.to_string(),
            design: self.cfg.l1_policy.design_name(),
            cycles,
            instructions: core.instructions,
            l1,
            l15,
            l2,
            dram,
            noc_req: *self.icnt.req_stats(),
            noc_resp: *self.icnt.resp_stats(),
            xbar: self.icnt.xbar_stats().unwrap_or_default(),
            xbar_ports: self.icnt.xbar_ports_total() as u64,
            core,
            partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Hierarchy;
    use crate::port::TxPort;
    use crate::request::MemRequest;
    use gcache_core::addr::{CoreId, LineAddr};
    use gcache_core::policy::AccessKind;

    /// A read from core 6 that reaches its first station's port and is
    /// never ejected there — what a stalled consumer looks like.
    fn with_a_stranded_request(cfg: GpuConfig) -> Gpu {
        let mut gpu = Gpu::new(cfg);
        let req = MemRequest {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(6),
            warp: 0,
            class: None,
        };
        gpu.icnt.core_ports(6).1.send(req, 0);
        (1..100).for_each(|now| gpu.icnt.tick(now));
        gpu
    }

    #[test]
    fn deadlock_detail_counts_delivered_packets_nobody_ejected() {
        let flat = with_a_stranded_request(GpuConfig::fermi().unwrap());
        assert_eq!(flat.icnt.req_stats().delivered, 1, "it did arrive");
        assert_eq!(
            flat.debug_state(),
            "16/16 cores idle, 8/8 partitions idle; \
             packets in flight: request mesh 1, response mesh 0"
        );
    }

    #[test]
    fn deadlock_detail_names_cluster_caches_and_crossbars() {
        let shape = Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        };
        let cfg = GpuConfig::fermi().unwrap().with_hierarchy(shape).unwrap();
        let c4x2 = with_a_stranded_request(cfg.with_cluster_ports(2).unwrap());
        assert_eq!(
            c4x2.debug_state(),
            "16/16 cores idle, 4/4 cluster caches idle, 8/8 partitions idle; \
             packets in flight: request mesh 0, response mesh 0, cluster crossbars 1"
        );
    }
}
