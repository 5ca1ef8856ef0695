//! A memory partition: one L2 cache bank (write-back, write-allocate, with
//! the G-Cache victim-bit extension), one Atomic Operation Unit, and one
//! FR-FCFS GDDR5 memory controller (§2.2, Figure 1).
//!
//! The L2 bank is a thin adapter over the generic
//! [`CacheController`] — the same miss-handling machine the L1 uses, here
//! wrapped around a write-back/allocate cache with victim bits and
//! [`AtomicHandling::Execute`]. The partition keeps only what is genuinely
//! partition-level: DRAM admission gating, response scheduling, and the
//! AOU serialisation.
//!
//! The L2 runs at half the core clock (700 MHz vs 1.4 GHz); the caller
//! gates [`Partition::tick`]'s L2 work accordingly via `l2_period` while
//! the DRAM ticks every core cycle.

use crate::config::GpuConfig;
use crate::dram::Dram;
use crate::request::{partition_local_line, MemRequest, MemResponse, WarpSlot};
use gcache_core::addr::{CoreId, LineAddr, PartitionId};
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{AtomicHandling, CacheController, ControllerOutcome, FillParams};
use gcache_core::policy::lru::Lru;
use gcache_core::policy::{AccessCtx, AccessKind, RequestClass};
use gcache_core::record;
use gcache_core::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::stats::CacheStats;
use std::collections::VecDeque;

/// A merged requester waiting on one L2 miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum L2Target {
    /// A load from `core`, waking `warp` — needs a response with data.
    /// `class` is the requester's declared [`RequestClass`], echoed back
    /// on the response so the L1 fill decision sees it.
    Read {
        core: CoreId,
        warp: WarpSlot,
        class: Option<RequestClass>,
    },
    /// An atomic from `core` — needs a response after AOU service.
    Atomic { core: CoreId, warp: WarpSlot },
    /// A write-allocate fetch — dirties the fill, no response.
    Write,
}

/// DRAM completion token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DramToken {
    /// Fetch completing for a partition-local line: fill the L2.
    Fill(LineAddr),
    /// A write-back finished; no further action.
    Writeback,
}

impl Codec for L2Target {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            L2Target::Read { core, warp, class } => {
                w.u8(0);
                w.put(core);
                w.put(warp);
                w.put(class);
            }
            L2Target::Atomic { core, warp } => {
                w.u8(1);
                w.put(core);
                w.put(warp);
            }
            L2Target::Write => w.u8(2),
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(L2Target::Read {
                core: r.get()?,
                warp: r.get()?,
                class: r.get()?,
            }),
            1 => Ok(L2Target::Atomic {
                core: r.get()?,
                warp: r.get()?,
            }),
            2 => Ok(L2Target::Write),
            v => Err(SnapshotError::BadValue {
                what: "L2 target kind".to_string(),
                value: v as u64,
            }),
        }
    }
}

impl Codec for DramToken {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            DramToken::Fill(line) => {
                w.u8(0);
                w.put(line);
            }
            DramToken::Writeback => w.u8(1),
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(DramToken::Fill(r.get()?)),
            1 => Ok(DramToken::Writeback),
            v => Err(SnapshotError::BadValue {
                what: "DRAM token kind".to_string(),
                value: v as u64,
            }),
        }
    }
}

record! {
    /// Partition-level counters beyond the embedded cache/DRAM stats.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct PartitionStats {
        /// Atomic operations serviced by the AOU.
        pub atomics: u64,
        /// Requests stalled because the L2 MSHR or DRAM queue was full.
        pub stall_cycles: u64,
    }
    impl merge;
}

/// One memory partition.
#[derive(Debug)]
pub struct Partition {
    id: PartitionId,
    partitions: usize,
    l2: CacheController<L2Target>,
    dram: Dram<DramToken>,
    /// Requests ejected from the request mesh, awaiting L2 service.
    incoming: VecDeque<MemRequest>,
    /// Responses ready to inject into the response mesh at `ready_at`.
    outgoing: VecDeque<(MemResponse, u64)>,
    /// Scratch for fill targets — reused across DRAM completions so the
    /// steady-state fill path performs no heap allocation.
    target_scratch: Vec<L2Target>,
    l2_period: u64,
    l2_latency: u64,
    atomic_latency: u64,
    aou_busy_until: u64,
    stats: PartitionStats,
}

impl Partition {
    /// Builds the partition described by `cfg`.
    pub fn new(id: PartitionId, cfg: &GpuConfig) -> Self {
        let mut dram = Dram::new(
            cfg.dram_timing,
            cfg.dram_banks,
            cfg.dram_row_bytes,
            cfg.dram_queue,
            cfg.line_size(),
        );
        dram.set_event_gating(cfg.fast_forward);
        // The core→group map comes from the topology, so on a clustered
        // machine victim bits follow the cluster layout (§4.3) instead of
        // bare core-index arithmetic.
        let l2_cache = Cache::with_victim_grouping(
            CacheConfig::l2(cfg.l2_geometry, 0),
            Lru::new(&cfg.l2_geometry),
            cfg.topology().victim_grouping(cfg.victim_bit_share),
        );
        Partition {
            id,
            partitions: cfg.partitions,
            l2: CacheController::new(
                l2_cache,
                cfg.l2_mshr_entries,
                cfg.l2_mshr_merge,
                AtomicHandling::Execute,
            ),
            dram,
            incoming: VecDeque::new(),
            outgoing: VecDeque::new(),
            target_scratch: Vec::with_capacity(cfg.l2_mshr_merge),
            l2_period: cfg.l2_period,
            l2_latency: cfg.l2_latency,
            atomic_latency: cfg.atomic_latency,
            aou_busy_until: 0,
            stats: PartitionStats::default(),
        }
    }

    /// This partition's id.
    pub const fn id(&self) -> PartitionId {
        self.id
    }

    /// L2 bank statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// DRAM channel statistics.
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }

    /// Partition-level counters.
    pub const fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// Direct access to the L2 (kernel-end flush, tests).
    pub fn l2_mut(&mut self) -> &mut Cache {
        self.l2.cache_mut()
    }

    /// Read access to the L2 (telemetry: victim-bit counters).
    pub fn l2(&self) -> &Cache {
        self.l2.cache()
    }

    /// Attaches a shared event-trace ring to this partition: L2 fill and
    /// MSHR events tagged `L2#<id>`, DRAM row-buffer events tagged
    /// `DRAM#<id>`.
    pub fn attach_trace(&mut self, ring: &gcache_core::trace::SharedTraceRing) {
        use gcache_core::trace::{TraceLevel, TraceSource};
        let id = self.id.0 as u16;
        self.l2
            .attach_trace(TraceSource::new(TraceLevel::L2, id), ring);
        self.dram
            .attach_trace(TraceSource::new(TraceLevel::Dram, id), ring);
    }

    /// Hands over a request ejected from the request network.
    pub fn push_request(&mut self, req: MemRequest) {
        self.incoming.push_back(req);
    }

    /// Takes one response whose L2 pipeline latency has elapsed.
    pub fn pop_response(&mut self, now: u64) -> Option<MemResponse> {
        match self.outgoing.front() {
            Some((_, ready)) if *ready <= now => self.outgoing.pop_front().map(|(r, _)| r),
            _ => None,
        }
    }

    /// Whether everything has drained: no queued requests, no outstanding
    /// misses, no pending responses, idle DRAM.
    pub fn is_idle(&self) -> bool {
        self.incoming.is_empty()
            && self.outgoing.is_empty()
            && self.l2.quiesced()
            && self.dram.is_idle()
    }

    /// A lower bound on the partition's next state-changing cycle
    /// (`None` = fully drained). Queued incoming work pins the bound to
    /// the next L2 tick — a stalled head-of-line request mutates stall
    /// statistics there, so those cycles must be ticked, never skipped.
    /// Everything else derives from response readiness and DRAM timing;
    /// a buffered DRAM completion is applied at the first L2 tick at or
    /// after its data-ready cycle.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let next_l2_tick = (now / self.l2_period + 1) * self.l2_period;
        let mut ev: Option<u64> = None;
        let mut fold = |t: u64| ev = Some(ev.map_or(t, |e| e.min(t)));
        if let Some(&(_, ready)) = self.outgoing.front() {
            fold(ready.max(now + 1));
        }
        if !self.incoming.is_empty() {
            fold(next_l2_tick);
        }
        if let Some(ready) = self.dram.next_completion() {
            fold(ready.max(now + 1).div_ceil(self.l2_period) * self.l2_period);
        }
        if let Some(t) = self.dram.next_event(now) {
            fold(t);
        }
        ev
    }

    /// Advances the partition by one core cycle.
    pub fn tick(&mut self, now: u64) {
        self.dram.tick(now);
        if now.is_multiple_of(self.l2_period) {
            self.drain_dram(now);
            self.serve_one(now);
        }
    }

    /// Applies completed DRAM reads: fill the L2, release merged targets.
    fn drain_dram(&mut self, now: u64) {
        let mut targets = std::mem::take(&mut self.target_scratch);
        while let Some(token) = self.dram.pop_completed(now) {
            let DramToken::Fill(local) = token else {
                continue;
            };
            // The fill decision derives from the merged targets: any store
            // or atomic among them dirties the allocate, and the first
            // responder becomes the primary core whose victim bit the fill
            // sets.
            let mut primary_core = CoreId(0);
            let outcome = self.l2.fill_with(local, &mut targets, |ts| {
                let dirty = ts
                    .iter()
                    .any(|t| matches!(t, L2Target::Write | L2Target::Atomic { .. }));
                // The primary requester's core id and declared class drive
                // the fill decision (atomics carry no class).
                let (core, class) = ts
                    .iter()
                    .find_map(|t| match t {
                        L2Target::Read { core, class, .. } => Some((*core, *class)),
                        L2Target::Atomic { core, .. } => Some((*core, None)),
                        L2Target::Write => None,
                    })
                    .unwrap_or((CoreId(0), None));
                primary_core = core;
                FillParams {
                    core,
                    victim_hint: false,
                    dirty,
                    class,
                }
            });
            if let Some(ev) = outcome.evicted {
                if ev.dirty {
                    // Write-back; drop silently if the DRAM queue is full —
                    // timing-only model, the data itself is not tracked.
                    // (Capacity is sized so this is rare; it is counted.)
                    if self
                        .dram
                        .enqueue(ev.line, true, DramToken::Writeback, now)
                        .is_err()
                    {
                        self.stats.stall_cycles += 1;
                    }
                }
            }
            let mut first_responder = true;
            for &t in &targets {
                match t {
                    L2Target::Write => {}
                    L2Target::Read { core, warp, class } => {
                        // The fill already set the primary core's victim
                        // bit; additional requesters observe their own.
                        let hint = if first_responder && core == primary_core {
                            first_responder = false;
                            false
                        } else {
                            self.l2
                                .cache_mut()
                                .victim_observe(local, core)
                                .unwrap_or(false)
                        };
                        self.queue_response(core, warp, local, AccessKind::Read, hint, class, now);
                    }
                    L2Target::Atomic { core, warp } => {
                        first_responder = false;
                        let ready = self.aou_admit(now);
                        self.outgoing.push_back((
                            MemResponse {
                                line: self.global(local),
                                kind: AccessKind::Atomic,
                                core,
                                warp,
                                victim_hint: false,
                                class: None,
                            },
                            ready,
                        ));
                        self.stats.atomics += 1;
                    }
                }
            }
        }
        targets.clear();
        self.target_scratch = targets;
    }

    /// Serves at most one incoming request per L2 cycle.
    ///
    /// External-resource checks (DRAM queue space, MSHR entries) happen
    /// *before* the controller access is committed so a stalled
    /// head-of-line request does not re-access the L2 every tick (which
    /// would corrupt statistics and policy ageing).
    fn serve_one(&mut self, now: u64) {
        let Some(&req) = self.incoming.front() else {
            return;
        };
        let local = partition_local_line(req.line, self.partitions);

        if req.kind == AccessKind::CopyBack {
            // Clean copy-back from an upstream cache (RDC-style): install
            // the line clean, off the hit/miss bookkeeping — maintenance
            // traffic must not perturb L2 statistics or MSHR state. If a
            // demand miss for the line is already in flight the DRAM fill
            // will install identical data, so the copy-back is dropped.
            if !self.l2.contains(local) && !self.l2.pending_miss(local) {
                // A clean fill can still evict a dirty victim, which needs
                // a DRAM write-back slot.
                if !self.dram.can_accept() {
                    self.stats.stall_cycles += 1;
                    return;
                }
                let outcome = self
                    .l2
                    .cache_mut()
                    .fill(AccessCtx::plain(local, req.core), false);
                if let Some(ev) = outcome.evicted {
                    if ev.dirty {
                        self.dram
                            .enqueue(ev.line, true, DramToken::Writeback, now)
                            .expect("checked can_accept");
                    }
                }
            }
            self.incoming.pop_front();
            return;
        }

        // A primary miss needs both a DRAM queue slot and a free MSHR
        // entry; merging misses sidestep both.
        if !self.l2.contains(local)
            && !self.l2.pending_miss(local)
            && (!self.dram.can_accept() || self.l2.mshr_full())
        {
            self.stats.stall_cycles += 1;
            return;
        }

        let target = match req.kind {
            AccessKind::Write => L2Target::Write,
            AccessKind::Read => L2Target::Read {
                core: req.core,
                warp: req.warp,
                class: req.class,
            },
            AccessKind::Atomic => L2Target::Atomic {
                core: req.core,
                warp: req.warp,
            },
            AccessKind::CopyBack => unreachable!("handled above"),
        };
        match self.l2.access(local, req.kind, req.core, target) {
            ControllerOutcome::Blocked(_) => {
                // Merge-list depth exhausted: replay next L2 cycle.
                self.stats.stall_cycles += 1;
                return;
            }
            ControllerOutcome::MissPrimary => {
                self.dram
                    .enqueue(local, false, DramToken::Fill(local), now)
                    .expect("checked can_accept");
            }
            ControllerOutcome::MissMerged => {}
            ControllerOutcome::Hit { victim_hint } => match req.kind {
                AccessKind::Write => {}
                AccessKind::Read => {
                    self.queue_response(
                        req.core,
                        req.warp,
                        local,
                        AccessKind::Read,
                        victim_hint,
                        req.class,
                        now,
                    );
                }
                AccessKind::Atomic => {
                    let ready = self.aou_admit(now);
                    self.outgoing.push_back((
                        MemResponse {
                            line: req.line,
                            kind: AccessKind::Atomic,
                            core: req.core,
                            warp: req.warp,
                            victim_hint: false,
                            class: None,
                        },
                        ready,
                    ));
                    self.stats.atomics += 1;
                }
                AccessKind::CopyBack => unreachable!("handled above"),
            },
            ControllerOutcome::Forward => {
                unreachable!("the L2 allocates writes and executes atomics locally")
            }
        }
        self.incoming.pop_front();
    }

    #[allow(clippy::too_many_arguments)]
    fn queue_response(
        &mut self,
        core: CoreId,
        warp: WarpSlot,
        local: LineAddr,
        kind: AccessKind,
        victim_hint: bool,
        class: Option<RequestClass>,
        now: u64,
    ) {
        self.outgoing.push_back((
            MemResponse {
                line: self.global(local),
                kind,
                core,
                warp,
                victim_hint,
                class,
            },
            now + self.l2_latency,
        ));
    }

    /// Serialises atomics through the AOU; returns the completion time.
    fn aou_admit(&mut self, now: u64) -> u64 {
        let start = self.aou_busy_until.max(now);
        self.aou_busy_until = start + self.atomic_latency;
        self.aou_busy_until + self.l2_latency
    }

    fn global(&self, local: LineAddr) -> LineAddr {
        crate::request::global_line(local, self.id, self.partitions)
    }
}

impl Snapshot for Partition {
    /// Saves the L2 controller, DRAM channel, traffic queues, AOU window
    /// and partition counters. `id`/`partitions`/latencies are
    /// construction-time configuration.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("part", |w| {
            self.l2.save(w);
            self.dram.save(w);
            w.put(&self.incoming);
            w.put(&self.outgoing);
            w.u64(self.aou_busy_until);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("part", |r| {
            self.l2.restore(r)?;
            self.dram.restore(r)?;
            self.incoming = r.get()?;
            self.outgoing = r.get()?;
            self.aou_busy_until = r.u64()?;
            self.stats = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::partition_of;
    use gcache_core::snapshot::assert_round_trip;

    fn partition() -> Partition {
        let cfg = GpuConfig::fermi().unwrap();
        Partition::new(PartitionId(0), &cfg)
    }

    /// A line that maps to partition 0.
    fn line_for_p0(i: u64) -> LineAddr {
        let line = LineAddr::new(i * 8); // partitions=8 → low 3 bits select
        assert_eq!(partition_of(line, 8).index(), 0);
        line
    }

    fn read(line: LineAddr, core: usize, warp: WarpSlot) -> MemRequest {
        MemRequest {
            line,
            kind: AccessKind::Read,
            core: CoreId(core),
            warp,
            class: None,
        }
    }

    fn run_until_response(p: &mut Partition, start: u64, max: u64) -> (MemResponse, u64) {
        for now in start..start + max {
            p.tick(now);
            if let Some(r) = p.pop_response(now) {
                return (r, now);
            }
        }
        panic!("no response within {max} cycles");
    }

    #[test]
    fn read_miss_goes_to_dram_and_returns() {
        let mut p = partition();
        let line = line_for_p0(5);
        p.push_request(read(line, 2, 7));
        let (resp, t) = run_until_response(&mut p, 1, 1000);
        assert_eq!(resp.line, line);
        assert_eq!(resp.core, CoreId(2));
        assert_eq!(resp.warp, 7);
        assert!(!resp.victim_hint, "first request must not carry a hint");
        assert!(t > 28, "must include DRAM latency, was {t}");
        assert_eq!(p.l2_stats().misses(), 1);
        assert_eq!(p.dram_stats().reads, 1);
    }

    #[test]
    fn second_read_hits_l2_with_victim_hint() {
        let mut p = partition();
        let line = line_for_p0(5);
        p.push_request(read(line, 2, 7));
        let (_, t1) = run_until_response(&mut p, 1, 1000);
        // Same core re-requests: L2 hit, victim bit already set → hint.
        p.push_request(read(line, 2, 8));
        let (resp, t2) = run_until_response(&mut p, t1 + 1, 1000);
        assert!(
            resp.victim_hint,
            "re-request from same core must carry the hint"
        );
        assert!(t2 - t1 < 100, "L2 hit must be much faster than DRAM");
        // A different core gets a clean hint.
        p.push_request(read(line, 3, 0));
        let (resp, _) = run_until_response(&mut p, t2 + 1, 1000);
        assert!(!resp.victim_hint);
    }

    #[test]
    fn merged_reads_release_together() {
        let mut p = partition();
        let line = line_for_p0(9);
        p.push_request(read(line, 0, 1));
        p.push_request(read(line, 1, 2));
        let mut responses = Vec::new();
        for now in 1..2000 {
            p.tick(now);
            while let Some(r) = p.pop_response(now) {
                responses.push(r);
            }
            if responses.len() == 2 {
                break;
            }
        }
        assert_eq!(responses.len(), 2);
        assert_eq!(p.dram_stats().reads, 1, "merged miss must fetch once");
        let hints: Vec<_> = responses.iter().map(|r| r.victim_hint).collect();
        assert_eq!(
            hints,
            vec![false, false],
            "distinct cores, first touch each"
        );
    }

    #[test]
    fn write_miss_allocates_dirty() {
        let mut p = partition();
        let line = line_for_p0(3);
        p.push_request(MemRequest {
            line,
            kind: AccessKind::Write,
            core: CoreId(0),
            warp: 0,
            class: None,
        });
        for now in 1..2000 {
            p.tick(now);
        }
        assert!(p.is_idle());
        assert_eq!(p.l2_stats().fills, 1);
        // The allocated line is dirty: flushing produces one write-back.
        assert_eq!(p.l2_mut().flush().len(), 1);
    }

    #[test]
    fn atomic_returns_response_and_counts() {
        let mut p = partition();
        let line = line_for_p0(4);
        p.push_request(MemRequest {
            line,
            kind: AccessKind::Atomic,
            core: CoreId(1),
            warp: 3,
            class: None,
        });
        let (resp, _) = run_until_response(&mut p, 1, 2000);
        assert_eq!(resp.kind, AccessKind::Atomic);
        assert_eq!(p.stats().atomics, 1);
        // Atomic dirties the line (RMW).
        assert_eq!(p.l2_mut().flush().len(), 1);
    }

    #[test]
    fn aou_serialises_atomics() {
        let mut p = partition();
        let line = line_for_p0(4);
        // Warm the line into L2 first.
        p.push_request(read(line, 0, 0));
        let (_, t0) = run_until_response(&mut p, 1, 2000);
        for w in 0..4 {
            p.push_request(MemRequest {
                line,
                kind: AccessKind::Atomic,
                core: CoreId(0),
                warp: w,
                class: None,
            });
        }
        let mut times = Vec::new();
        for now in t0 + 1..t0 + 4000 {
            p.tick(now);
            while let Some(r) = p.pop_response(now) {
                assert_eq!(r.kind, AccessKind::Atomic);
                times.push(now);
            }
            if times.len() == 4 {
                break;
            }
        }
        assert_eq!(times.len(), 4);
        // Consecutive AOU completions must be at least atomic_latency apart.
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 4, "atomics not serialised: {times:?}");
        }
    }

    #[test]
    fn capacity_eviction_writes_back() {
        let mut p = partition();
        // Dirty many distinct lines mapping to the same L2 set to force
        // dirty evictions. L2 bank: 64 sets, 16 ways.
        for i in 0..32u64 {
            let line = LineAddr::new(i * 8 * 64); // same set after local shift
            p.push_request(MemRequest {
                line,
                kind: AccessKind::Write,
                core: CoreId(0),
                warp: 0,
                class: None,
            });
        }
        for now in 1..200_000 {
            p.tick(now);
            if p.is_idle() {
                break;
            }
        }
        assert!(p.is_idle(), "partition should drain");
        assert!(p.l2_stats().writebacks >= 16, "expected dirty evictions");
        assert!(p.dram_stats().writes >= 1, "write-backs must reach DRAM");
    }

    #[test]
    fn payloads_and_stats_round_trip_through_a_snapshot() {
        assert_round_trip(&PartitionStats {
            atomics: 1,
            stall_cycles: 2,
        });
        assert_round_trip(&vec![
            L2Target::Read {
                core: CoreId(1),
                warp: 2,
                class: RequestClass::from_wire(9).unwrap(),
            },
            L2Target::Atomic {
                core: CoreId(3),
                warp: 4,
            },
            L2Target::Write,
        ]);
        assert_round_trip(&(DramToken::Fill(LineAddr::new(5)), DramToken::Writeback));
    }
}
