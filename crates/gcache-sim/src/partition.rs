//! A memory partition: one L2 cache bank (write-back, write-allocate, with
//! the G-Cache victim-bit extension), one Atomic Operation Unit, and one
//! FR-FCFS GDDR5 memory controller (§2.2, Figure 1).
//!
//! The L2 bank is one generic [`CacheController`] — the same
//! miss-handling machine the L1 uses, here
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
use gcache_core::controller::{
    Admission, AtomicHandling, CacheController, ControllerOutcome, FillParams,
};
use gcache_core::mshr::MshrReject;
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

/// What a stalled head-of-line request waits for. Until it arrives the
/// head would stall again on every L2 tick, so it is not re-presented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// A clean copy-back whose fill may evict a dirty line: a DRAM slot.
    DramSlot,
    /// A primary miss: a DRAM slot and a free MSHR entry.
    SlotAndMshr,
    /// A merge into a full merge list (`Blocked`): the line's fill.
    Fill,
}

record! {
    /// Partition-level counters beyond the embedded cache/DRAM stats.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct PartitionStats {
        /// Atomic operations serviced by the AOU.
        pub atomics: u64,
        /// Dirty write-backs dropped because the DRAM queue was full.
        pub dropped_writebacks: u64,
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
    /// What the head-of-line request stalled on at its last L2 tick;
    /// cleared by any fill. Acceleration state: never serialized, reset on
    /// restore.
    wait: Option<Wait>,
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
            wait: None,
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
    /// the next L2 tick unless its head is parked: then only a DRAM
    /// commit (a slot) or a fill (an MSHR entry, a merge slot) can move
    /// it, both bounded below.
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
        if !self.incoming.is_empty() && !self.parked() {
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

    /// Whether the head-of-line request still lacks what it stalled on
    /// (O(1): a fill clears `wait`, and the DRAM and MSHR checks are
    /// occupancy reads).
    fn parked(&self) -> bool {
        match self.wait {
            None => false,
            Some(Wait::DramSlot) => !self.dram.can_accept(),
            Some(Wait::SlotAndMshr) => !self.dram.can_accept() || self.l2.mshr_full(),
            Some(Wait::Fill) => true,
        }
    }

    /// Applies completed DRAM reads: fill the L2, release merged targets.
    fn drain_dram(&mut self, now: u64) {
        let mut targets = std::mem::take(&mut self.target_scratch);
        while let Some(token) = self.dram.pop_completed(now) {
            let DramToken::Fill(local) = token else {
                continue;
            };
            // A fill frees an MSHR entry and may make the head hit or
            // merge: re-present it.
            self.wait = None;
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
                        self.stats.dropped_writebacks += 1;
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
    /// The head is decoded and admitted once, and the admission is
    /// weighed against the DRAM queue *before* anything is committed, so
    /// a stalled head-of-line request does not re-access the L2 every
    /// tick (which would corrupt statistics and policy ageing). A stalled
    /// head parks on what it waits for and is not admitted again until
    /// that changes.
    fn serve_one(&mut self, now: u64) {
        let Some(&req) = self.incoming.front() else {
            return;
        };
        if self.parked() {
            return;
        }
        self.wait = None;
        let local = partition_local_line(req.line, self.partitions);
        let geom = self.l2.cache().geometry();
        let (set, tag) = (geom.set_of(local), geom.tag_of(local));
        let admission = self.l2.admit(local, set, tag, req.kind);

        if req.kind == AccessKind::CopyBack {
            // Clean copy-back from an upstream cache (RDC-style): install
            // the line clean, off the hit/miss bookkeeping — maintenance
            // traffic must not perturb L2 statistics or MSHR state. If the
            // line is resident, or a demand miss for it is in flight (whose
            // DRAM fill will install identical data), it is dropped.
            if let Admission::Miss | Admission::Blocked(MshrReject::Full) = admission {
                // A clean fill can still evict a dirty victim, which needs
                // a DRAM write-back slot.
                if !self.dram.can_accept() {
                    self.wait = Some(Wait::DramSlot);
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
        let no_slot = admission == Admission::Miss && !self.dram.can_accept();
        if no_slot || admission == Admission::Blocked(MshrReject::Full) {
            self.wait = Some(Wait::SlotAndMshr);
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
        match self
            .l2
            .commit(admission, local, set, tag, req.kind, req.core, target)
        {
            ControllerOutcome::Blocked(_) => {
                // Merge-list depth exhausted until the line's fill.
                self.wait = Some(Wait::Fill);
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
    /// construction-time configuration. The parked head is not saved: a
    /// restored head is probed at its next L2 tick, which parks it again.
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
            self.wait = None;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::partition_of;
    use gcache_core::rng::SmallRng;
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
            dropped_writebacks: 2,
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

    /// One seeded case: a tiny partition (so every wait reason occurs), a
    /// request script `(cycle, request)` that ignores the partition's
    /// state, and the response port refusing sends every `block_every`
    /// cycles.
    struct Case {
        cfg: GpuConfig,
        script: Vec<(u64, MemRequest)>,
        block_every: u64,
    }

    fn cases() -> Vec<Case> {
        const KINDS: [AccessKind; 4] = [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Atomic,
            AccessKind::CopyBack,
        ];
        (0..48u64)
            .map(|case| {
                let mut rng = SmallRng::seed_from_u64(0x9A27 ^ case);
                let cfg = GpuConfig {
                    dram_queue: rng.gen_range(1..5) as usize,
                    l2_mshr_entries: rng.gen_range(1..5) as usize,
                    l2_mshr_merge: rng.gen_range(1..3) as usize,
                    l2_period: rng.gen_range(1..4),
                    ..GpuConfig::fermi().unwrap()
                };
                // 48 lines over two of the bank's 64 sets (16 ways each):
                // hits, merges and dirty evictions.
                let load = rng.gen_range(8..64);
                let mut script = Vec::new();
                for cycle in 1..400 {
                    for _ in 0..2 {
                        if rng.gen_range(0..64) >= load {
                            continue;
                        }
                        let local = rng.gen_range(0..2) + 64 * rng.gen_range(0..24);
                        let kind = KINDS[[0, 0, 0, 1, 1, 2, 3, 3][rng.gen_range(0..8) as usize]];
                        script.push((
                            cycle,
                            MemRequest {
                                line: line_for_p0(local),
                                kind,
                                core: CoreId(rng.gen_range(0..16) as usize),
                                warp: script.len(),
                                class: None,
                            },
                        ));
                    }
                }
                Case {
                    cfg,
                    script,
                    block_every: rng.gen_range(3..9),
                }
            })
            .collect()
    }

    /// What a driver saw of one partition over a case.
    struct Run {
        /// Every response with the cycle it left the partition.
        responses: Vec<(u64, MemResponse)>,
        /// Snapshots: mid-stream and at the end.
        bytes: Vec<Vec<u8>>,
        end: Partition,
        /// Wait reasons seen after a tick.
        waits: Vec<Wait>,
        ticks: u64,
    }

    fn bytes_of(p: &Partition) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        p.save(&mut w);
        w.finish()
    }

    /// Drives a partition over `case` the way [`crate::system::Gated`]
    /// does when `gated` (ticked only at its `next_event` bound or on an
    /// arrival, DRAM gating on), else ticked every cycle and never left
    /// parked — the reference. At `restore_at`, an arrival cycle, it is
    /// saved and restored into a fresh partition.
    fn drive(case: &Case, gated: bool, restore_at: u64) -> Run {
        let cfg = GpuConfig {
            fast_forward: gated,
            ..case.cfg.clone()
        };
        let mut p = Partition::new(PartitionId(0), &cfg);
        let (mut responses, mut bytes, mut waits) = (Vec::new(), Vec::new(), Vec::new());
        let mut ticks = 0;
        let (mut now, mut next, mut wake) = (0, 0, 0);
        while next < case.script.len() || !p.is_idle() {
            now += 1;
            assert!(now < 100_000, "partition failed to drain");
            let arrival = case.script.get(next).is_some_and(|&(at, _)| at == now);
            if gated && now < wake && !arrival {
                continue;
            }
            while let Some(&(_, req)) = case.script.get(next).filter(|&&(at, _)| at == now) {
                p.push_request(req);
                next += 1;
            }
            if !gated {
                // The reference re-probes its head on every L2 tick.
                p.wait = None;
            }
            p.tick(now);
            ticks += 1;
            if now % case.block_every != 0 {
                while let Some(r) = p.pop_response(now) {
                    responses.push((now, r));
                }
            }
            if let Some(w) = p.wait.filter(|w| !waits.contains(w)) {
                waits.push(w);
            }
            wake = p.next_event(now).unwrap_or(u64::MAX);
            if now == restore_at {
                bytes.push(bytes_of(&p));
                p = Partition::new(PartitionId(0), &cfg);
                p.restore(&mut SnapshotReader::new(&bytes[0]).unwrap())
                    .unwrap();
                wake = 0;
            }
        }
        bytes.push(bytes_of(&p));
        Run {
            responses,
            bytes,
            end: p,
            waits,
            ticks,
        }
    }

    /// Seeded property: a partition ticked only when it asks (or when a
    /// request arrives) answers the same requests on the same cycles as
    /// one ticked every cycle that re-probes its stalled head each time,
    /// and holds the same counts and bytes, across a mid-stream save and
    /// restore.
    #[test]
    fn gated_partition_matches_every_cycle_partition() {
        let (mut waits, mut dropped) = (Vec::new(), 0);
        for (i, case) in cases().iter().enumerate() {
            let restore_at = case.script[case.script.len() / 2].0;
            let every = drive(case, false, restore_at);
            let gated = drive(case, true, restore_at);
            assert_eq!(gated.responses, every.responses, "case {i}");
            let (g, e) = (&gated.end, &every.end);
            assert_eq!(
                g.stats().dropped_writebacks,
                e.stats().dropped_writebacks,
                "case {i}"
            );
            assert_eq!(g.stats().atomics, e.stats().atomics, "case {i}");
            assert_eq!(g.l2_stats(), e.l2_stats(), "case {i}");
            assert_eq!(g.dram_stats(), e.dram_stats(), "case {i}");
            assert!(gated.bytes == every.bytes, "case {i}: saved state differs");
            assert!(gated.ticks < every.ticks, "case {i}: gating elided nothing");
            waits.extend(gated.waits);
            dropped += g.stats().dropped_writebacks;
        }
        for wait in [Wait::DramSlot, Wait::SlotAndMshr, Wait::Fill] {
            assert!(waits.contains(&wait), "no head ever waited on {wait:?}");
        }
        assert!(dropped > 0, "no case dropped a write-back");
    }
}
