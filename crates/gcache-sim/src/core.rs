//! The SIMT core: warp contexts, CTA slots, the issue stage, the LD/ST
//! unit (coalescer → L1 → network), and barrier handling.
//! The core owns its L1 as a plain [`CacheController`] (write-through,
//! no-allocate, atomics forwarded); a primary miss, a store and an atomic
//! each become one [`MemRequest`] (§2.2).

use crate::coalescer::coalesce_into;
use crate::config::GpuConfig;
use crate::gpu::SimError;
use crate::isa::{GridDim, Kernel, Op, WarpProgram};
use crate::request::{MemRequest, MemResponse, WarpSlot};
use gcache_core::addr::{CoreId, LineAddr};
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{
    Admission, AtomicHandling, CacheController, ControllerOutcome, FillParams,
};
use gcache_core::geometry::CacheGeometry;
use gcache_core::policy::{AccessKind, PolicyKind, RequestClass};
use gcache_core::record;
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

use crate::scheduler::WarpScheduler;

/// Execution state of one warp context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    /// Can issue.
    Ready,
    /// Busy with compute/scratchpad until the given cycle.
    ComputeUntil(u64),
    /// Blocked until all outstanding memory transactions return.
    WaitMem,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Program exhausted.
    Done,
}

struct Warp {
    program: Box<dyn WarpProgram>,
    /// Buffered op that could not issue (structural stall).
    pending_op: Option<Op>,
    cta_slot: usize,
    state: WarpState,
    outstanding: u32,
    age: u64,
    /// Ops pulled from `program` so far. A warp program is a pure function
    /// of its kernel coordinates, so this counter is all a snapshot needs:
    /// restore rebuilds the program and replays this many `next_op` calls.
    /// Invariant: when `pending_op` is `Some`, it holds the most recently
    /// pulled op (ops are pulled one at a time and either executed or
    /// parked in `pending_op` until they issue).
    ops_pulled: u64,
    /// Request class declared by the last [`Op::SetClass`]; stamps every
    /// subsequent global-memory transaction this warp issues.
    class: Option<RequestClass>,
}

impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("cta_slot", &self.cta_slot)
            .field("state", &self.state)
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

/// One coalesced line transaction awaiting L1/network issue.
///
/// `set`/`tag` are decoded in one batched pass over the warp's whole
/// coalesced group at issue time, so the per-cycle LD/ST pump enters the
/// L1 through the pre-decoded controller path instead of re-deriving
/// them per presentation. They are
/// derived state: snapshots serialize only `(line, kind, warp)` and
/// restore recomputes the decode, keeping the wire format unchanged.
#[derive(Debug, Clone, Copy)]
struct LdstTxn {
    line: LineAddr,
    set: usize,
    tag: u64,
    kind: AccessKind,
    warp: WarpSlot,
    class: Option<RequestClass>,
}

impl LdstTxn {
    /// Whether `l1` would hold this transaction for MSHR room, which only
    /// a fill frees.
    fn blocked(&self, l1: &CacheController<WarpSlot>) -> bool {
        matches!(
            l1.admit(self.line, self.set, self.tag, self.kind),
            Admission::Blocked(_)
        )
    }
}

record! {
    #[derive(Debug)]
    struct CtaState {
        cta_id: usize,
        threads: usize,
        warp_slots: Vec<usize>,
        warps_done: usize,
        at_barrier: usize,
    }
}

record! {
    /// Per-core issue/stall statistics.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct CoreStats {
        /// Warp instructions issued.
        pub instructions: u64,
        /// Memory instructions among them.
        pub mem_instructions: u64,
        /// Coalesced line transactions generated.
        pub transactions: u64,
        /// Cycles with no ready warp to issue.
        pub idle_cycles: u64,
        /// Issue slots lost because the LD/ST queue was full.
        pub ldst_full_stalls: u64,
        /// LD/ST-pipeline cycles lost to MSHR or network backpressure.
        pub mem_stall_cycles: u64,
        /// CTAs run to completion on this core.
        pub ctas_completed: u64,
    }
    impl merge;
}

/// One SIMT core.
#[derive(Debug)]
pub struct SimtCore {
    id: CoreId,
    warp_width: usize,
    shared_latency: u32,
    line_size: u32,
    max_threads: usize,
    /// Warp contexts (fixed slot array).
    warps: Vec<Option<Warp>>,
    ctas: Vec<Option<CtaState>>,
    threads_resident: usize,
    l1: CacheController<WarpSlot>,
    /// L1 geometry, cached for the batched set/tag decode at issue time.
    l1_geom: CacheGeometry,
    /// Coalesced transactions awaiting L1/network issue, one per cycle.
    ldst_queue: VecDeque<LdstTxn>,
    ldst_capacity: usize,
    /// Clean copy-backs the L1's copy-back plane produced, awaiting
    /// network injection (they drain ahead of demand traffic and are
    /// fire-and-forget). Always empty under the default planes.
    copyback_queue: VecDeque<MemRequest>,
    /// Maintained bitmask of warp slots in [`WarpState::Ready`] — the
    /// issue stage and [`SimtCore::next_event`] scan this word instead of
    /// the whole slot array (the mesh `rwake` trick). Rebuilt, not
    /// serialized, on snapshot restore.
    ready_mask: u64,
    /// Maintained bitmask of warp slots in [`WarpState::ComputeUntil`];
    /// only these are examined for their retire cycle.
    compute_mask: u64,
    sched: WarpScheduler,
    launch_seq: u64,
    stats: CoreStats,
    /// Scratch for warps woken by a fill — reused across responses so the
    /// per-fill path performs no allocation.
    woken_scratch: Vec<WarpSlot>,
    /// Scratch for coalesced lines — reused across memory instructions.
    coalesce_scratch: Vec<LineAddr>,
}

impl SimtCore {
    /// Builds a core per `cfg` with the given (already constructed) L1
    /// policy.
    pub fn new(id: CoreId, cfg: &GpuConfig, policy: impl Into<PolicyKind>) -> Self {
        let l1_cfg = CacheConfig::l1(cfg.l1_geometry, cfg.l1_epoch_len)
            .with_bypass(cfg.l1_bypass)
            .with_copy_back(cfg.l1_copy_back);
        let l1 = CacheController::new(
            Cache::new(l1_cfg, policy),
            cfg.l1_mshr_entries,
            cfg.l1_mshr_merge,
            AtomicHandling::Forward,
        );
        assert!(
            cfg.max_warps_per_core <= 64,
            "warp ready masks hold at most 64 slots"
        );
        SimtCore {
            id,
            warp_width: cfg.warp_width,
            shared_latency: cfg.shared_latency,
            line_size: cfg.line_size(),
            max_threads: cfg.max_threads_per_core,
            warps: (0..cfg.max_warps_per_core).map(|_| None).collect(),
            ctas: (0..cfg.max_ctas_per_core).map(|_| None).collect(),
            threads_resident: 0,
            l1,
            l1_geom: cfg.l1_geometry,
            ldst_queue: VecDeque::with_capacity(4 * cfg.warp_width),
            ldst_capacity: 4 * cfg.warp_width,
            copyback_queue: VecDeque::new(),
            ready_mask: 0,
            compute_mask: 0,
            sched: WarpScheduler::new(cfg.warp_sched),
            launch_seq: 0,
            stats: CoreStats::default(),
            woken_scratch: Vec::with_capacity(cfg.l1_mshr_merge),
            coalesce_scratch: Vec::with_capacity(cfg.warp_width),
        }
    }

    /// This core's id.
    pub const fn id(&self) -> CoreId {
        self.id
    }

    /// Issue statistics.
    pub const fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The L1 controller.
    pub fn l1(&self) -> &CacheController<WarpSlot> {
        &self.l1
    }

    /// Mutable access to the L1 (kernel-end flush, trace attachment).
    pub fn l1_mut(&mut self) -> &mut CacheController<WarpSlot> {
        &mut self.l1
    }

    /// Number of resident CTAs.
    pub fn resident_ctas(&self) -> usize {
        self.ctas.iter().filter(|c| c.is_some()).count()
    }

    /// Whether `kernel`'s next CTA fits right now.
    pub fn can_launch(&self, kernel: &dyn Kernel) -> bool {
        let grid = kernel.grid();
        let wpc = grid.warps_per_cta(self.warp_width);
        let free_warp_slots = self.warps.iter().filter(|w| w.is_none()).count();
        self.ctas.iter().any(|c| c.is_none())
            && free_warp_slots >= wpc
            && self.threads_resident + grid.threads_per_cta <= self.max_threads
    }

    /// Whether one CTA of `grid` fits a core of `cfg` with nothing
    /// resident — [`SimtCore::can_launch`]'s three limits against the
    /// core's whole capacity. A grid with no CTAs asks for nothing and
    /// always fits.
    ///
    /// # Errors
    ///
    /// [`SimError::CtaNeverFits`] naming the first limit one CTA exceeds.
    pub fn check_cta_fits(cfg: &GpuConfig, grid: GridDim) -> Result<(), SimError> {
        let never = |limit, asked, allowed| {
            Err(SimError::CtaNeverFits {
                limit,
                asked,
                allowed,
            })
        };
        if grid.ctas == 0 {
            return Ok(());
        }
        if grid.threads_per_cta == 0 {
            return never("min threads_per_cta", 0, 1);
        }
        let warps = grid.warps_per_cta(cfg.warp_width);
        for (limit, asked, allowed) in [
            (
                "max_threads_per_core",
                grid.threads_per_cta,
                cfg.max_threads_per_core,
            ),
            ("max_warps_per_core", warps, cfg.max_warps_per_core),
            ("max_ctas_per_core", 1, cfg.max_ctas_per_core),
        ] {
            if asked > allowed {
                return never(limit, asked, allowed);
            }
        }
        Ok(())
    }

    /// Places CTA `cta_id` of `kernel` on this core.
    ///
    /// # Panics
    ///
    /// Panics if [`SimtCore::can_launch`] is false.
    pub fn launch_cta(&mut self, kernel: &dyn Kernel, cta_id: usize) {
        assert!(self.can_launch(kernel), "launch_cta without capacity");
        let grid = kernel.grid();
        let wpc = grid.warps_per_cta(self.warp_width);
        let cta_slot = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("free CTA slot");
        let mut warp_slots = Vec::with_capacity(wpc);
        for w in 0..wpc {
            let slot = self
                .warps
                .iter()
                .position(|s| s.is_none())
                .expect("free warp slot");
            self.launch_seq += 1;
            self.warps[slot] = Some(Warp {
                program: kernel.warp_program(cta_id, w),
                pending_op: None,
                cta_slot,
                state: WarpState::Ready,
                outstanding: 0,
                age: self.launch_seq,
                ops_pulled: 0,
                class: None,
            });
            self.ready_mask |= 1 << slot;
            warp_slots.push(slot);
        }
        self.threads_resident += grid.threads_per_cta;
        self.ctas[cta_slot] = Some(CtaState {
            cta_id,
            threads: grid.threads_per_cta,
            warp_slots,
            warps_done: 0,
            at_barrier: 0,
        });
    }

    /// Whether all work (warps, LD/ST queue, outstanding misses) is done.
    pub fn is_idle(&self) -> bool {
        self.ctas.iter().all(|c| c.is_none())
            && self.ldst_queue.is_empty()
            && self.copyback_queue.is_empty()
            && self.l1.quiesced()
    }

    /// Delivers a memory response from the network.
    pub fn on_response(&mut self, resp: MemResponse) {
        match resp.kind {
            AccessKind::Read => {
                // Borrow dance: take the scratch buffer so `fill_with` and
                // `complete_mem` don't alias `self`.
                let mut woken = std::mem::take(&mut self.woken_scratch);
                let core = self.id;
                let outcome = self.l1.fill_with(resp.line, &mut woken, |_| FillParams {
                    core,
                    victim_hint: resp.victim_hint,
                    dirty: false,
                    class: resp.class,
                });
                debug_assert!(
                    outcome.evicted.is_none_or(|e| !e.dirty),
                    "write-through L1 evicted a dirty line"
                );
                // The copy-back plane pushes some clean victims downstream.
                if let Some(ev) = outcome.copy_back {
                    self.copyback_queue.push_back(MemRequest {
                        line: ev.line,
                        kind: AccessKind::CopyBack,
                        core,
                        warp: 0,
                        class: None,
                    });
                }
                for &warp in &woken {
                    self.complete_mem(warp);
                }
                self.woken_scratch = woken;
            }
            AccessKind::Atomic => self.complete_mem(resp.warp),
            AccessKind::Write => {}
            AccessKind::CopyBack => unreachable!("copy-backs never generate responses"),
        }
    }

    fn complete_mem(&mut self, slot: WarpSlot) {
        if let Some(w) = self.warps[slot].as_mut() {
            debug_assert!(w.outstanding > 0, "memory completion underflow");
            w.outstanding = w.outstanding.saturating_sub(1);
            if w.outstanding == 0 && w.state == WarpState::WaitMem {
                w.state = WarpState::Ready;
                self.ready_mask |= 1 << slot;
            }
        }
    }

    /// One core cycle: LD/ST pipeline then issue. Any generated network
    /// request is returned for the GPU to inject (at most one per cycle);
    /// `can_inject` tells the core whether the network can take it.
    pub fn tick(&mut self, now: u64, can_inject: bool) -> Option<MemRequest> {
        let request = self.pump_ldst(can_inject);
        self.issue(now);
        request
    }

    /// A lower bound on this core's next state-changing cycle, given that
    /// no external input (responses, network drain) arrives — so
    /// `can_inject` is frozen across the gap. `None` means the core can
    /// only be woken from outside. Per-cycle stall accounting over the
    /// skipped gap is replayed by [`SimtCore::skip`].
    pub fn next_event(&self, now: u64, can_inject: bool) -> Option<u64> {
        // A queued clean copy-back injects next cycle if the network has
        // space (it is parked on backpressure otherwise).
        if can_inject && !self.copyback_queue.is_empty() {
            return Some(now + 1);
        }
        // The head LD/ST transaction retires next cycle unless it is
        // parked on network backpressure or on L1 MSHR resources (both
        // freed only by external events).
        if let Some(txn) = self.ldst_queue.front() {
            if can_inject && !txn.blocked(&self.l1) {
                return Some(now + 1);
            }
        }
        // The issue stage acts at the earliest cycle any warp is
        // pickable: Ready warps next cycle (even a warp that just lost
        // arbitration, or one parked on a full LD/ST queue — its
        // structural stall is per-cycle accounting that must be ticked),
        // compute-bound warps when their op retires. The maintained masks
        // bound the scan to the runnable slots.
        if self.ready_mask != 0 {
            return Some(now + 1);
        }
        let mut ev: Option<u64> = None;
        let mut m = self.compute_mask;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            let Some(w) = self.warps[s].as_ref() else {
                continue;
            };
            let WarpState::ComputeUntil(t) = w.state else {
                continue;
            };
            let t = t.max(now + 1);
            if t == now + 1 {
                return Some(t);
            }
            ev = Some(ev.map_or(t, |e| e.min(t)));
        }
        ev
    }

    /// Whether the head LD/ST transaction is ready to go and parked only
    /// on network backpressure — the one wake condition
    /// [`SimtCore::next_event`] cannot bound by a cycle number, so the
    /// caller re-checks it against the live network each cycle.
    pub fn head_waiting_on_inject(&self) -> bool {
        !self.copyback_queue.is_empty()
            || self
                .ldst_queue
                .front()
                .is_some_and(|txn| !txn.blocked(&self.l1))
    }

    /// Replays the per-cycle accounting of `cycles` skipped event-free
    /// cycles (`now + 1 ..= now + cycles`): on each of them the head
    /// LD/ST transaction (if any) would have stalled, the issue stage
    /// would have found no pickable warp, and the scheduler would have
    /// applied its (idempotent) no-candidate transition.
    pub fn skip(&mut self, now: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert!(
            self.next_event(now, false).is_none_or(|t| t > now + cycles),
            "fast-forward skipped into a live cycle"
        );
        if !self.ldst_queue.is_empty() {
            self.stats.mem_stall_cycles += cycles;
        }
        self.stats.idle_cycles += cycles;
        self.sched.note_idle();
    }

    /// Processes the head LD/ST transaction (clean copy-backs drain
    /// first: they hold displaced data and are fire-and-forget).
    fn pump_ldst(&mut self, can_inject: bool) -> Option<MemRequest> {
        if !self.copyback_queue.is_empty() && can_inject {
            // The copy-back takes this cycle's inject slot; a waiting
            // demand transaction stalls exactly as it would on
            // backpressure.
            if !self.ldst_queue.is_empty() {
                self.stats.mem_stall_cycles += 1;
            }
            return self.copyback_queue.pop_front();
        }
        let &LdstTxn {
            line,
            set,
            tag,
            kind,
            warp,
            class,
        } = self.ldst_queue.front()?;
        // Any access may need to inject (miss/write/atomic): gate on
        // network space to avoid mutating L1 state and then failing.
        if !can_inject {
            self.stats.mem_stall_cycles += 1;
            return None;
        }
        // A blocked admission commits as a no-op: the head stays queued
        // and is re-presented next cycle.
        let admission = self.l1.admit(line, set, tag, kind);
        let out = self
            .l1
            .commit(admission, line, set, tag, kind, self.id, warp);
        if let ControllerOutcome::Blocked(_) = out {
            self.stats.mem_stall_cycles += 1;
            return None;
        }
        self.ldst_queue.pop_front();
        match out {
            ControllerOutcome::Hit { .. } => {
                self.complete_mem(warp);
                None
            }
            // A primary miss, a store (fire-and-forget: nothing
            // outstanding) or an atomic goes downstream.
            ControllerOutcome::MissPrimary | ControllerOutcome::Forward => Some(MemRequest {
                line,
                kind,
                core: self.id,
                warp,
                class,
            }),
            ControllerOutcome::MissMerged | ControllerOutcome::Blocked(_) => None,
        }
    }

    /// The issue stage: pick one ready warp, execute its next op. The
    /// candidate set is assembled from the maintained ready/compute masks,
    /// so only runnable slots are examined.
    fn issue(&mut self, now: u64) {
        debug_assert!(self.masks_consistent());
        let slots = self.warps.len();
        let mut candidates = self.ready_mask;
        let mut m = self.compute_mask;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(w) = self.warps[s].as_ref() {
                if let WarpState::ComputeUntil(t) = w.state {
                    if t <= now {
                        candidates |= 1 << s;
                    }
                }
            }
        }
        let warps = &self.warps;
        let picked = self.sched.pick_mask(slots, candidates, |s| {
            warps[s].as_ref().map_or(u64::MAX, |w| w.age)
        });
        let Some(slot) = picked else {
            self.stats.idle_cycles += 1;
            return;
        };

        // The picked warp leaves any compute wait and issues from Ready.
        self.compute_mask &= !(1 << slot);
        self.ready_mask |= 1 << slot;
        let op = {
            let w = self.warps[slot].as_mut().expect("picked slot is live");
            w.state = WarpState::Ready;
            let op = match w.pending_op.take() {
                Some(op) => Some(op),
                None => {
                    let op = w.program.next_op();
                    if op.is_some() {
                        w.ops_pulled += 1;
                    }
                    op
                }
            };
            match op {
                Some(op) => op,
                None => {
                    self.retire_warp(slot);
                    return;
                }
            }
        };

        // Structural check for memory ops: LD/ST queue space for the worst
        // case (one transaction per lane).
        if op.is_global_mem() && self.ldst_queue.len() + self.warp_width > self.ldst_capacity {
            self.stats.ldst_full_stalls += 1;
            let w = self.warps[slot].as_mut().expect("live");
            w.pending_op = Some(op);
            return;
        }

        self.stats.instructions += 1;
        match op {
            Op::Compute { cycles } => {
                let w = self.warps[slot].as_mut().expect("live");
                w.state = WarpState::ComputeUntil(now + cycles.max(1) as u64);
                self.ready_mask &= !(1 << slot);
                self.compute_mask |= 1 << slot;
            }
            Op::Shared => {
                let w = self.warps[slot].as_mut().expect("live");
                w.state = WarpState::ComputeUntil(now + self.shared_latency.max(1) as u64);
                self.ready_mask &= !(1 << slot);
                self.compute_mask |= 1 << slot;
            }
            Op::Barrier => {
                let cta_slot = {
                    let w = self.warps[slot].as_mut().expect("live");
                    w.state = WarpState::Barrier;
                    w.cta_slot
                };
                self.ready_mask &= !(1 << slot);
                let cta = self.ctas[cta_slot].as_mut().expect("warp's CTA is live");
                cta.at_barrier += 1;
                self.maybe_release_barrier(cta_slot);
            }
            Op::SetClass { class } => {
                // A one-slot marker instruction: the warp stays ready and
                // its subsequent memory traffic carries the class.
                let w = self.warps[slot].as_mut().expect("live");
                w.class = class;
            }
            Op::Load { addrs } => self.issue_mem(slot, &addrs, AccessKind::Read, true),
            Op::Atomic { addrs } => self.issue_mem(slot, &addrs, AccessKind::Atomic, true),
            Op::Store { addrs } => self.issue_mem(slot, &addrs, AccessKind::Write, false),
        }
    }

    /// Coalesces a memory op into line transactions and queues them;
    /// `blocking` ops park the warp until all transactions return.
    fn issue_mem(
        &mut self,
        slot: usize,
        addrs: &[Option<gcache_core::addr::Addr>],
        kind: AccessKind,
        blocking: bool,
    ) {
        self.stats.mem_instructions += 1;
        let class = self.warps[slot].as_ref().expect("live").class;
        let mut lines = std::mem::take(&mut self.coalesce_scratch);
        coalesce_into(addrs, self.line_size, &mut lines);
        let n = lines.len() as u32;
        self.stats.transactions += n as u64;
        // Decode the whole coalesced group in one batched pass (first-touch
        // order preserved — issue order is observable, see DESIGN.md §10),
        // so the per-cycle pump enters the L1 pre-decoded.
        for &line in &lines {
            self.ldst_queue.push_back(LdstTxn {
                line,
                set: self.l1_geom.set_of(line),
                tag: self.l1_geom.tag_of(line),
                kind,
                warp: slot,
                class,
            });
        }
        self.coalesce_scratch = lines;
        if blocking && n > 0 {
            let w = self.warps[slot].as_mut().expect("live");
            w.outstanding += n;
            w.state = WarpState::WaitMem;
            self.ready_mask &= !(1 << slot);
        }
    }

    /// A warp ran out of ops: mark done, maybe complete the CTA.
    fn retire_warp(&mut self, slot: usize) {
        let cta_slot = {
            let w = self.warps[slot].as_mut().expect("live");
            w.state = WarpState::Done;
            w.cta_slot
        };
        self.ready_mask &= !(1 << slot);
        self.sched.on_slot_freed(slot);
        let done = {
            let cta = self.ctas[cta_slot].as_mut().expect("live CTA");
            cta.warps_done += 1;
            cta.warps_done == cta.warp_slots.len()
        };
        // A finished warp is an implicit barrier arrival for the rest.
        self.maybe_release_barrier(cta_slot);
        if done {
            let cta = self.ctas[cta_slot].take().expect("live CTA");
            for s in cta.warp_slots {
                self.warps[s] = None;
                self.ready_mask &= !(1 << s);
                self.compute_mask &= !(1 << s);
                self.sched.on_slot_freed(s);
            }
            self.threads_resident -= cta.threads;
            self.stats.ctas_completed += 1;
        }
    }

    /// Second half of a restore: [`Snapshot::restore`] leaves every warp
    /// with a stand-in program (a [`WarpProgram`] is a pure function of
    /// its kernel coordinates, so the snapshot records only how many ops
    /// each warp has pulled); this rebuilds each program from `kernel` —
    /// which must be the kernel that was running when the snapshot was
    /// taken — and replays it to its recorded position.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the restored warp and CTA tables contradict
    /// each other or `kernel` (a warp outside its CTA, a program shorter
    /// than its recorded position).
    pub fn replay(&mut self, kernel: &dyn Kernel) -> Result<(), SnapshotError> {
        for (slot, warp) in self.warps.iter_mut().enumerate() {
            let Some(warp) = warp else { continue };
            let cta_slot = warp.cta_slot;
            let cta = self
                .ctas
                .get(cta_slot)
                .and_then(|c| c.as_ref())
                .ok_or_else(|| SnapshotError::Mismatch {
                    what: format!("warp {slot} references empty CTA slot {cta_slot}"),
                })?;
            let warp_in_cta = cta
                .warp_slots
                .iter()
                .position(|&s| s == slot)
                .ok_or_else(|| SnapshotError::Mismatch {
                    what: format!("warp {slot} missing from CTA slot {cta_slot}"),
                })?;
            let mut program = kernel.warp_program(cta.cta_id, warp_in_cta);
            let mut last = None;
            for pulled in 0..warp.ops_pulled {
                last = program.next_op();
                if last.is_none() {
                    return Err(SnapshotError::BadValue {
                        what: format!("warp replay underrun (program ended after {pulled} ops)"),
                        value: warp.ops_pulled,
                    });
                }
            }
            if warp.pending_op.is_some() {
                warp.pending_op = Some(last.ok_or_else(|| SnapshotError::Mismatch {
                    what: format!("warp {slot} has a pending op but pulled none"),
                })?);
            }
            warp.program = program;
        }
        Ok(())
    }

    /// Whether the maintained ready/compute words equal the reference
    /// recomputed from the warp states. Debug-assert only — the hot path
    /// never scans the slot array.
    fn masks_consistent(&self) -> bool {
        let mut ready = 0u64;
        let mut compute = 0u64;
        for (s, w) in self.warps.iter().enumerate() {
            match w.as_ref().map(|w| w.state) {
                Some(WarpState::Ready) => ready |= 1 << s,
                Some(WarpState::ComputeUntil(_)) => compute |= 1 << s,
                _ => {}
            }
        }
        (self.ready_mask, self.compute_mask) == (ready, compute)
    }

    /// Releases a CTA's barrier once every live warp has arrived.
    fn maybe_release_barrier(&mut self, cta_slot: usize) {
        // Split borrows: the CTA entry, the warp table and the ready mask
        // are disjoint fields, so the release loop needs no clone of the
        // slot list.
        let Self {
            warps,
            ctas,
            ready_mask,
            ..
        } = self;
        let Some(cta) = ctas[cta_slot].as_mut() else {
            return;
        };
        if cta.at_barrier == 0 || cta.at_barrier + cta.warps_done != cta.warp_slots.len() {
            return;
        }
        for &s in &cta.warp_slots {
            if let Some(w) = warps[s].as_mut() {
                if w.state == WarpState::Barrier {
                    w.state = WarpState::Ready;
                    *ready_mask |= 1 << s;
                }
            }
        }
        cta.at_barrier = 0;
    }
}

gcache_core::tagged! {
    WarpState as "warp state" {
        0 => Ready,
        1 => ComputeUntil(t),
        2 => WaitMem,
        3 => Barrier,
        4 => Done,
    }
}

/// What a restored warp runs until [`SimtCore::replay`] gives it its
/// kernel's program back: nothing, loudly.
struct Unreplayed;

impl WarpProgram for Unreplayed {
    fn next_op(&mut self) -> Option<Op> {
        panic!("warp restored from a snapshot stepped before SimtCore::replay");
    }
}

/// This core's mutable state: warp/CTA contexts, L1, LD/ST queue,
/// scheduler, stats. CTAs are written before warps, each warp as its
/// scalars plus *whether* an op is pending — the op itself is the last one
/// pulled (see `Warp::ops_pulled`) and comes back in [`SimtCore::replay`],
/// until which a pending op is held as an [`Op::Shared`] stand-in.
impl Snapshot for SimtCore {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("core", |w| {
            w.put(&self.ctas);
            w.put(&self.warps.len());
            for warp in &self.warps {
                w.put(&warp.is_some());
                if let Some(wp) = warp {
                    w.put(&(wp.cta_slot, wp.state, wp.outstanding, wp.age));
                    w.put(&(wp.ops_pulled, wp.pending_op.is_some(), wp.class));
                }
            }
            w.put(&self.threads_resident);
            self.l1.save(w);
            // Only the logical fields go on the wire; the set/tag decode
            // is derived state, recomputed on restore.
            w.put(&self.ldst_queue.len());
            for txn in &self.ldst_queue {
                w.put(&(txn.line, txn.kind, txn.warp, txn.class));
            }
            w.put(&self.copyback_queue);
            self.sched.save(w);
            w.put(&self.launch_seq);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("core", |r| {
            r.fill(&mut self.ctas, "CTA slots")?;
            r.count(self.warps.len(), "warp slots")?;
            for slot in &mut self.warps {
                *slot = if r.get()? {
                    Some(Warp {
                        program: Box::new(Unreplayed),
                        cta_slot: r.get()?,
                        state: r.get()?,
                        outstanding: r.get()?,
                        age: r.get()?,
                        ops_pulled: r.get()?,
                        pending_op: r.get::<bool>()?.then_some(Op::Shared),
                        class: r.get()?,
                    })
                } else {
                    None
                };
            }
            // Rebuild the ready/compute words from the restored warp
            // states — maintained acceleration state, never serialized
            // (the mesh head-cache pattern).
            self.ready_mask = 0;
            self.compute_mask = 0;
            for (s, w) in self.warps.iter().enumerate() {
                match w.as_ref().map(|w| w.state) {
                    Some(WarpState::Ready) => self.ready_mask |= 1 << s,
                    Some(WarpState::ComputeUntil(_)) => self.compute_mask |= 1 << s,
                    _ => {}
                }
            }
            self.threads_resident = r.get()?;
            self.l1.restore(r)?;
            // A fill releasing a slot past the table would index out of it
            // in `complete_mem`.
            let slots = self.warps.len();
            if let Some(&slot) = self.l1.mshr().targets().max().filter(|&&s| s >= slots) {
                return Err(SnapshotError::BadValue {
                    what: "L1 MSHR target warp slot".to_string(),
                    value: slot as u64,
                });
            }
            let txns: Vec<(LineAddr, AccessKind, WarpSlot, Option<RequestClass>)> = r.get()?;
            self.ldst_queue.clear();
            for (line, kind, warp, class) in txns {
                // A response for a slot past the table would index out of
                // it in `complete_mem`.
                if warp >= self.warps.len() {
                    return Err(SnapshotError::BadValue {
                        what: "LD/ST transaction warp slot".to_string(),
                        value: warp as u64,
                    });
                }
                self.ldst_queue.push_back(LdstTxn {
                    line,
                    set: self.l1_geom.set_of(line),
                    tag: self.l1_geom.tag_of(line),
                    kind,
                    warp,
                    class,
                });
            }
            self.copyback_queue = r.get()?;
            self.sched.restore(r)?;
            self.launch_seq = r.get()?;
            self.stats = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::snapshot::assert_round_trip;

    #[test]
    fn records_round_trip_through_a_snapshot() {
        assert_round_trip(&CoreStats {
            instructions: 1,
            mem_instructions: 2,
            transactions: 3,
            idle_cycles: 4,
            ldst_full_stalls: 5,
            mem_stall_cycles: 6,
            ctas_completed: 7,
        });
        assert_round_trip(&CtaState {
            cta_id: 1,
            threads: 2,
            warp_slots: vec![3, 4],
            warps_done: 5,
            at_barrier: 6,
        });
        for state in [
            WarpState::Ready,
            WarpState::ComputeUntil(9),
            WarpState::WaitMem,
            WarpState::Barrier,
            WarpState::Done,
        ] {
            assert_round_trip(&state);
        }
        let mut w = SnapshotWriter::new();
        w.put(&5u8);
        let bytes = w.finish();
        assert_eq!(
            SnapshotReader::new(&bytes).unwrap().get::<WarpState>(),
            Err(SnapshotError::BadValue {
                what: "warp state".to_string(),
                value: 5
            })
        );
    }

    /// A sealed `core` section whose LD/ST transaction names a warp slot
    /// past the table is refused, not restored into a core that indexes
    /// out of its warps when the transaction completes.
    #[test]
    fn snapshot_rejects_a_transaction_for_a_slot_past_the_warp_table() {
        let cfg = GpuConfig::fermi().unwrap();
        let core = || {
            let policy = crate::config::make_l1_policy(&cfg.l1_policy, &cfg.l1_geometry);
            SimtCore::new(CoreId(0), &cfg, policy)
        };
        let restore = |warp| {
            let mut saved = core();
            saved.ldst_queue.push_back(LdstTxn {
                line: LineAddr::new(5),
                set: 0,
                tag: 0,
                kind: AccessKind::Read,
                warp,
                class: None,
            });
            let mut w = SnapshotWriter::new();
            saved.save(&mut w);
            let bytes = w.finish();
            core().restore(&mut SnapshotReader::new(&bytes).unwrap())
        };
        let slots = cfg.max_warps_per_core;
        assert_eq!(restore(slots - 1), Ok(()));
        assert_eq!(
            restore(slots),
            Err(SnapshotError::BadValue {
                what: "LD/ST transaction warp slot".to_string(),
                value: slots as u64
            })
        );
    }

    /// The same for a target waiting in the L1's MSHR: the line's fill
    /// would release it into `complete_mem`.
    #[test]
    fn snapshot_rejects_an_l1_mshr_target_past_the_warp_table() {
        let cfg = GpuConfig::fermi().unwrap();
        let core = || {
            let policy = crate::config::make_l1_policy(&cfg.l1_policy, &cfg.l1_geometry);
            SimtCore::new(CoreId(0), &cfg, policy)
        };
        let restore = |slot| {
            let mut saved = core();
            let line = LineAddr::new(5);
            let (set, tag) = (cfg.l1_geometry.set_of(line), cfg.l1_geometry.tag_of(line));
            let kind = AccessKind::Read;
            let admission = saved.l1().admit(line, set, tag, kind);
            saved
                .l1_mut()
                .commit(admission, line, set, tag, kind, CoreId(0), slot);
            let mut w = SnapshotWriter::new();
            saved.save(&mut w);
            let bytes = w.finish();
            core().restore(&mut SnapshotReader::new(&bytes).unwrap())
        };
        assert_eq!(restore(cfg.max_warps_per_core - 1), Ok(()));
        assert_eq!(
            restore(99),
            Err(SnapshotError::BadValue {
                what: "L1 MSHR target warp slot".to_string(),
                value: 99
            })
        );
    }
}
