//! The per-core L1 memory unit: a thin adapter over the generic
//! [`CacheController`] configured write-through/no-allocate with forwarded
//! atomics, plus the request-generation rules of §2.2.
//!
//! Atomics never touch L1 data (they execute at the partition's atomic
//! unit); a resident copy of an atomically-updated line is invalidated to
//! keep the timing model's state machine honest. All of that lives in the
//! shared controller — this type only translates [`ControllerOutcome`]s
//! into the [`MemRequest`]s the core must inject.

use crate::request::{MemRequest, WarpSlot};
use gcache_core::addr::{CoreId, LineAddr};
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{AtomicHandling, CacheController, ControllerOutcome, FillParams};
use gcache_core::policy::{AccessKind, PolicyKind, RequestClass};
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::stats::CacheStats;
use gcache_core::trace::{SharedTraceRing, TraceLevel, TraceSource};

/// What the core must do after presenting an access to the L1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1Outcome {
    /// Load hit: data is available; nothing to send.
    Hit,
    /// Load/atomic miss, primary: send the returned request downstream.
    MissPrimary(MemRequest),
    /// Load miss merged into an outstanding entry: nothing to send, the
    /// warp will be woken by the merged fill.
    MissMerged,
    /// No MSHR resources: the access must be replayed later.
    Blocked,
    /// Store: forwarded downstream regardless of hit/miss (write-through,
    /// no-allocate).
    WriteForward(MemRequest),
    /// Atomic: forwarded to the partition's atomic unit.
    AtomicForward(MemRequest),
}

impl L1Outcome {
    /// The request to inject into the network, if any.
    pub fn request(&self) -> Option<MemRequest> {
        match self {
            L1Outcome::MissPrimary(r)
            | L1Outcome::WriteForward(r)
            | L1Outcome::AtomicForward(r) => Some(*r),
            _ => None,
        }
    }
}

/// The per-core L1 memory unit.
#[derive(Debug)]
pub struct L1Controller {
    core: CoreId,
    ctrl: CacheController<WarpSlot>,
}

impl L1Controller {
    /// Creates an L1 for `core` with the given cache configuration, policy
    /// and MSHR shape.
    pub fn new(
        core: CoreId,
        cfg: CacheConfig,
        policy: impl Into<PolicyKind>,
        mshr_entries: usize,
        mshr_merge: usize,
    ) -> Self {
        L1Controller {
            core,
            ctrl: CacheController::new(
                Cache::new(cfg, policy),
                mshr_entries,
                mshr_merge,
                AtomicHandling::Forward,
            ),
        }
    }

    /// The owning core.
    pub const fn core(&self) -> CoreId {
        self.core
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        self.ctrl.stats()
    }

    /// Direct access to the cache (flush at kernel end, inspection).
    pub fn cache_mut(&mut self) -> &mut Cache {
        self.ctrl.cache_mut()
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &Cache {
        self.ctrl.cache()
    }

    /// Accesses blocked on MSHR resources (replayed later).
    pub const fn replays(&self) -> u64 {
        self.ctrl.blocked()
    }

    /// Highest MSHR occupancy seen so far (telemetry gauge).
    pub fn mshr_peak(&self) -> usize {
        self.ctrl.mshr().peak_occupancy()
    }

    /// Attaches a shared event-trace ring to this L1 (cache fill/epoch
    /// events plus MSHR allocate/release events), tagged `L1#<core>`.
    pub fn attach_trace(&mut self, ring: &SharedTraceRing) {
        let src = TraceSource::new(TraceLevel::L1, self.core.0 as u16);
        self.ctrl.attach_trace(src, ring);
    }

    /// Whether presenting (`line`, `kind`) right now would return
    /// [`L1Outcome::Blocked`] — side-effect-free, for fast-forward
    /// probing. A blocked access can only unblock via a returning fill,
    /// so the probe's answer is stable across event-free cycles.
    pub fn would_block(&self, line: LineAddr, kind: AccessKind) -> bool {
        self.ctrl.would_block(line, kind)
    }

    /// Bulk-records `n` skipped replay attempts of a blocked access (the
    /// per-cycle counterpart is inside [`L1Controller::access`]).
    pub fn note_blocked(&mut self, n: u64) {
        self.ctrl.note_blocked(n);
    }

    /// Whether all misses have been filled.
    pub fn quiesced(&self) -> bool {
        self.ctrl.quiesced()
    }

    /// Presents one coalesced transaction to the L1, its `set`/`tag`
    /// already decoded: the batched coalesce→access pipeline decodes a
    /// warp's whole coalesced group once at issue time (see
    /// [`CacheController::access_decoded`]). `class` is the issuing warp's
    /// declared request class; it rides any generated downstream request.
    pub fn access(
        &mut self,
        line: LineAddr,
        set: usize,
        tag: u64,
        kind: AccessKind,
        warp: WarpSlot,
        class: Option<RequestClass>,
    ) -> L1Outcome {
        let out = self
            .ctrl
            .access_decoded(line, set, tag, kind, self.core, warp);
        translate(line, kind, self.core, warp, class, out)
    }

    /// Handles a returning read fill: applies the (possibly bypassing)
    /// fill decision with the L2's victim hint, clears `out` and fills it
    /// with the warps to wake, recycling the MSHR entry's storage. The
    /// per-cycle response path calls this with a scratch buffer owned by
    /// the core, so steady-state fills perform no heap allocation.
    ///
    /// `class` is the primary requester's class echoed back by the L2 (it
    /// feeds the bypass plane's fill decision). When the copy-back plane
    /// elects to push the displaced clean victim downstream, the
    /// corresponding [`AccessKind::CopyBack`] request is returned for the
    /// core to queue.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR entry exists for `line` — a response the L1 never
    /// requested indicates a protocol bug.
    pub fn fill(
        &mut self,
        line: LineAddr,
        victim_hint: bool,
        class: Option<RequestClass>,
        out: &mut Vec<WarpSlot>,
    ) -> Option<MemRequest> {
        let core = self.core;
        let outcome = self.ctrl.fill_with(line, out, |_| FillParams {
            core,
            victim_hint,
            dirty: false,
            class,
        });
        debug_assert!(
            outcome.evicted.is_none_or(|e| !e.dirty),
            "write-through L1 evicted a dirty line"
        );
        outcome.copy_back.map(|ev| MemRequest {
            line: ev.line,
            kind: AccessKind::CopyBack,
            core,
            warp: 0,
            class: None,
        })
    }
}

/// Maps a [`ControllerOutcome`] to the request-generation rules of §2.2.
fn translate(
    line: LineAddr,
    kind: AccessKind,
    core: CoreId,
    warp: WarpSlot,
    class: Option<RequestClass>,
    out: ControllerOutcome,
) -> L1Outcome {
    let request = MemRequest {
        line,
        kind,
        core,
        warp,
        class,
    };
    match out {
        ControllerOutcome::Hit { .. } => L1Outcome::Hit,
        ControllerOutcome::MissPrimary => L1Outcome::MissPrimary(request),
        ControllerOutcome::MissMerged => L1Outcome::MissMerged,
        ControllerOutcome::Blocked(_) => L1Outcome::Blocked,
        ControllerOutcome::Forward => match kind {
            AccessKind::Write => L1Outcome::WriteForward(request),
            AccessKind::Atomic => L1Outcome::AtomicForward(request),
            AccessKind::Read | AccessKind::CopyBack => {
                unreachable!("reads and copy-backs are never forwarded")
            }
        },
    }
}

impl Snapshot for L1Controller {
    fn save(&self, w: &mut SnapshotWriter) {
        // `core` is construction-time identity; only the controller holds
        // mutable state.
        self.ctrl.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.ctrl.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::geometry::CacheGeometry;
    use gcache_core::policy::lru::Lru;

    fn l1() -> L1Controller {
        let geom = CacheGeometry::new(1024, 2, 128).unwrap();
        L1Controller::new(CoreId(3), CacheConfig::l1(geom, 0), Lru::new(&geom), 4, 2)
    }

    /// Decodes `line` through the L1's own geometry, as the core does at
    /// issue time, and presents it unclassed.
    fn access(
        l1: &mut L1Controller,
        line: LineAddr,
        kind: AccessKind,
        warp: WarpSlot,
    ) -> L1Outcome {
        let geom = *l1.cache().geometry();
        l1.access(line, geom.set_of(line), geom.tag_of(line), kind, warp, None)
    }

    /// An unclassed fill; the warps it wakes.
    fn fill(l1: &mut L1Controller, line: LineAddr) -> Vec<WarpSlot> {
        let mut woken = Vec::new();
        l1.fill(line, false, None, &mut woken);
        woken
    }

    #[test]
    fn read_miss_primary_then_merge() {
        let mut l1 = l1();
        let line = LineAddr::new(0x10);
        let o = access(&mut l1, line, AccessKind::Read, 0);
        let req = match o {
            L1Outcome::MissPrimary(r) => r,
            other => panic!("expected primary miss, got {other:?}"),
        };
        assert_eq!(req.core, CoreId(3));
        assert_eq!(req.line, line);
        assert_eq!(
            access(&mut l1, line, AccessKind::Read, 1),
            L1Outcome::MissMerged
        );
        let woken = fill(&mut l1, line);
        assert_eq!(woken, vec![0, 1]);
        assert_eq!(access(&mut l1, line, AccessKind::Read, 2), L1Outcome::Hit);
        assert!(l1.quiesced());
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut l1 = l1();
        for i in 0..4 {
            assert!(matches!(
                access(&mut l1, LineAddr::new(i), AccessKind::Read, 0),
                L1Outcome::MissPrimary(_)
            ));
        }
        assert_eq!(
            access(&mut l1, LineAddr::new(9), AccessKind::Read, 0),
            L1Outcome::Blocked
        );
        assert_eq!(l1.replays(), 1);
        // Merge-depth exhaustion also blocks.
        fill(&mut l1, LineAddr::new(0));
        let line = LineAddr::new(10);
        access(&mut l1, line, AccessKind::Read, 0);
        access(&mut l1, line, AccessKind::Read, 1);
        assert_eq!(
            access(&mut l1, line, AccessKind::Read, 2),
            L1Outcome::Blocked
        );
    }

    #[test]
    fn stores_always_forward_and_never_allocate() {
        let mut l1 = l1();
        let line = LineAddr::new(0x20);
        let o = access(&mut l1, line, AccessKind::Write, 5);
        assert!(matches!(o, L1Outcome::WriteForward(_)));
        assert!(!l1.cache().contains(line), "write miss must not allocate");
        assert!(l1.quiesced(), "stores must not occupy MSHRs");
    }

    #[test]
    fn store_to_resident_line_stays_clean() {
        let mut l1 = l1();
        let line = LineAddr::new(0);
        access(&mut l1, line, AccessKind::Read, 0);
        fill(&mut l1, line);
        let o = access(&mut l1, line, AccessKind::Write, 0);
        assert!(matches!(o, L1Outcome::WriteForward(_)));
        assert!(
            l1.cache_mut().flush().is_empty(),
            "WT L1 holds no dirty lines"
        );
    }

    #[test]
    fn atomics_forward() {
        let mut l1 = l1();
        let o = access(&mut l1, LineAddr::new(4), AccessKind::Atomic, 7);
        let req = o.request().unwrap();
        assert_eq!(req.kind, AccessKind::Atomic);
        assert!(req.wants_response());
    }

    #[test]
    fn atomic_invalidates_resident_copy() {
        let mut l1 = l1();
        let line = LineAddr::new(0);
        access(&mut l1, line, AccessKind::Read, 0);
        fill(&mut l1, line);
        assert!(l1.cache().contains(line));
        access(&mut l1, line, AccessKind::Atomic, 0);
        assert!(
            !l1.cache().contains(line),
            "atomic must drop the stale L1 copy"
        );
    }

    #[test]
    fn bypassed_fill_still_wakes_warps() {
        use gcache_core::policy::pdp::StaticPdp;
        let geom = CacheGeometry::new(256, 2, 128).unwrap(); // 1 set, 2 ways
        let mut l1 = L1Controller::new(
            CoreId(0),
            CacheConfig::l1(geom, 0),
            StaticPdp::new(&geom, 16),
            4,
            4,
        );
        // Fill both ways (protected), then a third line must bypass.
        for i in 0..2u64 {
            access(&mut l1, LineAddr::new(i), AccessKind::Read, 0);
            fill(&mut l1, LineAddr::new(i));
        }
        access(&mut l1, LineAddr::new(2), AccessKind::Read, 9);
        let woken = fill(&mut l1, LineAddr::new(2));
        assert_eq!(woken, vec![9], "bypass must still deliver data");
        assert!(!l1.cache().contains(LineAddr::new(2)));
        assert_eq!(l1.stats().bypassed_fills, 1);
    }

    #[test]
    #[should_panic(expected = "without an outstanding")]
    fn unsolicited_fill_panics() {
        let mut l1 = l1();
        fill(&mut l1, LineAddr::new(0));
    }
}
