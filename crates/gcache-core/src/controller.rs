//! A generic non-blocking cache controller: one [`Cache`] (tags + policy +
//! write discipline + optional victim-bit side channel) combined with one
//! [`MshrFile`] and the miss-handling state machine that connects them.
//!
//! Every cache level of the simulated hierarchy is one `CacheController`
//! held by its owner, with no wrapper type in between:
//!
//! * each SIMT core owns an **L1**: a write-through/no-allocate [`Cache`]
//!   with [`AtomicHandling::Forward`] — stores and atomics are forwarded
//!   downstream, reads run the allocate-on-miss machine;
//! * each cluster owns a shared **L1.5** of the same shape;
//! * each memory partition owns an **L2 bank**: a write-back/allocate
//!   [`Cache`] built with victim bits ([`Cache::with_victim_bits`]) and
//!   [`AtomicHandling::Execute`] — every access kind runs the same machine,
//!   and atomics are executed locally (by the partition's AOU).
//!
//! An owner presents a request in two steps. [`CacheController::admit`]
//! probes the tags once and the MSHR file at most once, changes nothing,
//! and answers with an [`Admission`]: forward, hit, merge, miss, or blocked
//! and why. The owner weighs that against its own resources (network
//! credits, DRAM queue space) and either holds the request or hands the
//! admission to [`CacheController::commit`], which carries it out without
//! probing again. [`CacheController::access`] is the two in one call.
//!
//! The controller is timing-free: the owner decides *when* to present an
//! access and when to call [`CacheController::fill_with`]. `T` is the
//! per-request bookkeeping returned when a fill releases the entry's merged
//! targets (warp slots for an L1, response destinations for an L2).

use crate::addr::{CoreId, LineAddr};
use crate::cache::{Cache, FillOutcome, Lookup, WriteMode};
use crate::mshr::{MshrAlloc, MshrFile, MshrReject};
use crate::policy::{AccessCtx, AccessKind, RequestClass};
use crate::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::CacheStats;
use crate::trace::{SharedTraceRing, TraceKind, TraceSource, Tracer};

/// How the controller treats [`AccessKind::Atomic`] accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtomicHandling {
    /// Atomics run the normal lookup/allocate machine and are executed at
    /// this level (GPU L2: the partition's atomic unit works on L2 data).
    Execute,
    /// Atomics never touch this cache's data: a stale resident copy is
    /// invalidated, the access is counted as uncached, and the caller must
    /// forward the request downstream (GPU L1).
    Forward,
}

/// What the owner must do after presenting one access to the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControllerOutcome {
    /// The line is resident; replacement state was refreshed.
    Hit {
        /// Victim-bit value observed for the requesting core (always
        /// `false` without a victim-bit tracker) — the L2-side contention
        /// signal that travels back with read responses.
        victim_hint: bool,
    },
    /// First miss for this line: an MSHR entry was allocated and the owner
    /// must send one request downstream.
    MissPrimary,
    /// Miss merged into an outstanding entry: nothing to send; the target
    /// is released by the matching [`CacheController::fill_with`].
    MissMerged,
    /// The access does not allocate at this level (write-through store,
    /// forwarded atomic): the owner must send it downstream as-is.
    Forward,
    /// No MSHR resources; the access must be replayed later. No cache or
    /// MSHR state was modified and no statistics were recorded.
    Blocked(MshrReject),
}

/// What presenting one access right now would do: the answer of
/// [`CacheController::admit`], carried out by [`CacheController::commit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// A write-through store or a forwarded atomic: sent downstream as-is.
    /// `way` is the resident copy a store updates (`None` for an atomic,
    /// which drops any copy).
    Forward {
        /// The resident way, if any.
        way: Option<usize>,
    },
    /// Resident in this way.
    Hit(usize),
    /// Not resident, already in flight, and the merge list has room.
    Merge,
    /// Not resident, not in flight, and an MSHR entry is free.
    Miss,
    /// Not resident and no MSHR room: [`MshrReject::Full`] for a first
    /// miss, [`MshrReject::MergeFull`] for a merge.
    Blocked(MshrReject),
}

/// The fill decision an owner supplies to [`CacheController::fill_with`]
/// once the merged targets are known.
#[derive(Clone, Copy, Debug)]
pub struct FillParams {
    /// Requesting core recorded in the victim-bit tracker (L2) or carried
    /// through to the policy's fill context (L1).
    pub core: CoreId,
    /// Victim hint attached to the fill (L1: the hint the L2 returned).
    pub victim_hint: bool,
    /// Install the line already dirty (write-allocate of a store miss).
    pub dirty: bool,
    /// Request class the primary requester declared (rides the fill into
    /// the policy's [`AccessCtx`]; `None` for unclassified traffic).
    pub class: Option<RequestClass>,
}

/// A cache plus its MSHR file plus the shared miss-handling state machine.
///
/// # Examples
///
/// ```
/// use gcache_core::addr::{CoreId, LineAddr};
/// use gcache_core::cache::{Cache, CacheConfig};
/// use gcache_core::controller::{AtomicHandling, CacheController, ControllerOutcome, FillParams};
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::lru::Lru;
/// use gcache_core::policy::AccessKind;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(1024, 2, 128)?;
/// let cache = Cache::new(CacheConfig::l1(geom, 0), Lru::new(&geom));
/// let mut ctrl: CacheController<usize> =
///     CacheController::new(cache, 4, 2, AtomicHandling::Forward);
///
/// let line = LineAddr::new(0x10);
/// let out = ctrl.access(line, AccessKind::Read, CoreId(0), 7);
/// assert_eq!(out, ControllerOutcome::MissPrimary);
/// let mut woken = Vec::new();
/// ctrl.fill_with(line, &mut woken, |_| FillParams {
///     core: CoreId(0),
///     victim_hint: false,
///     dirty: false,
///     class: None,
/// });
/// assert_eq!(woken, vec![7]);
/// assert!(ctrl.cache().contains(line));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CacheController<T> {
    cache: Cache,
    mshr: MshrFile<T>,
    atomics: AtomicHandling,
    /// Opt-in MSHR event hook (see [`crate::trace`]); the wrapped cache
    /// carries its own for lookup/fill events.
    trace: Tracer,
}

impl<T> CacheController<T> {
    /// Wraps `cache` (already configured with its write policy, policy and
    /// optional victim-bit tracker) with an MSHR file of `mshr_entries`
    /// entries × `mshr_merge` merged targets.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MshrFile::new`].
    pub fn new(
        cache: Cache,
        mshr_entries: usize,
        mshr_merge: usize,
        atomics: AtomicHandling,
    ) -> Self {
        CacheController {
            cache,
            mshr: MshrFile::new(mshr_entries, mshr_merge),
            atomics,
            trace: Tracer::default(),
        }
    }

    /// Attaches the trace ring: MSHR allocate/merge/release events here
    /// and the wrapped cache's lookups and fills
    /// ([`Cache::attach_trace`]) are all recorded against `src`.
    pub fn attach_trace(&mut self, src: TraceSource, ring: &SharedTraceRing) {
        self.trace = Tracer::attached(src, ring);
        self.cache.attach_trace(src, ring);
    }

    /// Presents one access: decode, [`CacheController::admit`], then
    /// [`CacheController::commit`].
    pub fn access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        core: CoreId,
        target: T,
    ) -> ControllerOutcome {
        let set = self.cache.geometry().set_of(line);
        let tag = self.cache.geometry().tag_of(line);
        let admission = self.admit(line, set, tag, kind);
        self.commit(admission, line, set, tag, kind, core, target)
    }

    /// What presenting (`line`, `kind`) right now would do, with the
    /// set/tag decode already done: one tag probe, at most one MSHR
    /// lookup, and nothing changed. Only a fill or a committed access can
    /// change the answer, so an owner may hold a `Blocked` request across
    /// idle cycles without asking again.
    ///
    /// A [`AccessKind::CopyBack`] is answered too (`Miss` or
    /// `Blocked(Full)` meaning neither resident nor in flight), but is
    /// never committed: the owner installs it with [`Cache::fill`].
    pub fn admit(&self, line: LineAddr, set: usize, tag: u64, kind: AccessKind) -> Admission {
        match (kind, self.cache.config().discipline.mode, self.atomics) {
            (AccessKind::Write, WriteMode::ThroughNoAllocate, _) => Admission::Forward {
                way: self.cache.probe_decoded(set, tag),
            },
            (AccessKind::Atomic, _, AtomicHandling::Forward) => Admission::Forward { way: None },
            _ => match self.cache.probe_decoded(set, tag) {
                Some(way) => Admission::Hit(way),
                None => match self.mshr.admits(line) {
                    Ok(MshrAlloc::Primary) => Admission::Miss,
                    Ok(MshrAlloc::Merged) => Admission::Merge,
                    Err(reject) => Admission::Blocked(reject),
                },
            },
        }
    }

    /// Carries out `admission`, which [`CacheController::admit`] returned
    /// for the same access with nothing committed or filled since.
    ///
    /// `target` is recorded in the MSHR on the miss path and released by
    /// the matching [`CacheController::fill_with`]; it is dropped on every
    /// other outcome. A `Blocked` admission changes no cache or MSHR
    /// state, so the access can be replayed later without having
    /// perturbed statistics, policy ageing or epoch counters.
    #[allow(clippy::too_many_arguments)]
    pub fn commit(
        &mut self,
        admission: Admission,
        line: LineAddr,
        set: usize,
        tag: u64,
        kind: AccessKind,
        core: CoreId,
        target: T,
    ) -> ControllerOutcome {
        debug_assert!(
            kind != AccessKind::CopyBack,
            "copy-backs are never committed"
        );
        debug_assert_eq!(
            admission,
            self.admit(line, set, tag, kind),
            "stale admission"
        );
        match admission {
            Admission::Forward { .. } if kind == AccessKind::Atomic => {
                // Executed at the next level; drop any stale resident copy
                // and account the access as uncached.
                self.cache.invalidate_line(line);
                self.cache.note_uncached_access(kind);
                ControllerOutcome::Forward
            }
            Admission::Forward { way } => {
                // Update a resident copy (the access also refreshes
                // replacement state) and forward downstream.
                let _ = self.cache.access_probed(line, set, tag, way, kind, core);
                ControllerOutcome::Forward
            }
            Admission::Hit(way) => {
                match self
                    .cache
                    .access_probed(line, set, tag, Some(way), kind, core)
                {
                    Lookup::Hit { victim_hint } => ControllerOutcome::Hit { victim_hint },
                    Lookup::Miss => unreachable!("admitted as a hit"),
                }
            }
            Admission::Merge | Admission::Miss => {
                let alloc = self.mshr.allocate(line, target).expect("admitted");
                let _ = self.cache.access_probed(line, set, tag, None, kind, core);
                self.trace.emit(TraceKind::MshrAlloc {
                    line,
                    merged: alloc == MshrAlloc::Merged,
                    occupancy: self.mshr.len() as u16,
                });
                match alloc {
                    MshrAlloc::Primary => ControllerOutcome::MissPrimary,
                    MshrAlloc::Merged => ControllerOutcome::MissMerged,
                }
            }
            Admission::Blocked(reject) => ControllerOutcome::Blocked(reject),
        }
    }

    /// Handles a returning fill: releases the MSHR entry for `line` into
    /// `out` (cleared first; targets appear in allocation order), asks the
    /// owner for the fill parameters — `decide` sees the released targets,
    /// so an L2 can derive dirtiness and the primary requester from them —
    /// and applies the (possibly bypassing) fill to the cache.
    ///
    /// The entry's storage is recycled internally, so steady-state fills
    /// with a reused `out` buffer perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR entry exists for `line` — a fill this controller
    /// never requested indicates a protocol bug.
    pub fn fill_with(
        &mut self,
        line: LineAddr,
        out: &mut Vec<T>,
        decide: impl FnOnce(&[T]) -> FillParams,
    ) -> FillOutcome {
        out.clear();
        self.mshr
            .complete_into(line, out)
            .expect("fill without an outstanding MSHR entry");
        self.trace.emit(TraceKind::MshrRelease {
            line,
            targets: out.len() as u16,
        });
        let p = decide(out);
        self.cache.fill(
            AccessCtx {
                line,
                core: p.core,
                victim_hint: p.victim_hint,
                class: p.class,
            },
            p.dirty,
        )
    }

    /// Whether a *new* (non-merging) miss would be rejected.
    pub fn mshr_full(&self) -> bool {
        self.mshr.is_full()
    }

    /// Whether all outstanding misses have been filled.
    pub fn quiesced(&self) -> bool {
        self.mshr.is_empty()
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Read access to the wrapped cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Direct access to the wrapped cache (kernel-end flush, victim-bit
    /// observation for secondary fill targets, tests).
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// Read access to the MSHR file (occupancy statistics, tests).
    pub fn mshr(&self) -> &MshrFile<T> {
        &self.mshr
    }
}

/// Saves the controller's mutable state: the wrapped cache and the MSHR
/// file. Trace sinks are observation channels and are never serialized
/// (see [`Cache`]'s snapshot notes).
impl<T: Codec> Snapshot for CacheController<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("ctrl", |w| {
            self.cache.save(w);
            self.mshr.save(w);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("ctrl", |r| {
            self.cache.restore(r)?;
            self.mshr.restore(r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::geometry::CacheGeometry;
    use crate::policy::lru::Lru;
    use crate::policy::pdp::StaticPdp;

    const C0: CoreId = CoreId(0);

    fn geom() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 128).unwrap()
    }

    fn l1_style() -> CacheController<usize> {
        let g = geom();
        CacheController::new(
            Cache::new(CacheConfig::l1(g, 0), Lru::new(&g)),
            4,
            2,
            AtomicHandling::Forward,
        )
    }

    fn l2_style() -> CacheController<usize> {
        let g = geom();
        CacheController::new(
            Cache::with_victim_bits(CacheConfig::l2(g, 0), Lru::new(&g), 2, 1),
            4,
            4,
            AtomicHandling::Execute,
        )
    }

    fn fill(ctrl: &mut CacheController<usize>, line: LineAddr, dirty: bool) -> Vec<usize> {
        let mut out = Vec::new();
        ctrl.fill_with(line, &mut out, |_| FillParams {
            core: C0,
            victim_hint: false,
            dirty,
            class: None,
        });
        out
    }

    #[test]
    fn write_through_stores_forward_without_allocating() {
        let mut c = l1_style();
        let line = LineAddr::new(0x20);
        assert_eq!(
            c.access(line, AccessKind::Write, C0, 0),
            ControllerOutcome::Forward
        );
        assert!(!c.cache().contains(line));
        assert!(c.quiesced(), "forwarded stores must not occupy MSHRs");
    }

    #[test]
    fn write_through_hit_leaves_no_dirty_line() {
        let mut c = l1_style();
        let line = LineAddr::new(0);
        c.access(line, AccessKind::Read, C0, 0);
        fill(&mut c, line, false);
        assert_eq!(
            c.access(line, AccessKind::Write, C0, 1),
            ControllerOutcome::Forward
        );
        assert!(
            c.cache_mut().flush().is_empty(),
            "WT cache holds no dirty lines"
        );
    }

    #[test]
    fn forwarded_atomic_invalidates_resident_copy() {
        let mut c = l1_style();
        let line = LineAddr::new(0);
        c.access(line, AccessKind::Read, C0, 0);
        fill(&mut c, line, false);
        assert!(c.cache().contains(line));
        assert_eq!(
            c.access(line, AccessKind::Atomic, C0, 1),
            ControllerOutcome::Forward
        );
        assert!(!c.cache().contains(line), "atomic must drop the stale copy");
    }

    #[test]
    fn primary_then_merge_then_blocked() {
        let mut c = l1_style();
        let line = LineAddr::new(0x10);
        assert_eq!(
            c.access(line, AccessKind::Read, C0, 10),
            ControllerOutcome::MissPrimary
        );
        assert_eq!(
            c.access(line, AccessKind::Read, C0, 11),
            ControllerOutcome::MissMerged
        );
        assert_eq!(
            c.access(line, AccessKind::Read, C0, 12),
            ControllerOutcome::Blocked(MshrReject::MergeFull)
        );
        // A blocked access records nothing: two misses committed so far.
        assert_eq!(c.stats().misses(), 2);
        assert_eq!(fill(&mut c, line, false), vec![10, 11]);
        assert_eq!(
            c.access(line, AccessKind::Read, C0, 13),
            ControllerOutcome::Hit { victim_hint: false }
        );
    }

    #[test]
    fn entry_exhaustion_blocks_with_full() {
        let mut c = l1_style();
        for i in 0..4 {
            assert_eq!(
                c.access(LineAddr::new(i), AccessKind::Read, C0, 0),
                ControllerOutcome::MissPrimary
            );
        }
        assert_eq!(
            c.access(LineAddr::new(9), AccessKind::Read, C0, 0),
            ControllerOutcome::Blocked(MshrReject::Full)
        );
    }

    #[test]
    fn write_back_stores_allocate_and_dirty() {
        let mut c = l2_style();
        let line = LineAddr::new(3);
        assert_eq!(
            c.access(line, AccessKind::Write, C0, 0),
            ControllerOutcome::MissPrimary
        );
        let targets = fill(&mut c, line, true);
        assert_eq!(targets, vec![0]);
        assert_eq!(
            c.cache_mut().flush().len(),
            1,
            "write-allocated line must be dirty"
        );
    }

    #[test]
    fn executed_atomic_runs_the_miss_machine() {
        let mut c = l2_style();
        let line = LineAddr::new(4);
        assert_eq!(
            c.access(line, AccessKind::Atomic, C0, 5),
            ControllerOutcome::MissPrimary
        );
        fill(&mut c, line, true);
        assert_eq!(
            c.access(line, AccessKind::Atomic, C0, 6),
            ControllerOutcome::Hit { victim_hint: false }
        );
    }

    #[test]
    fn victim_hint_surfaces_on_read_hits() {
        let mut c = l2_style();
        let line = LineAddr::new(0x80);
        c.access(line, AccessKind::Read, C0, 0);
        fill(&mut c, line, false);
        // Fill set C0's victim bit; a re-read from C0 observes it.
        assert_eq!(
            c.access(line, AccessKind::Read, C0, 1),
            ControllerOutcome::Hit { victim_hint: true }
        );
    }

    #[test]
    fn bypassing_fill_still_releases_targets() {
        let g = CacheGeometry::new(256, 2, 128).unwrap(); // 1 set, 2 ways
        let mut c: CacheController<usize> = CacheController::new(
            Cache::new(CacheConfig::l1(g, 0), StaticPdp::new(&g, 16)),
            4,
            4,
            AtomicHandling::Forward,
        );
        for i in 0..2u64 {
            c.access(LineAddr::new(i), AccessKind::Read, C0, 0);
            fill(&mut c, LineAddr::new(i), false);
        }
        c.access(LineAddr::new(2), AccessKind::Read, C0, 9);
        assert_eq!(fill(&mut c, LineAddr::new(2), false), vec![9]);
        assert!(!c.cache().contains(LineAddr::new(2)));
        assert_eq!(c.stats().bypassed_fills, 1);
    }

    #[test]
    #[should_panic(expected = "without an outstanding")]
    fn unsolicited_fill_panics() {
        let mut c = l1_style();
        fill(&mut c, LineAddr::new(0), false);
    }
}
