//! A complete, timing-decoupled cache: tag array + replacement/bypass
//! policy + write policy + optional victim-bit tracker + statistics.
//!
//! The structure is *non-blocking ready*: [`Cache::access`] only looks the
//! line up (hit/miss), and the owner performs the fill later via
//! [`Cache::fill`] when the response returns from the next level — exactly
//! when G-Cache's bypass-on-fill decision must be taken. MSHRs live in the
//! owning controller (see `gcache-sim`), keeping this type purely about
//! cache state.

use crate::addr::{CoreId, LineAddr};
use crate::geometry::CacheGeometry;
use crate::policy::{
    AccessCtx, AccessKind, FillDecision, PolicyKind, ReplacementPolicy, ReuseClass, SlackBucket,
};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::CacheStats;
use crate::tag_array::{Evicted, TagArray};
use crate::trace::{SharedTraceRing, TraceKind, TraceSource, Tracer};
use crate::victim_bits::{CoreGrouping, VictimBitStats, VictimBits};

/// How stores interact with allocation — the correctness half of the
/// write discipline (the other half is the [`CopyBackPlane`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteMode {
    /// GPU L1: stores go straight to the next level and never allocate;
    /// store hits update the line without dirtying it (memory is updated
    /// too).
    ThroughNoAllocate,
    /// GPU L2 / CPU LLC: stores allocate on miss and dirty the line;
    /// evictions of dirty lines produce write-backs.
    BackAllocate,
}

/// The eviction-time copy-back plane: what happens to *clean* victims.
/// Dirty victims always write back under [`WriteMode::BackAllocate`];
/// this axis only governs the optional RDC-style clean copy-back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyBackPlane {
    /// Drop every clean victim silently: the classical behaviour, and the
    /// replacement policy's alone.
    Policy,
    /// Copy a clean victim back iff it collected at least `min_reuse`
    /// hits during its residency — reuse proven at this level predicts
    /// reuse at the next (arXiv 2105.14442's clean-copy-back heuristic).
    CleanReuse {
        /// Minimum residency reuse count that earns a copy-back.
        min_reuse: u32,
    },
}

/// The fill-time bypass plane: class-driven cacheability consulted
/// *before* the replacement policy's own fill decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BypassPlane {
    /// No class-driven gate; the replacement policy alone decides
    /// (the paper's original single-plane behaviour).
    Policy,
    /// HyDRA-style deadline+reuse cacheability (arXiv 2605.08908): deny
    /// caching for streams the kernel declared as streaming, and for
    /// deadline-critical requests with only moderate declared reuse
    /// (their latency budget cannot amortize a thrashing insertion).
    /// Unclassified requests fall through to the policy.
    Hydra,
}

impl BypassPlane {
    /// Whether this plane denies caching for a fill with the given
    /// context — checked ahead of the policy's `fill_decision`.
    fn denies(self, ctx: &AccessCtx) -> bool {
        match self {
            BypassPlane::Policy => false,
            BypassPlane::Hydra => match ctx.class {
                Some(c) => {
                    c.reuse == ReuseClass::Streaming
                        || (c.slack == SlackBucket::Tight && c.reuse == ReuseClass::Moderate)
                }
                None => false,
            },
        }
    }
}

/// Configuration of a [`Cache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Shape of the cache.
    pub geometry: CacheGeometry,
    /// Store/allocation handling (correctness axis).
    pub mode: WriteMode,
    /// Clean-victim copy-back plane (performance axis).
    pub copy_back: CopyBackPlane,
    /// Fill-time class-driven bypass plane.
    pub bypass: BypassPlane,
    /// Call the policy's epoch hook every `epoch_len` accesses
    /// (0 disables). G-Cache closes bypass switches here; dynamic PDP
    /// re-estimates its protection distance.
    pub epoch_len: u64,
}

impl CacheConfig {
    /// A write-through, no-write-allocate configuration (GPU L1 style),
    /// with both extra planes at their pass-through defaults.
    pub fn l1(geometry: CacheGeometry, epoch_len: u64) -> Self {
        CacheConfig {
            geometry,
            mode: WriteMode::ThroughNoAllocate,
            copy_back: CopyBackPlane::Policy,
            bypass: BypassPlane::Policy,
            epoch_len,
        }
    }

    /// A write-back, write-allocate configuration (GPU L2 style).
    pub fn l2(geometry: CacheGeometry, epoch_len: u64) -> Self {
        CacheConfig {
            geometry,
            mode: WriteMode::BackAllocate,
            copy_back: CopyBackPlane::Policy,
            bypass: BypassPlane::Policy,
            epoch_len,
        }
    }

    /// This configuration with a different bypass plane.
    pub const fn with_bypass(mut self, bypass: BypassPlane) -> Self {
        self.bypass = bypass;
        self
    }

    /// This configuration with a different clean copy-back plane.
    pub const fn with_copy_back(mut self, copy_back: CopyBackPlane) -> Self {
        self.copy_back = copy_back;
        self
    }
}

/// Result of a lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// The line is resident.
    Hit {
        /// Victim-bit value observed for the requesting core *before* this
        /// access set it (always `false` when the cache has no victim-bit
        /// tracker). A `true` here is the L2-side contention signal that
        /// must travel back to the requesting L1 with the data.
        victim_hint: bool,
    },
    /// The line is absent. Whether to fetch-and-fill is the caller's
    /// decision (write-through L1s forward stores without filling).
    Miss,
}

impl Lookup {
    /// Whether the lookup hit.
    pub const fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }
}

/// Result of a fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FillOutcome {
    /// The policy refused to cache the line (bypass-on-fill).
    pub bypassed: bool,
    /// The line displaced by the fill, if any; `evicted.dirty` means the
    /// caller must generate a write-back.
    pub evicted: Option<Evicted>,
    /// A *clean* victim the copy-back plane decided to push downstream;
    /// the owner must generate a copy-back transaction for it. Always
    /// `None` under the default plane configuration.
    pub copy_back: Option<Evicted>,
}

impl FillOutcome {
    /// A fill outcome with neither eviction nor copy-back.
    pub(crate) const fn clean(bypassed: bool) -> Self {
        FillOutcome {
            bypassed,
            evicted: None,
            copy_back: None,
        }
    }
}

/// A complete cache instance.
///
/// # Examples
///
/// A miniature L1 under the G-Cache policy:
///
/// ```
/// use gcache_core::cache::{Cache, CacheConfig, Lookup};
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::gcache::GCache;
/// use gcache_core::policy::{AccessKind, AccessCtx};
/// use gcache_core::addr::{CoreId, LineAddr};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(1024, 2, 128)?;
/// let mut l1 = Cache::new(CacheConfig::l1(geom, 0), GCache::with_defaults(&geom));
/// let line = LineAddr::new(0x100);
/// let core = CoreId(0);
/// assert_eq!(l1.access(line, AccessKind::Read, core), Lookup::Miss);
/// // ... request goes to L2; later the response arrives:
/// l1.fill(AccessCtx::plain(line, core), false);
/// assert!(l1.access(line, AccessKind::Read, core).is_hit());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    tags: TagArray,
    policy: PolicyKind,
    victim_bits: Option<VictimBits>,
    stats: CacheStats,
    accesses_since_epoch: u64,
    /// Opt-in event hook (see [`crate::trace`]); detached it costs one
    /// discriminant test per hook site.
    trace: Tracer,
}

impl Cache {
    /// Creates a cache with the given policy and no victim-bit tracker.
    ///
    /// Any concrete policy converts into [`PolicyKind`], so callers pass
    /// the policy by value: `Cache::new(cfg, Lru::new(&geom))`. The enum
    /// keeps the per-access hooks jump-table-dispatched instead of going
    /// through a `Box<dyn>` vtable — they run on every cache access.
    pub fn new(cfg: CacheConfig, policy: impl Into<PolicyKind>) -> Self {
        Cache {
            tags: TagArray::new(cfg.geometry),
            cfg,
            policy: policy.into(),
            victim_bits: None,
            stats: CacheStats::new(),
            accesses_since_epoch: 0,
            trace: Tracer::default(),
        }
    }

    /// Creates a cache with a victim-bit tracker serving `cores` L1 caches
    /// with the modular sharing factor `share` (an L2 bank in the flat
    /// G-Cache design).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`VictimBits::new`].
    pub fn with_victim_bits(
        cfg: CacheConfig,
        policy: impl Into<PolicyKind>,
        cores: usize,
        share: usize,
    ) -> Self {
        Cache::with_victim_grouping(cfg, policy, CoreGrouping::modular(cores, share))
    }

    /// Creates a cache with a victim-bit tracker over an injected
    /// core→group map (e.g. derived from a cluster topology, see
    /// [`CoreGrouping`]).
    pub fn with_victim_grouping(
        cfg: CacheConfig,
        policy: impl Into<PolicyKind>,
        grouping: CoreGrouping,
    ) -> Self {
        let mut cache = Cache::new(cfg, policy);
        cache.victim_bits = Some(VictimBits::with_grouping(&cfg.geometry, grouping));
        cache
    }

    /// The configuration.
    pub const fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The geometry.
    pub const fn geometry(&self) -> &CacheGeometry {
        &self.cfg.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Read-only view of the tag array (snapshot verification and tests
    /// check its maintained masks against the recomputed reference).
    pub const fn tags(&self) -> &TagArray {
        &self.tags
    }

    /// Read access to the replacement policy (telemetry reads switch
    /// state and RRPVs through this; mutation stays with the cache).
    pub const fn policy(&self) -> &PolicyKind {
        &self.policy
    }

    /// Victim-bit activity counters, if this cache tracks victim bits.
    pub fn victim_stats(&self) -> Option<&VictimBitStats> {
        self.victim_bits.as_ref().map(|vb| vb.stats())
    }

    /// Attaches the trace ring; subsequent accesses, fills, switch flips
    /// and epoch resets are recorded against `src`. See [`crate::trace`].
    pub fn attach_trace(&mut self, src: TraceSource, ring: &SharedTraceRing) {
        self.trace = Tracer::attached(src, ring);
    }

    /// Whether `line` is resident (no side effects).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.tags.probe(line).is_some()
    }

    /// Side-effect-free probe with the set/tag decode already done;
    /// returns the resident way. The controller's single-probe access
    /// machine and the batched L1 pipeline look lines up through this
    /// and hand the answer to [`Cache::access_probed`], so the tag
    /// compare runs exactly once per presented access.
    #[inline]
    pub fn probe_decoded(&self, set: usize, tag: u64) -> Option<usize> {
        self.tags.probe_set(set, tag)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.occupancy()
    }

    /// Looks up `line` for `core`, updating policy state and statistics.
    ///
    /// On a hit the line's recency/protection is refreshed; if this cache
    /// has a victim-bit tracker and the access is a read, the core's victim
    /// bit is observed (returned) and set.
    ///
    /// On a miss nothing is allocated: the caller decides whether to fetch
    /// (see the module docs).
    pub fn access(&mut self, line: LineAddr, kind: AccessKind, core: CoreId) -> Lookup {
        let set = self.cfg.geometry.set_of(line);
        let tag = self.cfg.geometry.tag_of(line);
        let way = self.tags.probe_set(set, tag);
        self.access_probed(line, set, tag, way, kind, core)
    }

    /// The committed access, given a probe result obtained through
    /// [`Cache::probe_decoded`] on the *current* tag state. This is the
    /// single-pass core of every lookup: epoch tick, the policy's
    /// `on_access`, touch/victim-bit/stat/trace updates — one probe, no
    /// repeated set/way recomputation.
    ///
    /// The epoch tick and `on_access` never mutate the tag array (they age
    /// policy metadata only), so probing before them is behaviour-identical
    /// to the historical probe-after ordering.
    pub fn access_probed(
        &mut self,
        line: LineAddr,
        set: usize,
        tag: u64,
        way: Option<usize>,
        kind: AccessKind,
        core: CoreId,
    ) -> Lookup {
        debug_assert_eq!(set, self.cfg.geometry.set_of(line));
        debug_assert_eq!(tag, self.cfg.geometry.tag_of(line));
        debug_assert_eq!(way, self.tags.probe_set(set, tag), "stale probe result");
        self.tick_epoch();
        self.policy.on_access(set, tag);

        match way {
            Some(way) => {
                let mark_dirty = kind.is_write() && self.cfg.mode == WriteMode::BackAllocate;
                self.tags.touch(set, way, mark_dirty);
                self.policy.on_hit(set, way);
                let victim_hint = match (&mut self.victim_bits, kind) {
                    (Some(vb), AccessKind::Read) => vb.observe(set, way, core),
                    _ => false,
                };
                self.stats.record_access(kind, true);
                self.trace.emit(TraceKind::Access {
                    line,
                    kind,
                    core,
                    hit: true,
                    victim_hint,
                });
                Lookup::Hit { victim_hint }
            }
            None => {
                self.stats.record_access(kind, false);
                self.trace.emit(TraceKind::Access {
                    line,
                    kind,
                    core,
                    hit: false,
                    victim_hint: false,
                });
                Lookup::Miss
            }
        }
    }

    /// Installs (or bypasses) a returning fill. `dirty` marks the line
    /// modified immediately (write-allocate of a store miss).
    ///
    /// If this cache has a victim-bit tracker, the inserted line's bits are
    /// reset and the requesting core's bit is set, so a re-request from the
    /// same core is detected as contention.
    ///
    /// A fill for a line that is already resident (possible when a store
    /// write-allocates while a load fill is in flight) is a no-op apart
    /// from dirtying the line if requested.
    pub fn fill(&mut self, ctx: AccessCtx, dirty: bool) -> FillOutcome {
        let set = self.cfg.geometry.set_of(ctx.line);
        let tag = self.cfg.geometry.tag_of(ctx.line);
        if let Some(way) = self.tags.probe_set(set, tag) {
            if dirty {
                self.tags.touch(set, way, true);
            }
            return FillOutcome::clean(false);
        }
        let valid_mask = self.tags.valid_mask(set);
        // Plane 1 — class-driven cacheability, ahead of the policy. A
        // denial is a bypass the policy never sees (its ageing state is
        // untouched, exactly like a HyDRA uncacheable request).
        if self.cfg.bypass.denies(&ctx) {
            self.stats.bypassed_fills += 1;
            self.stats.plane_bypasses += 1;
            self.emit_fill_trace(set, None, None, &ctx);
            return FillOutcome::clean(true);
        }
        // The fill decision may open the set's bypass switch (a victim
        // hint); capture the pre-state so tracing can report the flip.
        let pre_switch = if self.trace.is_attached() {
            self.policy.switch_open(set)
        } else {
            None
        };
        // Plane 2 — the replacement policy's bypass/insertion decision.
        match self.policy.fill_decision(set, valid_mask, &ctx) {
            FillDecision::Bypass => {
                self.stats.bypassed_fills += 1;
                self.emit_fill_trace(set, pre_switch, None, &ctx);
                FillOutcome::clean(true)
            }
            FillDecision::Insert { way } => {
                let evicted = self.tags.fill(set, way, ctx.line, dirty);
                let mut copy_back = None;
                if let Some(ev) = &evicted {
                    self.stats.evictions += 1;
                    if ev.dirty {
                        self.stats.writebacks += 1;
                    }
                    self.stats.reuse.record(ev.reuse);
                    // Plane 3 — eviction-time copy-back of a clean victim.
                    let proven = matches!(self.cfg.copy_back,
                        CopyBackPlane::CleanReuse { min_reuse } if ev.reuse >= min_reuse);
                    if proven && !ev.dirty {
                        self.stats.clean_copy_backs += 1;
                        copy_back = Some(*ev);
                        self.trace.emit(TraceKind::CleanCopyBack {
                            line: ev.line,
                            set: set as u32,
                            reuse: ev.reuse,
                        });
                    }
                }
                if let Some(vb) = &mut self.victim_bits {
                    vb.clear(set, way);
                    vb.observe(set, way, ctx.core);
                }
                self.policy.on_insert(set, way, &ctx);
                self.stats.fills += 1;
                self.emit_fill_trace(set, pre_switch, Some(way), &ctx);
                FillOutcome {
                    bypassed: false,
                    evicted,
                    copy_back,
                }
            }
        }
    }

    /// Emits the trace events of one applied fill decision: a switch flip
    /// (if the decision changed the set's bypass switch) followed by the
    /// insert/bypass outcome. Called after `on_insert`, so the reported
    /// insertion depth is the RRPV the policy actually assigned.
    fn emit_fill_trace(
        &mut self,
        set: usize,
        pre_switch: Option<bool>,
        way: Option<usize>,
        ctx: &AccessCtx,
    ) {
        if !self.trace.is_attached() {
            return;
        }
        let post_switch = self.policy.switch_open(set);
        let depth = way.and_then(|w| self.policy.rrpv_of(set, w)).unwrap_or(0);
        if let (Some(pre), Some(post)) = (pre_switch, post_switch) {
            if pre != post {
                self.trace.emit(TraceKind::SwitchFlip {
                    set: set as u32,
                    open: post,
                });
            }
        }
        let event = match way {
            Some(w) => TraceKind::FillInsert {
                line: ctx.line,
                core: ctx.core,
                victim_hint: ctx.victim_hint,
                set: set as u32,
                way: w as u8,
                depth,
            },
            None => TraceKind::FillBypass {
                line: ctx.line,
                core: ctx.core,
                victim_hint: ctx.victim_hint,
                set: set as u32,
            },
        };
        self.trace.emit(event);
    }

    /// Observes (and sets) the victim bit of a *resident* line for `core`
    /// without touching replacement state — used by an L2 controller to
    /// attach hints to the secondary (merged) targets of one fill.
    ///
    /// Returns `None` if the line is not resident or this cache tracks no
    /// victim bits.
    pub fn victim_observe(&mut self, line: LineAddr, core: CoreId) -> Option<bool> {
        let set = self.cfg.geometry.set_of(line);
        let way = self.tags.probe(line)?;
        self.victim_bits
            .as_mut()
            .map(|vb| vb.observe(set, way, core))
    }

    /// Records an access this cache intentionally did not service — e.g.
    /// an atomic the L1 forwards straight to the partition's atomic unit.
    /// Counted as a miss so access totals stay conserved across the
    /// hierarchy.
    pub fn note_uncached_access(&mut self, kind: AccessKind) {
        self.tick_epoch();
        self.stats.record_access(kind, false);
    }

    /// Invalidates a single line if resident, returning it. Used for
    /// coherence-style invalidations (e.g. an atomic bypassing the L1 must
    /// drop the stale copy). The residency is folded into the reuse
    /// histogram like any other eviction.
    pub fn invalidate_line(&mut self, line: LineAddr) -> Option<Evicted> {
        let way = self.tags.probe(line)?;
        let set = self.cfg.geometry.set_of(line);
        let ev = self.tags.invalidate(set, way)?;
        if let Some(vb) = &mut self.victim_bits {
            vb.clear(set, way);
        }
        self.stats.evictions += 1;
        self.stats.reuse.record(ev.reuse);
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        Some(ev)
    }

    /// Invalidates every line, returning the dirty ones (the write-backs a
    /// real flush would generate) and folding all residencies into the
    /// reuse histogram. Victim-bit state is cleared per line.
    pub fn flush(&mut self) -> Vec<Evicted> {
        let mut dirty = Vec::new();
        let sets = self.cfg.geometry.sets() as usize;
        let ways = self.cfg.geometry.ways() as usize;
        for set in 0..sets {
            for way in 0..ways {
                if let Some(ev) = self.tags.invalidate(set, way) {
                    if let Some(vb) = &mut self.victim_bits {
                        vb.clear(set, way);
                    }
                    self.stats.evictions += 1;
                    self.stats.reuse.record(ev.reuse);
                    if ev.dirty {
                        self.stats.writebacks += 1;
                        dirty.push(ev);
                    }
                }
            }
        }
        dirty
    }

    fn tick_epoch(&mut self) {
        if self.cfg.epoch_len == 0 {
            return;
        }
        self.accesses_since_epoch += 1;
        if self.accesses_since_epoch >= self.cfg.epoch_len {
            self.accesses_since_epoch = 0;
            if self.trace.is_attached() {
                let open = self.policy.switch_summary().map_or(0, |(o, _)| o) as u32;
                self.trace.emit(TraceKind::EpochReset {
                    open_switches: open,
                });
            }
            self.policy.on_epoch();
        }
    }
}

/// Saves the cache's mutable state: tags, policy, victim bits, stats and
/// the epoch phase. The attached trace ring (if any) is *not* serialized —
/// tracing is an observation channel, reattached by the harness after a
/// restore.
impl Snapshot for Cache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("cache", |w| {
            self.tags.save(w);
            self.policy.save(w);
            w.put(&self.victim_bits.is_some());
            if let Some(vb) = &self.victim_bits {
                vb.save(w);
            }
            w.section("cache_stats", |w| w.put(&self.stats));
            w.put(&self.accesses_since_epoch);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("cache", |r| {
            self.tags.restore(r)?;
            self.policy.restore(r)?;
            match (r.get()?, &mut self.victim_bits) {
                (true, Some(vb)) => vb.restore(r)?,
                (false, None) => {}
                _ => {
                    return Err(SnapshotError::Mismatch {
                        what: "victim-bit tracker presence".to_string(),
                    })
                }
            }
            self.stats = r.section("cache_stats", |r| r.get())?;
            self.accesses_since_epoch = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::gcache::GCache;
    use crate::policy::lru::Lru;
    use crate::policy::pdp::Pdp;
    use crate::policy::pdp_dyn::DynamicPdpConfig;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 128).unwrap() // 4 sets, 2 ways
    }

    fn lru_l1() -> Cache {
        let g = geom();
        Cache::new(CacheConfig::l1(g, 0), Lru::new(&g))
    }

    fn lru_l2(cores: usize) -> Cache {
        let g = geom();
        Cache::with_victim_bits(CacheConfig::l2(g, 0), Lru::new(&g), cores, 1)
    }

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = lru_l1();
        let line = LineAddr::new(0x40);
        assert_eq!(c.access(line, AccessKind::Read, C0), Lookup::Miss);
        let out = c.fill(AccessCtx::plain(line, C0), false);
        assert!(!out.bypassed);
        assert!(out.evicted.is_none());
        assert!(c.access(line, AccessKind::Read, C0).is_hit());
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn write_through_hit_stays_clean() {
        let mut c = lru_l1();
        let line = LineAddr::new(0);
        c.fill(AccessCtx::plain(line, C0), false);
        c.access(line, AccessKind::Write, C0);
        let dirty = c.flush();
        assert!(dirty.is_empty(), "WT cache must never hold dirty lines");
    }

    #[test]
    fn write_back_hit_dirties() {
        let mut c = lru_l2(2);
        let line = LineAddr::new(0);
        c.fill(AccessCtx::plain(line, C0), false);
        c.access(line, AccessKind::Write, C0);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line, line);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_fill_writes_back_on_eviction() {
        let mut c = lru_l2(2);
        // Fill 3 lines into set 0 (2 ways): first eviction is the dirty one.
        let l0 = LineAddr::new(0);
        let l1 = LineAddr::new(4);
        let l2 = LineAddr::new(8);
        c.fill(AccessCtx::plain(l0, C0), true);
        c.fill(AccessCtx::plain(l1, C0), false);
        let out = c.fill(AccessCtx::plain(l2, C0), false);
        let ev = out.evicted.expect("eviction");
        assert_eq!(ev.line, l0);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn victim_bit_round_trip_detects_contention() {
        let mut c = lru_l2(2);
        let line = LineAddr::new(0x80);
        // First request: miss, fill, hint is clean.
        assert_eq!(c.access(line, AccessKind::Read, C0), Lookup::Miss);
        c.fill(AccessCtx::plain(line, C0), false);
        // Same core re-requests (its L1 evicted the line early): hint set.
        assert_eq!(
            c.access(line, AccessKind::Read, C0),
            Lookup::Hit { victim_hint: true }
        );
        // A different core sees a clean hint first.
        assert_eq!(
            c.access(line, AccessKind::Read, C1),
            Lookup::Hit { victim_hint: false }
        );
        assert_eq!(
            c.access(line, AccessKind::Read, C1),
            Lookup::Hit { victim_hint: true }
        );
    }

    #[test]
    fn victim_bits_cleared_on_refill() {
        let mut c = lru_l2(2);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.fill(AccessCtx::plain(a, C0), false);
        c.access(a, AccessKind::Read, C0); // sets C0's bit again (already set by fill)
                                           // Evict `a` by filling the set's other way then a third line.
        c.fill(AccessCtx::plain(b, C0), false);
        c.fill(AccessCtx::plain(LineAddr::new(8), C0), false); // evicts `a` (LRU)
                                                               // `a` returns: its bits must have been cleared with the eviction.
        c.fill(AccessCtx::plain(a, C0), false);
        assert_eq!(
            c.access(a, AccessKind::Read, C1),
            Lookup::Hit { victim_hint: false }
        );
    }

    #[test]
    fn writes_do_not_touch_victim_bits() {
        let mut c = lru_l2(2);
        let line = LineAddr::new(0);
        c.fill(AccessCtx::plain(line, C1), false);
        // C0 writes (write-through traffic) — must not set C0's bit.
        c.access(line, AccessKind::Write, C0);
        assert_eq!(
            c.access(line, AccessKind::Read, C0),
            Lookup::Hit { victim_hint: false }
        );
    }

    #[test]
    fn fill_of_resident_line_is_noop() {
        let mut c = lru_l2(2);
        let line = LineAddr::new(0);
        c.fill(AccessCtx::plain(line, C0), false);
        let out = c.fill(AccessCtx::plain(line, C0), true);
        assert!(!out.bypassed);
        assert!(out.evicted.is_none());
        assert_eq!(c.stats().fills, 1);
        // The duplicate fill's dirty flag sticks, though.
        assert_eq!(c.flush().len(), 1);
    }

    #[test]
    fn bypass_counted_in_stats() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::l1(g, 0), Pdp::fixed(&g, 8));
        c.fill(AccessCtx::plain(LineAddr::new(0), C0), false);
        c.fill(AccessCtx::plain(LineAddr::new(4), C0), false);
        let out = c.fill(AccessCtx::plain(LineAddr::new(8), C0), false);
        assert!(out.bypassed);
        assert_eq!(c.stats().bypassed_fills, 1);
        assert!(!c.contains(LineAddr::new(8)));
    }

    #[test]
    fn reuse_histogram_from_evictions_and_flush() {
        let mut c = lru_l1();
        let a = LineAddr::new(0);
        c.fill(AccessCtx::plain(a, C0), false);
        c.access(a, AccessKind::Read, C0);
        c.access(a, AccessKind::Read, C0); // reuse = 2
        c.fill(AccessCtx::plain(LineAddr::new(4), C0), false); // reuse 0, resident
        c.fill(AccessCtx::plain(LineAddr::new(8), C0), false); // evicts `a`
        assert_eq!(c.stats().reuse.bucket(2), 1);
        c.flush();
        // The two zero-reuse residents flushed out.
        assert_eq!(c.stats().reuse.bucket(0), 2);
        assert_eq!(c.stats().reuse.total(), 3);
    }

    #[test]
    fn epoch_resets_gcache_switches() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::l1(g, 4), GCache::with_defaults(&g));
        let line = LineAddr::new(0);
        // 4 accesses trigger one epoch; just verify it doesn't disturb
        // normal operation (behavioural coverage lives in the policy tests).
        for _ in 0..10 {
            if !c.access(line, AccessKind::Read, C0).is_hit() {
                c.fill(AccessCtx::plain(line, C0), false);
            }
        }
        assert!(c.stats().hits() >= 8);
    }

    #[test]
    fn trace_records_fills_switch_flips_and_epochs() {
        use crate::trace::{SharedTraceRing, TraceKind, TraceLevel, TraceSource};
        let g = geom();
        let mut c = Cache::new(CacheConfig::l1(g, 4), GCache::with_defaults(&g));
        let ring = SharedTraceRing::new(64);
        c.attach_trace(TraceSource::new(TraceLevel::L1, 0), &ring);

        // A hinted fill into an empty set: opens the switch (flip event)
        // and inserts hot (depth 0).
        c.access(LineAddr::new(0), AccessKind::Read, C0);
        c.fill(
            AccessCtx {
                line: LineAddr::new(0),
                core: C0,
                victim_hint: true,
                class: None,
            },
            false,
        );
        // Three more accesses cross the 4-access epoch boundary.
        c.access(LineAddr::new(0), AccessKind::Read, C0);
        c.access(LineAddr::new(0), AccessKind::Read, C0);
        c.access(LineAddr::new(0), AccessKind::Read, C0);

        let evs = ring.events();
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, TraceKind::SwitchFlip { set: 0, open: true })));
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, TraceKind::FillInsert { depth: 0, .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, TraceKind::EpochReset { open_switches: 1 })));
        let accesses = evs
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Access { .. }))
            .count();
        assert_eq!(accesses, 4, "1 miss + 3 hits traced");
    }

    #[test]
    fn tracing_does_not_change_behaviour() {
        use crate::trace::{SharedTraceRing, TraceLevel, TraceSource};
        let g = geom();
        let walk: Vec<u64> = (0..40).map(|i| (i * 7) % 12).collect();
        let run = |traced: bool| {
            let mut c = Cache::new(CacheConfig::l1(g, 8), GCache::with_defaults(&g));
            if traced {
                let ring = SharedTraceRing::new(16);
                c.attach_trace(TraceSource::new(TraceLevel::L1, 0), &ring);
            }
            for &a in &walk {
                let line = LineAddr::new(a);
                if !c.access(line, AccessKind::Read, C0).is_hit() {
                    c.fill(AccessCtx::plain(line, C0), false);
                }
            }
            format!("{:?}", c.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn snapshot_round_trip_preserves_behaviour() {
        let g = geom();
        let build =
            || Cache::with_victim_bits(CacheConfig::l2(g, 8), GCache::with_defaults(&g), 4, 1);
        let mut original = build();
        // Drive a mixed walk: fills, hits, evictions, victim-bit traffic.
        for i in 0..60u64 {
            let line = LineAddr::new((i * 5) % 16);
            let core = CoreId((i % 4) as usize);
            if !original.access(line, AccessKind::Read, core).is_hit() {
                original.fill(AccessCtx::plain(line, core), false);
            }
        }
        let mut w = SnapshotWriter::new();
        original.save(&mut w);
        let bytes = w.finish();

        let mut restored = build();
        restored
            .restore(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();

        // Identical continuation: same walk yields identical stats debug.
        for i in 0..60u64 {
            let line = LineAddr::new((i * 7) % 16);
            let core = CoreId((i % 4) as usize);
            let a = original.access(line, AccessKind::Read, core);
            let b = restored.access(line, AccessKind::Read, core);
            assert_eq!(a, b, "lookup diverged at step {i}");
            if !a.is_hit() {
                let fa = original.fill(AccessCtx::plain(line, core), false);
                let fb = restored.fill(AccessCtx::plain(line, core), false);
                assert_eq!(fa, fb, "fill diverged at step {i}");
            }
        }
        assert_eq!(
            format!("{:?}", original.stats()),
            format!("{:?}", restored.stats())
        );
    }

    #[test]
    fn snapshot_rejects_policy_mismatch() {
        let g = geom();
        let restore = |saved: PolicyKind, built: PolicyKind| {
            let mut from = Cache::new(CacheConfig::l1(g, 0), saved);
            from.fill(AccessCtx::plain(LineAddr::new(0), C0), false);
            let mut w = SnapshotWriter::new();
            from.save(&mut w);
            let bytes = w.finish();
            Cache::new(CacheConfig::l1(g, 0), built)
                .restore(&mut SnapshotReader::new(&bytes).unwrap())
        };
        let mismatch = |r| matches!(r, Err(SnapshotError::Mismatch { .. }));
        assert!(mismatch(restore(
            GCache::with_defaults(&g).into(),
            Lru::new(&g).into()
        )));
        // Both PDP kinds share one variant tag: the `pdp` section tells a
        // fixed distance from an estimated one, in both directions, and
        // one fixed distance from another.
        let spdp = |pd| Pdp::fixed(&g, pd).into();
        let pdp3 = || Pdp::estimated(&g, DynamicPdpConfig::pdp3()).into();
        assert!(mismatch(restore(spdp(8), pdp3())));
        assert!(mismatch(restore(pdp3(), spdp(8))));
        assert!(mismatch(restore(spdp(8), spdp(4))));
        assert_eq!(restore(spdp(8), spdp(8)), Ok(()));
        assert_eq!(restore(pdp3(), pdp3()), Ok(()));
    }

    #[test]
    fn occupancy_tracks_fills() {
        let mut c = lru_l1();
        assert_eq!(c.occupancy(), 0);
        c.fill(AccessCtx::plain(LineAddr::new(0), C0), false);
        c.fill(AccessCtx::plain(LineAddr::new(1), C0), false);
        assert_eq!(c.occupancy(), 2);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    use crate::policy::RequestClass;

    fn class(slack: SlackBucket, reuse: ReuseClass) -> Option<RequestClass> {
        Some(RequestClass { slack, reuse })
    }

    fn hydra_l1() -> Cache {
        let g = geom();
        Cache::new(
            CacheConfig::l1(g, 0).with_bypass(BypassPlane::Hydra),
            Lru::new(&g),
        )
    }

    #[test]
    fn hydra_plane_denies_streaming_ahead_of_policy() {
        use crate::trace::{SharedTraceRing, TraceLevel, TraceSource};
        let mut c = hydra_l1();
        let ring = SharedTraceRing::new(16);
        c.attach_trace(TraceSource::new(TraceLevel::L1, 0), &ring);
        let line = LineAddr::new(0);
        let out = c.fill(
            AccessCtx::plain(line, C0)
                .with_class(class(SlackBucket::Relaxed, ReuseClass::Streaming)),
            false,
        );
        assert!(out.bypassed, "streaming class must be denied");
        assert_eq!(c.stats().plane_bypasses, 1);
        assert_eq!(c.stats().bypassed_fills, 1);
        assert_eq!(c.stats().fills, 0);
        assert_eq!(c.occupancy(), 0, "denied fill must not install");
        assert!(
            ring.events()
                .iter()
                .any(|e| matches!(e.kind, TraceKind::FillBypass { .. })),
            "plane denial must trace as a bypass"
        );
    }

    #[test]
    fn hydra_plane_denies_tight_moderate_only() {
        let mut c = hydra_l1();
        // Tight + Moderate: denied.
        let out = c.fill(
            AccessCtx::plain(LineAddr::new(0), C0)
                .with_class(class(SlackBucket::Tight, ReuseClass::Moderate)),
            false,
        );
        assert!(out.bypassed);
        // Tight + High reuse: allowed (worth caching even on a deadline).
        let out = c.fill(
            AccessCtx::plain(LineAddr::new(1), C0)
                .with_class(class(SlackBucket::Tight, ReuseClass::High)),
            false,
        );
        assert!(!out.bypassed);
        // Unclassified traffic always falls through to the policy.
        let out = c.fill(AccessCtx::plain(LineAddr::new(2), C0), false);
        assert!(!out.bypassed);
        assert_eq!(c.stats().plane_bypasses, 1);
        assert_eq!(c.stats().fills, 2);
    }

    #[test]
    fn policy_plane_never_bypasses_with_default_config() {
        // The default BypassPlane::Policy is inert: a streaming class
        // reaches the policy untouched (bit-identity guarantee).
        let mut c = lru_l1();
        let out = c.fill(
            AccessCtx::plain(LineAddr::new(0), C0)
                .with_class(class(SlackBucket::Relaxed, ReuseClass::Streaming)),
            false,
        );
        assert!(!out.bypassed);
        assert_eq!(c.stats().plane_bypasses, 0);
    }

    /// Builds an L1 with the given clean copy-back plane, fills a set with
    /// two lines, gives the first `reuse` hits, then forces its eviction.
    fn evict_clean_victim(plane: CopyBackPlane, reuse: u32) -> (Cache, FillOutcome) {
        let g = geom();
        let mut c = Cache::new(CacheConfig::l1(g, 0).with_copy_back(plane), Lru::new(&g));
        let victim = LineAddr::new(0);
        c.fill(AccessCtx::plain(victim, C0), false);
        for _ in 0..reuse {
            assert!(c.access(victim, AccessKind::Read, C0).is_hit());
        }
        c.fill(AccessCtx::plain(LineAddr::new(4), C0), false);
        // Third line in the 2-way set evicts the LRU way — which is the
        // second line, so touch it to make `victim` the LRU choice.
        c.access(LineAddr::new(4), AccessKind::Read, C0);
        let out = c.fill(AccessCtx::plain(LineAddr::new(8), C0), false);
        (c, out)
    }

    #[test]
    fn clean_reuse_plane_copies_back_proven_victims() {
        use crate::trace::{SharedTraceRing, TraceLevel, TraceSource};
        let g = geom();
        let mut c = Cache::new(
            CacheConfig::l1(g, 0).with_copy_back(CopyBackPlane::CleanReuse { min_reuse: 2 }),
            Lru::new(&g),
        );
        let ring = SharedTraceRing::new(16);
        c.attach_trace(TraceSource::new(TraceLevel::L1, 0), &ring);
        let victim = LineAddr::new(0);
        c.fill(AccessCtx::plain(victim, C0), false);
        c.access(victim, AccessKind::Read, C0);
        c.access(victim, AccessKind::Read, C0);
        c.fill(AccessCtx::plain(LineAddr::new(4), C0), false);
        c.access(LineAddr::new(4), AccessKind::Read, C0);
        let out = c.fill(AccessCtx::plain(LineAddr::new(8), C0), false);
        let cb = out.copy_back.expect("reuse 2 >= min_reuse 2");
        assert_eq!(cb.line, victim);
        assert!(!cb.dirty);
        assert_eq!(cb.reuse, 2);
        assert_eq!(c.stats().clean_copy_backs, 1);
        assert!(ring.events().iter().any(|e| matches!(
            e.kind,
            TraceKind::CleanCopyBack {
                set: 0,
                reuse: 2,
                ..
            }
        )));
    }

    #[test]
    fn clean_reuse_plane_drops_unproven_victims() {
        let (c, out) = evict_clean_victim(CopyBackPlane::CleanReuse { min_reuse: 2 }, 1);
        assert!(out.evicted.is_some());
        assert!(out.copy_back.is_none(), "reuse 1 < min_reuse 2");
        assert_eq!(c.stats().clean_copy_backs, 0);
    }

    #[test]
    fn policy_plane_drops_clean_victims() {
        // `Policy` drops every clean victim, however often it was reused —
        // the bit-identity guarantee for pre-existing configurations.
        let (c, out) = evict_clean_victim(CopyBackPlane::Policy, 3);
        assert!(out.evicted.is_some());
        assert!(out.copy_back.is_none(), "Policy must drop");
        assert_eq!(c.stats().clean_copy_backs, 0);
    }

    #[test]
    fn dirty_victims_write_back_not_copy_back() {
        let g = geom();
        let mut c = Cache::new(
            CacheConfig::l2(g, 0).with_copy_back(CopyBackPlane::CleanReuse { min_reuse: 0 }),
            Lru::new(&g),
        );
        c.fill(AccessCtx::plain(LineAddr::new(0), C0), true);
        c.fill(AccessCtx::plain(LineAddr::new(4), C0), false);
        c.access(LineAddr::new(4), AccessKind::Read, C0);
        let out = c.fill(AccessCtx::plain(LineAddr::new(8), C0), false);
        let ev = out.evicted.expect("eviction");
        assert!(ev.dirty);
        assert!(
            out.copy_back.is_none(),
            "dirty victims take the write-back path, never the clean plane"
        );
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().clean_copy_backs, 0);
    }

    #[test]
    fn plane_stats_survive_snapshot_round_trip() {
        let g = geom();
        let build = || {
            Cache::new(
                CacheConfig::l1(g, 0)
                    .with_bypass(BypassPlane::Hydra)
                    .with_copy_back(CopyBackPlane::CleanReuse { min_reuse: 1 }),
                Lru::new(&g),
            )
        };
        let mut c = build();
        c.fill(
            AccessCtx::plain(LineAddr::new(0), C0)
                .with_class(class(SlackBucket::Tight, ReuseClass::Streaming)),
            false,
        );
        let victim = LineAddr::new(1);
        c.fill(AccessCtx::plain(victim, C0), false);
        c.access(victim, AccessKind::Read, C0);
        c.fill(AccessCtx::plain(LineAddr::new(5), C0), false);
        c.access(LineAddr::new(5), AccessKind::Read, C0);
        c.fill(AccessCtx::plain(LineAddr::new(9), C0), false);
        assert_eq!(c.stats().plane_bypasses, 1);
        assert_eq!(c.stats().clean_copy_backs, 1);

        let mut w = SnapshotWriter::new();
        c.save(&mut w);
        let bytes = w.finish();
        let mut restored = build();
        restored
            .restore(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();
        assert_eq!(restored.stats().plane_bypasses, 1);
        assert_eq!(restored.stats().clean_copy_backs, 1);
        assert_eq!(
            format!("{:?}", c.stats()),
            format!("{:?}", restored.stats())
        );
    }
}
