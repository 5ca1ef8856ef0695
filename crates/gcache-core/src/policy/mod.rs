//! Replacement / bypass / insertion policies.
//!
//! Every policy evaluated in the paper is implemented behind one trait,
//! [`ReplacementPolicy`]:
//!
//! | Paper name | Type | Description |
//! |---|---|---|
//! | BS | [`lru::Lru`] | LRU replacement, always insert |
//! | BS-S | [`rrip::Rrip`] | 3-bit SRRIP, always insert |
//! | GC | [`gcache::GCache`] | SRRIP + adaptive bypass/insertion (the paper's contribution) |
//! | SPDP-B | [`pdp::Pdp::fixed`] | protection-distance policy with bypass, one fixed distance |
//! | PDP-3 / PDP-8 | [`pdp::Pdp::estimated`] | the same policy, distance re-estimated from sampled reuse distances ([`pdp_dyn`]) |
//!
//! A policy never touches the tag array directly; [`crate::cache::Cache`]
//! drives it through six hooks and applies its decisions:
//!
//! | Hook | Called |
//! |---|---|
//! | [`ReplacementPolicy::name`] | by experiment tables |
//! | [`ReplacementPolicy::on_access`] | once per access, hit or miss (PDP ages its set, then samples the tag) |
//! | [`ReplacementPolicy::on_hit`] | when the access hits |
//! | [`ReplacementPolicy::fill_decision`] | when a fill arrives: which way it takes, or bypass |
//! | [`ReplacementPolicy::on_insert`] | after the fill is installed |
//! | [`ReplacementPolicy::on_epoch`] | every [`crate::cache::CacheConfig::epoch_len`] accesses |
//!
//! # Decision planes
//!
//! Two planes sit around the policy in the cache and need no hook (see
//! DESIGN.md §11):
//!
//! | Plane | Config | Decides |
//! |---|---|---|
//! | fill-time bypass | [`crate::cache::BypassPlane`] | class-driven cacheability, ahead of `fill_decision` (HyDRA-style) |
//! | eviction-time copy-back | [`crate::cache::CopyBackPlane`] | whether a *clean* victim is copied back downstream (RDC-style) |
//!
//! Both see the fill's [`AccessCtx`], which optionally carries a
//! [`RequestClass`] — a deadline-slack bucket plus a declared reuse class —
//! threaded from the kernel spec through the memory system.

pub mod gcache;
pub mod lru;
pub mod pdp;
pub mod pdp_dyn;
pub mod rrip;

use crate::addr::{CoreId, LineAddr};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;

/// How much deadline slack the requesting warp declared for an access —
/// the HyDRA-style urgency axis of a [`RequestClass`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SlackBucket {
    /// The warp is on the critical path; latency matters most.
    Tight,
    /// Default urgency.
    Normal,
    /// Plenty of slack; throughput matters more than latency.
    Relaxed,
}

/// The reuse behaviour a kernel declared for an access stream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReuseClass {
    /// Touched once and never again (streaming stores, scan outputs).
    Streaming,
    /// Some reuse, typically at moderate distance (sliding windows).
    Moderate,
    /// Heavy short-distance reuse (tiles, broadcast tables).
    High,
}

/// Per-request class metadata: a deadline-slack bucket plus a declared
/// reuse class, set by the kernel (`Op::SetClass` in the simulator) and
/// carried end-to-end with every memory transaction it issues.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RequestClass {
    /// Deadline-slack bucket.
    pub slack: SlackBucket,
    /// Declared reuse class.
    pub reuse: ReuseClass,
}

impl RequestClass {
    /// Builds a class from its two axes.
    pub const fn new(slack: SlackBucket, reuse: ReuseClass) -> Self {
        RequestClass { slack, reuse }
    }

    /// Stable one-byte wire encoding of an optional class: `0` is "no
    /// class", otherwise `1 + slack * 3 + reuse` (`1..=9`). Used by the
    /// simulator's snapshot payloads.
    pub fn to_wire(class: Option<RequestClass>) -> u8 {
        match class {
            None => 0,
            Some(c) => {
                let s = match c.slack {
                    SlackBucket::Tight => 0u8,
                    SlackBucket::Normal => 1,
                    SlackBucket::Relaxed => 2,
                };
                let r = match c.reuse {
                    ReuseClass::Streaming => 0u8,
                    ReuseClass::Moderate => 1,
                    ReuseClass::High => 2,
                };
                1 + s * 3 + r
            }
        }
    }

    /// Inverse of [`RequestClass::to_wire`]; `Err` carries the bad byte.
    pub fn from_wire(v: u8) -> Result<Option<RequestClass>, u8> {
        if v == 0 {
            return Ok(None);
        }
        if v > 9 {
            return Err(v);
        }
        let idx = v - 1;
        let slack = match idx / 3 {
            0 => SlackBucket::Tight,
            1 => SlackBucket::Normal,
            _ => SlackBucket::Relaxed,
        };
        let reuse = match idx % 3 {
            0 => ReuseClass::Streaming,
            1 => ReuseClass::Moderate,
            _ => ReuseClass::High,
        };
        Ok(Some(RequestClass { slack, reuse }))
    }
}

/// What kind of access is being performed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// A read-modify-write performed by an atomic operation unit.
    Atomic,
    /// A clean copy-back: an upper level pushes an unmodified victim line
    /// downstream so the next level can keep (or re-admit) it. Carries
    /// line data like a store but is purely a hint — it never generates a
    /// response and memory is not updated.
    CopyBack,
}

crate::tagged! {
    AccessKind as "access kind" {
        0 => Read,
        1 => Write,
        2 => Atomic,
        3 => CopyBack,
    }
}

impl AccessKind {
    /// Whether the access modifies the line.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

/// Context accompanying an access presented to the decision planes — most
/// importantly a fill (the response returning from the next level), where
/// the bypass/insertion and copy-back plumbing all meet.
#[derive(Clone, Copy, Debug)]
pub struct AccessCtx {
    /// The line being filled.
    pub line: LineAddr,
    /// Requesting core (used by the L2's victim-bit tracker).
    pub core: CoreId,
    /// G-Cache victim-bit hint attached to the response: `true` means the
    /// next level observed that this L1 requested the same line recently —
    /// i.e. the line was evicted from L1 before it could be re-used
    /// (contention).
    pub victim_hint: bool,
    /// Request class declared by the issuing kernel, if any. `None` for
    /// unclassified traffic — the common case, and the only case the
    /// paper's original policies ever see.
    pub class: Option<RequestClass>,
}

impl AccessCtx {
    /// Convenience constructor for a hint-less, unclassified fill.
    pub fn plain(line: LineAddr, core: CoreId) -> Self {
        AccessCtx {
            line,
            core,
            victim_hint: false,
            class: None,
        }
    }

    /// Returns this context with the given request class attached.
    pub fn with_class(mut self, class: Option<RequestClass>) -> Self {
        self.class = class;
        self
    }
}

/// A policy's decision about an incoming fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillDecision {
    /// Insert the incoming line into this way (evicting any resident line).
    Insert {
        /// Destination way.
        way: usize,
    },
    /// Do not cache the incoming line; forward it to the requester only.
    Bypass,
}

/// A cache replacement / bypass / insertion policy.
///
/// Implementations hold all their per-set and per-line metadata internally
/// (RRPVs, LRU stacks, protection counters, bypass switches, …), sized at
/// construction from the cache geometry.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Short stable name, used in experiment tables (e.g. `"GC"`).
    fn name(&self) -> &'static str;

    /// Called once for every access directed at `set`, hit or miss, before
    /// [`Self::on_hit`] / [`Self::fill_decision`]. PDP ages the set's
    /// protection counters here, then samples `tag` into its reuse-distance
    /// estimator.
    fn on_access(&mut self, _set: usize, _tag: u64) {}

    /// Called when an access hits in (set, way).
    fn on_hit(&mut self, set: usize, way: usize);

    /// Decides where an incoming fill goes. `valid_mask` has bit `w` set iff
    /// way `w` currently holds a valid line; policies that never bypass must
    /// return [`FillDecision::Insert`].
    fn fill_decision(&mut self, set: usize, valid_mask: u64, ctx: &AccessCtx) -> FillDecision;

    /// Called after the line has been installed in (set, way).
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Periodic epoch boundary (driven by the cache every
    /// [`crate::cache::CacheConfig::epoch_len`] accesses). G-Cache closes
    /// its bypass switches here; an estimated PDP re-estimates its distance.
    fn on_epoch(&mut self) {}
}

/// Every concrete policy behind one enum, so the cache's per-access hook
/// calls dispatch through a jump table instead of a `Box<dyn>` vtable —
/// the policy hooks run on every single cache access, making them the
/// hottest calls in the simulator.
///
/// Constructed via `From` impls from any concrete policy:
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::lru::Lru;
/// use gcache_core::policy::{PolicyKind, ReplacementPolicy};
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(1024, 2, 128)?;
/// let policy: PolicyKind = Lru::new(&geom).into();
/// assert_eq!(policy.name(), "LRU");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub enum PolicyKind {
    /// LRU (`BS`).
    Lru(lru::Lru),
    /// SRRIP (`BS-S`).
    Rrip(rrip::Rrip),
    /// The paper's adaptive bypass/insertion policy (`GC`).
    GCache(gcache::GCache),
    /// Protection-distance policy with bypass (`SPDP-B`, `PDP-3`, `PDP-8`).
    Pdp(pdp::Pdp),
}

/// Delegates every trait hook to the active variant with a `match` — the
/// compiler turns these into direct (often inlined) calls.
macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            PolicyKind::Lru($p) => $body,
            PolicyKind::Rrip($p) => $body,
            PolicyKind::GCache($p) => $body,
            PolicyKind::Pdp($p) => $body,
        }
    };
}

impl PolicyKind {
    /// `(open, total)` bypass-switch counts — the switch-on fraction of the
    /// telemetry layer. `None` for every policy without per-set switches
    /// (only G-Cache has them).
    pub fn switch_summary(&self) -> Option<(usize, usize)> {
        match self {
            PolicyKind::GCache(g) => Some((g.open_switches(), g.sets())),
            _ => None,
        }
    }

    /// Whether `set`'s bypass switch is open; `None` for policies without
    /// switches.
    pub fn switch_open(&self, set: usize) -> Option<bool> {
        match self {
            PolicyKind::GCache(g) => Some(g.switch_open(set)),
            _ => None,
        }
    }

    /// The RRPV of the line at `(set, way)` for RRIP-family policies
    /// (G-Cache's insertion depth right after a fill); `None` otherwise.
    pub fn rrpv_of(&self, set: usize, way: usize) -> Option<u8> {
        match self {
            PolicyKind::GCache(g) => Some(g.table().get(set, way)),
            PolicyKind::Rrip(r) => Some(r.table().get(set, way)),
            _ => None,
        }
    }
}

impl ReplacementPolicy for PolicyKind {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn on_access(&mut self, set: usize, tag: u64) {
        dispatch!(self, p => p.on_access(set, tag))
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way))
    }

    #[inline]
    fn fill_decision(&mut self, set: usize, valid_mask: u64, ctx: &AccessCtx) -> FillDecision {
        dispatch!(self, p => p.fill_decision(set, valid_mask, ctx))
    }

    #[inline]
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        dispatch!(self, p => p.on_insert(set, way, ctx))
    }

    #[inline]
    fn on_epoch(&mut self) {
        dispatch!(self, p => p.on_epoch())
    }
}

impl PolicyKind {
    /// Stable discriminant used in snapshots to catch a policy mismatch
    /// between the saving and restoring configuration. Tags 2 (DRRIP's) and
    /// 5 (the estimated PDP's, before it shared tag 4 with the fixed one)
    /// are retired and must not be handed to a new policy.
    fn variant_tag(&self) -> u8 {
        match self {
            PolicyKind::Lru(_) => 0,
            PolicyKind::Rrip(_) => 1,
            PolicyKind::GCache(_) => 3,
            PolicyKind::Pdp(_) => 4,
        }
    }
}

impl Snapshot for PolicyKind {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("policy", |w| {
            w.put(&self.variant_tag());
            dispatch!(self, p => p.save(w));
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("policy", |r| {
            let tag: u8 = r.get()?;
            if tag != self.variant_tag() {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "policy variant (tag {tag} saved, {} ({}) built)",
                        self.variant_tag(),
                        self.name()
                    ),
                });
            }
            dispatch!(self, p => p.restore(r))
        })
    }
}

impl From<lru::Lru> for PolicyKind {
    fn from(p: lru::Lru) -> Self {
        PolicyKind::Lru(p)
    }
}

impl From<rrip::Rrip> for PolicyKind {
    fn from(p: rrip::Rrip) -> Self {
        PolicyKind::Rrip(p)
    }
}

impl From<gcache::GCache> for PolicyKind {
    fn from(p: gcache::GCache) -> Self {
        PolicyKind::GCache(p)
    }
}

impl From<pdp::Pdp> for PolicyKind {
    fn from(p: pdp::Pdp) -> Self {
        PolicyKind::Pdp(p)
    }
}

/// Returns the lowest-numbered invalid way, if any.
///
/// Policies should prefer invalid ways before evicting; this helper keeps
/// that logic identical across implementations.
///
/// # Examples
///
/// ```
/// use gcache_core::policy::first_invalid_way;
///
/// assert_eq!(first_invalid_way(0b1011, 4), Some(2));
/// assert_eq!(first_invalid_way(0b1111, 4), None);
/// assert_eq!(first_invalid_way(0b0000, 4), Some(0));
/// ```
pub fn first_invalid_way(valid_mask: u64, ways: usize) -> Option<usize> {
    (0..ways).find(|&w| valid_mask & (1 << w) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write_predicate() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Atomic.is_write());
    }

    #[test]
    fn first_invalid_prefers_lowest() {
        assert_eq!(first_invalid_way(0b0001, 4), Some(1));
        assert_eq!(first_invalid_way(0b1110, 4), Some(0));
        assert_eq!(first_invalid_way(u64::MAX, 16), None);
    }

    #[test]
    fn plain_ctx_has_no_hint_and_no_class() {
        let ctx = AccessCtx::plain(LineAddr::new(7), CoreId(2));
        assert!(!ctx.victim_hint);
        assert_eq!(ctx.core, CoreId(2));
        assert_eq!(ctx.line, LineAddr::new(7));
        assert_eq!(ctx.class, None);
        let c = RequestClass::new(SlackBucket::Tight, ReuseClass::Streaming);
        assert_eq!(ctx.with_class(Some(c)).class, Some(c));
    }

    #[test]
    fn request_class_wire_round_trips() {
        assert_eq!(RequestClass::to_wire(None), 0);
        assert_eq!(RequestClass::from_wire(0), Ok(None));
        let mut seen = std::collections::HashSet::new();
        for slack in [
            SlackBucket::Tight,
            SlackBucket::Normal,
            SlackBucket::Relaxed,
        ] {
            for reuse in [
                ReuseClass::Streaming,
                ReuseClass::Moderate,
                ReuseClass::High,
            ] {
                let c = RequestClass::new(slack, reuse);
                let w = RequestClass::to_wire(Some(c));
                assert!((1..=9).contains(&w), "wire byte out of range: {w}");
                assert!(seen.insert(w), "wire byte {w} not unique");
                assert_eq!(RequestClass::from_wire(w), Ok(Some(c)));
            }
        }
        for bad in [10u8, 42, 255] {
            assert_eq!(RequestClass::from_wire(bad), Err(bad));
        }
    }
}
