//! Structured event tracing: an opt-in, bounded record of *what the
//! hierarchy did*, event by event.
//!
//! Aggregate counters ([`crate::stats::CacheStats`]) answer "how often";
//! this module answers "when, and to which line". A component that supports
//! tracing holds a [`Tracer`] and emits a [`TraceKind`] at each
//! interesting decision point — cache lookups, fill insert/bypass outcomes
//! with their insertion depth, G-Cache switch flips and epoch resets, MSHR
//! allocate/merge/release, DRAM row activations. A detached tracer's
//! `emit` is a single `Option` discriminant test, so the traced and
//! untraced simulations are behaviourally identical (the golden-output
//! tests enforce this).
//!
//! Events land in a [`SharedTraceRing`], a bounded ring of fixed-size
//! [`TraceEvent`] rows (old events are overwritten, never reallocated)
//! behind a cloneable handle that attaches one ring to many components
//! while keeping a read side. Every event kind is
//! described once, by [`TraceKind::describe`]: its stable name and its
//! ordered `(key, value)` arguments. The text dump ([`dump_filtered`],
//! optionally restricted by a [`TraceFilter`] — e.g. one line's contention
//! anatomy, see `examples/contention_anatomy.rs` in the workspace root),
//! the filter's line and core lookups and the Perfetto export
//! ([`crate::trace_export`]) are all derived from that description.

use crate::addr::{CoreId, LineAddr};
use crate::policy::AccessKind;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which level of the hierarchy emitted an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceLevel {
    /// A per-core L1 cache (or its controller).
    L1,
    /// A shared per-cluster L1.5 cache.
    L15,
    /// An L2 bank (or its controller).
    L2,
    /// A DRAM channel scheduler.
    Dram,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceLevel::L1 => "L1",
            TraceLevel::L15 => "L1.5",
            TraceLevel::L2 => "L2",
            TraceLevel::Dram => "DRAM",
        })
    }
}

/// Identity of the emitting component instance: hierarchy level plus the
/// instance index at that level (core id for L1s, cluster id for L1.5s,
/// partition id for L2 banks and DRAM channels).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceSource {
    /// Hierarchy level.
    pub level: TraceLevel,
    /// Instance index within the level.
    pub index: u16,
}

impl TraceSource {
    /// Builds a source id.
    pub const fn new(level: TraceLevel, index: u16) -> Self {
        TraceSource { level, index }
    }
}

impl fmt::Display for TraceSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.level, self.index)
    }
}

/// How a DRAM column access met the bank's open row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DramRowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle; the row was opened without a precharge.
    Open,
    /// A different row was open and had to be precharged first.
    Conflict,
}

/// The payload of one trace event (the event taxonomy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A committed cache lookup.
    Access {
        /// The line looked up.
        line: LineAddr,
        /// Access kind.
        kind: AccessKind,
        /// Requesting core.
        core: CoreId,
        /// Whether the lookup hit.
        hit: bool,
        /// Victim hint observed on the hit (L2 with victim bits only).
        victim_hint: bool,
    },
    /// A returning fill was inserted into the cache.
    FillInsert {
        /// The line filled.
        line: LineAddr,
        /// Requesting core.
        core: CoreId,
        /// Victim hint attached to the fill.
        victim_hint: bool,
        /// Destination set.
        set: u32,
        /// Destination way.
        way: u8,
        /// Insertion depth: the line's RRPV right after insertion (0 =
        /// hottest). Always 0 for non-RRIP policies.
        depth: u8,
    },
    /// A returning fill was refused by the policy (bypass-on-fill).
    FillBypass {
        /// The line bypassed.
        line: LineAddr,
        /// Requesting core.
        core: CoreId,
        /// Victim hint attached to the fill.
        victim_hint: bool,
        /// Target set whose policy refused the line.
        set: u32,
    },
    /// A clean victim was pushed down the hierarchy anyway (copy-back
    /// plane decision, RDC-style).
    CleanCopyBack {
        /// The clean line being copied back.
        line: LineAddr,
        /// Set the victim was evicted from.
        set: u32,
        /// Reuse count the victim accumulated during its residency.
        reuse: u32,
    },
    /// A G-Cache per-set bypass switch changed state.
    SwitchFlip {
        /// The set whose switch flipped.
        set: u32,
        /// New state: `true` = bypassing.
        open: bool,
    },
    /// The policy's epoch hook fired (G-Cache closes all switches here).
    EpochReset {
        /// Bypass switches open just before the reset.
        open_switches: u32,
    },
    /// A miss allocated (or merged into) an MSHR entry.
    MshrAlloc {
        /// The missing line.
        line: LineAddr,
        /// `true` if merged into an outstanding entry (no new request).
        merged: bool,
        /// Entries in use after this allocation.
        occupancy: u16,
    },
    /// A fill released an MSHR entry and its merged targets.
    MshrRelease {
        /// The filled line.
        line: LineAddr,
        /// Number of targets released.
        targets: u16,
    },
    /// A DRAM column access was issued.
    DramAccess {
        /// Bank index within the channel.
        bank: u16,
        /// Row address.
        row: u64,
        /// Row-buffer outcome.
        outcome: DramRowOutcome,
        /// Whether the access was a write.
        write: bool,
    },
}

/// One argument of a described event ([`TraceKind::describe`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceArg {
    /// A line address (a hex string in JSON, since 64-bit addresses
    /// outgrow a double).
    Line(LineAddr),
    /// A count, index or id.
    Num(u64),
    /// A yes/no fact.
    Flag(bool),
    /// One of a fixed set of words.
    Word(&'static str),
}

impl fmt::Display for TraceArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceArg::Line(line) => line.fmt(f),
            TraceArg::Num(n) => n.fmt(f),
            TraceArg::Flag(b) => b.fmt(f),
            TraceArg::Word(w) => f.write_str(w),
        }
    }
}

/// How a [`TraceKind`] field of each type is shown.
macro_rules! trace_arg_from {
    ($($ty:ty => |$v:ident| $arg:expr),+ $(,)?) => {$(
        impl From<$ty> for TraceArg {
            fn from($v: $ty) -> Self {
                $arg
            }
        }
    )+};
}
trace_arg_from! {
    LineAddr => |v| TraceArg::Line(v),
    CoreId => |v| TraceArg::Num(v.index() as u64),
    u64 => |v| TraceArg::Num(v),
    u32 => |v| TraceArg::Num(v.into()),
    u16 => |v| TraceArg::Num(v.into()),
    u8 => |v| TraceArg::Num(v.into()),
    bool => |v| TraceArg::Flag(v),
    &'static str => |v| TraceArg::Word(v),
}

impl TraceKind {
    /// The one description of every event kind: its stable name (what
    /// Perfetto shows on the track and what queries match on — facts that
    /// split a kind, such as hit/miss or open/close, are part of the name)
    /// and its arguments in display order, each keyed by the name of the
    /// field it shows. Adding an event kind is one variant above and one
    /// arm here.
    pub fn describe(&self) -> (&'static str, Vec<(&'static str, TraceArg)>) {
        use TraceKind::*;
        macro_rules! args {
            ($($field:ident),+) => { vec![$((stringify!($field), TraceArg::from($field))),+] };
        }
        match *self {
            Access {
                line,
                kind,
                core,
                hit,
                victim_hint,
            } => {
                let name = match (kind, hit) {
                    (AccessKind::Read, true) => "ld hit",
                    (AccessKind::Read, false) => "ld miss",
                    (AccessKind::Write, true) => "st hit",
                    (AccessKind::Write, false) => "st miss",
                    (AccessKind::Atomic, true) => "atomic hit",
                    (AccessKind::Atomic, false) => "atomic miss",
                    (AccessKind::CopyBack, true) => "copy-back hit",
                    (AccessKind::CopyBack, false) => "copy-back miss",
                };
                (name, args![line, core, victim_hint])
            }
            FillInsert {
                line,
                core,
                victim_hint,
                set,
                way,
                depth,
            } => (
                "fill insert",
                args![line, core, victim_hint, set, way, depth],
            ),
            FillBypass {
                line,
                core,
                victim_hint,
                set,
            } => ("fill bypass", args![line, core, victim_hint, set]),
            CleanCopyBack { line, set, reuse } => ("clean copy-back", args![line, set, reuse]),
            SwitchFlip { set, open } => (
                if open { "switch open" } else { "switch close" },
                args![set, open],
            ),
            EpochReset { open_switches } => ("epoch reset", args![open_switches]),
            MshrAlloc {
                line,
                merged,
                occupancy,
            } => (
                if merged { "mshr merge" } else { "mshr alloc" },
                args![line, occupancy],
            ),
            MshrRelease { line, targets } => ("mshr release", args![line, targets]),
            DramAccess {
                bank,
                row,
                outcome,
                write,
            } => {
                let row_buffer = match outcome {
                    DramRowOutcome::Hit => "hit",
                    DramRowOutcome::Open => "open",
                    DramRowOutcome::Conflict => "conflict",
                };
                (
                    if write { "dram wr" } else { "dram rd" },
                    args![bank, row, row_buffer],
                )
            }
        }
    }
}

/// One recorded event: sequence number and ring-local timestamp (the
/// simulated cycle when the owner keeps [`SharedTraceRing::set_time`] updated;
/// the event ordinal otherwise) plus source and payload.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Monotonic per-ring sequence number.
    pub seq: u64,
    /// Timestamp (see type docs).
    pub time: u64,
    /// Emitting component.
    pub src: TraceSource,
    /// Payload.
    pub kind: TraceKind,
}

impl TraceEvent {
    fn arg(&self, key: &str) -> Option<TraceArg> {
        let (_, args) = self.kind.describe();
        args.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The line address this event concerns, if it has one.
    pub fn line(&self) -> Option<LineAddr> {
        match self.arg("line")? {
            TraceArg::Line(line) => Some(line),
            _ => None,
        }
    }

    /// The requesting core this event concerns, if it carries one.
    pub fn core(&self) -> Option<CoreId> {
        match self.arg("core")? {
            TraceArg::Num(core) => Some(CoreId(core as usize)),
            _ => None,
        }
    }
}

/// The text dump's row: `seq @time src name key=value …`.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (src, (name, args)) = (self.src.to_string(), self.kind.describe());
        write!(f, "{:>6} @{:<8} {src:<7} {name}", self.seq, self.time)?;
        args.iter().try_for_each(|(k, v)| write!(f, " {k}={v}"))
    }
}

/// The ring behind a [`SharedTraceRing`].
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    seq: u64,
    time: u64,
    dropped: u64,
}

/// A bounded ring of trace events — fixed capacity allocated up front,
/// old events overwritten once full (`dropped` keeps the count) — behind
/// a cloneable handle: clone it into every component that should feed the
/// ring (a [`Tracer`] does), keep one clone to read the events back out.
#[derive(Clone, Debug)]
pub struct SharedTraceRing(Arc<Mutex<Ring>>);

impl SharedTraceRing {
    /// Creates a shared ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        SharedTraceRing(Arc::new(Mutex::new(Ring {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            seq: 0,
            time: 0,
            dropped: 0,
        })))
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.0.lock().expect("no emitter panics holding the ring")
    }

    /// Sets the timestamp stamped onto subsequent events from any clone
    /// (typically the simulated cycle).
    pub fn set_time(&self, time: u64) {
        self.ring().time = time;
    }

    /// Snapshot of the held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring();
        [&ring.buf[ring.head..], &ring.buf[..ring.head]].concat()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.ring().seq
    }

    /// Discards all held events (capacity and sequence are retained).
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.buf.clear();
        ring.head = 0;
    }

    /// Records one event through any clone, stamping its sequence number
    /// and timestamp.
    pub fn record(&self, src: TraceSource, kind: TraceKind) {
        let mut ring = self.ring();
        let ev = TraceEvent {
            seq: ring.seq,
            time: ring.time,
            src,
            kind,
        };
        ring.seq += 1;
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % ring.cap;
            ring.dropped += 1;
        }
    }
}

/// A component's trace hook: detached (the default), or attached to a
/// shared ring under the component's [`TraceSource`]. Detached, [`emit`]
/// costs one `Option` discriminant test; the hook is an observation
/// channel and is never part of a component's snapshot.
///
/// [`emit`]: Tracer::emit
#[derive(Debug, Default)]
pub struct Tracer(Option<(TraceSource, SharedTraceRing)>);

impl Tracer {
    /// A hook feeding `ring` as `src`.
    pub fn attached(src: TraceSource, ring: &SharedTraceRing) -> Self {
        Tracer(Some((src, ring.clone())))
    }

    /// Whether events go anywhere — the guard for a payload that costs
    /// something to compute.
    pub const fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Records `kind` if attached.
    #[inline]
    pub fn emit(&self, kind: TraceKind) {
        if let Some((src, ring)) = &self.0 {
            ring.record(*src, kind);
        }
    }
}

/// A conjunctive event filter for [`dump_filtered`]: every populated field
/// must match; fields an event does not carry (e.g. the line of a
/// [`TraceKind::SwitchFlip`]) fail the corresponding constraint.
#[derive(Clone, Copy, Default, Debug)]
pub struct TraceFilter {
    /// Restrict to one hierarchy level.
    pub level: Option<TraceLevel>,
    /// Restrict to one instance index.
    pub index: Option<u16>,
    /// Restrict to events about one line.
    pub line: Option<LineAddr>,
    /// Restrict to events about one requesting core.
    pub core: Option<CoreId>,
}

impl TraceFilter {
    /// A filter matching every event.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Restricts to events about `line`.
    pub fn line(line: LineAddr) -> Self {
        TraceFilter {
            line: Some(line),
            ..TraceFilter::default()
        }
    }

    /// Whether `ev` passes the filter.
    pub fn matches(&self, ev: &TraceEvent) -> bool {
        self.level.is_none_or(|level| ev.src.level == level)
            && self.index.is_none_or(|index| ev.src.index == index)
            && self.line.is_none_or(|line| ev.line() == Some(line))
            && self.core.is_none_or(|core| ev.core() == Some(core))
    }
}

/// Renders the events passing `filter` as text, one per line (the
/// filtering text dumper).
pub fn dump_filtered(events: &[TraceEvent], filter: &TraceFilter) -> String {
    let mut out = String::new();
    for ev in events.iter().filter(|ev| filter.matches(ev)) {
        out.push_str(&ev.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const SRC: TraceSource = TraceSource::new(TraceLevel::L1, 3);

    /// One event of every [`TraceKind`] variant (and of every name a
    /// variant can take), spread over four tracks.
    pub(crate) fn one_of_each_kind() -> Vec<TraceEvent> {
        let l1 = TraceSource::new(TraceLevel::L1, 3);
        let l15 = TraceSource::new(TraceLevel::L15, 1);
        let l2 = TraceSource::new(TraceLevel::L2, 0);
        let dram = TraceSource::new(TraceLevel::Dram, 2);
        let line = LineAddr::new(0x1234);
        let access = |kind, core, hit, victim_hint| TraceKind::Access {
            line,
            kind,
            core: CoreId(core),
            hit,
            victim_hint,
        };
        let dram_access = |bank, row, outcome, write| TraceKind::DramAccess {
            bank,
            row,
            outcome,
            write,
        };
        let flip = |open| TraceKind::SwitchFlip { set: 5, open };
        let mshr = |merged, occupancy| TraceKind::MshrAlloc {
            line,
            merged,
            occupancy,
        };
        let fill = TraceKind::FillInsert {
            line,
            core: CoreId(1),
            victim_hint: true,
            set: 2,
            way: 3,
            depth: 1,
        };
        let bypass = TraceKind::FillBypass {
            line,
            core: CoreId(1),
            victim_hint: false,
            set: 2,
        };
        let copy_back = TraceKind::CleanCopyBack {
            line,
            set: 9,
            reuse: 4,
        };
        let kinds = [
            (l1, access(AccessKind::Read, 3, false, false)),
            (l2, access(AccessKind::Write, 3, true, true)),
            (l2, access(AccessKind::Atomic, 1, false, false)),
            (l15, access(AccessKind::CopyBack, 1, true, false)),
            (l1, fill),
            (l1, bypass),
            (l15, copy_back),
            (l1, flip(true)),
            (l1, flip(false)),
            (l1, TraceKind::EpochReset { open_switches: 12 }),
            (l1, mshr(false, 7)),
            (l2, mshr(true, 8)),
            (l2, TraceKind::MshrRelease { line, targets: 2 }),
            (dram, dram_access(1, 77, DramRowOutcome::Hit, false)),
            (dram, dram_access(2, 78, DramRowOutcome::Open, true)),
            (dram, dram_access(3, 79, DramRowOutcome::Conflict, false)),
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, (src, kind))| TraceEvent {
                seq: i as u64,
                time: 10 * i as u64 + 5,
                src,
                kind,
            })
            .collect()
    }

    fn access(line: u64, hit: bool) -> TraceKind {
        TraceKind::Access {
            line: LineAddr::new(line),
            kind: AccessKind::Read,
            core: CoreId(0),
            hit,
            victim_hint: false,
        }
    }

    #[test]
    fn ring_keeps_insertion_order() {
        let ring = SharedTraceRing::new(8);
        for i in 0..5 {
            ring.set_time(i * 10);
            ring.record(SRC, access(i, false));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[4].seq, 4);
        assert_eq!(evs[4].time, 40);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = SharedTraceRing::new(3);
        for i in 0..5 {
            ring.record(SRC, access(i, false));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 2, "oldest surviving event");
        assert_eq!(evs[2].seq, 4);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn shared_ring_clones_feed_one_buffer() {
        let ring = SharedTraceRing::new(16);
        let a = ring.clone();
        let b = ring.clone();
        a.record(SRC, access(1, false));
        b.record(TraceSource::new(TraceLevel::L2, 0), access(1, true));
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].src.level, TraceLevel::L1);
        assert_eq!(evs[1].src.level, TraceLevel::L2);
        assert_eq!(evs[1].seq, 1);
    }

    #[test]
    fn filter_selects_by_line_and_level() {
        let ring = SharedTraceRing::new(16);
        ring.record(SRC, access(1, false));
        ring.record(SRC, access(2, false));
        ring.record(SRC, TraceKind::SwitchFlip { set: 0, open: true });
        let evs = ring.events();

        let by_line = dump_filtered(&evs, &TraceFilter::line(LineAddr::new(2)));
        assert_eq!(by_line.lines().count(), 1);
        assert!(by_line.contains("miss"));

        // A line filter excludes events that carry no line at all.
        assert!(!dump_filtered(&evs, &TraceFilter::line(LineAddr::new(2))).contains("switch"));

        let by_level = dump_filtered(
            &evs,
            &TraceFilter {
                level: Some(TraceLevel::L2),
                ..TraceFilter::default()
            },
        );
        assert!(by_level.is_empty());
    }

    #[test]
    fn shared_ring_wraps_coherently_across_clones() {
        // Several components hold clones of one 4-slot ring; their
        // interleaved emissions must wrap as one stream: global
        // sequence numbers, oldest-first readout, one shared dropped
        // counter.
        let ring = SharedTraceRing::new(4);
        let sinks = [
            (TraceSource::new(TraceLevel::L1, 0), ring.clone()),
            (TraceSource::new(TraceLevel::L15, 1), ring.clone()),
            (TraceSource::new(TraceLevel::L2, 2), ring.clone()),
        ];
        for i in 0..10u64 {
            ring.set_time(i * 100);
            let (src, sink) = &sinks[(i % 3) as usize];
            sink.record(*src, access(i, false));
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6, "10 events through 4 slots");
        let evs = ring.events();
        assert_eq!(evs.len(), 4);
        // The survivors are exactly the last four, oldest first, with
        // the timestamps their emitters saw.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert_eq!(evs[0].time, 600);
        assert_eq!(evs[0].src.level, TraceLevel::L1, "seq 6 came from clone 0");
        assert_eq!(evs[3].src.level, TraceLevel::L1, "seq 9 came from clone 0");

        // Clearing through the handle empties every clone's view but
        // keeps the global sequence running.
        ring.clear();
        assert!(ring.events().is_empty());
        sinks[1].1.record(sinks[1].0, access(99, true));
        let evs = ring.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].seq, 10, "sequence numbers survive a clear");
    }

    #[test]
    fn ring_wraparound_at_exact_capacity_multiple() {
        // After exactly 2x capacity the head is back at slot 0: the
        // readout must still be oldest-first (a regression guard for
        // the head-split concatenation in `events`).
        let ring = SharedTraceRing::new(4);
        for i in 0..8 {
            ring.record(SRC, access(i, false));
        }
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [4, 5, 6, 7]);
        assert_eq!(ring.dropped(), 4);
    }

    #[test]
    fn filter_fields_combine_conjunctively() {
        let ring = SharedTraceRing::new(16);
        let l1a = TraceSource::new(TraceLevel::L1, 0);
        let l1b = TraceSource::new(TraceLevel::L1, 1);
        let l2 = TraceSource::new(TraceLevel::L2, 0);
        ring.record(l1a, access(7, false)); // L1#0, line 7, core 0
        ring.record(l1b, access(7, true)); // L1#1, line 7, core 0
        ring.record(l2, access(7, true)); // L2#0, line 7, core 0
        ring.record(l1a, access(8, false)); // L1#0, line 8, core 0
        ring.record(l1a, TraceKind::SwitchFlip { set: 1, open: true });
        let evs = ring.events();

        // Level + line: both constraints must hold.
        let f = TraceFilter {
            level: Some(TraceLevel::L1),
            line: Some(LineAddr::new(7)),
            ..TraceFilter::default()
        };
        assert_eq!(evs.iter().filter(|e| f.matches(e)).count(), 2);

        // Adding the instance index narrows further.
        let f = TraceFilter {
            index: Some(1),
            ..f
        };
        let hits: Vec<_> = evs.iter().filter(|e| f.matches(e)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].src, l1b);

        // A core constraint rejects events that carry no core (the
        // switch flip), even though its level and index match.
        let f = TraceFilter {
            level: Some(TraceLevel::L1),
            index: Some(0),
            core: Some(CoreId(0)),
            ..TraceFilter::default()
        };
        let hits: Vec<_> = evs.iter().filter(|e| f.matches(e)).collect();
        assert_eq!(hits.len(), 2, "line-7 and line-8 accesses from L1#0");
        assert!(hits
            .iter()
            .all(|e| !matches!(e.kind, TraceKind::SwitchFlip { .. })));

        // Mutually unsatisfiable combination: empty, not a panic.
        let f = TraceFilter {
            level: Some(TraceLevel::Dram),
            line: Some(LineAddr::new(7)),
            ..TraceFilter::default()
        };
        assert_eq!(dump_filtered(&evs, &f), "");

        // The empty filter passes everything.
        assert_eq!(dump_filtered(&evs, &TraceFilter::all()).lines().count(), 5);
    }

    #[test]
    fn display_is_stable_and_readable() {
        // The text dump of every kind: `seq @time src name key=value …`,
        // the same names and arguments the Perfetto export carries.
        let dump = dump_filtered(&one_of_each_kind(), &TraceFilter::all());
        assert_eq!(
            dump,
            "     0 @5        L1#3    ld miss line=0x1234 core=3 victim_hint=false
     1 @15       L2#0    st hit line=0x1234 core=3 victim_hint=true
     2 @25       L2#0    atomic miss line=0x1234 core=1 victim_hint=false
     3 @35       L1.5#1  copy-back hit line=0x1234 core=1 victim_hint=false
     4 @45       L1#3    fill insert line=0x1234 core=1 victim_hint=true set=2 way=3 depth=1
     5 @55       L1#3    fill bypass line=0x1234 core=1 victim_hint=false set=2
     6 @65       L1.5#1  clean copy-back line=0x1234 set=9 reuse=4
     7 @75       L1#3    switch open set=5 open=true
     8 @85       L1#3    switch close set=5 open=false
     9 @95       L1#3    epoch reset open_switches=12
    10 @105      L1#3    mshr alloc line=0x1234 occupancy=7
    11 @115      L2#0    mshr merge line=0x1234 occupancy=8
    12 @125      L2#0    mshr release line=0x1234 targets=2
    13 @135      DRAM#2  dram rd bank=1 row=77 row_buffer=hit
    14 @145      DRAM#2  dram wr bank=2 row=78 row_buffer=open
    15 @155      DRAM#2  dram rd bank=3 row=79 row_buffer=conflict
"
        );
    }

    #[test]
    fn line_and_core_come_from_the_description() {
        let events = one_of_each_kind();
        let with_line = events.iter().filter(|e| e.line().is_some()).count();
        let with_core = events.iter().filter(|e| e.core().is_some()).count();
        assert_eq!((with_line, with_core), (10, 6));
        assert_eq!(events[0].line(), Some(LineAddr::new(0x1234)));
        assert_eq!(events[0].core(), Some(CoreId(3)));
        assert_eq!(events[9].line(), None, "an epoch reset has no line");
    }

    #[test]
    fn detached_tracer_records_nothing() {
        let ring = SharedTraceRing::new(4);
        let (off, on) = (Tracer::default(), Tracer::attached(SRC, &ring));
        assert!(!off.is_attached() && on.is_attached());
        off.emit(access(1, true));
        on.emit(access(2, false));
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].src, events[0].line()),
            (SRC, Some(LineAddr::new(2)))
        );
    }
}
