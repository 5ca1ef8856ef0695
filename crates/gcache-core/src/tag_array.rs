//! The set-associative tag array shared by every cache in the hierarchy.
//!
//! The tag array tracks *which* lines are resident and their state; all
//! replacement intelligence lives in [`crate::policy`] implementations that
//! are driven by [`crate::cache::Cache`].
//!
//! # Packed layout
//!
//! Storage is struct-of-arrays, not an array of slot structs: per-set
//! contiguous `u64` tag words, a parallel byte array of [`LineState`]s (the
//! authoritative logical slots), and the per-line reuse counters in their
//! own array. On top of the state bytes the array *maintains* one validity
//! and one dirtiness bitmask word per set — bit `w` describes way `w` — so
//! the hot probe is a mask-guided branchless tag compare over one cache
//! line of tag words, and [`TagArray::valid_mask`] is a single load instead
//! of a loop. The masks are an acceleration structure in the same sense as
//! the mesh's head caches: every mutation keeps them in sync, snapshots
//! serialize only the logical slots, and restore rebuilds the masks from
//! the slot states (checked against `TagArray::recompute_masks`).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::line::{LineSlot, LineState};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// A line evicted from the tag array by a fill or invalidation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Whether the line was dirty (needs a write-back).
    pub dirty: bool,
    /// How many hits the line received during its residency.
    pub reuse: u32,
}

/// Set-associative tag array.
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::tag_array::TagArray;
/// use gcache_core::addr::LineAddr;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let mut tags = TagArray::new(CacheGeometry::new(1024, 2, 128)?);
/// let line = LineAddr::new(0x40);
/// assert_eq!(tags.probe(line), None);
/// let set = tags.geometry().set_of(line);
/// tags.fill(set, 0, line, false);
/// assert_eq!(tags.probe(line), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TagArray {
    geom: CacheGeometry,
    /// `geom.ways()` as `usize`, cached for index arithmetic.
    ways: usize,
    /// Per-line tags, `set * ways + way` indexed, contiguous per set.
    tags: Vec<u64>,
    /// Per-line logical state (the authoritative slots).
    state: Vec<LineState>,
    /// Per-line reuse counters (Figure 2's distribution), parallel array so
    /// the probe never drags them into cache.
    reuse: Vec<u32>,
    /// Maintained per-set validity words: bit `w` ⇔ way `w` valid.
    valid: Vec<u64>,
    /// Maintained per-set dirtiness words: bit `w` ⇔ way `w` dirty.
    dirty: Vec<u64>,
}

impl TagArray {
    /// Creates an empty tag array of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 ways (the per-set masks are
    /// single `u64` words, the same bound [`crate::policy`] assumes for its
    /// `valid_mask` parameter).
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.ways() <= 64, "per-set masks hold at most 64 ways");
        let lines = geom.lines() as usize;
        let sets = geom.sets() as usize;
        TagArray {
            geom,
            ways: geom.ways() as usize,
            tags: vec![0; lines],
            state: vec![LineState::Invalid; lines],
            reuse: vec![0; lines],
            valid: vec![0; sets],
            dirty: vec![0; sets],
        }
    }

    /// The geometry of this array.
    pub const fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    #[inline]
    fn slot_index(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.geom.sets() as usize);
        debug_assert!(way < self.ways);
        set * self.ways + way
    }

    /// Logical view of one slot (assembled from the packed arrays).
    #[inline]
    pub fn slot(&self, set: usize, way: usize) -> LineSlot {
        let idx = self.slot_index(set, way);
        LineSlot {
            tag: self.tags[idx],
            state: self.state[idx],
            reuse: self.reuse[idx],
        }
    }

    /// Looks a line up; returns the way on a tag match with valid state.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        self.probe_set(self.geom.set_of(line), self.geom.tag_of(line))
    }

    /// [`TagArray::probe`] with the set/tag decode already done — the
    /// batched coalesce→access pipeline decodes a warp's whole transaction
    /// group up front and probes through this entry point.
    ///
    /// The compare is branchless: one pass over the set's contiguous tag
    /// words builds a match mask that is ANDed with the maintained validity
    /// word; the answer is its lowest set bit.
    #[inline]
    pub fn probe_set(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let mut matches = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            matches |= u64::from(t == tag) << w;
        }
        let hit = matches & self.valid[set];
        if hit == 0 {
            None
        } else {
            Some(hit.trailing_zeros() as usize)
        }
    }

    /// Records a hit on (set, way), bumping the slot's reuse counter.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, write: bool) {
        let idx = self.slot_index(set, way);
        debug_assert!(self.state[idx].is_valid(), "touch on invalid slot");
        self.reuse[idx] = self.reuse[idx].saturating_add(1);
        if write {
            self.state[idx] = LineState::Dirty;
            self.dirty[set] |= 1 << way;
        }
    }

    /// Bitmask with bit `w` set iff way `w` of `set` holds a valid line.
    /// A single load of the maintained per-set word.
    #[inline]
    pub fn valid_mask(&self, set: usize) -> u64 {
        self.valid[set]
    }

    /// Bitmask with bit `w` set iff way `w` of `set` holds a dirty line.
    #[inline]
    pub fn dirty_mask(&self, set: usize) -> u64 {
        self.dirty[set]
    }

    /// Recomputes the (validity, dirtiness) words of `set` from the
    /// authoritative per-slot states — the reference the maintained masks
    /// must always equal. Used by restore verification and tests; the hot
    /// path never calls it.
    fn recompute_masks(&self, set: usize) -> (u64, u64) {
        let base = set * self.ways;
        let mut valid = 0u64;
        let mut dirty = 0u64;
        for w in 0..self.ways {
            let s = self.state[base + w];
            valid |= u64::from(s.is_valid()) << w;
            dirty |= u64::from(s.is_dirty()) << w;
        }
        (valid, dirty)
    }

    /// Installs `line` into (set, way), returning the previously resident
    /// line if it was valid.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line` does not map to `set`.
    pub fn fill(&mut self, set: usize, way: usize, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert_eq!(self.geom.set_of(line), set, "line/set mismatch on fill");
        let evicted = self.evicted_view(set, way);
        let idx = self.slot_index(set, way);
        self.tags[idx] = self.geom.tag_of(line);
        self.reuse[idx] = 0;
        let bit = 1u64 << way;
        self.valid[set] |= bit;
        if dirty {
            self.state[idx] = LineState::Dirty;
            self.dirty[set] |= bit;
        } else {
            self.state[idx] = LineState::Clean;
            self.dirty[set] &= !bit;
        }
        evicted
    }

    /// Invalidates (set, way), returning the victim if one was resident.
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<Evicted> {
        let evicted = self.evicted_view(set, way);
        let idx = self.slot_index(set, way);
        self.state[idx] = LineState::Invalid;
        self.reuse[idx] = 0;
        let bit = 1u64 << way;
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        evicted
    }

    fn evicted_view(&self, set: usize, way: usize) -> Option<Evicted> {
        let idx = self.slot_index(set, way);
        self.state[idx].is_valid().then(|| Evicted {
            line: self.geom.line_of(self.tags[idx], set),
            dirty: self.state[idx].is_dirty(),
            reuse: self.reuse[idx],
        })
    }

    /// Number of valid lines across the whole array (popcount of the
    /// maintained validity words).
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Whether every maintained mask word equals the reference recomputed
    /// from the slot states. Debug/restore verification only.
    pub fn masks_consistent(&self) -> bool {
        (0..self.geom.sets() as usize)
            .all(|set| (self.valid[set], self.dirty[set]) == self.recompute_masks(set))
    }
}

/// Wire format: the struct-of-arrays the memory layout already is — all
/// tags, then all states (one byte each), then all reuse counters. These
/// are the *logical* slots; the packed mask words are acceleration state
/// and are rebuilt on restore, exactly like the mesh's head caches.
impl Snapshot for TagArray {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("tags", |w| {
            w.u64s(&self.tags);
            w.u8s(self.state.iter().map(|&s| s as u8));
            w.u32s(&self.reuse);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("tags", |r| {
            r.u64s(&mut self.tags, "tag array size")?;
            let states = r.u8s(self.state.len(), "tag array states")?;
            for (state, &v) in self.state.iter_mut().zip(states) {
                *state = match v {
                    0 => LineState::Invalid,
                    1 => LineState::Clean,
                    2 => LineState::Dirty,
                    v => {
                        return Err(SnapshotError::BadValue {
                            what: "line state".to_string(),
                            value: v as u64,
                        })
                    }
                };
            }
            r.u32s(&mut self.reuse, "tag array reuse counters")?;
            // Rebuild the packed masks from the restored slot states.
            for set in 0..self.geom.sets() as usize {
                let (valid, dirty) = self.recompute_masks(set);
                self.valid[set] = valid;
                self.dirty[set] = dirty;
            }
            debug_assert!(self.masks_consistent());
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray {
        TagArray::new(CacheGeometry::new(1024, 2, 128).unwrap()) // 4 sets, 2 ways
    }

    #[test]
    fn probe_miss_on_empty() {
        let tags = small();
        assert_eq!(tags.probe(LineAddr::new(0)), None);
        assert_eq!(tags.occupancy(), 0);
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut tags = small();
        let line = LineAddr::new(5); // set 1 (4 sets)
        let set = tags.geometry().set_of(line);
        assert_eq!(set, 1);
        assert_eq!(tags.fill(set, 0, line, false), None);
        assert_eq!(tags.probe(line), Some(0));
        assert_eq!(tags.occupancy(), 1);
    }

    #[test]
    fn fill_over_valid_returns_evicted() {
        let mut tags = small();
        let a = LineAddr::new(4); // set 0
        let b = LineAddr::new(8); // set 0
        tags.fill(0, 1, a, false);
        tags.touch(0, 1, false);
        tags.touch(0, 1, false);
        let ev = tags.fill(0, 1, b, false).expect("eviction");
        assert_eq!(ev.line, a);
        assert!(!ev.dirty);
        assert_eq!(ev.reuse, 2);
        assert_eq!(tags.probe(a), None);
        assert_eq!(tags.probe(b), Some(1));
    }

    #[test]
    fn write_touch_marks_dirty() {
        let mut tags = small();
        let a = LineAddr::new(0);
        tags.fill(0, 0, a, false);
        tags.touch(0, 0, true);
        assert_eq!(tags.dirty_mask(0), 0b01);
        let ev = tags.invalidate(0, 0).unwrap();
        assert!(ev.dirty);
        assert_eq!(tags.probe(a), None);
        assert_eq!(tags.dirty_mask(0), 0b00);
    }

    #[test]
    fn dirty_fill_is_dirty() {
        let mut tags = small();
        tags.fill(0, 0, LineAddr::new(0), true);
        assert!(tags.slot(0, 0).state.is_dirty());
        assert_eq!(tags.dirty_mask(0), 0b01);
        // A clean refill of the same way clears the dirty bit.
        tags.fill(0, 0, LineAddr::new(4), false);
        assert_eq!(tags.dirty_mask(0), 0b00);
        assert!(tags.masks_consistent());
    }

    #[test]
    fn valid_mask_tracks_ways() {
        let mut tags = small();
        assert_eq!(tags.valid_mask(0), 0b00);
        tags.fill(0, 1, LineAddr::new(0), false);
        assert_eq!(tags.valid_mask(0), 0b10);
        tags.fill(0, 0, LineAddr::new(4), false);
        assert_eq!(tags.valid_mask(0), 0b11);
        tags.invalidate(0, 1);
        assert_eq!(tags.valid_mask(0), 0b01);
        assert!(tags.masks_consistent());
    }

    #[test]
    fn probe_set_matches_probe() {
        let mut tags = small();
        let g = *tags.geometry();
        for raw in [0u64, 1, 4, 5, 8, 13] {
            let line = LineAddr::new(raw);
            let set = g.set_of(line);
            tags.fill(set, (raw % 2) as usize, line, false);
        }
        for raw in 0..32u64 {
            let line = LineAddr::new(raw);
            assert_eq!(
                tags.probe(line),
                tags.probe_set(g.set_of(line), g.tag_of(line)),
                "decoded probe diverged at {raw:#x}"
            );
        }
    }

    #[test]
    fn stale_tag_of_invalid_slot_never_matches() {
        let mut tags = small();
        let a = LineAddr::new(4); // set 0
        tags.fill(0, 0, a, false);
        tags.invalidate(0, 0);
        // The tag word still holds `a`'s tag; the validity mask must keep
        // the branchless compare from reporting it.
        assert_eq!(tags.probe(a), None);
    }

    #[test]
    fn snapshot_restore_rebuilds_masks() {
        let mut tags = small();
        tags.fill(0, 0, LineAddr::new(0), false);
        tags.fill(0, 1, LineAddr::new(4), true);
        tags.fill(2, 1, LineAddr::new(6), false);
        tags.touch(2, 1, true);
        let mut w = SnapshotWriter::new();
        tags.save(&mut w);
        let bytes = w.finish();

        let mut restored = small();
        restored
            .restore(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();
        for set in 0..4 {
            assert_eq!(
                (restored.valid_mask(set), restored.dirty_mask(set)),
                restored.recompute_masks(set),
                "set {set} masks not rebuilt"
            );
            assert_eq!(restored.valid_mask(set), tags.valid_mask(set));
            assert_eq!(restored.dirty_mask(set), tags.dirty_mask(set));
        }
        assert!(restored.masks_consistent());
    }

    #[test]
    #[should_panic(expected = "line/set mismatch")]
    #[cfg(debug_assertions)]
    fn fill_wrong_set_panics() {
        let mut tags = small();
        tags.fill(0, 0, LineAddr::new(1), false);
    }
}
