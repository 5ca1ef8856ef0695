//! Miss-Status Holding Registers with same-line merging.
//!
//! Both L1s (32 entries per core in the paper's configuration) and L2 banks
//! use this structure. A primary miss allocates an entry and sends one
//! request downstream; secondary misses to the same line merge into the
//! entry. When the fill returns, all merged targets are released at once.

use crate::addr::LineAddr;
use crate::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a line address with one folded multiply: the 128-bit product's
/// halves XORed, so high address bits reach the low hash bits the map
/// takes its bucket index from. Keys are addresses the simulated kernels
/// generate, not input from outside the program, so the default hasher's
/// protection against crafted collisions buys nothing here but its cost.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Why an MSHR allocation failed. The requester must stall and retry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrReject {
    /// All entries are in use and the line has no existing entry.
    Full,
    /// The line has an entry but its merge list is at capacity.
    MergeFull,
}

impl fmt::Display for MshrReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrReject::Full => f.write_str("all MSHR entries in use"),
            MshrReject::MergeFull => f.write_str("MSHR merge list full"),
        }
    }
}

impl std::error::Error for MshrReject {}

/// Successful MSHR allocation outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrAlloc {
    /// First miss for this line: the caller must send a request downstream.
    Primary,
    /// Merged into an existing entry: no new downstream request.
    Merged,
}

/// An MSHR file tracking outstanding misses, generic over the per-request
/// bookkeeping `T` the owner wants returned when the fill arrives (warp ids,
/// response destinations, …).
///
/// # Examples
///
/// ```
/// use gcache_core::mshr::{MshrAlloc, MshrFile};
/// use gcache_core::addr::LineAddr;
///
/// let mut mshr: MshrFile<&str> = MshrFile::new(32, 8);
/// let line = LineAddr::new(0x10);
/// assert_eq!(mshr.allocate(line, "warp0"), Ok(MshrAlloc::Primary));
/// assert_eq!(mshr.allocate(line, "warp7"), Ok(MshrAlloc::Merged));
/// let targets = mshr.complete(line).expect("entry exists");
/// assert_eq!(targets, vec!["warp0", "warp7"]);
/// assert!(mshr.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile<T> {
    capacity: usize,
    max_merge: usize,
    entries: HashMap<LineAddr, Vec<T>, BuildHasherDefault<LineHasher>>,
    /// Recycled target vectors (empty, with their capacity retained), so
    /// the steady-state miss path allocates nothing: a primary miss pops a
    /// pooled vector and [`MshrFile::complete_into`] returns it.
    free: Vec<Vec<T>>,
    peak_occupancy: usize,
}

impl<T> MshrFile<T> {
    /// Creates an MSHR file with `capacity` entries, each able to hold
    /// `max_merge` merged targets (including the primary).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_merge` is zero.
    pub fn new(capacity: usize, max_merge: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        assert!(max_merge > 0, "MSHR merge depth must be positive");
        MshrFile {
            capacity,
            max_merge,
            entries: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            free: Vec::with_capacity(capacity),
            peak_occupancy: 0,
        }
    }

    /// What [`MshrFile::allocate`] would return for `line` right now, from
    /// one lookup and with nothing changed.
    ///
    /// # Errors
    ///
    /// The [`MshrReject`] that `allocate` would return.
    pub fn admits(&self, line: LineAddr) -> Result<MshrAlloc, MshrReject> {
        match self.entries.get(&line) {
            Some(targets) if targets.len() >= self.max_merge => Err(MshrReject::MergeFull),
            Some(_) => Ok(MshrAlloc::Merged),
            None if self.is_full() => Err(MshrReject::Full),
            None => Ok(MshrAlloc::Primary),
        }
    }

    /// Attempts to record a miss for `line` carrying `target`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrReject`] when the file or the line's merge list is
    /// full; the access must be replayed later.
    pub fn allocate(&mut self, line: LineAddr, target: T) -> Result<MshrAlloc, MshrReject> {
        let alloc = self.admits(line)?;
        match alloc {
            MshrAlloc::Merged => {
                let targets = self.entries.get_mut(&line).expect("admitted as a merge");
                targets.push(target);
            }
            MshrAlloc::Primary => {
                let mut targets = self
                    .free
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(self.max_merge));
                targets.push(target);
                self.entries.insert(line, targets);
                self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
            }
        }
        Ok(alloc)
    }

    /// Whether an outstanding miss exists for `line`.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line)
    }

    /// Releases the entry for `line`, returning its merged targets in
    /// allocation order. `None` if no entry exists.
    ///
    /// Hot paths use [`MshrFile::complete_into`] instead, which recycles
    /// the entry's storage so steady-state misses allocate nothing.
    pub fn complete(&mut self, line: LineAddr) -> Option<Vec<T>> {
        self.entries.remove(&line)
    }

    /// Releases the entry for `line`, appending its targets to `out` (in
    /// allocation order) and recycling the entry's storage internally.
    /// Returns the number of targets appended; `None` if no entry exists.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<T>) -> Option<usize> {
        let mut targets = self.entries.remove(&line)?;
        let n = targets.len();
        out.append(&mut targets);
        self.recycle(targets);
        Some(n)
    }

    /// Returns a drained target vector to the internal pool so the next
    /// primary miss reuses its storage instead of allocating.
    fn recycle(&mut self, mut v: Vec<T>) {
        v.clear();
        if self.free.len() < self.capacity {
            self.free.push(v);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a *new* (non-merging) allocation would fail.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Highest entry occupancy seen so far.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }
}

impl<T: Codec> Snapshot for MshrFile<T> {
    /// Entries serialize sorted by line address — `HashMap` iteration order
    /// is nondeterministic, and snapshot bytes must not be — in the bytes
    /// of a `Vec<(LineAddr, Vec<T>)>`, which is what restore reads.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("mshr", |w| {
            let mut lines: Vec<LineAddr> = self.entries.keys().copied().collect();
            lines.sort_unstable_by_key(|l| l.raw());
            w.usize(lines.len());
            for line in lines {
                w.put(&line);
                w.put(&self.entries[&line]);
            }
            w.usize(self.peak_occupancy);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("mshr", |r| {
            let entries: Vec<(LineAddr, Vec<T>)> = r.get()?;
            self.entries.clear();
            self.entries.extend(entries);
            self.peak_occupancy = r.usize()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge() {
        let mut m: MshrFile<u32> = MshrFile::new(2, 4);
        assert_eq!(m.allocate(LineAddr::new(1), 10), Ok(MshrAlloc::Primary));
        assert_eq!(m.allocate(LineAddr::new(1), 11), Ok(MshrAlloc::Merged));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn rejects_when_full() {
        let mut m: MshrFile<u32> = MshrFile::new(2, 4);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(2), 0).unwrap();
        assert_eq!(m.allocate(LineAddr::new(3), 0), Err(MshrReject::Full));
        // Merging into existing entries still works at capacity.
        assert_eq!(m.allocate(LineAddr::new(1), 1), Ok(MshrAlloc::Merged));
    }

    #[test]
    fn rejects_when_merge_list_full() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 2);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(1), 1).unwrap();
        assert_eq!(m.allocate(LineAddr::new(1), 2), Err(MshrReject::MergeFull));
    }

    #[test]
    fn complete_returns_targets_in_order() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        for t in 0..5 {
            m.allocate(LineAddr::new(9), t).unwrap();
        }
        assert_eq!(m.complete(LineAddr::new(9)), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(m.complete(LineAddr::new(9)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn freed_entry_is_reusable() {
        let mut m: MshrFile<u32> = MshrFile::new(1, 1);
        m.allocate(LineAddr::new(1), 0).unwrap();
        assert!(m.is_full());
        m.complete(LineAddr::new(1)).unwrap();
        assert!(!m.is_full());
        assert_eq!(m.allocate(LineAddr::new(2), 0), Ok(MshrAlloc::Primary));
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m: MshrFile<u32> = MshrFile::new(8, 1);
        for i in 0..5 {
            m.allocate(LineAddr::new(i), 0).unwrap();
        }
        for i in 0..5 {
            m.complete(LineAddr::new(i));
        }
        assert_eq!(m.peak_occupancy(), 5);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _: MshrFile<u32> = MshrFile::new(0, 1);
    }

    #[test]
    fn complete_into_appends_and_recycles() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        m.allocate(LineAddr::new(1), 10).unwrap();
        m.allocate(LineAddr::new(1), 11).unwrap();
        m.allocate(LineAddr::new(2), 20).unwrap();
        let mut out = vec![99];
        assert_eq!(m.complete_into(LineAddr::new(1), &mut out), Some(2));
        assert_eq!(out, vec![99, 10, 11], "targets append in allocation order");
        assert_eq!(m.complete_into(LineAddr::new(1), &mut out), None);
        assert_eq!(out, vec![99, 10, 11], "missing entry leaves out untouched");
        assert_eq!(m.complete_into(LineAddr::new(2), &mut out), Some(1));
        assert!(m.is_empty());
    }

    #[test]
    fn recycled_storage_is_reused() {
        let mut m: MshrFile<u32> = MshrFile::new(2, 4);
        m.allocate(LineAddr::new(1), 0).unwrap();
        let v = m.complete(LineAddr::new(1)).unwrap();
        let ptr = v.as_ptr();
        let cap = v.capacity();
        m.recycle(v);
        m.allocate(LineAddr::new(2), 7).unwrap();
        let v2 = m.complete(LineAddr::new(2)).unwrap();
        assert_eq!(v2, vec![7]);
        assert_eq!(v2.as_ptr(), ptr, "pooled storage must be reused");
        assert_eq!(v2.capacity(), cap);
    }

    /// Lines a large power of two apart differ only in high bits; the map
    /// takes its bucket index from the hash's low bits.
    #[test]
    fn line_hash_spreads_high_address_bits() {
        use std::hash::{Hash, Hasher};
        let buckets: std::collections::HashSet<u64> = (0..64u64)
            .map(|k| {
                let mut h = LineHasher::default();
                LineAddr::new(k << 20).hash(&mut h);
                h.finish() & 63
            })
            .collect();
        assert!(buckets.len() >= 32, "{} of 64 buckets used", buckets.len());
    }

    /// `admits` answers what `allocate` then does, on a seeded stream of
    /// allocations and completions that visits every outcome.
    #[test]
    fn admits_predicts_allocate() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x3511);
        let mut m: MshrFile<u32> = MshrFile::new(4, 3);
        let mut seen = Vec::new();
        for t in 0..2_000 {
            let line = LineAddr::new(rng.gen_range(0..8));
            if rng.gen_bool(0.3) {
                m.complete(line);
                continue;
            }
            let admitted = m.admits(line);
            assert_eq!(m.allocate(line, t), admitted, "step {t}");
            if !seen.contains(&admitted) {
                seen.push(admitted);
            }
        }
        assert_eq!(seen.len(), 4, "outcomes seen: {seen:?}");
    }

    #[test]
    fn reject_display() {
        assert!(MshrReject::Full.to_string().contains("entries"));
        assert!(MshrReject::MergeFull.to_string().contains("merge"));
    }
}
