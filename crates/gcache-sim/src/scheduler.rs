//! Warp issue scheduling (§2.2): loose round-robin (the paper's baseline)
//! and greedy-then-oldest.

use crate::config::WarpSchedKind;
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Per-core warp scheduler state.
#[derive(Clone, Debug)]
pub struct WarpScheduler {
    kind: WarpSchedKind,
    rr_next: usize,
    current: Option<usize>,
}

impl WarpScheduler {
    /// Creates a scheduler of the given discipline.
    pub fn new(kind: WarpSchedKind) -> Self {
        WarpScheduler {
            kind,
            rr_next: 0,
            current: None,
        }
    }

    /// Picks the next warp slot to issue from among `slots` slots.
    ///
    /// * `is_ready(slot)` — whether the slot can issue this cycle;
    /// * `age(slot)` — launch order, smaller = older (GTO tie-break).
    ///
    /// Closure-based convenience over [`WarpScheduler::pick_mask`]; the
    /// per-cycle issue stage maintains a candidate word and calls
    /// `pick_mask` directly.
    pub fn pick(
        &mut self,
        slots: usize,
        is_ready: impl Fn(usize) -> bool,
        age: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        if slots == 0 {
            return None;
        }
        let mut candidates = 0u64;
        for s in 0..slots {
            if is_ready(s) {
                candidates |= 1 << s;
            }
        }
        self.pick_mask(slots, candidates, age)
    }

    /// Picks the next warp slot from a candidate bitmask (bit `s` ⇔ slot
    /// `s` can issue this cycle) — the core's `tick` maintains the word so
    /// the scheduler scans only runnable warps, mirroring the mesh's
    /// `rwake` trick. Pick semantics are identical to the closure scan:
    /// LRR takes the first candidate circularly from its rotation pointer;
    /// GTO sticks with its current warp while it remains a candidate, else
    /// re-selects by minimal `(age, slot)`.
    ///
    /// An all-zero mask still applies the no-candidate transition (GTO
    /// drops its greedy pointer), exactly like a `pick` that found no
    /// ready slot.
    pub fn pick_mask(
        &mut self,
        slots: usize,
        candidates: u64,
        age: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        debug_assert!((1..=64).contains(&slots));
        debug_assert!(slots == 64 || candidates & (u64::MAX << slots) == 0);
        match self.kind {
            WarpSchedKind::Lrr => {
                if candidates == 0 {
                    return None;
                }
                // Circular first-candidate from the rotation pointer: the
                // bits at or above `start`, else wrap to the lowest bit.
                let start = self.rr_next % slots;
                let upper = candidates & (u64::MAX << start);
                let s = if upper != 0 {
                    upper.trailing_zeros() as usize
                } else {
                    candidates.trailing_zeros() as usize
                };
                self.rr_next = (s + 1) % slots;
                Some(s)
            }
            WarpSchedKind::Gto => {
                if let Some(c) = self.current {
                    if c < slots && candidates & (1 << c) != 0 {
                        return Some(c);
                    }
                }
                let mut oldest: Option<(u64, usize)> = None;
                let mut m = candidates;
                while m != 0 {
                    let s = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let a = age(s);
                    // Bits iterate in ascending slot order, so a strict
                    // compare preserves the (age, slot) tie-break.
                    if oldest.is_none_or(|(best, _)| a < best) {
                        oldest = Some((a, s));
                    }
                }
                let oldest = oldest.map(|(_, s)| s);
                self.current = oldest;
                oldest
            }
        }
    }

    /// Notifies the scheduler that `slot` was freed (its warp finished);
    /// GTO must drop a stale greedy pointer.
    pub fn on_slot_freed(&mut self, slot: usize) {
        if self.current == Some(slot) {
            self.current = None;
        }
    }

    /// Applies the state transition of a [`WarpScheduler::pick`] that
    /// found no ready slot, without the closures: LRR keeps its rotation
    /// pointer, GTO drops its greedy pointer. The transition is
    /// idempotent, so one call stands in for any number of consecutive
    /// idle cycles — which is exactly how the fast-forward path uses it.
    pub fn note_idle(&mut self) {
        if self.kind == WarpSchedKind::Gto {
            self.current = None;
        }
    }
}

impl Snapshot for WarpScheduler {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("sched", |w| {
            w.usize(self.rr_next);
            w.put(&self.current);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("sched", |r| {
            self.rr_next = r.usize()?;
            self.current = r.get()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lrr_rotates_over_ready_warps() {
        let mut s = WarpScheduler::new(WarpSchedKind::Lrr);
        let ready = |_: usize| true;
        let age = |_: usize| 0u64;
        let picks: Vec<_> = (0..6).map(|_| s.pick(4, ready, age).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = WarpScheduler::new(WarpSchedKind::Lrr);
        let ready = |slot: usize| slot % 2 == 1;
        let age = |_: usize| 0u64;
        let picks: Vec<_> = (0..4).map(|_| s.pick(4, ready, age).unwrap()).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn lrr_none_when_nothing_ready() {
        let mut s = WarpScheduler::new(WarpSchedKind::Lrr);
        assert_eq!(s.pick(4, |_| false, |_| 0), None);
        assert_eq!(s.pick(0, |_| true, |_| 0), None);
    }

    #[test]
    fn gto_sticks_with_current() {
        let mut s = WarpScheduler::new(WarpSchedKind::Gto);
        let age = |slot: usize| slot as u64;
        assert_eq!(s.pick(4, |_| true, age), Some(0));
        assert_eq!(s.pick(4, |_| true, age), Some(0), "greedy must stick");
        // Slot 0 stalls: falls back to the oldest ready.
        assert_eq!(s.pick(4, |slot| slot != 0, age), Some(1));
        assert_eq!(s.pick(4, |_| true, age), Some(1), "new greedy warp");
    }

    #[test]
    fn gto_prefers_oldest_on_switch() {
        let mut s = WarpScheduler::new(WarpSchedKind::Gto);
        // Ages: slot 2 oldest.
        let age = |slot: usize| [30u64, 20, 10, 40][slot];
        assert_eq!(s.pick(4, |_| true, age), Some(2));
    }

    #[test]
    fn pick_mask_lrr_wraps_circularly() {
        let mut s = WarpScheduler::new(WarpSchedKind::Lrr);
        let age = |_: usize| 0u64;
        assert_eq!(s.pick_mask(4, 0b1010, age), Some(1));
        assert_eq!(s.pick_mask(4, 0b1010, age), Some(3));
        assert_eq!(s.pick_mask(4, 0b1010, age), Some(1));
        assert_eq!(s.pick_mask(4, 0, age), None);
    }

    #[test]
    fn pick_mask_full_64_slot_word() {
        let mut s = WarpScheduler::new(WarpSchedKind::Lrr);
        let age = |_: usize| 0u64;
        assert_eq!(s.pick_mask(64, 1 << 63, age), Some(63));
        // The rotation pointer wrapped past slot 63 back to 0.
        assert_eq!(s.pick_mask(64, u64::MAX, age), Some(0));
    }

    #[test]
    fn pick_mask_gto_empty_mask_drops_greedy() {
        let mut s = WarpScheduler::new(WarpSchedKind::Gto);
        let age = |s: usize| [9u64, 1, 5, 7][s];
        assert_eq!(s.pick_mask(4, 0b1111, age), Some(1));
        assert_eq!(s.pick_mask(4, 0b1111, age), Some(1), "greedy must stick");
        assert_eq!(s.pick_mask(4, 0, age), None);
        // The greedy pointer was dropped: re-select oldest candidate.
        assert_eq!(s.pick_mask(4, 0b1101, age), Some(2));
    }

    #[test]
    fn gto_slot_freed_resets_greedy() {
        let mut s = WarpScheduler::new(WarpSchedKind::Gto);
        let age = |slot: usize| slot as u64;
        assert_eq!(s.pick(2, |_| true, age), Some(0));
        s.on_slot_freed(0);
        // Slot 0 is re-used by a *new* warp; GTO must re-evaluate by age,
        // not blindly keep issuing slot 0.
        let age2 = |slot: usize| [99u64, 1][slot];
        assert_eq!(s.pick(2, |_| true, age2), Some(1));
    }
}
