//! Per-line state for the tag array.

use std::fmt;

/// Coherence/validity state of one cache line.
///
/// The hierarchy is timing-only and non-inclusive, so a simple
/// three-state machine suffices: a line is absent, present-clean, or
/// present-dirty (L2 only — L1 is write-through and never holds dirty data).
///
/// The discriminants are the snapshot encoding (one byte per line).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[repr(u8)]
pub enum LineState {
    /// No valid line in this slot.
    #[default]
    Invalid = 0,
    /// Valid line, memory copy up to date.
    Clean = 1,
    /// Valid line, modified relative to memory (write-back caches only).
    Dirty = 2,
}

impl LineState {
    /// Whether the slot holds a valid line.
    pub const fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Whether the slot holds a modified line.
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::Dirty)
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LineState::Invalid => "I",
            LineState::Clean => "C",
            LineState::Dirty => "D",
        };
        f.write_str(s)
    }
}

/// One slot of the tag array.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineSlot {
    /// Tag of the resident line (meaningful only when valid).
    pub tag: u64,
    /// Validity / dirtiness.
    pub state: LineState,
    /// Number of hits this line has received since it was filled.
    ///
    /// Feeds the reuse-count distribution of Figure 2.
    pub reuse: u32,
}

impl LineSlot {
    /// Resets the slot to hold a freshly filled line.
    pub fn fill(&mut self, tag: u64, dirty: bool) {
        self.tag = tag;
        self.state = if dirty {
            LineState::Dirty
        } else {
            LineState::Clean
        };
        self.reuse = 0;
    }

    /// Invalidates the slot.
    pub fn invalidate(&mut self) {
        self.state = LineState::Invalid;
        self.reuse = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::Clean.is_valid());
        assert!(LineState::Dirty.is_valid());
        assert!(!LineState::Clean.is_dirty());
        assert!(LineState::Dirty.is_dirty());
    }

    #[test]
    fn fill_resets_reuse() {
        let mut slot = LineSlot {
            reuse: 9,
            ..LineSlot::default()
        };
        slot.fill(0x42, false);
        assert_eq!(slot.reuse, 0);
        assert_eq!(slot.tag, 0x42);
        assert_eq!(slot.state, LineState::Clean);
        slot.fill(0x43, true);
        assert_eq!(slot.state, LineState::Dirty);
    }

    #[test]
    fn display_single_letter() {
        assert_eq!(LineState::Invalid.to_string(), "I");
        assert_eq!(LineState::Clean.to_string(), "C");
        assert_eq!(LineState::Dirty.to_string(), "D");
    }
}
