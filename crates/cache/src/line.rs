//! Per-line cache metadata.
//!
//! The cache stores line state in structure-of-arrays form (see
//! `SetAssocCache`): a 32-bit tag word per frame, a packed flag byte
//! ([`LineFlags`]) and a sharer mask. [`LineMeta`] is the materialized
//! view of one frame — the type evictions, guards and peeks trade in.

use garibaldi_types::LineAddr;
use serde::{Deserialize, Serialize};

/// MESI coherence state, tracked at the LLC (directory) granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MesiState {
    /// Dirty and exclusively owned.
    Modified,
    /// Clean and exclusively owned.
    Exclusive,
    /// Clean, possibly multiple sharers.
    Shared,
    /// Not present (only used transiently).
    Invalid,
}

impl MesiState {
    /// 2-bit encoding used inside [`LineFlags`]. `Invalid` is 0 so an
    /// all-zero flag byte decodes to an empty frame's state.
    #[inline]
    pub const fn to_bits(self) -> u8 {
        match self {
            MesiState::Invalid => 0,
            MesiState::Modified => 1,
            MesiState::Exclusive => 2,
            MesiState::Shared => 3,
        }
    }

    /// Inverse of [`MesiState::to_bits`] (only the low 2 bits are read).
    #[inline]
    pub const fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            1 => MesiState::Modified,
            2 => MesiState::Exclusive,
            3 => MesiState::Shared,
            _ => MesiState::Invalid,
        }
    }
}

/// One frame's boolean metadata and MESI state packed into a byte:
/// bit 0 dirty, bit 1 prefetched, bit 2 is-instr, bits 3–4 the
/// [`MesiState`] encoding, bit 5 valid. An empty frame is all zeroes;
/// every byte [`LineFlags::new`] builds has the valid bit, so an occupied
/// frame's byte is never zero whatever its state (the cache tells an
/// occupied frame whose tag word is 0 from an empty one by this byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineFlags(u8);

impl LineFlags {
    /// Dirty bit: the line must be written back on eviction.
    pub const DIRTY: u8 = 1 << 0;
    /// Prefetched bit: brought in by a prefetch, not yet demanded.
    pub const PREFETCHED: u8 = 1 << 1;
    /// Instruction bit: the request originated at an L1I.
    pub const IS_INSTR: u8 = 1 << 2;
    const STATE_SHIFT: u8 = 3;
    /// Valid bit: the frame holds a line.
    const VALID: u8 = 1 << 5;

    /// All-clear flags (the empty frame).
    pub const EMPTY: LineFlags = LineFlags(0);

    /// Packs an occupied frame's metadata booleans and coherence state
    /// (the valid bit set).
    #[inline]
    pub const fn new(dirty: bool, prefetched: bool, is_instr: bool, state: MesiState) -> Self {
        Self(
            Self::VALID
                | ((dirty as u8) * Self::DIRTY)
                | ((prefetched as u8) * Self::PREFETCHED)
                | ((is_instr as u8) * Self::IS_INSTR)
                | (state.to_bits() << Self::STATE_SHIFT),
        )
    }

    /// Raw byte.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Rebuilds flags from their raw byte.
    #[inline]
    pub const fn from_raw(raw: u8) -> Self {
        Self(raw)
    }

    /// Valid bit: the frame holds a line.
    #[inline]
    pub const fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    /// Dirty bit.
    #[inline]
    pub const fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Prefetched bit.
    #[inline]
    pub const fn prefetched(self) -> bool {
        self.0 & Self::PREFETCHED != 0
    }

    /// Instruction bit.
    #[inline]
    pub const fn is_instr(self) -> bool {
        self.0 & Self::IS_INSTR != 0
    }

    /// Coherence state.
    #[inline]
    pub const fn state(self) -> MesiState {
        MesiState::from_bits(self.0 >> Self::STATE_SHIFT)
    }

    /// Sets or clears the dirty bit.
    #[inline]
    pub fn set_dirty(&mut self, v: bool) {
        self.0 = (self.0 & !Self::DIRTY) | ((v as u8) * Self::DIRTY);
    }

    /// Sets or clears the instruction bit.
    #[inline]
    pub fn set_is_instr(&mut self, v: bool) {
        self.0 = (self.0 & !Self::IS_INSTR) | ((v as u8) * Self::IS_INSTR);
    }

    /// Replaces the coherence state.
    #[inline]
    pub fn set_state(&mut self, s: MesiState) {
        self.0 = (self.0 & !(0b11 << Self::STATE_SHIFT)) | (s.to_bits() << Self::STATE_SHIFT);
    }
}

/// Metadata of one cache line frame (the materialized, caller-facing view;
/// the cache itself stores frames as tag-word + [`LineFlags`] +
/// sharer-mask parallel arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineMeta {
    /// The cached physical line address (full address kept; real hardware
    /// stores only the tag, but the simulator needs it back on eviction).
    pub line: LineAddr,
    /// Frame holds a valid line.
    pub valid: bool,
    /// Line has been written and must be written back on eviction.
    pub dirty: bool,
    /// Line was brought in by a prefetch and has not yet been demanded.
    /// The paper assumes "modern caches distinguish prefetched lines from
    /// regular ones" (§5.3) — this is that bit.
    pub prefetched: bool,
    /// 1-bit instruction indicator (§4.2): request originated at an L1I.
    pub is_instr: bool,
    /// Coherence state (meaningful at the LLC).
    pub state: MesiState,
    /// Bitmask of L2 clusters holding a copy (LLC directory).
    pub sharers: u64,
}

impl LineMeta {
    /// An invalid (empty) frame.
    pub const fn empty() -> Self {
        Self {
            line: LineAddr::new(0),
            valid: false,
            dirty: false,
            prefetched: false,
            is_instr: false,
            state: MesiState::Invalid,
            sharers: 0,
        }
    }

    /// Resets the frame to empty.
    pub fn clear(&mut self) {
        *self = Self::empty();
    }

    /// Number of sharer clusters recorded in the directory mask.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }
}

impl Default for LineMeta {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_invalid() {
        let m = LineMeta::empty();
        assert!(!m.valid);
        assert_eq!(m.state, MesiState::Invalid);
        assert_eq!(m.sharer_count(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut m = LineMeta::empty();
        m.valid = true;
        m.dirty = true;
        m.sharers = 0b101;
        assert_eq!(m.sharer_count(), 2);
        m.clear();
        assert_eq!(m, LineMeta::empty());
    }

    #[test]
    fn mesi_bits_roundtrip() {
        for s in [MesiState::Modified, MesiState::Exclusive, MesiState::Shared, MesiState::Invalid]
        {
            assert_eq!(MesiState::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    fn line_flags_roundtrip_all_combinations() {
        for bits in 0u8..8 {
            for s in
                [MesiState::Modified, MesiState::Exclusive, MesiState::Shared, MesiState::Invalid]
            {
                let (d, p, i) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                let f = LineFlags::new(d, p, i, s);
                assert!(f.valid(), "an occupied frame's byte is never zero");
                assert_eq!(f.dirty(), d);
                assert_eq!(f.prefetched(), p);
                assert_eq!(f.is_instr(), i);
                assert_eq!(f.state(), s);
                assert_eq!(LineFlags::from_raw(f.raw()), f);
            }
        }
    }

    #[test]
    fn line_flags_setters() {
        let mut f = LineFlags::new(false, true, false, MesiState::Exclusive);
        f.set_dirty(true);
        f.set_state(MesiState::Shared);
        assert!(f.dirty() && f.prefetched() && !f.is_instr());
        assert_eq!(f.state(), MesiState::Shared);
        f.set_dirty(false);
        f.set_is_instr(true);
        f.set_state(MesiState::Modified);
        assert!(!f.dirty() && f.prefetched() && f.is_instr());
        assert_eq!(f.state(), MesiState::Modified);
        // An occupied frame stays non-zero in every state.
        let mut f = LineFlags::new(false, false, false, MesiState::Exclusive);
        f.set_state(MesiState::Invalid);
        assert!(f.valid() && f.raw() != 0);
        assert!(!LineFlags::EMPTY.valid());
    }
}
