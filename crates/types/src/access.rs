//! Memory-access descriptors exchanged between cores and the hierarchy.

use serde::{Deserialize, Serialize};

/// Whether a request fetches an instruction line or a data line.
///
/// The paper adds a 1-bit instruction indicator to every L2/LLC block so the
/// LLC can distinguish the two (§4.2); this enum is that bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Fetch of an instruction cache line (request originating at L1I).
    Instr,
    /// Load/store of a data cache line (request originating at L1D).
    Data,
}

impl AccessKind {
    /// True for [`AccessKind::Instr`].
    #[inline]
    pub const fn is_instr(self) -> bool {
        matches!(self, AccessKind::Instr)
    }
}

/// Read/write direction of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RwKind {
    /// Load.
    Read,
    /// Store (sets the dirty bit, triggers invalidations of other sharers).
    Write,
}

impl RwKind {
    /// True for [`RwKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, RwKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Instr.is_instr());
        assert!(!AccessKind::Data.is_instr());
        assert!(RwKind::Write.is_write());
        assert!(!RwKind::Read.is_write());
    }
}
