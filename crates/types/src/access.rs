//! Memory-access descriptors exchanged between cores and the hierarchy.

use crate::addr::{LineAddr, VirtAddr};
use crate::ids::CoreId;
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

/// A single memory request presented to the hierarchy.
///
/// Every request carries the program counter of the triggering instruction —
/// the paper assumes "each memory request includes the (PC, P.A.) pair" (§5.1)
/// because modern PC-signature replacement policies already require it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Issuing core.
    pub core: CoreId,
    /// Program counter (virtual) of the instruction that triggers the access.
    /// For instruction fetches this is the fetched address itself.
    pub pc: VirtAddr,
    /// Physical line being accessed.
    pub line: LineAddr,
    /// Instruction or data access.
    pub kind: AccessKind,
    /// Read or write (instruction fetches are always reads).
    pub rw: RwKind,
}

impl MemAccess {
    /// Convenience constructor for an instruction fetch.
    pub fn ifetch(core: CoreId, pc: VirtAddr, line: LineAddr) -> Self {
        Self { core, pc, line, kind: AccessKind::Instr, rw: RwKind::Read }
    }

    /// Convenience constructor for a data access.
    pub fn data(core: CoreId, pc: VirtAddr, line: LineAddr, rw: RwKind) -> Self {
        Self { core, pc, line, kind: AccessKind::Data, rw }
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

    #[test]
    fn constructors_set_kinds() {
        let c = CoreId::new(3);
        let pc = VirtAddr::new(0x4000);
        let line = LineAddr::new(77);
        let i = MemAccess::ifetch(c, pc, line);
        assert_eq!(i.kind, AccessKind::Instr);
        assert_eq!(i.rw, RwKind::Read);
        let d = MemAccess::data(c, pc, line, RwKind::Write);
        assert_eq!(d.kind, AccessKind::Data);
        assert!(d.rw.is_write());
    }
}
