//! Trace records: the unit of work consumed by the core model.

use garibaldi_types::{RwKind, VirtAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Exclusive upper bound of a record's PC, about 256 GiB: the frontend's
/// temporal prefetcher (`garibaldi_cache::TemporalPrefetcher`) stores
/// instruction lines as `u32`, so a PC's line must lie below `u32::MAX`.
/// Generated programs lay their text out far below it, and
/// `garibaldi-cli --replay` refuses a dump with a record past it.
pub const PC_LIMIT: u64 = u32::MAX as u64 * LINE_BYTES;

/// Maximum data references carried by one record.
///
/// One record models the fetch of one instruction cache line (≈ 8 x86
/// instructions); more than four distinct line-granularity data references
/// per fetched line is vanishingly rare in the modeled workloads.
pub const MAX_DATA_REFS: usize = 4;

/// One data reference triggered by the record's instruction line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataRef {
    /// Virtual byte address of the reference.
    pub va: VirtAddr,
    /// Load or store.
    pub rw: RwKind,
}

/// One fetched instruction line and the data accesses it triggers.
///
/// This is the trace granularity of the whole simulator: the frontend cost
/// of a record is the fetch of `pc`'s line, the backend cost is serving
/// `data`. `instrs` instructions retire when the record completes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual address of the fetched instruction line (64 B aligned).
    pub pc: VirtAddr,
    /// Number of instructions in this fetch group.
    pub instrs: u8,
    /// Number of valid entries in `data`.
    pub n_data: u8,
    /// Data references (first `n_data` entries are valid).
    pub data: [DataRef; MAX_DATA_REFS],
    /// Whether this record ends in a mispredicted branch.
    pub mispredict: bool,
}

impl TraceRecord {
    /// A record with no data references.
    pub fn fetch_only(pc: VirtAddr, instrs: u8) -> Self {
        Self {
            pc,
            instrs,
            n_data: 0,
            data: [DataRef { va: VirtAddr::new(0), rw: RwKind::Read }; MAX_DATA_REFS],
            mispredict: false,
        }
    }

    /// Appends a data reference; silently drops past [`MAX_DATA_REFS`].
    pub fn push_data(&mut self, va: VirtAddr, rw: RwKind) {
        if (self.n_data as usize) < MAX_DATA_REFS {
            self.data[self.n_data as usize] = DataRef { va, rw };
            self.n_data += 1;
        }
    }

    /// The valid data references.
    #[inline]
    pub fn data_refs(&self) -> &[DataRef] {
        &self.data[..self.n_data as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_caps_at_max() {
        let mut r = TraceRecord::fetch_only(VirtAddr::new(0x1000), 8);
        for i in 0..10 {
            r.push_data(VirtAddr::new(0x2000 + i * 64), RwKind::Read);
        }
        assert_eq!(r.n_data as usize, MAX_DATA_REFS);
        assert_eq!(r.data_refs().len(), MAX_DATA_REFS);
        assert_eq!(r.data_refs()[0].va, VirtAddr::new(0x2000));
    }

    #[test]
    fn fetch_only_has_no_data() {
        let r = TraceRecord::fetch_only(VirtAddr::new(0x40), 6);
        assert!(r.data_refs().is_empty());
        assert!(!r.mispredict);
        assert_eq!(r.instrs, 6);
    }
}
