//! Re-reference interval prediction (RRIP) machinery shared by DRRIP: the
//! RRPV table with the SRRIP victim search, and the BRRIP insertion rate.
//!
//! The paper configures the RRIP-family policies with 5-bit RRPV counters
//! (§6, "Each policy uses 5-bit ETR/RRPV counters").

/// RRPV counter width in bits.
pub const RRPV_BITS: u32 = 5;
/// Maximum RRPV ("distant future").
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
/// Insertion RRPV for "long" re-reference interval (max − 1).
pub const RRPV_LONG: u8 = RRPV_MAX - 1;
/// BRRIP inserts at `RRPV_LONG` once every `BRRIP_EPSILON` fills, otherwise
/// at `RRPV_MAX`.
pub const BRRIP_EPSILON: u64 = 32;

/// Shared RRPV array with the standard aging victim search.
#[derive(Debug, Clone)]
pub(crate) struct RrpvTable {
    ways: usize,
    rrpv: Vec<u8>,
}

impl RrpvTable {
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        Self { ways, rrpv: vec![RRPV_MAX; sets * ways] }
    }

    /// Test-only probe: hot paths read the contiguous row directly.
    #[cfg(test)]
    pub(crate) fn get(&self, set: usize, way: usize) -> u8 {
        self.rrpv[set * self.ways + way]
    }

    #[inline]
    pub(crate) fn set(&mut self, set: usize, way: usize, v: u8) {
        self.rrpv[set * self.ways + way] = v.min(RRPV_MAX);
    }

    /// Perf-only host-CPU hint for this set's RRPV row (one byte per way,
    /// so a single cache line covers any realistic associativity).
    #[inline]
    pub(crate) fn prefetch_row(&self, set: usize) {
        garibaldi_types::hint::prefetch_index(&self.rrpv, set * self.ways);
    }

    /// Standard RRIP victim search: find a way at `RRPV_MAX`; if none,
    /// increment every way's RRPV and retry. `excluded` ways are skipped.
    ///
    /// Each probe/aging round walks the set's contiguous RRPV row once.
    pub(crate) fn find_victim(&mut self, set: usize, excluded: u64) -> usize {
        let base = set * self.ways;
        loop {
            let row = &self.rrpv[base..base + self.ways];
            for (w, &v) in row.iter().enumerate() {
                if excluded & (1 << w) == 0 && v >= RRPV_MAX {
                    return w;
                }
            }
            for v in &mut self.rrpv[base..base + self.ways] {
                *v = v.saturating_add(1).min(RRPV_MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srrip_prefers_distant_lines() {
        let mut t = RrpvTable::new(1, 2);
        t.set(0, 0, 0); // re-referenced
        t.set(0, 1, RRPV_LONG); // freshly inserted
        assert_eq!(t.find_victim(0, 0), 1);
    }

    #[test]
    fn srrip_ages_when_no_distant_line() {
        let mut t = RrpvTable::new(1, 2);
        t.set(0, 0, 0);
        t.set(0, 1, 0);
        // Both at 0: aging loop must terminate and return a way.
        let w = t.find_victim(0, 0);
        assert!(w < 2);
        // Aging saturates at RRPV_MAX for both.
        assert_eq!(t.get(0, 0), RRPV_MAX);
    }
}
