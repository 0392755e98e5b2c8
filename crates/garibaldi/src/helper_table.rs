//! Per-core helper table: PC-VPN → instruction-PPN mapping (Fig 8).
//!
//! Written on every instruction access that reaches the LLC; read on data
//! accesses so the LLC can deduce the physical line of the instruction that
//! triggered them (`IL_PA = I_PPN ‖ PC page offset`) without touching the
//! core's ITLB. Structured like a small set-associative TLB with 3-bit
//! saturating-counter replacement.

use crate::config::{HELPER_ENTRIES, HELPER_WAYS};
use garibaldi_cache::SatCounter;
use garibaldi_types::{LineAddr, PageNum, VirtAddr, LINE_BYTES};

#[derive(Debug, Clone, Copy)]
struct HelperEntry {
    vpn: u64,
    ppn: u64,
    sctr: SatCounter,
    valid: bool,
}

impl HelperEntry {
    fn empty() -> Self {
        Self { vpn: 0, ppn: 0, sctr: SatCounter::new(3, 0), valid: false }
    }
}

/// A set-associative PC-VPN → I-PPN cache.
#[derive(Debug, Clone)]
pub struct HelperTable {
    sets: usize,
    ways: usize,
    entries: Vec<HelperEntry>,
    hits: u64,
    misses: u64,
}

impl Default for HelperTable {
    /// The Table 2 geometry: [`HELPER_ENTRIES`] entries, [`HELPER_WAYS`]-way.
    fn default() -> Self {
        Self::new(HELPER_ENTRIES, HELPER_WAYS)
    }
}

impl HelperTable {
    /// Creates a helper table with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries > 0 && entries % ways == 0, "bad helper geometry");
        Self {
            sets: entries / ways,
            ways,
            entries: vec![HelperEntry::empty(); entries],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) as usize % self.sets
    }

    /// Records (or refreshes) a VPN → PPN mapping.
    pub fn insert(&mut self, vpn: PageNum, ppn: PageNum) {
        let set = self.set_of(vpn.get());
        let base = set * self.ways;
        // Refresh on tag match.
        for w in 0..self.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.vpn == vpn.get() {
                e.ppn = ppn.get();
                e.sctr.inc();
                return;
            }
        }
        // Free way, else the way with the lowest counter.
        let victim = (0..self.ways).find(|&w| !self.entries[base + w].valid).unwrap_or_else(|| {
            (0..self.ways).min_by_key(|&w| self.entries[base + w].sctr.get()).expect("ways > 0")
        });
        self.entries[base + victim] = HelperEntry {
            vpn: vpn.get(),
            ppn: ppn.get(),
            sctr: SatCounter::new(3, 4),
            valid: true,
        };
    }

    /// Translates a PC VPN to the instruction page frame, if tracked.
    pub fn lookup(&mut self, vpn: PageNum) -> Option<PageNum> {
        let set = self.set_of(vpn.get());
        let base = set * self.ways;
        for w in 0..self.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.vpn == vpn.get() {
                e.sctr.inc();
                self.hits += 1;
                return Some(PageNum::new(e.ppn));
            }
        }
        self.misses += 1;
        None
    }

    /// IL_PA deduction (Fig 8): the physical line of the instruction at
    /// `pc` — its page frame, if tracked, joined with the PC's in-page
    /// line. Counts as a [`HelperTable::lookup`].
    pub fn instr_line(&mut self, pc: VirtAddr) -> Option<LineAddr> {
        let i_ppn = self.lookup(pc.vpn())?;
        Some(LineAddr::from_page_parts(i_ppn, pc.line_page_offset() / LINE_BYTES))
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup() {
        let mut h = HelperTable::new(128, 4);
        h.insert(PageNum::new(0xff_f3cd19), PageNum::new(0x0d1a_b916));
        assert_eq!(h.lookup(PageNum::new(0xff_f3cd19)), Some(PageNum::new(0x0d1a_b916)));
        assert_eq!(h.lookup(PageNum::new(0xdead)), None);
        assert_eq!(h.stats(), (1, 1));
    }

    #[test]
    fn refresh_updates_ppn() {
        let mut h = HelperTable::new(8, 2);
        h.insert(PageNum::new(1), PageNum::new(100));
        h.insert(PageNum::new(1), PageNum::new(200));
        assert_eq!(h.lookup(PageNum::new(1)), Some(PageNum::new(200)));
    }

    #[test]
    fn capacity_bounded_with_replacement() {
        let mut h = HelperTable::new(8, 2);
        for v in 0..100u64 {
            h.insert(PageNum::new(v), PageNum::new(v + 1000));
        }
        let resident = (0..100u64).filter(|&v| h.lookup(PageNum::new(v)).is_some()).count();
        assert!(resident <= 8);
    }

    #[test]
    fn frequent_mappings_survive() {
        let mut h = HelperTable::new(8, 4);
        // Pin one hot mapping with repeated touches, then stream over others.
        for _ in 0..10 {
            h.insert(PageNum::new(42), PageNum::new(4242));
        }
        for v in 100..120u64 {
            h.insert(PageNum::new(v), PageNum::new(v));
        }
        assert_eq!(h.lookup(PageNum::new(42)), Some(PageNum::new(4242)));
    }

    #[test]
    #[should_panic(expected = "bad helper geometry")]
    fn bad_geometry_panics() {
        let _ = HelperTable::new(10, 4);
    }
}
