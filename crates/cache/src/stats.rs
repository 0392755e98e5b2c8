//! Per-cache event counters.

use garibaldi_types::AccessKind;
use serde::{Deserialize, Serialize};

/// Event counters for one cache, split by instruction/data where relevant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand instruction accesses.
    pub i_accesses: u64,
    /// Demand instruction hits.
    pub i_hits: u64,
    /// Demand data accesses.
    pub d_accesses: u64,
    /// Demand data hits.
    pub d_hits: u64,
    /// Lines evicted (valid victim replaced).
    pub evictions: u64,
    /// Dirty evictions (writebacks to the next level).
    pub writebacks: u64,
    /// Prefetch fills inserted.
    pub prefetch_fills: u64,
    /// Demand hits on lines still carrying the prefetched bit.
    pub prefetch_useful: u64,
    /// Fills bypassed by the replacement policy.
    pub bypasses: u64,
    /// Victim candidates protected by an external guard (Garibaldi QBS).
    pub guarded_protections: u64,
    /// Lines invalidated by coherence.
    pub invalidations: u64,
    /// Instruction lines evicted.
    pub i_evictions: u64,
}

garibaldi_types::fields!(CacheStats {
    i_accesses,
    i_hits,
    d_accesses,
    d_hits,
    evictions,
    writebacks,
    prefetch_fills,
    prefetch_useful,
    bypasses,
    guarded_protections,
    invalidations,
    i_evictions,
});

impl CacheStats {
    /// Records a demand access outcome.
    #[inline]
    pub fn record_access(&mut self, kind: AccessKind, hit: bool) {
        // Branchless counter bump: `hit as u64` avoids a second branch on
        // the per-access path (this runs once per demand access per level).
        match kind {
            AccessKind::Instr => {
                self.i_accesses += 1;
                self.i_hits += hit as u64;
            }
            AccessKind::Data => {
                self.d_accesses += 1;
                self.d_hits += hit as u64;
            }
        }
    }

    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.i_accesses + self.d_accesses
    }

    /// Total demand hits.
    pub fn hits(&self) -> u64 {
        self.i_hits + self.d_hits
    }

    /// Total demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Instruction miss count.
    pub fn i_misses(&self) -> u64 {
        self.i_accesses - self.i_hits
    }

    /// Data miss count.
    pub fn d_misses(&self) -> u64 {
        self.d_accesses - self.d_hits
    }

    /// Overall miss rate in \[0,1\]; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses(), self.accesses())
    }

    /// Instruction miss rate in \[0,1\].
    pub fn i_miss_rate(&self) -> f64 {
        ratio(self.i_misses(), self.i_accesses)
    }

    /// Data miss rate in \[0,1\].
    pub fn d_miss_rate(&self) -> f64 {
        ratio(self.d_misses(), self.d_accesses)
    }

    /// Fraction of demand accesses that are instruction fetches.
    pub fn instr_access_ratio(&self) -> f64 {
        ratio(self.i_accesses, self.accesses())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garibaldi_types::Fields;

    #[test]
    fn rates() {
        let mut s = CacheStats::default();
        s.record_access(AccessKind::Instr, false);
        s.record_access(AccessKind::Instr, true);
        s.record_access(AccessKind::Data, false);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses(), 2);
        assert!((s.i_miss_rate() - 0.5).abs() < 1e-12);
        assert!((s.d_miss_rate() - 1.0).abs() < 1e-12);
        assert!((s.instr_access_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.instr_access_ratio(), 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = CacheStats { i_accesses: 1, d_hits: 2, writebacks: 3, ..Default::default() };
        let b = CacheStats { i_accesses: 10, d_hits: 20, writebacks: 30, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.i_accesses, 11);
        assert_eq!(a.d_hits, 22);
        assert_eq!(a.writebacks, 33);
    }
}
