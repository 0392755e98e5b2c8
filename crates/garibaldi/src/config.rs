//! Garibaldi configuration (Table 2 defaults).

use serde::{Deserialize, Serialize};

/// How the protection threshold is managed (Fig 14b study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdMode {
    /// Periodic adjustment from `P(D_miss | I_miss)` vs the LLC miss rate
    /// (§5.2) — the paper's default.
    Dynamic,
    /// Fixed threshold expressed as a delta from the initial value
    /// (Fig 14b's −16 / +0 / +16 points).
    Fixed(i32),
    /// Threshold 0: every pair-table-resident instruction is protected.
    AllProtect,
}

/// Helper-table entries per core (Table 2: 128).
pub const HELPER_ENTRIES: usize = 128;
/// Helper-table associativity (Table 2: 4 ways).
pub const HELPER_WAYS: usize = 4;
const _: () = assert!(HELPER_WAYS > 0 && HELPER_ENTRIES % HELPER_WAYS == 0);

/// Miss-cost counter width in bits (Table 2: 6).
pub const MISS_COST_BITS: u32 = 6;
const _: () = assert!(MISS_COST_BITS > 0 && MISS_COST_BITS <= 16);
/// Maximum miss-cost value.
pub const MAX_COST: u32 = (1 << MISS_COST_BITS) - 1;
/// Initial miss cost on pair-table allocation: 32, the middle of the 6-bit
/// range (Fig 14b expresses fixed thresholds as deltas from this value).
pub const INIT_COST: u32 = 32;
/// Initial threshold value (§5.2: 32).
pub const INIT_THRESHOLD: u32 = 32;
const _: () = assert!(INIT_COST <= MAX_COST && INIT_THRESHOLD <= MAX_COST);

/// Coloring timer width `l` in bits (Table 2: 3).
pub const COLOR_BITS: u32 = 3;
const _: () = assert!(COLOR_BITS > 0 && COLOR_BITS <= 8);
/// Number of colors of the l-bit timer (8).
pub const COLORS: u32 = 1 << COLOR_BITS;

/// Recent instruction-miss PCs tracked per thread by the PMU (Table 2: 10).
pub const PMU_RECENT_PCS: usize = 10;
const _: () = assert!(PMU_RECENT_PCS > 0);
/// Maximum pair-table queries per eviction (Table 2: `QBS_MAX_ATTEMPTS` = 2).
pub const QBS_MAX_ATTEMPTS: u32 = 2;
/// Cycles per pair-table query (Table 2: `QBS_LOOKUP_COST` = 1).
pub const QBS_LOOKUP_COST: u64 = 1;
/// DL_PA field sctr replacement threshold (Fig 10b, "e.g., 4").
pub const DL_SCTR_THRESHOLD: u32 = 4;
/// Miss-cost decrement applied per paired data *miss* (§4.1: 1).
pub const COST_MISS_STEP: u32 = 1;
const _: () = assert!(COST_MISS_STEP > 0);
/// Hysteresis margin on the §5.2 comparison: the threshold decreases while
/// `P(D_miss|I_miss) < total_miss_rate + margin` and increases above it.
/// A small positive margin keeps protection from flapping when the two
/// rates are statistically indistinguishable. Not a paper parameter
/// (ROADMAP item 1(b)).
pub const THRESHOLD_MARGIN: f64 = 0.10;

/// Configuration of the Garibaldi module: the parameters a study varies.
///
/// Defaults reproduce Table 2: a 2¹⁴-entry pair table with `k = 1` DL_PA
/// field, a 2¹³-entry D_PPN table and a dynamic threshold. The fixed
/// Table 2 parameters are the constants of this module ([`HELPER_ENTRIES`],
/// [`MISS_COST_BITS`], [`COLOR_BITS`], [`QBS_MAX_ATTEMPTS`], …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaribaldiConfig {
    /// log2 of main pair-table entries (default 14).
    pub pair_entries_log2: u32,
    /// DL_PA fields per pair-table entry (`k`, default 1, max 4).
    pub k: u8,
    /// log2 of D_PPN table entries (default 13).
    pub dppn_entries_log2: u32,
    /// LLC accesses per color period (paper: 100 K; scaled experiments use
    /// a proportionally smaller period).
    pub color_period: u64,
    /// Threshold management mode.
    pub threshold_mode: ThresholdMode,
    /// Miss-cost increment applied per paired data *hit* (paper: 1).
    /// Scaled experiments use 2 to compensate for their ~30× lower
    /// per-entry update density versus the paper's 3.2 B-instruction runs;
    /// see `docs/ARCHITECTURE.md` "Fidelity notes".
    pub cost_hit_step: u32,
    /// Enable selective instruction protection (§4.2).
    pub enable_protection: bool,
    /// Enable pairwise data prefetch (§4.3).
    pub enable_prefetch: bool,
}

impl Default for GaribaldiConfig {
    fn default() -> Self {
        Self {
            pair_entries_log2: 14,
            k: 1,
            dppn_entries_log2: 13,
            color_period: 100_000,
            threshold_mode: ThresholdMode::Dynamic,
            cost_hit_step: 1,
            enable_protection: true,
            enable_prefetch: true,
        }
    }
}

impl GaribaldiConfig {
    /// Number of pair-table entries.
    pub fn pair_entries(&self) -> usize {
        1 << self.pair_entries_log2
    }

    /// Number of D_PPN table entries.
    pub fn dppn_entries(&self) -> usize {
        1 << self.dppn_entries_log2
    }

    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.k > 4 {
            return Err(format!("k={} exceeds the 4 DL_PA fields", self.k));
        }
        if self.pair_entries_log2 == 0 || self.pair_entries_log2 > 24 {
            return Err("pair table size out of range".into());
        }
        if self.dppn_entries_log2 > 16 {
            // A DL_PA field stores its D_PPN index as a `u16`.
            return Err("D_PPN table beyond the 16-bit DL_PA index".into());
        }
        if self.color_period == 0 {
            return Err("zero color period".into());
        }
        if self.cost_hit_step == 0 {
            return Err("zero cost step".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = GaribaldiConfig::default();
        assert_eq!(c.pair_entries(), 16_384);
        assert_eq!(c.dppn_entries(), 8_192);
        assert_eq!(c.k, 1);
        assert_eq!(HELPER_ENTRIES, 128);
        assert_eq!(MAX_COST, 63);
        assert_eq!(COLORS, 8);
        assert_eq!(QBS_MAX_ATTEMPTS, 2);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GaribaldiConfig { k: 9, ..Default::default() };
        assert!(c.validate().is_err());
        c.k = 1;
        c.pair_entries_log2 = 25;
        assert!(c.validate().is_err());
        c.pair_entries_log2 = 14;
        c.dppn_entries_log2 = 17;
        assert!(c.validate().is_err());
        c.dppn_entries_log2 = 16;
        c.validate().expect("a 2^16-entry D_PPN table fits the u16 index");
        c.color_period = 0;
        assert!(c.validate().is_err());
        c.color_period = 1;
        c.cost_hit_step = 0;
        assert!(c.validate().is_err());
        c.cost_hit_step = 1;
        c.validate().unwrap();
    }
}
