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

/// Configuration of the Garibaldi module.
///
/// Defaults reproduce Table 2: a 2¹⁴-entry pair table with `k = 1` DL_PA
/// field, a 2¹³-entry D_PPN table, 128-entry 4-way helper tables, 6-bit miss
/// cost, 3-bit coloring, `QBS_MAX_ATTEMPTS = 2` and a dynamic threshold
/// initialised to 32.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaribaldiConfig {
    /// log2 of main pair-table entries (default 14).
    pub pair_entries_log2: u32,
    /// DL_PA fields per pair-table entry (`k`, default 1, max 4).
    pub k: u8,
    /// log2 of D_PPN table entries (default 13).
    pub dppn_entries_log2: u32,
    /// Helper-table entries per core (default 128).
    pub helper_entries: usize,
    /// Helper-table associativity (default 4).
    pub helper_ways: usize,
    /// Miss-cost counter width in bits (default 6).
    pub miss_cost_bits: u32,
    /// Initial miss cost on pair-table allocation (default 32 — the middle
    /// of the 6-bit range; Fig 14b expresses fixed thresholds as deltas
    /// from this value).
    pub init_cost: u32,
    /// Coloring timer width `l` in bits (default 3 → 8 colors).
    pub color_bits: u32,
    /// LLC accesses per color period (paper: 100 K; scaled experiments use
    /// a proportionally smaller period).
    pub color_period: u64,
    /// Threshold management mode.
    pub threshold_mode: ThresholdMode,
    /// Initial threshold value (default 32).
    pub init_threshold: u32,
    /// Recent instruction-miss PCs tracked per thread by the PMU (10).
    pub pmu_recent_pcs: usize,
    /// Maximum pair-table queries per eviction (`QBS_MAX_ATTEMPTS` = 2).
    pub qbs_max_attempts: u32,
    /// Cycles per pair-table query (`QBS_LOOKUP_COST` = 1).
    pub qbs_lookup_cost: u64,
    /// DL_PA field sctr replacement threshold (Fig 10b, "e.g., 4").
    pub dl_sctr_threshold: u32,
    /// Miss-cost increment applied per paired data *hit* (paper: 1).
    /// Scaled experiments use 2 to compensate for their ~30× lower
    /// per-entry update density versus the paper's 3.2 B-instruction runs;
    /// see `docs/ARCHITECTURE.md` "Fidelity notes".
    pub cost_hit_step: u32,
    /// Miss-cost decrement applied per paired data *miss* (paper: 1).
    pub cost_miss_step: u32,
    /// Hysteresis margin on the §5.2 comparison: the threshold decreases
    /// while `P(D_miss|I_miss) < total_miss_rate + margin` and increases
    /// above it. A small positive margin keeps protection from flapping
    /// when the two rates are statistically indistinguishable.
    pub threshold_margin: f64,
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
            helper_entries: 128,
            helper_ways: 4,
            miss_cost_bits: 6,
            init_cost: 32,
            color_bits: 3,
            color_period: 100_000,
            threshold_mode: ThresholdMode::Dynamic,
            init_threshold: 32,
            pmu_recent_pcs: 10,
            qbs_max_attempts: 2,
            qbs_lookup_cost: 1,
            dl_sctr_threshold: 4,
            cost_hit_step: 1,
            cost_miss_step: 1,
            threshold_margin: 0.10,
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

    /// Number of colors of the l-bit timer.
    pub fn colors(&self) -> u32 {
        1 << self.color_bits
    }

    /// Maximum miss-cost value.
    pub fn max_cost(&self) -> u32 {
        (1 << self.miss_cost_bits) - 1
    }

    /// A configuration scaled for small experiments: same structure sizes
    /// relative to the default, but a shorter color period so dynamic
    /// thresholding converges within scaled-down runs.
    pub fn scaled(color_period: u64) -> Self {
        Self { color_period, ..Self::default() }
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
        if self.miss_cost_bits == 0 || self.miss_cost_bits > 16 {
            return Err("miss cost width out of range".into());
        }
        if self.init_cost > self.max_cost() || self.init_threshold > self.max_cost() {
            return Err("init cost/threshold exceed counter range".into());
        }
        if self.color_bits == 0 || self.color_bits > 8 {
            return Err("color width out of range".into());
        }
        if self.color_period == 0 {
            return Err("zero color period".into());
        }
        if self.cost_hit_step == 0 || self.cost_miss_step == 0 {
            return Err("zero cost step".into());
        }
        if self.helper_entries == 0
            || self.helper_ways == 0
            || self.helper_entries % self.helper_ways != 0
        {
            return Err("helper table geometry invalid".into());
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
        assert_eq!(c.helper_entries, 128);
        assert_eq!(c.max_cost(), 63);
        assert_eq!(c.colors(), 8);
        assert_eq!(c.qbs_max_attempts, 2);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GaribaldiConfig { k: 9, ..Default::default() };
        assert!(c.validate().is_err());
        c.k = 1;
        c.init_threshold = 1000;
        assert!(c.validate().is_err());
        c.init_threshold = 32;
        c.helper_entries = 130; // not divisible by 4 ways
        assert!(c.validate().is_err());
    }
}
