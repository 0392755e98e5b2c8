//! Storage-overhead model (Table 2).
//!
//! Computes the exact bit budget of every Garibaldi structure from a
//! [`GaribaldiConfig`], reproducing the paper's Table 2 accounting:
//!
//! * pair-table entry = IL_PA tag (24 b) + miss_cost (6 b) + coloring (3 b)
//!   + valid (1 b) + k × DL_PA field (D_PPO 6 b + D_PPN_idx 13 b + old 1 b
//!   + sctr 3 b = 23 b);
//! * D_PPN entry = D_PPN (19 b) + sctr (3 b) + valid (1 b);
//! * helper entry = VPPN (29 b) + PPPN (32 b) + valid (1 b) + sctr (3 b)
//!   ≈ 64 b, 128 entries per core.

use crate::config::{GaribaldiConfig, COLOR_BITS, HELPER_ENTRIES, MISS_COST_BITS};
use serde::{Deserialize, Serialize};

/// Bit widths fixed by the paper's layout.
const IL_TAG_BITS: u64 = 24;
const VALID_BITS: u64 = 1;
const DL_PPO_BITS: u64 = 6;
const DL_OLD_BITS: u64 = 1;
const DL_SCTR_BITS: u64 = 3;
const DPPN_BITS: u64 = 19;
const DPPN_SCTR_BITS: u64 = 3;
const HELPER_ENTRY_BITS: u64 = 64;

/// Byte sizes of each Garibaldi structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageReport {
    /// Main pair table, bytes.
    pub pair_table_bytes: u64,
    /// D_PPN table, bytes.
    pub dppn_table_bytes: u64,
    /// Helper table, bytes **per core**.
    pub helper_table_bytes_per_core: u64,
    /// Number of cores the totals assume.
    pub cores: u64,
    /// Bits per pair-table entry.
    pub pair_entry_bits: u64,
    /// Bits per DL_PA field.
    pub dl_field_bits: u64,
}

impl StorageReport {
    /// Computes the report for a configuration and core count.
    pub fn compute(cfg: &GaribaldiConfig, cores: usize) -> Self {
        let dl_field_bits = DL_PPO_BITS + cfg.dppn_entries_log2 as u64 + DL_OLD_BITS + DL_SCTR_BITS;
        let pair_entry_bits = IL_TAG_BITS
            + MISS_COST_BITS as u64
            + COLOR_BITS as u64
            + VALID_BITS
            + cfg.k as u64 * dl_field_bits;
        let pair_table_bytes = (cfg.pair_entries() as u64 * pair_entry_bits).div_ceil(8);
        let dppn_entry_bits = DPPN_BITS + DPPN_SCTR_BITS + VALID_BITS;
        let dppn_table_bytes = (cfg.dppn_entries() as u64 * dppn_entry_bits).div_ceil(8);
        let helper_table_bytes_per_core = (HELPER_ENTRIES as u64 * HELPER_ENTRY_BITS).div_ceil(8);
        Self {
            pair_table_bytes,
            dppn_table_bytes,
            helper_table_bytes_per_core,
            cores: cores as u64,
            pair_entry_bits,
            dl_field_bits,
        }
    }

    /// Total bytes across all structures and cores.
    pub fn total_bytes(&self) -> u64 {
        self.pair_table_bytes
            + self.dppn_table_bytes
            + self.helper_table_bytes_per_core * self.cores
    }

    /// Overhead as a fraction of an LLC of `llc_bytes` capacity.
    pub fn overhead_vs_llc(&self, llc_bytes: u64) -> f64 {
        self.total_bytes() as f64 / llc_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_default_sizes() {
        let r = StorageReport::compute(&GaribaldiConfig::default(), 40);
        // Paper: entry = 34 bit + k=1 × 23 bit = 57 bit; 2^14 entries.
        assert_eq!(r.dl_field_bits, 23);
        assert_eq!(r.pair_entry_bits, 57);
        assert_eq!(r.pair_table_bytes, (16_384 * 57u64).div_ceil(8));
        // ≈ 114 KiB exact; the paper rounds the pair table to "120KB".
        let kb = r.pair_table_bytes as f64 / 1024.0;
        assert!((110.0..=120.0).contains(&kb), "pair table {kb:.1} KB");
        // D_PPN: 8192 × 23 bit ≈ 23.5 KB (paper lists 32KB for a
        // power-of-two array allocation).
        let dppn_kb = r.dppn_table_bytes as f64 / 1024.0;
        assert!((22.0..=24.0).contains(&dppn_kb), "dppn {dppn_kb:.1} KB");
        // Helper: 128 × 64 bit = 1 KiB per core.
        assert_eq!(r.helper_table_bytes_per_core, 1024);
        // Total for 40 cores lands in the paper's ~194 KB ballpark.
        let total_kb = r.total_bytes() as f64 / 1024.0;
        assert!((170.0..=200.0).contains(&total_kb), "total {total_kb:.1} KB");
        // Under 1% of the paper's 30 MB LLC.
        assert!(r.overhead_vs_llc(30 * 1024 * 1024) < 0.01);
    }

    #[test]
    fn k_scales_entry_size() {
        let k1 = StorageReport::compute(&GaribaldiConfig::default(), 1);
        let k4 = StorageReport::compute(&GaribaldiConfig { k: 4, ..Default::default() }, 1);
        assert_eq!(k4.pair_entry_bits - k1.pair_entry_bits, 3 * 23);
        assert!(k4.pair_table_bytes > k1.pair_table_bytes);
    }

    #[test]
    fn bigger_tables_cost_more() {
        let small = StorageReport::compute(
            &GaribaldiConfig { pair_entries_log2: 10, ..Default::default() },
            1,
        );
        let big = StorageReport::compute(
            &GaribaldiConfig { pair_entries_log2: 18, ..Default::default() },
            1,
        );
        assert_eq!(big.pair_table_bytes, small.pair_table_bytes * 256);
    }
}
