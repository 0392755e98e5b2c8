//! Energy model (McPAT stand-in).
//!
//! The paper reports energy normalized to LRU (Fig 13), so relative event
//! counts dominate and a per-event energy model with static power captures
//! the trend: fewer ifetch stalls → shorter runtime → less static energy;
//! extra pair-table traffic and data misses → more dynamic energy. Event
//! energies are in the ballpark of 22 nm CACTI numbers for these structure
//! sizes.

use serde::{Deserialize, Serialize};

/// Per-event energies (nanojoules) and static power (watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// L1 access energy (nJ).
    pub l1_access_nj: f64,
    /// L2 access energy (nJ).
    pub l2_access_nj: f64,
    /// LLC access energy (nJ).
    pub llc_access_nj: f64,
    /// DRAM line transfer energy (nJ).
    pub dram_access_nj: f64,
    /// Pair-table / helper-table / D_PPN operation energy (nJ).
    pub pair_table_nj: f64,
    /// Static power per core (W) at 3 GHz.
    pub static_watts_per_core: f64,
    /// Clock frequency (Hz) for converting cycles to seconds.
    pub freq_hz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            l1_access_nj: 0.08,
            l2_access_nj: 0.6,
            llc_access_nj: 1.8,
            dram_access_nj: 20.0,
            pair_table_nj: 0.05,
            static_watts_per_core: 0.9,
            freq_hz: 3.0e9,
        }
    }
}

/// Event counts feeding the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyEvents {
    /// L1 (I+D) accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// LLC accesses (demand + prefetch fills).
    pub llc_accesses: u64,
    /// DRAM line transfers.
    pub dram_accesses: u64,
    /// Garibaldi table operations.
    pub pair_table_ops: u64,
    /// Wall-clock cycles of the run (max core clock).
    pub cycles: u64,
    /// Number of cores powered.
    pub cores: u64,
}

/// Energy breakdown in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Dynamic energy of the cache/memory hierarchy (J).
    pub dynamic_j: f64,
    /// Static (leakage + clock) energy (J).
    pub static_j: f64,
}

garibaldi_types::fields!(EnergyReport { dynamic_j, static_j });

impl EnergyReport {
    /// Total energy (J).
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j
    }
}

impl EnergyModel {
    /// Evaluates the model on a set of event counts.
    pub fn evaluate(&self, ev: &EnergyEvents) -> EnergyReport {
        let nj = ev.l1_accesses as f64 * self.l1_access_nj
            + ev.l2_accesses as f64 * self.l2_access_nj
            + ev.llc_accesses as f64 * self.llc_access_nj
            + ev.dram_accesses as f64 * self.dram_access_nj
            + ev.pair_table_ops as f64 * self.pair_table_nj;
        let seconds = ev.cycles as f64 / self.freq_hz;
        EnergyReport {
            dynamic_j: nj * 1e-9,
            static_j: seconds * self.static_watts_per_core * ev.cores as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_runs_cost_more_static_energy() {
        let m = EnergyModel::default();
        let short = m.evaluate(&EnergyEvents { cycles: 1_000_000, cores: 8, ..Default::default() });
        let long = m.evaluate(&EnergyEvents { cycles: 2_000_000, cores: 8, ..Default::default() });
        assert!(long.static_j > short.static_j * 1.9);
    }

    #[test]
    fn dram_dominates_dynamic() {
        let m = EnergyModel::default();
        let r = m.evaluate(&EnergyEvents {
            l1_accesses: 1000,
            dram_accesses: 1000,
            ..Default::default()
        });
        // DRAM is 250× L1 per access.
        assert!(r.dynamic_j > 0.0);
        let dram_share =
            1000.0 * m.dram_access_nj / (1000.0 * m.dram_access_nj + 1000.0 * m.l1_access_nj);
        assert!(dram_share > 0.99);
    }

    #[test]
    fn totals_add_up() {
        let m = EnergyModel::default();
        let r = m.evaluate(&EnergyEvents {
            l1_accesses: 10,
            l2_accesses: 10,
            llc_accesses: 10,
            dram_accesses: 10,
            pair_table_ops: 10,
            cycles: 3_000_000_000,
            cores: 1,
        });
        assert!((r.total_j() - (r.dynamic_j + r.static_j)).abs() < 1e-15);
        // 1 second at 0.9 W static.
        assert!((r.static_j - 0.9).abs() < 1e-9);
    }
}
