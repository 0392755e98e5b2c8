//! The Garibaldi module as one object (Fig 6): every structure of the
//! mechanism behind three hooks.
//!
//! This is the single-instance model. The simulator does not run it: its
//! LLC shards own slices of the pair and D_PPN tables and its private
//! tiers own the helper tables (`garibaldi_sim::engine`). perfbench's
//! `garibaldi` layer, the `pairwise_prefetch_demo` example and the
//! `micro_pair_table` bench drive this module.

use crate::config::GaribaldiConfig;
use crate::dppn_table::DppnTable;
use crate::helper_table::HelperTable;
use crate::pair_table::PairTable;
use crate::threshold::ThresholdUnit;
use garibaldi_types::{CoreId, LineAddr, ThreadId, VirtAddr, LINE_BYTES};

/// Module-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaribaldiStats {
    /// Instruction LLC accesses observed.
    pub instr_accesses: u64,
    /// Instruction LLC misses observed.
    pub instr_misses: u64,
    /// Data LLC accesses observed.
    pub data_accesses: u64,
    /// Data accesses whose triggering instruction line was deduced
    /// (helper-table hit) and fed into the pair table.
    pub pair_updates: u64,
    /// Data accesses whose PC had no helper-table mapping.
    pub helper_misses: u64,
    /// Pairwise prefetches issued (§4.3).
    pub prefetches_issued: u64,
    /// Eviction queries answered "protect".
    pub protections: u64,
    /// Eviction queries answered "evict".
    pub declines: u64,
    /// Instruction misses that found a pair-table entry but were protected
    /// (no prefetch issued: a protected line is expected to be cached).
    pub protected_entry_misses: u64,
}

impl GaribaldiStats {
    /// Accumulates counters from another module slice (per-shard Garibaldi
    /// state in the sharded engine merges into one report).
    pub fn merge(&mut self, other: &GaribaldiStats) {
        self.instr_accesses += other.instr_accesses;
        self.instr_misses += other.instr_misses;
        self.data_accesses += other.data_accesses;
        self.pair_updates += other.pair_updates;
        self.helper_misses += other.helper_misses;
        self.prefetches_issued += other.prefetches_issued;
        self.protections += other.protections;
        self.declines += other.declines;
        self.protected_entry_misses += other.protected_entry_misses;
    }
}

/// The Garibaldi module attached to one shared LLC.
///
/// One instance serves the whole LLC; helper tables are per core. Callers
/// drive it with three hooks mirroring Fig 6(b):
///
/// * [`GaribaldiModule::on_instr_access`] — every instruction access
///   reaching the LLC (returns pairwise-prefetch candidates on misses);
/// * [`GaribaldiModule::on_data_access`] — every demand data access
///   reaching the LLC;
/// * [`GaribaldiModule::should_protect`] — the QBS query during victim
///   selection.
#[derive(Debug)]
pub struct GaribaldiModule {
    cfg: GaribaldiConfig,
    pair: PairTable,
    dppn: DppnTable,
    helpers: Vec<HelperTable>,
    threshold: ThresholdUnit,
    stats: GaribaldiStats,
}

impl GaribaldiModule {
    /// Creates the module for an `n_cores`-core system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GaribaldiConfig::validate`]).
    pub fn new(cfg: GaribaldiConfig, n_cores: usize) -> Self {
        cfg.validate().expect("valid Garibaldi configuration");
        Self {
            pair: PairTable::new(&cfg),
            dppn: DppnTable::new(cfg.dppn_entries()),
            helpers: (0..n_cores.max(1))
                .map(|_| HelperTable::new(cfg.helper_entries, cfg.helper_ways))
                .collect(),
            threshold: ThresholdUnit::new(&cfg, n_cores.max(1)),
            cfg,
            stats: GaribaldiStats::default(),
        }
    }

    /// Module statistics.
    pub fn stats(&self) -> &GaribaldiStats {
        &self.stats
    }

    /// Current dynamic threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold.threshold()
    }

    /// Instruction access at the LLC (Fig 7 step 1 + §4.3).
    ///
    /// Records the PC→frame mapping in the requester's helper table, tracks
    /// the PMU on demand misses, and — for unprotected demand misses with a
    /// pair-table entry — returns the paired data lines to prefetch.
    ///
    /// `demand` distinguishes demand fetches from instruction-prefetch
    /// requests; per §5.3 prefetched instruction lines still enter pair
    /// tracking (the helper table observes their PC via the normal
    /// translation path) but do not drive the PMU or pairwise prefetch.
    pub fn on_instr_access(
        &mut self,
        core: CoreId,
        pc: VirtAddr,
        il_line: LineAddr,
        hit: bool,
        demand: bool,
    ) -> Vec<LineAddr> {
        self.stats.instr_accesses += 1;
        if demand {
            self.threshold.on_llc_access(hit);
        }
        let n = self.helpers.len();
        let helper = &mut self.helpers[core.index() % n];
        helper.insert(pc.vpn(), il_line.ppn());

        if hit || !demand {
            return Vec::new();
        }
        self.stats.instr_misses += 1;
        self.threshold.record_instr_miss(ThreadId::from(core), pc);

        let mut prefetches = Vec::new();
        if self.pair.lookup(il_line).is_some() {
            let protected = self.pair.query_protect(
                il_line,
                self.threshold.color(),
                self.threshold.threshold(),
            );
            if protected {
                // A protected line missing is a tracking anomaly (it was
                // evicted before protection could act, or aliased).
                self.stats.protected_entry_misses += 1;
            } else if self.cfg.enable_prefetch {
                prefetches = self.pair.prefetch_candidates(il_line, &self.dppn);
                self.stats.prefetches_issued += prefetches.len() as u64;
            }
        }
        // Fig 10(b): the miss sets the old bits of the entry's DL fields.
        self.pair.on_instr_miss(il_line);
        prefetches
    }

    /// Demand data access at the LLC (Fig 7 steps 2–3).
    ///
    /// Deduces the triggering instruction line through the helper table and
    /// runs the pair-table allocate/update path. Prefetch fills must NOT be
    /// routed here (§5.3: prefetched data lines do not update the table).
    pub fn on_data_access(&mut self, core: CoreId, pc: VirtAddr, dl_line: LineAddr, hit: bool) {
        self.stats.data_accesses += 1;
        self.threshold.on_llc_access(hit);
        self.threshold.record_data_access(ThreadId::from(core), pc, hit);

        let n = self.helpers.len();
        let helper = &mut self.helpers[core.index() % n];
        let Some(i_ppn) = helper.lookup(pc.vpn()) else {
            self.stats.helper_misses += 1;
            return;
        };
        // IL_PA deduction (Fig 8): instruction frame + PC's in-page line.
        let il_line = LineAddr::from_page_parts(i_ppn, pc.line_page_offset() / LINE_BYTES);
        let dppn_idx = self.dppn.insert(dl_line.ppn());
        self.pair.update_on_data(
            il_line,
            hit,
            dppn_idx,
            dl_line.line_in_page() as u8,
            self.threshold.color(),
            self.threshold.threshold(),
        );
        self.stats.pair_updates += 1;
    }

    /// QBS protection query for an instruction-line victim (§4.2).
    pub fn should_protect(&mut self, victim: LineAddr) -> bool {
        if !self.cfg.enable_protection {
            return false;
        }
        let protect =
            self.pair.query_protect(victim, self.threshold.color(), self.threshold.threshold());
        if protect {
            self.stats.protections += 1;
        } else {
            self.stats.declines += 1;
        }
        protect
    }

    /// Read access to the pair table (diagnostics, benches).
    pub fn pair_table(&self) -> &PairTable {
        &self.pair
    }

    /// Helper-table hit rate across all cores (diagnostics).
    pub fn helper_hit_rate(&self) -> f64 {
        let (mut h, mut m) = (0u64, 0u64);
        for t in &self.helpers {
            let (th, tm) = t.stats();
            h += th;
            m += tm;
        }
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdMode;

    fn module() -> GaribaldiModule {
        GaribaldiModule::new(GaribaldiConfig { color_period: 1000, ..Default::default() }, 2)
    }

    const PC: VirtAddr = VirtAddr::new(0x0040_0040);
    const IL: LineAddr = LineAddr::new(0x80001);
    const DL: LineAddr = LineAddr::new(0x90007);

    /// Walks the canonical pairing flow: I access teaches the helper table,
    /// D accesses raise the miss cost, eviction query protects.
    #[test]
    fn end_to_end_pairing_and_protection() {
        let mut g = module();
        let core = CoreId::new(0);
        g.on_instr_access(core, PC, IL, false, true);
        // Deduce the IL the module will reconstruct from (PC, I-PPN).
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        // Hot data accesses from this PC push the pair's cost up.
        for _ in 0..8 {
            g.on_data_access(core, PC, DL, true);
        }
        assert_eq!(g.stats().pair_updates, 8);
        let cost = g.pair_table().entry_for(il_deduced).miss_cost.get();
        assert!(cost > 32, "cost grew: {cost}");
        assert!(g.should_protect(il_deduced), "hot pair protected");
        assert_eq!(g.stats().protections, 1);
    }

    #[test]
    fn cold_pairs_are_not_protected() {
        let mut g = module();
        let core = CoreId::new(0);
        g.on_instr_access(core, PC, IL, false, true);
        for _ in 0..8 {
            g.on_data_access(core, PC, DL, false); // cold data
        }
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        assert!(!g.should_protect(il_deduced));
    }

    #[test]
    fn unprotected_miss_prefetches_paired_data() {
        let mut g = module();
        let core = CoreId::new(1);
        g.on_instr_access(core, PC, IL, false, true);
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        // Record the pair but keep it cold (data misses).
        for _ in 0..4 {
            g.on_data_access(core, PC, DL, false);
        }
        let prefetches = g.on_instr_access(core, PC, il_deduced, false, true);
        assert_eq!(prefetches, vec![DL], "paired cold data prefetched");
        assert!(g.stats().prefetches_issued >= 1);
    }

    #[test]
    fn protected_miss_does_not_prefetch() {
        let mut g = module();
        let core = CoreId::new(0);
        g.on_instr_access(core, PC, IL, false, true);
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        for _ in 0..10 {
            g.on_data_access(core, PC, DL, true); // hot ⇒ protected
        }
        let prefetches = g.on_instr_access(core, PC, il_deduced, false, true);
        assert!(prefetches.is_empty());
        assert_eq!(g.stats().protected_entry_misses, 1);
    }

    #[test]
    fn helper_miss_skips_pair_update() {
        let mut g = module();
        // Data access with no prior instruction access: nothing learned.
        g.on_data_access(CoreId::new(0), PC, DL, true);
        assert_eq!(g.stats().helper_misses, 1);
        assert_eq!(g.stats().pair_updates, 0);
    }

    #[test]
    fn helpers_are_per_core() {
        let mut g = module();
        g.on_instr_access(CoreId::new(0), PC, IL, false, true);
        // Core 1 never saw the instruction: its helper table misses.
        g.on_data_access(CoreId::new(1), PC, DL, true);
        assert_eq!(g.stats().helper_misses, 1);
        g.on_data_access(CoreId::new(0), PC, DL, true);
        assert_eq!(g.stats().pair_updates, 1);
    }

    #[test]
    fn disabled_protection_never_protects() {
        let cfg = GaribaldiConfig {
            enable_protection: false,
            threshold_mode: ThresholdMode::AllProtect,
            ..Default::default()
        };
        let mut g = GaribaldiModule::new(cfg, 1);
        let core = CoreId::new(0);
        g.on_instr_access(core, PC, IL, false, true);
        for _ in 0..10 {
            g.on_data_access(core, PC, DL, true);
        }
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        assert!(!g.should_protect(il_deduced));
    }

    #[test]
    fn disabled_prefetch_returns_nothing() {
        let cfg = GaribaldiConfig { enable_prefetch: false, ..Default::default() };
        let mut g = GaribaldiModule::new(cfg, 1);
        let core = CoreId::new(0);
        g.on_instr_access(core, PC, IL, false, true);
        for _ in 0..4 {
            g.on_data_access(core, PC, DL, false);
        }
        let il_deduced = LineAddr::from_page_parts(IL.ppn(), PC.line_page_offset() / LINE_BYTES);
        assert!(g.on_instr_access(core, PC, il_deduced, false, true).is_empty());
    }
}
