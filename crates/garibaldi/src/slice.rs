//! Garibaldi's LLC-side rules over one slice of its tables (Fig 6(b),
//! Fig 7).
//!
//! A [`GaribaldiSlice`] owns a pair table and a D_PPN table — the whole
//! tables in [`crate::GaribaldiModule`], one set-contiguous share of them
//! in each LLC shard of `garibaldi-sim` — and implements the four rules
//! the LLC controller runs against them: the instruction access, the pair
//! update, the QBS guard query and the fill rule with its no-bypass pin.
//! Every rule takes the threshold unit's current `(color, threshold)`; the
//! unit itself stays with the caller.

use crate::config::{GaribaldiConfig, QBS_MAX_ATTEMPTS};
use crate::dppn_table::DppnTable;
use crate::pair_table::PairTable;
use garibaldi_cache::Fill;
use garibaldi_types::LineAddr;

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

garibaldi_types::fields!(GaribaldiStats {
    instr_accesses,
    instr_misses,
    data_accesses,
    pair_updates,
    helper_misses,
    prefetches_issued,
    protections,
    declines,
    protected_entry_misses,
});

/// Pair and D_PPN tables of one LLC slice, with the rules that use them.
#[derive(Debug, Clone)]
pub struct GaribaldiSlice {
    pair: PairTable,
    dppn: DppnTable,
    stats: GaribaldiStats,
    cfg: GaribaldiConfig,
}

impl GaribaldiSlice {
    /// Slice for one of `shards` set-contiguous LLC shards: each holds
    /// `1 / shards` of the configured pair and D_PPN entries, at least 64
    /// of each.
    pub fn new(cfg: &GaribaldiConfig, shards: usize) -> Self {
        Self {
            pair: PairTable::with_entries(cfg, (cfg.pair_entries() / shards).max(64)),
            dppn: DppnTable::new((cfg.dppn_entries() / shards).max(64)),
            stats: GaribaldiStats::default(),
            cfg: cfg.clone(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &GaribaldiStats {
        &self.stats
    }

    /// Mutable event counters (for the caller's own events: data accesses
    /// observed, helper-table misses, the warmup reset).
    pub fn stats_mut(&mut self) -> &mut GaribaldiStats {
        &mut self.stats
    }

    /// The pair table (read-only; diagnostics and host-CPU hints).
    pub fn pair(&self) -> &PairTable {
        &self.pair
    }

    /// The D_PPN table (read-only; diagnostics and host-CPU hints).
    pub fn dppn(&self) -> &DppnTable {
        &self.dppn
    }

    /// Instruction access to `il` at the LLC (Fig 7 step 1, §4.3). On a
    /// demand miss, an entry whose aged cost clears the threshold counts
    /// as a protected-entry miss; any other tracked entry leaves its
    /// pairwise-prefetch candidates in `prefetches` (cleared first).
    pub fn instr_access(
        &mut self,
        il: LineAddr,
        demand_miss: bool,
        color: u8,
        threshold: u32,
        prefetches: &mut Vec<LineAddr>,
    ) {
        self.stats.instr_accesses += 1;
        prefetches.clear();
        if !demand_miss {
            return;
        }
        self.stats.instr_misses += 1;
        match self.pair.resolve_instr_miss(il, color, threshold) {
            (false, _) => {}
            (true, true) => self.stats.protected_entry_misses += 1,
            (true, false) => {
                if self.cfg.enable_prefetch {
                    self.pair.prefetch_candidates_into(il, &self.dppn, prefetches);
                    self.stats.prefetches_issued += prefetches.len() as u64;
                }
            }
        }
    }

    /// Pair update (Fig 7 steps 2–3): the demand data access to `dl`
    /// (`data_hit` at the LLC) was triggered by instruction line `il`.
    pub fn pair_update(
        &mut self,
        il: LineAddr,
        data_hit: bool,
        dl: LineAddr,
        color: u8,
        threshold: u32,
    ) {
        let idx = self.dppn.insert(dl.ppn());
        self.pair.update_on_data(il, data_hit, idx, dl.line_in_page() as u8, color, threshold);
        self.stats.pair_updates += 1;
    }

    /// QBS guard query for an instruction-line victim (§4.2).
    pub fn should_protect(&mut self, victim: LineAddr, color: u8, threshold: u32) -> bool {
        if !self.cfg.enable_protection {
            return false;
        }
        let protect = self.pair.query_protect(victim, color, threshold);
        if protect {
            self.stats.protections += 1;
        } else {
            self.stats.declines += 1;
        }
        protect
    }

    /// The LLC fill rule for `line`: QBS may defend up to
    /// [`QBS_MAX_ATTEMPTS`] instruction victims, and an instruction line the
    /// pair table would defend (aged cost above `threshold`) is pinned —
    /// its fill clears [`Fill::bypass`], since a line must be resident to
    /// be defended. A pinned fill enters at the lowest eviction priority.
    pub fn fill_rule(&self, line: LineAddr, is_instr: bool, color: u8, threshold: u32) -> Fill {
        if !self.cfg.enable_protection {
            return Fill::PLAIN;
        }
        let pinned = is_instr && self.pair.query_protect(line, color, threshold);
        Fill { bypass: !pinned, max_protects: QBS_MAX_ATTEMPTS, ..Fill::PLAIN }
    }
}
