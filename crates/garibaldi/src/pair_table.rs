//! The main pair table (Fig 8, Fig 9c, Fig 10b).
//!
//! Direct-mapped, indexed by the instruction line's physical address. Each
//! entry couples an instruction line (`IL_PA` tag) with
//!
//! * a 6-bit saturating **miss cost**, incremented when a paired data access
//!   hits in the LLC and decremented when it misses (§4.1);
//! * a **color** stamp used for lazy aging against the module-wide l-bit
//!   timer (§5.2, Fig 9c): `aged_cost = cost − color_distance`;
//! * up to `k` **DL_PA fields** recording the data lines that follow the
//!   instruction (old bit + 3-bit sctr management, Fig 10b), each storing a
//!   D_PPN-table index plus the in-page line offset.

use crate::config::GaribaldiConfig;
use crate::dppn_table::DppnTable;
use garibaldi_cache::SatCounter;
use garibaldi_types::LineAddr;

/// Maximum DL_PA fields an entry can carry (the `k ≤ 4` bound).
pub const MAX_DL_FIELDS: usize = 4;

/// One DL_PA field: a paired data line in compressed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlField {
    /// Field holds a recorded data line.
    pub valid: bool,
    /// Index into the decoupled [`DppnTable`].
    pub dppn_idx: u16,
    /// 64 B-aligned line index within the data page (D_PPO, 6 bits).
    pub line_in_page: u8,
    /// Old bit (Fig 10b): set on instruction miss / color update; a field
    /// only becomes replaceable after its old bit is consumed.
    pub old: bool,
    /// 3-bit confidence counter.
    pub sctr: SatCounter,
}

impl DlField {
    fn empty() -> Self {
        Self { valid: false, dppn_idx: 0, line_in_page: 0, old: false, sctr: SatCounter::new(3, 0) }
    }
}

/// One pair-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// Entry holds a tracked instruction line.
    pub valid: bool,
    /// Tracked instruction line (tag; hardware stores 24 tag bits, the
    /// simulator keeps the full line address).
    pub il_line: LineAddr,
    /// Saturating miss-cost counter (§4.1).
    pub miss_cost: SatCounter,
    /// Color stamp of the last allocate/update.
    pub color: u8,
    /// Paired data lines.
    pub dl: [DlField; MAX_DL_FIELDS],
}

impl PairEntry {
    fn empty(cost_bits: u32) -> Self {
        Self {
            valid: false,
            il_line: LineAddr::new(0),
            miss_cost: SatCounter::new(cost_bits, 0),
            color: 0,
            dl: [DlField::empty(); MAX_DL_FIELDS],
        }
    }
}

/// Statistics of pair-table behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTableStats {
    /// Data-access updates that found their entry (tag match).
    pub update_hits: u64,
    /// Data-access updates that found a different tag.
    pub update_conflicts: u64,
    /// Conflicting entries replaced (aged cost at or below threshold).
    pub replacements: u64,
    /// Conflicting entries preserved (aged cost above threshold).
    pub preservations: u64,
    /// Protection queries answered "protect".
    pub protects: u64,
    /// Protection queries answered "evict".
    pub declines: u64,
}

/// The direct-mapped pair table.
#[derive(Debug, Clone)]
pub struct PairTable {
    entries: Vec<PairEntry>,
    cost_bits: u32,
    init_cost: u32,
    k: usize,
    colors: u32,
    dl_sctr_threshold: u32,
    hit_step: u32,
    miss_step: u32,
    stats: PairTableStats,
}

impl PairTable {
    /// Builds the table from a module configuration.
    pub fn new(cfg: &GaribaldiConfig) -> Self {
        Self::with_entries(cfg, cfg.pair_entries())
    }

    /// Builds a table with an explicit entry count (shard slices of the
    /// module's pair table divide `cfg.pair_entries()` by the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_entries(cfg: &GaribaldiConfig, entries: usize) -> Self {
        assert!(entries > 0, "zero-entry pair table");
        Self {
            entries: vec![PairEntry::empty(cfg.miss_cost_bits); entries],
            cost_bits: cfg.miss_cost_bits,
            init_cost: cfg.init_cost,
            k: cfg.k as usize,
            colors: cfg.colors(),
            dl_sctr_threshold: cfg.dl_sctr_threshold,
            hit_step: cfg.cost_hit_step,
            miss_step: cfg.cost_miss_step,
            stats: PairTableStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if configured with zero entries (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics.
    pub fn stats(&self) -> &PairTableStats {
        &self.stats
    }

    #[inline]
    fn index_of(&self, il: LineAddr) -> usize {
        // The shared multiplicative mixer (`garibaldi_types::fasthash`),
        // bit-identical to the ad-hoc expression this table used since
        // PR 1 — the committed scheme-metric goldens pin the mapping.
        garibaldi_types::fasthash::mul_index(il.get(), self.entries.len())
    }

    /// Perf-only host-CPU hint for `il`'s direct-mapped entry (see
    /// [`garibaldi_types::hint`]): batched drains issue these from a
    /// lookahead window so pair-table row misses overlap instead of
    /// serializing. Architecturally inert — no stats, no entry changes.
    #[inline]
    pub fn prefetch_entry(&self, il: LineAddr) {
        garibaldi_types::hint::prefetch_index(&self.entries, self.index_of(il));
    }

    /// Color distance from `entry_color` to `current`, wrapping at 2^l
    /// (Fig 9c: color 5 → current 0 with l = 3 is a distance of 3).
    fn color_distance(&self, entry_color: u8, current: u8) -> u32 {
        (current as u32 + self.colors - entry_color as u32) % self.colors
    }

    /// Aged miss cost of an entry under the current color (Fig 9c); the
    /// entry itself is not modified.
    pub fn aged_cost(&self, entry: &PairEntry, current_color: u8) -> u32 {
        entry.miss_cost.get().saturating_sub(self.color_distance(entry.color, current_color))
    }

    /// Read-only lookup by instruction line (tag must match).
    pub fn lookup(&self, il: LineAddr) -> Option<&PairEntry> {
        let e = &self.entries[self.index_of(il)];
        (e.valid && e.il_line == il).then_some(e)
    }

    /// QBS protection query (§4.2 / Fig 9c): returns `true` when the
    /// victim's aged miss cost exceeds `threshold`. Per the paper, a query
    /// mutates nothing — color and cost stay as they were.
    pub fn query_protect(&mut self, il: LineAddr, current_color: u8, threshold: u32) -> bool {
        let idx = self.index_of(il);
        let e = &self.entries[idx];
        let protect = e.valid && e.il_line == il && self.aged_cost(e, current_color) > threshold;
        if protect {
            self.stats.protects += 1;
        } else {
            self.stats.declines += 1;
        }
        protect
    }

    /// Allocate/update on a data LLC access whose triggering instruction
    /// line is `il` (deduced via the helper table). `data_hit` is the LLC
    /// outcome of the data access; `dppn_idx`/`line_in_page` identify the
    /// data line in compressed form.
    ///
    /// Implements the Fig 10(b) DL-field protocol and the §5.2 entry
    /// replacement rule (aged-cost comparison against the threshold).
    pub fn update_on_data(
        &mut self,
        il: LineAddr,
        data_hit: bool,
        dppn_idx: u16,
        line_in_page: u8,
        current_color: u8,
        threshold: u32,
    ) {
        let idx = self.index_of(il);
        let colors = self.colors;
        let entry = &mut self.entries[idx];

        if entry.valid && entry.il_line == il {
            self.stats.update_hits += 1;
            // Color refresh sets the old bits (Fig 10b) and implicitly ages
            // nothing: allocate/update refreshes the stamp.
            if entry.color != current_color {
                entry.color = current_color;
                for f in entry.dl.iter_mut().filter(|f| f.valid) {
                    f.old = true;
                }
            }
            if data_hit {
                entry.miss_cost.add(self.hit_step);
            } else {
                entry.miss_cost.sub(self.miss_step);
            }
            update_dl_fields(entry, dppn_idx, line_in_page, self.k, self.dl_sctr_threshold);
            return;
        }

        if entry.valid {
            // Collision: preserve high-cost entries (aged comparison); on
            // preservation the cost is rewritten with its aged value and the
            // color refreshed — the one place queries and updates differ.
            self.stats.update_conflicts += 1;
            let dist = (current_color as u32 + colors - entry.color as u32) % colors;
            let aged = entry.miss_cost.get().saturating_sub(dist);
            if aged > threshold {
                entry.miss_cost.set(aged);
                entry.color = current_color;
                self.stats.preservations += 1;
                return;
            }
            self.stats.replacements += 1;
        }

        // Allocate.
        let mut fresh = PairEntry::empty(self.cost_bits);
        fresh.valid = true;
        fresh.il_line = il;
        fresh.miss_cost = SatCounter::new(self.cost_bits, self.init_cost);
        // The triggering data access was a miss when the pair is first seen;
        // still apply the hit/miss signal so allocation is unbiased.
        if data_hit {
            fresh.miss_cost.add(self.hit_step);
        } else {
            fresh.miss_cost.sub(self.miss_step);
        }
        fresh.color = current_color;
        if self.k > 0 {
            fresh.dl[0] = DlField {
                valid: true,
                dppn_idx,
                line_in_page: line_in_page & 63,
                old: false,
                sctr: SatCounter::new(3, 4),
            };
        }
        *entry = fresh;
    }

    /// Fused LLC-drain instruction-miss resolution: one index computation
    /// answers residency and the protection query, then marks the old bits
    /// — exactly equivalent to `lookup(il).is_some()`, then (when tracked)
    /// [`PairTable::query_protect`], then [`PairTable::on_instr_miss`],
    /// which would each recompute the direct-mapped slot. Returns
    /// `(tracked, protected)`; stats update as in the unfused sequence
    /// (`query_protect` only fires on tracked entries). The old bits do
    /// not feed [`PairTable::prefetch_candidates_into`], so marking them
    /// before a candidate query is order-equivalent.
    pub fn resolve_instr_miss(
        &mut self,
        il: LineAddr,
        current_color: u8,
        threshold: u32,
    ) -> (bool, bool) {
        let idx = self.index_of(il);
        let colors = self.colors;
        let e = &mut self.entries[idx];
        if !(e.valid && e.il_line == il) {
            return (false, false);
        }
        let dist = (current_color as u32 + colors - e.color as u32) % colors;
        let protect = e.miss_cost.get().saturating_sub(dist) > threshold;
        if protect {
            self.stats.protects += 1;
        } else {
            self.stats.declines += 1;
        }
        for f in e.dl.iter_mut().filter(|f| f.valid) {
            f.old = true;
        }
        (true, protect)
    }

    /// Notification of an instruction miss on `il` (Fig 10b: the old bits
    /// of the entry's DL fields are set so stale pairs become replaceable).
    pub fn on_instr_miss(&mut self, il: LineAddr) {
        let idx = self.index_of(il);
        let e = &mut self.entries[idx];
        if e.valid && e.il_line == il {
            for f in e.dl.iter_mut().filter(|f| f.valid) {
                f.old = true;
            }
        }
    }

    /// Data lines to prefetch for instruction line `il` (§4.3), into a
    /// caller-owned buffer (cleared first; the LLC drain reuses one): the
    /// valid DL fields resolved through the D_PPN table. Fields whose
    /// D_PPN slot was repointed resolve to the *current* frame (harmless
    /// mis-prefetch, as in hardware).
    pub fn prefetch_candidates_into(
        &self,
        il: LineAddr,
        dppn: &DppnTable,
        out: &mut Vec<LineAddr>,
    ) {
        out.clear();
        if let Some(e) = self.lookup(il) {
            for f in e.dl.iter().take(self.k).filter(|f| f.valid) {
                if let Some(ppn) = dppn.get(f.dppn_idx) {
                    out.push(LineAddr::from_page_parts(ppn, f.line_in_page as u64));
                }
            }
        }
    }

    /// Direct entry access for diagnostics/tests.
    pub fn entry_for(&self, il: LineAddr) -> &PairEntry {
        &self.entries[self.index_of(il)]
    }
}

/// Fig 10(b) DL-field management.
fn update_dl_fields(
    entry: &mut PairEntry,
    dppn_idx: u16,
    line_in_page: u8,
    k: usize,
    sctr_threshold: u32,
) {
    if k == 0 {
        return;
    }
    let line_in_page = line_in_page & 63;
    let fields = &mut entry.dl[..k];

    // (1) Match: increment sctr, clear old bit.
    if let Some(f) = fields
        .iter_mut()
        .find(|f| f.valid && f.dppn_idx == dppn_idx && f.line_in_page == line_in_page)
    {
        f.sctr.inc();
        f.old = false;
        return;
    }

    // Free field: record immediately.
    if let Some(f) = fields.iter_mut().find(|f| !f.valid) {
        *f = DlField {
            valid: true,
            dppn_idx,
            line_in_page,
            old: false,
            sctr: SatCounter::new(3, 4),
        };
        return;
    }

    // (2) No match: only fields with a set old bit participate; most
    // accesses bypass recording entirely.
    if let Some(f) = fields.iter_mut().find(|f| f.old) {
        f.old = false;
        f.sctr.dec();
        // (3) Below threshold ⇒ replace with the new DL_PA.
        if f.sctr.get() < sctr_threshold {
            *f = DlField {
                valid: true,
                dppn_idx,
                line_in_page,
                old: false,
                sctr: SatCounter::new(3, 4),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PairTable {
        PairTable::new(&GaribaldiConfig::default())
    }

    fn small_table(k: u8) -> PairTable {
        PairTable::new(&GaribaldiConfig { pair_entries_log2: 6, k, ..Default::default() })
    }

    const IL: LineAddr = LineAddr::new(0x0d1a_b916 << 6);

    #[test]
    fn allocation_then_cost_tracking() {
        let mut t = table();
        t.update_on_data(IL, false, 3, 9, 0, 32);
        let e = t.entry_for(IL);
        assert!(e.valid);
        assert_eq!(e.il_line, IL);
        assert_eq!(e.miss_cost.get(), 31, "init 32 decremented by the miss");
        // Hot data accesses push the cost up.
        for _ in 0..5 {
            t.update_on_data(IL, true, 3, 9, 0, 32);
        }
        assert_eq!(t.entry_for(IL).miss_cost.get(), 36);
        assert_eq!(t.stats().update_hits, 5);
    }

    #[test]
    fn aged_cost_matches_fig9c_example() {
        // Entry: cost 25, color 5; current color 0 with 8 colors → dist 3,
        // aged cost 22, threshold 23 ⇒ not protected.
        let mut t = table();
        t.update_on_data(IL, true, 0, 0, 5, 32);
        {
            let i = t.index_of(IL);
            let e = &mut t.entries[i];
            e.miss_cost.set(25);
            e.color = 5;
        }
        let e = *t.entry_for(IL);
        assert_eq!(t.aged_cost(&e, 0), 22);
        assert!(!t.query_protect(IL, 0, 23));
        // Query must not mutate the entry (Fig 9c note).
        let e2 = t.entry_for(IL);
        assert_eq!(e2.miss_cost.get(), 25);
        assert_eq!(e2.color, 5);
        // With the raw cost it would have been protected.
        assert!(t.query_protect(IL, 5, 23));
    }

    #[test]
    fn collision_preserves_high_cost_entry() {
        let mut t = small_table(1);
        // Find two lines that collide.
        let a = IL;
        let idx = t.index_of(a);
        let mut b = LineAddr::new(a.get() + 1);
        while t.index_of(b) != idx || b == a {
            b = LineAddr::new(b.get() + 1);
        }
        t.update_on_data(a, true, 0, 0, 0, 32);
        // Pump a's cost to 37 (allocation applied one increment already).
        for _ in 0..4 {
            t.update_on_data(a, true, 0, 0, 0, 32);
        }
        let cost_before = t.entry_for(a).miss_cost.get();
        assert_eq!(cost_before, 37);
        // b collides; a's aged cost (same color) exceeds threshold ⇒ preserved.
        t.update_on_data(b, true, 1, 1, 0, 32);
        assert_eq!(t.entry_for(a).il_line, a, "high-cost entry preserved");
        assert_eq!(t.stats().preservations, 1);
        // Age a out: at color 6 the aged cost is 37 − 6 = 31 ≤ 32 ⇒ replaced.
        t.update_on_data(b, true, 1, 1, 6, 32);
        assert_eq!(t.entry_for(a).il_line, b, "aged entry replaced");
        assert_eq!(t.stats().replacements, 1);
    }

    #[test]
    fn dl_field_protocol_fig10b() {
        let mut t = small_table(2);
        // Allocate with D1; add D2 into the free field.
        t.update_on_data(IL, true, 10, 1, 0, 32);
        t.update_on_data(IL, true, 20, 2, 0, 32);
        let e = *t.entry_for(IL);
        assert!(e.dl[0].valid && e.dl[1].valid);
        assert_eq!((e.dl[0].dppn_idx, e.dl[1].dppn_idx), (10, 20));

        // Matching D1 increments its counter and clears old.
        t.update_on_data(IL, true, 10, 1, 0, 32);
        assert_eq!(t.entry_for(IL).dl[0].sctr.get(), 5);

        // Non-matching D3 with no old bits set: bypasses recording.
        t.update_on_data(IL, true, 30, 3, 0, 32);
        let e = *t.entry_for(IL);
        assert_eq!((e.dl[0].dppn_idx, e.dl[1].dppn_idx), (10, 20));

        // Instruction miss sets old bits; D3 then erodes D1's counter.
        t.on_instr_miss(IL);
        assert!(t.entry_for(IL).dl.iter().take(2).all(|f| f.old));
        t.update_on_data(IL, true, 30, 3, 0, 32);
        let e = *t.entry_for(IL);
        assert!(!e.dl[0].old, "first old field consumed");
        assert_eq!(e.dl[0].sctr.get(), 4, "decremented from 5");
        assert_eq!(e.dl[0].dppn_idx, 10, "sctr ≥ threshold keeps the field");

        // A second erosion drops it below the threshold and replaces it.
        t.on_instr_miss(IL);
        t.update_on_data(IL, true, 30, 3, 0, 32);
        let e = *t.entry_for(IL);
        assert_eq!(e.dl[0].dppn_idx, 30, "field replaced by the new DL_PA");
    }

    #[test]
    fn prefetch_candidates_resolve_through_dppn() {
        let mut t = small_table(2);
        let mut dppn = DppnTable::new(64);
        let idx = dppn.insert(garibaldi_types::PageNum::new(0xdeedb));
        t.update_on_data(IL, false, idx, 7, 0, 32);
        let mut cands = Vec::new();
        t.prefetch_candidates_into(IL, &dppn, &mut cands);
        assert_eq!(
            cands,
            vec![LineAddr::from_page_parts(garibaldi_types::PageNum::new(0xdeedb), 7)]
        );
        // Unknown instruction line → empty.
        t.prefetch_candidates_into(LineAddr::new(0x1), &dppn, &mut cands);
        assert!(cands.is_empty());
    }

    #[test]
    fn k_zero_disables_dl_tracking() {
        let mut t = small_table(0);
        let dppn = DppnTable::new(16);
        t.update_on_data(IL, true, 1, 1, 0, 32);
        assert!(t.entry_for(IL).dl.iter().all(|f| !f.valid));
        let mut cands = vec![IL];
        t.prefetch_candidates_into(IL, &dppn, &mut cands);
        assert!(cands.is_empty());
    }

    /// Golden check for the index mixing: the shared `fasthash::mul_index`
    /// must keep producing the exact slots of the PR 1 expression
    /// (`wrapping_mul(0x2127_599b_f432_5c37) >> 20 % len`) — scheme
    /// metrics in `tests/golden/fidelity_baselines.jsonl` depend on it.
    #[test]
    fn index_mixing_matches_the_historical_golden_mapping() {
        let t = table();
        let small = small_table(1);
        for il in [IL, LineAddr::new(0), LineAddr::new(0x40), LineAddr::new(u64::MAX / 3)] {
            let legacy =
                |len: usize| (il.get().wrapping_mul(0x2127_599b_f432_5c37) >> 20) as usize % len;
            assert_eq!(t.index_of(il), legacy(t.len()));
            assert_eq!(small.index_of(il), legacy(small.len()));
        }
    }

    #[test]
    fn prefetch_candidates_into_reuses_the_buffer() {
        let mut t = small_table(1);
        let mut dppn = DppnTable::new(16);
        let idx = dppn.insert(garibaldi_types::PageNum::new(0x77));
        t.update_on_data(IL, false, idx, 3, 0, 32);
        let mut buf = vec![LineAddr::new(999); 4];
        t.prefetch_candidates_into(IL, &dppn, &mut buf);
        let expected = LineAddr::from_page_parts(garibaldi_types::PageNum::new(0x77), 3);
        assert_eq!(buf, vec![expected], "cleared, then refilled");
        t.prefetch_candidates_into(LineAddr::new(0x1), &dppn, &mut buf);
        assert!(buf.is_empty(), "unknown line clears the buffer");
    }

    #[test]
    fn query_on_absent_entry_declines() {
        let mut t = table();
        assert!(!t.query_protect(IL, 0, 0));
        assert_eq!(t.stats().declines, 1);
    }
}
