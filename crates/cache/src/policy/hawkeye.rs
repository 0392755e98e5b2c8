//! Hawkeye: Belady-trained PC classification (Jain & Lin, ISCA'16 — paper
//! ref [32]).
//!
//! A fraction of sets is *sampled*: for those sets, an OPTgen occupancy
//! vector reconstructs whether Belady's MIN would have hit each access, and
//! a table of 3-bit counters indexed by PC signature is trained with the
//! answer. Fills from cache-friendly PCs are inserted with high priority,
//! fills from cache-averse PCs with the lowest.

use super::{PolicyCtx, ReplacementPolicy};
use crate::sat::SatCounter;
use garibaldi_types::U64Table;

/// History window per sampled set, in set accesses, as a multiple of the
/// associativity (the paper configures 8× associativity, §6).
const WINDOW_ASSOC_MULT: usize = 8;
/// Sample one out of `SAMPLE_STRIDE` sets.
const SAMPLE_STRIDE: usize = 8;
/// log2 of predictor entries.
const PRED_BITS: u32 = 13;
/// Hawkeye-internal RRPV maximum (3-bit as in the original).
const HK_RRPV_MAX: u8 = 7;

#[derive(Debug, Default, Clone)]
struct SampledSet {
    /// Per-line last access: line → (time, predictor index).
    /// Open-addressed: probed on every access to a sampled set (see
    /// `garibaldi_types::u64map`).
    last: U64Table<(u64, u32)>,
    /// Occupancy vector ring, one slot per time quantum.
    occupancy: Vec<u16>,
    /// Set access counter (time).
    time: u64,
}

/// The OPTgen decision for one access interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptDecision {
    Hit,
    Miss,
}

/// Hawkeye replacement policy.
#[derive(Debug)]
pub struct Hawkeye {
    ways: usize,
    window: usize,
    predictor: Vec<SatCounter>,
    /// Predictor values as of the last learned-state sync (the shared
    /// baseline the delta-sum merge in `merge_learned` works from).
    synced: Vec<u32>,
    /// Sampler state, indexed by `set / SAMPLE_STRIDE` (only multiples of
    /// the stride are sampled — a dense vector, not a map).
    sampled: Vec<SampledSet>,
    /// Scratch for stale sampler keys (reused across trims).
    stale: Vec<u64>,
    rrpv: Vec<u8>,
    friendly: Vec<bool>,
    frame_pred_idx: Vec<usize>,
    frame_reused: Vec<bool>,
}

impl Hawkeye {
    /// Creates Hawkeye state for a `sets × ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        let window = WINDOW_ASSOC_MULT * ways;
        let sampled = (0..sets.div_ceil(SAMPLE_STRIDE))
            .map(|_| SampledSet { last: U64Table::new(), occupancy: vec![0; window], time: 0 })
            .collect();
        Self {
            ways,
            window,
            predictor: vec![SatCounter::new(3, 4); 1 << PRED_BITS],
            synced: vec![4; 1 << PRED_BITS],
            sampled,
            stale: Vec::new(),
            rrpv: vec![HK_RRPV_MAX; sets * ways],
            friendly: vec![false; sets * ways],
            frame_pred_idx: vec![0; sets * ways],
            frame_reused: vec![false; sets * ways],
        }
    }

    #[inline]
    fn pred_idx(ctx: &PolicyCtx) -> usize {
        let h = ctx.pc_sig.wrapping_mul(0xff51_afd7_ed55_8ccd);
        (h >> (64 - PRED_BITS)) as usize
    }

    #[inline]
    fn fidx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Trains the predictor via OPTgen on sampled sets.
    fn train(&mut self, set: usize, ctx: &PolicyCtx) {
        let ways = self.ways as u16;
        let window = self.window;
        if set % SAMPLE_STRIDE != 0 {
            return;
        }
        let ss = &mut self.sampled[set / SAMPLE_STRIDE];
        let now = ss.time;
        ss.time += 1;
        // The slot entering the window is fresh.
        ss.occupancy[(now % window as u64) as usize] = 0;

        let line = ctx.line.get();
        let decision = match ss.last.get(line).copied() {
            Some((t_prev, prev_idx)) => {
                let prev_idx = prev_idx as usize;
                let dist = now - t_prev;
                let decision = if dist < window as u64 {
                    // Would OPT have kept the line across [t_prev, now)?
                    let fits =
                        (t_prev..now).all(|t| ss.occupancy[(t % window as u64) as usize] < ways);
                    if fits {
                        for t in t_prev..now {
                            ss.occupancy[(t % window as u64) as usize] += 1;
                        }
                        OptDecision::Hit
                    } else {
                        OptDecision::Miss
                    }
                } else {
                    OptDecision::Miss
                };
                match decision {
                    OptDecision::Hit => self.predictor[prev_idx].inc(),
                    OptDecision::Miss => self.predictor[prev_idx].dec(),
                }
                decision
            }
            None => OptDecision::Miss,
        };
        let _ = decision;
        ss.last.insert(line, (now, Self::pred_idx(ctx) as u32));
        // Bound the per-set map: drop stale lines (outside the window) —
        // collect keys then remove (removal order is immaterial).
        if ss.last.len() > 4 * window {
            let cutoff = now.saturating_sub(window as u64);
            self.stale.clear();
            self.stale.extend(ss.last.iter().filter(|&(_, &(t, _))| t < cutoff).map(|(l, _)| l));
            for &l in &self.stale {
                ss.last.remove(l);
            }
        }
    }

    fn is_friendly(&self, ctx: &PolicyCtx) -> bool {
        self.predictor[Self::pred_idx(ctx)].msb()
    }
}

impl ReplacementPolicy for Hawkeye {
    fn on_insert(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        self.train(set, ctx);
        let friendly = self.is_friendly(ctx);
        let i = self.fidx(set, way);
        self.friendly[i] = friendly;
        self.frame_pred_idx[i] = Self::pred_idx(ctx);
        self.frame_reused[i] = false;
        if friendly {
            // Age other friendly lines so older friendlies become victims
            // before younger ones, as in the original proposal.
            for w in 0..self.ways {
                if w != way {
                    let j = self.fidx(set, w);
                    if self.friendly[j] && self.rrpv[j] < HK_RRPV_MAX - 1 {
                        self.rrpv[j] += 1;
                    }
                }
            }
            self.rrpv[i] = 0;
        } else {
            self.rrpv[i] = HK_RRPV_MAX;
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        self.train(set, ctx);
        let i = self.fidx(set, way);
        self.frame_reused[i] = true;
        self.friendly[i] = self.is_friendly(ctx);
        self.rrpv[i] = if self.friendly[i] { 0 } else { HK_RRPV_MAX };
    }

    fn choose_victim(&mut self, set: usize, _ctx: &PolicyCtx, excluded: u64) -> usize {
        // Prefer cache-averse lines (RRPV max), else the oldest friendly.
        // One pass over the set's contiguous RRPV row; ties keep the lowest
        // way index.
        let base = set * self.ways;
        let row = &self.rrpv[base..base + self.ways];
        let mut best = usize::MAX;
        let mut best_rrpv = 0u8;
        for (w, &r) in row.iter().enumerate() {
            if excluded & (1 << w) != 0 {
                continue;
            }
            if best == usize::MAX || r > best_rrpv {
                best = w;
                best_rrpv = r;
            }
        }
        debug_assert!(best != usize::MAX);
        best
    }

    fn reset_priority(&mut self, set: usize, way: usize) {
        let i = self.fidx(set, way);
        self.rrpv[i] = 0;
        self.friendly[i] = true;
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        // Detrain: evicting a friendly line that never got its reuse means
        // the predictor was optimistic about that PC.
        let i = self.fidx(set, way);
        if self.friendly[i] && !self.frame_reused[i] {
            self.predictor[self.frame_pred_idx[i]].dec();
        }
    }

    fn prefetch_row(&self, set: usize) {
        // RRPV and cache-friendly bits are the rows every event touches
        // (one byte per way each — a single line covers both separately).
        garibaldi_types::hint::prefetch_index(&self.rrpv, set * self.ways);
        garibaldi_types::hint::prefetch_index(&self.friendly, set * self.ways);
    }

    fn export_learned(&self, out: &mut Vec<u32>) {
        out.extend(self.predictor.iter().map(|c| c.get()));
    }

    fn merge_learned(&self, peers: &[Vec<u32>], out: &mut Vec<u32>) {
        // The predictor trains by ±1 steps, so the pooled equivalent of
        // one globally-trained table is the *sum of every slice's
        // training deltas* since the last sync, applied to the shared
        // baseline — state averaging would wash out confident counters.
        // All peers share the same baseline (every sync installs the same
        // values everywhere), so the merge stays a pure function of the
        // exports.
        out.clear();
        out.reserve(self.predictor.len());
        for (i, c) in self.predictor.iter().enumerate() {
            let base = self.synced[i] as i64;
            let mut delta = 0i64;
            for p in peers {
                if let Some(&v) = p.get(i) {
                    delta += v as i64 - base;
                }
            }
            out.push((base + delta).clamp(0, c.max() as i64) as u32);
        }
    }

    fn install_learned(&mut self, merged: &[u32]) {
        for (i, &v) in merged.iter().enumerate().take(self.predictor.len()) {
            self.predictor[i].set(v);
            self.synced[i] = v;
        }
    }

    fn name(&self) -> &'static str {
        "Hawkeye"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garibaldi_types::LineAddr;

    fn ctx(line: u64, pc: u64) -> PolicyCtx {
        PolicyCtx::data(LineAddr::new(line), pc)
    }

    #[test]
    fn learned_state_merge_sums_training_deltas() {
        let mut p = Hawkeye::new(8, 2);
        let idx = 9usize;
        let n = p.predictor.len();
        // Baseline is the init value 4; slices trained +3 and −2.
        let mut peers = vec![vec![4u32; n], vec![4u32; n]];
        peers[0][idx] = 7;
        peers[1][idx] = 2;
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.predictor[idx].get(), 5, "4 + (+3 − 2)");
        assert_eq!(p.synced[idx], 5, "merge result becomes the next baseline");
        // Identical exports (nobody trained) leave the table unchanged.
        let peers = vec![vec![5u32; 1]; 2];
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.predictor[idx].get(), 5, "short peer rows leave untouched entries alone");
    }

    #[test]
    fn sampled_sets_exist() {
        let h = Hawkeye::new(64, 4);
        assert_eq!(h.sampled.len(), 64 / SAMPLE_STRIDE);
        // Set 0 is sampled (stride multiples), set 1 is not.
        let mut h2 = Hawkeye::new(64, 4);
        h2.train(0, &ctx(0x40, 0x1));
        h2.train(1, &ctx(0x40, 0x1));
        assert_eq!(h2.sampled[0].time, 1, "sampled set trains");
    }

    #[test]
    fn short_reuse_trains_friendly() {
        let mut h = Hawkeye::new(8, 4);
        let pc = 0xabc;
        // Repeated accesses to the same line in sampled set 0 with short
        // intervals: OPTgen says "hit" every time, training the PC up.
        for i in 0..20 {
            let c = ctx(0x100, pc);
            if i == 0 {
                h.on_insert(0, 0, &c);
            } else {
                h.on_hit(0, 0, &c);
            }
        }
        assert!(h.is_friendly(&ctx(0x100, pc)));
    }

    #[test]
    fn long_reuse_trains_averse() {
        let mut h = Hawkeye::new(8, 2);
        let pc = 0xdef;
        // Touch the line, then flood the sampled set past its window so the
        // reuse distance exceeds what OPT could cache.
        h.on_insert(0, 0, &ctx(0x200, pc));
        for i in 0..(WINDOW_ASSOC_MULT * 2 + 5) as u64 {
            h.on_hit(0, 1, &ctx(0x300 + i, 0x999));
        }
        h.on_hit(0, 0, &ctx(0x200, pc));
        // After several rounds the PC must not be friendly.
        for _ in 0..4 {
            for i in 0..(WINDOW_ASSOC_MULT * 2 + 5) as u64 {
                h.on_hit(0, 1, &ctx(0x300 + i, 0x999));
            }
            h.on_hit(0, 0, &ctx(0x200, pc));
        }
        assert!(!h.is_friendly(&ctx(0x200, pc)));
    }

    #[test]
    fn averse_lines_are_preferred_victims() {
        let mut h = Hawkeye::new(8, 2);
        // Manually shape frame state.
        let __i = h.fidx(1, 0);
        h.rrpv[__i] = 0;
        let __i = h.fidx(1, 1);
        h.rrpv[__i] = HK_RRPV_MAX;
        assert_eq!(h.choose_victim(1, &ctx(0, 0), 0), 1);
        assert_eq!(h.choose_victim(1, &ctx(0, 0), 0b10), 0);
    }

    #[test]
    fn reset_priority_protects() {
        let mut h = Hawkeye::new(8, 2);
        let __i = h.fidx(1, 0);
        h.rrpv[__i] = HK_RRPV_MAX;
        let __i = h.fidx(1, 1);
        h.rrpv[__i] = HK_RRPV_MAX - 1;
        assert_eq!(h.choose_victim(1, &ctx(0, 0), 0), 0);
        h.reset_priority(1, 0);
        assert_eq!(h.choose_victim(1, &ctx(0, 0), 0), 1);
    }

    #[test]
    fn detrain_on_dead_friendly_eviction() {
        let mut h = Hawkeye::new(8, 2);
        let c = ctx(0x10, 0x777);
        let idx = Hawkeye::pred_idx(&c);
        let before = h.predictor[idx].get();
        h.on_insert(1, 0, &c); // unsampled set (1 % 8 != 0): no training
        let __i = h.fidx(1, 0);
        h.friendly[__i] = true;
        h.on_evict(1, 0);
        assert_eq!(h.predictor[idx].get(), before.saturating_sub(1));
    }
}
