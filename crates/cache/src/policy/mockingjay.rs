//! Mockingjay: effective mimicry of Belady's MIN (Shah, Jain & Lin,
//! HPCA'22 — paper ref [56]).
//!
//! A sampled-set reuse-distance predictor (RDP) learns, per PC signature,
//! how many set accesses elapse until a line is reused. Resident lines carry
//! an *estimated time remaining* (ETR) that is refreshed from the RDP on
//! every touch and decremented as the set is accessed; the victim is the
//! line whose |ETR| is largest (reuse farthest in the future **or** most
//! overdue). Lines whose predicted reuse exceeds the window are treated as
//! scans and bypass the (non-inclusive) cache.

use super::{PolicyCtx, ReplacementPolicy};
use garibaldi_types::U64Table;

/// History window per sampled set (× associativity), as configured in §6.
const WINDOW_ASSOC_MULT: usize = 8;
/// Sample one out of `SAMPLE_STRIDE` sets.
const SAMPLE_STRIDE: usize = 8;
/// log2 of RDP entries.
const RDP_BITS: u32 = 14;
/// ETR magnitude clamp. The paper's hardware uses 5-bit signed counters
/// with a coarse aging granularity; the simulator keeps full resolution
/// (the clamp only bounds saturation) because the quantisation is a
/// hardware-cost tradeoff, not part of the algorithm.
const ETR_MAX: i32 = 1 << 14;
/// Reuse distance recorded for lines that age out of the sampler.
const SCAN_DISTANCE: u32 = u32::MAX;

#[derive(Debug, Default, Clone)]
struct SampledSet {
    /// line → (last access time, rdp index). Open-addressed: this map is
    /// probed on every access to a sampled set — the simulator's hottest
    /// policy path (see `garibaldi_types::u64map`).
    last: U64Table<(u64, u32)>,
    time: u64,
}

/// Mockingjay replacement policy.
#[derive(Debug)]
pub struct Mockingjay {
    ways: usize,
    window: u32,
    /// ETR granularity: one ETR unit = `granularity` set accesses.
    granularity: u32,
    /// RDP: predicted reuse distance per signature (`u32::MAX` = scan,
    /// `0xFFFF_FFFE` = untrained).
    rdp: Vec<u32>,
    /// Sampler state, indexed by `set / SAMPLE_STRIDE` (only multiples of
    /// the stride are sampled — a dense vector, not a map).
    sampled: Vec<SampledSet>,
    /// Scratch for aged-out sampler entries: `(line, rdp index)` pairs
    /// collected before removal (reused across calls, no per-access
    /// allocation).
    stale: Vec<(u64, u32)>,
    etr: Vec<i32>,
    /// Per-set access countdown for the aging clock.
    clock: Vec<u32>,
}

/// RDP value meaning "no information yet".
const RDP_UNTRAINED: u32 = u32::MAX - 1;

impl Mockingjay {
    /// Creates Mockingjay state for a `sets × ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        let window = (WINDOW_ASSOC_MULT * ways) as u32;
        let granularity = 1;
        Self {
            ways,
            window,
            granularity,
            rdp: vec![RDP_UNTRAINED; 1 << RDP_BITS],
            sampled: vec![SampledSet::default(); sets.div_ceil(SAMPLE_STRIDE)],
            stale: Vec::new(),
            etr: vec![0; sets * ways],
            clock: vec![0; sets],
        }
    }

    #[inline]
    fn rdp_idx(ctx: &PolicyCtx) -> usize {
        let h = ctx.pc_sig.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        (h >> (64 - RDP_BITS)) as usize
    }

    #[inline]
    fn fidx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Predicted reuse distance (set accesses) for the access, or
    /// `None` for scans.
    fn predict(&self, ctx: &PolicyCtx) -> Option<u32> {
        match self.rdp[Self::rdp_idx(ctx)] {
            SCAN_DISTANCE => None,
            // Unknown PCs are assumed distant: an untrained line must not
            // outrank lines with *demonstrated* short reuse.
            RDP_UNTRAINED => Some(self.window),
            d => Some(d),
        }
    }

    fn predict_etr(&self, ctx: &PolicyCtx) -> i32 {
        match self.predict(ctx) {
            Some(d) => ((d / self.granularity) as i32).min(ETR_MAX),
            None => ETR_MAX,
        }
    }

    fn train(&mut self, set: usize, ctx: &PolicyCtx) {
        let window = self.window;
        if set % SAMPLE_STRIDE != 0 {
            return;
        }
        let ss = &mut self.sampled[set / SAMPLE_STRIDE];
        let now = ss.time;
        ss.time += 1;
        let line = ctx.line.get();
        if let Some(&(t_prev, idx)) = ss.last.get(line) {
            let observed = ((now - t_prev) as u32).min(window * 2);
            update_rdp(&mut self.rdp[idx as usize], observed);
        }
        ss.last.insert(line, (now, Self::rdp_idx(ctx) as u32));
        // Lines that age out of the window were effectively scans. Collect
        // then remove (every aged-out entry maps to the same SCAN write,
        // so collection order is immaterial).
        if ss.last.len() > window as usize {
            let cutoff = now.saturating_sub(window as u64);
            self.stale.clear();
            self.stale.extend(
                ss.last.iter().filter(|&(_, &(t, _))| t < cutoff).map(|(l, &(_, idx))| (l, idx)),
            );
            for &(l, idx) in &self.stale {
                ss.last.remove(l);
                update_rdp(&mut self.rdp[idx as usize], SCAN_DISTANCE);
            }
        }
    }

    /// Ages the set's ETRs: one tick per `granularity` set accesses.
    fn tick(&mut self, set: usize) {
        self.clock[set] += 1;
        if self.clock[set] >= self.granularity {
            self.clock[set] = 0;
            // One slice → one bounds check; the decrement loop vectorizes.
            let base = set * self.ways;
            for e in &mut self.etr[base..base + self.ways] {
                *e = (*e - 1).max(-ETR_MAX);
            }
        }
    }
}

/// Moves an RDP entry toward an observation (temporal-difference flavour).
fn update_rdp(entry: &mut u32, observed: u32) {
    if observed == SCAN_DISTANCE {
        *entry = SCAN_DISTANCE;
        return;
    }
    if *entry == RDP_UNTRAINED || *entry == SCAN_DISTANCE {
        *entry = observed;
        return;
    }
    let old = *entry as i64;
    let diff = observed as i64 - old;
    let step = diff.signum() * (diff.abs() / 2).max(1);
    *entry = (old + step).max(0) as u32;
}

impl ReplacementPolicy for Mockingjay {
    fn on_insert(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        self.train(set, ctx);
        self.tick(set);
        let i = self.fidx(set, way);
        self.etr[i] = self.predict_etr(ctx);
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        self.train(set, ctx);
        self.tick(set);
        let i = self.fidx(set, way);
        self.etr[i] = self.predict_etr(ctx);
    }

    fn choose_victim(&mut self, set: usize, _ctx: &PolicyCtx, excluded: u64) -> usize {
        // One pass over the set's contiguous ETR row.
        let base = set * self.ways;
        let row = &self.etr[base..base + self.ways];
        let mut best = usize::MAX;
        let mut best_mag = -1i32;
        let mut best_etr = 0i32;
        for (w, &e) in row.iter().enumerate() {
            if excluded & (1 << w) != 0 {
                continue;
            }
            let mag = e.abs();
            // Ties prefer overdue (negative) lines: their predicted reuse
            // already passed, so the prediction was wrong.
            if best == usize::MAX || mag > best_mag || (mag == best_mag && e < best_etr) {
                best = w;
                best_mag = mag;
                best_etr = e;
            }
        }
        debug_assert!(best != usize::MAX);
        best
    }

    fn reset_priority(&mut self, set: usize, way: usize) {
        // Garibaldi protection: reuse imminent ⇒ smallest possible |ETR|.
        let i = self.fidx(set, way);
        self.etr[i] = 0;
    }

    fn should_bypass(&mut self, set: usize, ctx: &PolicyCtx) -> bool {
        // Scans (predicted reuse beyond the window) skip the non-inclusive
        // LLC unless their ETR would beat the current best victim anyway.
        if self.predict(ctx).is_none() {
            // Demand accesses still train the sampler via on_insert when
            // they are not bypassed; train here so scans keep learning.
            self.train(set, ctx);
            return true;
        }
        false
    }

    fn prefetch_row(&self, set: usize) {
        // Victim selection and aging walk the set's contiguous ETR row
        // (4 bytes per way — 16 ways fit one cache line); the aging clock
        // is a separate per-set counter touched on every event.
        garibaldi_types::hint::prefetch_index(&self.etr, set * self.ways);
        garibaldi_types::hint::prefetch_index(&self.clock, set);
    }

    fn export_learned(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.rdp);
    }

    fn merge_learned(&self, peers: &[Vec<u32>], out: &mut Vec<u32>) {
        // Per entry: slices that never trained a PC abstain; among trained
        // slices, SCAN wins only by majority (a stray aged-out sample in
        // one slice must not force global bypassing), otherwise the
        // finite observations average — the pooled estimate a single
        // unsharded RDP would converge to. A PC no slice trained merges
        // to RDP_UNTRAINED, which is exactly the local state of every
        // peer (each peer's own export is among `peers`), so installing
        // the merge keeps untrained entries untrained.
        out.clear();
        out.reserve(self.rdp.len());
        for i in 0..self.rdp.len() {
            let mut scans = 0u32;
            let mut finite = 0u64;
            let mut sum = 0u64;
            for p in peers {
                match p.get(i).copied().unwrap_or(RDP_UNTRAINED) {
                    RDP_UNTRAINED => {}
                    SCAN_DISTANCE => scans += 1,
                    d => {
                        finite += 1;
                        sum += d as u64;
                    }
                }
            }
            out.push(if finite == 0 && scans == 0 {
                RDP_UNTRAINED
            } else if scans as u64 > finite {
                SCAN_DISTANCE
            } else {
                ((sum + finite / 2) / finite) as u32
            });
        }
    }

    fn install_learned(&mut self, merged: &[u32]) {
        for (e, &v) in self.rdp.iter_mut().zip(merged) {
            *e = v;
        }
    }

    fn name(&self) -> &'static str {
        "Mockingjay"
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
    fn rdp_update_converges() {
        let mut e = RDP_UNTRAINED;
        update_rdp(&mut e, 10);
        assert_eq!(e, 10);
        update_rdp(&mut e, 20);
        assert!(e > 10 && e <= 20, "moved toward observation: {e}");
        for _ in 0..20 {
            update_rdp(&mut e, 20);
        }
        assert_eq!(e, 20);
    }

    #[test]
    fn scan_marks_entry() {
        let mut e = 5u32;
        update_rdp(&mut e, SCAN_DISTANCE);
        assert_eq!(e, SCAN_DISTANCE);
        // A real observation recovers the entry.
        update_rdp(&mut e, 7);
        assert_eq!(e, 7);
    }

    #[test]
    fn learned_state_merge_pools_finite_votes_and_needs_scan_majority() {
        let mut p = Mockingjay::new(8, 2);
        let idx = 3usize;
        // Peers: two finite observations, one scan, one untrained.
        let mut peers = vec![
            vec![RDP_UNTRAINED; p.rdp.len()],
            vec![RDP_UNTRAINED; p.rdp.len()],
            vec![RDP_UNTRAINED; p.rdp.len()],
            vec![RDP_UNTRAINED; p.rdp.len()],
        ];
        peers[0][idx] = 10;
        peers[1][idx] = 21;
        peers[2][idx] = SCAN_DISTANCE;
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.rdp[idx], 16, "rounded average of the finite votes (scan is a minority)");
        // Scan majority wins.
        peers[1][idx] = SCAN_DISTANCE;
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.rdp[idx], SCAN_DISTANCE);
        // Nowhere trained → local state untouched.
        assert_eq!(p.rdp[idx + 1], RDP_UNTRAINED);
        // Export mirrors the table, so peers of identical state converge
        // to identical tables (the determinism contract).
        let mut out = Vec::new();
        p.export_learned(&mut out);
        assert_eq!(out, p.rdp);
    }

    #[test]
    fn short_reuse_yields_small_etr() {
        let mut m = Mockingjay::new(8, 4);
        let pc = 0x42;
        // Train a short reuse distance in sampled set 0.
        for i in 0..30 {
            let c = ctx(0x99, pc);
            if i == 0 {
                m.on_insert(0, 0, &c);
            } else {
                m.on_hit(0, 0, &c);
            }
        }
        let c = ctx(0x99, pc);
        assert!(m.predict_etr(&c) <= 1, "etr={}", m.predict_etr(&c));
    }

    #[test]
    fn victim_is_max_abs_etr() {
        let mut m = Mockingjay::new(8, 3);
        let __i = m.fidx(2, 0);
        m.etr[__i] = 3;
        let __i = m.fidx(2, 1);
        m.etr[__i] = -9;
        let __i = m.fidx(2, 2);
        m.etr[__i] = 7;
        assert_eq!(m.choose_victim(2, &ctx(0, 0), 0), 1);
        assert_eq!(m.choose_victim(2, &ctx(0, 0), 0b010), 2);
    }

    #[test]
    fn overdue_preferred_on_tie() {
        let mut m = Mockingjay::new(8, 2);
        let __i = m.fidx(1, 0);
        m.etr[__i] = 5;
        let __i = m.fidx(1, 1);
        m.etr[__i] = -5;
        assert_eq!(m.choose_victim(1, &ctx(0, 0), 0), 1);
    }

    #[test]
    fn aging_decrements_etr() {
        let mut m = Mockingjay::new(8, 2);
        let __i = m.fidx(0, 0);
        m.etr[__i] = 5;
        let g = m.granularity;
        for _ in 0..g {
            m.tick(0);
        }
        assert_eq!(m.etr[m.fidx(0, 0)], 4);
    }

    #[test]
    fn reset_priority_zeroes_etr() {
        let mut m = Mockingjay::new(8, 2);
        let __i = m.fidx(0, 1);
        m.etr[__i] = -12;
        m.reset_priority(0, 1);
        assert_eq!(m.etr[m.fidx(0, 1)], 0);
    }

    #[test]
    fn trained_scan_bypasses() {
        let mut m = Mockingjay::new(8, 2);
        let c = ctx(0x5, 0x1234);
        m.rdp[Mockingjay::rdp_idx(&c)] = SCAN_DISTANCE;
        assert!(m.should_bypass(0, &c));
        let c2 = ctx(0x5, 0x777);
        assert!(!m.should_bypass(0, &c2));
    }
}
