//! Differential battery: the structure-of-arrays `SetAssocCache` against a
//! reference array-of-lines model.
//!
//! `RefCache` reimplements the cache's externally visible semantics in the
//! most naive representation possible — one `LineMeta` per frame — using
//! only the crate's public policy API. Both caches build the same
//! deterministic policy instance and are driven with byte-identical event
//! sequences, so any divergence in hit/miss outcomes, victim choice, frame
//! metadata or stats pinpoints a bug in the SoA tag/flag/sharer columns.
//!
//! Run with `PROPTEST_CASES=512` (the CI differential leg) for an elevated
//! case count.

use garibaldi_cache::{
    build_policy, AccessCtx, AccessOutcome, CacheConfig, CacheStats, Fill, InsertOutcome, LineMeta,
    MesiState, PolicyKind, ReplacementPolicy, SetAssocCache, SetIndexing,
};
use garibaldi_types::{AccessKind, LineAddr};
use proptest::prelude::*;

/// Pre-SoA reference model: array of materialized frames.
struct RefCache {
    config: CacheConfig,
    frames: Vec<LineMeta>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig, kind: PolicyKind) -> Self {
        let policy = build_policy(kind, config.sets, config.ways);
        let frames = vec![LineMeta::empty(); config.sets * config.ways];
        Self { config, frames, policy, stats: CacheStats::default() }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        match self.config.indexing {
            SetIndexing::Modulo => (line.get() % self.config.sets as u64) as usize,
            SetIndexing::Shard { modulus, base } => ((line.get() % modulus) - base) as usize,
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    fn way_in(&self, set: usize, line: LineAddr) -> Option<usize> {
        (0..self.config.ways).find(|&w| {
            let m = &self.frames[self.idx(set, w)];
            m.valid && m.line == line
        })
    }

    fn peek(&self, line: LineAddr) -> Option<LineMeta> {
        let set = self.set_of(line);
        self.way_in(set, line).map(|w| self.frames[self.idx(set, w)])
    }

    fn access(&mut self, ctx: &AccessCtx, is_write: bool) -> bool {
        let kind = if ctx.is_instr { AccessKind::Instr } else { AccessKind::Data };
        let set = self.set_of(ctx.line);
        match self.way_in(set, ctx.line) {
            Some(way) => {
                self.stats.record_access(kind, true);
                let i = self.idx(set, way);
                if self.frames[i].prefetched {
                    self.stats.prefetch_useful += 1;
                    self.frames[i].prefetched = false;
                }
                if is_write {
                    self.frames[i].dirty = true;
                }
                self.policy.on_hit(set, way, ctx);
                true
            }
            None => {
                self.stats.record_access(kind, false);
                false
            }
        }
    }

    fn insert(&mut self, line: LineAddr, ctx: &AccessCtx, dirty: bool) -> InsertOutcome {
        self.insert_with_guard_opts(line, ctx, dirty, 0, true, |_| false)
    }

    fn insert_with_guard_opts(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        max_protects: u32,
        allow_bypass: bool,
        mut guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        let set = self.set_of(line);
        let ways = self.config.ways;

        if let Some(way) = self.way_in(set, line) {
            let i = self.idx(set, way);
            self.frames[i].dirty |= dirty;
            self.frames[i].is_instr = ctx.is_instr;
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        if let Some(way) = (0..ways).find(|&w| !self.frames[self.idx(set, w)].valid) {
            self.fill(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        if allow_bypass && self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return InsertOutcome { way: None, evicted: None, protected: 0 };
        }

        let mut excluded = 0u64;
        let mut protected = 0u32;
        let victim = loop {
            let way = self.policy.choose_victim(set, ctx, excluded);
            let meta = self.frames[self.idx(set, way)];
            let may_protect = protected < max_protects && excluded.count_ones() + 1 < ways as u32;
            if may_protect && meta.valid && meta.is_instr && guard(&meta) {
                self.policy.reset_priority(set, way);
                excluded |= 1 << way;
                protected += 1;
                self.stats.guarded_protections += 1;
                continue;
            }
            break way;
        };
        let evicted = self.evict(set, victim);
        self.fill(set, victim, line, ctx, dirty);
        InsertOutcome { way: Some(victim), evicted, protected }
    }

    fn insert_restricted(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        allowed_mask: u64,
    ) -> InsertOutcome {
        let ways = self.config.ways;
        let full = if ways >= 64 { u64::MAX } else { (1u64 << ways) - 1 };
        let allowed = allowed_mask & full;
        assert!(allowed != 0, "partition mask selects no way");
        let set = self.set_of(line);

        if let Some(way) = self.way_in(set, line) {
            let i = self.idx(set, way);
            self.frames[i].dirty |= dirty;
            self.frames[i].is_instr = ctx.is_instr;
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        if let Some(way) =
            (0..ways).find(|&w| allowed & (1 << w) != 0 && !self.frames[self.idx(set, w)].valid)
        {
            self.fill(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        let victim = self.policy.choose_victim(set, ctx, !allowed & full);
        let evicted = self.evict(set, victim);
        self.fill(set, victim, line, ctx, dirty);
        InsertOutcome { way: Some(victim), evicted, protected: 0 }
    }

    fn evict(&mut self, set: usize, victim: usize) -> Option<LineMeta> {
        let old = self.frames[self.idx(set, victim)];
        if !old.valid {
            return None;
        }
        self.stats.evictions += 1;
        if old.is_instr {
            self.stats.i_evictions += 1;
        }
        if old.dirty {
            self.stats.writebacks += 1;
        }
        self.policy.on_evict(set, victim);
        Some(old)
    }

    fn fill(&mut self, set: usize, way: usize, line: LineAddr, ctx: &AccessCtx, dirty: bool) {
        let state = if dirty { MesiState::Modified } else { MesiState::Exclusive };
        let i = self.idx(set, way);
        self.frames[i] = LineMeta {
            line,
            valid: true,
            dirty,
            prefetched: ctx.is_prefetch,
            is_instr: ctx.is_instr,
            state,
            sharers: 0,
        };
        if ctx.is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_insert(set, way, ctx);
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let set = self.set_of(line);
        let way = self.way_in(set, line)?;
        let i = self.idx(set, way);
        let meta = self.frames[i];
        self.frames[i] = LineMeta::empty();
        self.stats.invalidations += 1;
        Some(meta)
    }

    fn protect_line(&mut self, line: LineAddr) {
        let set = self.set_of(line);
        if let Some(way) = self.way_in(set, line) {
            self.policy.reset_priority(set, way);
        }
    }

    fn occupancy(&self) -> usize {
        self.frames.iter().filter(|m| m.valid).count()
    }
}

/// Deterministic QBS stand-in used identically on both sides.
fn ref_guard(m: &LineMeta) -> bool {
    m.line.get() % 3 == 0
}

/// The SoA side of a fill: one [`SetAssocCache::fill`] redeeming a fresh
/// probe.
fn soa_fill(
    c: &mut SetAssocCache,
    ctx: &AccessCtx,
    dirty: bool,
    rule: Fill,
    guard: impl FnMut(&LineMeta) -> bool,
) -> InsertOutcome {
    c.fill(c.probe_fill(ctx.line), ctx.line, ctx, dirty, rule, guard)
}

/// One op of the differential script. `aux` packs the op's knobs:
/// bit 0 instruction access, bit 1 write/dirty, bit 2 allow-bypass,
/// remaining bits way-mask / sharer-cluster material.
type Op = (u8, u64, u64);

/// Drives the same op sequence through both caches, checking equivalence
/// of outcome, touched-set metadata and peeks after every op, and stats,
/// occupancy and the full frame array at the end.
fn run_differential(
    cfg: &CacheConfig,
    kind: PolicyKind,
    ops: &[Op],
    map_line: impl Fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let mut soa = SetAssocCache::new(cfg.clone(), kind);
    let mut rc = RefCache::new(cfg.clone(), kind);
    let ways = cfg.ways;

    for &(op, raw, aux) in ops {
        let line = LineAddr::new(map_line(raw));
        let sig = raw ^ 0x9e37_79b9;
        let ctx =
            if aux & 1 != 0 { AccessCtx::instr(line, sig) } else { AccessCtx::data(line, sig) };
        let dirty = aux & 2 != 0;
        match op % 10 {
            0 => {
                let a = soa.access(&ctx, dirty);
                let b = rc.access(&ctx, dirty);
                prop_assert_eq!(a, b, "{}: access outcome diverged on {:?}", kind, line);
            }
            1 => {
                let a = soa_fill(&mut soa, &ctx, dirty, Fill::PLAIN, |_| false);
                let b = rc.insert(line, &ctx, dirty);
                prop_assert_eq!(a, b, "{}: plain fill diverged on {:?}", kind, line);
            }
            2 => {
                let mut pctx = ctx;
                pctx.is_prefetch = true;
                let a = soa.insert(line, &pctx, false);
                let b = rc.insert(line, &pctx, false);
                prop_assert_eq!(a, b, "{}: prefetch fill diverged on {:?}", kind, line);
            }
            3 => {
                let bypass = aux & 4 != 0;
                let rule = Fill { bypass, max_protects: 2, ..Fill::PLAIN };
                let a = soa_fill(&mut soa, &ctx, dirty, rule, ref_guard);
                let b = rc.insert_with_guard_opts(line, &ctx, dirty, 2, bypass, ref_guard);
                prop_assert_eq!(a, b, "{}: guarded fill diverged on {:?}", kind, line);
            }
            4 => {
                let full = u64::MAX >> (64 - ways);
                let mask = match (aux >> 3) & full {
                    0 => full,
                    m => m,
                };
                let a = soa_fill(&mut soa, &ctx, dirty, Fill::partition(mask), |_| false);
                let b = rc.insert_restricted(line, &ctx, dirty, mask);
                prop_assert_eq!(a, b, "{}: partitioned fill diverged on {:?}", kind, line);
            }
            5 => {
                let a = soa.invalidate(line);
                let b = rc.invalidate(line);
                prop_assert_eq!(a, b, "{}: invalidate diverged on {:?}", kind, line);
            }
            6 => {
                if let Some(way) = soa.lookup(line) {
                    soa.protect_frame(soa.set_of(line), way);
                }
                rc.protect_line(line);
            }
            7 => {
                // Probe-redeemed fill (the prefetch fill-if-absent path):
                // probe residency once, redeem it whether or not the line
                // is resident. The reference is lookup + insert.
                let mut pctx = ctx;
                pctx.is_prefetch = true;
                let probe = soa.probe_fill(line);
                let resident = rc.way_in(rc.set_of(line), line).is_some();
                prop_assert_eq!(
                    probe.resident(),
                    resident,
                    "{}: probe residency diverged on {:?}",
                    kind,
                    line
                );
                let a = soa.fill(probe, line, &pctx, dirty, Fill::PLAIN, |_| false);
                let b = rc.insert(line, &pctx, dirty);
                prop_assert_eq!(a, b, "{}: probed fill diverged on {:?}", kind, line);
            }
            8 => {
                // Demand access + probed fill (the miss-and-fill path): a
                // hit must match `access` way for way, a miss must fill
                // exactly as `insert` would.
                match soa.access_at(soa.set_of(line), &ctx, dirty) {
                    AccessOutcome::Hit(way) => {
                        let rway = rc.way_in(rc.set_of(line), line);
                        prop_assert!(
                            rc.access(&ctx, dirty),
                            "{}: access_at hit where reference missed on {:?}",
                            kind,
                            line
                        );
                        prop_assert_eq!(Some(way), rway, "{}: hit way diverged", kind);
                    }
                    AccessOutcome::Miss(probe) => {
                        prop_assert!(
                            !rc.access(&ctx, dirty),
                            "{}: access_at missed where reference hit on {:?}",
                            kind,
                            line
                        );
                        let a = soa.fill(probe, line, &ctx, dirty, Fill::PLAIN, |_| false);
                        let b = rc.insert(line, &ctx, dirty);
                        prop_assert_eq!(a, b, "{}: miss-path fill diverged on {:?}", kind, line);
                    }
                }
            }
            _ => {
                // Directory edits through peek_mut, mirrored field-by-field.
                let set = rc.set_of(line);
                let rway = rc.way_in(set, line);
                let cluster = (aux % (8 * cfg.directory_bytes() as u64)) as usize;
                if let Some(mut m) = soa.peek_mut(line) {
                    m.set_dirty();
                    m.add_sharer(cluster);
                    let st =
                        if m.sharer_count() > 1 { MesiState::Shared } else { MesiState::Exclusive };
                    m.set_state(st);
                }
                if let Some(w) = rway {
                    let i = set * ways + w;
                    let f = &mut rc.frames[i];
                    f.dirty = true;
                    f.sharers |= 1 << cluster;
                    f.state = if f.sharers.count_ones() > 1 {
                        MesiState::Shared
                    } else {
                        MesiState::Exclusive
                    };
                }
                prop_assert_eq!(soa.peek_mut(line).is_some(), rway.is_some());
            }
        }
        // After every op: the touched set's frames and the line's peek must
        // be byte-identical.
        let set = rc.set_of(line);
        for w in 0..ways {
            prop_assert_eq!(
                soa.frame_meta(set, w),
                rc.frames[set * ways + w],
                "{}: frame ({}, {}) diverged after op {} on {:?}",
                kind,
                set,
                w,
                op % 10,
                line
            );
        }
        prop_assert_eq!(soa.peek(line), rc.peek(line));
    }

    // Whole-cache sweep: every frame, the stats and occupancy agree.
    for set in 0..cfg.sets {
        for w in 0..ways {
            prop_assert_eq!(soa.frame_meta(set, w), rc.frames[set * ways + w]);
        }
    }
    prop_assert_eq!(soa.stats(), &rc.stats, "{}: stats diverged", kind);
    prop_assert_eq!(soa.occupancy(), rc.occupancy());
    Ok(())
}

/// Geometries covering power-of-two and non-power-of-two set counts
/// (the LLC's `from_capacity` yields non-pow2 sets; L1/L2 are pow2).
const GEOMETRIES: &[(usize, usize)] =
    &[(1, 1), (1, 4), (8, 2), (16, 4), (5, 2), (7, 4), (12, 3), (40, 2)];

/// Directory sizes (sharer clusters): the default 8-byte mask, and the
/// 2- and 1-byte masks of 10 and 8 clusters. The reference model keeps a
/// full `u64` mask per frame whatever the width.
const DIRECTORY_CLUSTERS: &[usize] = &[64, 10, 8];

proptest! {
    /// Arbitrary op interleavings on whole-cache (Modulo) indexing, every
    /// policy, pow2 and non-pow2 set counts.
    #[test]
    fn soa_matches_reference_modulo(
        ops in prop::collection::vec((0u8..10, 0u64..512, 0u64..256), 1..300),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        geom_idx in 0usize..GEOMETRIES.len(),
        dir_idx in 0usize..DIRECTORY_CLUSTERS.len(),
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let (sets, ways) = GEOMETRIES[geom_idx];
        let cfg = CacheConfig::new("diff", sets, ways)
            .with_directory_clusters(DIRECTORY_CLUSTERS[dir_idx]);
        run_differential(&cfg, kind, &ops, |raw| raw)?;
    }

    /// Same battery on shard views: a cache owning global sets
    /// `[base, base + sets)` of a `modulus`-set parent, with lines mapped
    /// into the owned range (pow2 and non-pow2 moduli).
    #[test]
    fn soa_matches_reference_shard(
        ops in prop::collection::vec((0u8..10, 0u64..512, 0u64..256), 1..300),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        sets in 1usize..6,
        base in 0usize..8,
        extra in 0usize..9,
        dir_idx in 0usize..DIRECTORY_CLUSTERS.len(),
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let modulus = base + sets + extra;
        let ways = 3usize;
        let cfg = CacheConfig::shard("diff.shard", modulus, base, sets, ways)
            .with_directory_clusters(DIRECTORY_CLUSTERS[dir_idx]);
        let (m, b, s) = (modulus as u64, base as u64, sets as u64);
        // Fold the raw value into the shard's owned global sets:
        // global set = base + (raw % sets), tag material = raw / sets.
        run_differential(&cfg, kind, &ops, move |raw| (raw / s % 16) * m + b + raw % s)?;
    }
}

/// Caches at the tag-width edge: 64 sets (the largest set count whose
/// lines reach quotient `2^32 − 1` below 2^38), 16 sets, a shard view of
/// a non-power-of-two parent with a non-zero base, and 100 sets, whose top
/// quotient is `2^32 − 2`.
fn edge_geometries() -> [CacheConfig; 4] {
    [
        CacheConfig::new("edge64", 64, 4),
        CacheConfig::new("edge16", 16, 3),
        CacheConfig::shard("edge.shard", 24, 5, 6, 4),
        CacheConfig::new("edge100", 100, 2),
    ]
}

/// Folds `raw` into four of `cfg`'s sets at quotients (`line / modulus`,
/// stored as `q + 1`) at both ends of the 32-bit tag word: 0 and its
/// neighbours, the middle, and the cache's top quotient with its
/// neighbours — `2^32 − 1`, whose word wraps to the empty frame's 0, for
/// a modulus of at most 64 sets. Eight lines per set, so the sets fill,
/// evict and mix the words at both ends.
fn edge_line(cfg: &CacheConfig, raw: u64) -> u64 {
    let (modulus, base) = match cfg.indexing {
        SetIndexing::Modulo => (cfg.sets as u64, 0),
        SetIndexing::Shard { modulus, base } => (modulus, base),
    };
    let top = if modulus <= 64 { (1 << 32) - 1 } else { (1 << 32) - 2 };
    let q = [0, 1, 2, 1 << 31, top - 3, top - 2, top - 1, top][(raw / 4 % 8) as usize];
    q * modulus + base + raw % 4
}

proptest! {
    /// The battery on lines whose tag words sit at both ends of 32 bits.
    #[test]
    fn soa_matches_reference_at_the_tag_edge(
        ops in prop::collection::vec((0u8..10, 0u64..512, 0u64..256), 1..300),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        geom_idx in 0usize..4,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let cfg = &edge_geometries()[geom_idx];
        run_differential(cfg, kind, &ops, |raw| edge_line(cfg, raw))?;
    }
}

/// Deterministic smoke sequence so plain `cargo test` exercises every op
/// and policy even at a proptest case count of 1.
#[test]
fn soa_matches_reference_fixed_sequence() {
    let mut x = 0x243f_6a88_85a3_08d3u64; // deterministic xorshift64*
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let ops: Vec<Op> = (0..600).map(|_| (next() as u8, next() % 96, next() % 256)).collect();
    for kind in PolicyKind::ALL {
        for &(sets, ways) in &[(8usize, 4usize), (6, 3)] {
            for &clusters in DIRECTORY_CLUSTERS {
                let cfg = CacheConfig::new("fixed", sets, ways).with_directory_clusters(clusters);
                run_differential(&cfg, kind, &ops, |raw| raw).unwrap();
            }
        }
        let cfg = CacheConfig::shard("fixed.shard", 12, 4, 4, 4);
        run_differential(&cfg, kind, &ops, |raw| (raw / 4 % 16) * 12 + 4 + raw % 4).unwrap();
        for cfg in &edge_geometries() {
            run_differential(cfg, kind, &ops, |raw| edge_line(cfg, raw)).unwrap();
        }
    }
}
