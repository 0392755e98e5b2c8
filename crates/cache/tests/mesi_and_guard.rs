//! MESI invalidation, peek neutrality and the guarded-insert paths.
//!
//! Three contracts the SoA rewrite must uphold:
//!
//! * `peek`/`peek_mut` never perturb replacement state — for *every*
//!   policy, observing a line (or editing its directory state) must not
//!   change which victim is chosen later.
//! * Coherence invalidation returns the line's full metadata and leaves
//!   the frame empty; directory edits round-trip through invalidation.
//! * `fill` consults the guard only for valid instruction-line victims,
//!   bounds protections by `Fill::max_protects` and the associativity,
//!   and `Fill::bypass = false` overrides a bypassing policy
//!   (Garibaldi-protected lines must be resident to be defended).

use garibaldi_cache::policy::PolicyCtx;
use garibaldi_cache::{
    AccessCtx, CacheConfig, Fill, InsertOutcome, LineMeta, MesiState, PolicyKind,
    ReplacementPolicy, SetAssocCache,
};
use garibaldi_types::LineAddr;

fn dctx(line: u64) -> AccessCtx {
    AccessCtx::data(LineAddr::new(line), line ^ 0x55)
}

fn ictx(line: u64) -> AccessCtx {
    AccessCtx::instr(LineAddr::new(line), line ^ 0x55)
}

/// One [`SetAssocCache::fill`] of `ctx.line` under `rule`, redeeming a
/// fresh probe.
fn fill(
    c: &mut SetAssocCache,
    ctx: &AccessCtx,
    dirty: bool,
    rule: Fill,
    guard: impl FnMut(&LineMeta) -> bool,
) -> InsertOutcome {
    c.fill(c.probe_fill(ctx.line), ctx.line, ctx, dirty, rule, guard)
}

/// A fill any way of the set may take, under a guard allowed
/// `max_protects` protections.
fn guarded(max_protects: u32) -> Fill {
    Fill { max_protects, ..Fill::PLAIN }
}

// ---------------------------------------------------------------------------
// peek / peek_mut neutrality
// ---------------------------------------------------------------------------

/// Drives two identically-seeded caches through the same warmup, peeks one
/// of them heavily, then checks both make identical eviction decisions on
/// the same fill tail. Holds for every policy (Random included — the
/// xorshift stream must not be advanced by peeks).
#[test]
fn peek_is_replacement_neutral_for_every_policy() {
    for kind in PolicyKind::ALL {
        let mk = || SetAssocCache::new(CacheConfig::new("n", 4, 4), kind);
        let (mut peeked, mut control) = (mk(), mk());
        for l in 0..48u64 {
            let ctx = dctx(l);
            for c in [&mut peeked, &mut control] {
                if !c.access(&ctx, false) {
                    c.insert(LineAddr::new(l), &ctx, false);
                }
            }
            // Peek every line of the touched set on one cache only.
            let set = peeked.set_of(LineAddr::new(l));
            let lines: Vec<LineMeta> = peeked.set_lines(set).collect();
            for m in &lines {
                assert!(peeked.peek(m.line).is_some());
                assert!(peeked.peek_mut(m.line).is_some());
                assert_eq!(peeked.lookup(m.line), control.lookup(m.line));
            }
        }
        // Tail fills: victim choices must agree line-for-line.
        for l in 100..140u64 {
            let ctx = dctx(l);
            let a = peeked.insert(LineAddr::new(l), &ctx, false);
            let b = control.insert(LineAddr::new(l), &ctx, false);
            assert_eq!(a, b, "{kind:?}: peeking changed replacement behavior");
        }
        assert_eq!(peeked.stats(), control.stats(), "{kind:?}: peeking changed stats");
    }
}

/// The classic LRU-stack statement of the same contract: peeking the LRU
/// line many times must not promote it.
#[test]
fn peek_does_not_promote_lru_line() {
    let mut c = SetAssocCache::new(CacheConfig::new("lru", 1, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(1), &dctx(1), false);
    c.insert(LineAddr::new(2), &dctx(2), false);
    // Line 1 is LRU. Peek it every way we can.
    for _ in 0..10 {
        assert!(c.peek(LineAddr::new(1)).is_some());
        let m = c.peek_mut(LineAddr::new(1)).unwrap();
        assert!(!m.dirty());
    }
    let out = c.insert(LineAddr::new(3), &dctx(3), false);
    assert_eq!(out.evicted.unwrap().line, LineAddr::new(1), "peeked LRU line was promoted");
}

/// `peek_mut` directory edits must not affect the demand-access counters
/// either (a pure coherence-plumbing operation).
#[test]
fn peek_mut_directory_edits_leave_stats_alone() {
    let mut c = SetAssocCache::new(CacheConfig::new("s", 2, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(4), &dctx(4), false);
    let before = *c.stats();
    {
        let mut m = c.peek_mut(LineAddr::new(4)).unwrap();
        m.set_dirty();
        m.add_sharer(1);
        m.add_sharer(2);
        m.set_state(MesiState::Shared);
    }
    assert_eq!(*c.stats(), before);
    assert!(c.peek_mut(LineAddr::new(5)).is_none(), "non-resident peek_mut");
}

// ---------------------------------------------------------------------------
// MESI invalidation
// ---------------------------------------------------------------------------

/// Fill states: clean fills enter Exclusive, dirty fills Modified, with an
/// empty sharer mask either way.
#[test]
fn fill_states_follow_dirtiness() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 4, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(1), &dctx(1), false);
    c.insert(LineAddr::new(2), &dctx(2), true);
    let clean = c.peek(LineAddr::new(1)).unwrap();
    let dirty = c.peek(LineAddr::new(2)).unwrap();
    assert_eq!(clean.state, MesiState::Exclusive);
    assert!(!clean.dirty && clean.sharers == 0);
    assert_eq!(dirty.state, MesiState::Modified);
    assert!(dirty.dirty && dirty.sharers == 0);
}

/// Invalidation returns the frame's complete metadata — including
/// directory state written through `peek_mut` — and empties the frame.
#[test]
fn invalidate_returns_directory_state_and_clears() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 4, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(9), &ictx(9), false);
    {
        let mut m = c.peek_mut(LineAddr::new(9)).unwrap();
        m.set_dirty();
        m.add_sharer(0);
        m.add_sharer(3);
        m.set_state(MesiState::Shared);
    }
    let meta = c.invalidate(LineAddr::new(9)).unwrap();
    assert_eq!(meta.line, LineAddr::new(9));
    assert!(meta.valid && meta.dirty && meta.is_instr);
    assert_eq!(meta.state, MesiState::Shared);
    assert_eq!(meta.sharers, 0b1001);
    assert_eq!(c.stats().invalidations, 1);

    // Frame is empty: peek misses, occupancy drops, re-probing the same
    // line misses, and double invalidation is a no-op.
    assert!(c.peek(LineAddr::new(9)).is_none());
    assert_eq!(c.occupancy(), 0);
    assert!(!c.access(&dctx(9), false));
    assert!(c.invalidate(LineAddr::new(9)).is_none());
    assert_eq!(c.stats().invalidations, 1, "failed invalidation must not count");
}

/// A frame reused after invalidation starts from fresh metadata — no
/// stale dirty/sharer/state bits may leak from the previous occupant
/// (the SoA columns are only reset lazily, so this is load-bearing).
#[test]
fn refill_after_invalidate_starts_clean() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 1, 1), PolicyKind::Lru);
    c.insert(LineAddr::new(5), &ictx(5), true);
    {
        let mut m = c.peek_mut(LineAddr::new(5)).unwrap();
        m.add_sharer(7);
        m.set_state(MesiState::Shared);
    }
    c.invalidate(LineAddr::new(5));
    c.insert(LineAddr::new(6), &dctx(6), false);
    let m = c.peek(LineAddr::new(6)).unwrap();
    assert!(!m.dirty && !m.is_instr && !m.prefetched);
    assert_eq!(m.state, MesiState::Exclusive);
    assert_eq!(m.sharers, 0, "sharer mask leaked across invalidation");
}

/// Write hits set the dirty bit but do not change the MESI state — the
/// upgrade to Modified is the coherence layer's move (via `peek_mut`),
/// not the cache's.
#[test]
fn write_hit_sets_dirty_without_state_change() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 2, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(3), &dctx(3), false);
    {
        let mut m = c.peek_mut(LineAddr::new(3)).unwrap();
        m.set_sharers(0b11);
        m.set_state(MesiState::Shared);
    }
    assert!(c.access(&dctx(3), true));
    let m = c.peek(LineAddr::new(3)).unwrap();
    assert!(m.dirty);
    assert_eq!(m.state, MesiState::Shared, "access must not touch MESI state");
    assert_eq!(m.sharers, 0b11, "access must not touch the sharer mask");
}

// ---------------------------------------------------------------------------
// Directory-mask hygiene: eviction, fill and refresh paths
// ---------------------------------------------------------------------------

/// A victim's sharer mask and MESI state must not leak into the line that
/// replaces it: `evict_frame` leaves the columns in place (the fill
/// overwrites them), so the fill path is the one that must reset them.
#[test]
fn eviction_fill_does_not_inherit_the_victims_sharers() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 1, 1), PolicyKind::Lru);
    c.insert(LineAddr::new(3), &dctx(3), false);
    {
        let mut m = c.peek_mut(LineAddr::new(3)).unwrap();
        m.set_sharers(0b1011);
        m.set_state(MesiState::Shared);
        m.set_dirty();
    }
    // Fill over the full set: line 3 is evicted and its frame reused.
    let out = c.insert(LineAddr::new(4), &dctx(4), false);
    let victim = out.evicted.expect("full set must evict");
    assert_eq!(victim.sharers, 0b1011, "eviction reports the victim's directory state");
    assert_eq!(victim.state, MesiState::Shared);
    let m = c.peek(LineAddr::new(4)).unwrap();
    assert_eq!(m.sharers, 0, "sharer mask leaked across an eviction");
    assert_eq!(m.state, MesiState::Exclusive, "clean fill enters Exclusive");
    assert!(!m.dirty, "dirty bit leaked across an eviction");
}

/// The same report from a directory sized for 10 clusters (2 bytes per
/// frame, the 40-core LLC's) and for 8 clusters (1 byte): the evicted
/// metadata carries the whole mask, top cluster included.
#[test]
fn eviction_reports_the_victims_directory_state_at_a_narrow_width() {
    for (clusters, mask) in [(10, 0b10_0000_1011u64), (8, 0b1000_0011)] {
        let cfg = CacheConfig::new("m", 1, 1).with_directory_clusters(clusters);
        let mut c = SetAssocCache::new(cfg, PolicyKind::Lru);
        c.insert(LineAddr::new(3), &dctx(3), false);
        {
            let mut m = c.peek_mut(LineAddr::new(3)).unwrap();
            m.set_sharers(mask);
            m.set_state(MesiState::Shared);
        }
        let out = c.insert(LineAddr::new(4), &dctx(4), false);
        let victim = out.evicted.expect("full set must evict");
        assert_eq!(victim.sharers, mask, "eviction reports the victim's directory state");
        assert_eq!(victim.state, MesiState::Shared);
        assert_eq!(c.peek(LineAddr::new(4)).unwrap().sharers, 0, "mask leaked across an eviction");
    }
}

// ---------------------------------------------------------------------------
// Directory widths
// ---------------------------------------------------------------------------

/// Every cluster a directory is sized for is recorded, counted, read back
/// and cleared at 1-, 2- and 8-byte widths, cluster 63 at 64 clusters
/// included; the column costs its width per frame once touched.
#[test]
fn directory_widths_hold_every_cluster() {
    for (clusters, width) in [(1, 1), (8, 1), (9, 2), (10, 2), (16, 2), (17, 3), (64, 8)] {
        let cfg = CacheConfig::new("d", 2, 2).with_directory_clusters(clusters);
        assert_eq!(cfg.directory_bytes(), width, "{clusters} clusters");
        let mut c = SetAssocCache::new(cfg, PolicyKind::Lru);
        c.insert(LineAddr::new(1), &dctx(1), false);
        assert_eq!(c.directory_heap_bytes(), 0, "untouched directory allocated");
        {
            let mut m = c.peek_mut(LineAddr::new(1)).unwrap();
            for k in 0..clusters {
                m.add_sharer(k);
                assert_eq!(m.sharer_count(), k as u32 + 1);
            }
        }
        assert_eq!(c.directory_heap_bytes(), 4 * width);
        let all = u64::MAX >> (64 - clusters);
        assert_eq!(c.peek(LineAddr::new(1)).unwrap().sharers, all);
        let top = 1u64 << (clusters - 1);
        c.peek_mut(LineAddr::new(1)).unwrap().set_sharers(top);
        let m = c.peek_mut(LineAddr::new(1)).unwrap();
        assert_eq!((m.sharers(), m.sharer_count()), (top, 1));
        // A neighbouring frame's mask is its own.
        c.insert(LineAddr::new(3), &dctx(3), false);
        assert_eq!(c.peek(LineAddr::new(3)).unwrap().sharers, 0);
        c.peek_mut(LineAddr::new(3)).unwrap().add_sharer(0);
        assert_eq!(c.peek(LineAddr::new(1)).unwrap().sharers, top);
        c.invalidate(LineAddr::new(1));
        c.insert(LineAddr::new(1), &dctx(1), false);
        assert_eq!(c.peek(LineAddr::new(1)).unwrap().sharers, 0, "mask survived invalidation");
        assert_eq!(c.peek(LineAddr::new(3)).unwrap().sharers, 1);
    }
    // The default directory is the full 64-cluster mask.
    let mut c = SetAssocCache::new(CacheConfig::new("d", 1, 1), PolicyKind::Lru);
    assert_eq!(c.config().directory_bytes(), 8);
    c.insert(LineAddr::new(1), &dctx(1), false);
    c.peek_mut(LineAddr::new(1)).unwrap().add_sharer(63);
    assert_eq!(c.peek(LineAddr::new(1)).unwrap().sharers, 1 << 63);
    assert_eq!(c.directory_heap_bytes(), 8);
}

#[test]
#[should_panic]
fn a_cluster_beyond_the_directory_width_panics() {
    let cfg = CacheConfig::new("d", 1, 1).with_directory_clusters(8);
    let mut c = SetAssocCache::new(cfg, PolicyKind::Lru);
    c.insert(LineAddr::new(1), &dctx(1), false);
    c.peek_mut(LineAddr::new(1)).unwrap().add_sharer(8);
}

#[test]
#[should_panic(expected = "exceeds the directory")]
fn a_mask_beyond_the_directory_width_panics() {
    let cfg = CacheConfig::new("d", 1, 1).with_directory_clusters(10);
    let mut c = SetAssocCache::new(cfg, PolicyKind::Lru);
    c.insert(LineAddr::new(1), &dctx(1), false);
    c.peek_mut(LineAddr::new(1)).unwrap().set_sharers(1 << 16);
}

#[test]
#[should_panic(expected = "65 sharer clusters out of [1,64]")]
fn more_clusters_than_a_u64_mask_holds_panic() {
    let _ = CacheConfig::new("d", 1, 1).with_directory_clusters(65);
}

/// Same hygiene through the probe-redeeming fill (the engine's
/// batched-drain fill): a redeemed probe over an evicted frame starts from
/// fresh directory state.
#[test]
fn fill_probed_resets_the_sharer_mask() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 1, 1), PolicyKind::Lru);
    c.insert(LineAddr::new(7), &dctx(7), false);
    c.peek_mut(LineAddr::new(7)).unwrap().set_sharers(0b110);
    let p = c.probe_fill(LineAddr::new(8));
    assert!(!p.resident());
    c.fill(p, LineAddr::new(8), &dctx(8), true, Fill::PLAIN, |_| false);
    let m = c.peek(LineAddr::new(8)).unwrap();
    assert_eq!(m.sharers, 0, "probe fill must reset the directory mask");
    assert_eq!(m.state, MesiState::Modified, "dirty fill enters Modified");
}

/// A resident-line refresh (the fill races a prefetch or a second core's
/// miss to the same line) must *carry* the directory state, not reset it —
/// the sharer mask still describes the same resident line.
#[test]
fn resident_refresh_carries_the_directory_state() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 2, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(5), &dctx(5), false);
    {
        let mut m = c.peek_mut(LineAddr::new(5)).unwrap();
        m.set_sharers(0b101);
        m.set_state(MesiState::Shared);
    }
    let out = c.insert(LineAddr::new(5), &dctx(5), true);
    assert!(out.evicted.is_none());
    let m = c.peek(LineAddr::new(5)).unwrap();
    assert_eq!(m.sharers, 0b101, "refresh clobbered the sharer mask");
    assert_eq!(m.state, MesiState::Shared, "refresh clobbered the MESI state");
    assert!(m.dirty, "refresh accumulates dirtiness");
    // A partitioned fill of a resident line keeps the same contract.
    let out = fill(&mut c, &dctx(5), false, Fill::partition(0b11), |_| false);
    assert!(out.evicted.is_none());
    let m = c.peek(LineAddr::new(5)).unwrap();
    assert_eq!(m.sharers, 0b101);
    assert_eq!(m.state, MesiState::Shared);
}

/// Invalidation zeroes the sharer column itself (not just the tag), so a
/// later fill of the same frame cannot observe the dead line's directory
/// state even before its own reset runs.
#[test]
fn invalidate_zeroes_the_sharer_column() {
    let mut c = SetAssocCache::new(CacheConfig::new("m", 2, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(6), &dctx(6), false);
    let set = c.set_of(LineAddr::new(6));
    let way = c.lookup(LineAddr::new(6)).unwrap();
    c.peek_mut(LineAddr::new(6)).unwrap().set_sharers(0b111);
    c.invalidate(LineAddr::new(6));
    let m = c.frame_meta(set, way);
    assert!(!m.valid);
    assert_eq!(m.sharers, 0, "invalidate left the sharer column dirty");
}

// ---------------------------------------------------------------------------
// fill: guard, victim and bypass paths
// ---------------------------------------------------------------------------

/// The guard is consulted only for valid *instruction* victims; data
/// victims are evicted without a question.
#[test]
fn guard_never_consulted_for_data_victims() {
    let mut c = SetAssocCache::new(CacheConfig::new("g", 1, 4), PolicyKind::Lru);
    for l in 0..4u64 {
        c.insert(LineAddr::new(l), &dctx(l), false);
    }
    let mut asked = 0;
    let out = fill(&mut c, &dctx(10), false, guarded(4), |_| {
        asked += 1;
        true
    });
    assert_eq!(asked, 0, "guard ran on a data victim");
    assert_eq!(out.protected, 0);
    assert!(out.evicted.is_some());
}

/// Protection can never exclude every way: even with unlimited
/// `max_protects` and an always-protect guard, at most `ways - 1`
/// protections happen, and the fill still lands.
#[test]
fn protection_leaves_at_least_one_victim() {
    let mut c = SetAssocCache::new(CacheConfig::new("g", 1, 4), PolicyKind::Lru);
    for l in 0..4u64 {
        c.insert(LineAddr::new(l), &ictx(l), false);
    }
    let out = fill(&mut c, &dctx(10), false, guarded(u32::MAX), |_| true);
    assert_eq!(out.protected, 3, "ways - 1 protections at most");
    assert!(out.evicted.is_some());
    assert!(c.lookup(LineAddr::new(10)).is_some());
    assert_eq!(c.stats().guarded_protections, 3);
}

/// A protected victim survives and the final victim matches what the
/// guard allowed through.
#[test]
fn guard_decision_selects_the_victim() {
    let mut c = SetAssocCache::new(CacheConfig::new("g", 1, 3), PolicyKind::Lru);
    for l in [2u64, 4, 6] {
        c.insert(LineAddr::new(l), &ictx(l), false);
    }
    // LRU order: 2, 4, 6. Guard defends line 2 only.
    let out = fill(&mut c, &dctx(8), false, guarded(2), |m| m.line == LineAddr::new(2));
    assert_eq!(out.protected, 1);
    assert_eq!(out.evicted.unwrap().line, LineAddr::new(4), "next-LRU after the protected way");
    assert!(c.lookup(LineAddr::new(2)).is_some(), "protected line evicted");
}

/// Test-only policy that always asks to bypass: exercises the
/// `Fill::bypass` override without depending on Mockingjay training.
struct AlwaysBypass {
    next_victim: usize,
    ways: usize,
}

impl ReplacementPolicy for AlwaysBypass {
    fn on_insert(&mut self, _set: usize, _way: usize, _ctx: &PolicyCtx) {}
    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &PolicyCtx) {}
    fn choose_victim(&mut self, _set: usize, _ctx: &PolicyCtx, excluded: u64) -> usize {
        (0..self.ways).cycle().skip(self.next_victim).find(|w| excluded & (1 << w) == 0).unwrap()
    }
    fn reset_priority(&mut self, _set: usize, way: usize) {
        self.next_victim = (way + 1) % self.ways;
    }
    fn should_bypass(&mut self, _set: usize, _ctx: &PolicyCtx) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "AlwaysBypass"
    }
}

/// `Fill::bypass = false` forces residency even when the policy bypasses
/// every fill; `Fill::bypass = true` honors the policy and counts the
/// bypass. Bypass is only consulted for full sets — fills into free
/// frames always land.
#[test]
fn allow_bypass_override_forces_insertion() {
    let cfg = CacheConfig::new("b", 1, 2);
    let mut c = SetAssocCache::with_policy(cfg, Box::new(AlwaysBypass { next_victim: 0, ways: 2 }));

    // Free frames: bypass not consulted.
    let out = c.insert(LineAddr::new(1), &dctx(1), false);
    assert!(out.way.is_some());
    let out = c.insert(LineAddr::new(2), &dctx(2), false);
    assert!(out.way.is_some());
    assert_eq!(c.stats().bypasses, 0);

    // Full set, bypass honored.
    let out = c.insert(LineAddr::new(3), &dctx(3), false);
    assert_eq!(out.way, None);
    assert!(out.evicted.is_none());
    assert_eq!(c.stats().bypasses, 1);
    assert!(c.lookup(LineAddr::new(3)).is_none());

    // Full set, bypass overridden (the Garibaldi protected-fill path).
    let pinned = Fill { bypass: false, ..Fill::PLAIN };
    let out = fill(&mut c, &dctx(3), false, pinned, |_| false);
    assert!(out.way.is_some(), "bypass=false must force the fill");
    assert!(out.evicted.is_some());
    assert_eq!(c.stats().bypasses, 1, "no second bypass counted");
    assert!(c.lookup(LineAddr::new(3)).is_some());
}

/// Guarded refresh of a resident line is a no-op on the victim machinery:
/// no guard call, no eviction, dirty accumulates.
#[test]
fn guarded_insert_of_resident_line_refreshes() {
    let mut c = SetAssocCache::new(CacheConfig::new("g", 1, 2), PolicyKind::Lru);
    c.insert(LineAddr::new(1), &ictx(1), false);
    c.insert(LineAddr::new(3), &ictx(3), false);
    let mut asked = 0;
    let out = fill(&mut c, &ictx(1), true, guarded(4), |_| {
        asked += 1;
        true
    });
    assert_eq!(asked, 0);
    assert_eq!(out.protected, 0);
    assert!(out.evicted.is_none());
    assert!(c.peek(LineAddr::new(1)).unwrap().dirty, "refresh accumulates dirtiness");
    assert_eq!(c.occupancy(), 2);
}
