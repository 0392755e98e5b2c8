//! Property-based tests for the cache substrate.

use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SatCounter, SetAssocCache};
use garibaldi_types::LineAddr;
use proptest::prelude::*;

/// Drives `cache` through a seeded pseudo-random access/insert stream so
/// its policy accumulates learned state (PSEL duels, predictor PC
/// counters, RDP reuse samples). Deterministic in `seed`.
fn train_policy(cache: &mut SetAssocCache, seed: u64, n: usize) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let line = next() % 256;
        let pc = 0x40_0000 + (next() % 64) * 4;
        let la = LineAddr::new(line);
        let ctx = AccessCtx::data(la, pc);
        if !cache.access(&ctx, false) {
            cache.insert(la, &ctx, false);
        }
    }
}

/// The engine's barrier export of one shard's learned state.
fn export(cache: &SetAssocCache) -> Vec<u32> {
    let mut out = Vec::new();
    cache.export_policy_learned_into(&mut out);
    out
}

/// Seeded Fisher–Yates (the vendored proptest has no `prop_shuffle`).
fn shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

proptest! {
    /// Occupancy never exceeds capacity and resident lines are findable,
    /// under arbitrary access/insert/invalidate sequences, for every policy.
    #[test]
    fn cache_occupancy_and_lookup_consistency(
        ops in prop::collection::vec((0u8..3, 0u64..4096), 1..400),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        sets in 1usize..32,
        ways in 1usize..8,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut cache = SetAssocCache::new(CacheConfig::new("p", sets, ways), kind);
        for (op, line) in ops {
            let la = LineAddr::new(line);
            let ctx = AccessCtx::data(la, line ^ 0xabc);
            match op {
                0 => { cache.access(&ctx, false); }
                1 => {
                    let out = cache.insert(la, &ctx, false);
                    if out.way.is_some() {
                        prop_assert!(cache.lookup(la).is_some(), "{kind}: inserted line must be resident");
                    }
                }
                _ => { cache.invalidate(la); }
            }
            prop_assert!(cache.occupancy() <= sets * ways, "{kind}: capacity exceeded");
        }
        let s = cache.stats();
        prop_assert!(s.hits() <= s.accesses());
        prop_assert!(s.writebacks <= s.evictions + s.invalidations);
    }

    /// LRU never evicts the most-recently-touched line in a set.
    #[test]
    fn lru_never_evicts_mru(lines in prop::collection::vec(0u64..64, 2..200)) {
        let mut cache = SetAssocCache::new(CacheConfig::new("lru", 1, 4), PolicyKind::Lru);
        let mut last_touched: Option<LineAddr> = None;
        for line in lines {
            let la = LineAddr::new(line);
            let ctx = AccessCtx::data(la, 0);
            if !cache.access(&ctx, false) {
                let out = cache.insert(la, &ctx, false);
                if let (Some(ev), Some(mru)) = (out.evicted, last_touched) {
                    if mru != la {
                        prop_assert_ne!(ev.meta.line, mru, "evicted the MRU line");
                    }
                }
            }
            last_touched = Some(la);
        }
    }

    /// Saturating counters stay within their range under arbitrary ops.
    #[test]
    fn sat_counter_bounds(bits in 1u32..12, init in 0u32..5000, ops in prop::collection::vec(0u8..4, 0..200)) {
        let mut c = SatCounter::new(bits, init);
        let max = (1u32 << bits) - 1;
        prop_assert!(c.get() <= max);
        for op in ops {
            match op {
                0 => c.inc(),
                1 => c.dec(),
                2 => c.add(3),
                _ => c.sub(3),
            }
            prop_assert!(c.get() <= max);
        }
    }

    /// Learned-state merges are commutative: the pooled consensus is
    /// byte-invariant under any permutation of the privatized per-shard
    /// exports, for every policy. Delta policies fold a sum over peer
    /// deltas (commutative by construction), Mockingjay counts votes per
    /// entry; either way the engine may merge shard exports in any
    /// enumeration order — fixed shard order is a convention, not a
    /// correctness requirement. Also asserts the merge is pure: computing
    /// it must not move the merging cache's own exportable state.
    #[test]
    fn learned_merge_is_permutation_invariant(
        policy_idx in 0usize..PolicyKind::ALL.len(),
        n_peers in 2usize..6,
        seed in 1u64..u64::MAX,
        perm_seed in 1u64..u64::MAX,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut caches: Vec<SetAssocCache> = (0..n_peers)
            .map(|i| {
                let mut c = SetAssocCache::new(CacheConfig::new("m", 8, 4), kind);
                train_policy(&mut c, seed.wrapping_add(i as u64 * 0x9e37), 300);
                c
            })
            .collect();
        let exports: Vec<Vec<u32>> = caches.iter().map(export).collect();

        let before = export(&caches[0]);
        let mut canonical = Vec::new();
        caches[0].merge_policy_learned(&exports, &mut canonical);
        prop_assert_eq!(&export(&caches[0]), &before, "{}: merge mutated state", kind);

        let mut order: Vec<usize> = (0..n_peers).collect();
        shuffle(&mut order, perm_seed);
        let permuted: Vec<Vec<u32>> = order.iter().map(|&i| exports[i].clone()).collect();
        let mut shuffled = Vec::new();
        caches[0].merge_policy_learned(&permuted, &mut shuffled);
        prop_assert_eq!(&shuffled, &canonical, "{}: merge depends on peer order {:?}", kind, order);

        // Every peer computes the same consensus (baselines only move at
        // installs, which land identically everywhere) — the invariant
        // that lets the engine merge once and install the result into
        // every shard.
        for (i, c) in caches.iter_mut().enumerate() {
            let mut m = Vec::new();
            c.merge_policy_learned(&exports, &mut m);
            prop_assert_eq!(&m, &canonical, "{}: peer {} computed a different consensus", kind, i);
        }
    }

    /// After every peer installs the same consensus, their exportable
    /// learned states are byte-identical — divergently-trained slices
    /// reconverge at each sync. This is the engine's sync: export every
    /// slice, merge once on the first, install the result everywhere.
    #[test]
    fn learned_install_reconverges_divergent_peers(
        policy_idx in 0usize..PolicyKind::ALL.len(),
        n_peers in 2usize..5,
        seed in 1u64..u64::MAX,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut caches: Vec<SetAssocCache> = (0..n_peers)
            .map(|i| {
                let mut c = SetAssocCache::new(CacheConfig::new("r", 8, 4), kind);
                train_policy(&mut c, seed.wrapping_add(i as u64 * 0x51ed), 300);
                c
            })
            .collect();
        let exports: Vec<Vec<u32>> = caches.iter().map(export).collect();
        let mut consensus = Vec::new();
        caches[0].merge_policy_learned(&exports, &mut consensus);

        if !consensus.is_empty() {
            for c in caches.iter_mut() {
                c.install_policy_learned(&consensus);
            }
        }
        let after: Vec<Vec<u32>> = caches.iter().map(export).collect();
        for (i, a) in after.iter().enumerate().skip(1) {
            prop_assert_eq!(a, &after[0], "{}: peer {} did not reconverge", kind, i);
        }
    }

    /// The victim-exclusion contract holds for arbitrary masks.
    #[test]
    fn victim_respects_arbitrary_exclusions(
        policy_idx in 0usize..PolicyKind::ALL.len(),
        seed_lines in prop::collection::vec(0u64..512, 8..64),
        excl in 0u64..0b1110,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut cache = SetAssocCache::new(CacheConfig::new("x", 4, 4), kind);
        for l in seed_lines {
            let la = LineAddr::new(l);
            let ctx = AccessCtx::data(la, l);
            if !cache.access(&ctx, false) {
                cache.insert(la, &ctx, false);
            }
        }
        // Partition-style restricted insert must land in an allowed way.
        let allowed = !excl & 0b1111;
        prop_assume!(allowed != 0);
        let la = LineAddr::new(9999);
        let out = cache.insert_restricted(la, &AccessCtx::data(la, 1), false, allowed);
        if let Some(w) = out.way {
            prop_assert!(allowed & (1 << w) != 0, "{kind}: landed outside the partition");
        }
    }
}

mod opt_bound {
    use garibaldi_cache::{simulate_opt, AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
    use garibaldi_types::LineAddr;
    use proptest::prelude::*;

    proptest! {
        /// Belady's MIN is an upper bound: no online policy may beat OPT's
        /// hit count on the same stream.
        #[test]
        fn no_policy_beats_opt(
            stream in prop::collection::vec(0u64..128, 10..500),
            policy_idx in 0usize..PolicyKind::ALL.len(),
        ) {
            let kind = PolicyKind::ALL[policy_idx];
            let sets = 4usize;
            let ways = 3usize;
            let lines: Vec<LineAddr> = stream.iter().map(|&l| LineAddr::new(l)).collect();
            let opt = simulate_opt(&lines, sets, ways);

            let mut cache = SetAssocCache::new(CacheConfig::new("o", sets, ways), kind);
            for &la in &lines {
                let ctx = AccessCtx::data(la, la.get() ^ 7);
                if !cache.access(&ctx, false) {
                    cache.insert(la, &ctx, false);
                }
            }
            prop_assert!(
                cache.stats().hits() <= opt.hits,
                "{kind}: {} hits beats OPT's {}",
                cache.stats().hits(),
                opt.hits
            );
        }
    }
}
