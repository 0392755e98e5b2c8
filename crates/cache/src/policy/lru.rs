//! Least-recently-used replacement (the paper's baseline).

use super::{PolicyCtx, ReplacementPolicy};
use garibaldi_types::rowmask;

/// True LRU via per-set recency ranks: each set's ranks are a permutation
/// of `0..ways`, 0 the most recent way and `ways − 1` the victim. One byte
/// per frame (a global use-stamp per frame took eight).
///
/// A fresh set ranks way 0 oldest (`ways − 1 − w`), so every victim choice
/// is the one a stamp-per-frame LRU makes with all stamps starting at 0 and
/// ties going to the lowest way.
#[derive(Debug)]
pub struct Lru {
    ways: usize,
    rank: Vec<u8>,
}

impl Lru {
    /// Creates LRU state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64 (victim exclusion masks are `u64`, as
    /// are the cache's way masks).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "{ways} ways exceed the 64-bit way masks");
        let row: Vec<u8> = (0..ways).map(|w| (ways - 1 - w) as u8).collect();
        Self { ways, rank: row.repeat(sets) }
    }

    /// Hints the host CPU to pull this set's rank row into its cache
    /// (perf-only; no effect on replacement decisions).
    #[inline]
    pub(crate) fn prefetch_row(&self, set: usize) {
        let base = set * self.ways;
        garibaldi_types::hint::prefetch_index(&self.rank, base);
        garibaldi_types::hint::prefetch_index(&self.rank, base + self.ways.max(1) - 1);
    }

    /// Makes `way` the most recent: every way more recent than it ages by
    /// one.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let row = &mut self.rank[set * self.ways..(set + 1) * self.ways];
        let old = row[way];
        for r in row.iter_mut() {
            *r += u8::from(*r < old);
        }
        row[way] = 0;
    }
}

impl ReplacementPolicy for Lru {
    #[inline]
    fn on_insert(&mut self, set: usize, way: usize, _ctx: &PolicyCtx) {
        self.touch(set, way);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &PolicyCtx) {
        self.touch(set, way);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, _ctx: &PolicyCtx, excluded: u64) -> usize {
        // The oldest allowed way: ranks are distinct, so there are no ties.
        let row = &self.rank[set * self.ways..(set + 1) * self.ways];
        if excluded == 0 {
            // The oldest way of all is the one way ranked `ways − 1`.
            return rowmask::eq_mask_u8(row, (self.ways - 1) as u8).trailing_zeros() as usize;
        }
        let mut best: Option<(usize, u8)> = None;
        for (w, &r) in row.iter().enumerate() {
            if excluded & (1 << w) == 0 && best.is_none_or(|(_, b)| r > b) {
                best = Some((w, r));
            }
        }
        best.expect("exclusion mask never covers all ways").0
    }

    #[inline]
    fn reset_priority(&mut self, set: usize, way: usize) {
        self.touch(set, way); // move to MRU
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garibaldi_types::LineAddr;
    use proptest::prelude::*;

    fn ctx() -> PolicyCtx {
        PolicyCtx::data(LineAddr::new(0), 0)
    }

    #[test]
    fn evicts_least_recent() {
        let mut p = Lru::new(1, 3);
        for w in 0..3 {
            p.on_insert(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx());
        // way 1 is now least recent
        assert_eq!(p.choose_victim(0, &ctx(), 0), 1);
    }

    #[test]
    fn exclusion_respected() {
        let mut p = Lru::new(1, 3);
        for w in 0..3 {
            p.on_insert(0, w, &ctx());
        }
        assert_eq!(p.choose_victim(0, &ctx(), 0b001), 1);
        assert_eq!(p.choose_victim(0, &ctx(), 0b011), 2);
    }

    #[test]
    fn reset_makes_mru() {
        let mut p = Lru::new(1, 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        assert_eq!(p.choose_victim(0, &ctx(), 0), 0);
        p.reset_priority(0, 0);
        assert_eq!(p.choose_victim(0, &ctx(), 0), 1);
    }

    #[test]
    fn a_fresh_set_evicts_the_lowest_way_first() {
        let mut p = Lru::new(2, 4);
        assert_eq!(p.choose_victim(1, &ctx(), 0), 0);
        assert_eq!(p.choose_victim(1, &ctx(), 0b0011), 2);
        p.on_insert(1, 0, &ctx());
        assert_eq!(p.choose_victim(1, &ctx(), 0), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(1, 1, &ctx());
        p.on_insert(0, 1, &ctx());
        p.on_insert(1, 0, &ctx());
        assert_eq!(p.choose_victim(0, &ctx(), 0), 0);
        assert_eq!(p.choose_victim(1, &ctx(), 0), 1);
    }

    /// The stamp-per-frame LRU the byte ranks replace: a global use stamp
    /// per frame, victim the lowest stamp, ties to the lowest way.
    struct StampLru {
        ways: usize,
        stamp: u64,
        last_use: Vec<u64>,
    }

    impl StampLru {
        fn touch(&mut self, set: usize, way: usize) {
            self.stamp += 1;
            self.last_use[set * self.ways + way] = self.stamp;
        }

        fn victim(&self, set: usize, excluded: u64) -> usize {
            (0..self.ways)
                .filter(|w| excluded & (1 << w) == 0)
                .min_by_key(|&w| (self.last_use[set * self.ways + w], w))
                .expect("exclusion mask never covers all ways")
        }
    }

    proptest! {
        /// Over random rank permutations of 1–64 ways, `choose_victim`
        /// picks the allowed way of highest rank, as an argmax over the
        /// row does: with no way excluded (the rank-`ways − 1` fast path)
        /// and with random exclusions that leave one way allowed.
        #[test]
        fn the_victim_is_the_argmax_of_the_allowed_ranks(
            ways in 1usize..=64,
            keys in prop::collection::vec(0u64..u64::MAX, 64),
            mask in 0u64..u64::MAX,
            keep in 0usize..64,
        ) {
            let mut order: Vec<usize> = (0..ways).collect();
            order.sort_by_key(|&w| (keys[w], w));
            let mut p = Lru::new(1, ways);
            for (r, &w) in order.iter().enumerate() {
                p.rank[w] = r as u8;
            }
            let full = u64::MAX >> (64 - ways);
            let excluded = mask & full & !(1 << (keep % ways));
            for ex in [0, excluded] {
                let argmax = (0..ways)
                    .filter(|w| ex & (1 << w) == 0)
                    .max_by_key(|&w| p.rank[w])
                    .expect("one way stays allowed");
                prop_assert_eq!(p.choose_victim(0, &ctx(), ex), argmax);
            }
        }

        /// Random insert / hit / `reset_priority` / `choose_victim(excluded)`
        /// sequences choose the same victims as the stamp model.
        #[test]
        fn byte_ranks_match_a_stamp_lru(
            sets in 1usize..4,
            ways in 1usize..20,
            ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64, 0u64..u64::MAX), 1..300),
        ) {
            let mut p = Lru::new(sets, ways);
            let mut m = StampLru { ways, stamp: 0, last_use: vec![0; sets * ways] };
            for (op, set, way, mask) in ops {
                let (set, way) = (set % sets, way % ways);
                match op {
                    0 => {
                        p.on_insert(set, way, &ctx());
                        m.touch(set, way);
                    }
                    1 => {
                        p.on_hit(set, way, &ctx());
                        m.touch(set, way);
                    }
                    2 => {
                        p.reset_priority(set, way);
                        m.touch(set, way);
                    }
                    _ => {
                        // Keep one way allowed, as the cache guarantees.
                        let excluded = mask & ((1u64 << ways) - 1) & !(1 << way);
                        prop_assert_eq!(
                            p.choose_victim(set, &ctx(), excluded),
                            m.victim(set, excluded)
                        );
                    }
                }
                for s in 0..sets {
                    prop_assert_eq!(p.choose_victim(s, &ctx(), 0), m.victim(s, 0));
                }
            }
        }
    }
}
