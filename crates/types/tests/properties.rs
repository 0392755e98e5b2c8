//! Property-based tests for the hot-path substrate: the open-addressed
//! [`U64Table`]/[`U64Set`] against `std::collections` reference models
//! under arbitrary operation streams, [`FastDiv`] against the hardware
//! divide, and the [`rowmask`] kernels against the way mask's definition.

use garibaldi_types::fastdiv::FastDiv;
use garibaldi_types::rowmask;
use garibaldi_types::{U64Set, U64Table};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Folds `raw` into a small key space with its extremes: `u64::MAX`, the
/// one key kept in the table's side slot, and its neighbour sit beside
/// `0..n - 2`, so streams revisit them too.
fn fold_key(raw: u64, n: u64) -> u64 {
    match raw % n {
        k if k == n - 1 => u64::MAX,
        k if k == n - 2 => u64::MAX - 1,
        k => k,
    }
}

/// Applies one encoded op to both containers and cross-checks the result.
/// Keys are folded into a small space so streams revisit keys (collisions,
/// updates, removals of present keys) instead of only inserting fresh ones.
fn apply(table: &mut U64Table<u64>, model: &mut HashMap<u64, u64>, op: u8, key: u64, val: u64) {
    match op % 5 {
        0 => {
            assert_eq!(table.insert(key, val), model.insert(key, val), "insert({key})");
        }
        1 => {
            assert_eq!(table.remove(key), model.remove(&key), "remove({key})");
        }
        2 => {
            assert_eq!(table.get(key), model.get(&key), "get({key})");
        }
        3 => {
            // entry().or_insert_with() equivalence, with an update on top.
            let t = table.get_or_insert_with(key, || val);
            let m = model.entry(key).or_insert(val);
            assert_eq!(*t, *m, "or_insert({key})");
            *t = t.wrapping_add(1);
            *m = m.wrapping_add(1);
        }
        _ => {
            if let Some(t) = table.get_mut(key) {
                *t ^= 0x5a;
            }
            if let Some(m) = model.get_mut(&key) {
                *m ^= 0x5a;
            }
        }
    }
}

proptest! {
    /// Insert/update/remove/lookup equivalence against `HashMap`, plus
    /// sorted-iteration equivalence, on arbitrary key streams (both a
    /// collision-heavy folded key space and raw 64-bit keys).
    #[test]
    fn table_matches_hashmap_reference(
        ops in prop::collection::vec((0u8..5, 0u64..u64::MAX, 0u64..1000), 1..600),
        fold in prop::bool::ANY,
    ) {
        let mut table = U64Table::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (op, raw_key, val) in ops {
            let key = if fold { fold_key(raw_key, 97) } else { raw_key };
            apply(&mut table, &mut model, op, key, val);
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        // Iterate-sorted equivalence: slot order is unordered, but the
        // *set* of pairs must match the reference exactly.
        let mut got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want);
        // Keys/values projections and the consuming iterator agree too.
        let mut keys: Vec<u64> = table.keys().collect();
        keys.sort_unstable();
        prop_assert_eq!(keys, want.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        let mut drained: Vec<(u64, u64)> = table.into_iter().collect();
        drained.sort_unstable();
        prop_assert_eq!(drained, want);
    }

    /// A clock hand walked from slot 0 through [`U64Table::key_from`]
    /// meets the array's keys in slot order, then wraps to the first; the
    /// side slot's `u64::MAX` comes up only when the array is empty.
    #[test]
    fn key_from_walks_the_keys_in_slot_order(
        ops in prop::collection::vec((0u8..5, 0u64..u64::MAX, 0u64..1000), 1..400),
        fold in prop::bool::ANY,
    ) {
        let mut table = U64Table::new();
        let mut model = HashMap::new();
        for (op, raw_key, val) in ops {
            let key = if fold { fold_key(raw_key, 397) } else { raw_key };
            apply(&mut table, &mut model, op, key, val);
        }
        let order: Vec<u64> = table.keys().filter(|&k| k != u64::MAX).collect();
        let mut hand = 0;
        for &want in order.iter().chain(order.first()) {
            let (key, next) = table.key_from(hand).expect("keys remain");
            prop_assert_eq!(key, want);
            hand = next;
        }
        if order.is_empty() {
            let side = table.contains_key(u64::MAX).then_some((u64::MAX, hand));
            prop_assert_eq!(table.key_from(hand), side);
        }
    }

    /// Slot iteration order is a pure function of the operation history:
    /// replaying the same stream yields the identical sequence (the
    /// determinism the engine's byte-invariance contract needs).
    #[test]
    fn table_iteration_is_deterministic(
        ops in prop::collection::vec((0u8..5, 0u64..97, 0u64..1000), 1..300),
    ) {
        let build = || {
            let mut t = U64Table::new();
            let mut m = HashMap::new();
            for &(op, key, val) in &ops {
                apply(&mut t, &mut m, op, fold_key(key, 97), val);
            }
            t
        };
        let a: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(a, b);
    }

    /// `U64Set` against `HashSet` under arbitrary insert/remove/contains
    /// streams.
    #[test]
    fn set_matches_hashset_reference(
        ops in prop::collection::vec((0u8..3, 0u64..u64::MAX), 1..400),
        fold in prop::bool::ANY,
    ) {
        let mut set = U64Set::new();
        let mut model: HashSet<u64> = HashSet::new();
        for (op, raw_key) in ops {
            let key = if fold { fold_key(raw_key, 61) } else { raw_key };
            match op {
                0 => prop_assert_eq!(set.insert(key), model.insert(key)),
                1 => prop_assert_eq!(set.remove(key), model.remove(&key)),
                _ => prop_assert_eq!(set.contains(key), model.contains(&key)),
            }
            prop_assert_eq!(set.len(), model.len());
        }
        let mut got: Vec<u64> = set.iter().collect();
        got.sort_unstable();
        let mut want: Vec<u64> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    /// Multiply-based division agrees with `/` and `%` for any divisor and
    /// dividend, small divisors (cache set counts) weighted in.
    #[test]
    fn fast_div_matches_the_hardware_divide(
        x in 0u64..u64::MAX,
        big in 1u64..u64::MAX,
        small in 1u64..100_000,
        pick_small in prop::bool::ANY,
    ) {
        let d = if pick_small { small } else { big };
        let f = FastDiv::new(d);
        prop_assert_eq!(f.quotient(x), x / d);
        prop_assert_eq!(f.remainder(x), x % d);
        let line = x >> 26; // a 38-bit line address
        prop_assert_eq!(f.remainder(line), line % d);
    }
}

proptest! {
    /// The row kernels against the mask's definition on random rows of
    /// 0–64 ways whose values come from a small alphabet (so probes match
    /// several ways, or none), zero and the all-ones value included.
    #[test]
    fn row_kernels_match_the_mask_definition(
        picks in prop::collection::vec(0usize..5, 0..65),
        a in 0usize..5,
        b in 0usize..5,
    ) {
        const WORDS: [u32; 5] = [0, 1, 0x8000_0000, u32::MAX, 0x0101_0101];
        const BYTES: [u8; 5] = [0, 1, 0x80, u8::MAX, 0x7f];
        let words: Vec<u32> = picks.iter().map(|&k| WORDS[k]).collect();
        let bytes: Vec<u8> = picks.iter().map(|&k| BYTES[k]).collect();
        let mask = |x: usize| picks.iter().enumerate().filter(|&(_, &k)| k == x).map(|(w, _)| 1u64 << w).sum::<u64>();
        prop_assert_eq!(rowmask::eq_masks_u32(&words, WORDS[a], WORDS[b]), (mask(a), mask(b)));
        prop_assert_eq!(rowmask::eq_mask_u8(&bytes, BYTES[a]), mask(a));
    }
}
