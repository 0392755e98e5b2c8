//! Open-addressed `u64 → T` table and `u64` set for simulator hot paths.
//!
//! [`U64Table`] replaces `std::collections::HashMap<u64, T>` in the
//! per-access hot loops (reuse profiler, Hawkeye/Mockingjay samplers,
//! temporal prefetcher, OPT labeling): linear probing over a power-of-two
//! slot array hashed by [`crate::fasthash::mix64`], ≤ 2/5 maximum load,
//! backward-shift deletion (no tombstones, so probe lengths never degrade
//! under churn). No SipHash, no per-process seed, one cache line per probe
//! in the common case. The load bound is deliberately lower than a
//! SIMD-probing table's (hashbrown runs at 7/8): a scalar linear scan
//! degrades sharply past ~60 % occupancy, and the hot tables here are
//! small enough that doubling slot memory is the cheap side of the trade
//! (measured in the engine-level `BENCH_5.json` snapshot).
//!
//! A slot costs exactly what it holds, `size_of::<(u64, T)>()`: 8 bytes in
//! a [`U64Set`], 16 for a `u64` or `[u32; 2]` value or a Mockingjay
//! sampler's `(u32, u32)`, 24 for a Hawkeye sampler's `(u64, u32)`. Each
//! key is stored complemented in a `NonZeroU64`, so an empty slot is the
//! all-zero key and `Option` needs no discriminant. `u64::MAX`, the one
//! key whose complement is zero, lives in a side slot beside the array; it
//! counts toward the load bound like any key, so hashing (of the key
//! itself), probe sequences, growth points and slot order are those of a
//! table that stored every key in the array. Every `u64` stays a valid key.
//!
//! Iteration ([`U64Table::iter`] and friends) walks slots in array order,
//! then the side slot — **unordered**, but a pure function of the
//! insertion/removal history, so simulated results that consume it stay
//! deterministic and worker-count invariant. Callers that need a canonical
//! order sort the drained pairs (the proptest suite checks
//! sorted-iteration equivalence against `HashMap`). A caller that keeps
//! evicting the first key of that order holds a [`FrontCursor`], so the
//! scan for it skips the empty front that those evictions leave.

use crate::fasthash::mix64;
use std::num::NonZeroU64;

/// Minimum non-empty capacity (power of two).
const MIN_CAP: usize = 8;

/// One slot: the key stored complemented, so a live slot's key is never
/// zero and `None` needs no discriminant of its own (the slot is exactly
/// `size_of::<(u64, T)>()`).
type Slot<T> = Option<(NonZeroU64, T)>;

/// The stored form of `key` (any key but `u64::MAX`).
#[inline]
fn enc(key: u64) -> NonZeroU64 {
    NonZeroU64::new(!key).expect("u64::MAX lives in the side slot")
}

/// An open-addressed hash table from `u64` keys to `T`.
#[derive(Debug, Clone)]
pub struct U64Table<T> {
    slots: Vec<Slot<T>>,
    /// The value of key `u64::MAX`, the one key whose complement is zero.
    max: Option<T>,
    /// Entries, the side slot's included (so growth points are those of a
    /// table holding every key in the array).
    len: usize,
    /// `slots.len() - 1` when allocated (capacity is a power of two).
    mask: usize,
}

impl<T> Default for U64Table<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> U64Table<T> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        Self { slots: Vec::new(), max: None, len: 0, mask: 0 }
    }

    /// An empty table pre-sized for at least `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = Self::new();
        if n > 0 {
            t.grow_to(cap_for(n));
        }
        t
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.max = None;
        self.len = 0;
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        mix64(key) as usize & self.mask
    }

    /// Slot of `key` (not `u64::MAX`): `Ok(i)` when present at `i`,
    /// `Err(i)` when absent with `i` the insertion slot. Requires a
    /// non-empty slot array.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let stored = !key;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if k.get() == stored => return Ok(i),
                Some(_) => i = (i + 1) & self.mask,
                None => return Err(i),
            }
        }
    }

    /// Slot index of `key` (not `u64::MAX`) when present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// Reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        if key == u64::MAX {
            return self.max.as_ref();
        }
        let i = self.find(key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        if key == u64::MAX {
            return self.max.as_mut();
        }
        let i = self.find(key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        if key == u64::MAX {
            return self.max.is_some();
        }
        self.find(key).is_some()
    }

    /// Perf-only host-CPU hint for `key`'s home slot (see [`crate::hint`]).
    /// Callers about to probe a burst of keys issue these up front so the
    /// slot misses overlap; a linear-probe chain past the home slot stays
    /// unhinted, but the common case is one cache line. No-op on a table
    /// that has never allocated.
    #[inline]
    pub fn prefetch_slot(&self, key: u64) {
        if !self.slots.is_empty() {
            crate::hint::prefetch_read(&self.slots[self.home(key)]);
        }
    }

    /// Slot for `key` (not `u64::MAX`) with growth on demand: `Ok(i)` when
    /// present at `i` (no growth — updates of resident keys must never
    /// trigger a spurious rehash, the samplers' dominant pattern), `Err(i)`
    /// when absent with `i` an empty slot valid under the load bound.
    #[inline]
    fn slot_for_insert(&mut self, key: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            self.grow_to(MIN_CAP);
        }
        match self.probe(key) {
            Ok(i) => Ok(i),
            Err(i) => {
                if (self.len + 1) * 5 > self.slots.len() * 2 {
                    self.grow_to(self.slots.len() * 2);
                    // Re-probe: the insertion slot moved with the rehash.
                    match self.probe(key) {
                        Ok(_) => unreachable!("key appeared during growth"),
                        Err(j) => Err(j),
                    }
                } else {
                    Err(i)
                }
            }
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        if key == u64::MAX {
            let old = self.max.replace(value);
            self.len += usize::from(old.is_none());
            return old;
        }
        match self.slot_for_insert(key) {
            Ok(i) => {
                let old = self.slots[i].replace((enc(key), value));
                old.map(|(_, v)| v)
            }
            Err(i) => {
                self.slots[i] = Some((enc(key), value));
                self.len += 1;
                None
            }
        }
    }

    /// Mutable reference to the value for `key`, inserting `make()` first
    /// when absent (the `entry(key).or_insert_with(make)` shape).
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> T) -> &mut T {
        if key == u64::MAX {
            if self.max.is_none() {
                self.len += 1;
            }
            return self.max.get_or_insert_with(make);
        }
        let i = self.slot_or_insert_with(key, make).unwrap_or_else(|i| i);
        self.slots[i].as_mut().map(|(_, v)| v).expect("occupied slot")
    }

    /// The slot of `key` (not `u64::MAX`) once `make()` is inserted for it
    /// when absent: `Ok(i)` when it was present, `Err(i)` when it is new.
    #[inline]
    fn slot_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> T) -> Result<usize, usize> {
        let slot = self.slot_for_insert(key);
        if let Err(i) = slot {
            self.slots[i] = Some((enc(key), make()));
            self.len += 1;
        }
        slot
    }

    /// Removes `key`, returning its value. Backward-shift deletion: later
    /// displaced entries slide into the hole, so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        if key == u64::MAX {
            let old = self.max.take();
            self.len -= usize::from(old.is_some());
            return old;
        }
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("probed occupied");
        self.len -= 1;
        // Slide the probe chain left over the hole.
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let Some((kj, _)) = &self.slots[j] else { break };
            let h = self.home(!kj.get());
            // `j`'s entry may fill the hole iff its home lies outside the
            // cyclic interval (hole, j] — i.e. probing from `h` would have
            // visited `hole` before `j`.
            if (j.wrapping_sub(h) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
        Some(value)
    }

    /// Iterates `(key, &value)` in slot order, the side slot last
    /// (unordered; deterministic for a given operation history).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let slots = self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (!k.get(), v)));
        slots.chain(self.max.as_ref().map(|v| (u64::MAX, v)))
    }

    /// Iterates `(key, &mut value)` in slot order, the side slot last.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let slots = self.slots.iter_mut().filter_map(|s| s.as_mut().map(|(k, v)| (!k.get(), v)));
        slots.chain(self.max.as_mut().map(|v| (u64::MAX, v)))
    }

    /// Iterates values in slot order, the side slot last.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates keys in slot order, the side slot last.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= self.len);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(cap, || None);
        self.mask = cap - 1;
        for (k, v) in old.into_iter().flatten() {
            // Direct re-probe: all slots fit (no recursive growth).
            match self.probe(!k.get()) {
                Ok(_) => unreachable!("duplicate key during rehash"),
                Err(i) => self.slots[i] = Some((k, v)),
            }
        }
    }
}

/// Consuming iterator of a [`U64Table`]: slot order, the side slot last.
type IntoIter<T> = std::iter::Chain<
    std::iter::Map<
        std::iter::Flatten<std::vec::IntoIter<Option<(NonZeroU64, T)>>>,
        fn((NonZeroU64, T)) -> (u64, T),
    >,
    std::option::IntoIter<(u64, T)>,
>;

impl<T> IntoIterator for U64Table<T> {
    type Item = (u64, T);
    type IntoIter = IntoIter<T>;

    /// Consumes the table, yielding `(key, value)` pairs in slot order.
    fn into_iter(self) -> Self::IntoIter {
        let decode: fn((NonZeroU64, T)) -> (u64, T) = |(k, v)| (!k.get(), v);
        self.slots.into_iter().flatten().map(decode).chain(self.max.map(|v| (u64::MAX, v)))
    }
}

impl<T> FromIterator<(u64, T)> for U64Table<T> {
    fn from_iter<I: IntoIterator<Item = (u64, T)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut t = Self::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            t.insert(k, v);
        }
        t
    }
}

/// Smallest power-of-two capacity holding `n` entries under the load bound.
fn cap_for(n: usize) -> usize {
    (5 * n).div_ceil(2).next_power_of_two().max(MIN_CAP)
}

/// A caller's bounds on the empty front of a [`U64Table`]'s slot array,
/// for a full cache that evicts the key [`U64Table::keys`] yields first
/// each time it takes a new one.
///
/// Every such eviction empties the front further, so `keys().next()`
/// rescans a prefix that grows with each call. The cursor knows that every
/// slot below `first` is empty, and so is every slot strictly between
/// `first` and `skip`: [`FrontCursor::first_key`] scans from there and
/// records where it stopped. New keys must go in through
/// [`FrontCursor::get_or_insert_with`], which moves the bounds when a key
/// lands below them. Removals may go straight to the table: backward-shift
/// deletion only moves entries into slots that were occupied, so it never
/// fills an empty one. Growth (a new slot count) resets the bounds. The
/// table keeps none of this, so its other users pay nothing.
#[derive(Debug, Clone, Default)]
pub struct FrontCursor {
    first: usize,
    skip: usize,
    /// The slot count the bounds describe.
    slots: usize,
}

impl FrontCursor {
    /// Bounds that claim nothing (valid for any table).
    pub fn new() -> Self {
        Self::default()
    }

    /// `table.get_or_insert_with(key, make)`, keeping the bounds valid
    /// when `key` is new.
    #[inline]
    pub fn get_or_insert_with<'t, T>(
        &mut self,
        table: &'t mut U64Table<T>,
        key: u64,
        make: impl FnOnce() -> T,
    ) -> &'t mut T {
        if key == u64::MAX {
            return table.get_or_insert_with(key, make);
        }
        let i = match table.slot_or_insert_with(key, make) {
            Ok(i) => i,
            Err(i) => {
                self.note_insert(table, i);
                i
            }
        };
        table.slots[i].as_mut().map(|(_, v)| v).expect("occupied slot")
    }

    /// The key `table.keys().next()` yields: the first occupied slot's,
    /// else `u64::MAX` from the side slot. A caller that keeps removing it
    /// passes each empty slot about once, not once per call.
    pub fn first_key<T>(&mut self, table: &U64Table<T>) -> Option<u64> {
        let n = self.sync(table);
        let mut i = self.first;
        if table.slots.get(i).is_some_and(Option::is_none) {
            i = self.skip.clamp(i + 1, n);
            i += table.slots[i..].iter().take_while(|s| s.is_none()).count();
        }
        self.first = i;
        match table.slots.get(i) {
            Some(Some((k, _))) => Some(!k.get()),
            _ => table.max.is_some().then_some(u64::MAX),
        }
    }

    /// Resets the bounds when `table` has a new slot count; returns it.
    fn sync<T>(&mut self, table: &U64Table<T>) -> usize {
        let n = table.slots.len();
        if n != self.slots {
            *self = Self { first: 0, skip: 0, slots: n };
        }
        n
    }

    /// Keeps `first` and `skip` valid after a new key lands in empty slot
    /// `i`.
    fn note_insert<T>(&mut self, table: &U64Table<T>, i: usize) {
        self.sync(table);
        if i >= self.first.max(self.skip) {
            return;
        }
        let first_empty = table.slots.get(self.first).is_none_or(Option::is_none);
        if i < self.first {
            // Slots `i + 1 .. first` were empty; when slot `first` was too,
            // the run past it joins on.
            self.skip = if first_empty { self.skip.max(self.first + 1) } else { self.first };
            self.first = i;
        } else if first_empty {
            // `i` splits the run past an empty `first`: every slot below
            // `i` is empty, and the rest of the run stays known.
            self.first = i;
        } else {
            self.skip = i;
        }
    }
}

/// An open-addressed set of `u64`s (a [`U64Table`] without values).
#[derive(Debug, Clone, Default)]
pub struct U64Set {
    table: U64Table<()>,
}

impl U64Set {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no members are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Inserts `key`; `true` when it was not already present (the
    /// `HashSet::insert` contract).
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.table.insert(key, ()).is_none()
    }

    /// True when `key` is a member.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.table.contains_key(key)
    }

    /// Removes `key`; `true` when it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        self.table.remove(key).is_some()
    }

    /// Perf-only host-CPU hint for `key`'s home slot
    /// ([`U64Table::prefetch_slot`]).
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.table.prefetch_slot(key);
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Iterates members in slot order (unordered, deterministic).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_remove() {
        let mut t = U64Table::new();
        assert!(t.is_empty() && t.get(1).is_none() && t.remove(1).is_none());
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(2, "b"), None);
        assert_eq!(t.insert(1, "c"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), Some(&"c"));
        *t.get_mut(2).unwrap() = "z";
        assert_eq!(t.remove(2), Some("z"));
        assert_eq!(t.len(), 1);
        assert!(!t.contains_key(2) && t.contains_key(1));
    }

    #[test]
    fn key_zero_and_max_are_ordinary_keys() {
        let mut t = U64Table::new();
        t.insert(0, 10);
        t.insert(u64::MAX, 20);
        assert_eq!(t.get(0), Some(&10));
        assert_eq!(t.get(u64::MAX), Some(&20));
        assert_eq!(t.remove(0), Some(10));
        assert_eq!(t.get(u64::MAX), Some(&20));
    }

    /// Every caller's slot holds its key and value and nothing else.
    #[test]
    fn slots_cost_the_size_of_key_and_value() {
        use std::mem::size_of;
        assert_eq!(size_of::<Slot<()>>(), size_of::<(u64, ())>());
        assert_eq!(size_of::<Slot<u64>>(), size_of::<(u64, u64)>());
        assert_eq!(size_of::<Slot<[u32; 2]>>(), size_of::<(u64, [u32; 2])>());
        assert_eq!(size_of::<Slot<(u64, u32)>>(), size_of::<(u64, (u64, u32))>());
        assert_eq!(
            (size_of::<Slot<()>>(), size_of::<Slot<[u32; 2]>>(), size_of::<Slot<(u64, u32)>>()),
            (8, 16, 24)
        );
    }

    /// `u64::MAX` lives in the side slot and behaves like any other key
    /// through insert, get, update, remove and iteration.
    #[test]
    fn side_slot_round_trips_u64_max() {
        let mut t = U64Table::new();
        assert_eq!(t.insert(u64::MAX, 1), None);
        assert!(t.slots.is_empty(), "the side slot needs no array");
        assert_eq!((t.len(), t.get(u64::MAX), t.contains_key(u64::MAX)), (1, Some(&1), true));
        assert_eq!(t.insert(u64::MAX, 2), Some(1));
        *t.get_mut(u64::MAX).unwrap() += 1;
        *t.get_or_insert_with(u64::MAX, || panic!("present: not called")) += 1;
        for k in 0..5 {
            t.insert(k, 10 + k);
        }
        assert_eq!(t.len(), 6);
        let mut all: Vec<_> = t.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(all.last(), Some(&(u64::MAX, 4)), "the side slot iterates last");
        all.sort_unstable();
        assert_eq!(all, vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14), (u64::MAX, 4)]);
        assert_eq!(t.keys().last(), Some(u64::MAX));
        assert_eq!(t.values().last(), Some(&4));
        for (k, v) in t.iter_mut() {
            *v += k & 1;
        }
        assert_eq!(t.get(u64::MAX), Some(&5));
        assert_eq!(t.clone().into_iter().last(), Some((u64::MAX, 5)));
        assert_eq!(t.remove(u64::MAX), Some(5));
        assert_eq!((t.remove(u64::MAX), t.get(u64::MAX), t.len()), (None, None, 5));
        *t.get_or_insert_with(u64::MAX, || 7) += 1;
        assert_eq!((t.get(u64::MAX), t.len()), (Some(&8), 6));
        t.clear();
        assert!(t.is_empty() && !t.contains_key(u64::MAX));
        let mut s = U64Set::new();
        assert!(s.insert(u64::MAX) && !s.insert(u64::MAX) && s.contains(u64::MAX));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![u64::MAX]);
        assert!(s.remove(u64::MAX) && s.is_empty());
    }

    /// The side slot counts toward the load bound: a table holding
    /// `u64::MAX` grows at the same insert as one whose array held it.
    #[test]
    fn side_slot_counts_toward_growth() {
        let mut a = U64Table::new();
        let mut b = U64Table::new();
        a.insert(u64::MAX, 0);
        b.insert(u64::MAX - 1, 0);
        for k in 0..100 {
            a.insert(k, k);
            b.insert(k, k);
            assert_eq!(a.slots.len(), b.slots.len(), "after key {k}");
        }
    }

    /// A `FrontCursor` names the key `keys().next()` does while a caller
    /// evicts from the front, reinserts below the bounds, grows and clears.
    #[test]
    fn front_cursor_tracks_the_first_slot() {
        let mut t = U64Table::new();
        let mut c = FrontCursor::new();
        assert_eq!(c.first_key(&t), None);
        c.get_or_insert_with(&mut t, u64::MAX, || 0);
        assert_eq!(c.first_key(&t), Some(u64::MAX), "the side slot comes last");
        for k in 0..1_000u64 {
            c.get_or_insert_with(&mut t, k * 64, || k);
        }
        for round in 0..600u64 {
            let want = t.keys().next();
            assert_eq!(c.first_key(&t), want, "eviction {round}");
            t.remove(want.unwrap());
            if round % 7 == 0 {
                c.get_or_insert_with(&mut t, round * 64, || round); // may land below the bounds
            }
        }
        // A full cache: each new key evicts the first one. New keys land
        // in the emptied front as often as behind it.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let want = t.keys().next();
            assert_eq!(c.first_key(&t), want, "cache eviction {round}");
            t.remove(want.unwrap());
            c.get_or_insert_with(&mut t, x, || round);
        }
        let slots = t.slots.len();
        for k in 5_000..8_000u64 {
            c.get_or_insert_with(&mut t, k, || k);
            assert_eq!(c.first_key(&t), t.keys().next(), "insert {k}");
        }
        assert!(t.slots.len() > slots, "the inserts grew the table");
        t.clear();
        assert_eq!(c.first_key(&t), None);
        c.get_or_insert_with(&mut t, 3, || 3);
        assert_eq!(c.first_key(&t), Some(3));
    }

    #[test]
    fn get_or_insert_with_is_entry_or_insert() {
        let mut t: U64Table<Vec<u32>> = U64Table::new();
        t.get_or_insert_with(5, Vec::new).push(1);
        t.get_or_insert_with(5, || panic!("present: not called")).push(2);
        assert_eq!(t.get(5), Some(&vec![1, 2]));
    }

    #[test]
    fn grows_through_many_inserts_and_survives_churn() {
        let mut t = U64Table::new();
        for i in 0..10_000u64 {
            t.insert(i * 64, i);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(i * 64), Some(&i), "{i}");
        }
        // Churn: remove evens, re-check odds, reinsert.
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(t.remove(i * 64), Some(i));
        }
        for i in (1..10_000u64).step_by(2) {
            assert_eq!(t.get(i * 64), Some(&i), "odd {i} survives backward shifts");
        }
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(t.insert(i * 64, i + 1), None);
        }
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn iteration_is_deterministic_and_complete() {
        let build = || {
            let mut t = U64Table::new();
            for i in [9u64, 1, 7, 3, 1, 9] {
                t.insert(i, i * 2);
            }
            t.remove(7);
            t
        };
        let a: Vec<_> = build().iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<_> = build().iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(a, b, "same history ⇒ same slot order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(1, 2), (3, 6), (9, 18)]);
        let mut drained: Vec<_> = build().into_iter().collect();
        drained.sort_unstable();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = U64Table::with_capacity(100);
        let cap = t.slots.len();
        assert!(cap >= 100);
        for i in 0..100 {
            t.insert(i, i);
        }
        assert_eq!(t.slots.len(), cap, "with_capacity sized for 100 entries");
        t.clear();
        assert!(t.is_empty() && t.get(3).is_none());
        assert_eq!(t.slots.len(), cap);
    }

    #[test]
    fn updates_at_the_load_bound_do_not_grow() {
        let mut t = U64Table::new();
        // Fill to exactly the load bound (next new-key insert would grow).
        let mut n = 0u64;
        while (t.len() + 1) * 5 <= t.slots.len() * 2 || t.slots.is_empty() {
            t.insert(n, n);
            n += 1;
        }
        let cap = t.slots.len();
        for _ in 0..3 {
            for k in 0..n {
                t.insert(k, k + 1); // updates only: len is stable
            }
        }
        assert_eq!(t.slots.len(), cap, "resident-key updates must never rehash");
        t.insert(n, n); // one genuinely new key crosses the bound
        assert_eq!(t.slots.len(), 2 * cap);
        assert_eq!(t.get(0), Some(&1), "rehash kept the updated values");
    }

    #[test]
    fn from_iterator_collects() {
        let t: U64Table<u32> = [(1u64, 2u32), (3, 4)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(&4));
    }

    #[test]
    fn prefetch_hints_are_inert() {
        let mut t = U64Table::new();
        t.prefetch_slot(7); // unallocated: must not fault
        t.insert(7, 1);
        t.prefetch_slot(7);
        t.prefetch_slot(u64::MAX); // absent key: hints its home slot only
        assert_eq!(t.get(7), Some(&1));
        let mut s = U64Set::new();
        s.prefetch(9);
        s.insert(9);
        s.prefetch(9);
        assert!(s.contains(9));
    }

    #[test]
    fn set_semantics() {
        let mut s = U64Set::new();
        assert!(s.insert(5) && !s.insert(5));
        assert!(s.contains(5) && !s.contains(6));
        assert_eq!(s.len(), 1);
        assert!(s.remove(5) && !s.remove(5));
        assert!(s.is_empty());
        s.insert(0);
        s.clear();
        assert!(!s.contains(0));
    }
}
