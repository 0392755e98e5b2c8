//! Temporal successor prefetcher — the I-SPY stand-in (paper ref [37]).
//!
//! I-SPY prefetches instruction lines predicted by profile-derived context.
//! Without profiles, the closest behavioural equivalent is a Markov/temporal
//! table: for every instruction-miss line we remember the lines whose misses
//! followed it last time, and prefetch them when the line misses again.
//! This covers repetitive miss sequences (the easy part of the footprint)
//! while genuinely cold code still misses — matching the paper's premise
//! that advanced instruction prefetching leaves a significant LLC-bound
//! instruction stream (§1).

use super::Prefetcher;
use garibaldi_types::{FrontCursor, LineAddr, U64Table};

/// Successors remembered per miss line.
const SUCCESSORS: usize = 2;
/// Table capacity (miss lines tracked).
const TABLE_CAP: usize = 64 * 1024;
/// An empty successor entry.
const NO_SUCCESSOR: u32 = u32::MAX;

/// Temporal next-miss prefetcher.
///
/// The successor table is open-addressed ([`U64Table`]): it is probed on
/// every L1I miss — one of the hottest lookups in the whole simulator —
/// and, unlike a SipHash `HashMap`, its (deterministic) slot order makes
/// the capacity-eviction pick below reproducible across runs.
///
/// Successors are stored as `u32` lines, so a slot is 16 bytes: the
/// prefetcher runs on the virtual text-line miss stream, whose lines lie
/// below 2³² (text VAs below 256 GiB). Storing a line at or above
/// `u32::MAX` panics rather than alias.
#[derive(Debug)]
pub struct TemporalPrefetcher {
    table: U64Table<[u32; SUCCESSORS]>,
    /// Where the capacity-eviction scan for the first slot resumes; every
    /// new line goes in through it.
    front: FrontCursor,
    last_miss: Option<u64>,
}

impl TemporalPrefetcher {
    /// Most lines one miss predicts (the successors remembered per line).
    pub const SUCCESSORS: usize = SUCCESSORS;

    /// Creates an empty temporal prefetcher.
    pub fn new() -> Self {
        Self { table: U64Table::new(), front: FrontCursor::new(), last_miss: None }
    }

    /// Number of miss lines currently tracked.
    pub fn tracked(&self) -> usize {
        self.table.len()
    }
}

impl Default for TemporalPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for TemporalPrefetcher {
    fn on_access(&mut self, line: LineAddr, _pc_sig: u64, hit: bool, out: &mut Vec<LineAddr>) {
        if hit {
            return;
        }
        let cur = line.get();

        // Record: the previous miss is followed by this one.
        if let Some(prev) = self.last_miss {
            if prev != cur {
                if self.table.len() >= TABLE_CAP && !self.table.contains_key(prev) {
                    // Table full: drop an arbitrary cold entry (cheap
                    // approximation of LRU replacement; first slot in
                    // probe order — deterministic). The cursor finds it
                    // without rescanning the empty prefix earlier
                    // evictions leave.
                    let victim = self.front.first_key(&self.table);
                    if let Some(k) = victim {
                        self.table.remove(k);
                    }
                }
                let line = successor(cur);
                let succ = self
                    .front
                    .get_or_insert_with(&mut self.table, prev, || [NO_SUCCESSOR; SUCCESSORS]);
                if !succ.contains(&line) {
                    succ.rotate_right(1);
                    succ[0] = line;
                }
            }
        }
        self.last_miss = Some(cur);

        // Predict: prefetch this line's remembered successors.
        if let Some(succ) = self.table.get(cur) {
            for &s in succ.iter().filter(|&&s| s != NO_SUCCESSOR) {
                out.push(LineAddr::new(u64::from(s)));
            }
        }
    }

    fn name(&self) -> &'static str {
        "temporal(i-spy)"
    }
}

/// `line` as a stored successor.
///
/// # Panics
///
/// Panics when `line` does not fit below [`NO_SUCCESSOR`].
fn successor(line: u64) -> u32 {
    match u32::try_from(line) {
        Ok(s) if s != NO_SUCCESSOR => s,
        _ => panic!("temporal prefetcher: line {line:#x} is not a text line below 2^32 - 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(p: &mut TemporalPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(LineAddr::new(line), 0, false, &mut out);
        out
    }

    #[test]
    fn learns_miss_successions() {
        let mut p = TemporalPrefetcher::new();
        // First pass: A -> B -> C learns the chain.
        miss(&mut p, 10);
        miss(&mut p, 20);
        miss(&mut p, 30);
        // Second encounter of A prefetches B.
        let out = miss(&mut p, 10);
        assert!(out.contains(&LineAddr::new(20)), "{out:?}");
    }

    #[test]
    fn remembers_two_successors() {
        let mut p = TemporalPrefetcher::new();
        miss(&mut p, 10);
        miss(&mut p, 20); // 10 -> 20
        miss(&mut p, 10);
        miss(&mut p, 25); // 10 -> 25 (second successor)
        let out = miss(&mut p, 10);
        assert!(out.contains(&LineAddr::new(20)) && out.contains(&LineAddr::new(25)));
    }

    #[test]
    fn hits_are_invisible() {
        let mut p = TemporalPrefetcher::new();
        miss(&mut p, 1);
        let mut out = Vec::new();
        p.on_access(LineAddr::new(2), 0, true, &mut out);
        miss(&mut p, 3);
        // Chain is 1 -> 3 (the hit on 2 did not interpose).
        let out = miss(&mut p, 1);
        assert!(out.contains(&LineAddr::new(3)));
    }

    #[test]
    fn duplicate_successors_not_stored() {
        let mut p = TemporalPrefetcher::new();
        for _ in 0..3 {
            miss(&mut p, 10);
            miss(&mut p, 20);
        }
        let succ = p.table.get(10).unwrap();
        assert_eq!(succ.iter().filter(|&&s| s == 20).count(), 1);
    }

    /// Past the cap every miss of an untracked line evicts the key a scan
    /// of the slots from index 0 meets first, and the table stays at the
    /// cap.
    #[test]
    fn evictions_past_the_cap_take_the_first_slot() {
        let mut p = TemporalPrefetcher::new();
        // Distinct, spread-out lines: each miss records a new `prev`.
        let line = |i: u64| (i.wrapping_mul(0x9e37_79b9) >> 7) & 0x3fff_ffff;
        for i in 0..TABLE_CAP as u64 + 1 {
            miss(&mut p, line(i));
        }
        assert_eq!(p.tracked(), TABLE_CAP);
        for i in TABLE_CAP as u64 + 1..TABLE_CAP as u64 + 3_001 {
            let prev = p.last_miss.unwrap();
            let victim = (!p.table.contains_key(prev)).then(|| p.table.keys().next().unwrap());
            miss(&mut p, line(i));
            if let Some(v) = victim {
                assert!(!p.table.contains_key(v), "miss {i} kept the old rule's victim {v:#x}");
            }
            assert!(p.table.contains_key(prev));
            assert_eq!(p.tracked(), TABLE_CAP);
        }
    }

    #[test]
    fn successors_round_trip_through_u32() {
        let top = u64::from(NO_SUCCESSOR) - 1;
        for (a, b) in [(0, 1), (1 << 20, top), (top, 0)] {
            let mut p = TemporalPrefetcher::new();
            miss(&mut p, a);
            miss(&mut p, b);
            assert_eq!(miss(&mut p, a), vec![LineAddr::new(b)], "{a:#x} -> {b:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "is not a text line below 2^32 - 1")]
    fn lines_past_u32_panic() {
        let mut p = TemporalPrefetcher::new();
        miss(&mut p, 1);
        miss(&mut p, u64::from(u32::MAX));
    }
}
