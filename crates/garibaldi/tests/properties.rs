//! Property-based tests for the Garibaldi structures.

use garibaldi::config::{COLORS, MAX_COST};
use garibaldi::{DppnTable, GaribaldiConfig, HelperTable, PairTable, ThresholdMode, ThresholdUnit};
use garibaldi_types::{LineAddr, PageNum, ThreadId, VirtAddr};
use proptest::prelude::*;

fn small_cfg(k: u8) -> GaribaldiConfig {
    GaribaldiConfig { pair_entries_log2: 6, k, ..Default::default() }
}

proptest! {
    /// Aged cost never exceeds the raw cost, and a protection query
    /// answers the aged-cost comparison without mutating the entry, for
    /// arbitrary update/query interleavings.
    #[test]
    fn aging_is_monotone_and_queries_are_pure(
        ops in prop::collection::vec((0u64..256, prop::bool::ANY, 0u8..8), 1..300),
        threshold in 0u32..64,
    ) {
        let mut t = PairTable::new(&small_cfg(1));
        for (line, hit, color) in ops {
            let il = LineAddr::new(line);
            t.update_on_data(il, hit, 0, (line % 64) as u8, color, threshold);
            let e = *t.entry_for(il);
            if e.valid {
                for qc in 0..8u8 {
                    prop_assert!(e.aged_cost(qc) <= e.miss_cost.get());
                    let before = *t.entry_for(il);
                    prop_assert_eq!(
                        t.query_protect(il, qc, threshold),
                        e.il_line == il && e.aged_cost(qc) > threshold
                    );
                    prop_assert_eq!(before, *t.entry_for(il), "query mutated the entry");
                }
            }
        }
    }

    /// DL fields never exceed k and never hold duplicate data lines.
    #[test]
    fn dl_fields_bounded_and_unique(
        k in 1u8..4,
        refs in prop::collection::vec((0u16..32, 0u8..64), 1..200),
    ) {
        let mut t = PairTable::new(&small_cfg(k));
        let il = LineAddr::new(42);
        for (dppn_idx, lip) in refs {
            t.update_on_data(il, true, dppn_idx, lip, 0, 32);
            let e = t.entry_for(il);
            let valid: Vec<_> = e.dl.iter().filter(|f| f.valid).collect();
            prop_assert!(valid.len() <= k as usize);
            for (i, a) in valid.iter().enumerate() {
                for b in &valid[i + 1..] {
                    prop_assert!(
                        (a.dppn_idx, a.line_in_page) != (b.dppn_idx, b.line_in_page),
                        "duplicate DL field"
                    );
                }
            }
        }
    }

    /// The helper table is bounded and returns only mappings it was taught.
    #[test]
    fn helper_table_returns_only_taught_mappings(
        inserts in prop::collection::vec((0u64..512, 0u64..4096), 1..300),
    ) {
        let mut h = HelperTable::new(32, 4);
        let mut taught = std::collections::HashMap::new();
        for (vpn, ppn) in inserts {
            h.insert(PageNum::new(vpn), PageNum::new(ppn));
            taught.insert(vpn, ppn); // latest mapping wins
        }
        for (&vpn, _) in taught.iter() {
            if let Some(got) = h.lookup(PageNum::new(vpn)) {
                prop_assert_eq!(got.get(), taught[&vpn], "stale/foreign mapping returned");
            }
        }
    }

    /// The D_PPN table always returns the frame currently stored at the
    /// index it handed out — or a detectable repointed one, never garbage.
    #[test]
    fn dppn_indices_resolve(frames in prop::collection::vec(0u64..100_000, 1..300)) {
        let mut t = DppnTable::new(64);
        for ppn in frames {
            let idx = t.insert(PageNum::new(ppn));
            let got = t.get(idx);
            prop_assert!(got.is_some(), "handed-out index must resolve");
            prop_assert!((idx as usize) < t.len());
        }
    }

    /// Entry replacement preserves exactly one of: old entry (preserved) or
    /// new entry (replaced) — never a mix of both tags/costs.
    #[test]
    fn collision_resolution_is_atomic(
        cost_pumps in 0u32..20,
        color in 0u8..8,
    ) {
        let mut t = PairTable::new(&small_cfg(1));
        // Two lines guaranteed to collide in a 64-entry table: scan for one.
        let a = LineAddr::new(1);
        let mut b = LineAddr::new(2);
        loop {
            t.update_on_data(a, true, 0, 0, 0, 32);
            let before = *t.entry_for(a);
            t.update_on_data(b, true, 1, 1, color, 32);
            let after = *t.entry_for(a);
            if after.il_line == b {
                // replaced: fresh entry with init-derived cost
                prop_assert!(after.miss_cost.get() >= 32);
                break;
            } else if after.il_line == a {
                if before.il_line == a && after.color == color && cost_pumps == 0 {
                    // preserved with refreshed color (or untouched when b
                    // mapped to a different slot).
                }
                b = LineAddr::new(b.get() + 1);
                if b.get() > 4096 { break; }
            } else {
                break;
            }
        }
    }

    /// The threshold register stays within the miss-cost range and inside
    /// its recorded (min, max), moves only in the dynamic mode, and the
    /// color timer ticks once per period and wraps at `COLORS`, for any
    /// interleaving of PMU records and LLC accesses.
    #[test]
    fn threshold_and_color_stay_in_range(
        period in 1u64..16,
        mode in 0usize..3,
        delta in -80i32..80,
        ops in prop::collection::vec((0u8..3, 0u64..16, prop::bool::ANY), 1..400),
    ) {
        let mode = [ThresholdMode::Dynamic, ThresholdMode::Fixed(delta), ThresholdMode::AllProtect][mode];
        let cfg = GaribaldiConfig { color_period: period, threshold_mode: mode, ..Default::default() };
        let mut u = ThresholdUnit::new(&cfg, 2);
        let initial = u.threshold();
        let mut accesses = 0u64;
        for (op, pc, hit) in ops {
            let t = ThreadId::new((pc % 2) as u16);
            let pc = VirtAddr::new(pc * 64);
            match op {
                0 => u.record_instr_miss(t, pc),
                1 => {
                    u.record_data_access(t, pc, hit);
                }
                _ => {
                    u.on_llc_access(hit);
                    accesses += 1;
                }
            }
            let (lo, hi) = u.threshold_range();
            prop_assert!(lo <= u.threshold() && u.threshold() <= hi && hi <= MAX_COST);
            if mode != ThresholdMode::Dynamic {
                prop_assert_eq!(u.threshold(), initial);
            }
            prop_assert_eq!(u.color_ticks(), accesses / period);
            prop_assert_eq!(u64::from(u.color()), u.color_ticks() % u64::from(COLORS));
        }
    }
}
