//! Way-partitioning baseline for instruction protection (Fig 14d).
//!
//! The comparison point in §7.3: reserve `n` LLC ways for instruction
//! lines (with an Emissary-style criticality filter on pipeline events,
//! approximated here as "instruction lines that missed at the LLC"), leaving
//! the remaining ways to data. Implemented as *allowed-way masks* consumed
//! by `SetAssocCache::fill` under `Fill::partition` — partitioning
//! constrains where a fill may land rather than how victims are ranked.

/// Returns `(instr_mask, data_mask)`: the ways an instruction line /
/// data line may occupy when `reserved` ways are set aside for
/// instructions out of `ways` total.
///
/// With `reserved == 0` both masks cover the whole set (no partitioning).
/// Instruction lines may use **only** the reserved ways; data lines only
/// the rest — the strict isolation whose associativity loss the paper
/// demonstrates (8-way reservation degrades below LRU).
///
/// # Panics
///
/// Panics if `reserved > ways` or `ways > 64`.
pub fn instruction_way_mask(ways: usize, reserved: usize) -> (u64, u64) {
    assert!(ways <= 64, "mask is 64-bit");
    assert!(reserved <= ways, "cannot reserve more ways than exist");
    let all = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
    if reserved == 0 {
        return (all, all);
    }
    let instr = (1u64 << reserved) - 1;
    let data = all & !instr;
    // Degenerate full reservation: data still needs somewhere to live.
    if data == 0 {
        return (instr, all);
    }
    (instr, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_partition_shares_everything() {
        let (i, d) = instruction_way_mask(12, 0);
        assert_eq!(i, (1 << 12) - 1);
        assert_eq!(d, i);
    }

    #[test]
    fn reserved_ways_split() {
        let (i, d) = instruction_way_mask(12, 2);
        assert_eq!(i, 0b11);
        assert_eq!(d, ((1u64 << 12) - 1) & !0b11);
        assert_eq!(i & d, 0, "strict isolation");
        assert_eq!(i | d, (1 << 12) - 1);
    }

    #[test]
    fn full_reservation_keeps_data_usable() {
        let (i, d) = instruction_way_mask(4, 4);
        assert_eq!(i, 0b1111);
        assert_eq!(d, 0b1111);
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn over_reservation_panics() {
        let _ = instruction_way_mask(4, 5);
    }
}
