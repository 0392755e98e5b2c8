//! Property-based tests for the workload/trace substrate.

use garibaldi_trace::{registry, serial, SyntheticProgram, TraceGenerator, TraceRecord, Zipf};
use garibaldi_types::{RwKind, VirtAddr};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..u64::MAX / 2,
        1u8..16,
        prop::collection::vec((0u64..u64::MAX / 2, prop::bool::ANY), 0..4),
        prop::bool::ANY,
    )
        .prop_map(|(pc, instrs, data, mis)| {
            let mut r = TraceRecord::fetch_only(VirtAddr::new(pc), instrs);
            for (va, w) in data {
                r.push_data(VirtAddr::new(va), if w { RwKind::Write } else { RwKind::Read });
            }
            r.mispredict = mis;
            r
        })
}

proptest! {
    /// Binary trace serialization round-trips arbitrary records.
    #[test]
    fn serialization_round_trips(records in prop::collection::vec(arb_record(), 0..100)) {
        let encoded = serial::encode(&records);
        let decoded = serial::decode(encoded).expect("decode");
        prop_assert_eq!(records, decoded);
    }

    /// Multi-stream (per-core dump) serialization round-trips arbitrary
    /// stream sets — including empty streams and empty sets — and rejects
    /// arbitrary truncation points instead of mis-decoding.
    #[test]
    fn multi_stream_serialization_round_trips(
        streams in prop::collection::vec(prop::collection::vec(arb_record(), 0..40), 0..6),
        cut in 1usize..64,
    ) {
        let encoded = serial::encode_multi(&streams);
        let decoded = serial::decode_multi(&encoded).expect("decode");
        prop_assert_eq!(&streams, &decoded);
        let cut = cut.min(encoded.len().saturating_sub(1));
        if cut > 0 {
            prop_assert!(
                serial::decode_multi(&encoded[..encoded.len() - cut]).is_err(),
                "truncation by {cut} bytes must not decode"
            );
        }
    }

    /// Zipf samples stay in range, and rank 0 is drawn at least as often
    /// as the last rank (up to sampling noise) for positive exponents.
    #[test]
    fn zipf_range_and_monotonicity(n in 2usize..2000, alpha in 0.1f64..2.0, seed in 0u64..1000) {
        use rand::{rngs::SmallRng, SeedableRng};
        let z = Zipf::new(n, alpha);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut first = 0usize;
        let mut last = 0usize;
        const DRAWS: usize = 2000;
        for _ in 0..DRAWS {
            let s = z.sample(&mut rng);
            prop_assert!(s < n);
            if s == 0 { first += 1; }
            if s == n - 1 { last += 1; }
        }
        // p(0)/p(n-1) = n^alpha ≥ 1; allow ~4σ of binomial noise.
        let noise = 4.0 * (DRAWS as f64).sqrt();
        prop_assert!(
            first as f64 + noise >= last as f64,
            "rank 0 ({first}) must not lose to rank n-1 ({last})"
        );
    }

    /// Profile scaling preserves validity and shrinks footprints.
    #[test]
    fn profile_scaling_preserves_validity(idx in 0usize..24, f in 0.05f64..1.0) {
        let p = &registry::all_workloads()[idx];
        let s = p.scaled(f);
        s.validate().expect("scaled profile valid");
        prop_assert!(s.instr_footprint_bytes() <= p.instr_footprint_bytes());
        prop_assert!(s.hot_data_lines <= p.hot_data_lines.max(64));
        prop_assert_eq!(s.hot_frac, p.hot_frac);
    }

    /// Generated records always respect the program's address regions and
    /// the data-reference bound, for any registry workload and seed.
    #[test]
    fn generated_records_are_well_formed(idx in 0usize..24, seed in 0u64..50) {
        let profile = registry::all_workloads()[idx].scaled(0.1);
        let program = SyntheticProgram::build(&profile, seed);
        let text_top = 0x40_0000 + program.text_lines() as u64 * 64;
        for rec in TraceGenerator::new(&program, seed ^ 1).take(300) {
            prop_assert!(rec.pc.get() >= 0x40_0000 && rec.pc.get() < text_top);
            prop_assert!(rec.data_refs().len() <= 4);
            prop_assert!(rec.instrs > 0);
        }
    }
}
