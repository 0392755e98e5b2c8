//! Property-based tests for the workload/trace substrate.

use garibaldi_trace::program::LineBehavior;
use garibaldi_trace::{
    registry, serial, SyntheticProgram, TraceGenerator, TraceRecord, WorkloadProfile, Zipf,
};
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

/// The per-line `[u32; 4]` builder that `SyntheticProgram`'s flat text
/// layout replaced, kept as a reference model: the same RNG draws in the
/// same order, one `LineBehavior` per text line, plus the function table.
fn reference_layout(profile: &WorkloadProfile, seed: u64) -> (Vec<(u32, u32)>, Vec<LineBehavior>) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let hot_zipf = Zipf::new(profile.hot_data_lines as usize, profile.hot_zipf);
    let n_funcs = profile.n_funcs as usize;
    let base = profile.lines_per_func as i64;
    let delta = (base / 4).max(1);
    let mut funcs = Vec::new();
    let mut behaviors = Vec::new();
    for fi in 0..n_funcs {
        let n_lines = (base + rng.gen_range(-delta..=delta)).max(2) as u32;
        funcs.push((behaviors.len() as u32, n_lines));
        let rank = fi as f64 / n_funcs.max(1) as f64;
        let hot_p = if profile.correlate_hot {
            (profile.hot_frac * 2.0 * (1.0 - rank)).min(1.0)
        } else {
            profile.hot_frac
        };
        for _ in 0..n_lines {
            let behavior = if rng.gen::<f64>() < hot_p {
                let mut pairs = [0u32; 4];
                let n = profile.pairs_per_line.min(4);
                for p in pairs.iter_mut().take(n as usize) {
                    *p = hot_zipf.sample(&mut rng) as u32;
                }
                LineBehavior::Hot { pairs, n }
            } else {
                LineBehavior::Cold
            };
            behaviors.push(behavior);
        }
    }
    (funcs, behaviors)
}

proptest! {
    /// The flat text layout (one `u32` per line, hot pairs pooled) gives
    /// every registry profile, at any seed and scale, the functions, line
    /// behaviours, text size and hot-line fraction of the per-line builder.
    #[test]
    fn program_layout_matches_the_per_line_builder(
        idx in 0usize..registry::all_workloads().len(),
        seed in 0u64..u64::MAX,
        f in 0.05f64..1.0,
    ) {
        let profile = registry::all_workloads()[idx].scaled(f);
        let program = SyntheticProgram::build(&profile, seed);
        let (funcs, behaviors) = reference_layout(&profile, seed);
        prop_assert_eq!(program.n_funcs(), funcs.len());
        for (i, &(first_line, n_lines)) in funcs.iter().enumerate() {
            let func = program.func(i);
            prop_assert_eq!((func.first_line, func.n_lines), (first_line, n_lines));
        }
        prop_assert_eq!(program.text_lines(), behaviors.len());
        for (i, &b) in behaviors.iter().enumerate() {
            prop_assert_eq!(program.behavior(i as u32), b, "line {}", i);
        }
        let hot = behaviors.iter().filter(|b| matches!(b, LineBehavior::Hot { .. })).count();
        prop_assert_eq!(program.hot_line_fraction(), hot as f64 / behaviors.len() as f64);
    }
}

proptest! {
    /// A shared program is the program `build` makes from the same key:
    /// the same functions, text size and behaviour on every line, for any
    /// registry profile, seed and scale.
    #[test]
    fn shared_programs_equal_built_ones(
        idx in 0usize..registry::all_workloads().len(),
        seed in 0u64..u64::MAX,
        f in 0.05f64..1.0,
    ) {
        let profile = registry::all_workloads()[idx].scaled(f);
        let shared = SyntheticProgram::shared(&profile, seed);
        let built = SyntheticProgram::build(&profile, seed);
        prop_assert_eq!(shared.profile(), built.profile());
        prop_assert_eq!(shared.n_funcs(), built.n_funcs());
        for i in 0..built.n_funcs() {
            prop_assert_eq!(shared.func(i), built.func(i));
        }
        prop_assert_eq!(shared.text_lines(), built.text_lines());
        for i in 0..built.text_lines() as u32 {
            prop_assert_eq!(shared.behavior(i), built.behavior(i), "line {}", i);
        }
    }
}
