//! Property tests for the epoch-sharded engine over arbitrary traces.
//!
//! Streams are generated records (not registry workloads), replayed with
//! [`SimRunner::run_parallel_replay`], so the properties hold for inputs
//! no calibrated profile would produce.

use garibaldi_cache::PolicyKind;
use garibaldi_sim::engine::estimate::{Ewma, StreamClass};
use garibaldi_sim::engine::request::ReqOutcome;
use garibaldi_sim::{EngineConfig, ExperimentScale, LlcScheme, SimRunner, SystemConfig};
use garibaldi_trace::{TraceRecord, WorkloadMix};
use garibaldi_types::{RwKind, VirtAddr};
use proptest::prelude::*;

/// Epoch-window grid the properties sweep (cycles). Runs are a few
/// thousand cycles long, so this spans "many barriers" → "one barrier".
const EPOCH_GRID: [u64; 3] = [1_000, 8_000, 64_000];

/// Cores per run: deliberately not a multiple of the 4-core cluster size.
const CORES: usize = 6;

/// Cross-window tolerance for figure-bearing metrics. The fidelity study
/// (`docs/fidelity/`) measures ≤2 % on calibrated workloads at scale;
/// arbitrary tiny traces with maximal feedback staleness drift more, but
/// the engine must stay within the same order of magnitude.
const CROSS_EPOCH_TOL: f64 = 0.15;

/// Absolute slack: rate-type metrics (coverage, MPKI on barely-reused
/// random traces) sit near zero, where tiny absolute wobbles are huge
/// relative errors; a metric also passes when it moved by less than this.
const CROSS_EPOCH_ABS: f64 = 0.02;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0x40_0000u64..0x48_0000,
        1u8..9,
        prop::collection::vec((0u64..0x200_0000, prop::bool::ANY), 0..4),
        prop::bool::ANY,
    )
        .prop_map(|(pc, instrs, data, mis)| {
            let mut r = TraceRecord::fetch_only(VirtAddr::new(pc & !0x3), instrs);
            for (va, w) in data {
                r.push_data(VirtAddr::new(va), if w { RwKind::Write } else { RwKind::Read });
            }
            r.mispredict = mis;
            r
        })
}

fn arb_streams() -> impl Strategy<Value = Vec<Vec<TraceRecord>>> {
    prop::collection::vec(prop::collection::vec(arb_record(), 40..220), CORES..CORES + 1)
}

fn runner(scheme: LlcScheme) -> SimRunner {
    let scale = ExperimentScale { cores: CORES, ..ExperimentScale::smoke() };
    let cfg = SystemConfig::scaled(&scale, scheme);
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", CORES), 99)
}

proptest! {
    /// Determinism contract on arbitrary inputs: for any trace set, any
    /// fixed `epoch_cycles` and any learned-sync cadence, the worker count
    /// never changes one byte of the result. The ewma estimator is the
    /// sharp edge: its learned state must evolve identically no matter how
    /// clusters are scheduled onto workers (it merges from drained
    /// outcomes at barriers, in per-core sequence order), and the sync
    /// schedule — every `sync_every`-th epoch — is a pure function of the
    /// simulated schedule, never of worker scheduling.
    #[test]
    fn worker_count_never_changes_results(
        streams in arb_streams(),
        gi in 0usize..3,
        ki in 0usize..3,
    ) {
        let epoch = EPOCH_GRID[gi];
        let sync_every = [1usize, 3, 16][ki];
        let r = runner(LlcScheme::mockingjay_garibaldi());
        let records = streams[0].len() as u64;
        let warmup = records / 4;
        let eng = |w| EngineConfig {
            epoch_cycles: epoch,
            llc_shards: 8,
            sync_every,
            ..EngineConfig::with_workers(w)
        };
        let base = r.run_parallel_replay(&streams, records, warmup, &eng(1));
        for workers in [2usize, 4] {
            let other = r.run_parallel_replay(&streams, records, warmup, &eng(workers));
            prop_assert_eq!(
                &base, &other,
                "workers={} epoch={} sync_every={}",
                workers, epoch, sync_every
            );
        }
    }

    /// On stationary synthetic outcome streams, the EWMA estimator's
    /// absolute estimation error — |mean(estimate − outcome)|, the bias
    /// the `GARIBALDI_ENGINE_STATS=1` line reports — is non-increasing in
    /// trace length: the second half of a long stream is no worse than
    /// the first (which contains the cold start), up to sampling noise.
    /// (Per-outcome |error| has an irreducible floor set by the stream's
    /// own spread and is *not* monotone; the bias is what the estimator
    /// provably drives toward zero, and what the fidelity win rests on.)
    #[test]
    fn ewma_error_non_increasing_on_stationary_streams(
        hit_lat in 40u64..200,
        miss_pen in 50u64..2_000,
        hit_num in 0u32..=8,
        seed in 1u64..u64::MAX,
        class_data in prop::bool::ANY,
    ) {
        let scale = ExperimentScale { cores: CORES, ..ExperimentScale::smoke() };
        let cfg = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
        let mut est = Ewma::new(&cfg);
        let class = if class_data { StreamClass::Data } else { StreamClass::Ifetch };

        // Stationary process: P(hit) = hit_num/8, latencies constant per
        // stream; draws from a seeded xorshift so the property holds for
        // arbitrary stationary mixes, not one tuned example.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let half = 1_500usize;
        let mut bias = [0.0f64; 2];
        for b in bias.iter_mut() {
            let mut signed_sum = 0.0;
            for _ in 0..half {
                let hit = (next() % 8) < hit_num as u64;
                let latency = if hit { hit_lat } else { hit_lat + miss_pen };
                signed_sum += est.issue_estimate(class) as f64 - latency as f64;
                est.observe(class, ReqOutcome { latency, llc_hit: hit });
            }
            *b = (signed_sum / half as f64).abs();
        }
        // Sampling-noise slack: the outcome stream's own spread is up to
        // `miss_pen/2` per draw; averaged over the half it contributes
        // a few percent of that, far below the cold-start bias a
        // degrading estimator would retain (hundreds of cycles).
        prop_assert!(
            bias[1] <= bias[0] + 3.0 + 0.05 * miss_pen as f64,
            "stationary stream bias grew with length: first half {:.3}, second half {:.3}",
            bias[0], bias[1]
        );
    }

    /// Changing the epoch window is a *model* change, but a bounded one:
    /// figure-bearing metrics stay within tolerance across the grid.
    #[test]
    fn epoch_window_changes_metrics_only_within_tolerance(streams in arb_streams()) {
        let r = runner(LlcScheme::plain(PolicyKind::Mockingjay));
        let records = streams[0].len() as u64;
        let warmup = records / 4;
        let runs: Vec<_> = EPOCH_GRID
            .iter()
            .map(|&e| {
                let eng = EngineConfig { workers: 1, epoch_cycles: e, ..EngineConfig::default() };
                r.run_parallel_replay(&streams, records, warmup, &eng)
            })
            .collect();
        for (i, run) in runs.iter().enumerate().skip(1) {
            let diff = run.diff(&runs[0]);
            let bad: Vec<_> = diff
                .violations(CROSS_EPOCH_TOL)
                .into_iter()
                .filter(|m| (m.candidate - m.baseline).abs() > CROSS_EPOCH_ABS)
                .collect();
            prop_assert!(
                bad.is_empty(),
                "epoch {} vs {}: {:?}",
                EPOCH_GRID[i],
                EPOCH_GRID[0],
                bad
            );
        }
    }
}
