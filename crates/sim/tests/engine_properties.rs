//! Property tests for the epoch-sharded engine over arbitrary traces.
//!
//! Streams are generated records (not registry workloads), replayed with
//! [`SimRunner::with_streams`], so the properties hold for inputs no
//! calibrated profile would produce.

use garibaldi::config::PMU_RECENT_PCS;
use garibaldi::{GaribaldiConfig, ThreadPmu, ThresholdState, ThresholdUnit};
use garibaldi_cache::PolicyKind;
use garibaldi_sim::engine::estimate::{Ewma, StreamClass};
use garibaldi_sim::engine::private::{
    RecordSource, EPOCH_REQUEST_BUDGET, EPOCH_RUN_BOUND, RECORD_REQUEST_CEILING,
};
use garibaldi_sim::engine::replay::{
    close_periods, period_cuts, replay_core, DemandKind, DemandReq,
};
use garibaldi_sim::engine::request::{ReqKey, ReqOutcome};
use garibaldi_sim::metrics::ConditionalMatrix;
use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, ParallelEngine, SimRunner, SystemConfig,
};
use garibaldi_trace::registry::SPEC_NAMES;
use garibaldi_trace::{SharedAddressSpace, TraceRecord, WorkloadMix};
use garibaldi_types::{Fields, RwKind, ThreadId, VirtAddr};
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

/// One demand access: the clock step before it, instruction or data, a PC
/// line out of [`PC_LINES`], the LLC outcome, and (for data) whether it
/// pairs with the core's last instruction access.
type Access = (u64, bool, u64, bool, bool);

/// Distinct PC lines of the demand streams: more than the PMU ring holds
/// ([`PMU_RECENT_PCS`]), so a core's ring wraps and evicts lines that
/// recur.
const PC_LINES: u64 = 2 * PMU_RECENT_PCS as u64 + 4;

/// One demand stream per core, long enough that a core's ring wraps
/// within one long period.
fn arb_demand() -> impl Strategy<Value = Vec<Vec<Access>>> {
    let access = (0u64..3, prop::bool::ANY, 0..PC_LINES, prop::bool::ANY, prop::bool::ANY);
    prop::collection::vec(prop::collection::vec(access, 0..120), 1..5)
}

/// Periods of 1, of a few accesses (several boundaries per epoch) and of
/// more than one epoch's accesses.
fn arb_period() -> impl Strategy<Value = u64> {
    (0usize..3, 2u64..8, 45u64..90).prop_map(|(i, few, many)| [1, few, many][i])
}

/// Registry profiles the barrier-bound property draws its mixes from:
/// the SPEC profiles, whose cold first epoch buffers the most requests,
/// then a server and a shared-data profile.
fn mix_profiles() -> Vec<&'static str> {
    SPEC_NAMES.iter().copied().chain(["tpcc", "barnes"]).collect()
}

/// Random registry mixes of 2–5 cores, mostly SPEC: each core takes a SPEC
/// profile, or with probability one half any profile of [`mix_profiles`].
fn arb_mix() -> impl Strategy<Value = Vec<String>> {
    let n = mix_profiles().len();
    prop::collection::vec((0..SPEC_NAMES.len(), 0..n, prop::bool::ANY), 2..6).prop_map(|picks| {
        let names = mix_profiles();
        picks
            .into_iter()
            .map(|(spec, any, odd)| names[if odd { any } else { spec }].to_string())
            .collect()
    })
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
        let records = streams[0].len() as u64;
        let warmup = records / 4;
        let r = runner(LlcScheme::mockingjay_garibaldi()).with_streams(streams);
        let eng = |w| EngineChoice::Parallel(EngineConfig {
            epoch_cycles: epoch,
            llc_shards: 8,
            sync_every,
            ..EngineConfig::with_workers(w)
        });
        let base = r.run_on(records, warmup, &eng(1));
        for workers in [2usize, 4] {
            let other = r.run_on(records, warmup, &eng(workers));
            prop_assert_eq!(
                &base, &other,
                "workers={} epoch={} sync_every={}",
                workers, epoch, sync_every
            );
        }
    }

    /// The request budget bounds every barrier: over random registry mixes
    /// no barrier drains more than `cores × (EPOCH_REQUEST_BUDGET +
    /// RECORD_REQUEST_CEILING)` requests, warmup included, whatever the
    /// worker count, and the budget keeps results byte-identical across
    /// worker counts. The warmup is long enough that without the budget a
    /// SPEC core's first epoch, charged the cold LLC-hit estimate, would
    /// buffer well past it.
    #[test]
    fn barrier_requests_stay_within_the_budget_bound(mix in arb_mix(), seed in 0u64..1_000) {
        let cores = mix.len();
        let scale = ExperimentScale { cores, ..ExperimentScale::smoke() };
        let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
        let r = SimRunner::new(cfg, WorkloadMix { slots: mix.clone() }, seed);
        let bound = cores as u64 * u64::from(EPOCH_REQUEST_BUDGET + RECORD_REQUEST_CEILING);
        let run = |w| r.run_parallel_stats(400, 1_600, &EngineConfig::with_workers(w));
        let (base, stats) = run(1);
        prop_assert!(stats.peak_barrier_requests > 0, "{:?}: no barrier drained", mix);
        prop_assert!(
            stats.peak_barrier_requests <= bound,
            "{:?}: a barrier drained {} requests, bound {}",
            mix, stats.peak_barrier_requests, bound
        );
        for workers in [2usize, 3] {
            let (other, s) = run(workers);
            prop_assert_eq!(&base, &other, "{:?} workers={}", mix, workers);
            prop_assert_eq!(s.peak_barrier_requests, stats.peak_barrier_requests);
        }
    }

    /// Each core's request run and outcome table are allocated once at
    /// the schedule's bound and never regrown: over random SPEC-heavy
    /// registry mixes at 1–3 workers every core ends the epoch schedule
    /// with a run and a table of `EPOCH_RUN_BOUND` entries' capacity, and
    /// the serial schedule with ones of `RECORD_REQUEST_CEILING`.
    #[test]
    fn request_runs_keep_their_build_time_capacity(
        mix in arb_mix(),
        seed in 0u64..1_000,
        workers in 1usize..4,
    ) {
        let cores = mix.len();
        let scale = ExperimentScale { cores, ..ExperimentScale::smoke() };
        let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
        let mix = WorkloadMix { slots: mix };
        let r = SimRunner::new(cfg.clone(), mix.clone(), seed);
        let (_, epoch) = r.run_parallel_stats(400, 1_600, &EngineConfig::with_workers(workers));
        let bound = vec![EPOCH_RUN_BOUND as usize; cores];
        prop_assert_eq!(&epoch.run_capacity, &bound, "{:?}", mix);
        prop_assert_eq!(&epoch.outcome_capacity, &bound, "{:?}", mix);

        let streams = r.generate_streams(2_000);
        let sources = streams
            .iter()
            .enumerate()
            .map(|(i, s)| (RecordSource::Replay { records: s, pos: 0 }, SharedAddressSpace::new(i as u64)))
            .collect();
        let engine = ParallelEngine::new(&cfg, &EngineChoice::Serial, mix.clone(), sources);
        let (_, serial) = engine.try_run(400, 1_600).expect("the serial schedule never errs");
        let bound = vec![RECORD_REQUEST_CEILING as usize; cores];
        prop_assert_eq!(&serial.run_capacity, &bound, "{:?}", mix);
        prop_assert_eq!(&serial.outcome_capacity, &bound, "{:?}", mix);
    }

    /// On stationary synthetic outcome streams, the EWMA estimator's
    /// absolute estimation error — |mean(estimate − outcome)|, the bias
    /// `EngineStats`'s summary reports — is non-increasing in
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
        let mut est = Ewma::default();
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
        let records = streams[0].len() as u64;
        let warmup = records / 4;
        let r = runner(LlcScheme::plain(PolicyKind::Mockingjay)).with_streams(streams);
        let runs: Vec<_> = EPOCH_GRID
            .iter()
            .map(|&e| {
                let eng = EngineConfig { workers: 1, epoch_cycles: e, ..EngineConfig::default() };
                r.run_on(records, warmup, &EngineChoice::Parallel(eng))
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

/// Clock units per epoch in the replay property.
const REPLAY_EPOCH: u64 = 10;

proptest! {
    /// Per-core threshold replay against period cuts, with the shares
    /// merged at each boundary, equals the sequential unit fed every
    /// access in global key order: threshold, color, color ticks, min/max
    /// and open-period counters, every core's ring, and the conditional
    /// matrix (summed per two-core cluster) — after every epoch.
    #[test]
    fn per_core_threshold_replay_equals_global_order(
        streams in arb_demand(),
        period in arb_period(),
    ) {
        let cfg = GaribaldiConfig { color_period: period, ..Default::default() };
        let n = streams.len();
        // Keys, demand lists and outcomes per core.
        let mut lists: Vec<Vec<DemandReq>> = vec![Vec::new(); n];
        let mut outcomes: Vec<Vec<ReqOutcome>> = vec![Vec::new(); n];
        for (c, stream) in streams.iter().enumerate() {
            let (mut now, mut last_instr) = (0u64, None);
            for (seq, &(dt, instr, pc, hit, paired)) in stream.iter().enumerate() {
                now += dt;
                let key = ReqKey { now, core: c as u16, seq: seq as u32 };
                let kind = if instr {
                    last_instr = Some(seq as u32);
                    DemandKind::Instr
                } else {
                    DemandKind::Data { ifetch_seq: last_instr.filter(|_| paired) }
                };
                lists[c].push(DemandReq { key, pc: VirtAddr::new(0x40_0000 + pc * 64 + dt), kind });
                outcomes[c].push(ReqOutcome { latency: 0, llc_hit: hit });
            }
        }
        let mut global: Vec<DemandReq> = lists.iter().flatten().copied().collect();
        global.sort_by_key(|d| d.key);

        let mut unit = ThresholdUnit::new(&cfg, n);
        let mut cond_seq = ConditionalMatrix::default();
        let mut state = ThresholdState::new(&cfg);
        let mut pmus = vec![ThreadPmu::default(); n];
        let mut shares = vec![Vec::new(); n];
        let mut conds = vec![ConditionalMatrix::default(); n.div_ceil(2)];
        let (mut cuts, mut sums, mut next) = (Vec::new(), Vec::new(), 0usize);
        let end = global.last().map_or(0, |d| d.key.now);
        for epoch in 0..=end / REPLAY_EPOCH {
            let horizon = (epoch + 1) * REPLAY_EPOCH;
            // Sequential reference, up to the epoch's horizon.
            while let Some(d) = global.get(next).filter(|d| d.key.now < horizon) {
                next += 1;
                let o = &outcomes[d.key.core as usize];
                let hit = o[d.key.seq as usize].llc_hit;
                let t = ThreadId::new(d.key.core);
                unit.on_llc_access(hit);
                match d.kind {
                    DemandKind::Instr => {
                        if !hit {
                            unit.record_instr_miss(t, d.pc);
                        }
                    }
                    DemandKind::Data { ifetch_seq } => {
                        unit.record_data_access(t, d.pc, hit);
                        if let Some(fs) = ifetch_seq {
                            cond_seq.record(!o[fs as usize].llc_hit, hit);
                        }
                    }
                }
            }
            // Per core against the epoch's cuts.
            let batch: Vec<&[DemandReq]> = lists
                .iter()
                .map(|l| {
                    let lo = l.partition_point(|d| d.key.now < horizon - REPLAY_EPOCH);
                    let hi = l.partition_point(|d| d.key.now < horizon);
                    &l[lo..hi]
                })
                .collect();
            period_cuts(&batch, state.accesses_to_close(), state.period(), &mut cuts);
            for c in 0..n {
                replay_core(batch[c], &outcomes[c], &cuts, Some(&mut pmus[c]), &mut shares[c], &mut conds[c / 2]);
            }
            close_periods(&mut state, cuts.len(), shares.iter().map(Vec::as_slice), &mut sums);

            prop_assert_eq!(unit.state(), &state, "epoch {}", epoch);
            for (c, p) in pmus.iter().enumerate() {
                prop_assert_eq!(unit.thread(ThreadId::new(c as u16)), p, "ring of core {} epoch {}", c, epoch);
            }
            let mut cond = ConditionalMatrix::default();
            for k in &conds {
                cond.merge(k);
            }
            prop_assert_eq!(cond, cond_seq, "epoch {}", epoch);
        }
        prop_assert_eq!(next, global.len());
    }
}
