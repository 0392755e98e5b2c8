//! Reproducibility: identical (config, mix, seed) triples give bitwise
//! identical results; different seeds differ.

use garibaldi_cache::PolicyKind;
use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, SimRunner, SystemConfig,
};
use garibaldi_trace::WorkloadMix;

fn run(seed: u64, scheme: LlcScheme) -> garibaldi_sim::RunResult {
    let s = ExperimentScale::smoke();
    let cfg = SystemConfig::scaled(&s, scheme);
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", s.cores), seed)
        .run(s.records_per_core, s.warmup_per_core)
}

fn runner(seed: u64, scheme: LlcScheme, cores: usize) -> SimRunner {
    let s = ExperimentScale { cores, ..ExperimentScale::smoke() };
    let cfg = SystemConfig::scaled(&s, scheme);
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", cores), seed)
}

/// The sharded engine's determinism contract: same seed ⇒ byte-identical
/// `RunResult` for `workers = 1` vs `workers = N`. Exercised across both a
/// plain policy and the full Garibaldi stack, and with a core count that
/// does not divide evenly into clusters or shard chunks.
#[test]
fn parallel_engine_worker_count_invariance() {
    let s = ExperimentScale::smoke();
    for scheme in [LlcScheme::plain(PolicyKind::Mockingjay), LlcScheme::mockingjay_garibaldi()] {
        for cores in [s.cores, 6] {
            let base = runner(42, scheme.clone(), cores).run_on(
                s.records_per_core,
                s.warmup_per_core,
                &EngineChoice::Parallel(EngineConfig::with_workers(1)),
            );
            for workers in [2, 3, 4] {
                let r = runner(42, scheme.clone(), cores).run_on(
                    s.records_per_core,
                    s.warmup_per_core,
                    &EngineChoice::Parallel(EngineConfig::with_workers(workers)),
                );
                assert_eq!(base, r, "{} cores={cores} workers={workers}", scheme.label());
            }
        }
    }
}

/// Every learned-state sync cadence keeps the worker-count
/// byte-invariance contract, and the cadence is keyed off the epoch
/// count: one sync per epoch at k=1, every third epoch at k=3, none at a
/// cadence longer than the run.
#[test]
fn sync_every_is_deterministic_and_counts_epochs() {
    let s = ExperimentScale::smoke();
    let scheme = LlcScheme::mockingjay_garibaldi();
    let at = |sync_every, workers| {
        runner(42, scheme.clone(), s.cores).run_on(
            s.records_per_core,
            s.warmup_per_core,
            &EngineChoice::Parallel(EngineConfig {
                sync_every,
                workers,
                ..EngineConfig::default()
            }),
        )
    };
    for k in [1usize, 4, 16] {
        let base = at(k, 1);
        for workers in [2, 3, 4] {
            assert_eq!(base, at(k, workers), "k={k} workers={workers}");
        }
    }
    // The knob is actually wired. (Smoke-scale runs are too short for the
    // cadence to move figure metrics — the fidelity suite measures that at
    // scale — so the wiring check reads the engine's own account instead
    // of asserting metric movement.)
    let syncs = |sync_every| {
        let (_, stats) = runner(42, scheme.clone(), s.cores).run_parallel_stats(
            s.records_per_core,
            s.warmup_per_core,
            &EngineConfig { sync_every, ..EngineConfig::default() },
        );
        (stats.learned_syncs, stats.epochs)
    };
    let (s1, epochs) = syncs(1);
    assert!(epochs > 3, "smoke run spans several epochs ({epochs})");
    assert_eq!(s1, epochs, "k=1 syncs at every barrier");
    assert_eq!(syncs(1_000_000).0, 0, "cadence beyond run ⇒ no sync");
    let (s3, epochs3) = syncs(3);
    assert_eq!(s3, epochs3 / 3, "every third barrier syncs");
}

/// Dumped record streams replay bit-identically, on the sharded backend
/// and on the serial one.
#[test]
fn parallel_engine_replay_matches_live_generation() {
    let s = ExperimentScale::smoke();
    let r = runner(42, LlcScheme::mockingjay_garibaldi(), s.cores);
    let streams = r.generate_streams(s.records_per_core + s.warmup_per_core);
    let replaying = r.clone().with_streams(streams);
    for choice in [EngineChoice::Serial, EngineChoice::Parallel(EngineConfig::with_workers(2))] {
        let live = r.run_on(s.records_per_core, s.warmup_per_core, &choice);
        let replayed = replaying.run_on(s.records_per_core, s.warmup_per_core, &choice);
        assert_eq!(live, replayed, "{choice:?}");
    }
}

#[test]
fn same_seed_same_everything() {
    for scheme in [LlcScheme::plain(PolicyKind::Mockingjay), LlcScheme::mockingjay_garibaldi()] {
        let a = run(42, scheme.clone());
        let b = run(42, scheme.clone());
        assert_eq!(a.llc, b.llc, "{}", scheme.label());
        assert_eq!(a.dram, b.dram, "{}", scheme.label());
        for (ca, cb) in a.cores.iter().zip(&b.cores) {
            assert_eq!(ca.instrs, cb.instrs);
            assert!((ca.cycles - cb.cycles).abs() < 1e-9);
        }
        if let (Some(ga), Some(gb)) = (&a.garibaldi, &b.garibaldi) {
            assert_eq!(ga.stats, gb.stats);
            assert_eq!(ga.final_threshold, gb.final_threshold);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(1, LlcScheme::plain(PolicyKind::Lru));
    let b = run(2, LlcScheme::plain(PolicyKind::Lru));
    assert_ne!(a.llc.accesses(), b.llc.accesses());
}

#[test]
fn scheme_changes_behaviour() {
    let a = run(42, LlcScheme::plain(PolicyKind::Lru));
    let b = run(42, LlcScheme::plain(PolicyKind::Mockingjay));
    assert_ne!(a.llc.hits(), b.llc.hits(), "policies must differ behaviourally");
}
