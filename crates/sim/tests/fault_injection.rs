//! Deterministic fault-injection battery (see `garibaldi_sim::fault`).
//!
//! Every injected fault must end in one of exactly two outcomes: a clean
//! structured error ([`CheckpointError`] / [`EngineError`]) or a recovered,
//! byte-identical result — never a hang, a process abort, or a corrupted
//! checkpoint. Fault scopes are process-global, so `with_faults`
//! serializes every test here behind one lock; the engine tests keep all
//! engine construction inside those scopes so the watchdog test's
//! environment mutation cannot leak into a concurrently built engine.

use garibaldi_cache::CacheStats;
use garibaldi_mem::DramStats;
use garibaldi_sim::fault::with_faults;
use garibaldi_sim::metrics::{ConditionalMatrix, CoreResult};
use garibaldi_sim::{
    checkpoint, CpiStack, EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult,
    SimRunner, SystemConfig,
};
use garibaldi_trace::WorkloadMix;

fn sample(ipc: f64) -> RunResult {
    RunResult {
        scheme: "LRU".into(),
        cores: vec![CoreResult {
            workload: "tpcc".into(),
            instrs: 1000,
            cycles: 1000.0 / ipc,
            ipc,
            stack: CpiStack::default(),
        }],
        l1: CacheStats::default(),
        l1i: CacheStats::default(),
        l2: CacheStats::default(),
        llc: CacheStats::default(),
        dram: DramStats::default(),
        garibaldi: None,
        conditional: ConditionalMatrix::default(),
        reuse: None,
        energy: garibaldi_sim::EnergyReport::default(),
        qbs_cycles: 0,
        invalidations: 0,
    }
}

fn temp_ckpt(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("garibaldi-fault-injection");
    let _ = std::fs::remove_file(dir.join(name));
    dir.join(name)
}

/// A short write mid-append (simulated crash) leaves a torn tail that the
/// next load salvages exactly; re-appending the lost record resumes the
/// sweep with the sealed torn frame rejected by its CRC.
#[test]
fn short_write_tears_the_tail_and_resume_salvages_it() {
    let path = temp_ckpt("short_write.jsonl");
    with_faults("io_short_write@2", || {
        checkpoint::append_tagged(&path, "-", "a", &sample(1.0)).unwrap();
        // The "crashing" append writes half a frame and reports success —
        // exactly what a caller sees when the process dies mid-write.
        checkpoint::append_tagged(&path, "-", "b", &sample(2.0)).unwrap();
    });

    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert_eq!(m.len(), 1, "only the committed record survives");
    assert!((m["a"].cores[0].ipc - 1.0).abs() < 1e-12);
    assert!(rep.truncated_tail, "the torn frame is reported, not silently eaten");
    assert_eq!((rep.parsed, rep.skipped_garbage, rep.version_mismatches), (1, 0, 0));

    // Resume: re-run the lost record. The glue newline seals the torn
    // frame into a complete line whose CRC then fails — garbage, counted.
    checkpoint::append_tagged(&path, "-", "b", &sample(2.0)).unwrap();
    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert_eq!(m.len(), 2, "the sweep resumed");
    assert!((m["b"].cores[0].ipc - 2.0).abs() < 1e-12);
    assert!(!rep.truncated_tail);
    assert_eq!((rep.parsed, rep.skipped_garbage), (2, 1), "sealed torn frame fails its CRC");
    let _ = std::fs::remove_file(&path);
}

/// A transient I/O error on the first attempt is absorbed by the bounded
/// retry; the record lands intact.
#[test]
fn transient_io_error_is_retried_and_recovers() {
    let path = temp_ckpt("transient.jsonl");
    with_faults("io_error@1", || {
        checkpoint::append_retry(&path, "tag", "a", &sample(1.5), 3).unwrap();
    });
    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert!(rep.is_clean(), "retried append commits a clean file: {rep}");
    assert!((m["a"].cores[0].ipc - 1.5).abs() < 1e-12);
    let _ = std::fs::remove_file(&path);
}

/// When every attempt fails, the bounded retry gives up with a typed
/// error naming the path — and writes nothing.
#[test]
fn persistent_io_error_exhausts_the_retry_budget() {
    let path = temp_ckpt("persistent.jsonl");
    let err = with_faults("io_error@1,io_error@2,io_error@3", || {
        checkpoint::append_retry(&path, "tag", "a", &sample(1.0), 3)
            .expect_err("all three attempts faulted")
    });
    assert!(err.to_string().contains("persistent.jsonl"), "typed error names the path: {err}");
    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert!(m.is_empty() && rep.is_clean(), "nothing was committed");
    let _ = std::fs::remove_file(&path);
}

fn runner() -> SimRunner {
    runner_with(ExperimentScale::smoke().cores)
}

fn runner_with(cores: usize) -> SimRunner {
    let s = ExperimentScale { cores, ..ExperimentScale::smoke() };
    let cfg = SystemConfig::scaled(&s, LlcScheme::mockingjay_garibaldi());
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", cores), 42)
}

/// Small epochs so low epoch ordinals exist even at smoke scale.
fn eng() -> EngineConfig {
    EngineConfig { workers: 2, epoch_cycles: 2_000, llc_shards: 4, ..Default::default() }
}

/// [`eng`] as the engine a run picks.
fn parallel() -> EngineChoice {
    EngineChoice::Parallel(eng())
}

fn smoke() -> (u64, u64) {
    let s = ExperimentScale::smoke();
    (s.records_per_core, s.warmup_per_core)
}

/// A worker panic in the step phase becomes a structured [`EngineError`]
/// carrying the epoch, phase, and implicated unit — not a process abort.
/// Eight cores make two clusters: with two workers, cluster 0 steps on the
/// calling thread and cluster 1 on the pool's helper.
#[test]
fn step_panic_is_contained_as_a_structured_error() {
    let r = runner_with(8);
    let (rec, warm) = smoke();
    for (spec, unit) in [
        ("panic@epoch:3", None),
        ("panic@epoch:3/unit:0", Some(0)),
        ("panic@epoch:3/unit:1", Some(1)),
    ] {
        let err = with_faults(spec, || {
            r.try_run_on(rec, warm, &parallel()).expect_err("injected step panic")
        });
        assert_eq!(err.epoch, 3, "failure stamped with the faulted epoch: {err}");
        assert_eq!(err.phase, "step");
        assert!(err.shard.is_some(), "step failures implicate a cluster unit");
        if unit.is_some() {
            assert_eq!(err.shard, unit, "{spec}");
        }
        assert!(err.payload.contains("injected fault"), "payload preserved: {}", err.payload);
    }
}

/// Same containment for the barrier's shard-drain phase. With four shards
/// on two workers, shard 0 drains on the calling thread and shard 3 on
/// the helper.
#[test]
fn drain_panic_is_contained_with_the_shard_index() {
    let r = runner();
    let (rec, warm) = smoke();
    for (spec, unit) in [
        ("panic.drain@epoch:2", None),
        ("panic.drain@epoch:2/unit:0", Some(0)),
        ("panic.drain@epoch:2/unit:3", Some(3)),
    ] {
        let err = with_faults(spec, || {
            r.try_run_on(rec, warm, &parallel()).expect_err("injected drain panic")
        });
        assert_eq!(err.epoch, 2);
        assert_eq!(err.phase, "drain");
        assert!(err.shard.is_some(), "drain failures implicate a shard");
        if unit.is_some() {
            assert_eq!(err.shard, unit, "{spec}");
        }
    }
}

/// Same containment for the learned-state merge (the pooled phase: no
/// unit index). Syncing at every barrier makes epoch 2 a merging
/// barrier.
#[test]
fn merge_panic_is_contained_without_a_unit_index() {
    let r = runner();
    let (rec, warm) = smoke();
    let cfg = EngineConfig { sync_every: 1, ..eng() };
    let err = with_faults("panic.merge@epoch:2", || {
        r.try_run_on(rec, warm, &EngineChoice::Parallel(cfg)).expect_err("injected merge panic")
    });
    assert_eq!(err.phase, "merge");
    assert_eq!(err.shard, None, "the pooled merge implicates no single unit");
}

/// Graceful degradation, first half: a contained parallel failure comes
/// back as an error the caller can fall back on, stamped with its phase.
#[test]
fn failed_parallel_run_returns_the_error_to_fall_back_on() {
    let r = runner();
    let (rec, warm) = smoke();
    let err = with_faults("panic@epoch:2", || r.try_run_on(rec, warm, &parallel()))
        .expect_err("the parallel attempt failed");
    assert_eq!(err.phase, "step");
}

/// Graceful degradation, second half: the serial fallback runs no fault
/// hook, so under the same fault plan it reproduces the clean serial run
/// byte for byte.
#[test]
fn serial_fallback_under_a_fault_plan_matches_the_clean_serial_run() {
    let r = runner();
    let (rec, warm) = smoke();
    let reference = r.run_serial(rec, warm);
    let got = with_faults("panic@epoch:2", || r.run_on(rec, warm, &EngineChoice::Serial));
    assert_eq!(got, reference, "serial fallback reproduces the golden result exactly");
}

/// An injected stall (a worker stuck at the barrier) is broken by the
/// `GARIBALDI_BARRIER_TIMEOUT_S` watchdog: the run ends in a structured
/// timeout error carrying the per-worker state dump — it never hangs. The
/// watchdog is its own thread, so it also breaks a stall on the calling
/// thread (shard 0).
#[test]
fn stalled_drain_is_broken_by_the_barrier_watchdog() {
    let r = runner();
    let (rec, warm) = smoke();
    for spec in ["stall@epoch:2", "stall@epoch:2/unit:0"] {
        let err = with_faults(spec, || {
            // Set inside the fault scope: every engine-building test in this
            // binary runs inside `with_faults`, which serializes on one lock,
            // so no other engine can observe this 1 s timeout.
            std::env::set_var("GARIBALDI_BARRIER_TIMEOUT_S", "1");
            let out = r.try_run_on(rec, warm, &parallel());
            std::env::remove_var("GARIBALDI_BARRIER_TIMEOUT_S");
            out.expect_err("stalled barrier must time out")
        });
        assert_eq!(err.epoch, 2);
        assert_eq!(err.phase, "drain");
        assert!(err.payload.contains("watchdog timeout"), "{}", err.payload);
        assert!(err.payload.contains("running"), "state dump embedded: {}", err.payload);
    }
}

/// A malformed fault spec fails loudly (a campaign that silently no-ops
/// is worse than a loud failure).
#[test]
fn malformed_fault_specs_panic_with_the_offending_spec() {
    for bad in ["bogus@1", "panic@epoch:x", "io_error@epoch:3", "io_short_write.drain@1"] {
        let err = std::panic::catch_unwind(|| with_faults(bad, || ()))
            .expect_err("malformed spec must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("GARIBALDI_FAULTS"), "names the variable: {msg:?}");
    }
}
