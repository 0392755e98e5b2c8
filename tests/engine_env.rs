//! Environment-driven engine selection, end to end.
//!
//! These tests mutate real environment variables, so they live in their
//! own test binary (its own process) and serialize on one mutex — the
//! other test binaries never read these variables while this one runs.

use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner, SystemConfig,
};
use garibaldi_trace::WorkloadMix;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Variables of engine axes that no longer exist (cleared like `VARS`).
const RETIRED: [&str; 3] = ["GARIBALDI_ESTIMATOR", "GARIBALDI_TRAIN_MODE", "GARIBALDI_SYNC_EVERY"];

const VARS: [&str; 5] = [
    "GARIBALDI_ENGINE",
    "GARIBALDI_WORKERS",
    "GARIBALDI_SHARDS",
    "GARIBALDI_EPOCH",
    "GARIBALDI_BARRIER_TIMEOUT_S",
];

/// Runs `f` with exactly `vars` set, restoring a clean slate after.
fn with_env<T>(vars: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for v in VARS.iter().chain(&RETIRED) {
        std::env::remove_var(v);
    }
    for (k, v) in vars {
        std::env::set_var(k, v);
    }
    let out = f();
    for v in VARS.iter().chain(&RETIRED) {
        std::env::remove_var(v);
    }
    out
}

fn runner() -> SimRunner {
    let s = ExperimentScale::smoke();
    let cfg = SystemConfig::scaled(&s, LlcScheme::mockingjay_garibaldi());
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", s.cores), 42)
}

fn smoke_run(r: &SimRunner) -> RunResult {
    let s = ExperimentScale::smoke();
    r.run(s.records_per_core, s.warmup_per_core)
}

/// `GARIBALDI_ENGINE=serial` reproduces the serial engine exactly — even
/// when `GARIBALDI_WORKERS` would otherwise force the parallel one (the
/// escape hatch the benches' parallel-default flip documents).
#[test]
fn engine_serial_reproduces_serial_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let reference = r.run_serial(s.records_per_core, s.warmup_per_core);
    let forced =
        with_env(&[("GARIBALDI_ENGINE", "serial"), ("GARIBALDI_WORKERS", "2")], || smoke_run(&r));
    assert_eq!(reference, forced);
    let plain = with_env(&[("GARIBALDI_ENGINE", "serial")], || smoke_run(&r));
    assert_eq!(reference, plain);
}

/// `GARIBALDI_ENGINE=parallel` routes through the epoch-sharded engine
/// with env-overridable geometry.
#[test]
fn engine_parallel_forces_parallel_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let eng = EngineConfig { workers: 1, epoch_cycles: 7_000, llc_shards: 4, ..Default::default() };
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &eng);
    let forced = with_env(
        &[("GARIBALDI_ENGINE", "parallel"), ("GARIBALDI_EPOCH", "7000"), ("GARIBALDI_SHARDS", "4")],
        || smoke_run(&r),
    );
    assert_eq!(reference, forced);
    // Serial differs from the 7k-epoch parallel run on this workload
    // (otherwise the two assertions above prove nothing).
    let serial = r.run_serial(s.records_per_core, s.warmup_per_core);
    assert_ne!(serial, reference, "engines must be distinguishable at smoke scale");
}

/// Bare `GARIBALDI_WORKERS` still flips to the parallel engine (the PR-2
/// forcing mechanism CI's parallel-engine leg uses).
#[test]
fn bare_workers_still_selects_parallel() {
    let choice =
        with_env(&[("GARIBALDI_WORKERS", "3")], || EngineChoice::from_env_or(EngineChoice::Serial));
    match choice {
        EngineChoice::Parallel(c) => assert_eq!(c.workers, 3),
        EngineChoice::Serial => panic!("GARIBALDI_WORKERS must select the parallel engine"),
    }
}

/// `GARIBALDI_BARRIER_TIMEOUT_S` arms the barrier watchdog at engine
/// construction: a generous timeout never fires and never changes results
/// (determinism is engine-geometry-only), and malformed values fail
/// loudly on the main thread, naming the variable.
#[test]
fn barrier_timeout_env_is_validated_and_result_invisible() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let eng = EngineConfig::default();
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &eng);
    let timed = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", "120")], || {
        r.run_parallel(s.records_per_core, s.warmup_per_core, &eng)
    });
    assert_eq!(reference, timed, "an armed (idle) watchdog never changes results");
    for bad in ["0", "soon", "-5"] {
        let err = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", bad)], || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.run_parallel(s.records_per_core, s.warmup_per_core, &eng)
            }))
            .expect_err(&format!("GARIBALDI_BARRIER_TIMEOUT_S={bad} must panic"))
        });
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("GARIBALDI_BARRIER_TIMEOUT_S"),
            "panic for {bad} names the variable: {msg:?}"
        );
    }
}

/// The panic message `EngineChoice::from_env_or` raises with exactly
/// `vars` set.
fn resolve_panic(vars: &[(&str, &str)]) -> String {
    let err = with_env(vars, || {
        std::panic::catch_unwind(|| EngineChoice::from_env_or(EngineChoice::Serial))
            .expect_err(&format!("{vars:?} must panic"))
    });
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Every malformed value fails loudly instead of silently selecting an
/// unintended engine or geometry.
#[test]
fn malformed_values_panic_with_the_variable_name() {
    let cases: [(&str, &str); 5] = [
        ("GARIBALDI_ENGINE", "turbo"),
        ("GARIBALDI_WORKERS", "0"),
        ("GARIBALDI_WORKERS", "banana"),
        ("GARIBALDI_SHARDS", "-1"),
        ("GARIBALDI_EPOCH", "99999999999999999999999999"),
    ];
    for (var, val) in cases {
        let msg = resolve_panic(&[(var, val)]);
        assert!(msg.contains(var), "panic for {var}={val} names the variable: {msg:?}");
    }
}

/// A set retired variable fails loudly, naming itself as retired — with
/// any value, even a formerly valid one, and even beside a serial
/// engine choice — so a stale script asking for a retired mode never
/// silently runs the one remaining profile.
#[test]
fn retired_variables_panic_naming_the_variable() {
    for var in RETIRED {
        for val in ["ewma", "async", "1", ""] {
            for engine in [None, Some("serial"), Some("parallel")] {
                let mut vars = vec![(var, val)];
                vars.extend(engine.map(|e| ("GARIBALDI_ENGINE", e)));
                let msg = resolve_panic(&vars);
                assert!(
                    msg.contains(var) && msg.contains("retired"),
                    "panic for {vars:?} names the variable as retired: {msg:?}"
                );
            }
        }
    }
}
