//! Environment-driven engine selection, end to end.
//!
//! These tests mutate real environment variables, so they live in their
//! own test binary (its own process) and serialize on one mutex — the
//! other test binaries never read these variables while this one runs.

use garibaldi_sim::{
    knobs, EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner,
    SystemConfig,
};
use garibaldi_trace::WorkloadMix;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Names that are not knobs: the retired fidelity-gate epoch override,
/// the nine knobs deleted when the knob table came in, the three of
/// engine axes retired earlier, then the engine name (`GARIBALDI_WORKERS`
/// alone picks the engine) and the stats flag (`EngineStats` prints
/// itself).
const STALE: [&str; 15] = [
    "GARIBALDI_FIDELITY_EPOCH",
    "GARIBALDI_INNER_WORKERS",
    "GARIBALDI_SHARDS",
    "GARIBALDI_EPOCH",
    "GARIBALDI_MIXES",
    "GARIBALDI_FID_GRID",
    "GARIBALDI_FID_MIXES",
    "GARIBALDI_FID_WORKLOADS",
    "GARIBALDI_PERF_RECORDS",
    "GARIBALDI_PERF_WARMUP",
    "GARIBALDI_ESTIMATOR",
    "GARIBALDI_TRAIN_MODE",
    "GARIBALDI_SYNC_EVERY",
    "GARIBALDI_ENGINE",
    "GARIBALDI_ENGINE_STATS",
];

/// Runs `f` with exactly `vars` set, restoring a clean slate after. Every
/// simulation here runs inside it: a stale name set by one test would
/// make a later test's knob read panic, so the slate is every
/// `GARIBALDI_*` name in the environment, misspelt ones included.
fn with_env<T>(vars: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clear = || {
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("GARIBALDI_") {
                std::env::remove_var(name);
            }
        }
    };
    clear();
    for (k, v) in vars {
        std::env::set_var(k, v);
    }
    let out = f();
    clear();
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

/// With `GARIBALDI_WORKERS` unset, `SimRunner::run` is the serial
/// engine exactly.
#[test]
fn engine_serial_reproduces_serial_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let (reference, plain) =
        with_env(&[], || (r.run_serial(s.records_per_core, s.warmup_per_core), smoke_run(&r)));
    assert_eq!(reference, plain);
}

/// `GARIBALDI_WORKERS=1` routes through the epoch-sharded engine's one
/// profile.
#[test]
fn engine_parallel_forces_parallel_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let (reference, serial) = with_env(&[], || {
        let eng = EngineChoice::Parallel(EngineConfig::default());
        (
            r.run_on(s.records_per_core, s.warmup_per_core, &eng),
            r.run_serial(s.records_per_core, s.warmup_per_core),
        )
    });
    let forced = with_env(&[("GARIBALDI_WORKERS", "1")], || smoke_run(&r));
    assert_eq!(reference, forced);
    // Serial differs from the parallel run on this workload (otherwise the
    // assertion above proves nothing).
    assert_ne!(serial, reference, "engines must be distinguishable at smoke scale");
}

/// Bare `GARIBALDI_WORKERS` still flips to the parallel engine (the
/// forcing mechanism CI's parallel-engine leg uses).
#[test]
fn bare_workers_still_selects_parallel() {
    let choice = with_env(&[("GARIBALDI_WORKERS", "3")], EngineChoice::from_env);
    match choice {
        EngineChoice::Parallel(c) => assert_eq!(c, EngineConfig::with_workers(3)),
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
    let eng = EngineChoice::Parallel(EngineConfig::default());
    let reference = with_env(&[], || r.run_on(s.records_per_core, s.warmup_per_core, &eng));
    let timed = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", "120")], || {
        r.run_on(s.records_per_core, s.warmup_per_core, &eng)
    });
    assert_eq!(reference, timed, "an armed (idle) watchdog never changes results");
    for bad in ["0", "soon", "-5"] {
        let err = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", bad)], || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.run_on(s.records_per_core, s.warmup_per_core, &eng)
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

/// The panic message `EngineChoice::from_env` raises with exactly `vars`
/// set.
fn resolve_panic(vars: &[(&str, &str)]) -> String {
    let err = with_env(vars, || {
        std::panic::catch_unwind(EngineChoice::from_env).expect_err(&format!("{vars:?} must panic"))
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
    let cases: [(&str, &str); 4] = [
        ("GARIBALDI_WORKERS", "0"),
        ("GARIBALDI_WORKERS", "banana"),
        ("GARIBALDI_WORKERS", "-1"),
        ("GARIBALDI_WORKERS", "99999999999999999999999999"),
    ];
    for (var, val) in cases {
        let msg = resolve_panic(&[(var, val)]);
        assert!(msg.contains(var), "panic for {var}={val} names the variable: {msg:?}");
    }
}

/// A set name outside the knob table — deleted, retired or misspelt —
/// fails loudly, naming itself, with any value and beside either engine
/// choice, so a stale script never silently runs something other than it
/// asked for.
#[test]
fn retired_variables_panic_naming_the_variable() {
    for var in STALE.into_iter().chain(["GARIBALDI_WORKER"]) {
        for val in ["ewma", "1", ""] {
            for workers in [None, Some("2")] {
                let mut vars = vec![(var, val)];
                vars.extend(workers.map(|w| ("GARIBALDI_WORKERS", w)));
                let msg = resolve_panic(&vars);
                assert!(
                    msg.starts_with(var) && msg.contains("not a GARIBALDI_* knob"),
                    "panic for {vars:?} names the variable: {msg:?}"
                );
            }
        }
    }
}

/// README's environment table mirrors the knob table row for row: name,
/// kind, default and effect.
#[test]
fn readme_env_table_mirrors_the_knob_table() {
    let readme = include_str!("../README.md");
    let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `GARIBALDI_")).collect();
    let want: Vec<String> = knobs::TABLE
        .iter()
        .map(|k| format!("| `{}` | {} | {} | {} |", k.name, k.kind.label(), k.default, k.doc))
        .collect();
    assert_eq!(rows, want, "README's environment table drifted from garibaldi_sim::knobs");
}
