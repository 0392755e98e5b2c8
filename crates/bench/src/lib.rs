//! Shared harness utilities for the figure/table benchmarks.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure of the
//! paper: it runs the necessary simulations (in parallel across a thread
//! pool), prints the series as an aligned text table, and writes a CSV next
//! to it under `target/garibaldi-results/`.
//!
//! Scale: targets default to [`ExperimentScale::from_env`] — the
//! half-size 8-core configuration — and switch to the paper's full Table 1
//! system under `GARIBALDI_FULL=1`.
//!
//! Engine: since the fidelity study (`docs/fidelity/`, ARCHITECTURE.md
//! §"Fidelity") every figure target defaults to the **epoch-sharded
//! parallel engine**'s one profile ([`EngineConfig::default`]).
//! `GARIBALDI_ENGINE=serial` is the escape hatch back to the serial
//! min-clock reference; `GARIBALDI_WORKERS` sets the threads per run (see
//! [`bench_engine`] and `garibaldi_sim::knobs`).

#![warn(missing_docs)]

use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

pub use garibaldi_sim::experiment::geomean;
pub use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner, SystemConfig,
};

/// The engine every bench run uses: [`EngineChoice::from_env_or`] with a
/// **parallel** default — the fidelity-validated [`EngineConfig::default`]
/// profile. Set `GARIBALDI_ENGINE=serial` for the serial reference engine.
pub fn bench_engine() -> EngineChoice {
    EngineChoice::from_env_or(EngineChoice::Parallel(EngineConfig::default()))
}

/// Threads each bench run will actually use under the resolved engine
/// (the pool divisor for [`parallel_runs`]): the parallel engine's worker
/// count, or 1 for the serial engine.
pub fn per_run_threads() -> usize {
    match bench_engine() {
        EngineChoice::Parallel(c) => c.workers,
        EngineChoice::Serial => 1,
    }
}

/// Identity of the simulation model the benches run under — `"serial-v2"` or
/// `"sharded-s<shards>-e<epoch>-ewma-k<sync_every>"` (see [`EngineChoice::tag`]). Worker
/// count is *not* part of the identity (it never changes results); shard
/// count and epoch window are. Embed this in checkpoint keys so rows
/// produced under different engines are never silently mixed.
pub fn engine_tag() -> String {
    bench_engine().tag()
}

/// Runs `runner` on the bench-default engine (see [`bench_engine`]) —
/// the entry point every figure target's direct simulations go through.
pub fn bench_run(runner: &SimRunner, records: u64, warmup: u64) -> RunResult {
    runner.run_on(records, warmup, bench_engine())
}

/// [`garibaldi_sim::experiment::run_homogeneous`] on the bench-default
/// engine.
pub fn run_homogeneous(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    workload: &str,
    seed: u64,
) -> RunResult {
    garibaldi_sim::experiment::run_homogeneous_on(scale, scheme, workload, seed, bench_engine())
}

/// [`garibaldi_sim::experiment::run_mix`] on the bench-default engine.
pub fn run_mix(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    mix: &garibaldi_trace::WorkloadMix,
    seed: u64,
) -> RunResult {
    garibaldi_sim::experiment::run_mix_on(scale, scheme, mix, seed, bench_engine())
}

/// Directory where harness CSVs are written (the workspace-level
/// `target/garibaldi-results/`, regardless of the bench binary's CWD).
pub fn out_dir() -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target").join("garibaldi-results");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create results dir {}: {e}", dir.display()));
    dir
}

/// Writes a CSV file into [`out_dir`].
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = out_dir().join(name);
    let write = |path: &std::path::Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", headers.join(","))?;
        for r in rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(())
    };
    write(&path).unwrap_or_else(|e| panic!("cannot write csv {}: {e}", path.display()));
    println!("[csv] {}", path.display());
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Runs `jobs` closures in parallel (bounded by available cores) and
/// returns their results in input order.
///
/// The outer pool is divided by [`per_run_threads`] — the thread count of
/// the engine the environment resolves to — so outer × inner never
/// oversubscribes the host. Use
/// [`parallel_runs_inner`] to pass the divisor explicitly.
pub fn parallel_runs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    parallel_runs_inner(jobs, per_run_threads())
}

/// [`parallel_runs`] with an explicit inner-parallelism divisor: with
/// `inner_workers = k`, at most `available_parallelism / k` jobs run
/// concurrently, so each job may itself use `k` threads (e.g.
/// `SimRunner::run_parallel` with `EngineConfig::with_workers(k)`) without
/// oversubscription.
pub fn parallel_runs_inner<T, F>(jobs: Vec<F>, inner_workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let workers = (avail / inner_workers.max(1)).max(1).min(n.max(1));
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop();
                match job {
                    Some((i, f)) => {
                        let r = f();
                        results.lock().unwrap()[i] = Some(r);
                    }
                    None => break,
                }
            });
        }
    });
    results.into_inner().unwrap().into_iter().map(|r| r.expect("job ran")).collect()
}

/// Checkpoint-aware batch runner: runs the keyed jobs whose key is not yet
/// in `target/garibaldi-results/<file>` (JSON lines, one run per line, see
/// `garibaldi_sim::checkpoint`), appends each fresh result, and returns all
/// results in input order. Interrupted sweeps resume where they stopped —
/// a torn tail from a crash mid-append is salvaged (and reported on
/// stderr) rather than poisoning the file; delete the file to force a
/// full re-run. Fresh rows are framed with the resolved [`engine_tag`] so
/// rows from different engine geometries are never silently mixed.
pub fn parallel_runs_checkpointed<F>(file: &str, jobs: Vec<(String, F)>) -> Vec<RunResult>
where
    F: FnOnce() -> RunResult + Send,
{
    let path = out_dir().join(file);
    let (mut done, salvage) = match garibaldi_sim::checkpoint::load_report(&path) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("[checkpoint] {e} — starting the sweep from scratch");
            Default::default()
        }
    };
    if !salvage.is_clean() {
        eprintln!("[checkpoint] salvage from {}: {salvage}", path.display());
    }
    let mut fresh: Vec<(String, F)> = Vec::new();
    let mut slots: Vec<Result<RunResult, usize>> = Vec::new(); // Err(i) = fresh job i
    for (key, job) in jobs {
        match done.remove(&key) {
            Some(r) => slots.push(Ok(r)),
            None => {
                slots.push(Err(fresh.len()));
                fresh.push((key, job));
            }
        }
    }
    let cached = slots.iter().filter(|s| s.is_ok()).count();
    if cached > 0 {
        println!("[checkpoint] {} of {} runs loaded from {}", cached, slots.len(), path.display());
    }
    // Append each line as its job completes (under a lock — appends come
    // from pool threads), so an interrupted sweep keeps everything that
    // finished before the kill. Transient I/O errors are retried with
    // bounded backoff; a run whose append ultimately fails is still
    // returned (it just re-runs on the next resume).
    let tag = engine_tag();
    let sink = Mutex::new(());
    let path_ref = &path;
    let tag_ref = &tag;
    let sink_ref = &sink;
    let ran = parallel_runs(
        fresh
            .into_iter()
            .map(|(key, f)| {
                move || {
                    let r = f();
                    let _guard = sink_ref.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    if let Err(e) =
                        garibaldi_sim::checkpoint::append_retry(path_ref, tag_ref, &key, &r, 3)
                    {
                        eprintln!("[checkpoint] giving up on append: {e}");
                    }
                    r
                }
            })
            .collect(),
    );
    let mut ran: Vec<Option<RunResult>> = ran.into_iter().map(Some).collect();
    slots
        .into_iter()
        .map(|s| match s {
            Ok(r) => r,
            Err(i) => ran[i].take().expect("fresh job ran once"),
        })
        .collect()
}

/// Formats a speedup as the paper's "speedup over LRU" delta (e.g. 0.132).
pub fn speedup_over(base: f64, x: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        x / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or mutate the engine environment
    /// variables (`parallel_runs`, [`bench_engine`]) so env-mutating cases
    /// cannot race env-reading ones.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` with the engine variables cleared, then restores whatever
    /// was set before (the CI parallel-engine leg exports
    /// `GARIBALDI_WORKERS` for the whole process — tests must not strip it
    /// from later tests).
    fn with_clean_env<T>(f: impl FnOnce() -> T) -> T {
        use garibaldi_sim::knobs::{ENGINE, WORKERS};
        let _guard = env_lock();
        let saved =
            [(ENGINE.name, ENGINE.text()), (WORKERS.name, WORKERS.count().map(|w| w.to_string()))];
        for (v, _) in &saved {
            std::env::remove_var(v);
        }
        let out = f();
        for (v, val) in saved {
            match val {
                Some(val) => std::env::set_var(v, val),
                None => std::env::remove_var(v),
            }
        }
        out
    }

    #[test]
    fn parallel_runs_preserve_order() {
        let _env = env_lock();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..16usize).map(|i| Box::new(move || i * 2) as _).collect();
        let out = parallel_runs(jobs);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bench_engine_defaults_to_parallel_with_serial_escape_hatch() {
        with_clean_env(|| {
            match bench_engine() {
                EngineChoice::Parallel(c) => {
                    assert_eq!(c, EngineConfig::default(), "the one validated parallel profile");
                }
                EngineChoice::Serial => panic!("benches must default to the parallel engine"),
            }
            std::env::set_var("GARIBALDI_WORKERS", "2");
            match bench_engine() {
                EngineChoice::Parallel(c) => {
                    assert_eq!(c.workers, 2, "workers feed the engine");
                }
                EngineChoice::Serial => panic!("still parallel"),
            }
            assert_eq!(per_run_threads(), 2, "the job pool divides by the resolved workers");
            std::env::set_var("GARIBALDI_ENGINE", "serial");
            assert_eq!(bench_engine(), EngineChoice::Serial, "the documented escape hatch");
            assert_eq!(engine_tag(), "serial-v2");
        });
    }

    #[test]
    fn speedup_math() {
        assert!((speedup_over(2.0, 2.2) - 1.1).abs() < 1e-12);
        assert_eq!(speedup_over(0.0, 1.0), 0.0);
    }

    #[test]
    fn inner_parallelism_still_runs_everything_in_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..8usize).map(|i| Box::new(move || i + 1) as _).collect();
        let out = parallel_runs_inner(jobs, 4);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn checkpointed_runs_skip_completed_keys() {
        use garibaldi_cache::PolicyKind;
        use garibaldi_sim::ExperimentScale;
        use garibaldi_trace::WorkloadMix;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let _env = env_lock();
        let file = "test_checkpoint_harness.jsonl";
        let path = out_dir().join(file);
        let _ = std::fs::remove_file(&path);

        let run = || {
            let scale = ExperimentScale::smoke();
            let cfg = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
            SimRunner::new(cfg, WorkloadMix::homogeneous("noop", scale.cores), 5).run(400, 100)
        };
        let calls = AtomicUsize::new(0);
        let jobs = |names: [&str; 2]| {
            names
                .into_iter()
                .map(|k| {
                    (k.to_string(), || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        run()
                    })
                })
                .collect::<Vec<_>>()
        };

        let first = parallel_runs_checkpointed(file, jobs(["a", "b"]));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "cold checkpoint runs everything");
        let second = parallel_runs_checkpointed(file, jobs(["a", "b"]));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "warm checkpoint runs nothing");
        assert_eq!(first, second, "checkpointed results round-trip bit-identically");
        let _ = std::fs::remove_file(&path);
    }
}
