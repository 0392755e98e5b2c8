//! perfbench: the repository's performance benchmark.
//!
//! ```console
//! $ cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!       --workload server-consolidation --seed 42 --seconds 50 --trace 0
//! ```
//!
//! One invocation runs one workload (see `workloads.rs`) in this process as
//! a closed batch: one simulation at a time, each with at most two worker
//! threads. The scheme is Mockingjay+Garibaldi on 40 cores at factor
//! 1.0 on three engines: `serial` (the min-clock reference), `w1` and `w2`
//! (the parallel engine's default profile with one and two workers). Plain
//! Mockingjay runs once on `serial` as the baseline of `garibaldi_gain`.
//!
//! `--trace 0` prints the end-to-end metrics. Simulated metrics come from
//! one run per engine at the reference point (7.5 k + 30 k records per
//! core); they are deterministic. Host times are medians of as many rounds
//! of shorter runs (2.5 k + 10 k records per core) as fit in `--seconds`;
//! each round also times zero-record runs, whose median is `setup_s`. Host
//! times are scaled to a quiet host by a fixed probe timed before each leg
//! (see `host.rs`); the unscaled medians are printed beside them.
//! `--trace 1` prints the per-layer split instead: it times each layer's
//! public entry points on inputs taken from the workload's own generated
//! streams, reads the counters of a separate traced `w1` run, reconciles the
//! two in a cost model and reports the tracing overhead against the untraced
//! `w1` runs. Both modes time their runs in the same rounds (see [`rounds`]).
//!
//! Every run's output is checked: repeats of an engine must give identical
//! results, `w1` and `w2` must agree byte for byte, `w1` must stay within
//! [`FIDELITY_LIMIT_PCT`] of the hmean IPC of `serial`, and each workload must
//! exercise the path it was chosen for. A failed check is printed by name
//! and makes the command exit non-zero. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod layers;
mod workloads;

use garibaldi_sim::{EngineStats, RunResult, SimRunner};
use host::HostProbe;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workloads::{Engine, RunSize, Workload};

/// Zero-record runs per round behind the `setup_s` median.
const SETUP_PER_ROUND: usize = 5;
/// Largest hmean-IPC gap, in %, allowed between `w1` and `serial` at one
/// point. The repository's 2 % fidelity gate holds for figure geomeans over
/// many points; a single point spreads wider (1.3–2.8 % over 17 seeds on
/// server-consolidation), so a per-run check at 2 % failed on valid seeds.
/// Drift below this limit shows in `fidelity_ipc_ratio`.
const FIDELITY_LIMIT_PCT: f64 = 5.0;
/// Rounds every invocation runs, whatever `--seconds` says: round 0 warms
/// the process and is not timed, so the medians need at least two more.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().cloned();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `GARIBALDI_*` variables select engines, inject faults and arm watchdogs
/// inside the library; any of them would silently change what is measured.
fn garibaldi_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GARIBALDI_"))
        .collect()
}

/// Host identity printed beside every result, so rows from different hosts
/// are never compared.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" rev={}", git_revision())
}

/// The checked-out commit, read from `.git` without leaving the working
/// directory; "unknown" outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Correctness bookkeeping: every simulation run is one attempt, failed when
/// any check on its output fails.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn run(&mut self, checks: &[(String, bool)]) {
        self.attempted += 1;
        let bad: Vec<&String> = checks.iter().filter(|(_, ok)| !ok).map(|(n, _)| n).collect();
        if !bad.is_empty() {
            self.failed += 1;
            for name in bad {
                if !self.failures.contains(name) {
                    println!("check failed: {name}");
                    self.failures.push(name.clone());
                }
            }
        }
    }
}

/// The simulated output a check compares: the whole `RunResult`, rendered
/// (NaN-safe, unlike `==`).
fn fingerprint(r: &RunResult) -> String {
    format!("{r:?}")
}

/// The path each workload was chosen to exercise, checked on every run of
/// the scheme under test so a workload cannot silently go dormant.
fn liveness(w: &Workload, r: &RunResult) -> (String, bool) {
    let ok = match w.name {
        "server-consolidation" => r.garibaldi.is_some_and(|g| g.stats.pair_updates > 0),
        "shared-coherence" => r.invalidations > 0,
        "spec-stream" => r.llc.instr_access_ratio() < 0.02,
        _ => true,
    };
    (format!("{}-not-dormant", w.name), ok)
}

/// Runs `runner` on `engine`, returning its result, engine phase account
/// (parallel only) and host wall seconds around the whole call.
fn run_once(
    runner: &SimRunner,
    engine: Engine,
    size: RunSize,
) -> (RunResult, Option<EngineStats>, f64) {
    let RunSize { records, warmup } = size;
    let t = Instant::now();
    let (r, s) = match engine {
        Engine::Serial => (runner.run_serial(records, warmup), None),
        Engine::Workers(n) => {
            let (r, s) =
                runner.run_parallel_stats(records, warmup, &workloads::parallel_profile(n));
            (r, Some(s))
        }
    };
    (r, s, t.elapsed().as_secs_f64())
}

/// One leg of a timing round: `reps` runs of `engine` at `size`.
#[derive(Clone, Copy)]
struct Leg {
    name: &'static str,
    engine: Engine,
    size: RunSize,
    reps: usize,
}

impl Leg {
    fn new(name: &'static str, engine: Engine, size: RunSize) -> Leg {
        Leg { name, engine, size, reps: 1 }
    }
}

/// What [`rounds`] keeps of one leg: the host wall seconds of its runs after
/// round 0, the same runs in quiet-host seconds (see [`host`]), the probe
/// seconds before each visit, engine stats, and its last result.
#[derive(Default)]
struct LegRuns {
    walls: Vec<f64>,
    scaled: Vec<f64>,
    probes: Vec<f64>,
    stats: Vec<EngineStats>,
    last: Option<RunResult>,
}

/// Runs `legs` round after round, in an order that rotates each round so no
/// leg always runs first, until `seconds` are spent and at least
/// [`MIN_ROUNDS`] rounds are done. Round 0 warms the process and is not
/// kept. Each visit to a leg starts with a [`HostProbe`] timing, which
/// scales that visit's runs to quiet-host seconds. Every run is checked: a
/// repeat of a leg reproduces the leg's first result byte for byte, a
/// parallel run reproduces the first parallel result of the same size from
/// another leg (worker-count invariance), and a run that simulates records
/// exercises the workload's path. Returns each leg's runs and the number of
/// rounds.
fn rounds(
    w: &Workload,
    runner: &SimRunner,
    legs: &[Leg],
    seconds: f64,
    checks: &mut Checks,
) -> (Vec<LegRuns>, usize) {
    let mut runs: Vec<LegRuns> = legs.iter().map(|_| LegRuns::default()).collect();
    let mut first: Vec<Option<String>> = vec![None; legs.len()];
    // The first parallel result of each run size, with the leg behind it.
    let mut parallel: HashMap<(u64, u64), (usize, String)> = HashMap::new();
    let mut probe = HostProbe::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for k in 0..legs.len() {
            let i = (round + k) % legs.len();
            let leg = legs[i];
            let probe_s = probe.time();
            if round > 0 {
                runs[i].probes.push(probe_s);
            }
            for _ in 0..leg.reps {
                let (r, s, wall) = run_once(runner, leg.engine, leg.size);
                let fp = fingerprint(&r);
                let mut c = Vec::new();
                match &first[i] {
                    Some(f) => c.push((format!("{}-repeat-identical", leg.name), *f == fp)),
                    None => first[i] = Some(fp.clone()),
                }
                if let Engine::Workers(_) = leg.engine {
                    match parallel.get(&(leg.size.records, leg.size.warmup)) {
                        Some((j, f)) if *j != i => {
                            c.push(("worker-count-invariance".into(), *f == fp));
                        }
                        Some(_) => {}
                        None => {
                            parallel.insert((leg.size.records, leg.size.warmup), (i, fp));
                        }
                    }
                }
                if leg.size.records > 0 {
                    c.push(liveness(w, &r));
                }
                checks.run(&c);
                if round > 0 {
                    runs[i].walls.push(wall);
                    runs[i].scaled.push(wall / probe_s * host::QUIET_S);
                    runs[i].stats.extend(s);
                }
                runs[i].last = Some(r);
            }
        }
        round += 1;
    }
    (runs, round)
}

/// Named metrics with units. `metrics` go into the result JSON; `shown`
/// are printed beside them only, for quantities the JSON carries in another
/// form: a ratio that is 0 whenever all is well, an error that can sit near 0.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    shown: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn show(&mut self, name: &str, value: f64, unit: &'static str) {
        self.shown.push((name.to_string(), value, unit));
    }
}

fn end_to_end(a: &Args, checks: &mut Checks, out: &mut Report) {
    let w = a.workload;
    let mg = workloads::runner(w, workloads::scheme_under_test(), a.seed);

    // Simulated metrics, at the reference point. They are deterministic, so
    // one run per engine suffices.
    let mj = workloads::runner(w, workloads::host_policy(), a.seed);
    let (mj_res, _, _) = run_once(&mj, Engine::Serial, workloads::REFERENCE);
    let (serial, _, _) = run_once(&mg, Engine::Serial, workloads::REFERENCE);
    let (w1, _, _) = run_once(&mg, Engine::Workers(1), workloads::REFERENCE);
    let (ipc, ipc_w1) = (serial.harmonic_mean_ipc(), w1.harmonic_mean_ipc());
    let fidelity_err_pct = 100.0 * ratio((ipc_w1 - ipc).abs(), ipc);
    checks.run(&[]);
    checks.run(&[liveness(w, &serial)]);
    checks.run(&[
        liveness(w, &w1),
        ("fidelity-within-limit".into(), fidelity_err_pct <= FIDELITY_LIMIT_PCT),
    ]);
    // Peak memory of the reference-point runs, read before any two-worker
    // run: a second thread's malloc arena keeps a varying amount of freed
    // memory, which moved the whole-process peak by ±7 % between runs. It is
    // also read before the host probe allocates its 96 MiB.
    let peak_rss = peak_rss_mb();

    // Host time: rounds of shorter runs until `--seconds` is spent. Set-up
    // samples (zero-record w1 runs) ride in every round, so they see the
    // same host state as the runs they precede.
    let timed = workloads::TIMED;
    let legs = [
        Leg { reps: SETUP_PER_ROUND, ..Leg::new("setup", Engine::Workers(1), RunSize::ZERO) },
        Leg::new("serial", Engine::Serial, timed),
        Leg::new("w1", Engine::Workers(1), timed),
        Leg::new("w2", Engine::Workers(2), timed),
    ];
    let (runs, n_rounds) = rounds(w, &mg, &legs, a.seconds, checks);
    let records = timed.total() as f64;
    let rps = |t: &[f64]| median(&t.iter().map(|t| records / t).collect::<Vec<_>>());
    out.put("setup_s", median(&runs[0].scaled), "s");
    out.put("rps_serial", rps(&runs[1].scaled), "records/s");
    out.put("rps_w1", rps(&runs[2].scaled), "records/s");
    out.put("rps_w2", rps(&runs[3].scaled), "records/s");
    out.put("peak_rss_mb", peak_rss, "MiB");
    out.put("hmean_ipc", ipc, "IPC");
    out.put("garibaldi_gain", ratio(ipc, mj_res.harmonic_mean_ipc()), "ratio");
    // The error itself can sit near 0 (spec-stream), where a relative bound
    // means nothing; 1 + error moves by the error's own absolute change.
    out.put("fidelity_ipc_ratio", 1.0 + fidelity_err_pct / 100.0, "ratio");
    out.show("fidelity_err_pct", fidelity_err_pct, "%");
    // The same medians in this host's own seconds, unscaled.
    out.show("raw.setup_s", median(&runs[0].walls), "s");
    for (name, run) in ["raw.rps_serial", "raw.rps_w1", "raw.rps_w2"].iter().zip(&runs[1..]) {
        out.show(name, rps(&run.walls), "records/s");
    }
    let probes: Vec<f64> = runs.iter().flat_map(|r| r.probes.iter().copied()).collect();
    out.show("host.probe_s", median(&probes), "s");
    for (leg, run) in legs.iter().zip(&runs) {
        let t: Vec<String> = run.walls.iter().map(|t| format!("{t:.3}")).collect();
        let p: Vec<String> = run.probes.iter().map(|t| format!("{t:.3}")).collect();
        println!("wall seconds {}: {}", leg.name, t.join(" "));
        println!("probe seconds before {}: {}", leg.name, p.join(" "));
    }
    println!(
        "note: simulated metrics at {} records per run; records/s are medians of rounds \
         1..{n_rounds} of serial/w1/w2 runs of {records} records in rotating order (round 0 \
         warms the process); setup_s is the median of {SETUP_PER_ROUND} zero-record w1 runs per \
         round; setup_s and records/s are in seconds of a quiet host: each run's wall time is \
         divided by the host probe's time just before it and multiplied by the probe's quiet \
         {quiet} s (raw.* are unscaled); fidelity compares the parallel engine with the serial \
         reference model and is unvalidated against real hardware",
        workloads::REFERENCE.total(),
        quiet = host::QUIET_S
    );
}

/// `--workload all`: every workload in turn, each in a child process of its
/// own so `peak_rss_mb` stays per workload. Exits non-zero if any failed.
fn run_all(argv: &[String]) -> ! {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in &workloads::WORKLOADS {
        let mut args = argv.to_vec();
        for i in 1..args.len() {
            if args[i - 1] == "--workload" {
                args[i] = w.name.to_string();
            }
        }
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.windows(2).any(|p| p[0] == "--workload" && p[1] == "all") {
        run_all(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let env = garibaldi_env();
    if !env.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: these variables change what the simulator \
             runs, so the measurement would not be comparable",
            env.join(", ")
        );
        std::process::exit(2);
    }

    let w = args.workload;
    println!(
        "workload: {} ({} cores cycling {}), seed {}, {} s, trace {}",
        w.name,
        workloads::CORES,
        w.profiles.join(","),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("why: {}", w.why);
    let mut checks = Checks::default();
    let mut report = Report { metrics: Vec::new(), shown: Vec::new() };
    if args.trace {
        layers::per_layer(&args, &mut checks, &mut report);
    } else {
        end_to_end(&args, &mut checks, &mut report);
    }

    // Carried in the JSON as `failed` / `attempted`.
    report.show(
        "failed_run_ratio",
        ratio(checks.failed as f64, checks.attempted as f64),
        "fraction",
    );
    for (name, value, unit) in report.metrics.iter().chain(&report.shown) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", host_line());

    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
