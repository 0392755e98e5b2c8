//! Property tests for the JSON-lines checkpoint serializer: randomized
//! `RunResult`s round-trip bit-identically, and corrupted files recover
//! to the last good record — including a crash-mid-append battery that
//! cuts the file at every byte offset of its final record.

use garibaldi::GaribaldiStats;
use garibaldi_cache::CacheStats;
use garibaldi_mem::DramStats;
use garibaldi_sim::checkpoint;
use garibaldi_sim::metrics::{ConditionalMatrix, CoreResult, GaribaldiReport, ReuseSummary};
use garibaldi_sim::{CpiStack, EngineChoice, ExperimentScale, FidelitySuite, RunResult};
use garibaldi_trace::{serial, TraceRecord};
use garibaldi_types::VirtAddr;
use proptest::prelude::*;

/// Finite floats with awkward shortest-representations (ratios of random
/// integers exercise long decimal expansions; scale varies by exponent).
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX, 1u64..1_000_000, 0i32..5)
        .prop_map(|(n, d, e)| (n as f64 / d as f64) * 10f64.powi(e - 2))
}

/// Strings mixing escapes, unicode and control characters.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x1_0000, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_cache_stats() -> impl Strategy<Value = CacheStats> {
    prop::collection::vec(0u64..=u64::MAX / 2, 12..13).prop_map(|v| CacheStats {
        i_accesses: v[0],
        i_hits: v[1],
        d_accesses: v[2],
        d_hits: v[3],
        evictions: v[4],
        writebacks: v[5],
        prefetch_fills: v[6],
        prefetch_useful: v[7],
        bypasses: v[8],
        guarded_protections: v[9],
        invalidations: v[10],
        i_evictions: v[11],
    })
}

fn arb_core() -> impl Strategy<Value = CoreResult> {
    (arb_string(), 0u64..=u64::MAX / 2, arb_f64(), arb_f64(), arb_f64(), arb_f64()).prop_map(
        |(workload, instrs, cycles, ipc, a, b)| CoreResult {
            workload,
            instrs,
            cycles,
            ipc,
            stack: CpiStack { base: a, ifetch: b, data: a + b, branch: a * 0.5 },
        },
    )
}

fn arb_run_result() -> impl Strategy<Value = RunResult> {
    (
        (arb_string(), prop::collection::vec(arb_core(), 0..5)),
        (arb_cache_stats(), arb_cache_stats(), arb_cache_stats(), arb_cache_stats()),
        prop::collection::vec(0u64..=u64::MAX / 2, 10..11),
        (prop::bool::ANY, prop::bool::ANY, arb_f64(), arb_f64()),
    )
        .prop_map(|((scheme, cores), (l1, l1i, l2, llc), u, (has_g, has_r, fa, fb))| {
            RunResult {
                scheme,
                cores,
                l1,
                l1i,
                l2,
                llc,
                dram: DramStats {
                    reads: u[0],
                    writes: u[1],
                    queue_delay: u[2],
                    queued_requests: u[3],
                },
                garibaldi: has_g.then(|| GaribaldiReport {
                    stats: GaribaldiStats {
                        instr_accesses: u[4],
                        instr_misses: u[5],
                        pair_updates: u[6],
                        ..Default::default()
                    },
                    final_threshold: u[7] as u32,
                    color_ticks: u[8],
                    helper_hit_rate: fa.min(1.0),
                }),
                conditional: ConditionalMatrix {
                    dhit_imiss: u[4],
                    dhit_total: u[5],
                    dmiss_imiss: u[6],
                    dmiss_total: u[7],
                },
                reuse: has_r.then(|| ReuseSummary {
                    instr_mean_distance: fa,
                    data_mean_distance: fb,
                    instr_within_assoc: (fa / (fa + 1.0)).min(1.0),
                    data_within_assoc: (fb / (fb + 1.0)).min(1.0),
                    accesses_per_instr_line: fa + fb,
                    accesses_per_data_line: fa * 0.25,
                    shared_lifecycle_fraction: (fb / (fb + 2.0)).min(1.0),
                }),
                energy: garibaldi_sim::EnergyReport { dynamic_j: fa, static_j: fb },
                qbs_cycles: u[8],
                invalidations: u[9],
            }
        })
}

proptest! {
    /// parse(serialize(run)) is the identity, for any key and result.
    #[test]
    fn json_line_round_trip_is_identity(key in arb_string(), r in arb_run_result()) {
        let line = checkpoint::to_json_line(&key, &r);
        prop_assert!(!line.contains('\n'), "one run = one line");
        let (k, back) = checkpoint::parse_json_line(&line).expect("round-trip parse");
        prop_assert_eq!(k, key);
        prop_assert_eq!(back, r);
    }
}

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

/// Rows minted by the earlier serial model, keyed under the bare `serial`
/// engine tag, never answer for the current serial schedule: a resumed
/// sweep re-runs them instead of silently mixing the two models.
#[test]
fn legacy_serial_rows_miss_the_current_serial_key() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-serial-tag");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.jsonl");
    let scale = ExperimentScale { cores: 4, ..ExperimentScale::smoke() };
    let suite = FidelitySuite::paper_figures(scale, 1, &["tpcc"]);
    let job = suite.jobs().into_iter().find(|j| j.engine == EngineChoice::Serial).unwrap();
    let serial_tag = EngineChoice::Serial.tag();
    let legacy_key = job.key.replace(&format!("/{serial_tag}/"), "/serial/");
    assert_ne!(legacy_key, job.key, "the serial tag is part of the key");

    checkpoint::append_tagged(&path, "serial", &legacy_key, &sample(1.0)).unwrap();
    let (rows, rep) = checkpoint::load_report(&path).unwrap();
    assert!(rep.is_clean());
    assert!(rows.contains_key(&legacy_key), "the legacy row itself still loads");
    assert!(!rows.contains_key(&job.key), "a legacy serial row must not hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint file whose tail was cut mid-line (the crash/kill case)
/// recovers every record before the cut, and appending resumes cleanly.
#[test]
fn truncated_file_resumes_from_last_good_record() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-truncation");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.jsonl");

    checkpoint::append_tagged(&path, "-", "a", &sample(1.0)).unwrap();
    checkpoint::append_tagged(&path, "-", "b", &sample(2.0)).unwrap();
    checkpoint::append_tagged(&path, "-", "c", &sample(3.0)).unwrap();

    // Cut the file mid-way through the last line.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = text.len() - lines[2].len() / 2;
    std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();

    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert_eq!(m.len(), 2, "the truncated record is dropped, the rest survive");
    assert!(rep.truncated_tail, "the cut is reported as a torn tail");
    assert_eq!((rep.parsed, rep.skipped_garbage, rep.version_mismatches), (2, 0, 0));
    assert!((m["a"].cores[0].ipc - 1.0).abs() < 1e-12);
    assert!((m["b"].cores[0].ipc - 2.0).abs() < 1e-12);

    // Resuming appends after the partial line; the file stays loadable.
    // The glue newline turns the torn frame into one complete-but-corrupt
    // line, which the CRC rejects as garbage on the next load.
    checkpoint::append_tagged(&path, "-", "c", &sample(3.0)).unwrap();
    let (m, rep) = checkpoint::load_report(&path).unwrap();
    assert_eq!(m.len(), 3, "re-run of the lost record resumes the sweep");
    assert!(!rep.truncated_tail, "the resumed file commits with a newline");
    assert_eq!((rep.parsed, rep.skipped_garbage), (3, 1), "the sealed torn frame fails its CRC");
    assert!((m["c"].cores[0].ipc - 3.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-mid-append battery: cutting a valid checkpoint at **every**
/// byte offset of its final record salvages exactly the records before
/// the cut — never a partial record, never a hang, never an error — and
/// flags the torn tail precisely when the cut leaves uncommitted bytes.
#[test]
fn truncation_at_every_byte_offset_salvages_the_exact_prefix() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-offsets");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.jsonl");

    checkpoint::append_tagged(&path, "-", "a", &sample(1.0)).unwrap();
    checkpoint::append_tagged(&path, "-", "b", &sample(2.0)).unwrap();
    checkpoint::append_tagged(&path, "-", "c", &sample(3.0)).unwrap();

    let full = std::fs::read(&path).unwrap();
    // Start of the final record = one past the second-to-last newline.
    let last_start =
        full[..full.len() - 1].iter().rposition(|&b| b == b'\n').map(|i| i + 1).unwrap();

    for cut in last_start..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (m, rep) = checkpoint::load_report(&path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: load must salvage, got {e}"));
        let whole = cut == full.len();
        let expect = if whole { 3 } else { 2 };
        assert_eq!(m.len(), expect, "cut at byte {cut} keeps the committed prefix");
        assert_eq!(rep.parsed, expect, "cut at byte {cut}");
        assert_eq!(
            rep.truncated_tail,
            !whole && cut > last_start,
            "torn tail flagged iff uncommitted bytes remain (cut at byte {cut})"
        );
        assert_eq!(
            (rep.skipped_garbage, rep.version_mismatches),
            (0, 0),
            "a clean prefix never reports garbage (cut at byte {cut})"
        );
        assert!((m["a"].cores[0].ipc - 1.0).abs() < 1e-12);
        assert!((m["b"].cores[0].ipc - 2.0).abs() < 1e-12);
        if whole {
            assert!((m["c"].cores[0].ipc - 3.0).abs() < 1e-12);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `garibaldi-cli` on a tiny fixed point with `extra` flags against
/// the checkpoint at `path`, with exactly the `GARIBALDI_*` variables in
/// `env` set: the flag-less runs must stay on the serial engine even when
/// the calling environment forces the parallel one.
fn cli_env(path: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_garibaldi-cli"));
    cmd.args(["--workload", "tpcc", "--cores", "2", "--records", "400", "--warmup", "100"])
        .arg("--checkpoint")
        .arg(path)
        .args(extra)
        .env_remove("GARIBALDI_FAULTS")
        .env_remove("GARIBALDI_WORKERS")
        .envs(env.iter().copied());
    cmd.output().expect("garibaldi-cli runs")
}

/// [`cli_env`] with `GARIBALDI_FAULTS` set to `faults`, if any.
fn cli_output(
    path: &std::path::Path,
    extra: &[&str],
    faults: Option<&str>,
) -> std::process::Output {
    let faults: Vec<_> = faults.map(|f| ("GARIBALDI_FAULTS", f)).into_iter().collect();
    cli_env(path, extra, &faults)
}

/// Asserts `out` succeeded; returns its `(stdout, stderr)`.
fn ok(out: std::process::Output) -> (String, String) {
    assert!(out.status.success(), "garibaldi-cli failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (text(out.stdout), text(out.stderr))
}

/// [`cli_output`] of a run that must succeed; returns its stderr.
fn cli(path: &std::path::Path, extra: &[&str], faults: Option<&str>) -> String {
    ok(cli_output(path, extra, faults)).1
}

fn served_from_cache(stderr: &str) -> bool {
    stderr.contains("reporting the cached result")
}

/// The CLI's default checkpoint key names the engine: a serial row never
/// answers a parallel run, nor the reverse, and each engine finds its own.
/// An invalid configuration is a usage error (exit 2) and a bad replay
/// file an I/O error (exit 1); neither appends a row.
#[test]
fn cli_default_keys_keep_serial_and_parallel_rows_apart() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-cli-engines");
    let _ = std::fs::remove_dir_all(&dir);
    for (first, second) in [(&[][..], &["--workers", "2"][..]), (&["--workers", "2"][..], &[][..])]
    {
        let path = dir.join(format!("runs{}.jsonl", first.len()));
        assert!(!served_from_cache(&cli(&path, first, None)));
        assert!(
            !served_from_cache(&cli(&path, second, None)),
            "{first:?} row served to {second:?}"
        );
        assert!(served_from_cache(&cli(&path, first, None)));
        assert!(served_from_cache(&cli(&path, second, None)));
        assert_eq!(checkpoint::load_report(&path).unwrap().0.len(), 2);
    }
    let path = dir.join("runs0.jsonl");
    let dump = dir.join("dump.bin");
    let dump = dump.to_str().unwrap();
    let invalid: [&[&str]; 12] = [
        &["--workers", "1", "--shards", "8"],
        &["--workers", "1", "--epoch", "20000"],
        &["--cores", "0"],
        &["--cores", "257"],
        &["--factor", "-1"],
        &["--policy", "random"],
        &["--policy", "ship"],
        &["--partition", "2", "--garibaldi"],
        &["--dump-trace", dump, "--replay", dump],
        // `cli_output` always passes `--checkpoint`.
        &["--dump-trace", dump],
        &["--seed", "-1"],
        &["--cores", "x"],
    ];
    for flags in invalid {
        let out = cli_output(&path, flags, None);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?} is a usage error: {err}");
        assert!(err.starts_with("error: ") && err.lines().count() == 1, "{flags:?}: {err}");
    }
    for flag in ["--seed", "--cores"] {
        let value = if flag == "--seed" { "-1" } else { "x" };
        let err = String::from_utf8(cli_output(&path, &[flag, value], None).stderr).unwrap();
        assert!(err.contains(flag) && err.contains(value), "names {flag} and {value}: {err}");
    }
    // A dump of the wrong core count, and one of empty streams: the
    // replay at `--cores 2` rejects either file. A replay's default key is
    // the live run's on the same engine, which `path` already holds, so
    // the replays get a checkpoint of their own.
    let replayed = dir.join("replayed.jsonl");
    for dump_flags in [&["--cores", "4"][..], &["--cores", "2", "--records", "0", "--warmup", "0"]]
    {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_garibaldi-cli"))
            .args(dump_flags)
            .args(["--dump-trace", dump])
            .output()
            .expect("garibaldi-cli runs");
        assert!(out.status.success(), "{dump_flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        let out = cli_output(&replayed, &["--replay", dump], None);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{dump_flags:?} replay is refused: {err}");
        assert!(err.contains("error: bad trace file"), "{dump_flags:?}: {err}");
    }
    // A PC past the text-line bound the frontend's prefetcher can store.
    let far = TraceRecord::fetch_only(VirtAddr::new(garibaldi_trace::PC_LIMIT), 8);
    std::fs::write(dump, serial::encode_multi(&[vec![far], vec![far]])).unwrap();
    let out = cli_output(&replayed, &["--replay", dump], None);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a PC past the limit is refused: {err}");
    assert!(err.contains("error: bad trace file") && err.contains("PC"), "{err}");
    assert!(checkpoint::load_report(&replayed).unwrap().0.is_empty());
    assert_eq!(checkpoint::load_report(&path).unwrap().0.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A parallel run that degrades to the serial engine is stored under the
/// serial key: a later serial run is served from it, a parallel one is
/// not, and it reports exactly what a fresh serial run reports.
#[test]
fn cli_degraded_run_is_stored_under_the_serial_key() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-cli-degraded");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.jsonl");
    let (degraded, err) = ok(cli_output(&path, &["--workers", "2"], Some("panic@epoch:1")));
    assert!(!served_from_cache(&err));
    assert!(err.contains("serial-v2"), "appended under the serial key: {err}");
    let (serial, err) = ok(cli_output(&dir.join("fresh.jsonl"), &[], None));
    assert!(!served_from_cache(&err));
    assert_eq!(degraded, serial, "the degraded run reports the serial engine's result");
    assert!(served_from_cache(&cli(&path, &[], None)), "the serial run finds the degraded row");
    assert!(!served_from_cache(&cli(&path, &["--workers", "2"], None)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine the environment picks is the engine the row is filed under:
/// with `GARIBALDI_WORKERS=2` and no `--workers`, the CLI runs the
/// parallel engine and appends a `sharded-…` key, which a later serial
/// run in a clean environment must not be served.
#[test]
fn cli_env_selected_engine_names_the_checkpoint_key() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-cli-env");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.jsonl");
    let (_, err) = ok(cli_env(&path, &[], &[("GARIBALDI_WORKERS", "2")]));
    assert!(err.contains("parallel engine: 2 workers"), "the parallel engine ran: {err}");
    assert!(err.contains("|sharded-"), "appended under the parallel key: {err}");
    assert!(!err.contains("serial-v2"), "not under the serial key: {err}");
    assert!(!served_from_cache(&cli(&path, &[], None)), "a serial run misses the parallel row");
    assert!(served_from_cache(&cli(&path, &["--workers", "2"], None)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A parallel run prints the engine's one-line summary on stderr exactly
/// once, with the largest barrier and the estimator's sample count; a
/// serial run prints none.
#[test]
fn cli_parallel_run_prints_the_engine_summary_once() {
    let dir = std::env::temp_dir().join("garibaldi-checkpoint-cli-summary");
    let _ = std::fs::remove_dir_all(&dir);
    let (_, err) = ok(cli_env(&dir.join("parallel.jsonl"), &["--workers", "1"], &[]));
    assert_eq!(err.matches("[engine] ").count(), 1, "one summary: {err}");
    assert_eq!(err.matches("peak_barrier_requests=").count(), 1, "{err}");
    let samples = err
        .split("estimator samples=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok());
    assert!(samples.is_some_and(|n| n > 0), "the summary counts estimator samples: {err}");
    let (_, err) = ok(cli_env(&dir.join("serial.jsonl"), &[], &[]));
    assert!(!err.contains("[engine]") && !err.contains("peak_barrier_requests"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
