//! Golden-metrics regression gate for the epoch-sharded engine
//! (`ISSUE 3` tentpole; methodology in `docs/ARCHITECTURE.md` §"Fidelity").
//!
//! Two layers of protection, both at a CI-sized scale:
//!
//! 1. **Serial goldens** — every suite point's serial-engine `RunResult`
//!    is committed to `tests/golden/fidelity_baselines.jsonl` (checkpoint
//!    format). A change that moves any figure-bearing metric by more than
//!    float-noise fails here, so figure drift is caught by tier-1 rather
//!    than by a reviewer eyeballing bench output. Regenerate deliberately
//!    with `GARIBALDI_BLESS=1 cargo test --test fidelity`.
//! 2. **Parallel tolerance** — the parallel engine at the default
//!    `epoch_cycles` (plus any `GARIBALDI_FIDELITY_EPOCH` off-default
//!    point, which the CI `fidelity-gate` job exercises) must keep every
//!    figure-level geomean within the hard gate of the serial goldens.

use garibaldi_sim::experiment::run_mix_on;
use garibaldi_sim::fidelity::{FidelityJob, FidelitySuite};
use garibaldi_sim::{checkpoint, EngineConfig, ExperimentScale, RunResult};
use std::collections::HashMap;
use std::path::PathBuf;

/// Figure-geomean tolerance the parallel engine must meet (the ISSUE's
/// hard gate; the measured study value at the chosen default is well
/// below — see docs/fidelity/).
const HARD_GATE: f64 = 0.02;

/// Tolerance for re-running the serial engine against its own golden:
/// generous float-noise headroom (libm differences across hosts), still
/// orders of magnitude below any real figure movement.
const GOLDEN_TOL: f64 = 1e-6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fidelity_baselines.jsonl")
}

/// The gate suite: a trimmed mini-fig11/fig12 at a gate-sized scale —
/// large enough that the default epoch window fits several times into a
/// run, small enough for tier-1.
fn gate_suite() -> FidelitySuite {
    let scale = ExperimentScale {
        factor: 0.25,
        cores: 4,
        records_per_core: 12_000,
        warmup_per_core: 3_000,
        color_period: 4_000,
    };
    let default_epoch = EngineConfig::default().epoch_cycles;
    let mut grid = vec![default_epoch];
    if let Some(e) = garibaldi_sim::config::env_positive("GARIBALDI_FIDELITY_EPOCH") {
        if e as u64 != default_epoch {
            grid.push(e as u64);
        }
    }
    FidelitySuite::paper_figures(scale, 1, &["tpcc", "twitter"], grid)
}

fn run_jobs(suite: &FidelitySuite, jobs: &[FidelityJob]) -> Vec<RunResult> {
    jobs.iter()
        .map(|j| {
            let p = &suite.points[j.point];
            run_mix_on(&suite.scale, p.scheme.clone(), &p.mix, p.seed, j.engine)
        })
        .collect()
}

fn load_goldens() -> HashMap<String, RunResult> {
    let path = golden_path();
    let (m, salvage) = checkpoint::load_report(&path).unwrap_or_else(|e| panic!("{e}"));
    // The committed goldens predate the framed format — they load as
    // version mismatches by design — but any *garbage* or torn tail means
    // the file was damaged, which a gate must never paper over.
    assert_eq!(salvage.skipped_garbage, 0, "golden file {} is damaged ({salvage})", path.display());
    assert!(!salvage.truncated_tail, "golden file {} has a torn tail", path.display());
    assert!(
        !m.is_empty(),
        "no golden baselines at {} — generate them with \
         GARIBALDI_BLESS=1 cargo test --test fidelity",
        path.display()
    );
    m
}

/// The serial engine still reproduces its committed golden metrics.
///
/// The bless run (`GARIBALDI_BLESS=1`) also regenerates the
/// parallel-engine block at the default `epoch_cycles` — the exact-match
/// baselines `parallel_profile_matches_golden_baselines` gates on.
#[test]
fn serial_engine_matches_golden_baselines() {
    let suite = gate_suite();
    let jobs = suite.jobs();
    let serial_jobs = &jobs[..suite.points.len()];
    let serial = run_jobs(&suite, serial_jobs);

    if std::env::var("GARIBALDI_BLESS").as_deref() == Ok("1") {
        // The first parallel block of `jobs()` is always the default
        // epoch window (the gate grid leads with it).
        let par_jobs = &jobs[suite.points.len()..2 * suite.points.len()];
        let par = run_jobs(&suite, par_jobs);
        let path = golden_path();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut text = String::new();
        for (j, r) in serial_jobs.iter().zip(&serial).chain(par_jobs.iter().zip(&par)) {
            text.push_str(&checkpoint::to_json_line(&j.key, r));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        println!(
            "blessed {} baselines into {}",
            serial_jobs.len() + par_jobs.len(),
            path.display()
        );
        return;
    }

    let goldens = load_goldens();
    for (j, r) in serial_jobs.iter().zip(&serial) {
        let golden = goldens.get(&j.key).unwrap_or_else(|| {
            panic!(
                "{} missing from {} — the gate suite changed; re-bless with \
                 GARIBALDI_BLESS=1 cargo test --test fidelity",
                j.key,
                golden_path().display()
            )
        });
        let diff = r.diff(golden);
        assert!(
            diff.within(GOLDEN_TOL),
            "{}: serial engine moved beyond float noise from its golden: {:?}\n\
             If this figure movement is intended, re-bless with \
             GARIBALDI_BLESS=1 cargo test --test fidelity",
            j.key,
            diff.violations(GOLDEN_TOL)
        );
    }
}

/// The parallel engine's one profile reproduces its committed numbers
/// exactly (float-noise tolerance): an engine refactor must never silently
/// change the default parallel engine's simulated results.
#[test]
fn parallel_profile_matches_golden_baselines() {
    if std::env::var("GARIBALDI_BLESS").as_deref() == Ok("1") {
        return; // blessing run: baselines are being rewritten.
    }
    let suite = gate_suite();
    let jobs = suite.jobs();
    let n = suite.points.len();
    // The first parallel block is the default epoch window.
    let par_jobs = &jobs[n..2 * n];
    let par = run_jobs(&suite, par_jobs);
    let goldens = load_goldens();
    for (j, r) in par_jobs.iter().zip(&par) {
        let golden = goldens.get(&j.key).unwrap_or_else(|| {
            panic!(
                "{} missing from {} — re-bless with GARIBALDI_BLESS=1 cargo test --test fidelity",
                j.key,
                golden_path().display()
            )
        });
        let diff = r.diff(golden);
        assert!(
            diff.within(GOLDEN_TOL),
            "{}: parallel engine moved beyond float noise from its golden: {:?}\n\
             If this movement is a deliberate model change, re-bless with \
             GARIBALDI_BLESS=1 cargo test --test fidelity",
            j.key,
            diff.violations(GOLDEN_TOL)
        );
    }
}

/// The parallel engine keeps every figure-level geomean within the hard
/// gate of the committed serial goldens, at the default `epoch_cycles`
/// and at any `GARIBALDI_FIDELITY_EPOCH` override.
#[test]
fn parallel_engine_within_hard_gate_of_goldens() {
    if std::env::var("GARIBALDI_BLESS").as_deref() == Ok("1") {
        return; // blessing run: baselines are being rewritten.
    }
    let suite = gate_suite();
    let jobs = suite.jobs();
    let n = suite.points.len();
    let goldens = load_goldens();
    // Serial block from the goldens (drift there is the other test's job —
    // gating the parallel engine against *committed* numbers keeps the two
    // failure modes separable); parallel blocks run live.
    let mut results: Vec<RunResult> = jobs[..n]
        .iter()
        .map(|j| {
            goldens
                .get(&j.key)
                .unwrap_or_else(|| panic!("{} missing — re-bless (see test docs)", j.key))
                .clone()
        })
        .collect();
    results.extend(run_jobs(&suite, &jobs[n..]));

    let report = suite.assemble(&results);
    for &epoch in &suite.epoch_grid {
        let err = report.max_figure_err(epoch);
        assert!(
            err <= HARD_GATE,
            "figure-geomean error {:.4}% at epoch_cycles={epoch} exceeds the \
             {:.1}% hard gate\n{}",
            err * 100.0,
            HARD_GATE * 100.0,
            report.human_table()
        );
    }
}
