//! Epoch-engine fidelity sweep — the study behind the default
//! `EngineConfig::epoch_cycles` and the benches' parallel-engine flip.
//!
//! Runs matched (mix, scale, scheme) points through the serial min-clock
//! engine and the epoch-sharded engine's one profile across an
//! `epoch_cycles` grid, prints the per-epoch error table, and writes the
//! machine-readable report to
//! `target/garibaldi-results/fidelity_report.jsonl` (the committed
//! reports live in `docs/fidelity/`). Individual runs checkpoint through
//! `fidelity_sweep.jsonl`, so an interrupted sweep resumes.
//!
//! The grid, mix count and workloads are those of the committed study
//! (`docs/fidelity/README.md` §"Setup"), at
//! `ExperimentScale::fidelity_small`; edit the constants to sweep another
//! study.

use garibaldi_bench::*;
use garibaldi_sim::experiment::run_mix_on;
use garibaldi_sim::fidelity::FidelitySuite;

/// `epoch_cycles` values swept on the parallel engine.
const GRID: [u64; 5] = [5_000, 20_000, 50_000, 100_000, 250_000];
/// Random server mixes of the mini Fig 11.
const MIXES: usize = 3;
/// Homogeneous workloads of the mini Fig 12.
const WORKLOADS: [&str; 4] = ["tpcc", "twitter", "kafka", "verilator"];

fn main() {
    let scale = ExperimentScale::fidelity_small();
    let suite = FidelitySuite::paper_figures(scale, MIXES, &WORKLOADS, GRID.to_vec());
    let jobs = suite.jobs();
    println!(
        "fidelity sweep: {} points × (serial + {} epoch values) = {} runs \
         (c{} r{} f{})",
        suite.points.len(),
        suite.epoch_grid.len(),
        jobs.len(),
        scale.cores,
        scale.records_per_core,
        scale.factor
    );

    let keyed: Vec<(String, Box<dyn FnOnce() -> RunResult + Send>)> = jobs
        .iter()
        .map(|j| {
            let p = &suite.points[j.point];
            let (mix, scheme, seed, engine) = (p.mix.clone(), p.scheme.clone(), p.seed, j.engine);
            let job: Box<dyn FnOnce() -> RunResult + Send> =
                Box::new(move || run_mix_on(&scale, scheme, &mix, seed, engine));
            (j.key.clone(), job)
        })
        .collect();
    let results = parallel_runs_checkpointed("fidelity_sweep.jsonl", keyed);

    let report = suite.assemble(&results);
    println!("\n== Epoch-engine fidelity vs the serial reference ==");
    print!("{}", report.human_table());

    let path = out_dir().join("fidelity_report.jsonl");
    std::fs::write(&path, report.to_json_lines()).expect("write fidelity report");
    println!("[report] {}", path.display());

    let target_tol = 0.01;
    let hard_tol = 0.02;
    if let Some(e) = report.recommend_epoch(target_tol) {
        let err = report.max_figure_err(e);
        if err <= target_tol {
            println!(
                "recommended default: epoch_cycles = {e} — largest grid point with \
                 figure-geomean error ≤ {:.1}% ({:.4}%; hard gate {:.1}%)",
                target_tol * 100.0,
                err * 100.0,
                hard_tol * 100.0
            );
        } else {
            println!(
                "no epoch meets the {:.1}% target; least-error epoch is {e} at {:.4}% \
                 (hard gate {:.1}%)",
                target_tol * 100.0,
                err * 100.0,
                hard_tol * 100.0
            );
        }
    }
    let current = EngineConfig::default().epoch_cycles;
    if report.epoch_grid.contains(&current) {
        let (f, c) = (report.max_figure_err(current), report.max_cell_err(current));
        let verdict = if f <= hard_tol { "within the hard gate" } else { "OVER the hard gate" };
        println!(
            "default epoch_cycles = {current}: figure err {:.4}%, cell err {:.4}% — {verdict}",
            f * 100.0,
            c * 100.0
        );
    } else {
        println!(
            "current EngineConfig::default().epoch_cycles = {current} is not in the sweep grid; \
             add it to GRID to validate it"
        );
    }
}
