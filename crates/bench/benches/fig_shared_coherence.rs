//! Shared-data coherence figure — per-workload speedup over LRU under the
//! homogeneous shared-memory family (barnes/ocean/radix/raytrace), plus the
//! coherence traffic each scheme sustains (invalidations per kilo-instruction).
//!
//! The shared family is the only workload class that exercises the MESI
//! directory path; the second table exists to make a silent regression of
//! that path (inval rate collapsing to ~0) visible at a glance. Serial
//! golden baselines for these profiles live in
//! `crates/sim/tests/golden/coherence_baselines.jsonl` and are enforced by
//! the `coherence_differential` test battery.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_sim::experiment::run_homogeneous;
use garibaldi_trace::registry;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let schemes = [
        LlcScheme::plain(PolicyKind::Lru),
        LlcScheme::plain(PolicyKind::Drrip),
        LlcScheme::with_garibaldi(PolicyKind::Drrip),
        LlcScheme::plain(PolicyKind::Hawkeye),
        LlcScheme::with_garibaldi(PolicyKind::Hawkeye),
        LlcScheme::plain(PolicyKind::Mockingjay),
        LlcScheme::mockingjay_garibaldi(),
    ];

    // Each job reports (harmonic-mean IPC, invalidations per kilo-instr).
    let mut jobs: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = Vec::new();
    for &w in registry::SHARED_NAMES.iter() {
        for scheme in &schemes {
            let scheme = scheme.clone();
            jobs.push(Box::new(move || {
                let r = run_homogeneous(&scale, scheme, w, 42);
                let inval_pki = r.invalidations as f64 * 1000.0 / r.total_instrs().max(1) as f64;
                (r.harmonic_mean_ipc(), inval_pki)
            }));
        }
    }
    let flat = parallel_runs(jobs);

    let labels: Vec<String> = schemes.iter().skip(1).map(|s| s.label()).collect();
    let mut headers: Vec<&str> = vec!["workload"];
    headers.extend(labels.iter().map(|s| s.as_str()));

    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len() - 1];
    let mut rows: Vec<Vec<String>> = registry::SHARED_NAMES
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let base = flat[wi * schemes.len()].0;
            let mut row = vec![w.to_string()];
            for si in 1..schemes.len() {
                let sp = speedup_over(base, flat[wi * schemes.len() + si].0);
                per_scheme[si - 1].push(sp);
                row.push(format!("{:.4}", sp));
            }
            row
        })
        .collect();
    let mut gm_row = vec!["geomean".to_string()];
    for v in &per_scheme {
        gm_row.push(format!("{:.4}", geomean(v)));
    }
    rows.push(gm_row);
    print_table(
        "Shared coherence: speedup over LRU, homogeneous shared workloads",
        &headers,
        &rows,
    );
    write_csv("fig_shared_coherence_speedup.csv", &headers, &rows);

    let inval_labels: Vec<String> = schemes.iter().map(|s| s.label()).collect();
    let mut inval_headers: Vec<&str> = vec!["workload"];
    inval_headers.extend(inval_labels.iter().map(|s| s.as_str()));
    let inval_rows: Vec<Vec<String>> = registry::SHARED_NAMES
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let mut row = vec![w.to_string()];
            for si in 0..schemes.len() {
                row.push(format!("{:.4}", flat[wi * schemes.len() + si].1));
            }
            row
        })
        .collect();
    print_table("Shared coherence: invalidations per kilo-instr", &inval_headers, &inval_rows);
    write_csv("fig_shared_coherence_invals.csv", &inval_headers, &inval_rows);
    println!("(inval rates must stay > 0: a zero row means the MESI directory path went dormant)");
}
