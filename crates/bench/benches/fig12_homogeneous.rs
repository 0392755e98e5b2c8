//! Fig 12 — per-workload speedup over LRU under homogeneous server
//! workloads: DRRIP, Hawkeye, Mockingjay, each with and without Garibaldi.

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

    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for &w in registry::SERVER_NAMES.iter() {
        for scheme in &schemes {
            let scheme = scheme.clone();
            jobs.push(Box::new(move || run_homogeneous(&scale, scheme, w, 42).harmonic_mean_ipc()));
        }
    }
    let flat = parallel_runs(jobs);

    let labels: Vec<String> = schemes.iter().skip(1).map(|s| s.label()).collect();
    let mut headers: Vec<&str> = vec!["workload"];
    headers.extend(labels.iter().map(|s| s.as_str()));

    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len() - 1];
    let rows: Vec<Vec<String>> = registry::SERVER_NAMES
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let base = flat[wi * schemes.len()];
            let mut row = vec![w.to_string()];
            for si in 1..schemes.len() {
                let sp = speedup_over(base, flat[wi * schemes.len() + si]);
                per_scheme[si - 1].push(sp);
                row.push(format!("{:.4}", sp));
            }
            row
        })
        .collect();

    let mut rows = rows;
    let mut gm_row = vec!["geomean".to_string()];
    for v in &per_scheme {
        gm_row.push(format!("{:.4}", geomean(v)));
    }
    rows.push(gm_row);

    print_table("Fig 12: speedup over LRU, homogeneous server workloads", &headers, &rows);
    write_csv("fig12_homogeneous.csv", &headers, &rows);
    println!(
        "(paper geomeans: DRRIP 1.015, DRRIP+G 1.071, Hawkeye 1.019, Hawkeye+G 1.128, Mockingjay 1.061, Mockingjay+G 1.132)"
    );
}
