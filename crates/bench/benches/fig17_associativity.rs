//! Fig 17 — LLC associativity sensitivity: {6, 12, 24, 48} ways at fixed
//! capacity, normalized to LRU at 12 ways.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_trace::WorkloadMix;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let server8 =
        ["noop", "sibench", "twitter", "voter", "finagle-http", "tomcat", "verilator", "tpcc"];
    let ways = [6usize, 12, 24, 48];
    let schemes = [
        LlcScheme::plain(PolicyKind::Lru),
        LlcScheme::plain(PolicyKind::Mockingjay),
        LlcScheme::mockingjay_garibaldi(),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for &w in &server8 {
        for &a in &ways {
            for scheme in &schemes {
                let scheme = scheme.clone();
                jobs.push(Box::new(move || {
                    let mut cfg = SystemConfig::scaled(&scale, scheme);
                    cfg.llc_ways = a;
                    let runner = SimRunner::new(cfg, WorkloadMix::homogeneous(w, scale.cores), 42);
                    runner.run(scale.records_per_core, scale.warmup_per_core).harmonic_mean_ipc()
                }));
            }
        }
    }
    let flat = parallel_runs(jobs);

    let headers = ["workload", "ways", "lru", "mockingjay", "mockingjay+G"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (wi, w) in server8.iter().enumerate() {
        let base = flat[wi * ways.len() * 3 + 3]; // LRU at 12 ways
        for (ai, a) in ways.iter().enumerate() {
            let at = |si: usize| flat[wi * ways.len() * 3 + ai * 3 + si];
            rows.push(vec![
                w.to_string(),
                a.to_string(),
                format!("{:.4}", speedup_over(base, at(0))),
                format!("{:.4}", speedup_over(base, at(1))),
                format!("{:.4}", speedup_over(base, at(2))),
            ]);
        }
    }
    print_table(
        "Fig 17: LLC associativity sensitivity (normalized to LRU at 12w)",
        &headers,
        &rows,
    );
    write_csv("fig17_associativity.csv", &headers, &rows);
    println!("(paper shape: Garibaldi's margin over Mockingjay peaks at 48 ways, +7.1%)");
}
