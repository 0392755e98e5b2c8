//! Fig 16 — LLC capacity sensitivity: Mockingjay and Mockingjay+Garibaldi
//! at {0.5×, 1×, 1.25×, 1.5×, 2×} the baseline LLC capacity (the paper's
//! 15/30/37.5/45/60 MB points), normalized to LRU at 1×. Associativity
//! fixed at 12 ways.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_trace::WorkloadMix;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let server8 =
        ["noop", "smallbank", "tpcc", "voter", "kafka", "verilator", "finagle-http", "tomcat"];
    let factors = [0.5f64, 1.0, 1.25, 1.5, 2.0];
    let schemes = [
        LlcScheme::plain(PolicyKind::Lru),
        LlcScheme::plain(PolicyKind::Mockingjay),
        LlcScheme::mockingjay_garibaldi(),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for &w in &server8 {
        for &f in &factors {
            for scheme in &schemes {
                let scheme = scheme.clone();
                jobs.push(Box::new(move || {
                    let mut cfg = SystemConfig::scaled(&scale, scheme);
                    cfg.llc_bytes = (cfg.llc_bytes as f64 * f) as u64 / 4096 * 4096;
                    let runner = SimRunner::new(cfg, WorkloadMix::homogeneous(w, scale.cores), 42);
                    runner.run(scale.records_per_core, scale.warmup_per_core).harmonic_mean_ipc()
                }));
            }
        }
    }
    let flat = parallel_runs(jobs);

    let headers = ["workload", "llc_x", "lru", "mockingjay", "mockingjay+G"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (wi, w) in server8.iter().enumerate() {
        // Normalize to LRU at 1× (index of factor 1.0 is 1).
        let base = flat[wi * factors.len() * 3 + 3];
        for (fi, f) in factors.iter().enumerate() {
            let at = |si: usize| flat[wi * factors.len() * 3 + fi * 3 + si];
            rows.push(vec![
                w.to_string(),
                format!("{f:.2}"),
                format!("{:.4}", speedup_over(base, at(0))),
                format!("{:.4}", speedup_over(base, at(1))),
                format!("{:.4}", speedup_over(base, at(2))),
            ]);
        }
    }
    print_table("Fig 16: LLC capacity sensitivity (normalized to LRU at 1x)", &headers, &rows);
    write_csv("fig16_llc_capacity.csv", &headers, &rows);
    println!("(paper shape: Mockingjay's edge shrinks with capacity; Garibaldi keeps a margin even at 2x)");
}
