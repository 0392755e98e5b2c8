//! Fig 4(c) — instruction miss rates conditioned on the paired data
//! access's outcome: `MissRate_DataHit` vs `MissRate_DataMiss` per server
//! workload, plus the §3.2 lifecycle-sharing measurement (fraction of data
//! lines shared by multiple instructions during residency).

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_trace::{registry, WorkloadMix};

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let jobs: Vec<Box<dyn FnOnce() -> (String, RunResult) + Send>> = registry::SERVER_NAMES
        .iter()
        .map(|&w| {
            Box::new(move || {
                let mut cfg =
                    SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Mockingjay));
                cfg.profile_reuse = true;
                let runner = SimRunner::new(cfg, WorkloadMix::homogeneous(w, scale.cores), 42);
                let r = runner.run(scale.records_per_core, scale.warmup_per_core);
                (w.to_string(), r)
            }) as _
        })
        .collect();
    let results = parallel_runs(jobs);

    let headers =
        ["workload", "MissRate_DataHit", "MissRate_DataMiss", "pairs", "shared_lifecycles"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(w, r)| {
            vec![
                w.clone(),
                format!("{:.3}", r.conditional.miss_rate_data_hit()),
                format!("{:.3}", r.conditional.miss_rate_data_miss()),
                r.conditional.pairs().to_string(),
                format!("{:.3}", r.reuse.map(|x| x.shared_lifecycle_fraction).unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table("Fig 4(c): instruction miss rate by paired-data outcome", &headers, &rows);
    write_csv("fig04_miss_cost.csv", &headers, &rows);

    let xalan = results.iter().find(|(w, _)| w == "xalan").expect("xalan present");
    println!(
        "\nxalan exception (paper: the one workload with MissRate_DataHit < MissRate_DataMiss): hit={:.3} miss={:.3}",
        xalan.1.conditional.miss_rate_data_hit(),
        xalan.1.conditional.miss_rate_data_miss()
    );
    if let Some((_, v)) = results.iter().find(|(w, _)| w == "verilator") {
        println!(
            "verilator lifecycle sharing (paper: 73.7% of hitting data lines shared by multiple instructions): {:.1}%",
            v.reuse.map(|x| x.shared_lifecycle_fraction * 100.0).unwrap_or(0.0)
        );
    }
}
