//! Fig 1 — CPI stacks of SPEC (top) and server (bottom) workloads at core
//! counts 1 (left bar) and N (right bar), under the state-of-the-art LLC
//! scheme (Mockingjay).
//!
//! Paper shape to reproduce: server workloads show a large `ifetch`
//! component that *grows* with core count (LLC contention), while SPEC's
//! ifetch component is negligible at any core count.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_sim::experiment::run_homogeneous;

type Job = Box<dyn FnOnce() -> (String, usize, garibaldi_sim::CpiStack) + Send>;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let spec = ["gcc", "gobmk", "bwaves", "lbm", "cam4", "wrf"];
    let server = ["noop", "tpcc", "cassandra", "kafka", "tomcat", "verilator", "dotty", "xalan"];

    let mut jobs: Vec<Job> = Vec::new();
    for &w in spec.iter().chain(server.iter()) {
        for cores in [1usize, scale.cores] {
            let mut s = scale;
            s.cores = cores;
            jobs.push(Box::new(move || {
                let r = run_homogeneous(&s, LlcScheme::plain(PolicyKind::Mockingjay), w, 42);
                (w.to_string(), cores, r.mean_cpi_stack())
            }));
        }
    }
    let results = parallel_runs(jobs);

    let headers = ["workload", "cores", "base", "ifetch", "data", "branch", "total_cpi"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(w, cores, s)| {
            vec![
                w.clone(),
                cores.to_string(),
                format!("{:.3}", s.base),
                format!("{:.3}", s.ifetch),
                format!("{:.3}", s.data),
                format!("{:.3}", s.branch),
                format!("{:.3}", s.total()),
            ]
        })
        .collect();
    print_table("Fig 1: CPI stacks, 1 vs N cores (Mockingjay LLC)", &headers, &rows);
    write_csv("fig01_cpi_stack.csv", &headers, &rows);

    // Headline check: server ifetch CPI share grows with core count.
    let share = |w: &str, cores: usize| {
        results
            .iter()
            .find(|(rw, rc, _)| rw == w && *rc == cores)
            .map(|(_, _, s)| s.ifetch / s.total().max(1e-9))
            .unwrap_or(0.0)
    };
    let server_1: f64 = server.iter().map(|w| share(w, 1)).sum::<f64>() / server.len() as f64;
    let server_n: f64 =
        server.iter().map(|w| share(w, scale.cores)).sum::<f64>() / server.len() as f64;
    let spec_n: f64 = spec.iter().map(|w| share(w, scale.cores)).sum::<f64>() / spec.len() as f64;
    println!(
        "\nifetch share: server 1-core {:.1}% -> {}-core {:.1}%; SPEC {}-core {:.1}%",
        server_1 * 100.0,
        scale.cores,
        server_n * 100.0,
        scale.cores,
        spec_n * 100.0
    );
}
