//! Fig 15 — (a) Garibaldi's benefit versus the fraction of server
//! workloads in the mix (0..100 %); (b) comparison against simply adding
//! the pair table's storage budget to the LLC or to the L1I.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_sim::experiment::{run_homogeneous, run_mix};
use garibaldi_trace::server_spec_mix;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());

    // (a) server percentage sweep.
    let pcts = [0u32, 25, 50, 75, 100];
    let schemes = [
        LlcScheme::plain(PolicyKind::Lru),
        LlcScheme::plain(PolicyKind::Mockingjay),
        LlcScheme::mockingjay_garibaldi(),
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for &pct in &pcts {
        let mix = server_spec_mix(pct, scale.cores, 5);
        for scheme in &schemes {
            let scheme = scheme.clone();
            let mix = mix.clone();
            jobs.push(Box::new(move || run_mix(&scale, scheme, &mix, 42).ipc_sum()));
        }
    }
    let flat = parallel_runs(jobs);
    let headers = ["server%", "mockingjay/lru", "mockingjay+G/lru"];
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .enumerate()
        .map(|(i, pct)| {
            let base = flat[i * 3];
            vec![
                pct.to_string(),
                format!("{:.4}", speedup_over(base, flat[i * 3 + 1])),
                format!("{:.4}", speedup_over(base, flat[i * 3 + 2])),
            ]
        })
        .collect();
    print_table("Fig 15(a): benefit vs server fraction of the mix", &headers, &rows);
    write_csv("fig15_a.csv", &headers, &rows);
    println!(
        "(paper: Garibaldi's edge over Mockingjay grows from +0.1% at 0% server to +5.3% at 75%+)"
    );

    // (b) same storage budget spent elsewhere: +200KB LLC / +5KB L1I.
    // Storage figures follow Table 2 at full scale and scale with the run.
    let extra_llc = (200.0 * 1024.0 * scale.factor) as u64;
    let extra_l1i = (5.0 * 1024.0 * scale.factor) as u64;
    let server8 = ["noop", "tpcc", "cassandra", "verilator", "tomcat", "dotty", "xalan", "twitter"];
    let variants: Vec<(&str, LlcScheme, u64, u64)> = vec![
        ("mockingjay", LlcScheme::plain(PolicyKind::Mockingjay), 0, 0),
        ("+200KB LLC", LlcScheme::plain(PolicyKind::Mockingjay), extra_llc, 0),
        ("+5KB L1I", LlcScheme::plain(PolicyKind::Mockingjay), 0, extra_l1i),
        ("garibaldi", LlcScheme::mockingjay_garibaldi(), 0, 0),
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for &w in &server8 {
        // LRU baseline.
        jobs.push(Box::new(move || {
            run_homogeneous(&scale, LlcScheme::plain(PolicyKind::Lru), w, 42).harmonic_mean_ipc()
        }));
        for (_, scheme, dllc, dl1i) in &variants {
            let scheme = scheme.clone();
            let (dllc, dl1i) = (*dllc, *dl1i);
            jobs.push(Box::new(move || {
                let mut cfg = SystemConfig::scaled(&scale, scheme);
                cfg.llc_bytes += dllc;
                cfg.l1i_bytes += dl1i;
                let runner = SimRunner::new(
                    cfg,
                    garibaldi_trace::WorkloadMix::homogeneous(w, scale.cores),
                    42,
                );
                runner.run(scale.records_per_core, scale.warmup_per_core).harmonic_mean_ipc()
            }));
        }
    }
    let flat = parallel_runs(jobs);
    let stride = variants.len() + 1;
    let headers = ["variant", "speedup_over_lru(geomean)"];
    let rows: Vec<Vec<String>> = variants
        .iter()
        .enumerate()
        .map(|(vi, (label, ..))| {
            let sp: Vec<f64> = (0..server8.len())
                .map(|w| speedup_over(flat[w * stride], flat[w * stride + 1 + vi]))
                .collect();
            vec![label.to_string(), format!("{:.4}", geomean(&sp))]
        })
        .collect();
    print_table("Fig 15(b): same storage budget, different placements", &headers, &rows);
    write_csv("fig15_b.csv", &headers, &rows);
    println!("(paper: +200KB LLC +0.21%, +5KB L1I +0.48%, Garibaldi +5.25% over Mockingjay)");
}
