//! Fig 11 — end-to-end throughput-speedup distribution over random
//! multiprogrammed server mixes: Hawkeye, Hawkeye+Garibaldi, Mockingjay,
//! Mockingjay+Garibaldi, each normalized to LRU and sorted by
//! Mockingjay+Garibaldi's speedup (the paper's S-curve).
//!
//! The metric is IPC throughput: a scheme's Σ IPC over the mix's cores
//! divided by LRU's Σ IPC on the same mix (`RunResult::ipc_sum`). This is
//! not the paper's weighted speedup (Σ IPC_shared / IPC_single): the
//! single-core IPCs do not cancel from that ratio unless they are all
//! equal, so the two metrics differ in general.
//!
//! Runs `MIXES` = 20 random server mixes (paper: 60).
//!
//! Runs checkpoint through `fig11_end_to_end.jsonl` in the results dir:
//! an interrupted sweep resumes with only the missing (mix, scheme) cells.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_trace::random_server_mixes;

/// Random server mixes per run (the paper's figure has 60).
const MIXES: usize = 20;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_ENGINE=serial for the min-clock reference)", engine_tag());
    let mixes = random_server_mixes(MIXES, scale.cores, 77);

    let schemes = [
        LlcScheme::plain(PolicyKind::Lru),
        LlcScheme::plain(PolicyKind::Hawkeye),
        LlcScheme::with_garibaldi(PolicyKind::Hawkeye),
        LlcScheme::plain(PolicyKind::Mockingjay),
        LlcScheme::mockingjay_garibaldi(),
    ];

    let engine = engine_tag();
    let mut jobs: Vec<(String, Box<dyn FnOnce() -> RunResult + Send>)> = Vec::new();
    for (m, mix) in mixes.iter().enumerate() {
        for scheme in &schemes {
            let mix = mix.clone();
            let scheme = scheme.clone();
            let key = format!(
                "fig11/{engine}/c{}r{}f{}/mix{m}/{}",
                scale.cores,
                scale.records_per_core,
                scale.factor,
                scheme.label()
            );
            jobs.push((key, Box::new(move || run_mix(&scale, scheme, &mix, 42))));
        }
    }
    let flat: Vec<f64> = parallel_runs_checkpointed("fig11_end_to_end.jsonl", jobs)
        .iter()
        .map(|r| r.ipc_sum())
        .collect();

    // Rows: one per mix, normalized to its LRU run.
    let mut rows_raw: Vec<[f64; 4]> = Vec::new();
    for m in 0..mixes.len() {
        let base = flat[m * schemes.len()];
        rows_raw.push([
            speedup_over(base, flat[m * schemes.len() + 1]),
            speedup_over(base, flat[m * schemes.len() + 2]),
            speedup_over(base, flat[m * schemes.len() + 3]),
            speedup_over(base, flat[m * schemes.len() + 4]),
        ]);
    }
    rows_raw.sort_by(|a, b| a[3].partial_cmp(&b[3]).expect("finite"));

    let headers = ["mix#", "Hawkeye", "Hawkeye+G", "Mockingjay", "Mockingjay+G"];
    let rows: Vec<Vec<String>> = rows_raw
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                format!("{:.4}", r[0]),
                format!("{:.4}", r[1]),
                format!("{:.4}", r[2]),
                format!("{:.4}", r[3]),
            ]
        })
        .collect();
    print_table("Fig 11: speedup over LRU across server mixes (sorted)", &headers, &rows);
    write_csv("fig11_end_to_end.csv", &headers, &rows);

    for (i, name) in ["Hawkeye", "Hawkeye+G", "Mockingjay", "Mockingjay+G"].iter().enumerate() {
        let gm = geomean(&rows_raw.iter().map(|r| r[i]).collect::<Vec<_>>());
        println!("geomean {name}: {gm:.4}");
    }
    println!(
        "(paper geomeans: Hawkeye 1.013, Hawkeye+G 1.056, Mockingjay 1.040, Mockingjay+G 1.093)"
    );
}
