//! Fig 14 — Garibaldi configuration sensitivity on server mixes
//! (Mockingjay host policy):
//! (a) DL_PA fields per entry k ∈ {0, 1, 2, 4};
//! (b) protection threshold {Mockingjay-only, AllProtect, −16, +0, +16, dynamic};
//! (c) pair-table entries {2⁶, 2¹⁰, 2¹⁴, 2¹⁸};
//! (d) instruction way-partitioning {0..8 ways} vs Garibaldi;
//! plus a protection-only / prefetch-only ablation (not a paper panel).
//!
//! Runs `MIXES` = 8 random server mixes (paper: 30).

use garibaldi::{GaribaldiConfig, ThresholdMode};
use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_trace::{random_server_mixes, WorkloadMix};

/// Random server mixes per variant (the paper's figure has 30).
const MIXES: usize = 8;

fn garibaldi_with(f: impl FnOnce(&mut GaribaldiConfig)) -> LlcScheme {
    let mut g = GaribaldiConfig::default();
    f(&mut g);
    LlcScheme { policy: PolicyKind::Mockingjay, garibaldi: Some(g) }
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let mixes = random_server_mixes(MIXES, scale.cores, 99);

    // (label, scheme, partition_ways)
    let mut variants: Vec<(String, LlcScheme, usize)> = vec![
        ("lru".into(), LlcScheme::plain(PolicyKind::Lru), 0),
        ("mockingjay".into(), LlcScheme::plain(PolicyKind::Mockingjay), 0),
    ];
    for k in [0u8, 1, 2, 4] {
        variants.push((format!("k={k}"), garibaldi_with(|g| g.k = k), 0));
    }
    variants.push((
        "thr=all-protect".into(),
        garibaldi_with(|g| g.threshold_mode = ThresholdMode::AllProtect),
        0,
    ));
    for delta in [-16i32, 0, 16] {
        variants.push((
            format!("thr={delta:+}"),
            garibaldi_with(|g| g.threshold_mode = ThresholdMode::Fixed(delta)),
            0,
        ));
    }
    variants.push(("thr=dynamic".into(), garibaldi_with(|_| {}), 0));
    for bits in [6u32, 10, 14, 18] {
        variants.push((
            format!("pairs=2^{bits}"),
            garibaldi_with(|g| g.pair_entries_log2 = bits),
            0,
        ));
    }
    for ways in [1usize, 2, 4, 8] {
        variants.push((
            format!("partition={ways}w"),
            LlcScheme::plain(PolicyKind::Mockingjay),
            ways,
        ));
    }
    variants.push(("protect-only".into(), garibaldi_with(|g| g.enable_prefetch = false), 0));
    variants.push(("prefetch-only".into(), garibaldi_with(|g| g.enable_protection = false), 0));

    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for mix in &mixes {
        for (_, scheme, part) in &variants {
            let mix: WorkloadMix = mix.clone();
            let scheme = scheme.clone();
            let part = *part;
            jobs.push(Box::new(move || {
                let mut cfg = SystemConfig::scaled(&scale, scheme);
                cfg.partition_instr_ways = part;
                let runner = SimRunner::new(cfg, mix, 42);
                runner.run(scale.records_per_core, scale.warmup_per_core).ipc_sum()
            }));
        }
    }
    let flat = parallel_runs(jobs);

    let headers = ["variant", "speedup_over_lru(geomean)"];
    let nv = variants.len();
    let rows: Vec<Vec<String>> = variants
        .iter()
        .enumerate()
        .skip(1)
        .map(|(vi, (label, _, _))| {
            let speedups: Vec<f64> =
                (0..mixes.len()).map(|m| speedup_over(flat[m * nv], flat[m * nv + vi])).collect();
            vec![label.clone(), format!("{:.4}", geomean(&speedups))]
        })
        .collect();
    print_table("Fig 14: Garibaldi sensitivity (Mockingjay host, server mixes)", &headers, &rows);
    write_csv("fig14_sensitivity.csv", &headers, &rows);
    println!(
        "(paper: k: 0→1.089, 1→1.101, 2→1.102, 8→1.092; thr: all→1.052, -16→1.063, +0→1.074, +16→1.071, dyn→1.101;"
    );
    println!(
        " pairs: 2^6→1.049, 2^10→1.062, 2^14→1.101, 2^18→1.111; partition best 2w→1.065 < Garibaldi)"
    );
}
