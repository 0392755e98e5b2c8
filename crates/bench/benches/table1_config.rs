//! Table 1 — the baseline system configuration, as encoded by
//! `SystemConfig::paper_baseline()` and the scaled derivation used by the
//! harness.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_sim::config::{
    BASE_CPI, BRANCH_PENALTY, L1_LATENCY, L2_CLUSTER_SIZE, L2_LATENCY, LLC_LATENCY, MLP_OVERLAP,
    ROB_SHADOW,
};

fn describe(name: &str, cfg: &SystemConfig) {
    println!("\n== Table 1: {name} ==");
    println!("cores:            {}", cfg.cores);
    println!(
        "L1I / L1D:        {} KB / {} KB, {}-way, {L1_LATENCY} cycles",
        cfg.l1i_bytes / 1024,
        cfg.l1d_bytes / 1024,
        cfg.l1_ways,
    );
    println!(
        "L2 (per {L2_CLUSTER_SIZE} cores): {} KB, {}-way, {L2_LATENCY} cycles",
        cfg.l2_bytes / 1024,
        cfg.l2_ways,
    );
    println!(
        "LLC (shared):     {} KB, {}-way, {LLC_LATENCY} cycles, non-inclusive",
        cfg.llc_bytes / 1024,
        cfg.llc_ways,
    );
    println!(
        "DRAM:             {} channels, {} cycles access, occupancy {} cycles/line, queue depth {}",
        cfg.dram.channels,
        cfg.dram.access_latency,
        cfg.dram.transfer_occupancy,
        cfg.dram.queue_depth
    );
    println!(
        "core model:       base CPI {BASE_CPI}, branch penalty {BRANCH_PENALTY}, ROB shadow \
         {ROB_SHADOW}, MLP overlap {MLP_OVERLAP}"
    );
    println!(
        "prefetchers:      L1I temporal+runahead={}, L1D next-line={}, L2 GHB={}",
        cfg.l1i_prefetcher, cfg.l1d_prefetcher, cfg.l2_prefetcher
    );
}

fn main() {
    describe("paper baseline (Table 1)", &SystemConfig::paper_baseline());
    let scale = ExperimentScale::from_env();
    let scaled = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
    describe(&format!("harness scale (factor {}, {} cores)", scale.factor, scale.cores), &scaled);
    let rows = vec![vec![
        scaled.cores.to_string(),
        scaled.llc_bytes.to_string(),
        scaled.llc_ways.to_string(),
        scaled.l2_bytes.to_string(),
    ]];
    write_csv("table1_config.csv", &["cores", "llc_bytes", "llc_ways", "l2_bytes"], &rows);
}
