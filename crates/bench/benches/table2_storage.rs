//! Table 2 — Garibaldi storage overheads, computed from the configuration
//! (exact bit accounting; the paper's table rounds to power-of-two arrays).

use garibaldi::config::{
    COLOR_BITS, COST_MISS_STEP, DL_SCTR_THRESHOLD, HELPER_ENTRIES, HELPER_WAYS, INIT_COST,
    INIT_THRESHOLD, MISS_COST_BITS, PMU_RECENT_PCS, QBS_LOOKUP_COST, QBS_MAX_ATTEMPTS,
    THRESHOLD_MARGIN,
};
use garibaldi::{GaribaldiConfig, StorageReport};
use garibaldi_bench::*;

fn main() {
    let cfg = GaribaldiConfig::default();
    let cores = 40;
    let r = StorageReport::compute(&cfg, cores);

    let kb = |b: u64| format!("{:.1} KB", b as f64 / 1024.0);
    let headers = ["structure", "entries", "entry_bits", "size"];
    let rows = vec![
        vec![
            "main pair table".to_string(),
            cfg.pair_entries().to_string(),
            r.pair_entry_bits.to_string(),
            kb(r.pair_table_bytes),
        ],
        vec![
            "D_PPN table".to_string(),
            cfg.dppn_entries().to_string(),
            "23".to_string(),
            kb(r.dppn_table_bytes),
        ],
        vec![
            "helper table (per core)".to_string(),
            HELPER_ENTRIES.to_string(),
            "64".to_string(),
            kb(r.helper_table_bytes_per_core),
        ],
        vec![format!("total ({cores} cores)"), String::new(), String::new(), kb(r.total_bytes())],
    ];
    print_table("Table 2: Garibaldi storage overheads", &headers, &rows);
    write_csv("table2_storage.csv", &headers, &rows);

    let llc = 30u64 * 1024 * 1024;
    println!(
        "\noverhead vs 30 MB LLC: {:.2}% (paper: 193.9 KB total, 0.6%; +1 instr bit/line -> 0.8%)",
        r.overhead_vs_llc(llc) * 100.0
    );
    println!(
        "DL_PA field: {} bits (paper: 23); pair entry: {} bits (paper: 34 + k*23 = 57 at k=1)",
        r.dl_field_bits, r.pair_entry_bits
    );
    println!(
        "fixed parameters: miss cost {MISS_COST_BITS} b (init {INIT_COST}), coloring \
         {COLOR_BITS} b, threshold init {INIT_THRESHOLD} (margin {THRESHOLD_MARGIN}), \
         QBS_MAX_ATTEMPTS {QBS_MAX_ATTEMPTS}, QBS_LOOKUP_COST {QBS_LOOKUP_COST} cycle, \
         PMU ring {PMU_RECENT_PCS} PCs, helper {HELPER_ENTRIES} entries {HELPER_WAYS}-way, \
         DL sctr threshold {DL_SCTR_THRESHOLD}, miss step {COST_MISS_STEP}"
    );
}
