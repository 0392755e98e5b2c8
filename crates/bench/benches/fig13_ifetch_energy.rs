//! Fig 13 — instruction-fetch stall cycles and energy, normalized to LRU,
//! per server workload under Mockingjay ± Garibaldi (plus DRRIP/Hawkeye
//! variants in the CSV).

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

    let mut jobs: Vec<Box<dyn FnOnce() -> (f64, f64) + Send>> = Vec::new();
    for &w in registry::SERVER_NAMES.iter() {
        for scheme in &schemes {
            let scheme = scheme.clone();
            jobs.push(Box::new(move || {
                let r = run_homogeneous(&scale, scheme, w, 42);
                (r.total_ifetch_stall(), r.energy.total_j())
            }));
        }
    }
    let flat = parallel_runs(jobs);

    let headers = [
        "workload",
        "ifetch_mj",
        "ifetch_mj+G",
        "energy_mj",
        "energy_mj+G",
        "ifetch_hk+G",
        "energy_hk+G",
    ];
    let mut ifetch_mjg = Vec::new();
    let mut energy_mjg = Vec::new();
    let rows: Vec<Vec<String>> = registry::SERVER_NAMES
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let at = |si: usize| flat[wi * schemes.len() + si];
            let (if_lru, en_lru) = at(0);
            let (if_hkg, en_hkg) = at(4);
            let (if_mj, en_mj) = at(5);
            let (if_mjg, en_mjg) = at(6);
            ifetch_mjg.push(if_mjg / if_lru.max(1e-9));
            energy_mjg.push(en_mjg / en_lru.max(1e-9));
            vec![
                w.to_string(),
                format!("{:.3}", if_mj / if_lru.max(1e-9)),
                format!("{:.3}", if_mjg / if_lru.max(1e-9)),
                format!("{:.3}", en_mj / en_lru.max(1e-9)),
                format!("{:.3}", en_mjg / en_lru.max(1e-9)),
                format!("{:.3}", if_hkg / if_lru.max(1e-9)),
                format!("{:.3}", en_hkg / en_lru.max(1e-9)),
            ]
        })
        .collect();
    print_table("Fig 13: ifetch stall cycles & energy (normalized to LRU)", &headers, &rows);
    write_csv("fig13_ifetch_energy.csv", &headers, &rows);
    println!(
        "\ngeomean Mockingjay+G: ifetch {:.3} (paper 0.82), energy {:.3} (paper 0.896)",
        geomean(&ifetch_mjg),
        geomean(&energy_mjg)
    );
}
