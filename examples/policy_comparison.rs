//! Replacement-policy comparison on one workload: every policy the paper
//! evaluates (LRU, DRRIP, Hawkeye, Mockingjay), each with and without the
//! Garibaldi module.
//!
//! Run with: `cargo run --release -p garibaldi-sim --example policy_comparison [workload]`

use garibaldi_cache::PolicyKind;
use garibaldi_sim::experiment::run_homogeneous;
use garibaldi_sim::{ExperimentScale, LlcScheme};

fn main() {
    let workload = std::env::args().nth(1).unwrap_or_else(|| "noop".to_string());
    // Large enough that footprints stress the LLC and the policies separate.
    let scale = ExperimentScale {
        factor: 0.25,
        cores: 4,
        records_per_core: 30_000,
        warmup_per_core: 8_000,
        color_period: 8_000,
    };
    println!("policy sweep on '{workload}' ({} cores):\n", scale.cores);
    println!("{:<24} {:>8} {:>10} {:>10}", "scheme", "IPC", "LLC-miss%", "ifetchCPI");

    for kind in PolicyKind::ALL {
        for garibaldi in [false, true] {
            let scheme =
                if garibaldi { LlcScheme::with_garibaldi(kind) } else { LlcScheme::plain(kind) };
            let r = run_homogeneous(&scale, scheme.clone(), &workload, 11);
            println!(
                "{:<24} {:>8.4} {:>9.1}% {:>10.3}",
                scheme.label(),
                r.harmonic_mean_ipc(),
                r.llc.miss_rate() * 100.0,
                r.mean_cpi_stack().ifetch,
            );
        }
    }
}
