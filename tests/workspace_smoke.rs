//! Workspace smoke tests: the build itself is the artifact under test.
//!
//! The fast tests exercise one cheap end-to-end path through every layer
//! (types → cache → trace → garibaldi → sim), so a broken re-export or
//! dependency edge fails here even if no behavioral suite happens to cross
//! it. The `#[ignore]`d tests shell out to cargo and assert that *all*
//! targets — including the 16 bench targets — still compile. CI covers
//! both: its Clippy step type-checks every target and a direct step runs
//! `cargo bench --no-run`; locally, run
//! `cargo test --test workspace_smoke -- --ignored`.

use std::process::Command;

/// One record flows through every crate of the stack.
#[test]
fn every_layer_is_reachable() {
    use garibaldi::{GaribaldiConfig, GaribaldiModule};
    use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
    use garibaldi_mem::{DramConfig, DramModel};
    use garibaldi_trace::{registry, SyntheticProgram, TraceGenerator};
    use garibaldi_types::{CoreId, LineAddr};

    // trace: generate a record from a registry workload.
    let program = SyntheticProgram::build(registry::by_name("tpcc").expect("workload"), 1);
    let rec = TraceGenerator::new(&program, 7).next_record();
    assert!(rec.instrs > 0);

    // cache: miss then hit on the generated PC's line.
    let mut llc = SetAssocCache::new(CacheConfig::new("llc", 64, 8), PolicyKind::Lru);
    let il = LineAddr::new(rec.pc.get() >> 6);
    let ctx = AccessCtx::instr(il, rec.pc.get());
    assert!(!llc.access(&ctx, false));
    llc.insert(il, &ctx, false);
    assert!(llc.access(&ctx, false));

    // mem: a read completes no faster than device latency.
    let mut dram = DramModel::new(DramConfig::default());
    assert!(dram.access(il, 0, false) >= DramConfig::default().access_latency);

    // garibaldi: the pairing flow registers an update.
    let mut g = GaribaldiModule::new(GaribaldiConfig::default(), 2);
    g.on_instr_access(CoreId::new(0), rec.pc, il, false, true);
    g.on_data_access(CoreId::new(0), rec.pc, LineAddr::new(0x9000), true);
    assert_eq!(g.stats().pair_updates, 1);
}

/// A tiny simulation produces finite, positive IPC on every core.
#[test]
fn minimal_simulation_runs() {
    use garibaldi_sim::{ExperimentScale, LlcScheme, SimRunner, SystemConfig};
    use garibaldi_trace::WorkloadMix;

    let scale = ExperimentScale::smoke();
    let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
    let runner = SimRunner::new(cfg, WorkloadMix::homogeneous("noop", scale.cores), 1);
    let result = runner.run(500, 100);
    let ipc = result.aggregate_ipc();
    assert!(ipc.is_finite() && ipc > 0.0, "IPC {ipc}");
}

fn cargo(args: &[&str]) {
    let out = Command::new(env!("CARGO"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "`cargo {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `cargo check --workspace --all-targets` is clean (CI's Clippy step
/// type-checks the same targets; slow).
#[test]
#[ignore = "compiles the whole workspace; run via CI or --ignored"]
fn all_targets_check() {
    cargo(&["check", "--workspace", "--all-targets"]);
}

/// Every bench target compiles (CI-run; slow).
#[test]
#[ignore = "compiles all benches in release; run via CI or --ignored"]
fn benches_compile() {
    cargo(&["bench", "--no-run"]);
}
