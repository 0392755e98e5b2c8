//! The benchmark's workloads and the one machine and engine profile they run
//! on. Everything here is built explicitly: no `GARIBALDI_*` variable is
//! consulted (`main` refuses to start when one is set).

use garibaldi_cache::PolicyKind;
use garibaldi_sim::{
    EngineConfig, EstimatorKind, ExperimentScale, LlcScheme, SimRunner, SystemConfig, TrainMode,
};
use garibaldi_trace::WorkloadMix;

/// Simulated cores in every workload.
pub const CORES: usize = 40;

/// Run length in records per core (1 record ≈ 8 instructions).
#[derive(Clone, Copy)]
pub struct RunSize {
    /// Measured records per core.
    pub records: u64,
    /// Warmup records per core, simulated before statistics reset.
    pub warmup: u64,
}

impl RunSize {
    /// No records: the run builds everything and returns.
    pub const ZERO: RunSize = RunSize { records: 0, warmup: 0 };

    /// Records a run simulates: warmup plus measured region, all cores.
    pub fn total(self) -> u64 {
        CORES as u64 * (self.records + self.warmup)
    }
}

/// The reference point (1.5 M records): every simulated metric and the
/// per-layer split are taken at this size.
pub const REFERENCE: RunSize = RunSize { records: 30_000, warmup: 7_500 };

/// The host-time samples (0.5 M records): a third of the reference point, so
/// three times as many samples fit in a run and the medians steady.
pub const TIMED: RunSize = RunSize { records: 10_000, warmup: 2_500 };

/// One benchmark workload: a profile list cycled across [`CORES`] cores.
pub struct Workload {
    pub name: &'static str,
    pub profiles: &'static [&'static str],
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "server-consolidation",
        profiles: &["tpcc", "twitter", "kafka", "verilator"],
        why: "instruction footprint beyond the private caches: the Garibaldi, LLC and barrier \
              layers do most of their work here",
    },
    Workload {
        name: "spec-stream",
        profiles: &["gcc", "mcf", "bwaves", "lbm", "cam4", "wrf", "bzip2", "gobmk"],
        why: "DRAM-bound with almost no LLC instruction traffic: bypasses Garibaldi, stresses \
              the DRAM model and the LLC data path",
    },
    Workload {
        name: "shared-coherence",
        profiles: &["barnes", "ocean", "radix", "raytrace"],
        why: "writes to shared hot data drive MESI invalidations through the LLC directory and \
              the barrier's apply phase",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The engines a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The serial min-clock reference engine.
    Serial,
    /// The parallel engine with `n` worker threads.
    Workers(usize),
}

/// The parallel profile every parallel run uses (the figure benches'
/// default): ewma estimator, learned-state sync every 8 barriers, trained
/// synchronously, 8 LLC shards, 20 k-cycle epochs.
pub fn parallel_profile(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        epoch_cycles: 20_000,
        llc_shards: 8,
        estimator: EstimatorKind::Ewma,
        sync_every: 8,
        train_mode: TrainMode::Sync,
    }
}

/// A runner for `w` under `scheme`, with inputs drawn from `seed`.
pub fn runner(w: &Workload, scheme: LlcScheme, seed: u64) -> SimRunner {
    let scale = ExperimentScale {
        factor: 1.0,
        cores: CORES,
        records_per_core: REFERENCE.records,
        warmup_per_core: REFERENCE.warmup,
        color_period: REFERENCE.records / 8,
    };
    let cfg = SystemConfig::scaled(&scale, scheme);
    let slots = (0..CORES).map(|i| w.profiles[i % w.profiles.len()].to_string()).collect();
    SimRunner::new(cfg, WorkloadMix { slots }, seed)
}

/// The scheme under test: Mockingjay with Garibaldi at factor 1.0.
pub fn scheme_under_test() -> LlcScheme {
    LlcScheme::mockingjay_garibaldi()
}

/// The host policy alone, the baseline of `garibaldi_gain`.
pub fn host_policy() -> LlcScheme {
    LlcScheme::plain(PolicyKind::Mockingjay)
}
