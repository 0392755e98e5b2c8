//! Experiment scaffolding: scales and the runs the figure benches sweep.
//!
//! The throughput figures (fig11, fig15) report each scheme's Σ IPC over
//! a mix, normalised to LRU's Σ IPC on the same mix
//! ([`RunResult::ipc_sum`]); no single-core runs are involved.

use crate::config::{EngineChoice, LlcScheme, SystemConfig};
use crate::metrics::RunResult;
use crate::system::SimRunner;
use garibaldi_trace::WorkloadMix;
use serde::{Deserialize, Serialize};

/// How large an experiment runs: cache/footprint scale factor, core count,
/// and per-core record budget.
///
/// The paper's own configuration (40 cores, 30 MB LLC, 80 M measured
/// instructions/core) is `ExperimentScale::full()`; the default scaled
/// setup preserves every capacity *ratio* while shrinking absolute sizes
/// so the whole figure suite regenerates in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Multiplier on cache capacities and workload footprints.
    pub factor: f64,
    /// Core count.
    pub cores: usize,
    /// Measured trace records per core (1 record ≈ 8 instructions).
    pub records_per_core: u64,
    /// Warmup records per core.
    pub warmup_per_core: u64,
    /// Garibaldi color period (LLC accesses), scaled with the run length.
    pub color_period: u64,
}

impl ExperimentScale {
    /// Default scaled setup: 8 cores at half-size caches/footprints.
    pub fn default_scaled() -> Self {
        Self {
            factor: 0.5,
            cores: 8,
            records_per_core: 200_000,
            warmup_per_core: 50_000,
            color_period: 25_000,
        }
    }

    /// Tiny smoke-test scale for unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            factor: 0.1,
            cores: 4,
            records_per_core: 4_000,
            warmup_per_core: 1_000,
            color_period: 2_000,
        }
    }

    /// The paper's full Table 1 configuration (slow: hours, not minutes).
    pub fn full() -> Self {
        Self {
            factor: 1.0,
            cores: 40,
            records_per_core: 10_000_000,
            warmup_per_core: 2_500_000,
            color_period: 100_000,
        }
    }

    /// [`ExperimentScale::full`] under [`crate::knobs::FULL`], else
    /// [`ExperimentScale::default_scaled`].
    pub fn from_env() -> Self {
        if crate::knobs::FULL.flag() {
            Self::full()
        } else {
            Self::default_scaled()
        }
    }
}

/// Runs a homogeneous workload on `scale.cores` cores under `scheme`.
pub fn run_homogeneous(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    workload: &str,
    seed: u64,
) -> RunResult {
    let choice = EngineChoice::from_env_or(EngineChoice::Serial);
    run_homogeneous_on(scale, scheme, workload, seed, choice)
}

/// [`run_homogeneous`] on an explicitly chosen engine (the bench harness
/// routes every figure target through this with its parallel default).
pub fn run_homogeneous_on(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    workload: &str,
    seed: u64,
    choice: EngineChoice,
) -> RunResult {
    let cfg = SystemConfig::scaled(scale, scheme);
    SimRunner::new(cfg, WorkloadMix::homogeneous(workload, scale.cores), seed).run_on(
        scale.records_per_core,
        scale.warmup_per_core,
        choice,
    )
}

/// Runs an arbitrary mix under `scheme`.
pub fn run_mix(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    mix: &WorkloadMix,
    seed: u64,
) -> RunResult {
    let choice = EngineChoice::from_env_or(EngineChoice::Serial);
    run_mix_on(scale, scheme, mix, seed, choice)
}

/// [`run_mix`] on an explicitly chosen engine.
pub fn run_mix_on(
    scale: &ExperimentScale,
    scheme: LlcScheme,
    mix: &WorkloadMix,
    seed: u64,
    choice: EngineChoice,
) -> RunResult {
    let cfg = SystemConfig::scaled(scale, scheme);
    SimRunner::new(cfg, mix.clone(), seed).run_on(
        scale.records_per_core,
        scale.warmup_per_core,
        choice,
    )
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use garibaldi_cache::PolicyKind;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn scales_are_ordered() {
        let smoke = ExperimentScale::smoke();
        let scaled = ExperimentScale::default_scaled();
        let full = ExperimentScale::full();
        assert!(smoke.records_per_core < scaled.records_per_core);
        assert!(scaled.records_per_core < full.records_per_core);
        assert!(smoke.cores <= scaled.cores && scaled.cores <= full.cores);
        assert_eq!(full.factor, 1.0);
    }

    #[test]
    fn homogeneous_smoke_run() {
        let scale = ExperimentScale::smoke();
        let r = run_homogeneous(&scale, LlcScheme::plain(PolicyKind::Lru), "gcc", 3);
        assert!(r.harmonic_mean_ipc() > 0.0);
    }
}
