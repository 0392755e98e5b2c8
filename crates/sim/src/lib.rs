//! Multi-core cache-hierarchy simulator with interval core timing.
//!
//! This crate assembles the substrates into the paper's modeled system
//! (Table 1): per-core L1I/L1D, an L2 shared by each 4-core cluster, a
//! single shared non-inclusive LLC with a MESI-lite directory, DDR5 memory,
//! hardware prefetchers, and — optionally — the Garibaldi module hooked
//! into the LLC controller. Cores execute synthetic traces under a
//! mechanistic (interval-style) timing model that attributes cycles to a
//! CPI stack (base / ifetch / data / branch), which is exactly the
//! observable the paper's figures are built from.
//!
//! # Examples
//!
//! ```no_run
//! use garibaldi_sim::{ExperimentScale, LlcScheme, SimRunner, SystemConfig};
//! use garibaldi_trace::WorkloadMix;
//!
//! let scale = ExperimentScale::smoke();
//! let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
//! let runner = SimRunner::new(cfg, WorkloadMix::homogeneous("verilator", 4), 42);
//! let result = runner.run(scale.records_per_core, scale.warmup_per_core);
//! println!("IPC = {:.3}", result.aggregate_ipc());
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod core_model;
pub mod energy;
pub mod engine;
pub mod experiment;
pub mod fault;
pub mod fidelity;
pub mod knobs;
pub mod metrics;
pub mod reuse;
pub mod system;

pub use checkpoint::{CheckpointError, SalvageReport};
pub use config::{EngineChoice, EngineConfig, LlcScheme, SystemConfig};
pub use core_model::CpiStack;
pub use energy::{EnergyModel, EnergyReport};
pub use engine::estimate::{EstimatorKind, TrainMode};
pub use engine::{EngineError, EngineStats, ParallelEngine};
pub use experiment::{geomean, ExperimentScale, WeightedSpeedup};
pub use fidelity::{FidelityReport, FidelitySuite};
pub use metrics::{ConditionalMatrix, CoreResult, RunResult};
pub use reuse::ReuseProfiler;
pub use system::SimRunner;
