//! System configuration (Table 1) and LLC scheme selection.

use crate::engine::estimate::{EstimatorKind, TrainMode};
use crate::experiment::ExperimentScale;
use crate::knobs;
use garibaldi::GaribaldiConfig;
use garibaldi_cache::PolicyKind;
use garibaldi_mem::DramConfig;
use serde::{Deserialize, Serialize};

/// Which LLC management runs: a host replacement policy plus, optionally,
/// the Garibaldi module on top (the paper's "orthogonal" composition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlcScheme {
    /// Host replacement policy.
    pub policy: PolicyKind,
    /// Garibaldi module configuration, if enabled.
    pub garibaldi: Option<GaribaldiConfig>,
}

impl LlcScheme {
    /// Plain host policy, no Garibaldi.
    pub fn plain(policy: PolicyKind) -> Self {
        Self { policy, garibaldi: None }
    }

    /// Host policy + default Garibaldi.
    pub fn with_garibaldi(policy: PolicyKind) -> Self {
        Self { policy, garibaldi: Some(GaribaldiConfig::default()) }
    }

    /// The paper's headline configuration: Mockingjay + Garibaldi.
    pub fn mockingjay_garibaldi() -> Self {
        Self::with_garibaldi(PolicyKind::Mockingjay)
    }

    /// Label for reports ("Mockingjay+Garibaldi").
    pub fn label(&self) -> String {
        match &self.garibaldi {
            Some(_) => format!("{}+Garibaldi", self.policy.label()),
            None => self.policy.label().to_string(),
        }
    }
}

/// Full system configuration.
///
/// Defaults follow Table 1; [`SystemConfig::scaled`] shrinks footprint-
/// sensitive structures together with the workload scale factor so that
/// capacity ratios (and therefore the paper's effects) are preserved at
/// CI-tractable simulation cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core count.
    pub cores: usize,
    /// Cores sharing one L2 (Table 1: 4).
    pub l2_cluster_size: usize,
    /// L1I capacity per core in bytes (64 KB).
    pub l1i_bytes: u64,
    /// L1D capacity per core in bytes (32 KB).
    pub l1d_bytes: u64,
    /// L1 associativity (8).
    pub l1_ways: usize,
    /// L1 hit latency in cycles (3).
    pub l1_latency: u64,
    /// L2 capacity per cluster in bytes (4 MB).
    pub l2_bytes: u64,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// L2 hit latency in cycles (18).
    pub l2_latency: u64,
    /// LLC capacity in bytes, total (30 MB = 0.75 MB × 40 cores).
    pub llc_bytes: u64,
    /// LLC associativity (12).
    pub llc_ways: usize,
    /// LLC hit latency in cycles (40).
    pub llc_latency: u64,
    /// DRAM model parameters.
    pub dram: DramConfig,
    /// LLC scheme under test.
    pub scheme: LlcScheme,
    /// Ways reserved for instruction lines (0 = no partitioning; Fig 14d).
    pub partition_instr_ways: usize,
    /// Instruction-oracle mode: instructions always hit in the LLC after
    /// first touch (Fig 3d headroom study).
    pub i_oracle: bool,
    /// Enable the L1D next-line prefetcher.
    pub l1d_prefetcher: bool,
    /// Enable the L2 GHB prefetcher.
    pub l2_prefetcher: bool,
    /// Enable the L1I temporal (I-SPY stand-in) prefetcher.
    pub l1i_prefetcher: bool,
    /// Base CPI of the 6-wide OoO core when never stalled on memory.
    pub base_cpi: f64,
    /// Branch misprediction penalty in cycles.
    pub branch_penalty: u64,
    /// Backend overlap factor: fraction of each *additional* concurrent
    /// data-miss stall hidden by out-of-order execution (0 = fully serial,
    /// 1 = all but the longest miss free).
    pub mlp_overlap: f64,
    /// Cycles of an isolated data-miss stall hidden by the reorder buffer
    /// (≈ ROB entries × base CPI / instructions per record window). The
    /// frontend has no such shadow: instruction misses stall serially —
    /// the cost asymmetry at the heart of the paper (§3.2).
    pub rob_shadow: u64,
    /// Enable the reuse-distance / per-line profiler (Fig 3/4 analyses;
    /// costs simulation time, off by default).
    pub profile_reuse: bool,
    /// Factor applied to workload footprints via
    /// [`garibaldi_trace::WorkloadProfile::scaled`] so footprint-to-capacity
    /// ratios track the cache scaling.
    pub profile_scale: f64,
}

impl SystemConfig {
    /// The paper's Table 1 baseline: 40 cores, 30 MB 12-way LLC, LRU.
    pub fn paper_baseline() -> Self {
        Self {
            cores: 40,
            l2_cluster_size: 4,
            l1i_bytes: 64 * 1024,
            l1d_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: 3,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 16,
            l2_latency: 18,
            llc_bytes: 30 * 1024 * 1024,
            llc_ways: 12,
            llc_latency: 40,
            dram: DramConfig::default(),
            scheme: LlcScheme::plain(PolicyKind::Lru),
            partition_instr_ways: 0,
            i_oracle: false,
            l1d_prefetcher: true,
            l2_prefetcher: true,
            l1i_prefetcher: true,
            base_cpi: 0.5,
            branch_penalty: 14,
            mlp_overlap: 0.85,
            rob_shadow: 96,
            profile_reuse: false,
            profile_scale: 1.0,
        }
    }

    /// A scaled configuration: `scale.cores` cores with every per-core
    /// capacity multiplied by `scale.factor` (LLC stays 0.75 MB × factor
    /// per core, L2 4 MB × factor per 4-core cluster, etc.). Workload
    /// profiles must be scaled by the same factor.
    pub fn scaled(scale: &ExperimentScale, scheme: LlcScheme) -> Self {
        let f = scale.factor;
        let mut cfg = Self::paper_baseline();
        cfg.cores = scale.cores;
        cfg.l1i_bytes = scale_bytes(cfg.l1i_bytes, f, 8 * 1024);
        cfg.l1d_bytes = scale_bytes(cfg.l1d_bytes, f, 8 * 1024);
        cfg.l2_bytes = scale_bytes(cfg.l2_bytes, f, 64 * 1024);
        cfg.llc_bytes = scale_bytes(786_432 * scale.cores as u64, f, 256 * 1024);
        let mut scheme = scheme;
        if let Some(g) = scheme.garibaldi.as_mut() {
            g.color_period = scale.color_period;
            // Scaled runs are ~30× shorter than the paper's: compensate the
            // pair table's per-entry update density (DESIGN.md §5).
            if scale.factor < 1.0 {
                g.cost_hit_step = 2;
            }
        }
        cfg.scheme = scheme;
        cfg.profile_scale = f;
        cfg
    }

    /// Cluster index of a core.
    pub fn cluster_of(&self, core: usize) -> usize {
        core / self.l2_cluster_size
    }

    /// Number of L2 clusters.
    pub fn clusters(&self) -> usize {
        self.cores.div_ceil(self.l2_cluster_size)
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("zero cores".into());
        }
        if self.l2_cluster_size == 0 {
            return Err("zero cluster size".into());
        }
        if self.llc_ways == 0 || self.llc_ways > 64 {
            return Err("LLC ways out of [1,64]".into());
        }
        if self.partition_instr_ways > self.llc_ways {
            return Err("cannot reserve more ways than the LLC has".into());
        }
        if self.partition_instr_ways > 0 && self.scheme.garibaldi.is_some() {
            // A partitioned fill never reaches the QBS guard, so the module
            // would track pairs and prefetch but protect nothing.
            return Err("way partitioning cannot be combined with Garibaldi".into());
        }
        if !(0.0..=1.0).contains(&self.mlp_overlap) {
            return Err("mlp_overlap out of [0,1]".into());
        }
        if self.base_cpi <= 0.0 {
            return Err("non-positive base CPI".into());
        }
        if let Some(g) = &self.scheme.garibaldi {
            g.validate()?;
        }
        Ok(())
    }
}

/// Configuration of the epoch-sharded parallel engine (see
/// `docs/ARCHITECTURE.md` §"Parallel sharded engine").
///
/// Results are a function of `epoch_cycles`, `llc_shards` and `sync_every`
/// only — the worker count changes wall-clock, never the simulated
/// outcome (the determinism contract tested in `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads stepping L2 clusters and draining LLC shards.
    pub workers: usize,
    /// Epoch window in core cycles: cores advance independently inside a
    /// window and synchronise at its barrier (bounded lag = one window).
    pub epoch_cycles: u64,
    /// Number of set-contiguous LLC shards (each owns its slice of the
    /// Garibaldi pair/D_PPN state and of the DRAM channels).
    pub llc_shards: usize,
    /// Always [`EstimatorKind::Ewma`]; kept because `perfbench` sets every field.
    pub estimator: EstimatorKind,
    /// Run the learned-state sync every `sync_every` barriers (≥ 1; a
    /// model parameter like `epoch_cycles`, worker-count invariant for
    /// every value).
    pub sync_every: usize,
    /// Always [`TrainMode::Sync`]; kept because `perfbench` sets every field.
    pub train_mode: TrainMode,
}

impl Default for EngineConfig {
    /// The one fidelity-validated parallel profile (`docs/fidelity/`):
    /// ewma issue estimates, synchronous learned-state training every
    /// `sync_every = 8` barriers, 8 LLC shards and 20 k-cycle epochs.
    ///
    /// `sync_every = 8` moves the figure-geomean error only fig11
    /// 0.10 % → 0.21 % / fig12 0.78 % → 0.80 % against syncing at every
    /// barrier (bound: ≤ 1 %), at an eighth of the sync's wall-clock cost.
    /// `epoch_cycles = 20_000` keeps the error well inside the 2 % hard
    /// gate (`tests/fidelity.rs`) with 2.5× fewer barriers than the
    /// 1 %-error region of the epoch grid.
    fn default() -> Self {
        Self {
            workers: 1,
            epoch_cycles: 20_000,
            llc_shards: 8,
            estimator: EstimatorKind::Ewma,
            sync_every: 8,
            train_mode: TrainMode::Sync,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and the default profile.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("zero workers".into());
        }
        if self.epoch_cycles == 0 {
            return Err("zero epoch window".into());
        }
        if self.llc_shards == 0 {
            return Err("zero LLC shards".into());
        }
        if self.sync_every == 0 {
            return Err("zero sync_every (use 1 to sync at every barrier)".into());
        }
        Ok(())
    }
}

/// Which simulation engine a run uses (see `docs/ARCHITECTURE.md`
/// §"Parallel sharded engine"): the serial min-clock reference, or the
/// epoch-sharded parallel engine with a concrete [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The serial min-clock reference engine.
    Serial,
    /// The epoch-sharded parallel engine.
    Parallel(EngineConfig),
}

impl EngineChoice {
    /// Resolves the engine from the environment ([`knobs::ENGINE`],
    /// [`knobs::WORKERS`]), with `default` applying when neither is set.
    ///
    /// **Resolution order** (each step wins over everything below it):
    ///
    /// 1. `GARIBALDI_ENGINE=serial` forces the serial engine (the escape
    ///    hatch the benches document), even if `GARIBALDI_WORKERS` is set.
    ///    `GARIBALDI_ENGINE=parallel` (alias `sharded`) forces the
    ///    parallel engine.
    /// 2. `GARIBALDI_ENGINE` unset but `GARIBALDI_WORKERS` set: parallel
    ///    (the forcing mechanism the CI `parallel-engine` job uses).
    /// 3. Nothing set: `default`.
    ///
    /// Whenever the outcome is parallel, its geometry is the caller's
    /// `default` when that is parallel (else [`EngineConfig::default`]),
    /// with `GARIBALDI_WORKERS`, when set, as the worker count. When the
    /// outcome is serial, `GARIBALDI_WORKERS` is only validated.
    ///
    /// # Panics
    ///
    /// Panics with a clear message on malformed values (unknown engine
    /// name, zero/garbage/overflowing worker count) and on any set
    /// `GARIBALDI_*` variable outside [`knobs::TABLE`] — misconfiguration
    /// must never silently select a different engine than intended. The
    /// pure, unit-tested resolution is [`EngineChoice::resolve`].
    pub fn from_env_or(default: Self) -> Self {
        Self::resolve(knobs::ENGINE.text().as_deref(), knobs::WORKERS.count(), default)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pure form of [`EngineChoice::from_env_or`] over the engine name and
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns a message naming `GARIBALDI_ENGINE` and the value for an
    /// unknown engine name.
    pub fn resolve(
        engine: Option<&str>,
        workers: Option<usize>,
        default: Self,
    ) -> Result<Self, String> {
        let base = match engine.map(str::trim) {
            Some("serial") => return Ok(Self::Serial),
            Some("parallel" | "sharded") => default,
            Some(other) => {
                return Err(format!(
                    "{} must be \"serial\" or \"parallel\", got {other:?}",
                    knobs::ENGINE.name
                ))
            }
            None if workers.is_some() => default,
            None => return Ok(default),
        };
        let mut cfg = match base {
            Self::Parallel(c) => c,
            Self::Serial => EngineConfig::default(),
        };
        if let Some(w) = workers {
            cfg.workers = w;
        }
        Ok(Self::Parallel(cfg))
    }

    /// Stable identity string for checkpoint keys and reports:
    /// `"serial-v2"` or `"sharded-s<shards>-e<epoch>-ewma[-k<sync_every>]"`
    /// (the sync suffix only for `sync_every != 1`). The serial tag names
    /// the min-clock schedule over the engine's tier and shard code; rows
    /// minted under the bare `"serial"` tag came from an earlier serial
    /// model and must never hit. The default parallel profile's tag,
    /// `sharded-s8-e20000-ewma-k8`, is the one earlier builds minted for
    /// the same model, so existing checkpoint rows keep hitting. Worker
    /// count is deliberately excluded — it never changes simulated results
    /// (the determinism contract), so runs under different worker counts
    /// may share rows.
    pub fn tag(&self) -> String {
        match self {
            Self::Serial => "serial-v2".to_string(),
            Self::Parallel(e) => {
                let mut t = format!("sharded-s{}-e{}-ewma", e.llc_shards, e.epoch_cycles);
                if e.sync_every != 1 {
                    t.push_str(&format!("-k{}", e.sync_every));
                }
                t
            }
        }
    }
}

/// Parses a positive count (the reader of every [`knobs::Kind::Count`]
/// knob). `Ok(None)` when unset.
///
/// # Errors
///
/// Rejects empty strings, garbage, overflow (> `usize::MAX`) and zero,
/// naming `var` and the value — invalid values must fail loudly rather
/// than silently selecting a default.
pub fn parse_positive(var: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let v: usize =
        raw.trim().parse().map_err(|_| format!("{var} must be a positive integer, got {raw:?}"))?;
    if v == 0 {
        return Err(format!("{var} must be at least 1, got 0 (unset it to use the default)"));
    }
    Ok(Some(v))
}

fn scale_bytes(bytes: u64, f: f64, min: u64) -> u64 {
    (((bytes as f64 * f) as u64) / 4096 * 4096).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table1() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cores, 40);
        assert_eq!(c.llc_bytes, 30 * 1024 * 1024);
        assert_eq!(c.llc_ways, 12);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.clusters(), 10);
        assert_eq!(c.cluster_of(7), 1);
        c.validate().unwrap();
    }

    #[test]
    fn scaled_keeps_per_core_llc_ratio() {
        let scale = ExperimentScale::default_scaled();
        let c = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
        let per_core = c.llc_bytes as f64 / c.cores as f64;
        let paper_per_core = 786_432.0;
        let want = paper_per_core * scale.factor;
        assert!((per_core - want).abs() / want < 0.1, "{per_core} vs {want}");
        c.validate().unwrap();
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(LlcScheme::plain(PolicyKind::Lru).label(), "LRU");
        assert_eq!(LlcScheme::mockingjay_garibaldi().label(), "Mockingjay+Garibaldi");
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = SystemConfig::paper_baseline();
        c.partition_instr_ways = 13;
        assert!(c.validate().is_err());
        c.partition_instr_ways = 2;
        c.validate().expect("partitioning a plain scheme is valid");
        c.scheme = LlcScheme::mockingjay_garibaldi();
        let err = c.validate().unwrap_err();
        assert!(err.contains("Garibaldi"), "{err}");
        c.partition_instr_ways = 0;
        c.mlp_overlap = 1.5;
        assert!(c.validate().is_err());
    }

    // --- count knobs: every invalid value errs with the variable name ---

    #[test]
    fn parse_positive_accepts_counts_and_whitespace() {
        assert_eq!(parse_positive("X", None).unwrap(), None);
        assert_eq!(parse_positive("X", Some("4")).unwrap(), Some(4));
        assert_eq!(parse_positive("X", Some(" 16 ")).unwrap(), Some(16));
    }

    #[test]
    fn parse_positive_rejects_zero_garbage_and_overflow() {
        for bad in ["0", "banana", "", "-3", "4.5", "99999999999999999999999999"] {
            let err = parse_positive("GARIBALDI_WORKERS", Some(bad)).unwrap_err();
            assert!(err.contains("GARIBALDI_WORKERS"), "error names the variable: {err}");
            assert!(
                bad.is_empty() || err.contains(bad.trim()),
                "error shows the offending value: {err}"
            );
        }
    }

    #[test]
    fn default_engine_config_is_the_one_parallel_profile() {
        assert_eq!(
            EngineConfig::default(),
            EngineConfig {
                workers: 1,
                epoch_cycles: 20_000,
                llc_shards: 8,
                estimator: EstimatorKind::Ewma,
                sync_every: 8,
                train_mode: TrainMode::Sync,
            }
        );
    }

    #[test]
    fn engine_choice_resolution_precedence() {
        use EngineChoice::Serial;
        let default_par = EngineChoice::Parallel(EngineConfig::default());
        let parallel = |r: Result<EngineChoice, String>| match r.unwrap() {
            EngineChoice::Parallel(c) => c,
            other => panic!("expected parallel, got {other:?}"),
        };
        // Nothing set → the caller's default.
        assert_eq!(EngineChoice::resolve(None, None, Serial).unwrap(), Serial);
        assert_eq!(EngineChoice::resolve(None, None, default_par).unwrap(), default_par);
        // serial wins even over GARIBALDI_WORKERS.
        assert_eq!(EngineChoice::resolve(Some("serial"), Some(4), default_par).unwrap(), Serial);
        // Workers alone flips to parallel.
        let c = parallel(EngineChoice::resolve(None, Some(3), Serial));
        assert_eq!(c, EngineConfig::with_workers(3));
        // parallel with a parallel default keeps its geometry; workers override.
        let tuned = EngineChoice::Parallel(EngineConfig {
            workers: 2,
            epoch_cycles: 77,
            llc_shards: 4,
            ..EngineConfig::default()
        });
        assert_eq!(EngineChoice::resolve(Some("parallel"), None, tuned).unwrap(), tuned);
        let c = parallel(EngineChoice::resolve(Some("sharded"), Some(5), tuned));
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles), (5, 4, 77));
        // A parallel default takes the worker override too (the benches).
        let c = parallel(EngineChoice::resolve(None, Some(6), tuned));
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles), (6, 4, 77));
        // parallel with a serial default runs the one profile.
        let c = parallel(EngineChoice::resolve(Some("parallel"), None, Serial));
        assert_eq!(c, EngineConfig::default());
        // Unknown engine name is a hard error naming the value.
        let err = EngineChoice::resolve(Some("turbo"), None, Serial).unwrap_err();
        assert!(err.contains("GARIBALDI_ENGINE") && err.contains("turbo"), "{err}");
    }

    #[test]
    fn engine_choice_tags() {
        // The serial model changed under the bare "serial" tag's rows.
        assert_eq!(EngineChoice::Serial.tag(), "serial-v2");
        // The default profile keeps the tag earlier builds minted for it.
        let e = EngineConfig { workers: 9, ..EngineConfig::default() };
        assert_eq!(
            EngineChoice::Parallel(e).tag(),
            "sharded-s8-e20000-ewma-k8",
            "workers excluded"
        );
        let e = EngineConfig { epoch_cycles: 50_000, sync_every: 1, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s8-e50000-ewma");
        let e = EngineConfig { llc_shards: 2, sync_every: 3, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s2-e50000-ewma-k3");
    }
}
