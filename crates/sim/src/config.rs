//! System configuration (Table 1) and LLC scheme selection.

use crate::engine::estimate::{EstimatorKind, TrainMode};
use crate::experiment::ExperimentScale;
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

/// Environment variables that once selected engine axes which no longer
/// exist. Setting one is an error, never a silent no-op: a script asking
/// for a retired mode must not quietly run the one remaining profile.
const RETIRED_ENGINE_VARS: [&str; 3] =
    ["GARIBALDI_ESTIMATOR", "GARIBALDI_TRAIN_MODE", "GARIBALDI_SYNC_EVERY"];

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
    /// Resolves the engine from the environment, with `default` applying
    /// when nothing relevant is set.
    ///
    /// **Resolution order** (each step wins over everything below it; the
    /// same table lives in the README's environment section):
    ///
    /// 1. `GARIBALDI_ENGINE=serial` forces the serial engine (the escape
    ///    hatch the benches document), even if `GARIBALDI_WORKERS` is set.
    ///    `GARIBALDI_ENGINE=parallel` (alias `sharded`) forces the
    ///    parallel engine.
    /// 2. `GARIBALDI_ENGINE` unset but `GARIBALDI_WORKERS` set: parallel
    ///    (the forcing mechanism the CI `parallel-engine` job uses).
    /// 3. Nothing set: `default`. (`GARIBALDI_INNER_WORKERS` ranks below
    ///    all of the above: it never selects an engine — it only feeds the
    ///    bench harness's default parallel geometry, and a resolved
    ///    `GARIBALDI_WORKERS` overrides it; see
    ///    `garibaldi_bench::inner_workers`.)
    ///
    /// Whenever the outcome is parallel, its geometry starts from the
    /// caller's `default` when that is parallel (else
    /// [`EngineConfig::default`]) and each of `GARIBALDI_WORKERS` /
    /// `GARIBALDI_SHARDS` / `GARIBALDI_EPOCH` that is set overrides its
    /// field — so e.g. `GARIBALDI_EPOCH=5000` alone re-windows a bench run
    /// (the benches default to parallel). When the outcome is serial, the
    /// geometry variables have nothing to configure and are only
    /// validated.
    ///
    /// # Panics
    ///
    /// Panics with a clear message on malformed values (unknown engine
    /// name, zero/garbage/overflowing counts) and on any set retired
    /// variable (`GARIBALDI_ESTIMATOR`, `GARIBALDI_TRAIN_MODE`,
    /// `GARIBALDI_SYNC_EVERY`) — misconfiguration must never silently
    /// select a different engine than intended. The pure, unit-tested
    /// resolution is [`EngineChoice::resolve`].
    pub fn from_env_or(default: Self) -> Self {
        for var in RETIRED_ENGINE_VARS {
            if std::env::var_os(var).is_some() {
                panic!(
                    "{var} was retired: the parallel engine has one profile \
                     (ewma, sync training, sync_every 8); unset {var}"
                );
            }
        }
        Self::resolve(
            env_raw("GARIBALDI_ENGINE").as_deref(),
            env_raw("GARIBALDI_WORKERS").as_deref(),
            env_raw("GARIBALDI_SHARDS").as_deref(),
            env_raw("GARIBALDI_EPOCH").as_deref(),
            default,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pure form of [`EngineChoice::from_env_or`] over raw variable values.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending variable and value for an
    /// unknown engine name or an invalid count.
    pub fn resolve(
        engine: Option<&str>,
        workers: Option<&str>,
        shards: Option<&str>,
        epoch: Option<&str>,
        default: Self,
    ) -> Result<Self, String> {
        let workers = parse_positive("GARIBALDI_WORKERS", workers)?;
        let shards = parse_positive("GARIBALDI_SHARDS", shards)?;
        let epoch = parse_positive("GARIBALDI_EPOCH", epoch)?;
        // Which engine, and from which base geometry?
        let base = match engine.map(str::trim) {
            Some("serial") => return Ok(Self::Serial),
            Some("parallel" | "sharded") => default,
            Some(other) => {
                return Err(format!(
                    "GARIBALDI_ENGINE must be \"serial\" or \"parallel\", got {other:?}"
                ))
            }
            // A parallel default still takes the geometry overrides below
            // (the benches' documented contract).
            None if workers.is_some() => default,
            None => match default {
                Self::Parallel(_) => default,
                Self::Serial => return Ok(Self::Serial),
            },
        };
        let mut cfg = match base {
            Self::Parallel(c) => c,
            Self::Serial => EngineConfig::default(),
        };
        if let Some(w) = workers {
            cfg.workers = w;
        }
        if let Some(s) = shards {
            cfg.llc_shards = s;
        }
        if let Some(e) = epoch {
            cfg.epoch_cycles = e as u64;
        }
        Ok(Self::Parallel(cfg))
    }

    /// Stable identity string for checkpoint keys and reports: `"serial"`
    /// or `"sharded-s<shards>-e<epoch>-ewma[-k<sync_every>]"` (the sync
    /// suffix only for `sync_every != 1`). The default profile's tag,
    /// `sharded-s8-e20000-ewma-k8`, is the one earlier builds minted for
    /// the same model, so existing checkpoint rows keep hitting. Worker
    /// count is deliberately excluded — it never changes simulated results
    /// (the determinism contract), so runs under different worker counts
    /// may share rows.
    pub fn tag(&self) -> String {
        match self {
            Self::Serial => "serial".to_string(),
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

/// Parses an env-var value as a positive count. `Ok(None)` when unset.
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

/// Reads and validates a positive-count environment variable
/// ([`parse_positive`] over the live environment); `None` when unset.
/// The one definition of the read-validate-panic idiom the bench
/// harness and test gates share.
///
/// # Panics
///
/// Panics on an invalid value (zero, garbage, overflow), naming the
/// variable — misconfiguration must fail loudly.
pub fn env_positive(var: &str) -> Option<usize> {
    parse_positive(var, env_raw(var).as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

fn env_raw(var: &str) -> Option<String> {
    std::env::var(var).ok()
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
        c.partition_instr_ways = 0;
        c.mlp_overlap = 1.5;
        assert!(c.validate().is_err());
    }

    // --- env hardening: every invalid value errs with the variable name ---

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
        assert_eq!(EngineChoice::resolve(None, None, None, None, Serial).unwrap(), Serial);
        assert_eq!(
            EngineChoice::resolve(None, None, None, None, default_par).unwrap(),
            default_par
        );
        // serial wins even over GARIBALDI_WORKERS.
        assert_eq!(
            EngineChoice::resolve(Some("serial"), Some("4"), None, None, default_par).unwrap(),
            Serial
        );
        // Workers alone flips to parallel.
        let c = parallel(EngineChoice::resolve(None, Some("3"), None, None, Serial));
        assert_eq!(c, EngineConfig::with_workers(3));
        // parallel with a parallel default keeps its geometry, env overrides.
        let tuned = EngineChoice::Parallel(EngineConfig {
            workers: 2,
            epoch_cycles: 77,
            llc_shards: 4,
            ..EngineConfig::default()
        });
        let c = parallel(EngineChoice::resolve(Some("parallel"), None, None, Some("123"), tuned));
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles), (2, 4, 123));
        // Geometry overrides also apply when the *default* supplies the
        // parallel engine (the benches' contract): GARIBALDI_EPOCH alone
        // re-windows a bench run instead of being silently ignored.
        let c = parallel(EngineChoice::resolve(None, None, Some("16"), Some("123"), tuned));
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles), (2, 16, 123));
        // With a serial default, geometry variables alone do not flip the
        // engine — but they are still validated.
        assert_eq!(EngineChoice::resolve(None, None, None, Some("123"), Serial).unwrap(), Serial);
        assert!(EngineChoice::resolve(None, None, None, Some("0"), Serial).is_err());
        // Unknown engine name is a hard error naming the value.
        let err = EngineChoice::resolve(Some("turbo"), None, None, None, Serial).unwrap_err();
        assert!(err.contains("GARIBALDI_ENGINE") && err.contains("turbo"), "{err}");
        // Invalid counts propagate even under an explicit engine name —
        // including serial (validated, unused).
        assert!(EngineChoice::resolve(Some("parallel"), Some("0"), None, None, Serial).is_err());
        let err = EngineChoice::resolve(Some("serial"), None, Some("x"), None, Serial).unwrap_err();
        assert!(err.contains("GARIBALDI_SHARDS") && err.contains('x'), "{err}");
    }

    #[test]
    fn engine_choice_tags() {
        assert_eq!(EngineChoice::Serial.tag(), "serial");
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
