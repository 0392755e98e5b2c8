//! System configuration (Table 1) and LLC scheme selection.

use crate::engine::estimate::{EstimatorKind, TrainMode};
use crate::experiment::ExperimentScale;
use crate::knobs;
use garibaldi::GaribaldiConfig;
use garibaldi_cache::{CacheConfig, PolicyKind, TAG_WORD_BITS};
use garibaldi_mem::DramConfig;
use garibaldi_trace::SPACE_LINE_BITS;
use garibaldi_types::LineAddr;
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

/// Cores sharing one L2 (Table 1: 4).
pub const L2_CLUSTER_SIZE: usize = 4;
const _: () = assert!(L2_CLUSTER_SIZE > 0);
/// L1 hit latency in cycles (Table 1: 3).
pub const L1_LATENCY: u64 = 3;
/// L2 hit latency in cycles (Table 1: 18).
pub const L2_LATENCY: u64 = 18;
/// LLC hit latency in cycles (Table 1: 40).
pub const LLC_LATENCY: u64 = 40;
/// Latency of an access that hits in the LLC: the L1, L2 and LLC
/// lookups in series.
pub const HIT_LATENCY: u64 = L1_LATENCY + L2_LATENCY + LLC_LATENCY;
/// Base CPI of the 6-wide OoO core (Table 1) when never stalled on memory.
pub const BASE_CPI: f64 = 0.5;
const _: () = assert!(BASE_CPI > 0.0);
/// Branch misprediction penalty in cycles (Table 1's core model).
pub const BRANCH_PENALTY: u64 = 14;
/// Backend overlap factor: fraction of each *additional* concurrent
/// data-miss stall hidden by out-of-order execution (0 = fully serial,
/// 1 = all but the longest miss free).
pub const MLP_OVERLAP: f64 = 0.85;
const _: () = assert!(MLP_OVERLAP >= 0.0 && MLP_OVERLAP <= 1.0);
/// Cycles of an isolated data-miss stall hidden by the reorder buffer
/// (≈ ROB entries × base CPI / instructions per record window). The
/// frontend has no such shadow: instruction misses stall serially — the
/// cost asymmetry at the heart of the paper (§3.2).
pub const ROB_SHADOW: u64 = 96;

/// Full system configuration: the parameters a study varies.
///
/// Defaults follow Table 1, whose fixed latencies and core model are the
/// constants above; [`SystemConfig::scaled`] shrinks footprint-
/// sensitive structures together with the workload scale factor so that
/// capacity ratios (and therefore the paper's effects) are preserved at
/// CI-tractable simulation cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core count.
    pub cores: usize,
    /// L1I capacity per core in bytes (64 KB).
    pub l1i_bytes: u64,
    /// L1D capacity per core in bytes (32 KB).
    pub l1d_bytes: u64,
    /// L1 associativity (8).
    pub l1_ways: usize,
    /// L2 capacity per cluster in bytes (4 MB).
    pub l2_bytes: u64,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// LLC capacity in bytes, total (30 MB = 0.75 MB × 40 cores).
    pub llc_bytes: u64,
    /// LLC associativity (12).
    pub llc_ways: usize,
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
            l1i_bytes: 64 * 1024,
            l1d_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 16,
            llc_bytes: 30 * 1024 * 1024,
            llc_ways: 12,
            dram: DramConfig::default(),
            scheme: LlcScheme::plain(PolicyKind::Lru),
            partition_instr_ways: 0,
            i_oracle: false,
            l1d_prefetcher: true,
            l2_prefetcher: true,
            l1i_prefetcher: true,
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
            // pair table's per-entry update density (docs/ARCHITECTURE.md
            // "Fidelity notes" gives the reason and what it moves).
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
        core / L2_CLUSTER_SIZE
    }

    /// Number of L2 clusters.
    pub fn clusters(&self) -> usize {
        self.cores.div_ceil(L2_CLUSTER_SIZE)
    }

    /// The cache level with the fewest sets, by name (L1I, L1D, L2 or
    /// LLC; an LLC shard indexes the whole LLC's sets), and its set count.
    fn fewest_sets(&self) -> (&'static str, usize) {
        let sets = |bytes, ways| CacheConfig::from_capacity("", bytes, ways).sets;
        [
            ("L1I", sets(self.l1i_bytes, self.l1_ways)),
            ("L1D", sets(self.l1d_bytes, self.l1_ways)),
            ("L2", sets(self.l2_bytes, self.l2_ways)),
            ("LLC", sets(self.llc_bytes, self.llc_ways)),
        ]
        .into_iter()
        .min_by_key(|&(_, sets)| sets)
        .expect("four levels")
    }

    /// Whether `line` lies in the physical lines this system's address
    /// spaces map: at most one space per core, each
    /// [`SPACE_LINE_BITS`] lines wide. A prefetcher's arithmetic candidate
    /// (next line, GHB delta) can step past the last space; such a line
    /// is never stored, so every cache's tag bound holds.
    #[inline]
    pub fn maps_line(&self, line: LineAddr) -> bool {
        line.get() >> SPACE_LINE_BITS < self.cores as u64
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
        if self.clusters() > 64 {
            return Err(format!(
                "{} L2 clusters exceed the LLC directory's 64-bit sharer mask",
                self.clusters()
            ));
        }
        // Every way mask of a cache is a `u64`.
        for (level, ways) in [("L1", self.l1_ways), ("L2", self.l2_ways), ("LLC", self.llc_ways)] {
            if !(1..=64).contains(&ways) {
                return Err(format!("{level} ways out of [1,64]"));
            }
        }
        // Every cache stores a line as its 32-bit quotient `line / sets`.
        // Every line is below `cores << SPACE_LINE_BITS` (`maps_line`), so
        // the quotient fits while `cores ≤ 2^(32 − 30) = 4 ×` the fewest
        // sets of any level.
        let cores_per_set = 1u64 << (TAG_WORD_BITS - SPACE_LINE_BITS);
        let (level, sets) = self.fewest_sets();
        if self.cores as u64 > cores_per_set * sets as u64 {
            return Err(format!(
                "{} cores exceed the {level}'s {TAG_WORD_BITS}-bit tags: its {sets} sets hold \
                 lines of at most {} cores",
                self.cores,
                cores_per_set * sets as u64
            ));
        }
        if self.partition_instr_ways > self.llc_ways {
            return Err("cannot reserve more ways than the LLC has".into());
        }
        if self.partition_instr_ways > 0 && self.scheme.garibaldi.is_some() {
            // A partitioned fill never reaches the QBS guard, so the module
            // would track pairs and prefetch but protect nothing.
            return Err("way partitioning cannot be combined with Garibaldi".into());
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
    /// The engine the environment picks: [`EngineChoice::Serial`] when
    /// [`knobs::WORKERS`] is unset, else the one parallel profile
    /// ([`EngineConfig::with_workers`]) on that many threads — the switch
    /// the CI `parallel-engine` job runs the whole suite through.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable, on a zero, garbage or overflowing
    /// worker count and on any set `GARIBALDI_*` variable outside
    /// [`knobs::TABLE`]: misconfiguration must never silently select a
    /// different engine than intended.
    pub fn from_env() -> Self {
        match knobs::WORKERS.count() {
            None => Self::Serial,
            Some(n) => Self::Parallel(EngineConfig::with_workers(n)),
        }
    }

    /// Stable identity string for checkpoint keys and reports:
    /// `"serial-v2"` or
    /// `"sharded-s<shards>-e<epoch>-ewma[-k<sync_every>]-b<budget>"` (the
    /// sync suffix only for `sync_every != 1`; the budget is
    /// [`crate::engine::private::EPOCH_REQUEST_BUDGET`]). The serial tag
    /// names the min-clock schedule over the engine's tier and shard code;
    /// rows minted under the bare `"serial"` tag came from an earlier
    /// serial model and must never hit. Likewise rows minted under a
    /// parallel tag without the budget suffix (the default profile's
    /// `sharded-s8-e20000-ewma-k8`) came from the epoch schedule before it
    /// capped each core's requests per epoch, and must never hit either.
    /// Worker count is deliberately excluded — it never changes simulated
    /// results (the determinism contract), so runs under different worker
    /// counts may share rows.
    pub fn tag(&self) -> String {
        match self {
            Self::Serial => "serial-v2".to_string(),
            Self::Parallel(e) => {
                let mut t = format!("sharded-s{}-e{}-ewma", e.llc_shards, e.epoch_cycles);
                if e.sync_every != 1 {
                    t.push_str(&format!("-k{}", e.sync_every));
                }
                t.push_str(&format!("-b{}", crate::engine::private::EPOCH_REQUEST_BUDGET));
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
        assert_eq!(HIT_LATENCY, 3 + 18 + 40);
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

        let mut c = SystemConfig::paper_baseline();
        c.cores = 64 * L2_CLUSTER_SIZE;
        c.validate().expect("64 clusters fit the sharer mask");
        c.cores = 257;
        let err = c.validate().unwrap_err();
        assert!(err.contains("sharer mask"), "{err}");
        let mut c = SystemConfig::paper_baseline();
        c.l2_ways = 65;
        let err = c.validate().unwrap_err();
        assert!(err.contains("L2 ways"), "{err}");
    }

    #[test]
    fn core_count_is_bounded_by_the_fewest_sets_tag_width() {
        // Factor 0.5: a 16 KiB 8-way L1D, the fewest sets (32).
        let mut c = SystemConfig::scaled(
            &ExperimentScale::default_scaled(),
            LlcScheme::plain(PolicyKind::Lru),
        );
        assert_eq!(c.fewest_sets(), ("L1D", 32));
        c.cores = 128;
        c.validate().expect("4 cores per set of the smallest cache fit");
        c.cores = 129;
        let err = c.validate().unwrap_err();
        assert!(err.contains("L1D's 32-bit tags"), "{err}");
        assert!(err.contains("at most 128 cores"), "{err}");
        // The paper baseline's 64-set L1D holds 256 cores, the 64-cluster
        // sharer-mask bound.
        let mut c = SystemConfig::paper_baseline();
        assert_eq!(c.fewest_sets(), ("L1D", 64));
        c.cores = 256;
        c.validate().expect("256 cores fit both bounds");
        // The bound holds for every line the address spaces map; a
        // prefetch candidate past the last space is not one of them.
        assert!(c.maps_line(LineAddr::new((256 << 30) - 1)));
        assert!(!c.maps_line(LineAddr::new(256 << 30)));
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
    fn engine_choice_tags() {
        // The serial model changed under the bare "serial" tag's rows.
        assert_eq!(EngineChoice::Serial.tag(), "serial-v2");
        // The request budget changed the epoch schedule under the
        // unsuffixed parallel tags' rows.
        let e = EngineConfig { workers: 9, ..EngineConfig::default() };
        assert_eq!(
            EngineChoice::Parallel(e).tag(),
            "sharded-s8-e20000-ewma-k8-b1024",
            "workers excluded"
        );
        let e = EngineConfig { epoch_cycles: 50_000, sync_every: 1, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s8-e50000-ewma-b1024");
        let e = EngineConfig { llc_shards: 2, sync_every: 3, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s2-e50000-ewma-k3-b1024");
    }
}
