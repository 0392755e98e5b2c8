//! Run results and derived metrics.

use crate::core_model::CpiStack;
use crate::energy::EnergyReport;
use garibaldi::GaribaldiStats;
use garibaldi_cache::CacheStats;
use garibaldi_mem::DramStats;
use serde::{Deserialize, Serialize};

/// Fig 4(c): instruction-miss rates conditioned on the paired data access's
/// LLC outcome. `record(i_miss, d_hit)` is called once per (instruction
/// LLC access, data LLC access) pair within a record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConditionalMatrix {
    /// Pairs where the data access hit and the instruction missed.
    pub dhit_imiss: u64,
    /// Pairs where the data access hit (total).
    pub dhit_total: u64,
    /// Pairs where the data access missed and the instruction missed.
    pub dmiss_imiss: u64,
    /// Pairs where the data access missed (total).
    pub dmiss_total: u64,
}

impl ConditionalMatrix {
    /// Records one instruction/data outcome pair.
    pub fn record(&mut self, i_miss: bool, d_hit: bool) {
        if d_hit {
            self.dhit_total += 1;
            if i_miss {
                self.dhit_imiss += 1;
            }
        } else {
            self.dmiss_total += 1;
            if i_miss {
                self.dmiss_imiss += 1;
            }
        }
    }

    /// Adds another matrix's pairs.
    pub fn merge(&mut self, o: &ConditionalMatrix) {
        self.dhit_imiss += o.dhit_imiss;
        self.dhit_total += o.dhit_total;
        self.dmiss_imiss += o.dmiss_imiss;
        self.dmiss_total += o.dmiss_total;
    }

    /// `MissRate_DataHit`: P(instruction miss | data hit).
    pub fn miss_rate_data_hit(&self) -> f64 {
        ratio(self.dhit_imiss, self.dhit_total)
    }

    /// `MissRate_DataMiss`: P(instruction miss | data miss).
    pub fn miss_rate_data_miss(&self) -> f64 {
        ratio(self.dmiss_imiss, self.dmiss_total)
    }

    /// Total conditioned pairs.
    pub fn pairs(&self) -> u64 {
        self.dhit_total + self.dmiss_total
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Per-core outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Workload the core ran.
    pub workload: String,
    /// Instructions retired in the measured region.
    pub instrs: u64,
    /// Cycles elapsed in the measured region.
    pub cycles: f64,
    /// IPC over the measured region.
    pub ipc: f64,
    /// CPI stack over the measured region.
    pub stack: CpiStack,
}

/// Garibaldi-side observability of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaribaldiReport {
    /// Module event counters.
    #[serde(skip)]
    pub stats: GaribaldiStats,
    /// Final dynamic threshold.
    pub final_threshold: u32,
    /// Color periods completed.
    pub color_ticks: u64,
    /// Helper-table hit rate.
    pub helper_hit_rate: f64,
}

/// Reuse-profiler summary (only when `profile_reuse` was on).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReuseSummary {
    /// Mean instruction reuse distance (unique lines per set).
    pub instr_mean_distance: f64,
    /// Mean data reuse distance.
    pub data_mean_distance: f64,
    /// Fraction of instruction reuses within the LLC associativity.
    pub instr_within_assoc: f64,
    /// Fraction of data reuses within the LLC associativity.
    pub data_within_assoc: f64,
    /// Mean accesses per instruction line (Fig 3c).
    pub accesses_per_instr_line: f64,
    /// Mean accesses per data line (Fig 3c).
    pub accesses_per_data_line: f64,
    /// Fraction of data-line lifecycles shared by >1 PC (§3.2).
    pub shared_lifecycle_fraction: f64,
}

/// Complete result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Scheme label ("Mockingjay+Garibaldi", …).
    pub scheme: String,
    /// Per-core results.
    pub cores: Vec<CoreResult>,
    /// Aggregated L1 stats (I+D).
    #[serde(skip)]
    pub l1: CacheStats,
    /// Aggregated L1I stats.
    #[serde(skip)]
    pub l1i: CacheStats,
    /// Aggregated L2 stats.
    #[serde(skip)]
    pub l2: CacheStats,
    /// LLC stats.
    #[serde(skip)]
    pub llc: CacheStats,
    /// DRAM stats.
    #[serde(skip)]
    pub dram: DramStats,
    /// Garibaldi report, when the module was configured.
    pub garibaldi: Option<GaribaldiReport>,
    /// Fig 4(c) conditional matrix.
    pub conditional: ConditionalMatrix,
    /// Reuse summary, when profiling was on.
    pub reuse: Option<ReuseSummary>,
    /// Energy estimate.
    pub energy: EnergyReport,
    /// Cycles spent on QBS queries.
    pub qbs_cycles: u64,
    /// Coherence invalidations.
    pub invalidations: u64,
}

impl RunResult {
    /// Wall-clock cycles: the slowest core's measured region.
    pub fn wall_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.cycles).fold(0.0, f64::max)
    }

    /// Sum of per-core IPCs (the throughput view used for weighted
    /// speedup's numerator).
    pub fn ipc_sum(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc).sum()
    }

    /// Harmonic mean of per-core IPCs (the paper's homogeneous metric).
    pub fn harmonic_mean_ipc(&self) -> f64 {
        let n = self.cores.len() as f64;
        let inv: f64 = self.cores.iter().map(|c| 1.0 / c.ipc.max(1e-12)).sum();
        n / inv
    }

    /// Aggregate IPC: total instructions over wall cycles.
    pub fn aggregate_ipc(&self) -> f64 {
        let instrs: u64 = self.cores.iter().map(|c| c.instrs).sum();
        let wall = self.wall_cycles();
        if wall <= 0.0 {
            0.0
        } else {
            instrs as f64 / wall
        }
    }

    /// Mean CPI stack across cores, normalized per instruction.
    pub fn mean_cpi_stack(&self) -> CpiStack {
        let mut acc = CpiStack::default();
        for c in &self.cores {
            let s = c.stack.per_instr(c.instrs);
            acc.base += s.base;
            acc.ifetch += s.ifetch;
            acc.data += s.data;
            acc.branch += s.branch;
        }
        let n = self.cores.len().max(1) as f64;
        CpiStack {
            base: acc.base / n,
            ifetch: acc.ifetch / n,
            data: acc.data / n,
            branch: acc.branch / n,
        }
    }

    /// Total ifetch stall cycles across cores (Fig 13's metric).
    pub fn total_ifetch_stall(&self) -> f64 {
        self.cores.iter().map(|c| c.stack.ifetch).sum()
    }

    /// Total instructions retired across cores.
    pub fn total_instrs(&self) -> u64 {
        self.cores.iter().map(|c| c.instrs).sum()
    }

    /// LLC misses per kilo-instruction (demand I+D).
    pub fn llc_mpki(&self) -> f64 {
        per_kilo_instr(self.llc.misses(), self.total_instrs())
    }

    /// LLC *instruction* misses per kilo-instruction — the frontend-facing
    /// half of the MPKI split the paper's mechanism targets.
    pub fn llc_instr_mpki(&self) -> f64 {
        per_kilo_instr(self.llc.i_misses(), self.total_instrs())
    }

    /// Fraction of demand instruction LLC accesses served without going to
    /// DRAM ("instruction-miss coverage": 1 − instruction miss rate).
    pub fn llc_instr_coverage(&self) -> f64 {
        if self.llc.i_accesses == 0 {
            0.0
        } else {
            self.llc.i_hits as f64 / self.llc.i_accesses as f64
        }
    }

    /// The figure-bearing scalar metrics of a run, by stable name. This is
    /// the metric set [`RunResult::diff`] compares and the fidelity harness
    /// (`crate::fidelity`) sweeps; names are part of the golden-baseline
    /// format, so extend it rather than renaming.
    pub fn key_metrics(&self) -> Vec<Metric> {
        vec![
            Metric { name: "ipc_sum", value: self.ipc_sum() },
            Metric { name: "harmonic_mean_ipc", value: self.harmonic_mean_ipc() },
            Metric { name: "aggregate_ipc", value: self.aggregate_ipc() },
            Metric { name: "llc_mpki", value: self.llc_mpki() },
            Metric { name: "llc_instr_mpki", value: self.llc_instr_mpki() },
            Metric { name: "llc_instr_coverage", value: self.llc_instr_coverage() },
            Metric {
                name: "ifetch_stall_per_instr",
                value: self.total_ifetch_stall() / (self.total_instrs().max(1) as f64),
            },
        ]
    }

    /// Tolerance-aware comparison of this run (the *candidate*, e.g. the
    /// epoch-sharded engine) against `baseline` (e.g. the serial engine):
    /// one [`MetricDiff`] per [`RunResult::key_metrics`] entry.
    pub fn diff(&self, baseline: &RunResult) -> RunDiff {
        let b = baseline.key_metrics();
        let c = self.key_metrics();
        debug_assert_eq!(b.len(), c.len());
        RunDiff {
            metrics: b
                .into_iter()
                .zip(c)
                .map(|(b, c)| MetricDiff {
                    name: b.name,
                    baseline: b.value,
                    candidate: c.value,
                    rel_err: rel_err(b.value, c.value),
                })
                .collect(),
        }
    }
}

/// One named scalar observable of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable metric name (golden-baseline key).
    pub name: &'static str,
    /// Metric value.
    pub value: f64,
}

/// One metric compared across two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDiff {
    /// Metric name (see [`RunResult::key_metrics`]).
    pub name: &'static str,
    /// Baseline (reference-engine) value.
    pub baseline: f64,
    /// Candidate (engine-under-test) value.
    pub candidate: f64,
    /// Relative error (see [`rel_err`]).
    pub rel_err: f64,
}

/// The per-metric comparison of two runs ([`RunResult::diff`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDiff {
    /// One entry per key metric, in [`RunResult::key_metrics`] order.
    pub metrics: Vec<MetricDiff>,
}

impl RunDiff {
    /// Largest relative error across the metric set.
    pub fn max_rel_err(&self) -> f64 {
        self.metrics.iter().map(|m| m.rel_err).fold(0.0, f64::max)
    }

    /// The metric with the largest relative error, if any.
    pub fn worst(&self) -> Option<&MetricDiff> {
        self.metrics.iter().max_by(|a, b| a.rel_err.total_cmp(&b.rel_err))
    }

    /// Whether every metric is within `tol` relative error.
    pub fn within(&self, tol: f64) -> bool {
        self.max_rel_err() <= tol
    }

    /// Entries exceeding `tol`, for error messages.
    pub fn violations(&self, tol: f64) -> Vec<&MetricDiff> {
        self.metrics.iter().filter(|m| m.rel_err > tol).collect()
    }
}

/// Relative error of `candidate` against `baseline`:
/// `|c − b| / max(|b|, ABS_FLOOR)`. The floor makes near-zero baselines
/// (e.g. an MPKI of 1e-9) compare by absolute rather than relative
/// distance, so noise around zero never reads as an infinite error.
pub fn rel_err(baseline: f64, candidate: f64) -> f64 {
    /// Baseline magnitudes below this compare absolutely.
    const ABS_FLOOR: f64 = 1e-3;
    if !baseline.is_finite() || !candidate.is_finite() {
        return f64::INFINITY;
    }
    (candidate - baseline).abs() / baseline.abs().max(ABS_FLOOR)
}

fn per_kilo_instr(events: u64, instrs: u64) -> f64 {
    if instrs == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instrs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_matrix_rates() {
        let mut m = ConditionalMatrix::default();
        m.record(true, true);
        m.record(false, true);
        m.record(true, false);
        assert!((m.miss_rate_data_hit() - 0.5).abs() < 1e-12);
        assert!((m.miss_rate_data_miss() - 1.0).abs() < 1e-12);
        assert_eq!(m.pairs(), 3);
    }

    fn mk_result(ipcs: &[f64]) -> RunResult {
        RunResult {
            scheme: "test".into(),
            cores: ipcs
                .iter()
                .map(|&ipc| CoreResult {
                    workload: "w".into(),
                    instrs: 1000,
                    cycles: 1000.0 / ipc,
                    ipc,
                    stack: CpiStack::default(),
                })
                .collect(),
            l1: Default::default(),
            l1i: Default::default(),
            l2: Default::default(),
            llc: Default::default(),
            dram: Default::default(),
            garibaldi: None,
            conditional: Default::default(),
            reuse: None,
            energy: Default::default(),
            qbs_cycles: 0,
            invalidations: 0,
        }
    }

    #[test]
    fn harmonic_mean_penalizes_laggards() {
        let r = mk_result(&[1.0, 0.25]);
        assert!((r.harmonic_mean_ipc() - 0.4).abs() < 1e-12);
        assert!((r.ipc_sum() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn wall_cycles_is_slowest_core() {
        let r = mk_result(&[1.0, 0.5]);
        assert!((r.wall_cycles() - 2000.0).abs() < 1e-9);
        assert!((r.aggregate_ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_and_coverage_derivations() {
        let mut r = mk_result(&[1.0]); // 1000 instrs
        r.llc.i_accesses = 100;
        r.llc.i_hits = 75;
        r.llc.d_accesses = 100;
        r.llc.d_hits = 50;
        assert!((r.llc_mpki() - 75.0).abs() < 1e-12, "75 misses / 1k instrs");
        assert!((r.llc_instr_mpki() - 25.0).abs() < 1e-12);
        assert!((r.llc_instr_coverage() - 0.75).abs() < 1e-12);
        let empty = mk_result(&[1.0]);
        assert_eq!(empty.llc_mpki(), 0.0);
        assert_eq!(empty.llc_instr_coverage(), 0.0);
    }

    #[test]
    fn diff_of_identical_runs_is_zero() {
        let mut r = mk_result(&[1.0, 0.5]);
        r.llc.i_accesses = 10;
        r.llc.i_hits = 4;
        let d = r.diff(&r.clone());
        assert_eq!(d.metrics.len(), r.key_metrics().len());
        assert_eq!(d.max_rel_err(), 0.0);
        assert!(d.within(0.0));
        assert!(d.violations(0.0).is_empty());
    }

    #[test]
    fn diff_flags_the_worst_metric() {
        let base = mk_result(&[1.0, 1.0]);
        let cand = mk_result(&[1.05, 1.0]); // ipc_sum 2.05 vs 2.0 → 2.5 %
        let d = cand.diff(&base);
        assert!(!d.within(0.01));
        assert!(d.within(0.10));
        let worst = d.worst().expect("non-empty");
        // harmonic mean moves more than ipc_sum for a one-core bump.
        assert!(worst.rel_err >= 0.024, "worst {} = {}", worst.name, worst.rel_err);
        assert_eq!(d.violations(0.02).len(), d.metrics.iter().filter(|m| m.rel_err > 0.02).count());
    }

    #[test]
    fn rel_err_floors_near_zero_baselines() {
        assert!((rel_err(2.0, 2.2) - 0.1).abs() < 1e-12);
        // A 1e-9 absolute wobble around a zero baseline is not an error.
        assert!(rel_err(0.0, 1e-9) < 1e-5);
        assert!(rel_err(f64::NAN, 1.0).is_infinite());
    }
}
