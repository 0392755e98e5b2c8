//! Fidelity gate of the epoch-sharded engine against the serial reference.
//!
//! The parallel engine (`crate::engine`) freezes `(color, threshold)` per
//! epoch and defers LLC latency feedback, pair updates and invalidations
//! to the barrier, so its figures can drift from the serial min-clock
//! engine's. This module turns that into a measured quantity: a
//! [`FidelitySuite`] enumerates matched (mix, scale, scheme) runs on the
//! serial engine and on the parallel engine's one profile
//! ([`EngineConfig::default`]), and [`FidelitySuite::assemble`] reduces
//! the results into a [`FidelityReport`] of per-run metric errors
//! ([`RunResult::diff`]) and figure-level geomean errors (the fig11/fig12
//! headline numbers), with a human table.
//!
//! The finished epoch-window study that chose the default geometry is
//! committed in `docs/fidelity/`; `tests/fidelity.rs` keeps the bound
//! enforced against golden baselines.

use crate::config::{EngineChoice, EngineConfig, LlcScheme};
use crate::experiment::{geomean, ExperimentScale};
use crate::metrics::{RunDiff, RunResult};
use garibaldi_cache::PolicyKind;
use garibaldi_trace::{random_server_mixes, WorkloadMix};
use std::fmt::Write as _;

/// The IPC aggregate a figure's speedup-over-LRU is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedupMetric {
    /// `Σ IPC` across cores (Fig 11's throughput view).
    IpcSum,
    /// Harmonic mean of per-core IPCs (Fig 12's homogeneous metric).
    HarmonicMeanIpc,
}

impl SpeedupMetric {
    /// Extracts the aggregate from a run.
    pub fn of(&self, r: &RunResult) -> f64 {
        match self {
            Self::IpcSum => r.ipc_sum(),
            Self::HarmonicMeanIpc => r.harmonic_mean_ipc(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::IpcSum => "ipc_sum",
            Self::HarmonicMeanIpc => "harmonic_mean_ipc",
        }
    }
}

/// One matched comparison point: a (figure, case, scheme) cell that runs
/// on both engines with identical seed/scale/trace streams.
#[derive(Debug, Clone)]
pub struct FidelityPoint {
    /// Figure group the point belongs to ("fig11", "fig12").
    pub figure: String,
    /// Case label within the figure (workload or mix name).
    pub case: String,
    /// Workload placement, one slot per core.
    pub mix: WorkloadMix,
    /// LLC scheme under test.
    pub scheme: LlcScheme,
    /// Trace seed.
    pub seed: u64,
}

/// One enumerated simulation job of a suite: run `point` on `engine`.
#[derive(Debug, Clone)]
pub struct FidelityJob {
    /// Checkpoint key (unique per suite; embeds engine tag, scale, point).
    pub key: String,
    /// Index into [`FidelitySuite::points`].
    pub point: usize,
    /// Engine to run the point on.
    pub engine: EngineChoice,
}

/// The gate's run set: every point once on the serial engine, then once
/// on the parallel engine's one profile.
#[derive(Debug, Clone)]
pub struct FidelitySuite {
    /// Scale every point runs at.
    pub scale: ExperimentScale,
    /// Per-figure speedup aggregates: `(figure, metric)`.
    pub figure_metrics: Vec<(String, SpeedupMetric)>,
    /// Comparison points. Within each figure, every case must include an
    /// `"LRU"`-labelled scheme run to normalize speedups against.
    pub points: Vec<FidelityPoint>,
}

impl FidelitySuite {
    /// The standard suite shape: a mini Fig 11 (random server mixes ×
    /// {LRU, Mockingjay, Mockingjay+Garibaldi, Hawkeye+Garibaldi},
    /// IPC-throughput speedups) plus a mini Fig 12 (homogeneous server
    /// workloads × {LRU, Mockingjay, Mockingjay+Garibaldi}, harmonic-mean
    /// speedups) at `scale`.
    pub fn paper_figures(scale: ExperimentScale, n_mixes: usize, workloads: &[&str]) -> Self {
        let fig11_schemes = [
            LlcScheme::plain(PolicyKind::Lru),
            LlcScheme::plain(PolicyKind::Mockingjay),
            LlcScheme::mockingjay_garibaldi(),
            LlcScheme::with_garibaldi(PolicyKind::Hawkeye),
        ];
        let fig12_schemes = [
            LlcScheme::plain(PolicyKind::Lru),
            LlcScheme::plain(PolicyKind::Mockingjay),
            LlcScheme::mockingjay_garibaldi(),
        ];
        let mut points = Vec::new();
        for (m, mix) in random_server_mixes(n_mixes, scale.cores, 77).into_iter().enumerate() {
            for scheme in &fig11_schemes {
                points.push(FidelityPoint {
                    figure: "fig11".into(),
                    case: format!("mix{m}"),
                    mix: mix.clone(),
                    scheme: scheme.clone(),
                    seed: 42,
                });
            }
        }
        for &w in workloads {
            for scheme in &fig12_schemes {
                points.push(FidelityPoint {
                    figure: "fig12".into(),
                    case: w.to_string(),
                    mix: WorkloadMix::homogeneous(w, scale.cores),
                    scheme: scheme.clone(),
                    seed: 42,
                });
            }
        }
        Self {
            scale,
            figure_metrics: vec![
                ("fig11".into(), SpeedupMetric::IpcSum),
                ("fig12".into(), SpeedupMetric::HarmonicMeanIpc),
            ],
            points,
        }
    }

    /// Enumerates every simulation of the suite in a fixed order: the
    /// serial block first, then the parallel block.
    /// [`FidelitySuite::assemble`] consumes results in exactly this order.
    pub fn jobs(&self) -> Vec<FidelityJob> {
        let engines = [EngineChoice::Serial, EngineChoice::Parallel(EngineConfig::default())];
        let mut jobs = Vec::with_capacity(self.points.len() * engines.len());
        for engine in engines {
            for (i, p) in self.points.iter().enumerate() {
                let key = format!(
                    "fidelity/{}/c{}r{}f{}/{}/{}/{}",
                    engine.tag(),
                    self.scale.cores,
                    self.scale.records_per_core,
                    self.scale.factor,
                    p.figure,
                    p.case,
                    p.scheme.label(),
                );
                jobs.push(FidelityJob { key, point: i, engine });
            }
        }
        jobs
    }

    /// Reduces run results (in [`FidelitySuite::jobs`] order) into the
    /// report: per-point metric diffs and per-figure geomean errors.
    ///
    /// # Panics
    ///
    /// Panics if `results.len()` does not match the job count, or a figure
    /// case lacks its `"LRU"` normalization run.
    pub fn assemble(&self, results: &[RunResult]) -> FidelityReport {
        let n = self.points.len();
        assert_eq!(results.len(), 2 * n, "one result per FidelitySuite::jobs entry");
        let (serial, par) = results.split_at(n);
        let cells = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| FidelityCell {
                figure: p.figure.clone(),
                case: p.case.clone(),
                scheme: p.scheme.label(),
                diff: par[i].diff(&serial[i]),
            })
            .collect();
        let figures = self
            .figure_metrics
            .iter()
            .flat_map(|(figure, metric)| self.figure_geomeans(figure, *metric, serial, par))
            .collect();
        FidelityReport { cells, figures }
    }

    /// Geomean speedup-over-LRU per non-LRU scheme of one figure, on both
    /// engines, as [`FigureGeomean`] rows.
    fn figure_geomeans(
        &self,
        figure: &str,
        metric: SpeedupMetric,
        serial: &[RunResult],
        par: &[RunResult],
    ) -> Vec<FigureGeomean> {
        // (case, scheme) -> point index, for LRU lookup per case.
        let idx = |case: &str, scheme: &str| {
            self.points
                .iter()
                .position(|p| p.figure == figure && p.case == case && p.scheme.label() == scheme)
        };
        let mut schemes: Vec<String> = Vec::new();
        let mut cases: Vec<String> = Vec::new();
        for p in self.points.iter().filter(|p| p.figure == figure) {
            let label = p.scheme.label();
            if label != "LRU" && !schemes.contains(&label) {
                schemes.push(label);
            }
            if !cases.contains(&p.case) {
                cases.push(p.case.clone());
            }
        }
        schemes
            .iter()
            .map(|scheme| {
                let speedups = |results: &[RunResult]| {
                    let v: Vec<f64> = cases
                        .iter()
                        .map(|case| {
                            let base = idx(case, "LRU")
                                .unwrap_or_else(|| panic!("{figure}/{case} has no LRU run"));
                            let this = idx(case, scheme).expect("scheme run exists");
                            let b = metric.of(&results[base]);
                            if b <= 0.0 {
                                0.0
                            } else {
                                metric.of(&results[this]) / b
                            }
                        })
                        .collect();
                    geomean(&v)
                };
                let s = speedups(serial);
                let p = speedups(par);
                FigureGeomean {
                    figure: figure.to_string(),
                    scheme: scheme.clone(),
                    metric: metric.name(),
                    serial_geomean: s,
                    parallel_geomean: p,
                    rel_err: crate::metrics::rel_err(s, p),
                }
            })
            .collect()
    }
}

/// One point's comparison: the parallel run's metric diff against the
/// matched serial run.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCell {
    /// Figure group.
    pub figure: String,
    /// Case label.
    pub case: String,
    /// Scheme label.
    pub scheme: String,
    /// Per-metric relative errors.
    pub diff: RunDiff,
}

/// One figure-level headline comparison: geomean speedup-over-LRU of one
/// scheme, serial vs parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureGeomean {
    /// Figure group.
    pub figure: String,
    /// Scheme label (never "LRU").
    pub scheme: String,
    /// Aggregate the speedups are computed from.
    pub metric: &'static str,
    /// Serial-engine geomean speedup over LRU.
    pub serial_geomean: f64,
    /// Parallel-engine geomean speedup over LRU.
    pub parallel_geomean: f64,
    /// Relative error of the parallel geomean.
    pub rel_err: f64,
}

/// The assembled fidelity report.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// Per-point metric diffs.
    pub cells: Vec<FidelityCell>,
    /// Per-(figure, scheme) geomean comparisons.
    pub figures: Vec<FigureGeomean>,
}

impl FidelityReport {
    /// Largest figure-geomean relative error — the number the acceptance
    /// tolerance gates on.
    pub fn max_figure_err(&self) -> f64 {
        self.figures.iter().map(|f| f.rel_err).fold(0.0, f64::max)
    }

    /// Renders the human-readable summary: the worst cell and figure
    /// errors, then the per-figure geomean table.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        let worst =
            self.cells.iter().max_by(|a, b| a.diff.max_rel_err().total_cmp(&b.diff.max_rel_err()));
        if let Some(c) = worst {
            let m = c.diff.worst().map(|m| m.name).unwrap_or("-");
            let _ = writeln!(
                out,
                "worst cell: {}/{}/{} ({m}) {:.4}%",
                c.figure,
                c.case,
                c.scheme,
                c.diff.max_rel_err() * 100.0
            );
        }
        let _ = writeln!(out, "max figure err: {:.4}%", self.max_figure_err() * 100.0);
        let _ = writeln!(
            out,
            "\n{:>6} {:>22} {:>17} {:>10} {:>10} {:>9}",
            "figure", "scheme", "metric", "serial", "parallel", "err"
        );
        for f in &self.figures {
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>17} {:>10.4} {:>10.4} {:>8.4}%",
                f.figure,
                f.scheme,
                f.metric,
                f.serial_geomean,
                f.parallel_geomean,
                f.rel_err * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CoreResult;

    fn result(ipcs: &[f64]) -> RunResult {
        RunResult {
            scheme: "t".into(),
            cores: ipcs
                .iter()
                .map(|&ipc| CoreResult {
                    workload: "w".into(),
                    instrs: 1000,
                    cycles: 1000.0 / ipc,
                    ipc,
                    stack: Default::default(),
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

    /// Two cases × {LRU, X}; the parallel block's X IPC is a parameter, so
    /// the expected geomean error is analytic.
    fn tiny_suite() -> FidelitySuite {
        let scale = ExperimentScale { cores: 2, ..ExperimentScale::smoke() };
        let mk = |case: &str, scheme: LlcScheme| FidelityPoint {
            figure: "fig12".into(),
            case: case.into(),
            mix: WorkloadMix::homogeneous("noop", 2),
            scheme,
            seed: 1,
        };
        FidelitySuite {
            scale,
            figure_metrics: vec![("fig12".into(), SpeedupMetric::HarmonicMeanIpc)],
            points: vec![
                mk("a", LlcScheme::plain(PolicyKind::Lru)),
                mk("a", LlcScheme::plain(PolicyKind::Mockingjay)),
                mk("b", LlcScheme::plain(PolicyKind::Lru)),
                mk("b", LlcScheme::plain(PolicyKind::Mockingjay)),
            ],
        }
    }

    /// Serial block: LRU 1.0, Mockingjay 1.1 for both cases; the parallel
    /// block reads Mockingjay at `parallel_mj`.
    fn tiny_results(parallel_mj: f64) -> Vec<RunResult> {
        let block = |mj: f64| {
            vec![result(&[1.0, 1.0]), result(&[mj, mj]), result(&[1.0, 1.0]), result(&[mj, mj])]
        };
        [block(1.1), block(parallel_mj)].concat()
    }

    #[test]
    fn jobs_enumerate_serial_then_grid() {
        let s = tiny_suite();
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 4 * 2);
        assert!(jobs[..4].iter().all(|j| j.engine == EngineChoice::Serial));
        let default = EngineChoice::Parallel(EngineConfig::default());
        assert!(jobs[4..].iter().all(|j| j.engine == default));
        assert_eq!(jobs[4].key, "fidelity/sharded-s8-e20000-ewma-k8-b1024/c2r4000f0.1/fig12/a/LRU");
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "keys are unique");
    }

    #[test]
    fn assemble_computes_figure_errors() {
        let s = tiny_suite();
        let same = s.assemble(&tiny_results(1.1));
        assert_eq!(same.cells.len(), 4);
        assert!(same.max_figure_err() < 1e-12, "identical runs have zero error");
        let off = s.assemble(&tiny_results(1.122));
        let err = off.max_figure_err();
        assert!((err - 0.02).abs() < 1e-9, "geomean speedup 1.122 vs 1.1 → 2 %, got {err}");
        let cell = off.cells.iter().map(|c| c.diff.max_rel_err()).fold(0.0, f64::max);
        assert!(cell > 0.015, "cell-level ipc error visible");
    }

    #[test]
    fn human_table_mentions_worst_cell() {
        let s = tiny_suite();
        let report = s.assemble(&tiny_results(1.122));
        let t = report.human_table();
        assert!(t.contains("worst cell"), "{t}");
        assert!(t.contains("fig12"), "{t}");
        assert!(t.contains("Mockingjay"), "{t}");
    }

    #[test]
    #[should_panic(expected = "no LRU run")]
    fn missing_lru_normalization_panics() {
        let mut s = tiny_suite();
        s.points.remove(0); // drop case a's LRU point
        let results = tiny_results(1.1);
        let trimmed: Vec<RunResult> = results
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, r)| r.clone())
            .collect();
        let _ = s.assemble(&trimmed);
    }
}
