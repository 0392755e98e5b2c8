//! Fidelity study of the epoch-sharded engine against the serial reference.
//!
//! The parallel engine (`crate::engine`) freezes `(color, threshold)` per
//! epoch and defers LLC latency feedback, pair updates and invalidations
//! to the barrier, so its figures can drift from the serial min-clock
//! engine's — and the drift grows with [`EngineConfig::epoch_cycles`].
//! This module turns that into a measured quantity: a [`FidelitySuite`]
//! enumerates matched (mix, scale, scheme) runs across an `epoch_cycles`
//! grid, and [`FidelitySuite::assemble`] reduces the results into a
//! [`FidelityReport`] of per-run metric errors ([`RunResult::diff`]) and
//! figure-level geomean errors (the fig11/fig12 headline numbers), with a
//! machine-readable JSON-lines form (same reader as [`crate::checkpoint`])
//! and a human table.
//!
//! The committed small-scale report (`docs/fidelity/`) is what justified
//! the default [`EngineConfig::epoch_cycles`]; `tests/fidelity.rs` keeps
//! the bound enforced against golden baselines.

use crate::checkpoint::{self, esc, num, Json};
use crate::config::{EngineChoice, EngineConfig, LlcScheme};
use crate::experiment::{geomean, ExperimentScale};
use crate::metrics::{MetricDiff, RunDiff, RunResult};
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

/// A full sweep: every point on the serial engine once, plus once per
/// `epoch_cycles` grid value on the parallel engine.
#[derive(Debug, Clone)]
pub struct FidelitySuite {
    /// Scale every point runs at.
    pub scale: ExperimentScale,
    /// `epoch_cycles` values under test.
    pub epoch_grid: Vec<u64>,
    /// LLC shard count for the parallel runs.
    pub llc_shards: usize,
    /// Learned-state sync cadence for the parallel runs
    /// ([`EngineConfig::sync_every`]): the sync runs every this many
    /// barriers. Engine tags embed the cadence, so suite keys never
    /// collide across cadences.
    pub sync_every: usize,
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
    pub fn paper_figures(
        scale: ExperimentScale,
        n_mixes: usize,
        workloads: &[&str],
        epoch_grid: Vec<u64>,
    ) -> Self {
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
            epoch_grid,
            llc_shards: EngineConfig::default().llc_shards,
            sync_every: EngineConfig::default().sync_every,
            figure_metrics: vec![
                ("fig11".into(), SpeedupMetric::IpcSum),
                ("fig12".into(), SpeedupMetric::HarmonicMeanIpc),
            ],
            points,
        }
    }

    /// The parallel-engine config for one grid value.
    pub fn engine_at(&self, epoch_cycles: u64) -> EngineConfig {
        EngineConfig {
            epoch_cycles,
            llc_shards: self.llc_shards,
            sync_every: self.sync_every,
            ..EngineConfig::default()
        }
    }

    /// Enumerates every simulation of the sweep in a fixed order: the
    /// serial baseline block first, then one block per `epoch_grid` value.
    /// [`FidelitySuite::assemble`] consumes results in exactly this order.
    pub fn jobs(&self) -> Vec<FidelityJob> {
        let mut jobs = Vec::with_capacity(self.points.len() * (1 + self.epoch_grid.len()));
        let engines: Vec<EngineChoice> = std::iter::once(EngineChoice::Serial)
            .chain(self.epoch_grid.iter().map(|&e| EngineChoice::Parallel(self.engine_at(e))))
            .collect();
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
    /// report: per-point metric diffs and per-figure geomean errors, per
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `results.len()` does not match the job count, or a figure
    /// case lacks its `"LRU"` normalization run.
    pub fn assemble(&self, results: &[RunResult]) -> FidelityReport {
        let n = self.points.len();
        assert_eq!(
            results.len(),
            n * (1 + self.epoch_grid.len()),
            "one result per FidelitySuite::jobs entry"
        );
        let serial = &results[..n];
        let mut cells = Vec::new();
        let mut figures = Vec::new();
        for (g, &epoch) in self.epoch_grid.iter().enumerate() {
            let par = &results[n * (g + 1)..n * (g + 2)];
            for (i, p) in self.points.iter().enumerate() {
                cells.push(FidelityCell {
                    figure: p.figure.clone(),
                    case: p.case.clone(),
                    scheme: p.scheme.label(),
                    epoch_cycles: epoch,
                    diff: par[i].diff(&serial[i]),
                });
            }
            for (figure, metric) in &self.figure_metrics {
                figures.extend(self.figure_geomeans(figure, *metric, epoch, serial, par));
            }
        }
        FidelityReport {
            epoch_grid: self.epoch_grid.clone(),
            llc_shards: self.llc_shards,
            sync_every: self.sync_every,
            cells,
            figures,
        }
    }

    /// Geomean speedup-over-LRU per non-LRU scheme of one figure, on both
    /// engines, as [`FigureGeomean`] rows.
    fn figure_geomeans(
        &self,
        figure: &str,
        metric: SpeedupMetric,
        epoch: u64,
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
                    epoch_cycles: epoch,
                    serial_geomean: s,
                    parallel_geomean: p,
                    rel_err: crate::metrics::rel_err(s, p),
                }
            })
            .collect()
    }
}

/// One (point, epoch) comparison: the parallel run's metric
/// diff against the matched serial run.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCell {
    /// Figure group.
    pub figure: String,
    /// Case label.
    pub case: String,
    /// Scheme label.
    pub scheme: String,
    /// Parallel engine's epoch window.
    pub epoch_cycles: u64,
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
    /// Parallel engine's epoch window.
    pub epoch_cycles: u64,
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
    /// `epoch_cycles` values swept.
    pub epoch_grid: Vec<u64>,
    /// LLC shard count of the parallel runs.
    pub llc_shards: usize,
    /// Learned-state sync cadence of the parallel runs (1 = every
    /// barrier).
    pub sync_every: usize,
    /// Per-(point, epoch) metric diffs.
    pub cells: Vec<FidelityCell>,
    /// Per-(figure, scheme, epoch) geomean comparisons.
    pub figures: Vec<FigureGeomean>,
}

impl FidelityReport {
    /// Largest per-metric relative error across all cells at `epoch`.
    pub fn max_cell_err(&self, epoch: u64) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.epoch_cycles == epoch)
            .map(|c| c.diff.max_rel_err())
            .fold(0.0, f64::max)
    }

    /// Largest figure-geomean relative error at `epoch` — the number the
    /// acceptance tolerance gates on.
    pub fn max_figure_err(&self, epoch: u64) -> f64 {
        self.figures
            .iter()
            .filter(|f| f.epoch_cycles == epoch)
            .map(|f| f.rel_err)
            .fold(0.0, f64::max)
    }

    /// The recommended epoch window: the largest grid epoch whose
    /// figure-geomean error stays within `tol` (largest = fewest barriers
    /// = fastest); falls back to the minimum-error epoch when none
    /// qualifies.
    pub fn recommend_epoch(&self, tol: f64) -> Option<u64> {
        let within = self.epoch_grid.iter().copied().filter(|&e| self.max_figure_err(e) <= tol);
        within.max().or_else(|| {
            self.epoch_grid
                .iter()
                .copied()
                .min_by(|&a, &b| self.max_figure_err(a).total_cmp(&self.max_figure_err(b)))
        })
    }

    /// Serializes the report as JSON lines: a `meta` line, one `cell` line
    /// per point×epoch, one `figure` line per headline geomean, and a
    /// `summary` line with per-epoch maxima. Round-trips through
    /// [`FidelityReport::parse_json_lines`].
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let grid = self.epoch_grid.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"epoch_grid\":[{grid}],\"llc_shards\":{},\"sync_every\":{}}}",
            self.llc_shards, self.sync_every
        );
        for c in &self.cells {
            let metrics = c
                .diff
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\":\"{}\",\"baseline\":{},\"candidate\":{},\"rel_err\":{}}}",
                        esc(m.name),
                        num(m.baseline),
                        num(m.candidate),
                        num(m.rel_err)
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                out,
                "{{\"type\":\"cell\",\"figure\":\"{}\",\"case\":\"{}\",\"scheme\":\"{}\",\
                 \"epoch_cycles\":{},\"metrics\":[{metrics}]}}",
                esc(&c.figure),
                esc(&c.case),
                esc(&c.scheme),
                c.epoch_cycles
            );
        }
        for f in &self.figures {
            let _ = writeln!(
                out,
                "{{\"type\":\"figure\",\"figure\":\"{}\",\"scheme\":\"{}\",\"metric\":\"{}\",\
                 \"epoch_cycles\":{},\"serial_geomean\":{},\
                 \"parallel_geomean\":{},\"rel_err\":{}}}",
                esc(&f.figure),
                esc(&f.scheme),
                esc(f.metric),
                f.epoch_cycles,
                num(f.serial_geomean),
                num(f.parallel_geomean),
                num(f.rel_err)
            );
        }
        let maxima = self
            .epoch_grid
            .iter()
            .map(|&e| {
                format!(
                    "{{\"epoch_cycles\":{e},\"max_cell_err\":{},\"max_figure_err\":{}}}",
                    num(self.max_cell_err(e)),
                    num(self.max_figure_err(e))
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(out, "{{\"type\":\"summary\",\"per_epoch\":[{maxima}]}}");
        out
    }

    /// Parses [`FidelityReport::to_json_lines`] output back (summary lines
    /// are recomputed, not trusted). Unparseable lines are skipped, like
    /// checkpoint loading, and the retired `estimator(s)` / `train_mode`
    /// fields of older reports are ignored.
    pub fn parse_json_lines(text: &str) -> Option<FidelityReport> {
        let mut epoch_grid = Vec::new();
        let mut llc_shards = 0usize;
        let mut sync_every = 1usize;
        let mut cells = Vec::new();
        let mut figures = Vec::new();
        let mut saw_meta = false;
        for line in text.lines() {
            let Some(j) = checkpoint::parse_json(line) else { continue };
            match j.str_field("type").as_str() {
                "meta" => {
                    saw_meta = true;
                    llc_shards = j.u64_field("llc_shards") as usize;
                    // Reports written before the sync axis carry no field:
                    // they were measured at the then-only every-barrier
                    // cadence.
                    sync_every = match j.u64_field("sync_every") as usize {
                        0 => 1,
                        k => k,
                    };
                    if let Some(Json::Arr(v)) = j.get("epoch_grid") {
                        epoch_grid = v
                            .iter()
                            .filter_map(|e| match e {
                                Json::UInt(n) => Some(*n),
                                Json::Num(n) => Some(*n as u64),
                                _ => None,
                            })
                            .collect();
                    }
                }
                "cell" => {
                    let metrics = match j.get("metrics") {
                        Some(Json::Arr(v)) => v
                            .iter()
                            .map(|m| MetricDiff {
                                name: metric_name(&m.str_field("name")),
                                baseline: m.f64_field("baseline"),
                                candidate: m.f64_field("candidate"),
                                rel_err: m.f64_field("rel_err"),
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    cells.push(FidelityCell {
                        figure: j.str_field("figure"),
                        case: j.str_field("case"),
                        scheme: j.str_field("scheme"),
                        epoch_cycles: j.u64_field("epoch_cycles"),
                        diff: RunDiff { metrics },
                    });
                }
                "figure" => figures.push(FigureGeomean {
                    figure: j.str_field("figure"),
                    scheme: j.str_field("scheme"),
                    metric: metric_name(&j.str_field("metric")),
                    epoch_cycles: j.u64_field("epoch_cycles"),
                    serial_geomean: j.f64_field("serial_geomean"),
                    parallel_geomean: j.f64_field("parallel_geomean"),
                    rel_err: j.f64_field("rel_err"),
                }),
                _ => {}
            }
        }
        saw_meta.then_some(FidelityReport { epoch_grid, llc_shards, sync_every, cells, figures })
    }

    /// Renders the human-readable summary: one row per epoch with the
    /// worst cell/figure errors, then the per-figure geomean table.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12}  {:>14}  {:>16}  worst cell",
            "epoch_cycles", "max cell err", "max figure err"
        );
        for &e in &self.epoch_grid {
            let worst = self
                .cells
                .iter()
                .filter(|c| c.epoch_cycles == e)
                .max_by(|a, b| a.diff.max_rel_err().total_cmp(&b.diff.max_rel_err()));
            let desc = worst
                .map(|c| {
                    let m = c.diff.worst().map(|m| m.name).unwrap_or("-");
                    format!("{}/{}/{} ({m})", c.figure, c.case, c.scheme)
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>12}  {:>13.4}%  {:>15.4}%  {desc}",
                e,
                self.max_cell_err(e) * 100.0,
                self.max_figure_err(e) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "\n{:>6} {:>22} {:>12} {:>10} {:>10} {:>9}",
            "figure", "scheme", "epoch", "serial", "parallel", "err"
        );
        for f in &self.figures {
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>12} {:>10.4} {:>10.4} {:>8.4}%",
                f.figure,
                f.scheme,
                f.epoch_cycles,
                f.serial_geomean,
                f.parallel_geomean,
                f.rel_err * 100.0
            );
        }
        out
    }
}

/// Interns a parsed metric name back to the `&'static str` the known
/// metric set uses (unknown names fall back to a leaked-free sentinel).
fn metric_name(name: &str) -> &'static str {
    const KNOWN: [&str; 9] = [
        "ipc_sum",
        "harmonic_mean_ipc",
        "aggregate_ipc",
        "llc_mpki",
        "llc_instr_mpki",
        "llc_instr_coverage",
        "ifetch_stall_per_instr",
        "speedup_over_lru",
        "geomean_speedup",
    ];
    KNOWN.iter().find(|k| **k == name).copied().unwrap_or("unknown_metric")
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

    /// Two cases × {LRU, X} × grid {100, 200}; parallel IPCs scaled by a
    /// known factor so the expected geomean error is analytic.
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
            epoch_grid: vec![100, 200],
            llc_shards: 2,
            sync_every: 1,
            figure_metrics: vec![("fig12".into(), SpeedupMetric::HarmonicMeanIpc)],
            points: vec![
                mk("a", LlcScheme::plain(PolicyKind::Lru)),
                mk("a", LlcScheme::plain(PolicyKind::Mockingjay)),
                mk("b", LlcScheme::plain(PolicyKind::Lru)),
                mk("b", LlcScheme::plain(PolicyKind::Mockingjay)),
            ],
        }
    }

    fn tiny_results() -> Vec<RunResult> {
        // Serial block: LRU 1.0, Mockingjay 1.1 for both cases.
        let serial = vec![
            result(&[1.0, 1.0]),
            result(&[1.1, 1.1]),
            result(&[1.0, 1.0]),
            result(&[1.1, 1.1]),
        ];
        // Epoch 100: identical. Epoch 200: Mockingjay reads 1.122 (+2 %).
        let e100 = serial.clone();
        let e200 = vec![
            result(&[1.0, 1.0]),
            result(&[1.122, 1.122]),
            result(&[1.0, 1.0]),
            result(&[1.122, 1.122]),
        ];
        [serial, e100, e200].concat()
    }

    #[test]
    fn jobs_enumerate_serial_then_grid() {
        let s = tiny_suite();
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 4 * 3);
        assert!(jobs[..4].iter().all(|j| j.engine == EngineChoice::Serial));
        assert!(matches!(jobs[4].engine, EngineChoice::Parallel(e) if e.epoch_cycles == 100));
        assert!(matches!(jobs[8].engine, EngineChoice::Parallel(e) if e.epoch_cycles == 200));
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "keys are unique");
    }

    #[test]
    fn assemble_computes_figure_errors() {
        let s = tiny_suite();
        let report = s.assemble(&tiny_results());
        assert_eq!(report.cells.len(), 8);
        assert!(report.max_figure_err(100) < 1e-12, "identical runs have zero error");
        let err200 = report.max_figure_err(200);
        assert!((err200 - 0.02).abs() < 1e-9, "geomean speedup 1.122 vs 1.1 → 2 %, got {err200}");
        assert!(report.max_cell_err(200) > 0.015, "cell-level ipc error visible");
    }

    #[test]
    fn recommendation_prefers_the_largest_tolerable_epoch() {
        let s = tiny_suite();
        let report = s.assemble(&tiny_results());
        assert_eq!(report.recommend_epoch(0.01), Some(100), "200 breaks 1 %");
        assert_eq!(report.recommend_epoch(0.05), Some(200), "largest within 5 %");
        // Nothing qualifies → least-error epoch.
        assert_eq!(report.recommend_epoch(1e-15), Some(100));
    }

    #[test]
    fn reports_with_retired_axis_fields_still_parse() {
        let report = tiny_suite().assemble(&tiny_results());
        let text = report.to_json_lines();
        // Older reports carry estimator and train-mode fields; the parser
        // ignores them.
        let old = text
            .replace("\"llc_shards\"", "\"estimators\":[\"ewma\"],\"llc_shards\"")
            .replace("\"sync_every\":1}", "\"sync_every\":1,\"train_mode\":\"sync\"}")
            .replace("\"epoch_cycles\":100,", "\"epoch_cycles\":100,\"estimator\":\"ewma\",");
        assert_ne!(old, text);
        assert_eq!(FidelityReport::parse_json_lines(&old).expect("parse"), report);
    }

    #[test]
    fn report_round_trips_through_json_lines() {
        let s = tiny_suite();
        let report = s.assemble(&tiny_results());
        let text = report.to_json_lines();
        assert!(text.lines().count() >= 12, "meta + 8 cells + 2 figures + summary");
        let back = FidelityReport::parse_json_lines(&text).expect("parse");
        assert_eq!(back, report);
        assert!(FidelityReport::parse_json_lines("garbage\n").is_none());
    }

    #[test]
    fn human_table_mentions_worst_cell() {
        let s = tiny_suite();
        let report = s.assemble(&tiny_results());
        let t = report.human_table();
        assert!(t.contains("epoch_cycles"), "{t}");
        assert!(t.contains("fig12"), "{t}");
        assert!(t.contains("Mockingjay"), "{t}");
    }

    #[test]
    #[should_panic(expected = "no LRU run")]
    fn missing_lru_normalization_panics() {
        let mut s = tiny_suite();
        s.points.remove(0); // drop case a's LRU point
        let results = tiny_results();
        let trimmed: Vec<RunResult> = results
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, r)| r.clone())
            .collect();
        let _ = s.assemble(&trimmed);
    }
}
