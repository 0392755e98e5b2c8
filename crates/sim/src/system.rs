//! The multi-core simulation driver.
//!
//! Cores advance under **min-clock scheduling**: at every step the core
//! with the smallest local clock executes one trace record against the
//! shared hierarchy. This interleaves LLC accesses in global time order —
//! the property that creates the multi-core contention (and instruction
//! victims) the paper studies — without the cost of cycle-by-cycle
//! lock-step simulation.

use crate::config::{EngineChoice, EngineConfig, SystemConfig};
use crate::core_model::CoreState;
use crate::energy::EnergyModel;
use crate::engine::private::RecordSource;
use crate::engine::ParallelEngine;
use crate::hierarchy::MemoryHierarchy;
use crate::metrics::{CoreResult, GaribaldiReport, ReuseSummary, RunResult};
use garibaldi_trace::{
    registry, PpnAllocator, SharedAddressSpace, SyntheticProgram, TraceGenerator, TraceRecord,
    WorkloadClass, WorkloadMix,
};
use garibaldi_types::CoreId;
use std::collections::HashMap;

/// A configured simulation ready to run.
#[derive(Debug, Clone)]
pub struct SimRunner {
    cfg: SystemConfig,
    mix: WorkloadMix,
    seed: u64,
}

impl SimRunner {
    /// Creates a runner for `mix` (one slot per core) under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the mix size does not match `cfg.cores`, if a workload
    /// name is unknown, or if `cfg` is invalid.
    pub fn new(cfg: SystemConfig, mix: WorkloadMix, seed: u64) -> Self {
        cfg.validate().expect("valid system configuration");
        assert_eq!(mix.cores(), cfg.cores, "mix slots must equal core count");
        for name in &mix.slots {
            assert!(registry::by_name(name).is_some(), "unknown workload {name}");
        }
        Self { cfg, mix, seed }
    }

    /// System configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs `warmup` + `records` trace records per core and returns the
    /// measured-region result.
    ///
    /// Engine selection follows [`EngineChoice::from_env_or`] with a serial
    /// default: `GARIBALDI_ENGINE=serial|parallel` picks explicitly, a bare
    /// `GARIBALDI_WORKERS` routes through the epoch-sharded parallel
    /// engine (see [`SimRunner::run_parallel`]) — the forcing mechanism
    /// the CI `parallel-engine` job uses to exercise the full suite on it
    /// — and with nothing set the serial min-clock engine runs. The benches
    /// default to the parallel engine instead via [`SimRunner::run_on`].
    pub fn run(&self, records: u64, warmup: u64) -> RunResult {
        self.run_on(records, warmup, EngineChoice::from_env_or(EngineChoice::Serial))
    }

    /// Runs on an explicitly chosen engine.
    pub fn run_on(&self, records: u64, warmup: u64, choice: EngineChoice) -> RunResult {
        match choice {
            EngineChoice::Serial => self.run_serial(records, warmup),
            EngineChoice::Parallel(eng) => self.run_parallel(records, warmup, &eng),
        }
    }

    /// The serial min-clock reference engine.
    ///
    /// Shares trace construction and the pure-hash address-space mapping
    /// with the parallel engine (`build_parallel_cores`), so the two
    /// engines differ only in epoch mechanics — the property the fidelity
    /// study ([`crate::fidelity`]) relies on.
    pub fn run_serial(&self, records: u64, warmup: u64) -> RunResult {
        let programs = self.build_programs();
        let mut hier = MemoryHierarchy::new(&self.cfg);
        let mut cores: Vec<CoreState<'_>> = self
            .build_parallel_cores(&programs, None)
            .into_iter()
            .enumerate()
            .map(|(i, (src, asp))| {
                let gen = match src {
                    RecordSource::Gen(gen) => gen,
                    RecordSource::Replay { .. } => unreachable!("serial runs generate live"),
                };
                CoreState::new(CoreId::new(i as u16), gen, asp)
            })
            .collect();

        // Warmup phase.
        run_until(&mut cores, &mut hier, &self.cfg, warmup);
        hier.reset_stats();
        for c in cores.iter_mut() {
            c.snapshot();
        }

        // Measured phase.
        run_until(&mut cores, &mut hier, &self.cfg, warmup + records);

        self.collect(cores, hier)
    }

    fn collect(&self, cores: Vec<CoreState<'_>>, hier: MemoryHierarchy) -> RunResult {
        let core_results: Vec<CoreResult> = cores
            .iter()
            .zip(&self.mix.slots)
            .map(|(c, w)| CoreResult {
                workload: w.clone(),
                instrs: c.measured_instrs(),
                cycles: c.measured_cycles(),
                ipc: c.ipc(),
                stack: c.measured_stack(),
            })
            .collect();
        let wall = core_results.iter().map(|c| c.cycles).fold(0.0, f64::max);
        let energy = EnergyModel::default().evaluate(&hier.energy_events(wall as u64));
        let garibaldi = hier.garibaldi().map(|g| GaribaldiReport {
            stats: *g.stats(),
            final_threshold: g.threshold(),
            color_ticks: g.threshold_unit().color_ticks(),
            helper_hit_rate: g.helper_hit_rate(),
        });
        let reuse = hier.profiler().map(|p| {
            let (apl_i, apl_d) = p.accesses_per_line();
            ReuseSummary {
                instr_mean_distance: p.instr_hist().mean(),
                data_mean_distance: p.data_hist().mean(),
                instr_within_assoc: p.instr_hist().within(self.cfg.llc_ways),
                data_within_assoc: p.data_hist().within(self.cfg.llc_ways),
                accesses_per_instr_line: apl_i,
                accesses_per_data_line: apl_d,
                shared_lifecycle_fraction: p.shared_lifecycle_fraction(),
            }
        });
        RunResult {
            scheme: self.cfg.scheme.label(),
            cores: core_results,
            l1: hier.l1_stats(),
            l1i: hier.l1i_stats(),
            l2: hier.l2_stats(),
            llc: hier.llc_stats(),
            dram: *hier.dram().stats(),
            garibaldi,
            conditional: *hier.conditional(),
            reuse,
            energy,
            qbs_cycles: hier.qbs_cycles(),
            invalidations: hier.invalidations(),
        }
    }
}

impl SimRunner {
    /// Builds one program per distinct workload (shared by its cores).
    /// Seeding mirrors [`SimRunner::run_serial`] so both engines (and
    /// dumped traces) walk identical record streams.
    fn build_programs(&self) -> HashMap<String, SyntheticProgram> {
        let mut programs = HashMap::new();
        for name in self.mix.distinct() {
            let profile =
                registry::by_name(name).expect("validated").scaled(self.cfg.profile_scale);
            let pseed = self.seed ^ fxhash(name.as_bytes());
            programs.insert(
                registry::by_name(name).unwrap().name.clone(),
                SyntheticProgram::build(&profile, pseed),
            );
        }
        programs
    }

    /// Per-core `(source, space)` pairs for the parallel engine. Walk seeds
    /// match the serial engine; address spaces use the pure shared mapping
    /// (threads of one server process share one space, SPEC workloads get
    /// private ones).
    fn build_parallel_cores<'p>(
        &self,
        programs: &'p HashMap<String, SyntheticProgram>,
        replay: Option<&'p [Vec<TraceRecord>]>,
    ) -> Vec<(RecordSource<'p>, SharedAddressSpace)> {
        let mut alloc = PpnAllocator::new();
        let mut shared_spaces: HashMap<&str, SharedAddressSpace> = HashMap::new();
        let mut thread_index: HashMap<&str, u64> = HashMap::new();
        self.mix
            .slots
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let profile = registry::by_name(name).expect("validated");
                let walk_seed = self.seed.wrapping_mul(0x517c_c1b7_2722_0a95) ^ i as u64;
                let (tid, asp) = if profile.class == WorkloadClass::Server {
                    let t = thread_index.entry(profile.name.as_str()).or_insert(0);
                    let tid = *t;
                    *t += 1;
                    let asp = shared_spaces
                        .entry(profile.name.as_str())
                        .or_insert_with(|| SharedAddressSpace::new(alloc.alloc_space()))
                        .clone();
                    (Some(tid), asp)
                } else {
                    (None, SharedAddressSpace::new(alloc.alloc_space()))
                };
                let src = match replay {
                    Some(streams) => {
                        assert!(!streams[i].is_empty(), "empty replay stream for core {i}");
                        RecordSource::Replay { records: &streams[i], pos: 0 }
                    }
                    None => {
                        let program = &programs[name.as_str()];
                        let gen = match tid {
                            Some(t) => {
                                // Sharing degree k > 0 partitions the
                                // process's threads into hot-set groups of
                                // k; 0 keeps the one process-wide hot
                                // region (group 0 salts nothing, so
                                // pre-family profiles stream unchanged).
                                let group = match profile.sharing_degree as u64 {
                                    0 => 0,
                                    k => t / k,
                                };
                                TraceGenerator::new(program, walk_seed)
                                    .with_private_cold(t)
                                    .with_shared_group(group)
                            }
                            None => TraceGenerator::new(program, walk_seed),
                        };
                        RecordSource::Gen(gen)
                    }
                };
                (src, asp)
            })
            .collect()
    }

    /// Runs on the epoch-sharded parallel engine (`docs/ARCHITECTURE.md`
    /// §"Parallel sharded engine"). The result depends on `eng.epoch_cycles`
    /// and `eng.llc_shards` but never on `eng.workers`.
    pub fn run_parallel(&self, records: u64, warmup: u64, eng: &EngineConfig) -> RunResult {
        self.run_parallel_stats(records, warmup, eng).0
    }

    /// [`SimRunner::run_parallel`] plus the engine's wall-clock phase
    /// breakdown ([`crate::engine::EngineStats`]) — the machine-readable
    /// form of the `GARIBALDI_ENGINE_STATS=1` lines, consumed by the
    /// `perf_snapshot` bench (`BENCH_5.json`).
    pub fn run_parallel_stats(
        &self,
        records: u64,
        warmup: u64,
        eng: &EngineConfig,
    ) -> (RunResult, crate::engine::EngineStats) {
        let programs = self.build_programs();
        let cores = self.build_parallel_cores(&programs, None);
        ParallelEngine::new(&self.cfg, eng, self.mix.clone(), cores).run_with_stats(records, warmup)
    }

    /// [`SimRunner::run_parallel_stats`] with contained engine failures
    /// surfaced as [`crate::engine::EngineError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns the first worker panic or barrier-watchdog timeout.
    pub fn try_run_parallel_stats(
        &self,
        records: u64,
        warmup: u64,
        eng: &EngineConfig,
    ) -> Result<(RunResult, crate::engine::EngineStats), crate::engine::EngineError> {
        let programs = self.build_programs();
        let cores = self.build_parallel_cores(&programs, None);
        ParallelEngine::new(&self.cfg, eng, self.mix.clone(), cores)
            .try_run_with_stats(records, warmup)
    }

    /// Graceful degradation: run on the parallel engine, and if it fails
    /// with a contained [`crate::engine::EngineError`], deterministically
    /// retry once on the serial engine (byte-identical goldens make the
    /// fallback safe). Returns the result together with the parallel
    /// failure, if one happened, so callers can surface it.
    ///
    /// Interactive/CLI entry point only: benches and fidelity gates call
    /// the parallel engine directly, so a degraded environment can never
    /// silently swap the engine under a measurement.
    pub fn run_recover(
        &self,
        records: u64,
        warmup: u64,
        eng: &EngineConfig,
    ) -> (RunResult, Option<crate::engine::EngineError>) {
        match self.try_run_parallel_stats(records, warmup, eng) {
            Ok((r, _)) => (r, None),
            Err(e) => {
                eprintln!("[engine] parallel run failed ({e}); retrying on the serial engine");
                (self.run_serial(records, warmup), Some(e))
            }
        }
    }

    /// Replays pre-recorded per-core streams (from
    /// [`SimRunner::generate_streams`] / `garibaldi-cli --dump-trace`) on
    /// the parallel engine; streams shorter than the run wrap around.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the core count or any
    /// stream is empty.
    pub fn run_parallel_replay(
        &self,
        streams: &[Vec<TraceRecord>],
        records: u64,
        warmup: u64,
        eng: &EngineConfig,
    ) -> RunResult {
        assert_eq!(streams.len(), self.cfg.cores, "one record stream per core");
        let programs = HashMap::new();
        let cores = self.build_parallel_cores(&programs, Some(streams));
        ParallelEngine::new(&self.cfg, eng, self.mix.clone(), cores).run(records, warmup)
    }

    /// Generates the per-core record streams this runner would simulate
    /// (`total` records each) without touching a hierarchy — trace
    /// generation is independent of cache state, so a dump taken here
    /// replays bit-identically under any scheme or engine.
    pub fn generate_streams(&self, total: u64) -> Vec<Vec<TraceRecord>> {
        let programs = self.build_programs();
        self.build_parallel_cores(&programs, None)
            .into_iter()
            .map(|(src, _)| {
                let mut src = src;
                (0..total).map(|_| src.next_record()).collect()
            })
            .collect()
    }
}

/// Advances cores under min-clock scheduling until each has processed
/// `target` records.
fn run_until(
    cores: &mut [CoreState<'_>],
    hier: &mut MemoryHierarchy,
    cfg: &SystemConfig,
    target: u64,
) {
    loop {
        let mut best: Option<usize> = None;
        let mut best_clock = f64::INFINITY;
        for (i, c) in cores.iter().enumerate() {
            if c.records() < target && c.clock < best_clock {
                best_clock = c.clock;
                best = Some(i);
            }
        }
        match best {
            Some(i) => cores[i].step(hier, cfg),
            None => break,
        }
    }
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcScheme;
    use crate::experiment::ExperimentScale;
    use garibaldi_cache::PolicyKind;

    fn tiny_runner(scheme: LlcScheme) -> SimRunner {
        let scale = ExperimentScale::smoke();
        let cfg = SystemConfig::scaled(&scale, scheme);
        SimRunner::new(cfg, WorkloadMix::homogeneous("noop", scale.cores), 7)
    }

    #[test]
    fn run_produces_positive_ipc() {
        let r = tiny_runner(LlcScheme::plain(PolicyKind::Lru)).run(2_000, 500);
        assert_eq!(r.cores.len(), ExperimentScale::smoke().cores);
        for c in &r.cores {
            assert!(c.ipc > 0.0 && c.ipc < 20.0, "implausible IPC {}", c.ipc);
            assert!(c.instrs > 0);
        }
        assert!(r.llc.accesses() > 0, "traffic reached the LLC");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = tiny_runner(LlcScheme::plain(PolicyKind::Lru)).run(1_000, 200);
        let b = tiny_runner(LlcScheme::plain(PolicyKind::Lru)).run(1_000, 200);
        assert_eq!(a.cores[0].instrs, b.cores[0].instrs);
        assert!((a.cores[0].cycles - b.cores[0].cycles).abs() < 1e-9);
        assert_eq!(a.llc.accesses(), b.llc.accesses());
    }

    #[test]
    fn garibaldi_runs_and_reports() {
        let r = tiny_runner(LlcScheme::mockingjay_garibaldi()).run(2_000, 500);
        let g = r.garibaldi.expect("garibaldi configured");
        assert!(g.stats.instr_accesses > 0, "module observed LLC traffic");
        assert!(r.scheme.contains("Garibaldi"));
    }

    #[test]
    #[should_panic(expected = "mix slots")]
    fn mix_size_mismatch_panics() {
        let scale = ExperimentScale::smoke();
        let cfg = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
        let _ = SimRunner::new(cfg, WorkloadMix::homogeneous("noop", 1), 7);
    }
}
