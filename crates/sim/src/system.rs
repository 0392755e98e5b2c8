//! The multi-core simulation driver.
//!
//! [`SimRunner`] builds the traces and address spaces of a run and hands
//! them to one of the engine's two schedules. The serial reference uses
//! **min-clock scheduling**: at every step the core with the smallest local
//! clock executes one trace record, and its LLC-bound requests resolve
//! before the next step. This interleaves LLC accesses in global time
//! order — the property that creates the multi-core contention (and
//! instruction victims) the paper studies — without the cost of
//! cycle-by-cycle lock-step simulation.

use crate::config::{EngineChoice, EngineConfig, SystemConfig};
use crate::engine::private::RecordSource;
use crate::engine::{EngineError, EngineStats, ParallelEngine};
use crate::metrics::RunResult;
use garibaldi_trace::{
    registry, PpnAllocator, SharedAddressSpace, SyntheticProgram, TraceGenerator, TraceRecord,
    WorkloadClass, WorkloadMix,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The mix's programs, one per distinct workload, keyed by name.
type Programs = BTreeMap<String, Arc<SyntheticProgram>>;

/// A configured simulation ready to run.
#[derive(Clone)]
pub struct SimRunner {
    cfg: SystemConfig,
    mix: WorkloadMix,
    seed: u64,
    /// Pre-recorded per-core streams to replay instead of generating
    /// traces ([`SimRunner::with_streams`]).
    streams: Option<Vec<Vec<TraceRecord>>>,
    /// The mix's programs, fetched through [`SyntheticProgram::shared`] on
    /// the first run or stream dump and held for the runner's lifetime, so
    /// later runs, and other runners with equal keys, build none.
    programs: OnceLock<Programs>,
}

/// Names the programs a runner holds, not their tables.
impl fmt::Debug for SimRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let programs: Option<Vec<&String>> = self.programs.get().map(|p| p.keys().collect());
        f.debug_struct("SimRunner")
            .field("cfg", &self.cfg)
            .field("mix", &self.mix)
            .field("seed", &self.seed)
            .field("replay_streams", &self.streams.as_ref().map(Vec::len))
            .field("programs", &programs)
            .finish()
    }
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
        Self { cfg, mix, seed, streams: None, programs: OnceLock::new() }
    }

    /// Replays pre-recorded per-core streams (from
    /// [`SimRunner::generate_streams`] / `garibaldi-cli --dump-trace`)
    /// instead of generating traces, on whichever engine a run picks;
    /// streams shorter than the run wrap around.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the core count or any
    /// stream is empty.
    pub fn with_streams(mut self, streams: Vec<Vec<TraceRecord>>) -> Self {
        assert_eq!(streams.len(), self.cfg.cores, "one record stream per core");
        if let Some(i) = streams.iter().position(Vec::is_empty) {
            panic!("empty replay stream for core {i}");
        }
        self.streams = Some(streams);
        self.programs = OnceLock::new();
        self
    }

    /// System configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs `warmup` + `records` trace records per core on the engine
    /// [`EngineChoice::from_env`] picks, serial unless `GARIBALDI_WORKERS`
    /// is set, and returns the measured-region result.
    pub fn run(&self, records: u64, warmup: u64) -> RunResult {
        self.run_on(records, warmup, &EngineChoice::from_env())
    }

    /// Runs on an explicitly chosen engine.
    ///
    /// # Panics
    ///
    /// Panics on a contained parallel-engine failure — use
    /// [`SimRunner::try_run_on`] for structured handling.
    pub fn run_on(&self, records: u64, warmup: u64, choice: &EngineChoice) -> RunResult {
        self.try_run_on(records, warmup, choice)
            .unwrap_or_else(|e| panic!("parallel engine failed: {e}"))
            .0
    }

    /// Runs on an explicitly chosen engine and returns the measured-region
    /// result with the run's [`EngineStats`]. Both schedules see the same
    /// streams and mapping, so they differ only in schedule
    /// ([`crate::fidelity`]).
    ///
    /// # Errors
    ///
    /// Returns the first worker panic or barrier-watchdog timeout of the
    /// epoch schedule; the serial engine never errs.
    pub fn try_run_on(
        &self,
        records: u64,
        warmup: u64,
        choice: &EngineChoice,
    ) -> Result<(RunResult, EngineStats), EngineError> {
        let cores = self.build_cores();
        ParallelEngine::new(&self.cfg, choice, self.mix.clone(), cores).try_run(records, warmup)
    }

    /// The serial min-clock reference: [`SimRunner::run_on`] with
    /// [`EngineChoice::Serial`].
    pub fn run_serial(&self, records: u64, warmup: u64) -> RunResult {
        self.run_on(records, warmup, &EngineChoice::Serial)
    }

    /// The epoch-sharded parallel engine (`docs/ARCHITECTURE.md`
    /// §"Parallel sharded engine") plus its [`EngineStats`]: phase
    /// seconds, barrier sizes and estimator error. The result depends on
    /// `eng.epoch_cycles` and `eng.llc_shards` but never on `eng.workers`.
    ///
    /// # Panics
    ///
    /// Panics on a contained engine failure.
    pub fn run_parallel_stats(
        &self,
        records: u64,
        warmup: u64,
        eng: &EngineConfig,
    ) -> (RunResult, EngineStats) {
        self.try_run_on(records, warmup, &EngineChoice::Parallel(*eng))
            .unwrap_or_else(|e| panic!("parallel engine failed: {e}"))
    }

    /// One program per distinct workload (shared by its cores), fetched on
    /// first use; a runner that replays streams never calls this. Both
    /// schedules (and dumped traces) walk identical record streams.
    fn programs(&self) -> &Programs {
        self.programs.get_or_init(|| {
            self.mix
                .distinct()
                .into_iter()
                .map(|name| {
                    let profile =
                        registry::by_name(name).expect("validated").scaled(self.cfg.profile_scale);
                    let pseed = self.seed ^ fxhash(name.as_bytes());
                    (name.to_string(), SyntheticProgram::shared(&profile, pseed))
                })
                .collect()
        })
    }

    /// Per-core `(source, space)` pairs for either schedule: the replayed
    /// streams when the runner has them, else generators over its programs.
    /// Address spaces use the pure shared mapping (threads of one server
    /// process share one space, SPEC workloads get private ones).
    fn build_cores(&self) -> Vec<(RecordSource<'_>, SharedAddressSpace)> {
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
                let src = match &self.streams {
                    Some(streams) => RecordSource::Replay { records: &streams[i], pos: 0 },
                    None => {
                        let program = &self.programs()[name.as_str()];
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

    /// Generates the per-core record streams this runner would simulate
    /// (`total` records each) without touching a hierarchy — trace
    /// generation is independent of cache state, so a dump taken here
    /// replays bit-identically under any scheme or engine.
    pub fn generate_streams(&self, total: u64) -> Vec<Vec<TraceRecord>> {
        self.build_cores()
            .into_iter()
            .map(|(src, _)| {
                let mut src = src;
                (0..total).map(|_| src.next_record()).collect()
            })
            .collect()
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

    fn mixed_runner_seeded(seed: u64) -> SimRunner {
        let scale = ExperimentScale::smoke();
        let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
        let slots = ["tpcc", "lbm"].iter().cycle().take(scale.cores).map(|s| s.to_string());
        SimRunner::new(cfg, WorkloadMix { slots: slots.collect() }, seed)
    }

    fn mixed_runner() -> SimRunner {
        mixed_runner_seeded(7)
    }

    /// A runner keeps its programs between runs: a second run on it, and
    /// a run on a fresh runner that builds its programs again, give the
    /// first run's result byte for byte on either engine. The seed is one
    /// no other test uses, so no other holder keeps the programs alive.
    #[test]
    fn reused_and_fresh_runners_agree() {
        const SEED: u64 = 0x5eed_f2e5;
        for choice in [EngineChoice::Serial, EngineChoice::Parallel(EngineConfig::with_workers(1))]
        {
            let (first, again, held) = {
                let runner = mixed_runner_seeded(SEED);
                let first = format!("{:?}", runner.run_on(800, 200, &choice));
                assert!(runner.programs.get().is_some(), "the first run fetched the programs");
                let again = format!("{:?}", runner.run_on(800, 200, &choice));
                (first, again, Arc::downgrade(&runner.programs()["tpcc"]))
            };
            assert!(held.upgrade().is_none(), "dropping the runner freed its programs");
            let fresh = format!("{:?}", mixed_runner_seeded(SEED).run_on(800, 200, &choice));
            assert_eq!(first, again, "{choice:?}: second run on one runner");
            assert_eq!(first, fresh, "{choice:?}: fresh runner");
        }
    }

    #[test]
    fn streams_do_not_change_across_runs() {
        let runner = mixed_runner();
        let before = runner.generate_streams(300);
        runner.run_serial(300, 100);
        assert_eq!(before, runner.generate_streams(300));
        assert_eq!(before, mixed_runner().generate_streams(300));
    }

    #[test]
    fn replaying_runners_build_no_program() {
        let streams = mixed_runner().generate_streams(400);
        let replay = mixed_runner().with_streams(streams);
        replay.run_serial(300, 100);
        replay.run_on(300, 100, &EngineChoice::Parallel(EngineConfig::with_workers(1)));
        assert!(replay.programs.get().is_none());
        let used = mixed_runner();
        used.run_serial(100, 0);
        let dropped = used.with_streams(mixed_runner().generate_streams(100));
        assert!(dropped.programs.get().is_none(), "with_streams lets go of built programs");
    }

    /// `Debug` names a runner's programs, never their line tables.
    #[test]
    fn debug_skips_program_tables() {
        let runner = mixed_runner();
        runner.run_serial(100, 0);
        let text = format!("{runner:?}");
        assert!(text.contains(r#"programs: Some(["lbm", "tpcc"])"#), "{text}");
        assert!(!text.contains("hot_pairs") && !text.contains("func_zipf"), "{text}");
        assert!(text.len() < 20_000, "{} bytes", text.len());
    }

    #[test]
    #[should_panic(expected = "mix slots")]
    fn mix_size_mismatch_panics() {
        let scale = ExperimentScale::smoke();
        let cfg = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
        let _ = SimRunner::new(cfg, WorkloadMix::homogeneous("noop", 1), 7);
    }
}
