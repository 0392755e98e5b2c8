//! The epoch-scheduled, set-sharded parallel simulation engine.
//!
//! The serial engine ([`crate::system::SimRunner::run`]) interleaves every
//! core's LLC accesses under global min-clock scheduling against one
//! `MemoryHierarchy` — faithful, but single-threaded. This engine inverts
//! the ownership model so a 40-core run can use the host's cores:
//!
//! 1. **Private tiers** ([`private::ClusterSim`]): each L2 cluster owns its
//!    cores, L1s, L2, prefetchers and helper tables, and advances under
//!    min-clock scheduling *within the cluster* up to a bounded-lag epoch
//!    horizon. Clusters are data-independent, so workers step them in
//!    parallel.
//! 2. **LLC shards** ([`shard::LlcShard`]): the LLC (plus its slice of the
//!    Garibaldi pair/D_PPN state, the DRAM channels, the I-oracle and the
//!    reuse profiler) is split into set-contiguous shards. LLC-bound
//!    accesses are buffered per core during the epoch and drained at the
//!    barrier, per shard in parallel, in ascending `(timestamp, core, seq)`
//!    order.
//! 3. **Barrier** ([`ParallelEngine`]): between the two parallel passes a
//!    cheap serial pass replays LLC outcomes into the global threshold unit
//!    and the Fig 4c conditional matrix in the same deterministic order;
//!    cross-shard Garibaldi traffic (pair updates keyed by the instruction
//!    line's shard, pairwise prefetch fills keyed by the data line's) is
//!    key-merged and applied in a second parallel shard pass; coherence
//!    invalidations flow back to the private tiers; every
//!    [`EngineConfig::sync_every`]-th barrier the shards pool their
//!    replacement-policy learned state (one merge, installed into every
//!    shard); and every core's issue-time latency estimates are corrected
//!    to the drained outcomes, which also train its [`estimate::Ewma`]
//!    estimator. All barrier orders are restored by
//!    stable k-way merges of already-sorted runs ([`merge`]), never by
//!    comparison sorts.
//!
//! Every reduction and drain order is indexed by cluster/shard/core id —
//! never by worker — so a run's `RunResult` is **bit-identical for any
//! worker count** (`tests/determinism.rs`). Fidelity differences against
//! the serial engine are bounded by the epoch window: LLC latency feedback,
//! pair-table updates and remote invalidations land at the next barrier
//! instead of instantly, and the threshold/color pair is frozen per epoch.
//!
//! **Failure containment**: every parallel section runs its worker
//! closures under `catch_unwind`; the first panic — or a barrier
//! watchdog timeout when `GARIBALDI_BARRIER_TIMEOUT_S` is set — cancels
//! the run cooperatively and surfaces as a structured [`EngineError`]
//! from [`ParallelEngine::try_run_with_stats`] instead of aborting the
//! process or deadlocking the barrier (ARCHITECTURE.md §"Failure
//! model"; fault hooks for the battery live in [`crate::fault`]).

mod contain;
pub mod estimate;
pub mod merge;
pub mod private;
pub mod request;
pub mod shard;

pub use contain::EngineError;

use crate::config::{EngineConfig, SystemConfig};
use crate::energy::{EnergyEvents, EnergyModel};
use crate::fault;
use crate::metrics::{ConditionalMatrix, GaribaldiReport, ReuseSummary, RunResult};
use crate::reuse::ReuseProfiler;
use contain::{payload_str, FailState, SectionCtx};
use estimate::EstimatorStats;
use garibaldi::ThresholdUnit;
use garibaldi_cache::{CacheConfig, CacheStats};
use garibaldi_mem::DramStats;
use garibaldi_trace::{SharedAddressSpace, WorkloadMix};
use garibaldi_types::{LineAddr, ThreadId};
use merge::kway_merge_into;
use private::{ClusterSim, EpochCore, RecordSource};
use request::{InvalCmd, LlcRequest, ReqKey, ReqKind, ShardCmd};
use shard::{shard_of_set, DrainOut, LlcShard, ThresholdSnapshot};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-shard epoch arena: per-core key-sorted request runs
/// scattered during bucketing, the k-way-merged drain order, and the
/// shard's drain output. Everything here is cleared and refilled at each
/// barrier — never reallocated — so the steady-state engine issues no
/// per-epoch allocations on the barrier path.
#[derive(Default, Clone)]
struct ShardBuf {
    /// Concatenated per-core runs, each ascending in [`ReqKey`].
    reqs: Vec<LlcRequest>,
    /// End offset of each run within `reqs`.
    run_ends: Vec<u32>,
    /// Merged drain order (scratch, reused across barriers).
    merged: Vec<LlcRequest>,
    /// The shard's phase-A output (outcomes, cross-shard commands,
    /// invalidations), reused across barriers.
    out: DrainOut,
}

/// Wall-clock phase breakdown of an engine run, accumulated across every
/// epoch (warmup + measured). The phase boundaries match the historical
/// `GARIBALDI_ENGINE_STATS=1` lines: `step` is the parallel cluster
/// stepping, `drain` the parallel per-shard phase A, `merge` the
/// learned-state merge/install work on the barrier path, `apply` the
/// invalidation/correction tail, and `serial` the barrier remainder
/// (outcome scatter, threshold replay, command routing).
/// Collection is always on — a handful of `Instant` reads per barrier —
/// so callers ([`crate::SimRunner::run_parallel_stats`], the perf
/// snapshot bench) can read it without a profiling env var.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Epochs executed (one barrier each).
    pub epochs: u64,
    /// Barriers that ran the learned-state sync (every
    /// [`EngineConfig::sync_every`]-th barrier).
    pub learned_syncs: u64,
    /// Parallel cluster-step seconds.
    pub step_s: f64,
    /// Parallel shard-drain seconds (phase A).
    pub drain_s: f64,
    /// Learned-state export, pooled-consensus merge and per-shard install
    /// seconds on the barrier path.
    pub merge_s: f64,
    /// Invalidation + correction seconds (barrier tail, minus the
    /// learned-state work accounted in `merge_s`).
    pub apply_s: f64,
    /// Serial barrier remainder seconds.
    pub serial_s: f64,
    /// End-to-end engine wall seconds (set by the run entry points).
    pub wall_s: f64,
    /// Per-shard phase-A drain seconds, indexed by shard id and
    /// accumulated across barriers (empty before the first barrier). With
    /// `workers == 1` the entries sum to roughly `drain_s`; with more
    /// workers they expose the load imbalance that bounds phase-A speedup
    /// (the ROADMAP multi-core validation item).
    pub shard_drain_s: Vec<f64>,
    /// Invalidation commands emitted by write upgrades in the measured
    /// region, weighted by the number of clusters each names (the
    /// directory's view of copies to kill). This is the event count
    /// comparable to the serial engine's `RunResult::invalidations`:
    /// `RunResult::invalidations` on the parallel engine counts *copies
    /// dropped at barriers*, which epoch batching legitimately merges —
    /// every same-line upgrade inside one window lands on a copy the
    /// first one already removed. Unlike the wall-clock fields this is
    /// reset at the warmup boundary, like the simulated-outcome stats.
    pub inval_cmds: u64,
}

impl EngineStats {
    /// Total barrier seconds (everything except the cluster stepping).
    pub fn barrier_s(&self) -> f64 {
        self.drain_s + self.merge_s + self.apply_s + self.serial_s
    }

    /// `(max, mean)` of the per-shard drain seconds; `None` before the
    /// first barrier. `max / mean` is the phase-A imbalance factor — the
    /// parallel drain finishes with the slowest shard, so a factor of 2
    /// halves the achievable phase-A speedup.
    pub fn drain_imbalance(&self) -> Option<(f64, f64)> {
        if self.shard_drain_s.is_empty() {
            return None;
        }
        let max = self.shard_drain_s.iter().copied().fold(0.0f64, f64::max);
        let mean = self.shard_drain_s.iter().sum::<f64>() / self.shard_drain_s.len() as f64;
        Some((max, mean))
    }
}

/// The assembled parallel engine for one run.
pub struct ParallelEngine<'p> {
    cfg: SystemConfig,
    eng: EngineConfig,
    mix: WorkloadMix,
    clusters: Vec<ClusterSim<'p>>,
    shards: Vec<LlcShard>,
    threshold: Option<ThresholdUnit>,
    cond: ConditionalMatrix,
    invalidations: u64,
    llc_sets: usize,
    /// Per-shard request buffers + drain outputs, reused across barriers.
    shard_bufs: Vec<ShardBuf>,
    /// Cross-shard command merge scratch, reused across barriers.
    cmd_merged: Vec<(ReqKey, ShardCmd)>,
    /// Per-target-shard command routing buffers, reused across barriers.
    cmd_routed: Vec<Vec<(ReqKey, ShardCmd)>>,
    /// Invalidation merge scratch, reused across barriers.
    inval_merged: Vec<(ReqKey, InvalCmd)>,
    /// Per-shard learned-state export buffers, reused across syncs (each
    /// holds a predictor-table-sized snapshot — the largest per-barrier
    /// allocation before these arenas existed).
    learned_exports: Vec<Vec<u32>>,
    /// Pooled learned-state consensus: merged once per sync from
    /// `learned_exports` (baselines are identical on every shard, so one
    /// consensus serves all) and installed into every shard. Reused
    /// across syncs.
    learned_merged: Vec<u32>,
    /// Wall-clock phase account (always collected; printed under
    /// `GARIBALDI_ENGINE_STATS=1`, returned by `run_with_stats`).
    stats: EngineStats,
    /// First-failure latch + cooperative cancel flag shared by every
    /// parallel section (and polled by injected stalls).
    fail: FailState,
    /// Barrier watchdog timeout (`GARIBALDI_BARRIER_TIMEOUT_S`); `None`
    /// disables the watchdog and its per-section monitor thread.
    watchdog: Option<std::time::Duration>,
}

impl<'p> ParallelEngine<'p> {
    /// Builds the engine from one `(source, space)` pair per core of `mix`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`/`eng` are invalid or `cores` does not match the mix.
    pub fn new(
        cfg: &SystemConfig,
        eng: &EngineConfig,
        mix: WorkloadMix,
        mut cores: Vec<(RecordSource<'p>, SharedAddressSpace)>,
    ) -> Self {
        cfg.validate().expect("valid system configuration");
        eng.validate().expect("valid engine configuration");
        assert_eq!(cores.len(), cfg.cores, "one source per core");
        assert_eq!(mix.cores(), cfg.cores, "mix slots must equal core count");
        // Resolve GARIBALDI_FAULTS here so a malformed plan fails loudly
        // on the main thread, not inside a contained worker.
        let _ = fault::active();
        let watchdog = crate::config::env_positive("GARIBALDI_BARRIER_TIMEOUT_S")
            .map(|secs| std::time::Duration::from_secs(secs as u64));

        let llc_sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;
        let n_shards = eng.llc_shards.min(llc_sets).max(1);
        let shards = (0..n_shards).map(|i| LlcShard::new(cfg, i, n_shards, llc_sets)).collect();

        let mut clusters = Vec::with_capacity(cfg.clusters());
        for k in 0..cfg.clusters() {
            let lo = k * cfg.l2_cluster_size;
            let hi = (lo + cfg.l2_cluster_size).min(cfg.cores);
            let members: Vec<_> = cores.drain(..hi - lo).collect();
            clusters.push(ClusterSim::new(cfg, k, lo, members));
        }

        Self {
            threshold: cfg
                .scheme
                .garibaldi
                .as_ref()
                .map(|g| ThresholdUnit::new(g, cfg.cores.max(1))),
            cfg: cfg.clone(),
            eng: *eng,
            mix,
            clusters,
            shards,
            cond: ConditionalMatrix::default(),
            invalidations: 0,
            llc_sets,
            shard_bufs: vec![ShardBuf::default(); n_shards],
            cmd_merged: Vec::new(),
            cmd_routed: vec![Vec::new(); n_shards],
            inval_merged: Vec::new(),
            learned_exports: vec![Vec::new(); n_shards],
            learned_merged: Vec::new(),
            stats: EngineStats::default(),
            fail: FailState::default(),
            watchdog,
        }
    }

    /// Runs `warmup` + `records` records per core; returns the
    /// measured-region result.
    ///
    /// # Panics
    ///
    /// Panics on a contained worker failure — use [`Self::try_run`] (or
    /// [`crate::SimRunner::run_recover`]) for structured handling.
    pub fn run(self, records: u64, warmup: u64) -> RunResult {
        self.run_with_stats(records, warmup).0
    }

    /// [`ParallelEngine::run`] plus the wall-clock [`EngineStats`] phase
    /// breakdown of the whole run (warmup + measured region).
    ///
    /// # Panics
    ///
    /// Panics on a contained worker failure — use
    /// [`Self::try_run_with_stats`] for structured handling.
    pub fn run_with_stats(self, records: u64, warmup: u64) -> (RunResult, EngineStats) {
        self.try_run_with_stats(records, warmup)
            .unwrap_or_else(|e| panic!("parallel engine failed: {e}"))
    }

    /// [`Self::run`] with contained failures surfaced as [`EngineError`].
    ///
    /// # Errors
    ///
    /// Returns the first worker panic or barrier-watchdog timeout.
    pub fn try_run(self, records: u64, warmup: u64) -> Result<RunResult, EngineError> {
        self.try_run_with_stats(records, warmup).map(|(r, _)| r)
    }

    /// [`Self::run_with_stats`] with contained failures surfaced as
    /// [`EngineError`] instead of a panic: a worker panic in any parallel
    /// section, or a stuck barrier phase when the
    /// `GARIBALDI_BARRIER_TIMEOUT_S` watchdog is armed, cancels the run
    /// at the next section boundary and is returned with its epoch,
    /// phase, and failed unit.
    ///
    /// # Errors
    ///
    /// Returns the first worker panic or barrier-watchdog timeout.
    pub fn try_run_with_stats(
        mut self,
        records: u64,
        warmup: u64,
    ) -> Result<(RunResult, EngineStats), EngineError> {
        let t0 = std::time::Instant::now();
        self.advance_to(warmup)?;
        self.reset_stats();
        for cl in &mut self.clusters {
            for c in cl.cores.iter_mut() {
                c.snapshot();
            }
        }
        self.advance_to(warmup + records)?;
        let mut stats = self.stats.clone();
        stats.wall_s = t0.elapsed().as_secs_f64();
        Ok((self.collect(), stats))
    }

    #[inline]
    fn shard_of_line(llc_sets: usize, n_shards: usize, line: LineAddr) -> usize {
        shard_of_set(llc_sets, n_shards, (line.get() % llc_sets as u64) as usize)
    }

    fn advance_to(&mut self, target: u64) -> Result<(), EngineError> {
        let w = self.eng.epoch_cycles as f64;
        let profile = std::env::var_os("GARIBALDI_ENGINE_STATS").is_some();
        let before = self.stats.clone();
        loop {
            let min_clock = self
                .clusters
                .iter()
                .filter_map(|cl| cl.min_unfinished_clock(target))
                .min_by(|a, b| a.partial_cmp(b).expect("no NaN clocks"));
            let Some(mc) = min_clock else { break };
            let epoch_end = ((mc / w).floor() + 1.0) * w;
            self.stats.epochs += 1;
            let epoch = self.stats.epochs;

            let t0 = std::time::Instant::now();
            let workers = self.eng.workers.min(self.clusters.len()).max(1);
            let (fail, timeout) = (&self.fail, self.watchdog);
            let ctx = SectionCtx { fail, epoch, phase: "step", timeout };
            run_per_cluster(&mut self.clusters, workers, &ctx, |i, cl| {
                fault::engine_hook(fault::Site::Step, epoch, i, fail.cancel_flag());
                cl.step_epoch(epoch_end, target);
            });
            let t1 = std::time::Instant::now();
            self.stats.step_s += (t1 - t0).as_secs_f64();
            self.check()?;
            self.barrier()?;
        }
        if profile {
            // The cluster-step phase and the two shard passes inside the
            // barrier run on `workers` threads; only the threshold replay,
            // routing and scatters are serial. This breakdown estimates the
            // parallel fraction on hosts with more cores than this one.
            let d = &self.stats;
            eprintln!(
                "[engine] target={target} epochs={} step={:.3}s barrier={:.3}s \
                 (drain={:.3}s merge={:.3}s apply={:.3}s serial={:.3}s syncs={})",
                d.epochs - before.epochs,
                d.step_s - before.step_s,
                d.barrier_s() - before.barrier_s(),
                d.drain_s - before.drain_s,
                d.merge_s - before.merge_s,
                d.apply_s - before.apply_s,
                d.serial_s - before.serial_s,
                d.learned_syncs - before.learned_syncs,
            );
            if let Some((max, mean)) = d.drain_imbalance() {
                eprintln!(
                    "[engine] drain shards: n={} max={:.3}s mean={:.3}s imbalance={:.2}x \
                     (cumulative; phase A finishes with the slowest shard)",
                    d.shard_drain_s.len(),
                    max,
                    mean,
                    if mean > 0.0 { max / mean } else { 1.0 },
                );
            }
        }
        Ok(())
    }

    /// Surface the first contained failure, aborting the run.
    fn check(&self) -> Result<(), EngineError> {
        match self.fail.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Resolves every buffered request: the epoch barrier. Every
    /// request-sized buffer used here is an engine-owned arena reused
    /// across barriers; the only remaining per-barrier allocations are a
    /// few shard-count-sized pointer vectors (the borrowed `runs` /
    /// `cmd_runs` / `inval_runs` slice lists, which cannot outlive their
    /// borrow and cost tens of words each).
    fn barrier(&mut self) -> Result<(), EngineError> {
        let t0 = std::time::Instant::now();
        let n_shards = self.shards.len();
        let workers = self.eng.workers.max(1);
        let epoch = self.stats.epochs;
        let timeout = self.watchdog;

        let snap = ThresholdSnapshot {
            color: self.threshold.as_ref().map(|t| t.color()).unwrap_or(0),
            threshold: self.threshold.as_ref().map(|t| t.threshold()).unwrap_or(0),
        };

        // Bucket requests by shard. Each core's buffer is key-sorted by
        // construction, so the scatter produces per-(shard, core) sorted
        // runs; the per-shard interleave is restored by a k-way merge in
        // the drain pass — no comparison sort.
        for b in self.shard_bufs.iter_mut() {
            b.reqs.clear();
            b.run_ends.clear();
        }
        let llc_sets = self.llc_sets;
        for cl in &self.clusters {
            for c in cl.cores.iter() {
                for r in &c.reqs {
                    self.shard_bufs[Self::shard_of_line(llc_sets, n_shards, r.line)].reqs.push(*r);
                }
                for b in self.shard_bufs.iter_mut() {
                    let end = b.reqs.len() as u32;
                    if b.run_ends.last().copied().unwrap_or(0) != end {
                        b.run_ends.push(end);
                    }
                }
            }
        }

        // Phase A: parallel per-shard drain in key order, into each
        // shard's arena-owned `DrainOut`. Each shard's merge+drain is
        // timed individually (worker-independent: the clock spans exactly
        // one shard's work) to feed the imbalance account.
        let td = std::time::Instant::now();
        let fail = &self.fail;
        let drain_ctx = SectionCtx { fail, epoch, phase: "drain", timeout };
        let shard_times: Vec<f64> = run_per_shard(
            &mut self.shards,
            &mut self.shard_bufs,
            workers,
            &drain_ctx,
            |i, sh, buf| {
                fault::engine_hook(fault::Site::Drain, epoch, i, fail.cancel_flag());
                let ts = std::time::Instant::now();
                let ShardBuf { reqs, run_ends, merged, out } = buf;
                let mut runs: Vec<&[LlcRequest]> = Vec::with_capacity(run_ends.len());
                let mut start = 0usize;
                for &end in run_ends.iter() {
                    runs.push(&reqs[start..end as usize]);
                    start = end as usize;
                }
                kway_merge_into(&runs, |r| r.key, merged);
                sh.drain(merged, snap, out);
                ts.elapsed().as_secs_f64()
            },
        );
        let t_drain = td.elapsed();
        self.check()?;
        if self.stats.shard_drain_s.len() != shard_times.len() {
            self.stats.shard_drain_s = vec![0.0; shard_times.len()];
        }
        for (acc, t) in self.stats.shard_drain_s.iter_mut().zip(&shard_times) {
            *acc += t;
        }

        // Scatter outcomes back to the issuing cores, hinting the target
        // outcome slot a lookahead window ahead (the scatter walks each
        // shard's outcomes in key order, so targets hop across cores and
        // every store would otherwise be a cold row).
        let csize = self.cfg.l2_cluster_size;
        for cl in &mut self.clusters {
            for c in cl.cores.iter_mut() {
                c.prepare_outcomes();
            }
        }
        for b in &self.shard_bufs {
            let outs = &b.out.outcomes;
            for (i, &(core, seq, out)) in outs.iter().enumerate() {
                if let Some(&(acore, aseq, _)) = outs.get(i + shard::DRAIN_LOOKAHEAD) {
                    let acl = acore as usize / csize;
                    let acc = acore as usize % csize;
                    garibaldi_types::hint::prefetch_index(
                        &self.clusters[acl].cores[acc].outcomes,
                        aseq as usize,
                    );
                }
                let cl = core as usize / csize;
                let cc = core as usize % csize;
                self.clusters[cl].cores[cc].outcomes[seq as usize] = out;
            }
        }

        // Serial replay: threshold unit + conditional matrix, global order.
        self.replay_outcomes();

        // Phase B′: cross-shard commands, routed by target. Each shard
        // drained in key order, so its command stream is already sorted;
        // a k-way merge of the per-shard runs restores the serial engine's
        // global order (same-key batches — several pairwise-prefetch
        // candidates of one request — stay in their shard's emission
        // order).
        for v in self.cmd_routed.iter_mut() {
            v.clear();
        }
        let route = |cmd: &ShardCmd| match *cmd {
            ShardCmd::PairUpdate { il, .. } => Self::shard_of_line(llc_sets, n_shards, il),
            ShardCmd::PairwisePrefetch { dl, .. } => Self::shard_of_line(llc_sets, n_shards, dl),
        };
        let cmd_runs: Vec<&[(ReqKey, ShardCmd)]> =
            self.shard_bufs.iter().map(|b| b.out.cmds.as_slice()).collect();
        kway_merge_into(&cmd_runs, |&(k, _)| k, &mut self.cmd_merged);
        for &(k, cmd) in &self.cmd_merged {
            self.cmd_routed[route(&cmd)].push((k, cmd));
        }
        let cmds_ctx = SectionCtx { fail: &self.fail, epoch, phase: "apply-cmds", timeout };
        let _: Vec<()> = run_per_shard(
            &mut self.shards,
            &mut self.cmd_routed,
            workers,
            &cmds_ctx,
            |_, sh, buf| {
                sh.apply_cmds(buf, snap);
            },
        );
        self.check()?;

        // Coherence invalidations flow back to the private tiers (also
        // per-shard sorted runs; at most one invalidation per request, so
        // keys are unique and the merge is exactly the old sorted order).
        let ta = std::time::Instant::now();
        let inval_runs: Vec<&[(ReqKey, InvalCmd)]> =
            self.shard_bufs.iter().map(|b| b.out.invals.as_slice()).collect();
        kway_merge_into(&inval_runs, |&(k, _)| k, &mut self.inval_merged);
        let invals = &self.inval_merged;
        self.stats.inval_cmds +=
            invals.iter().map(|(_, c)| c.others.count_ones() as u64).sum::<u64>();
        let invals_ctx = SectionCtx { fail: &self.fail, epoch, phase: "invals", timeout };
        let dropped = run_per_cluster(&mut self.clusters, workers, &invals_ctx, |_, cl| {
            cl.apply_invals(invals)
        });
        self.invalidations += dropped.iter().sum::<u64>();
        self.check()?;

        // Learned-state sync: every shard's replacement policy trained
        // its slice of the PC-indexed predictor on 1/n of the samples; the
        // shards export their privatized deltas, the deltas are merged
        // once into a pooled consensus — the baselines are identical on
        // every shard, so shard 0's consensus serves all — and every shard
        // installs it, so the sharded policy tracks the serial engine's
        // one globally-trained instance. Exports are indexed by shard and
        // the merge is a pure function of them, and the sync runs every
        // `sync_every`-th epoch, a pure function of the simulated schedule
        // — worker-count invariant for every cadence.
        let mut t_sync = std::time::Duration::ZERO;
        if epoch % self.eng.sync_every.max(1) as u64 == 0 {
            let tm = std::time::Instant::now();
            for (sh, buf) in self.shards.iter().zip(self.learned_exports.iter_mut()) {
                sh.export_policy_learned_into(buf);
            }
            if self.learned_exports.iter().any(|e| !e.is_empty()) {
                let (shards, exports, merged, fail) =
                    (&self.shards, &self.learned_exports, &mut self.learned_merged, &self.fail);
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault::engine_hook(fault::Site::Merge, epoch, 0, fail.cancel_flag());
                    shards[0].merge_policy_learned(exports, merged);
                }));
                if let Err(p) = res {
                    fail.record(EngineError {
                        epoch,
                        shard: None,
                        phase: "merge",
                        payload: payload_str(p),
                    });
                }
                self.check()?;
                let merged = &self.learned_merged;
                let ctx = SectionCtx { fail: &self.fail, epoch, phase: "install", timeout };
                let _: Vec<()> = run_per_shard(
                    &mut self.shards,
                    &mut self.shard_bufs,
                    workers,
                    &ctx,
                    |_, sh, _| sh.install_policy_learned(merged),
                );
                self.stats.learned_syncs += 1;
                self.check()?;
            }
            t_sync = tm.elapsed();
        }

        // Latency corrections + epoch reset.
        let corr_ctx = SectionCtx { fail: &self.fail, epoch, phase: "corrections", timeout };
        run_per_cluster(&mut self.clusters, workers, &corr_ctx, |_, cl| cl.apply_corrections());
        let t_apply = ta.elapsed() - t_sync;
        let total = t0.elapsed();
        self.stats.drain_s += t_drain.as_secs_f64();
        self.stats.merge_s += t_sync.as_secs_f64();
        self.stats.apply_s += t_apply.as_secs_f64();
        self.stats.serial_s += (total - t_drain - t_apply - t_sync).as_secs_f64();
        self.check()
    }

    /// Replays every demand access outcome into the threshold unit and the
    /// conditional matrix, merged across cores in `(timestamp, core, seq)`
    /// order — the same order the shards drained in. The matrix is pure
    /// commutative counters, so when no threshold unit is configured the
    /// merge is skipped and cores are walked directly.
    fn replay_outcomes(&mut self) {
        let mut th = self.threshold.take();
        let mut cond = self.cond;
        let i_oracle = self.cfg.i_oracle;
        {
            let cores: Vec<&EpochCore<'_>> =
                self.clusters.iter().flat_map(|cl| cl.cores.iter()).collect();
            let mut visit = |c: &EpochCore<'_>, r: &LlcRequest, th: &mut Option<ThresholdUnit>| {
                match r.kind {
                    // The serial oracle path bypasses the module entirely.
                    ReqKind::Instr { demand: true } if !i_oracle => {
                        let o = c.outcomes[r.key.seq as usize];
                        if let Some(t) = th.as_mut() {
                            t.on_llc_access(o.llc_hit);
                            if !o.llc_hit {
                                t.record_instr_miss(ThreadId::new(r.key.core), r.pc);
                            }
                        }
                    }
                    ReqKind::Data { ifetch_seq, .. } => {
                        let o = c.outcomes[r.key.seq as usize];
                        if let Some(t) = th.as_mut() {
                            t.on_llc_access(o.llc_hit);
                            t.record_data_access(ThreadId::new(r.key.core), r.pc, o.llc_hit);
                        }
                        if let Some(fs) = ifetch_seq {
                            let io = c.outcomes[fs as usize];
                            cond.record(!io.llc_hit, o.llc_hit);
                        }
                    }
                    _ => {}
                }
            };
            if th.is_none() {
                for c in &cores {
                    for &idx in &c.demand_idx {
                        visit(c, &c.reqs[idx as usize], &mut th);
                    }
                }
            } else {
                let mut pos = vec![0usize; cores.len()];
                let mut heap = BinaryHeap::new();
                for (i, c) in cores.iter().enumerate() {
                    if let Some(&idx) = c.demand_idx.first() {
                        heap.push(Reverse((c.reqs[idx as usize].key, i)));
                    }
                }
                while let Some(Reverse((_, i))) = heap.pop() {
                    let c = cores[i];
                    let r = &c.reqs[c.demand_idx[pos[i]] as usize];
                    pos[i] += 1;
                    if pos[i] < c.demand_idx.len() {
                        heap.push(Reverse((c.reqs[c.demand_idx[pos[i]] as usize].key, i)));
                    }
                    visit(c, r, &mut th);
                }
            }
        }
        self.threshold = th;
        self.cond = cond;
    }

    fn reset_stats(&mut self) {
        for sh in &mut self.shards {
            sh.reset_stats();
        }
        for cl in &mut self.clusters {
            cl.tier.reset_stats();
        }
        self.cond = ConditionalMatrix::default();
        self.invalidations = 0;
        self.stats.inval_cmds = 0;
    }

    fn collect(mut self) -> RunResult {
        if std::env::var_os("GARIBALDI_ENGINE_STATS").is_some() {
            let mut est = EstimatorStats::default();
            for cl in &self.clusters {
                for c in cl.cores.iter() {
                    est.merge(&c.est_stats);
                }
            }
            eprintln!(
                "[engine] estimator=ewma samples={} bias={:+.2} rms={:.2} \
                 (issue estimate − drained latency, cycles, measured region)",
                est.samples,
                est.bias(),
                est.rms(),
            );
        }
        let core_results: Vec<_> = self
            .clusters
            .iter()
            .flat_map(|cl| cl.cores.iter())
            .zip(&self.mix.slots)
            .map(|(c, w)| c.result(w.clone()))
            .collect();
        let wall = core_results.iter().map(|c| c.cycles).fold(0.0, f64::max);

        let mut l1 = CacheStats::default();
        let mut l1i = CacheStats::default();
        let mut l2 = CacheStats::default();
        let mut helper_hits = 0u64;
        let mut helper_lookups = 0u64;
        let mut helper_gar_misses = 0u64;
        for cl in &self.clusters {
            let (cl1, cl1i, cl2) = cl.tier.stats();
            l1.merge(&cl1);
            l1i.merge(&cl1i);
            l2.merge(&cl2);
            let (h, m) = cl.tier.helper_stats();
            helper_hits += h;
            helper_lookups += h + m;
            helper_gar_misses += cl.tier.helper_gar_misses;
        }

        let mut llc = CacheStats::default();
        let mut dram = DramStats::default();
        let mut qbs_cycles = 0u64;
        let mut gar_stats = garibaldi::GaribaldiStats::default();
        let mut profiler: Option<ReuseProfiler> = None;
        for sh in &mut self.shards {
            llc.merge(sh.cache().stats());
            let d = sh.dram().stats();
            dram.reads += d.reads;
            dram.writes += d.writes;
            dram.queue_delay += d.queue_delay;
            dram.queued_requests += d.queued_requests;
            qbs_cycles += sh.qbs_cycles();
            if let Some(s) = sh.garibaldi_stats() {
                gar_stats.merge(s);
            }
            if let Some(p) = sh.take_profiler() {
                match profiler.as_mut() {
                    Some(acc) => acc.merge(p),
                    None => profiler = Some(p),
                }
            }
        }
        gar_stats.helper_misses += helper_gar_misses;

        let garibaldi = self.threshold.as_ref().map(|t| GaribaldiReport {
            stats: gar_stats,
            final_threshold: t.threshold(),
            color_ticks: t.color_ticks(),
            helper_hit_rate: if helper_lookups == 0 {
                0.0
            } else {
                helper_hits as f64 / helper_lookups as f64
            },
        });

        let reuse = profiler.map(|p| {
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

        let pair_ops = self
            .cfg
            .scheme
            .garibaldi
            .as_ref()
            .map(|_| {
                gar_stats.instr_accesses
                    + gar_stats.data_accesses
                    + gar_stats.protections
                    + gar_stats.declines
            })
            .unwrap_or(0);
        let energy = EnergyModel::default().evaluate(&EnergyEvents {
            l1_accesses: l1.accesses() + l1.prefetch_fills,
            l2_accesses: l2.accesses() + l2.prefetch_fills,
            llc_accesses: llc.accesses() + llc.prefetch_fills,
            dram_accesses: dram.accesses(),
            pair_table_ops: pair_ops,
            cycles: wall as u64,
            cores: self.cfg.cores as u64,
        });

        RunResult {
            scheme: self.cfg.scheme.label(),
            cores: core_results,
            l1,
            l1i,
            l2,
            llc,
            dram,
            garibaldi,
            conditional: self.cond,
            reuse,
            energy,
            qbs_cycles,
            invalidations: self.invalidations,
        }
    }
}

/// Runs `f` over `(index, shard, buffer)` triples through the contained
/// section machinery ([`contain::run_units`]): parallel when `workers >
/// 1`, panics converted to [`EngineError`]s in `ctx.fail`, watchdog
/// armed when `ctx.timeout` is set. Results come back indexed by shard
/// regardless of scheduling (failed/skipped slots are `T::default()`).
fn run_per_shard<B: Send, T: Send + Default>(
    shards: &mut [LlcShard],
    bufs: &mut [B],
    workers: usize,
    ctx: &SectionCtx<'_>,
    f: impl Fn(usize, &mut LlcShard, &mut B) -> T + Sync,
) -> Vec<T> {
    let items: Vec<(&mut LlcShard, &mut B)> = shards.iter_mut().zip(bufs.iter_mut()).collect();
    contain::run_units(items, workers, ctx, |i, (sh, b)| f(i, sh, b))
}

/// Runs `f` over `(index, cluster)` pairs through the contained section
/// machinery; see [`run_per_shard`].
fn run_per_cluster<'p, T: Send + Default>(
    clusters: &mut [ClusterSim<'p>],
    workers: usize,
    ctx: &SectionCtx<'_>,
    f: impl Fn(usize, &mut ClusterSim<'p>) -> T + Sync,
) -> Vec<T> {
    let items: Vec<&mut ClusterSim<'p>> = clusters.iter_mut().collect();
    contain::run_units(items, workers, ctx, f)
}

#[cfg(test)]
mod tests {
    use crate::config::{EngineConfig, LlcScheme};
    use crate::experiment::ExperimentScale;
    use crate::system::SimRunner;
    use crate::SystemConfig;
    use garibaldi_cache::PolicyKind;
    use garibaldi_trace::WorkloadMix;

    fn runner(scheme: LlcScheme) -> SimRunner {
        let scale = ExperimentScale::smoke();
        let cfg = SystemConfig::scaled(&scale, scheme);
        SimRunner::new(cfg, WorkloadMix::homogeneous("tpcc", scale.cores), 11)
    }

    #[test]
    fn parallel_run_produces_plausible_results() {
        let r = runner(LlcScheme::plain(PolicyKind::Lru)).run_parallel(
            2_000,
            500,
            &EngineConfig::default(),
        );
        assert_eq!(r.cores.len(), ExperimentScale::smoke().cores);
        for c in &r.cores {
            assert!(c.ipc > 0.0 && c.ipc < 20.0, "implausible IPC {}", c.ipc);
            assert!(c.instrs > 0);
        }
        assert!(r.llc.accesses() > 0, "traffic reached the LLC");
    }

    #[test]
    fn parallel_garibaldi_runs_and_reports() {
        let r = runner(LlcScheme::mockingjay_garibaldi()).run_parallel(
            2_000,
            500,
            &EngineConfig::default(),
        );
        let g = r.garibaldi.expect("garibaldi configured");
        assert!(g.stats.instr_accesses > 0, "module observed LLC traffic");
        assert!(g.stats.pair_updates > 0, "helper deduction fed the pair table");
        assert!(r.scheme.contains("Garibaldi"));
    }

    // Worker-count invariance itself is asserted at integration level
    // (tests/determinism.rs::parallel_engine_worker_count_invariance),
    // across schemes, worker counts and uneven core counts.

    #[test]
    fn shard_count_is_a_model_parameter_but_workers_are_not() {
        // Different shard counts are *allowed* to differ (different pair
        // slices and DRAM interleave)…
        let a = runner(LlcScheme::plain(PolicyKind::Lru)).run_parallel(
            1_000,
            200,
            &EngineConfig { llc_shards: 2, ..EngineConfig::default() },
        );
        let b = runner(LlcScheme::plain(PolicyKind::Lru)).run_parallel(
            1_000,
            200,
            &EngineConfig { llc_shards: 5, ..EngineConfig::default() },
        );
        // …but each is individually reproducible.
        let a2 = runner(LlcScheme::plain(PolicyKind::Lru)).run_parallel(
            1_000,
            200,
            &EngineConfig { llc_shards: 2, ..EngineConfig::default() },
        );
        assert_eq!(a, a2);
        let _ = b;
    }

    #[test]
    fn replayed_streams_reproduce_the_generated_run() {
        let r = runner(LlcScheme::plain(PolicyKind::Mockingjay));
        let streams = r.generate_streams(1_200);
        let eng = EngineConfig::default();
        let live = r.run_parallel(1_000, 200, &eng);
        let replayed = r.run_parallel_replay(&streams, 1_000, 200, &eng);
        assert_eq!(live, replayed, "dump/replay must be invisible to the result");
    }

    #[test]
    fn shard_range_math_is_total_and_contiguous() {
        use super::shard::{shard_of_set, shard_range};
        for (sets, shards) in [(341, 8), (64, 8), (7, 3), (100, 1)] {
            let mut covered = 0;
            for s in 0..shards {
                let (base, len) = shard_range(sets, shards, s);
                assert_eq!(base, covered, "contiguous");
                covered += len;
                for set in base..base + len {
                    assert_eq!(shard_of_set(sets, shards, set), s, "{sets}/{shards}/{set}");
                }
            }
            assert_eq!(covered, sets, "total");
        }
    }
}
