//! The simulation engine: cluster-private tiers, set-sharded LLC, and the
//! two schedules that run them.
//!
//! One implementation of every fill, coherence and guard rule serves both
//! schedules. [`ParallelEngine::new`] builds the engine for one
//! [`EngineChoice`], and [`ParallelEngine::try_run`] runs the schedule it
//! was built for. The **epoch schedule** ([`EngineChoice::Parallel`]) lets
//! a 40-core run use the host's cores; the **serial schedule**
//! ([`EngineChoice::Serial`], the min-clock reference) resolves every
//! request as it is issued. Both run over the same state:
//!
//! 1. **Private tiers** ([`private::ClusterSim`]): each L2 cluster owns its
//!    cores, L1s, L2, prefetchers and helper tables, and advances under
//!    min-clock scheduling *within the cluster* up to a bounded-lag epoch
//!    horizon. Clusters are data-independent, so workers step them in
//!    parallel. Each core appends every LLC-bound request, as it issues it,
//!    to its one request run, files the request's seq into a lane per LLC
//!    shard, and lists its demand accesses for the threshold replay.
//! 2. **LLC shards** ([`shard::LlcShard`]): the LLC (plus its slice of the
//!    Garibaldi pair/D_PPN state, the DRAM channels, the I-oracle and the
//!    reuse profiler) is split into set-contiguous shards. At the barrier
//!    the cores lend their runs to every shard at once (read-shared), and
//!    each shard, in parallel, merges its lanes from every core into
//!    `(timestamp, core, seq)` order and drains the requests they name
//!    where they lie in the runs.
//! 3. **Barrier** ([`ParallelEngine`]): every piece of barrier work that
//!    touches one unit runs in a parallel section — the drains, which file
//!    each outcome under its issuing core and each cross-shard Garibaldi
//!    command (pair updates keyed by the instruction line's shard,
//!    pairwise prefetch fills keyed by the data line's) under its target
//!    shard as they resolve it; the per-shard command apply; every
//!    [`EngineConfig::sync_every`]-th barrier the learned-state install
//!    (one pooled merge, installed into every shard); and the per-cluster
//!    tail, which applies coherence invalidations, scatters the outcomes,
//!    replays them into the §5.2 threshold unit and the Fig 4c conditional
//!    matrix one core at a time ([`replay`]), and corrects every core's
//!    issue-time latency estimates to the drained outcomes, which also
//!    trains its [`estimate::Ewma`] estimator. Between sections the
//!    calling thread only swaps vectors between units, merges the rare
//!    invalidations, finds the keys where color periods end, and closes
//!    those periods from the cores' summed shares. All barrier orders are
//!    restored by stable k-way merge orders over already-sorted runs
//!    ([`merge`]), never by comparison sorts, and read in place.
//!
//! The sections run on one worker pool per run (`engine/contain.rs`): the
//! calling thread plus `workers − 1` helper threads, each unit on the same
//! worker for the whole run.
//!
//! The serial schedule ([`serial`]) is the same state with one shard
//! spanning every LLC set: it steps the global min-clock core and resolves
//! that core's requests before the next pick, so no estimate outlives its
//! record. With one shard the run is the lane, so the shard drains the run
//! directly and the cores file no lanes. [`ParallelEngine::step_serial`],
//! its single step, refuses an engine built for the epoch schedule.
//!
//! Every reduction and drain order is indexed by cluster/shard/core id —
//! never by worker — so a run's `RunResult` is **bit-identical for any
//! worker count** (`tests/determinism.rs`). Fidelity differences against
//! the serial schedule are bounded by the epoch window: LLC latency
//! feedback, pair-table updates and remote invalidations land at the next
//! barrier instead of instantly, and the threshold/color pair is frozen
//! per epoch.
//!
//! **Failure containment**: every parallel section runs its worker
//! closures under `catch_unwind`; the first panic — or a barrier
//! watchdog timeout when `GARIBALDI_BARRIER_TIMEOUT_S` is set — cancels
//! the run cooperatively and surfaces as a structured [`EngineError`]
//! from [`ParallelEngine::try_run`] instead of aborting the process or
//! deadlocking the barrier (ARCHITECTURE.md §"Failure model"; fault hooks
//! for the battery live in [`crate::fault`]).

mod contain;
pub mod estimate;
pub mod merge;
pub mod private;
pub mod replay;
pub mod request;
pub mod serial;
pub mod shard;

pub use contain::EngineError;

use crate::config::{EngineChoice, EngineConfig, SystemConfig};
use crate::energy::{EnergyEvents, EnergyModel};
use crate::fault;
use crate::metrics::{ConditionalMatrix, GaribaldiReport, ReuseSummary, RunResult};
use crate::reuse::ReuseProfiler;
use contain::{lock, payload_str, FailState, Job, Pool};
use estimate::EstimatorStats;
use garibaldi::{PeriodCounts, ThresholdState};
use garibaldi_cache::{CacheConfig, CacheStats};
use garibaldi_mem::DramStats;
use garibaldi_trace::{SharedAddressSpace, WorkloadMix};
use garibaldi_types::Fields;
use merge::{kway_merge_order, Pos};
use private::{ClusterSim, RecordSource, Route};
use replay::{close_periods, period_cuts, DemandReq};
use request::{InvalCmd, LlcRequest, ReqKey, ReqOutcome, ShardCmd};
use shard::{DrainOut, DrainSink, LlcShard, ThresholdSnapshot};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Reusable per-shard epoch arena: what the shard's sections read and
/// write, and the per-core and per-shard vectors the calling thread swaps
/// between units (Vec headers only) so that no section reads another
/// unit. Everything here is cleared and refilled at each barrier — never
/// reallocated — so the steady-state engine issues no per-epoch
/// allocations on the barrier path.
#[derive(Default, Clone)]
struct ShardBuf {
    /// Each core's lane for this shard (indexed by global core id): the
    /// seqs of its requests in the core's run, lent by the cores for the
    /// drain, which empties them.
    lanes: Vec<Vec<u16>>,
    /// Merge order of `lanes` for the drain, then of `inbox` for the
    /// command apply (8 bytes per entry; scratch reused across barriers).
    order: Vec<Pos>,
    /// The drain's `(seq, outcome)`s per issuing core, in vectors lent by
    /// the cores for the drain.
    outcomes: Vec<Vec<(u32, ReqOutcome)>>,
    /// The drain's cross-shard commands per target shard, in key order,
    /// swapped into the targets' `inbox` after the drain.
    outbox: Vec<Vec<(ReqKey, ShardCmd)>>,
    /// The commands every source shard routed here, applied in place.
    inbox: Vec<Vec<(ReqKey, ShardCmd)>>,
    /// The drain's remote-copy invalidations, in key order.
    invals: Vec<(ReqKey, InvalCmd)>,
    /// Seconds of this shard's last drain.
    drain_s: f64,
}

/// Wall-clock phase breakdown of an engine run, accumulated across every
/// epoch (warmup + measured): `step` is the parallel cluster stepping,
/// `drain` the parallel per-shard phase A, `merge` the learned-state
/// merge/install work on the barrier path, `apply` the per-cluster tail
/// (invalidations, threshold replay and corrections) with the
/// invalidation merge that feeds it, and `serial` the barrier remainder
/// (lane and command-run hand-offs, the command apply, the period-cut
/// search and period closing). Collection is always on — a handful of
/// `Instant` reads per barrier — and the engine prints nothing: callers
/// ([`crate::SimRunner::try_run_on`], `garibaldi-cli`, `perfbench/`) read
/// the fields or print the one-line summary of its `Display`.
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
    /// Invalidation merge plus the parallel per-cluster tail:
    /// invalidations, threshold and conditional-matrix replay, latency
    /// corrections.
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
    /// The most requests one barrier drained, warmup included. The epoch
    /// schedule bounds it by `cores × (EPOCH_REQUEST_BUDGET +
    /// RECORD_REQUEST_CEILING)` ([`private::EPOCH_REQUEST_BUDGET`]), and
    /// every barrier buffer is sized by it.
    pub peak_barrier_requests: u64,
    /// Each core's request-run capacity at the end of the run, indexed by
    /// global core id (both schedules). A run is allocated once at its
    /// schedule's bound ([`private::EPOCH_RUN_BOUND`] or
    /// [`private::RECORD_REQUEST_CEILING`]), so any other value means it
    /// was regrown.
    pub run_capacity: Vec<usize>,
    /// Every core's issue-time latency estimates against the drained
    /// latencies, merged across cores (measured region only).
    pub estimator: EstimatorStats,
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

/// The one-line run summary `garibaldi-cli` prints after a parallel run:
/// phase seconds, syncs, the largest barrier, the drain imbalance and
/// the estimator's error (issue estimate − drained latency, in cycles).
impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epochs={} wall={:.3}s step={:.3}s barrier={:.3}s (drain={:.3}s merge={:.3}s \
             apply={:.3}s serial={:.3}s) syncs={} peak_barrier_requests={}",
            self.epochs,
            self.wall_s,
            self.step_s,
            self.barrier_s(),
            self.drain_s,
            self.merge_s,
            self.apply_s,
            self.serial_s,
            self.learned_syncs,
            self.peak_barrier_requests,
        )?;
        if let Some((max, mean)) = self.drain_imbalance() {
            let factor = if mean > 0.0 { max / mean } else { 1.0 };
            write!(f, " drain_shards={} imbalance={factor:.2}x", self.shard_drain_s.len())?;
        }
        let e = &self.estimator;
        write!(f, " estimator samples={} bias={:+.2} rms={:.2}", e.samples, e.bias(), e.rms())
    }
}

/// The assembled engine for one run — clusters, LLC shards, threshold unit
/// — built for the epoch schedule or the serial one, and run by
/// [`ParallelEngine::try_run`].
pub struct ParallelEngine<'p> {
    cfg: SystemConfig,
    /// The schedule the engine was built for: serial (one shard over
    /// every set) or the epoch schedule's configuration.
    schedule: EngineChoice,
    mix: WorkloadMix,
    clusters: Vec<ClusterSim<'p>>,
    shards: Vec<LlcShard>,
    /// Timer, threshold register and open-period counters of the §5.2
    /// unit; its PMU rings live in the cores.
    threshold: Option<ThresholdState>,
    /// Which shard each line belongs to.
    route: Route,
    /// Per-shard lanes, drain outputs and command inboxes, reused across
    /// barriers.
    shard_bufs: Vec<ShardBuf>,
    /// Barrier scratch owned by the calling thread.
    scratch: Scratch,
    /// Wall-clock phase account (always collected; returned by
    /// `try_run`).
    stats: EngineStats,
    /// Barrier watchdog timeout (`GARIBALDI_BARRIER_TIMEOUT_S`); `None`
    /// disables the watchdog and its thread.
    watchdog: Option<Duration>,
}

/// Scratch buffers of the calling thread's barrier work, reused across
/// barriers.
#[derive(Default)]
struct Scratch {
    /// The serial schedule's drain output (one record's requests).
    out: DrainOut,
    /// Merge order of the shards' invalidation runs.
    order: Vec<Pos>,
    /// Keys of the accesses that close a color period (serial schedule).
    cuts: Vec<ReqKey>,
    /// Per-period sums of the cores' shares.
    sums: Vec<PeriodCounts>,
    /// Per-shard learned-state exports (each holds a predictor-table-sized
    /// snapshot).
    learned_exports: Vec<Vec<u32>>,
}

/// A parallel section of an epoch; [`Units::run`] runs one unit of it.
#[derive(Debug, Clone, Copy)]
enum Section {
    /// Advance each cluster to the epoch horizon.
    Step { epoch_end: f64, target: u64 },
    /// Phase A: drain the shard's lanes in merged key order, filing each
    /// outcome under its issuing core and each command under its target
    /// shard.
    Drain { snap: ThresholdSnapshot },
    /// Phase B′: apply the commands routed to the shard in merged key
    /// order.
    ApplyCmds { snap: ThresholdSnapshot },
    /// Install the pooled learned-state consensus into the shard.
    Install,
    /// Per cluster: invalidations, outcome scatter, threshold and
    /// conditional-matrix replay, latency corrections.
    Tail,
}

impl Section {
    fn phase(self) -> &'static str {
        match self {
            Section::Step { .. } => "step",
            Section::Drain { .. } => "drain",
            Section::ApplyCmds { .. } => "apply-cmds",
            Section::Install => "install",
            Section::Tail => "invals",
        }
    }

    fn per_cluster(self) -> bool {
        matches!(self, Section::Step { .. } | Section::Tail)
    }
}

/// What every unit of the next section reads, written by the calling
/// thread between sections.
#[derive(Default)]
struct Broadcast {
    /// Every core's request run (indexed by global core id), lent by the
    /// cores for the drain: each shard reads the requests its lanes name.
    runs: Vec<Vec<LlcRequest>>,
    /// This barrier's invalidations, in key order.
    invals: Vec<(ReqKey, InvalCmd)>,
    /// Keys of the accesses that close a color period this epoch.
    cuts: Vec<ReqKey>,
    /// Pooled learned-state consensus.
    learned: Vec<u32>,
}

/// A parallel run's units, each behind its own lock: a unit is locked by
/// the one worker that owns it during a section, and by the calling
/// thread between sections, so no lock is ever contended.
struct Units<'p> {
    clusters: Vec<Mutex<ClusterSim<'p>>>,
    shards: Vec<Mutex<(LlcShard, ShardBuf)>>,
    shared: RwLock<Broadcast>,
    route: Route,
}

impl<'p> Units<'p> {
    /// Runs unit `i` of `job`.
    fn run(&self, job: &Job<Section>, i: usize, phase: &Cell<&'static str>, fail: &FailState) {
        let epoch = job.epoch;
        match job.section {
            Section::Step { epoch_end, target } => {
                let mut cl = lock(&self.clusters[i]);
                fault::engine_hook(fault::Site::Step, epoch, i, fail.cancel_flag());
                cl.step_epoch(epoch_end, target);
            }
            Section::Drain { snap } => {
                let mut u = lock(&self.shards[i]);
                fault::engine_hook(fault::Site::Drain, epoch, i, fail.cancel_flag());
                let (sh, buf) = &mut *u;
                let shared = self.read();
                let ts = Instant::now();
                buf.invals.clear();
                let mut sink = EpochSink {
                    route: self.route,
                    outcomes: &mut buf.outcomes,
                    outbox: &mut buf.outbox,
                    invals: &mut buf.invals,
                };
                sh.drain_lanes(&shared.runs, &buf.lanes, &mut buf.order, snap, &mut sink);
                for lane in buf.lanes.iter_mut() {
                    lane.clear();
                }
                buf.drain_s = ts.elapsed().as_secs_f64();
            }
            Section::ApplyCmds { snap } => {
                // Each source shard drained in key order, so its run is
                // sorted; the merge order restores the global order.
                let mut u = lock(&self.shards[i]);
                let (sh, buf) = &mut *u;
                sh.apply_cmd_runs(&buf.inbox, &mut buf.order, snap);
                for run in buf.inbox.iter_mut() {
                    run.clear();
                }
            }
            Section::Install => {
                let shared = self.read();
                lock(&self.shards[i]).0.install_policy_learned(&shared.learned);
            }
            Section::Tail => {
                let shared = self.read();
                let mut cl = lock(&self.clusters[i]);
                cl.apply_invals(&shared.invals);
                phase.set("replay");
                for c in cl.cores.iter_mut() {
                    c.take_drained();
                }
                cl.replay(&shared.cuts);
                phase.set("corrections");
                cl.apply_corrections();
            }
        }
    }

    /// Swaps every core's run with its slot in the broadcast, and its
    /// lanes and outcome vectors with its slots in every shard (Vec headers
    /// only). Before the drain this lends the shards the requests, the
    /// lanes naming them and empty outcome vectors; after it, it returns
    /// the runs, the emptied lanes and the filled outcomes. Each buffer has
    /// one owner between barriers, so there is one set of them, not two.
    /// Returns the number of requests the cores' runs held (0 on the
    /// return swap).
    fn swap_core_buffers(&self) -> u64 {
        let mut shards = self.shards();
        let mut shared = self.broadcast();
        let mut requests = 0;
        for mut cl in self.clusters() {
            for c in cl.cores.iter_mut() {
                let g = c.id().index();
                requests += c.run.len() as u64;
                std::mem::swap(&mut c.run, &mut shared.runs[g]);
                let lent = c.lanes.iter_mut().zip(c.drained.iter_mut());
                for ((lane, drained), u) in lent.zip(shards.iter_mut()) {
                    std::mem::swap(lane, &mut u.1.lanes[g]);
                    std::mem::swap(drained, &mut u.1.outcomes[g]);
                }
            }
        }
        requests
    }

    /// Swaps every shard's outgoing command run for each target with the
    /// target's incoming slot for it: after the drain this delivers the
    /// runs, after the apply it returns them emptied.
    fn swap_cmd_runs(&self) {
        let mut shards = self.shards();
        let n = shards.len();
        for src in 0..n {
            for dst in 0..n {
                let run = std::mem::take(&mut shards[src].1.outbox[dst]);
                shards[src].1.outbox[dst] = std::mem::replace(&mut shards[dst].1.inbox[src], run);
            }
        }
    }

    fn clusters(&self) -> Vec<MutexGuard<'_, ClusterSim<'p>>> {
        self.clusters.iter().map(lock).collect()
    }

    fn shards(&self) -> Vec<MutexGuard<'_, (LlcShard, ShardBuf)>> {
        self.shards.iter().map(lock).collect()
    }

    fn read(&self) -> RwLockReadGuard<'_, Broadcast> {
        self.shared.read().expect("the calling thread never panics holding the broadcast")
    }

    fn broadcast(&self) -> RwLockWriteGuard<'_, Broadcast> {
        self.shared.write().expect("readers never poison an RwLock")
    }
}

/// The epoch schedule's drain sink: each outcome goes straight into its
/// issuing core's hand-over vector, each command into its target shard's
/// outbox, each invalidation into the shard's run.
struct EpochSink<'a> {
    route: Route,
    outcomes: &'a mut [Vec<(u32, ReqOutcome)>],
    outbox: &'a mut [Vec<(ReqKey, ShardCmd)>],
    invals: &'a mut Vec<(ReqKey, InvalCmd)>,
}

impl DrainSink for EpochSink<'_> {
    #[inline]
    fn outcome(&mut self, key: ReqKey, outcome: ReqOutcome) {
        self.outcomes[key.core as usize].push((key.seq, outcome));
    }

    #[inline]
    fn cmd(&mut self, key: ReqKey, cmd: ShardCmd) {
        let target = match cmd {
            ShardCmd::PairUpdate { il, .. } => il,
            ShardCmd::PairwisePrefetch { dl, .. } => dl,
        };
        self.outbox[self.route.shard_of(target)].push((key, cmd));
    }

    #[inline]
    fn inval(&mut self, key: ReqKey, inval: InvalCmd) {
        self.invals.push((key, inval));
    }
}

impl<'p> ParallelEngine<'p> {
    /// Builds the engine for `choice`'s schedule from one
    /// `(source, space)` pair per core of `mix`. [`EngineChoice::Serial`]
    /// builds one LLC shard over every set and consults no fault plan or
    /// watchdog; [`EngineChoice::Parallel`] builds its configuration's
    /// shards, resolves `GARIBALDI_FAULTS` and arms the
    /// `GARIBALDI_BARRIER_TIMEOUT_S` watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`/`choice` are invalid, if `cores` does not match
    /// the mix, or on a malformed fault plan or watchdog timeout.
    pub fn new(
        cfg: &SystemConfig,
        choice: &EngineChoice,
        mix: WorkloadMix,
        mut cores: Vec<(RecordSource<'p>, SharedAddressSpace)>,
    ) -> Self {
        cfg.validate().expect("valid system configuration");
        assert_eq!(cores.len(), cfg.cores, "one source per core");
        assert_eq!(mix.cores(), cfg.cores, "mix slots must equal core count");
        let llc_sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;
        let (n_shards, watchdog) = match choice {
            EngineChoice::Serial => (1, None),
            EngineChoice::Parallel(eng) => {
                eng.validate().expect("valid engine configuration");
                // Resolve GARIBALDI_FAULTS here so a malformed plan fails
                // loudly on the main thread, not inside a contained worker.
                let _ = fault::active();
                let secs = crate::knobs::BARRIER_TIMEOUT_S.count();
                (eng.llc_shards.min(llc_sets).max(1), secs.map(|s| Duration::from_secs(s as u64)))
            }
        };
        let shards = (0..n_shards).map(|i| LlcShard::new(cfg, i, n_shards, llc_sets)).collect();

        let route = Route::new(llc_sets, n_shards, cfg.i_oracle);
        let mut clusters = Vec::with_capacity(cfg.clusters());
        for k in 0..cfg.clusters() {
            let lo = k * cfg.l2_cluster_size;
            let hi = (lo + cfg.l2_cluster_size).min(cfg.cores);
            let members: Vec<_> = cores.drain(..hi - lo).collect();
            clusters.push(ClusterSim::new(cfg, route, choice, k, lo, members));
        }

        let buf = ShardBuf {
            lanes: vec![Vec::new(); cfg.cores],
            outcomes: vec![Vec::new(); cfg.cores],
            outbox: vec![Vec::new(); n_shards],
            inbox: vec![Vec::new(); n_shards],
            ..ShardBuf::default()
        };
        Self {
            threshold: cfg.scheme.garibaldi.as_ref().map(ThresholdState::new),
            cfg: cfg.clone(),
            schedule: *choice,
            mix,
            clusters,
            shards,
            route,
            shard_bufs: vec![buf; n_shards],
            scratch: Scratch { learned_exports: vec![Vec::new(); n_shards], ..Scratch::default() },
            stats: EngineStats::default(),
            watchdog,
        }
    }

    /// Runs `warmup` + `records` records per core on the schedule the
    /// engine was built for; returns the measured-region result and the
    /// wall-clock [`EngineStats`] of the whole run (warmup + measured).
    /// The serial schedule sets only [`EngineStats::wall_s`],
    /// [`EngineStats::run_capacity`] and [`EngineStats::estimator`].
    ///
    /// On the epoch schedule a worker panic in any parallel section, or a
    /// stuck barrier phase when the `GARIBALDI_BARRIER_TIMEOUT_S` watchdog
    /// is armed, cancels the run at the next section boundary and is
    /// returned with its epoch, phase, and failed unit. Every worker
    /// thread has been joined when this returns.
    ///
    /// # Errors
    ///
    /// Returns the first worker panic or barrier-watchdog timeout; the
    /// serial schedule never errs.
    pub fn try_run(
        mut self,
        records: u64,
        warmup: u64,
    ) -> Result<(RunResult, EngineStats), EngineError> {
        let t0 = Instant::now();
        match self.schedule {
            EngineChoice::Serial => self.run_serial(records, warmup),
            EngineChoice::Parallel(eng) => self.run_epochs(&eng, records, warmup)?,
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.wall_s = t0.elapsed().as_secs_f64();
        let cores = || self.clusters.iter().flat_map(|cl| cl.cores.iter());
        stats.run_capacity = cores().map(|c| c.run.capacity()).collect();
        for c in cores() {
            stats.estimator.merge(&c.est_stats);
        }
        Ok((self.collect(), stats))
    }

    /// The epoch schedule: advances every unit through epochs on one
    /// worker pool for the whole run.
    fn run_epochs(
        &mut self,
        eng: &EngineConfig,
        records: u64,
        warmup: u64,
    ) -> Result<(), EngineError> {
        let units = Units {
            clusters: std::mem::take(&mut self.clusters).into_iter().map(Mutex::new).collect(),
            shards: std::mem::take(&mut self.shards)
                .into_iter()
                .zip(std::mem::take(&mut self.shard_bufs))
                .map(Mutex::new)
                .collect(),
            shared: RwLock::new(Broadcast {
                runs: vec![Vec::new(); self.cfg.cores],
                ..Broadcast::default()
            }),
            route: self.route,
        };
        let fail = FailState::default();
        let body = |job: &Job<Section>, i: usize, phase: &Cell<&'static str>| {
            units.run(job, i, phase, &fail);
        };
        let max_units = units.clusters.len().max(units.shards.len());
        let workers = eng.workers.min(max_units).max(1);
        contain::with_pool(workers, max_units, &fail, self.watchdog, &body, |pool| {
            let mut ep = Epochs {
                eng,
                units: &units,
                pool,
                fail: &fail,
                threshold: &mut self.threshold,
                stats: &mut self.stats,
                scratch: &mut self.scratch,
            };
            ep.advance_to(warmup)?;
            start_measurement(
                units.shards().iter_mut().map(|u| &mut u.0),
                units.clusters().iter_mut().map(|cl| &mut **cl),
                ep.stats,
            );
            ep.advance_to(warmup + records)
        })?;
        self.clusters = units.clusters.into_iter().map(|m| m.into_inner().expect("unit")).collect();
        (self.shards, self.shard_bufs) =
            units.shards.into_iter().map(|m| m.into_inner().expect("unit")).unzip();
        Ok(())
    }

    fn collect(mut self) -> RunResult {
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
        let mut conditional = ConditionalMatrix::default();
        for cl in &self.clusters {
            let (cl1, cl1i, cl2) = cl.tier.stats();
            l1.merge(&cl1);
            l1i.merge(&cl1i);
            l2.merge(&cl2);
            let (h, m) = cl.tier.helper_stats();
            helper_hits += h;
            helper_lookups += h + m;
            helper_gar_misses += cl.tier.helper_gar_misses;
            conditional.merge(&cl.cond);
        }

        let mut llc = CacheStats::default();
        let mut dram = DramStats::default();
        let mut qbs_cycles = 0u64;
        let mut gar_stats = garibaldi::GaribaldiStats::default();
        let mut profiler: Option<ReuseProfiler> = None;
        for sh in &mut self.shards {
            llc.merge(sh.cache().stats());
            dram.merge(sh.dram().stats());
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
            conditional,
            reuse,
            energy,
            qbs_cycles,
            invalidations: self.invalidations(),
        }
    }
}

/// Warmup boundary: clears statistics (contents and learned state stay)
/// and snapshots every core's clock, stack and retired count.
fn start_measurement<'a, 'p: 'a>(
    shards: impl IntoIterator<Item = &'a mut LlcShard>,
    clusters: impl IntoIterator<Item = &'a mut ClusterSim<'p>>,
    stats: &mut EngineStats,
) {
    for sh in shards {
        sh.reset_stats();
    }
    for cl in clusters {
        cl.start_measurement();
    }
    stats.inval_cmds = 0;
}

/// The color and threshold of `threshold`, frozen for the next batch of
/// drained requests.
fn snapshot(threshold: &Option<ThresholdState>) -> ThresholdSnapshot {
    ThresholdSnapshot {
        color: threshold.as_ref().map(|t| t.color()).unwrap_or(0),
        threshold: threshold.as_ref().map(|t| t.threshold()).unwrap_or(0),
    }
}

/// The epoch schedule's calling thread: advances the units through epochs
/// on the run's pool, doing the barrier's serial work between sections.
struct Epochs<'a, 'p> {
    eng: &'a EngineConfig,
    units: &'a Units<'p>,
    pool: &'a Pool<'a, Section>,
    fail: &'a FailState,
    threshold: &'a mut Option<ThresholdState>,
    stats: &'a mut EngineStats,
    scratch: &'a mut Scratch,
}

impl Epochs<'_, '_> {
    /// Runs `section` over its units on the pool.
    fn section(&self, section: Section, epoch: u64) {
        let units =
            if section.per_cluster() { self.units.clusters.len() } else { self.units.shards.len() };
        self.pool.run(Job { section, epoch, phase: section.phase(), units });
    }

    /// Surface the first contained failure, aborting the run.
    fn check(&self) -> Result<(), EngineError> {
        match self.fail.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn advance_to(&mut self, target: u64) -> Result<(), EngineError> {
        let w = self.eng.epoch_cycles as f64;
        loop {
            let min_clock = self
                .units
                .clusters
                .iter()
                .filter_map(|cl| lock(cl).min_unfinished_clock(target))
                .min_by(|a, b| a.partial_cmp(b).expect("no NaN clocks"));
            let Some(mc) = min_clock else { break };
            let epoch_end = ((mc / w).floor() + 1.0) * w;
            self.stats.epochs += 1;
            let epoch = self.stats.epochs;

            let t0 = Instant::now();
            self.section(Section::Step { epoch_end, target }, epoch);
            self.stats.step_s += t0.elapsed().as_secs_f64();
            self.check()?;
            self.barrier(epoch)?;
        }
        Ok(())
    }

    /// Resolves every buffered request: the epoch barrier. Every
    /// request-sized buffer used here is an arena reused across barriers;
    /// the only remaining per-barrier allocations are a few unit-count-sized
    /// vectors (lock guards, borrowed run lists and the merges' loser
    /// trees).
    fn barrier(&mut self, epoch: u64) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let n_shards = self.units.shards.len();
        let snap = snapshot(self.threshold);

        // Lend every core's run, lanes and empty outcome vectors to the
        // shards.
        let requests = self.units.swap_core_buffers();
        self.stats.peak_barrier_requests = self.stats.peak_barrier_requests.max(requests);

        // Phase A: parallel per-shard drain of the requests the lent lanes
        // name, in merged key order, straight into the cores' hand-over
        // vectors and the target shards' outboxes. Each shard's merge+drain
        // is timed individually (worker-independent: the clock spans
        // exactly one shard's work) to feed the imbalance account.
        let td = Instant::now();
        self.section(Section::Drain { snap }, epoch);
        let t_drain = td.elapsed();
        self.check()?;

        if self.stats.shard_drain_s.len() != n_shards {
            self.stats.shard_drain_s = vec![0.0; n_shards];
        }
        for (acc, u) in self.stats.shard_drain_s.iter_mut().zip(self.units.shards()) {
            *acc += u.1.drain_s;
        }

        // Return the runs, the emptied lanes and the filled outcome vectors
        // to the cores; deliver each command run to its target shard.
        self.units.swap_core_buffers();
        self.units.swap_cmd_runs();
        let clusters = self.units.clusters();

        // The keys of the accesses that close a color period this epoch,
        // for the tail's per-core threshold replay.
        {
            let mut shared = self.units.broadcast();
            match self.threshold.as_ref() {
                Some(t) => {
                    let lists: Vec<&[DemandReq]> = clusters
                        .iter()
                        .flat_map(|cl| cl.cores.iter().map(|c| c.demand.as_slice()))
                        .collect();
                    period_cuts(&lists, t.accesses_to_close(), t.period(), &mut shared.cuts);
                }
                None => shared.cuts.clear(),
            }
        }
        drop(clusters);

        // Phase B′: cross-shard commands, merged and applied per target;
        // the emptied runs go back to their sources.
        self.section(Section::ApplyCmds { snap }, epoch);
        self.check()?;
        self.units.swap_cmd_runs();

        // Coherence invalidations flow back to the private tiers (also
        // per-shard sorted runs; at most one invalidation per request, so
        // keys are unique and the merge is exactly the old sorted order).
        let ta = Instant::now();
        {
            let shards = self.units.shards();
            let mut shared = self.units.broadcast();
            let inval_runs: Vec<&[(ReqKey, InvalCmd)]> =
                shards.iter().map(|u| u.1.invals.as_slice()).collect();
            let order = &mut self.scratch.order;
            kway_merge_order(&inval_runs, |_, (k, _): &(ReqKey, InvalCmd)| k.packed(), order);
            shared.invals.clear();
            shared.invals.extend(order.iter().map(|&p| *merge::at(&inval_runs, p)));
            self.stats.inval_cmds +=
                shared.invals.iter().map(|(_, c)| c.others.count_ones() as u64).sum::<u64>();
        }

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
        let mut t_sync = Duration::ZERO;
        if epoch % self.eng.sync_every.max(1) as u64 == 0 {
            let tm = Instant::now();
            let shards = self.units.shards();
            let exports = &mut self.scratch.learned_exports;
            for (u, buf) in shards.iter().zip(exports.iter_mut()) {
                u.0.export_policy_learned_into(buf);
            }
            if exports.iter().any(|e| !e.is_empty()) {
                let mut shared = self.units.broadcast();
                let fail = self.fail;
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault::engine_hook(fault::Site::Merge, epoch, 0, fail.cancel_flag());
                    shards[0].0.merge_policy_learned(exports, &mut shared.learned);
                }));
                if let Err(p) = res {
                    fail.record(EngineError {
                        epoch,
                        shard: None,
                        phase: "merge",
                        payload: payload_str(p),
                    });
                }
                drop((shards, shared));
                self.check()?;
                self.section(Section::Install, epoch);
                self.stats.learned_syncs += 1;
                self.check()?;
            }
            t_sync = tm.elapsed();
        }

        // The per-cluster tail: invalidations, the threshold and
        // conditional-matrix replay against this epoch's cuts, latency
        // corrections and the epoch reset.
        self.section(Section::Tail, epoch);
        let t_apply = ta.elapsed() - t_sync;
        self.check()?;

        // Close the periods the cuts ended, from every core's shares.
        if let Some(t) = self.threshold.as_mut() {
            let n_cuts = self.units.read().cuts.len();
            let clusters = self.units.clusters();
            let shares =
                clusters.iter().flat_map(|cl| cl.cores.iter().map(|c| c.shares.as_slice()));
            close_periods(t, n_cuts, shares, &mut self.scratch.sums);
        }

        let total = t0.elapsed();
        self.stats.drain_s += t_drain.as_secs_f64();
        self.stats.merge_s += t_sync.as_secs_f64();
        self.stats.apply_s += t_apply.as_secs_f64();
        self.stats.serial_s += (total - t_drain - t_apply - t_sync).as_secs_f64();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{EngineChoice, EngineConfig, LlcScheme};
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

    fn parallel(eng: EngineConfig) -> EngineChoice {
        EngineChoice::Parallel(eng)
    }

    #[test]
    fn parallel_run_produces_plausible_results() {
        let r = runner(LlcScheme::plain(PolicyKind::Lru)).run_on(
            2_000,
            500,
            &parallel(EngineConfig::default()),
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
        let r = runner(LlcScheme::mockingjay_garibaldi()).run_on(
            2_000,
            500,
            &parallel(EngineConfig::default()),
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
        let a = runner(LlcScheme::plain(PolicyKind::Lru)).run_on(
            1_000,
            200,
            &parallel(EngineConfig { llc_shards: 2, ..EngineConfig::default() }),
        );
        let b = runner(LlcScheme::plain(PolicyKind::Lru)).run_on(
            1_000,
            200,
            &parallel(EngineConfig { llc_shards: 5, ..EngineConfig::default() }),
        );
        // …but each is individually reproducible.
        let a2 = runner(LlcScheme::plain(PolicyKind::Lru)).run_on(
            1_000,
            200,
            &parallel(EngineConfig { llc_shards: 2, ..EngineConfig::default() }),
        );
        assert_eq!(a, a2);
        let _ = b;
    }

    #[test]
    fn replayed_streams_reproduce_the_generated_run() {
        let r = runner(LlcScheme::plain(PolicyKind::Mockingjay));
        let replaying = r.clone().with_streams(r.generate_streams(1_200));
        for choice in [EngineChoice::Serial, parallel(EngineConfig::default())] {
            let live = r.run_on(1_000, 200, &choice);
            let replayed = replaying.run_on(1_000, 200, &choice);
            assert_eq!(live, replayed, "dump/replay must be invisible to the result ({choice:?})");
        }
    }

    #[test]
    fn shard_range_math_is_total_and_contiguous() {
        use super::private::Route;
        use super::shard::{shard_of_set, shard_range};
        use garibaldi_types::LineAddr;
        for (sets, shards) in
            [(341, 8), (64, 8), (7, 3), (100, 1), (8, 8), (40_960, 8), (40_960, 7)]
        {
            let route = Route::new(sets, shards, false);
            let mut covered = 0;
            for s in 0..shards {
                let (base, len) = shard_range(sets, shards, s);
                assert_eq!(base, covered, "contiguous");
                covered += len;
                for set in base..base + len {
                    assert_eq!(shard_of_set(sets, shards, set), s, "{sets}/{shards}/{set}");
                    for lap in [0, 1, 12_345] {
                        let line = LineAddr::new((lap * sets + set) as u64);
                        assert_eq!(route.shard_of(line), s, "route {sets}/{shards}/{set}");
                    }
                }
            }
            assert_eq!(covered, sets, "total");
        }
    }
}
