//! Per-worker private tier: one L2 cluster, its cores, and their state.
//!
//! A [`ClusterSim`] is the unit of parallel stepping: it owns everything
//! its cores touch synchronously — L1I/L1D slices, the shared cluster L2,
//! the L1D/L2 hardware prefetchers, the cores' Garibaldi helper tables,
//! trace walks, clocks and CPI stacks. Cores of one cluster advance under
//! min-clock scheduling *within the cluster* (they share the L2), so the
//! simulated interleaving is a pure function of the cluster's state and
//! never of which worker thread runs it. Anything shared beyond the
//! cluster is deferred as an [`LlcRequest`] and resolved at the epoch
//! barrier (on the serial schedule, right after its record); the latency
//! gap between the issue-time estimate (produced by the core's [`Ewma`]
//! estimator, see [`super::estimate`]) and the drained outcome is charged
//! back through [`ClusterSim::apply_corrections`], which also feeds the
//! outcomes back into the estimator's learned state.

use super::estimate::{
    correct_record, EstimatorStats, Ewma, PendingRecord, PendingRef, StreamClass,
};
use super::replay::{replay_core, DemandKind, DemandReq};
use super::request::{InvalCmd, LlcRequest, ReqKey, ReqKind, ReqOutcome};
use crate::config::{EngineChoice, SystemConfig, BASE_CPI, BRANCH_PENALTY, L1_LATENCY, L2_LATENCY};
use crate::core_model::{combine_data_stalls, CpiStack, InstrPrefetchEngine};
use crate::metrics::{ConditionalMatrix, CoreResult};
use garibaldi::{HelperTable, PeriodCounts, ThreadPmu};
use garibaldi_cache::{
    AccessCtx, AccessOutcome, CacheConfig, CacheStats, Fill, FillProbe, GhbPrefetcher,
    InsertOutcome, NextLinePrefetcher, PolicyKind, Prefetcher, SetAssocCache,
};
use garibaldi_trace::{SharedAddressSpace, TraceGenerator, TraceRecord, MAX_DATA_REFS};
use garibaldi_types::fastdiv::FastDiv;
use garibaldi_types::{CoreId, Fields, LineAddr, VirtAddr};

/// Requests a core may buffer between two barriers on the epoch schedule.
/// [`ClusterSim::step_epoch`] stops stepping a core once it has issued this
/// many since its last correction; the core finishes its window in the
/// next epoch, whose horizon `advance_to` recomputes from the smallest
/// unfinished clock. Until the first barrier every core charges the cold
/// LLC-hit estimate, so without the budget a core could buffer thousands of
/// requests in one epoch; with it a barrier holds at most
/// `cores × (EPOCH_REQUEST_BUDGET + RECORD_REQUEST_CEILING)` requests, which
/// bounds every lane, outcome, outbox and merge-order buffer. The rule is a
/// function of the simulated state only, so it keeps worker-count
/// invariance. The serial schedule never buffers across records and
/// ignores it.
pub const EPOCH_REQUEST_BUDGET: u32 = 1024;

/// Most requests a core's run holds on the epoch schedule: the record that
/// reaches [`EPOCH_REQUEST_BUDGET`] adds at most [`RECORD_REQUEST_CEILING`].
/// Each run is allocated once at this size and never regrows.
pub const EPOCH_RUN_BOUND: u32 = EPOCH_REQUEST_BUDGET + RECORD_REQUEST_CEILING;

// A lane names the requests of a run by their `u16` seqs.
const _: () = assert!(EPOCH_RUN_BOUND <= u16::MAX as u32 + 1, "run seqs must fit in u16");

/// Prefetch degree of each core's L1D next-line prefetcher.
const L1D_PF_DEGREE: u32 = 2;

/// Prefetch degree of each cluster's L2 GHB prefetcher.
const L2_PF_DEGREE: u32 = 2;

/// Most LLC requests one record can issue, counted over
/// `ClusterSim::step_core`'s emit sites:
/// - the instruction fetch: the demand request (or the L2-hit directory
///   update) plus the dirty writeback of the L2 line its fill displaces;
/// - each frontend prefetch candidate: its request plus that writeback;
/// - each data reference: one probe per L1D and per L2 prefetch
///   candidate, then the demand request (or a directory update) plus the
///   writeback.
pub const RECORD_REQUEST_CEILING: u32 = {
    let ifetch = 2;
    let frontend = 2 * InstrPrefetchEngine::MAX_CANDIDATES as u32;
    let data = L1D_PF_DEGREE + L2_PF_DEGREE + 2;
    ifetch + frontend + MAX_DATA_REFS as u32 * data
};

/// Where a core's records come from: a live synthetic walk or a replayed
/// dump (`garibaldi-cli --replay`). Replay streams wrap around when the
/// run is longer than the dump.
pub enum RecordSource<'p> {
    /// Seeded synthetic trace walk.
    Gen(TraceGenerator<'p>),
    /// Pre-recorded stream.
    Replay {
        /// The recorded records (non-empty).
        records: &'p [TraceRecord],
        /// Read cursor.
        pos: usize,
    },
}

impl RecordSource<'_> {
    /// Produces the next record (never ends; replay streams wrap).
    pub fn next_record(&mut self) -> TraceRecord {
        match self {
            RecordSource::Gen(g) => g.next_record(),
            RecordSource::Replay { records, pos } => {
                let r = records[*pos % records.len()];
                *pos += 1;
                r
            }
        }
    }
}

/// Where a core files what it issues: the LLC shard of each request, and
/// whether an instruction fetch feeds the threshold replay. Fixed per run.
///
/// Every request is routed when issued, so the shard split of
/// [`super::shard::shard_of_set`] is taken apart into multiplications: the set of a line
/// and the shard of a set divide by run constants.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    sets: FastDiv,
    shards: usize,
    /// The first `rem` shards own one set more than the rest; `boundary`
    /// is the first set past them.
    rem: u64,
    boundary: u64,
    long: FastDiv,
    short: FastDiv,
    /// The I-oracle bypasses the Garibaldi module, so its instruction
    /// fetches stay out of the threshold replay.
    pub i_oracle: bool,
}

impl Route {
    /// Routes over `shards` even contiguous splits of `llc_sets` sets
    /// (`1 ≤ shards ≤ llc_sets`).
    pub fn new(llc_sets: usize, shards: usize, i_oracle: bool) -> Self {
        assert!((1..=llc_sets).contains(&shards), "1 ≤ shards ≤ sets");
        let (per, rem) = ((llc_sets / shards) as u64, (llc_sets % shards) as u64);
        Self {
            sets: FastDiv::new(llc_sets as u64),
            shards,
            rem,
            boundary: rem * (per + 1),
            long: FastDiv::new(per + 1),
            short: FastDiv::new(per),
            i_oracle,
        }
    }

    /// LLC shards (one lane per shard).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `line`'s set: [`super::shard::shard_of_set`] of
    /// `line % sets`.
    #[inline]
    pub fn shard_of(&self, line: LineAddr) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let set = self.sets.remainder(line.get());
        let shard = if set < self.boundary {
            self.long.quotient(set)
        } else {
            self.rem + self.short.quotient(set - self.boundary)
        };
        shard as usize
    }
}

/// One simulated core inside a [`ClusterSim`].
pub struct EpochCore<'p> {
    id: CoreId,
    src: RecordSource<'p>,
    asp: SharedAddressSpace,
    ipf: InstrPrefetchEngine,
    ipf_out: Vec<VirtAddr>,
    /// Local clock in cycles (estimate-corrected at each barrier).
    pub clock: f64,
    stack: CpiStack,
    instrs: u64,
    records: u64,
    snap_clock: f64,
    snap_stack: CpiStack,
    snap_instrs: u64,
    route: Route,
    /// Requests buffered since the last correction, in issue order: the
    /// request at index `i` has seq `i`. Allocated once at the schedule's
    /// bound ([`EPOCH_RUN_BOUND`] on the epoch schedule,
    /// [`RECORD_REQUEST_CEILING`] on the serial one) and never regrown.
    pub(crate) run: Vec<LlcRequest>,
    /// On the epoch schedule, the seqs of the run's requests for each LLC
    /// shard, filed when issued (each lane is key-sorted by construction:
    /// clocks are non-decreasing and seq increases). None on the serial
    /// schedule, whose one shard drains the run itself.
    pub(crate) lanes: Vec<Vec<u16>>,
    /// This epoch's demand accesses in issue order, for the threshold and
    /// conditional-matrix replay ([`super::replay`]).
    pub demand: Vec<DemandReq>,
    /// Drain outcomes scattered back by the barrier, indexed by seq.
    /// Allocated once at the run's bound, like `run`, and never regrown.
    pub outcomes: Vec<ReqOutcome>,
    /// The epoch schedule's drained `(seq, outcome)`s, one vector per LLC
    /// shard, handed over after the drain.
    pub drained: Vec<Vec<(u32, ReqOutcome)>>,
    /// The core's PMU ring, when a threshold unit is configured.
    pub(crate) pmu: Option<ThreadPmu>,
    /// The core's share of each color period its last replay spanned.
    pub(crate) shares: Vec<PeriodCounts>,
    pending: Vec<PendingRecord>,
    /// Issue-latency estimator (frozen within an epoch, learns at
    /// barriers — see [`super::estimate`]).
    est: Ewma,
    /// Estimate-vs-outcome error account over the measured region.
    pub est_stats: EstimatorStats,
}

impl<'p> EpochCore<'p> {
    /// Records processed so far (including warmup).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Global core id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Whether the core buffered any request since the last correction.
    pub fn has_requests(&self) -> bool {
        !self.run.is_empty()
    }

    /// Marks the measurement start (end of warmup). The estimator's
    /// learned state is kept (it is model state, like cache contents);
    /// only the error account restarts.
    pub fn snapshot(&mut self) {
        self.snap_clock = self.clock;
        self.snap_stack = self.stack;
        self.snap_instrs = self.instrs;
        self.est_stats = EstimatorStats::default();
    }

    /// Per-core result over the measured region.
    pub fn result(&self, workload: String) -> CoreResult {
        let instrs = self.instrs - self.snap_instrs;
        let cycles = self.clock - self.snap_clock;
        CoreResult {
            workload,
            instrs,
            cycles,
            ipc: if cycles <= 0.0 { 0.0 } else { instrs as f64 / cycles },
            stack: self.stack.sub(&self.snap_stack),
        }
    }

    /// Sizes the outcome table for this epoch's requests (barrier scatter).
    pub fn prepare_outcomes(&mut self) {
        self.outcomes.clear();
        self.outcomes.resize(self.run.len(), ReqOutcome::default());
    }

    /// Scatters the outcomes the shards handed over into the outcome table,
    /// emptying the hand-over vectors.
    pub fn take_drained(&mut self) {
        self.prepare_outcomes();
        for lane in self.drained.iter_mut() {
            for &(seq, o) in lane.iter() {
                self.outcomes[seq as usize] = o;
            }
            lane.clear();
        }
    }

    #[inline(always)]
    fn emit(&mut self, line: LineAddr, pc: VirtAddr, sig: u64, cluster: u16, kind: ReqKind) -> u32 {
        debug_assert!(self.run.len() < self.run.capacity(), "a core's run never regrows");
        let seq = self.run.len() as u32;
        let key = ReqKey { now: self.clock as u64, core: self.id.get(), seq };
        let demand = match kind {
            ReqKind::Instr { demand: true } if !self.route.i_oracle => Some(DemandKind::Instr),
            ReqKind::Data { ifetch_seq, .. } => Some(DemandKind::Data { ifetch_seq }),
            _ => None,
        };
        if let Some(kind) = demand {
            self.demand.push(DemandReq { key, pc, kind });
        }
        if let Some(lane) = self.lanes.get_mut(self.route.shard_of(line)) {
            lane.push(seq as u16);
        }
        self.run.push(LlcRequest { key, line, pc, sig, cluster, kind });
        seq
    }
}

/// PC signature of replacement-policy context, mixing in the core id so
/// distinct address spaces never alias in PC-indexed predictors.
#[inline]
fn sig(core: CoreId, pc: VirtAddr) -> u64 {
    (pc.get() & !63).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (core.get() as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
}

/// Result of a private-tier access: resolved with a final latency, or
/// LLC-bound with the issue-time estimate and the buffered request's seq.
enum TierRes {
    Done(u64),
    Pending { est: u64, seq: u32 },
}

impl TierRes {
    fn est_latency(&self) -> u64 {
        match *self {
            TierRes::Done(l) => l,
            TierRes::Pending { est, .. } => est,
        }
    }
}

/// The cluster-private cache tier.
pub struct ClusterTier {
    cluster: u16,
    core_base: usize,
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: SetAssocCache,
    l1d_pf: Vec<NextLinePrefetcher>,
    l2_pf: GhbPrefetcher,
    helpers: Option<Vec<HelperTable>>,
    /// Data LLC accesses whose PC had no helper mapping (merged into the
    /// module's `helper_misses`).
    pub helper_gar_misses: u64,
    pf_buf: Vec<LineAddr>,
}

impl ClusterTier {
    /// Aggregated stats of this cluster's private caches.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        let mut l1 = CacheStats::default();
        let mut l1i = CacheStats::default();
        for c in &self.l1i {
            l1.merge(c.stats());
            l1i.merge(c.stats());
        }
        for c in &self.l1d {
            l1.merge(c.stats());
        }
        (l1, l1i, *self.l2.stats())
    }

    /// Helper-table hit/miss totals across the cluster's cores.
    pub fn helper_stats(&self) -> (u64, u64) {
        let (mut h, mut m) = (0u64, 0u64);
        if let Some(hs) = &self.helpers {
            for t in hs {
                let (th, tm) = t.stats();
                h += th;
                m += tm;
            }
        }
        (h, m)
    }

    /// Clears private-cache statistics (warmup boundary); contents stay.
    pub fn reset_stats(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            *c.stats_mut() = Default::default();
        }
        *self.l2.stats_mut() = Default::default();
        self.helper_gar_misses = 0;
    }
}

/// One cluster's cores plus their private tier: the unit of parallelism.
pub struct ClusterSim<'p> {
    /// Private caches and predictors.
    pub tier: ClusterTier,
    /// The cluster's cores (global ids `core_base ..`).
    pub cores: Vec<EpochCore<'p>>,
    /// The cluster's share of the Fig 4c conditional matrix.
    pub cond: ConditionalMatrix,
    /// Private L2 copies dropped by remote write upgrades.
    pub invalidations: u64,
    cfg: SystemConfig,
}

impl<'p> ClusterSim<'p> {
    /// Builds cluster `cluster` for `schedule` with one `(source, space)`
    /// pair per core, each issuing through a fresh [`Ewma`] latency
    /// estimator into a run sized for the schedule, and (on the epoch
    /// schedule) filing its LLC requests into lanes by `route`.
    pub fn new(
        cfg: &SystemConfig,
        route: Route,
        schedule: &EngineChoice,
        cluster: usize,
        core_base: usize,
        cores: Vec<(RecordSource<'p>, SharedAddressSpace)>,
    ) -> Self {
        let n = cores.len();
        let (run_bound, lanes) = match schedule {
            EngineChoice::Serial => (RECORD_REQUEST_CEILING, 0),
            EngineChoice::Parallel(_) => (EPOCH_RUN_BOUND, route.shards()),
        };
        let tier = ClusterTier {
            cluster: cluster as u16,
            core_base,
            l1i: (0..n)
                .map(|i| {
                    SetAssocCache::new(
                        CacheConfig::from_capacity(
                            format!("l1i{}", core_base + i),
                            cfg.l1i_bytes,
                            cfg.l1_ways,
                        ),
                        PolicyKind::Lru,
                    )
                })
                .collect(),
            l1d: (0..n)
                .map(|i| {
                    SetAssocCache::new(
                        CacheConfig::from_capacity(
                            format!("l1d{}", core_base + i),
                            cfg.l1d_bytes,
                            cfg.l1_ways,
                        ),
                        PolicyKind::Lru,
                    )
                })
                .collect(),
            l2: SetAssocCache::new(
                CacheConfig::from_capacity(format!("l2c{cluster}"), cfg.l2_bytes, cfg.l2_ways),
                PolicyKind::Lru,
            ),
            l1d_pf: (0..n)
                .map(|_| NextLinePrefetcher::new(L1D_PF_DEGREE).trigger_on_hits())
                .collect(),
            l2_pf: GhbPrefetcher::new(L2_PF_DEGREE),
            helpers: cfg.scheme.garibaldi.is_some().then(|| vec![HelperTable::default(); n]),
            helper_gar_misses: 0,
            pf_buf: Vec::with_capacity(8),
        };
        let cores = cores
            .into_iter()
            .enumerate()
            .map(|(i, (src, asp))| EpochCore {
                id: CoreId::new((core_base + i) as u16),
                src,
                asp,
                ipf: InstrPrefetchEngine::default(),
                ipf_out: Vec::with_capacity(8),
                clock: 0.0,
                stack: CpiStack::default(),
                instrs: 0,
                records: 0,
                snap_clock: 0.0,
                snap_stack: CpiStack::default(),
                snap_instrs: 0,
                route,
                run: Vec::with_capacity(run_bound as usize),
                lanes: vec![Vec::new(); lanes],
                demand: Vec::new(),
                outcomes: Vec::with_capacity(run_bound as usize),
                drained: vec![Vec::new(); route.shards()],
                pmu: cfg.scheme.garibaldi.is_some().then(ThreadPmu::default),
                shares: Vec::new(),
                pending: Vec::new(),
                est: Ewma::default(),
                est_stats: EstimatorStats::default(),
            })
            .collect();
        Self { tier, cores, cond: ConditionalMatrix::default(), invalidations: 0, cfg: cfg.clone() }
    }

    /// Marks the measurement start: clears the tier's and the cluster's
    /// statistics (contents stay) and snapshots every core.
    pub fn start_measurement(&mut self) {
        self.tier.reset_stats();
        for c in self.cores.iter_mut() {
            c.snapshot();
        }
        self.cond = ConditionalMatrix::default();
        self.invalidations = 0;
    }

    /// Smallest clock among cores still short of `target` records.
    pub fn min_unfinished_clock(&self, target: u64) -> Option<f64> {
        self.cores
            .iter()
            .filter(|c| c.records < target)
            .map(|c| c.clock)
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN clocks"))
    }

    /// Advances the cluster's cores under min-clock scheduling until every
    /// core has reached `target` records, the epoch horizon or its
    /// [`EPOCH_REQUEST_BUDGET`].
    pub fn step_epoch(&mut self, epoch_end: f64, target: u64) {
        loop {
            let mut best: Option<usize> = None;
            let mut best_clock = f64::INFINITY;
            for (i, c) in self.cores.iter().enumerate() {
                let eligible = c.records < target
                    && c.clock < epoch_end
                    && c.run.len() < EPOCH_REQUEST_BUDGET as usize;
                if eligible && c.clock < best_clock {
                    best_clock = c.clock;
                    best = Some(i);
                }
            }
            match best {
                Some(i) => self.step_core(i),
                None => break,
            }
        }
    }

    /// Executes one trace record for the cluster's core `i`, resolving
    /// private-tier traffic immediately and buffering LLC-bound work.
    pub(crate) fn step_core(&mut self, i: usize) {
        let cfg = &self.cfg;
        let tier = &mut self.tier;
        let c = &mut self.cores[i];
        let issued = c.run.len();
        let rec = c.src.next_record();
        let il_pa = c.asp.translate_line(rec.pc);
        let sig = sig(c.id, rec.pc);

        // Frontend: fetch the instruction line through the private tier.
        let i_res = instr_access(tier, c, cfg, sig, il_pa, rec.pc);
        let est_lat = i_res.est_latency();
        let est_ifetch_stall = est_lat.saturating_sub(L1_LATENCY) as f64;
        let ifetch_seq = match i_res {
            TierRes::Pending { seq, .. } => Some(seq),
            TierRes::Done(_) => None,
        };

        // Frontend prefetch engine reacts to L1I misses. Candidate lines are
        // translated up front and their tag rows hinted to the host CPU so
        // the row misses overlap instead of serializing per candidate.
        if cfg.l1i_prefetcher && est_lat > L1_LATENCY {
            let mut out = std::mem::take(&mut c.ipf_out);
            c.ipf.on_miss(rec.pc, &mut out);
            let mut pas = [LineAddr::new(0); InstrPrefetchEngine::MAX_CANDIDATES];
            let npf = out.len().min(pas.len());
            for (slot, &va) in pas.iter_mut().zip(out.iter()) {
                *slot = c.asp.translate_line(va);
            }
            for pa in &pas[..npf] {
                tier.l1i[i].prefetch_row(*pa);
                tier.l2.prefetch_row(*pa);
            }
            for (k, &va) in out.iter().enumerate() {
                let pa = if k < npf { pas[k] } else { c.asp.translate_line(va) };
                prefetch_instr(tier, c, cfg, va, pa);
            }
            c.ipf_out = out;
        }

        // Backend: data references. Same trick: translate the record's refs
        // together and hint their L1D/L2 rows before resolving the first.
        let mut d_pas = [LineAddr::new(0); MAX_DATA_REFS];
        let nrefs = rec.data_refs().len();
        for (slot, d) in d_pas.iter_mut().zip(rec.data_refs()) {
            *slot = c.asp.translate_line(d.va);
        }
        for pa in &d_pas[..nrefs] {
            tier.l1d[i].prefetch_row(*pa);
            tier.l2.prefetch_row(*pa);
        }
        let mut refs = [PendingRef { lat: 0, seq: None }; MAX_DATA_REFS];
        let mut n = 0;
        for (d, &d_pa) in rec.data_refs().iter().zip(d_pas.iter()) {
            let res = data_access(tier, c, cfg, sig, d_pa, rec.pc, d.rw.is_write(), ifetch_seq);
            refs[n] = match res {
                TierRes::Done(lat) => PendingRef { lat, seq: None },
                TierRes::Pending { est, seq } => PendingRef { lat: est, seq: Some(seq) },
            };
            n += 1;
        }
        let mut stalls = [0.0f64; MAX_DATA_REFS];
        for (s, r) in stalls.iter_mut().zip(refs.iter()).take(n) {
            *s = r.lat.saturating_sub(L1_LATENCY) as f64;
        }
        let est_data_stall = combine_data_stalls(&mut stalls[..n]);

        let base = rec.instrs as f64 * BASE_CPI;
        let branch = if rec.mispredict { BRANCH_PENALTY as f64 } else { 0.0 };
        c.clock += base + est_ifetch_stall + est_data_stall + branch;
        c.stack.base += base;
        c.stack.ifetch += est_ifetch_stall;
        c.stack.data += est_data_stall;
        c.stack.branch += branch;
        c.instrs += rec.instrs as u64;
        c.records += 1;
        debug_assert!(
            c.run.len() - issued <= RECORD_REQUEST_CEILING as usize,
            "one record issued {} LLC requests",
            c.run.len() - issued
        );

        if ifetch_seq.is_some() || refs[..n].iter().any(|r| r.seq.is_some()) {
            c.pending.push(PendingRecord {
                ifetch: PendingRef { lat: est_lat, seq: ifetch_seq },
                refs,
                n,
                est_ifetch_stall,
                est_data_stall,
            });
        }
    }

    /// Applies the coherence invalidations this cluster is named in
    /// (already key-sorted), counting the L2 copies dropped.
    pub fn apply_invals(&mut self, invals: &[(ReqKey, InvalCmd)]) {
        let bit = 1u64 << self.tier.cluster;
        let named = || invals.iter().map(|(_, cmd)| cmd).filter(move |cmd| cmd.others & bit != 0);
        // Another cluster wrote these lines, so their rows here are cold:
        // hint every row first so the L2 and L1 scans of each line overlap
        // their misses instead of each waiting for its own.
        for cmd in named() {
            self.tier.l2.prefetch_row(cmd.line);
            for l1 in self.tier.l1d.iter().chain(&self.tier.l1i) {
                l1.prefetch_row(cmd.line);
            }
        }
        for cmd in named() {
            if self.tier.l2.invalidate(cmd.line).is_some() {
                self.invalidations += 1;
            }
            for l1d in self.tier.l1d.iter_mut() {
                l1d.invalidate(cmd.line);
            }
            for l1i in self.tier.l1i.iter_mut() {
                l1i.invalidate(cmd.line);
            }
        }
    }

    /// Replays every core's drained demand outcomes into its PMU ring, its
    /// period shares and the cluster's conditional matrix, against the
    /// period `cuts` ([`replay_core`]).
    pub fn replay(&mut self, cuts: &[ReqKey]) {
        for c in self.cores.iter_mut() {
            replay_core(
                &c.demand,
                &c.outcomes,
                cuts,
                c.pmu.as_mut(),
                &mut c.shares,
                &mut self.cond,
            );
        }
    }

    /// Replaces issue-time latency estimates with drained outcomes
    /// ([`correct_record`]) — feeding each outcome back into the core's
    /// estimator, in sequence order — then clears the epoch's request
    /// state. Runs per cluster, each core touching only its own state, so
    /// estimator evolution is worker-count invariant.
    pub fn apply_corrections(&mut self) {
        for c in self.cores.iter_mut() {
            for p in c.pending.drain(..) {
                let (d_if, d_data) = correct_record(&p, &c.outcomes, &mut c.est, &mut c.est_stats);
                c.clock += d_if + d_data;
                c.stack.ifetch += d_if;
                c.stack.data += d_data;
            }
            c.run.clear();
            for lane in c.lanes.iter_mut() {
                lane.clear();
            }
            c.demand.clear();
            c.outcomes.clear();
        }
    }
}

/// Instruction fetch through the private tier, down to the LLC boundary.
fn instr_access(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    cfg: &SystemConfig,
    sig: u64,
    line: LineAddr,
    pc: VirtAddr,
) -> TierRes {
    let ctx = AccessCtx::instr(line, sig);
    let li = c.id.index() - tier.core_base;
    // The L1I miss probe stays valid down both fill paths below: nothing
    // in between fills this L1I (the frontend prefetch engine runs after
    // this function returns).
    let l1i = &mut tier.l1i[li];
    let l1i_probe = match l1i.access_at(l1i.set_of(line), &ctx, false) {
        AccessOutcome::Hit(_) => return TierRes::Done(L1_LATENCY),
        AccessOutcome::Miss(p) => p,
    };
    let probe = match tier.l2.access_at(tier.l2.set_of(line), &ctx, false) {
        AccessOutcome::Hit(_) => {
            fill(&mut tier.l1i[li], l1i_probe, &ctx, false);
            c.emit(line, pc, sig, tier.cluster, ReqKind::DirUpdate { record: true, write: false });
            return TierRes::Done(L1_LATENCY + L2_LATENCY);
        }
        // Nothing below touches the L2 before the fill redeems the probe.
        AccessOutcome::Miss(p) => p,
    };
    // LLC-bound: teach the helper table, buffer the access, fill
    // optimistically (the line is resident after the miss resolves whether
    // it hit the LLC or DRAM).
    if !cfg.i_oracle {
        if let Some(h) = tier.helpers.as_mut() {
            h[li].insert(pc.vpn(), line.ppn());
        }
    }
    let seq = c.emit(line, pc, sig, tier.cluster, ReqKind::Instr { demand: true });
    fill_l2(tier, c, Some(probe), &ctx);
    fill(&mut tier.l1i[li], l1i_probe, &ctx, false);
    TierRes::Pending { est: c.est.issue_estimate(StreamClass::Ifetch), seq }
}

/// Demand data access through the private tier, down to the LLC boundary.
#[allow(clippy::too_many_arguments)] // mirrors the access path's natural arity
fn data_access(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    cfg: &SystemConfig,
    sig: u64,
    line: LineAddr,
    pc: VirtAddr,
    is_write: bool,
    ifetch_seq: Option<u32>,
) -> TierRes {
    let ctx = AccessCtx::data(line, sig);
    let li = c.id.index() - tier.core_base;
    let l1d = &mut tier.l1d[li];
    let mut l1d_probe = match l1d.access_at(l1d.set_of(line), &ctx, is_write) {
        AccessOutcome::Hit(_) => {
            if is_write {
                // MESI upgrade: remote copies must go even on a private hit.
                c.emit(
                    line,
                    pc,
                    sig,
                    tier.cluster,
                    ReqKind::DirUpdate { record: false, write: true },
                );
            }
            return TierRes::Done(L1_LATENCY);
        }
        AccessOutcome::Miss(p) => Some(p),
    };
    if cfg.l1d_prefetcher {
        let mut buf = std::mem::take(&mut tier.pf_buf);
        buf.clear();
        tier.l1d_pf[li].on_access(line, sig, false, &mut buf);
        for cand in buf.drain(..).filter(|&l| cfg.maps_line(l)) {
            // A prefetch fill landing in the demand line's L1D set
            // invalidates the probe's free-way finding.
            if prefetch_fill_l1d(tier, c, cand, pc) == l1d_probe.map(|p| p.set()) {
                l1d_probe = None;
            }
        }
        tier.pf_buf = buf;
    }
    let mut probe = match tier.l2.access_at(tier.l2.set_of(line), &ctx, false) {
        AccessOutcome::Hit(_) => {
            fill_l1d(&mut tier.l1d[li], l1d_probe, &ctx, is_write);
            c.emit(
                line,
                pc,
                sig,
                tier.cluster,
                ReqKind::DirUpdate { record: true, write: is_write },
            );
            return TierRes::Done(L1_LATENCY + L2_LATENCY);
        }
        AccessOutcome::Miss(p) => Some(p),
    };
    if cfg.l2_prefetcher {
        let mut buf = std::mem::take(&mut tier.pf_buf);
        buf.clear();
        tier.l2_pf.on_access(line, sig, false, &mut buf);
        for cand in buf.drain(..).filter(|&l| cfg.maps_line(l)) {
            // A prefetch fill landing in the demand line's set invalidates
            // the probe's free-way finding; fall back to a fresh scan then.
            if prefetch_fill_l2(tier, c, cand, pc) == probe.map(|p| p.set()) {
                probe = None;
            }
        }
        tier.pf_buf = buf;
    }
    // LLC-bound: deduce the triggering instruction line now (the helper
    // table is core-private state), resolve its outcome at the barrier.
    let il_hint = tier.helpers.as_mut().and_then(|h| {
        let il = h[li].instr_line(pc);
        if il.is_none() {
            tier.helper_gar_misses += 1;
        }
        il
    });
    let seq = c.emit(line, pc, sig, tier.cluster, ReqKind::Data { is_write, il_hint, ifetch_seq });
    fill_l2(tier, c, probe, &ctx);
    fill_l1d(&mut tier.l1d[li], l1d_probe, &ctx, is_write);
    TierRes::Pending { est: c.est.issue_estimate(StreamClass::Data), seq }
}

/// Fill of `ctx.line` into one private cache, redeeming a fresh `probe`
/// (the private tiers run no guard and no partitioning).
#[inline]
fn fill(
    cache: &mut SetAssocCache,
    probe: FillProbe,
    ctx: &AccessCtx,
    dirty: bool,
) -> InsertOutcome {
    cache.fill(probe, ctx.line, ctx, dirty, Fill::PLAIN, |_| false)
}

/// L1D demand fill after a miss: redeems the miss scan's probe when it is
/// still fresh, re-probing when an intervening prefetch fill landed in
/// the same set.
#[inline]
fn fill_l1d(l1d: &mut SetAssocCache, probe: Option<FillProbe>, ctx: &AccessCtx, is_write: bool) {
    let probe = probe.unwrap_or_else(|| l1d.probe_fill(ctx.line));
    fill(l1d, probe, ctx, is_write);
}

/// Frontend instruction prefetch (the I-SPY/FDIP stand-in).
fn prefetch_instr(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    cfg: &SystemConfig,
    pc: VirtAddr,
    line: LineAddr,
) {
    let li = c.id.index() - tier.core_base;
    // One scan resolves both the residency early-out and (if absent) the
    // L1I fill below; nothing in between fills this L1I, so the probe
    // stays valid at redemption.
    let l1i_probe = tier.l1i[li].probe_fill(line);
    if l1i_probe.resident() {
        return;
    }
    let sig = sig(c.id, pc);
    let ctx = AccessCtx { line, pc_sig: sig, is_instr: true, is_prefetch: true };
    let l2_probe = tier.l2.probe_fill(line);
    if l2_probe.resident() {
        fill(&mut tier.l1i[li], l1i_probe, &ctx, false);
        return;
    }
    if !cfg.i_oracle {
        if let Some(h) = tier.helpers.as_mut() {
            h[li].insert(pc.vpn(), line.ppn());
        }
    }
    c.emit(line, pc, sig, tier.cluster, ReqKind::Instr { demand: false });
    fill_l2(tier, c, Some(l2_probe), &ctx);
    fill(&mut tier.l1i[li], l1i_probe, &ctx, false);
}

/// L1D next-line prefetch fill; bandwidth for LLC-missing lines is charged
/// through a deferred probe. Returns the L1D set a frame was actually
/// filled into, for probe-staleness checks in the caller (`None` if the
/// line was resident or bypassed).
fn prefetch_fill_l1d(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    line: LineAddr,
    pc: VirtAddr,
) -> Option<usize> {
    let li = c.id.index() - tier.core_base;
    let probe = tier.l1d[li].probe_fill(line);
    if probe.resident() {
        return None;
    }
    let ctx = AccessCtx { line, pc_sig: 0, is_instr: false, is_prefetch: true };
    if tier.l2.lookup(line).is_none() {
        c.emit(line, pc, 0, tier.cluster, ReqKind::PfProbe);
    }
    fill(&mut tier.l1d[li], probe, &ctx, false).way.map(|_| probe.set())
}

/// L2 GHB prefetch fill (displaced lines are dropped, dirty or not).
/// Returns the set a frame was actually filled into, for probe-staleness
/// checks in the caller (`None` if the line was resident or bypassed).
fn prefetch_fill_l2(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    line: LineAddr,
    pc: VirtAddr,
) -> Option<usize> {
    let probe = tier.l2.probe_fill(line);
    if probe.resident() {
        return None;
    }
    let ctx = AccessCtx { line, pc_sig: 0, is_instr: false, is_prefetch: true };
    c.emit(line, pc, 0, tier.cluster, ReqKind::PfProbe);
    fill(&mut tier.l2, probe, &ctx, false).way.map(|_| probe.set())
}

/// Demand fill into the cluster L2, redeeming `probe` when it is still
/// fresh; displaced dirty lines become deferred non-inclusive writebacks
/// to the LLC.
fn fill_l2(
    tier: &mut ClusterTier,
    c: &mut EpochCore<'_>,
    probe: Option<FillProbe>,
    ctx: &AccessCtx,
) {
    let probe = probe.unwrap_or_else(|| tier.l2.probe_fill(ctx.line));
    if let Some(ev) = fill(&mut tier.l2, probe, ctx, false).evicted {
        if ev.dirty {
            c.emit(
                ev.line,
                VirtAddr::new(0),
                ctx.pc_sig,
                tier.cluster,
                ReqKind::Writeback { is_instr: ev.is_instr },
            );
        }
    }
}
