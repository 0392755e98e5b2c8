//! One set-contiguous LLC shard: cache slice, Garibaldi slice, DRAM slice.
//!
//! A shard owns everything reachable from its set range, so phase A of an
//! epoch barrier can drain all shards in parallel with no locking: the LLC
//! frames, the replacement-policy state for those sets, the slice of the
//! Garibaldi pair table and D_PPN table indexed by lines of the range, the
//! shard's DRAM channel (per-channel occupancy scaled so aggregate
//! bandwidth matches the unsharded model), the I-oracle seen-set and the
//! reuse-profiler state of its sets. Cross-shard effects (pair updates
//! keyed by a *different* line's shard, pairwise prefetch fills) are
//! emitted as [`ShardCmd`]s and applied in a second parallel pass; remote
//! private-tier invalidations are emitted as [`InvalCmd`]s.

use super::merge::{self, kway_merge_order, Pos};
use super::request::{InvalCmd, LlcRequest, ReqKey, ReqKind, ReqOutcome, ShardCmd};
use crate::config::{SystemConfig, HIT_LATENCY};
use crate::reuse::ReuseProfiler;
use garibaldi::config::QBS_LOOKUP_COST;
use garibaldi::{instruction_way_mask, DppnTable, GaribaldiSlice, GaribaldiStats, PairTable};
use garibaldi_cache::{
    AccessCtx, AccessOutcome, CacheConfig, Fill, FillProbe, LineMeta, LineMut, MesiState,
    SetAssocCache,
};
use garibaldi_mem::{DramConfig, DramModel};
use garibaldi_types::{AccessKind, LineAddr, U64Set};

/// Epoch-frozen snapshot of the threshold unit consumed by shard drains and
/// command applies; the unit itself replays the drained outcomes in the
/// barrier's per-cluster tail ([`super::replay`]).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdSnapshot {
    /// Current color of the l-bit timer.
    pub color: u8,
    /// Current protection threshold.
    pub threshold: u32,
}

/// Everything a shard produced during a phase-A drain. Owned by the
/// engine and reused across barriers (an epoch arena): [`LlcShard::drain`]
/// clears and refills it instead of allocating fresh buffers per epoch.
#[derive(Default, Clone)]
pub struct DrainOut {
    /// `(core, seq)`-addressed outcomes to scatter back to the cores.
    pub outcomes: Vec<(u16, u32, ReqOutcome)>,
    /// Cross-shard commands (sorted globally, routed by target line).
    pub cmds: Vec<(ReqKey, ShardCmd)>,
    /// Remote-copy invalidations for the private tiers.
    pub invals: Vec<(ReqKey, InvalCmd)>,
}

impl DrainOut {
    /// Empties the buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.outcomes.clear();
        self.cmds.clear();
        self.invals.clear();
    }
}

/// Where a drain puts what it produces, each item as the drain resolves
/// it (so in key order): [`DrainOut`] collects all three kinds, and the
/// epoch schedule files outcomes and commands straight into the vectors
/// that hand them on.
pub trait DrainSink {
    /// The outcome of the request keyed `key`.
    fn outcome(&mut self, key: ReqKey, outcome: ReqOutcome);
    /// A cross-shard command emitted by the request keyed `key`.
    fn cmd(&mut self, key: ReqKey, cmd: ShardCmd);
    /// A remote-copy invalidation emitted by the request keyed `key`.
    fn inval(&mut self, key: ReqKey, inval: InvalCmd);
}

impl DrainSink for DrainOut {
    #[inline]
    fn outcome(&mut self, key: ReqKey, outcome: ReqOutcome) {
        self.outcomes.push((key.core, key.seq, outcome));
    }

    #[inline]
    fn cmd(&mut self, key: ReqKey, cmd: ShardCmd) {
        self.cmds.push((key, cmd));
    }

    #[inline]
    fn inval(&mut self, key: ReqKey, inval: InvalCmd) {
        self.invals.push((key, inval));
    }
}

/// Lookahead distance of the software-pipelined drain: the first
/// `DRAIN_LOOKAHEAD` entries of a run are hinted before the loop starts,
/// and while entry `i` resolves, the host-CPU rows entry
/// `i + DRAIN_LOOKAHEAD` will touch (LLC tag/flag/recency row, pair-table
/// bucket, D_PPN slot, oracle seen slot, DRAM channel occupancy head) are
/// already being pulled toward L1, so row misses overlap instead of
/// serializing. Eight entries of lookahead covers a load-to-use of a few
/// hundred cycles at the drain's per-request cost without thrashing the L1
/// (same window as the step-phase batching in `private.rs`); a run shorter
/// than the window — every drain of the serial schedule — is hinted whole
/// up front.
pub const DRAIN_LOOKAHEAD: usize = 8;

/// One LLC shard.
pub struct LlcShard {
    cache: SetAssocCache,
    dram: DramModel,
    /// Garibaldi's pair/D_PPN entries for lines whose LLC set falls in the
    /// shard's range, and the rules that use them.
    gar: Option<GaribaldiSlice>,
    oracle_seen: U64Set,
    profiler: Option<ReuseProfiler>,
    qbs_cycles: u64,
    /// Write upgrades that found no LLC directory entry (the line was not
    /// resident), so no invalidations could be propagated — the measured
    /// side of the LLC-directory-scoped coherence contract (see
    /// [`LlcShard::write_upgrade`] and docs/ARCHITECTURE.md §"Coherence
    /// semantics").
    lost_upgrades: u64,
    /// Scratch for pairwise-prefetch candidates (reused across requests).
    pf_cands: Vec<LineAddr>,
    /// Shard-local set of each request in the run being drained, filled by
    /// the batched prologue pass (reused across barriers).
    set_scratch: Vec<u32>,
    /// `(instruction, data)` way masks when way partitioning is on, hoisted
    /// out of `fill_guarded` (configuration-constant).
    part_masks: Option<(u64, u64)>,
    cfg: SystemConfig,
}

impl LlcShard {
    /// Builds shard `idx` of `shards`, owning global LLC sets
    /// `[base, base + sets)` of a `total_sets`-set LLC.
    pub fn new(cfg: &SystemConfig, idx: usize, shards: usize, total_sets: usize) -> Self {
        let (base, sets) = shard_range(total_sets, shards, idx);
        let geometry =
            CacheConfig::shard(format!("llc.s{idx}"), total_sets, base, sets, cfg.llc_ways)
                .with_directory_clusters(cfg.clusters());
        let cache = SetAssocCache::new(geometry, cfg.scheme.policy);
        Self {
            cache,
            dram: DramModel::new(shard_dram(&cfg.dram, shards)),
            gar: cfg.scheme.garibaldi.as_ref().map(|g| GaribaldiSlice::new(g, shards)),
            oracle_seen: U64Set::new(),
            profiler: cfg.profile_reuse.then(|| ReuseProfiler::new(total_sets)),
            qbs_cycles: 0,
            lost_upgrades: 0,
            pf_cands: Vec::new(),
            set_scratch: Vec::new(),
            part_masks: (cfg.partition_instr_ways > 0)
                .then(|| instruction_way_mask(cfg.llc_ways, cfg.partition_instr_ways)),
            cfg: cfg.clone(),
        }
    }

    /// Shard cache (read-only; reporting).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    /// Exports this shard's replacement-policy learned state (empty when
    /// the policy has none) into an engine-owned buffer (cleared first)
    /// for the barrier's learned-state sync — the sync exports per shard
    /// per synced barrier, so the buffers are arena-reused across epochs.
    pub fn export_policy_learned_into(&self, out: &mut Vec<u32>) {
        self.cache.export_policy_learned_into(out);
    }

    /// Computes the consensus of all shards' policy exports into `out`
    /// without touching shard state. The merge is a pure function of the
    /// shard-ordered exports (see
    /// [`garibaldi_cache::ReplacementPolicy::merge_learned`]), so the
    /// engine computes it once, on any shard, and installs the same bytes
    /// into every shard.
    pub fn merge_policy_learned(&self, peers: &[Vec<u32>], out: &mut Vec<u32>) {
        self.cache.merge_policy_learned(peers, out);
    }

    /// Installs a consensus computed by [`LlcShard::merge_policy_learned`].
    pub fn install_policy_learned(&mut self, merged: &[u32]) {
        self.cache.install_policy_learned(merged);
    }

    /// Shard DRAM slice (read-only; reporting).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Shard Garibaldi stats, if configured.
    pub fn garibaldi_stats(&self) -> Option<&GaribaldiStats> {
        self.gar.as_ref().map(GaribaldiSlice::stats)
    }

    /// Shard reuse profiler, if enabled.
    pub fn profiler(&self) -> Option<&ReuseProfiler> {
        self.profiler.as_ref()
    }

    /// Takes the shard's profiler for the end-of-run merge.
    pub fn take_profiler(&mut self) -> Option<ReuseProfiler> {
        self.profiler.take()
    }

    /// Cycles spent on QBS pair-table queries at this shard.
    pub fn qbs_cycles(&self) -> u64 {
        self.qbs_cycles
    }

    /// Write upgrades that missed the LLC directory (no invalidations
    /// propagated; see `LlcShard::write_upgrade`).
    pub fn lost_upgrades(&self) -> u64 {
        self.lost_upgrades
    }

    /// Clears statistics at the warmup boundary; cache contents, pair/D_PPN
    /// state and the DRAM channel stay.
    pub fn reset_stats(&mut self) {
        *self.cache.stats_mut() = Default::default();
        self.dram.reset_stats();
        if let Some(g) = self.gar.as_mut() {
            *g.stats_mut() = GaribaldiStats::default();
        }
        if self.profiler.is_some() {
            // The profiler samples by *global* set: size it with the parent
            // modulus recovered from the shard view.
            let total_sets = match self.cache.config().indexing {
                garibaldi_cache::SetIndexing::Shard { modulus, .. } => modulus as usize,
                garibaldi_cache::SetIndexing::Modulo => self.cache.config().sets,
            };
            self.profiler = Some(ReuseProfiler::new(total_sets));
        }
        self.qbs_cycles = 0;
        self.lost_upgrades = 0;
    }

    /// Phase A: drains `reqs` (already sorted by key, all targeting this
    /// shard) against the shard state, into the engine-owned `out` arena
    /// (cleared first). The one-run form of [`LlcShard::drain_lanes`]: with
    /// one shard a core's run is its lane, so the serial schedule drains
    /// the run directly.
    pub fn drain(&mut self, reqs: &[LlcRequest], snap: ThresholdSnapshot, out: &mut DrainOut) {
        out.clear();
        self.drain_by(reqs.len(), |i| &reqs[i], snap, out);
    }

    /// Phase A over the request runs of several cores: `lanes[c]` lists,
    /// in issue order, the seqs of the requests in `runs[c]` that target
    /// this shard. Writes the lanes' merge into `order`
    /// ([`kway_merge_order`], keyed by the request each seq names) and
    /// drains the named requests in that order where they lie in the runs,
    /// appending what the drain produces to `sink`. Draining the
    /// materialized merge with [`LlcShard::drain`] gives the same outcomes,
    /// commands, invalidations and state (pinned by
    /// `tests/drain_differential.rs`).
    pub fn drain_lanes<R: AsRef<[LlcRequest]>, L: AsRef<[u16]>>(
        &mut self,
        runs: &[R],
        lanes: &[L],
        order: &mut Vec<Pos>,
        snap: ThresholdSnapshot,
        sink: &mut impl DrainSink,
    ) {
        let req = |c: usize, seq: u16| &runs[c].as_ref()[seq as usize];
        kway_merge_order(lanes, |c, &seq| req(c, seq).key.packed(), order);
        let order = order.as_slice();
        let named = |i: usize| req(order[i].0 as usize, *merge::at(lanes, order[i]));
        self.drain_by(order.len(), named, snap, sink);
    }

    /// The drain of `n` requests, the `i`-th in key order being `req(i)`.
    ///
    /// Software-pipelined: a prologue pass batch-computes every request's
    /// shard-local set (a multiply/mask each under `SetIndexFast`), then
    /// the resolution pass walks the requests in order with a
    /// [`DRAIN_LOOKAHEAD`]-request window of host-CPU row hints in flight
    /// ahead of the resolution point. Hints are architecturally inert, so
    /// outcomes, commands, invalidations and stats are bit-identical to
    /// the scalar loop (pinned by `tests/drain_differential.rs` and the
    /// committed goldens).
    fn drain_by<'r>(
        &mut self,
        n: usize,
        req: impl Fn(usize) -> &'r LlcRequest,
        snap: ThresholdSnapshot,
        out: &mut impl DrainSink,
    ) {
        self.set_scratch.clear();
        self.set_scratch.reserve(n);
        for i in 0..n {
            self.set_scratch.push(self.cache.set_of(req(i).line) as u32);
        }
        for i in 0..n.min(DRAIN_LOOKAHEAD) {
            self.hint_request(req(i), self.set_scratch[i] as usize);
        }
        for i in 0..n {
            let ahead = i + DRAIN_LOOKAHEAD;
            if ahead < n {
                self.hint_request(req(ahead), self.set_scratch[ahead] as usize);
            }
            let r = req(i);
            let set = self.set_scratch[i] as usize;
            match r.kind {
                ReqKind::Instr { demand } => self.drain_instr(r, set, demand, snap, out),
                ReqKind::Data { is_write, il_hint, .. } => {
                    self.drain_data(r, set, is_write, il_hint, snap, out);
                }
                ReqKind::Writeback { is_instr } => {
                    let probe = self.cache.probe_fill_at(set, r.line);
                    if let Some(way) = probe.way() {
                        self.cache.frame_mut(set, way).set_dirty();
                    } else {
                        let ctx =
                            AccessCtx { line: r.line, pc_sig: r.sig, is_instr, is_prefetch: false };
                        self.fill_guarded(probe, &ctx, true, snap);
                    }
                }
                ReqKind::PfProbe => {
                    if !self.cache.probe_fill_at(set, r.line).resident() {
                        self.dram.access(r.line, r.key.now, false);
                    }
                }
                ReqKind::DirUpdate { record, write } => {
                    if record {
                        self.record_sharer_at(set, r.line, r.cluster as usize);
                    }
                    if write {
                        self.write_upgrade(r, set, out);
                    }
                }
            }
        }
    }

    /// Hints every host-CPU row request `r` (at shard-local set `set`) can
    /// touch when it resolves: the LLC tag/flag/recency rows always, plus
    /// the structures its kind dispatches into — the oracle seen slot or
    /// pair-table bucket for instruction fetches and the DRAM channel
    /// occupancy head for anything that can miss to memory. Perf-only.
    #[inline]
    fn hint_request(&self, r: &LlcRequest, set: usize) {
        self.cache.prefetch_row_set(set);
        match r.kind {
            ReqKind::Instr { .. } => {
                if self.cfg.i_oracle {
                    self.oracle_seen.prefetch(r.line.get());
                } else if let Some(g) = self.gar.as_ref() {
                    g.pair().prefetch_entry(r.line);
                }
                self.dram.prefetch_channel(r.line);
            }
            ReqKind::Data { .. } | ReqKind::PfProbe => self.dram.prefetch_channel(r.line),
            ReqKind::Writeback { .. } | ReqKind::DirUpdate { .. } => {}
        }
    }

    fn drain_instr(
        &mut self,
        r: &LlcRequest,
        set: usize,
        demand: bool,
        snap: ThresholdSnapshot,
        out: &mut impl DrainSink,
    ) {
        let ctx = AccessCtx { line: r.line, pc_sig: r.sig, is_instr: true, is_prefetch: !demand };

        if self.cfg.i_oracle {
            // Fig 3d headroom study: instruction lines hit after first touch.
            if !demand {
                self.oracle_seen.insert(r.line.get());
                return;
            }
            let seen = !self.oracle_seen.insert(r.line.get());
            self.cache.stats_mut().record_access(AccessKind::Instr, seen);
            let latency = if seen {
                HIT_LATENCY
            } else {
                HIT_LATENCY + self.dram.access(r.line, r.key.now, false)
            };
            out.outcome(r.key, ReqOutcome { latency, llc_hit: seen });
            return;
        }

        if demand {
            if let Some(p) = self.profiler.as_mut() {
                p.on_access(r.line, AccessKind::Instr, r.sig);
            }
        }
        let access = if demand {
            self.cache.access_at(set, &ctx, false)
        } else {
            let probe = self.cache.probe_fill_at(set, r.line);
            match probe.way() {
                Some(way) => AccessOutcome::Hit(way),
                None => AccessOutcome::Miss(probe),
            }
        };
        let hit = matches!(access, AccessOutcome::Hit(_));

        if let Some(g) = self.gar.as_mut() {
            g.instr_access(r.line, demand && !hit, snap.color, snap.threshold, &mut self.pf_cands);
            for &dl in &self.pf_cands {
                out.cmd(r.key, ShardCmd::PairwisePrefetch { dl, sig: r.sig, now: r.key.now });
            }
        }

        let (latency, way) = self.resolve(r, access, &ctx, snap);
        if let Some(w) = way {
            self.record_sharer_frame(set, w, r.cluster as usize);
        }
        if demand {
            out.outcome(r.key, ReqOutcome { latency, llc_hit: hit });
        }
    }

    fn drain_data(
        &mut self,
        r: &LlcRequest,
        set: usize,
        is_write: bool,
        il_hint: Option<LineAddr>,
        snap: ThresholdSnapshot,
        out: &mut impl DrainSink,
    ) {
        let ctx = AccessCtx { line: r.line, pc_sig: r.sig, is_instr: false, is_prefetch: false };
        if let Some(p) = self.profiler.as_mut() {
            p.on_access(r.line, AccessKind::Data, r.sig);
        }
        let access = self.cache.access_at(set, &ctx, is_write);
        let hit = matches!(access, AccessOutcome::Hit(_));
        if let Some(g) = self.gar.as_mut() {
            g.stats_mut().data_accesses += 1;
            if let Some(il) = il_hint {
                // Routed to (and counted at) the shard owning `il` in B′.
                out.cmd(r.key, ShardCmd::PairUpdate { il, data_hit: hit, dl: r.line });
            }
        }
        let (latency, way) = self.resolve(r, access, &ctx, snap);
        if let Some(w) = way {
            self.record_sharer_frame(set, w, r.cluster as usize);
            if is_write {
                self.write_upgrade_frame(set, w, r, out);
            }
        }
        out.outcome(r.key, ReqOutcome { latency, llc_hit: hit });
    }

    /// Directory update on a frame whose way the caller just resolved
    /// (access hit or insert fill) — no tag re-scan.
    fn record_sharer_frame(&mut self, set: usize, way: usize, cluster: usize) {
        let mut m = self.cache.frame_mut(set, way);
        Self::settle_sharer(&mut m, cluster);
    }

    /// Directory update on `line` if resident (set precomputed).
    fn record_sharer_at(&mut self, set: usize, line: LineAddr, cluster: usize) {
        if let Some(mut m) = self.cache.peek_mut_at(set, line) {
            Self::settle_sharer(&mut m, cluster);
        }
    }

    fn settle_sharer(m: &mut LineMut<'_>, cluster: usize) {
        m.add_sharer(cluster);
        let state = if m.sharer_count() > 1 {
            MesiState::Shared
        } else if m.dirty() {
            MesiState::Modified
        } else {
            MesiState::Exclusive
        };
        m.set_state(state);
    }

    /// Write-upgrade under the **LLC-directory-scoped** coherence contract
    /// (docs/ARCHITECTURE.md §"Coherence semantics"): the non-inclusive
    /// LLC's directory is the sole authority for write propagation. A
    /// written line that is not LLC-resident has no directory entry, so
    /// *no* invalidations are propagated — any stale private-tier copies
    /// persist until natural eviction or a later upgrade after the
    /// directory re-learns its sharers. The deliberately "lost" upgrade is
    /// counted so the coherence differential battery can observe the path
    /// on both schedules.
    fn write_upgrade(&mut self, r: &LlcRequest, set: usize, out: &mut impl DrainSink) {
        let Some(m) = self.cache.peek_mut_at(set, r.line) else {
            self.lost_upgrades += 1;
            return;
        };
        Self::upgrade_frame(m, r, out);
    }

    /// [`LlcShard::write_upgrade`] on a frame whose way the caller just
    /// resolved — no tag re-scan (the fill re-established the directory
    /// entry, so this path never loses the upgrade).
    fn write_upgrade_frame(
        &mut self,
        set: usize,
        way: usize,
        r: &LlcRequest,
        out: &mut impl DrainSink,
    ) {
        let m = self.cache.frame_mut(set, way);
        Self::upgrade_frame(m, r, out);
    }

    /// The resident half of the contract: drop every other cluster from
    /// the sharer mask, move the line to Modified, and emit one
    /// [`InvalCmd`] carrying the displaced sharers (flowed back to the
    /// private tiers at the barrier).
    fn upgrade_frame(mut m: LineMut<'_>, r: &LlcRequest, out: &mut impl DrainSink) {
        let others = m.sharers() & !(1 << r.cluster);
        if others == 0 {
            m.set_state(MesiState::Modified);
            return;
        }
        m.set_sharers(1 << r.cluster);
        m.set_state(MesiState::Modified);
        out.inval(r.key, InvalCmd { line: r.line, others });
    }

    /// Latency and frame of a resolved LLC access: a hit costs the tier
    /// latencies; a miss adds DRAM and the guarded fill, which redeems the
    /// access's probe (nothing between the two fills this cache).
    fn resolve(
        &mut self,
        r: &LlcRequest,
        access: AccessOutcome,
        ctx: &AccessCtx,
        snap: ThresholdSnapshot,
    ) -> (u64, Option<usize>) {
        match access {
            AccessOutcome::Hit(way) => (HIT_LATENCY, Some(way)),
            AccessOutcome::Miss(probe) => {
                let dram_lat = self.dram.access(r.line, r.key.now, false);
                let (qbs, way) = self.fill_guarded(probe, ctx, false, snap);
                (HIT_LATENCY + dram_lat + qbs, way)
            }
        }
    }

    /// The LLC fill of `ctx.line` (way partitioning, or Garibaldi's QBS
    /// guard and no-bypass pin, §4.2), redeeming a fresh `probe`. Returns
    /// the QBS latency and the filled way (`None` when the fill was
    /// bypassed), so callers can update the frame's directory state
    /// without re-probing the tag row.
    fn fill_guarded(
        &mut self,
        probe: FillProbe,
        ctx: &AccessCtx,
        dirty: bool,
        snap: ThresholdSnapshot,
    ) -> (u64, Option<usize>) {
        let line = ctx.line;
        let (out, qbs_lat, pinned) = match (self.part_masks, self.gar.as_mut()) {
            (Some((i_mask, d_mask)), _) => {
                let rule = Fill::partition(if ctx.is_instr { i_mask } else { d_mask });
                (self.cache.fill(probe, line, ctx, dirty, rule, |_| false), 0, false)
            }
            (None, None) => {
                (self.cache.fill(probe, line, ctx, dirty, Fill::PLAIN, |_| false), 0, false)
            }
            (None, Some(g)) => {
                let rule = g.fill_rule(line, ctx.is_instr, snap.color, snap.threshold);
                let mut queries = 0u64;
                let out = self.cache.fill(probe, line, ctx, dirty, rule, |meta: &LineMeta| {
                    queries += 1;
                    g.should_protect(meta.line, snap.color, snap.threshold)
                });
                (out, QBS_LOOKUP_COST * queries, !rule.bypass)
            }
        };
        self.qbs_cycles += qbs_lat;
        if pinned {
            if let Some(w) = out.way {
                self.cache.protect_frame(probe.set(), w);
            }
        }
        if let Some(ev) = out.evicted {
            self.on_evict(ev);
        }
        (qbs_lat, out.way)
    }

    fn on_evict(&mut self, meta: LineMeta) {
        if meta.dirty {
            self.dram.access(meta.line, 0, true);
        }
        if let Some(p) = self.profiler.as_mut() {
            p.on_evict(meta.line, meta.is_instr);
        }
    }

    /// Phase B′: applies cross-shard commands routed to this shard, in key
    /// order, under the same epoch-frozen threshold snapshot. The one-run
    /// form of [`LlcShard::apply_cmd_runs`].
    pub fn apply_cmds(&mut self, cmds: &[(ReqKey, ShardCmd)], snap: ThresholdSnapshot) {
        self.apply_by(cmds.len(), |i| &cmds[i].1, snap);
    }

    /// Phase B′ over the command runs of every source shard (each sorted
    /// by key): writes their merge into `order` and applies the commands
    /// in that order where they lie. Same-key batches — several
    /// pairwise-prefetch candidates of one request — come from one source
    /// and keep its emission order.
    pub fn apply_cmd_runs<R: AsRef<[(ReqKey, ShardCmd)]>>(
        &mut self,
        runs: &[R],
        order: &mut Vec<Pos>,
        snap: ThresholdSnapshot,
    ) {
        kway_merge_order(runs, |_, (k, _): &(ReqKey, ShardCmd)| k.packed(), order);
        let order = order.as_slice();
        self.apply_by(order.len(), |i| &merge::at(runs, order[i]).1, snap);
    }

    /// Applies `n` commands, the `i`-th in key order being `cmd(i)`.
    ///
    /// Pipelined like [`LlcShard::drain`]: a [`DRAIN_LOOKAHEAD`]-command
    /// window keeps the pair-table bucket and D_PPN slot of upcoming
    /// `PairUpdate`s — and the LLC row and DRAM channel head of upcoming
    /// `PairwisePrefetch`es — in flight ahead of the application point.
    fn apply_by<'c>(
        &mut self,
        n: usize,
        cmd: impl Fn(usize) -> &'c ShardCmd,
        snap: ThresholdSnapshot,
    ) {
        for i in 0..n.min(DRAIN_LOOKAHEAD) {
            self.hint_cmd(*cmd(i));
        }
        for i in 0..n {
            if i + DRAIN_LOOKAHEAD < n {
                self.hint_cmd(*cmd(i + DRAIN_LOOKAHEAD));
            }
            match *cmd(i) {
                ShardCmd::PairUpdate { il, data_hit, dl } => {
                    if let Some(g) = self.gar.as_mut() {
                        g.pair_update(il, data_hit, dl, snap.color, snap.threshold);
                    }
                }
                ShardCmd::PairwisePrefetch { dl, sig, now } => {
                    let probe = self.cache.probe_fill(dl);
                    if !probe.resident() {
                        let ctx =
                            AccessCtx { line: dl, pc_sig: sig, is_instr: false, is_prefetch: true };
                        self.dram.access(dl, now, false);
                        self.fill_guarded(probe, &ctx, false, snap);
                    }
                }
            }
        }
    }

    /// Hints the host-CPU rows command `cmd` will touch when it applies
    /// (see [`LlcShard::hint_request`]). Perf-only.
    #[inline]
    fn hint_cmd(&self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::PairUpdate { il, dl, .. } => {
                if let Some(g) = self.gar.as_ref() {
                    g.dppn().prefetch_slot(dl.ppn());
                    g.pair().prefetch_entry(il);
                }
            }
            ShardCmd::PairwisePrefetch { dl, .. } => {
                self.cache.prefetch_row(dl);
                self.dram.prefetch_channel(dl);
            }
        }
    }

    /// Shard pair/D_PPN slices, when Garibaldi is configured (read-only;
    /// diagnostics and the drain differential battery's post-state
    /// comparison).
    pub fn garibaldi_tables(&self) -> Option<(&PairTable, &DppnTable)> {
        self.gar.as_ref().map(|g| (g.pair(), g.dppn()))
    }

    /// I-oracle seen-set (read-only; differential battery post-state).
    pub fn oracle_seen(&self) -> &U64Set {
        &self.oracle_seen
    }
}

/// The DRAM slice of one of `shards` shards: `max(1, channels / shards)`
/// channels, each line's occupancy scaled by `shards × slice channels /
/// channels` so aggregate bandwidth matches the unsharded model. One shard
/// gets `dram` itself.
fn shard_dram(dram: &DramConfig, shards: usize) -> DramConfig {
    let channels = dram.channels.max(1);
    let slice = (channels / shards).max(1);
    DramConfig {
        channels: slice,
        transfer_occupancy: (dram.transfer_occupancy * (shards * slice) as u64 / channels as u64)
            .max(1),
        ..*dram
    }
}

/// `(base, len)` of shard `idx` in an even contiguous split of `sets`.
pub fn shard_range(sets: usize, shards: usize, idx: usize) -> (usize, usize) {
    let per = sets / shards;
    let rem = sets % shards;
    let len = per + usize::from(idx < rem);
    let base = idx * per + idx.min(rem);
    (base, len)
}

/// Shard owning global set `set` under the same even contiguous split.
pub fn shard_of_set(sets: usize, shards: usize, set: usize) -> usize {
    let per = sets / shards;
    let rem = sets % shards;
    let boundary = rem * (per + 1);
    if set < boundary {
        set / (per + 1)
    } else {
        rem + (set - boundary) / per.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LlcScheme, L2_CLUSTER_SIZE};
    use garibaldi_cache::PolicyKind;

    #[test]
    fn dram_slices_keep_aggregate_bandwidth() {
        let cfg = SystemConfig {
            scheme: LlcScheme::plain(PolicyKind::Lru),
            ..SystemConfig::paper_baseline()
        };
        assert_eq!((cfg.dram.channels, cfg.dram.transfer_occupancy), (2, 4));
        // More shards than channels: one channel each, occupancy scaled by
        // shards / channels.
        let d = *LlcShard::new(&cfg, 3, 8, 64).dram().config();
        assert_eq!((d.channels, d.transfer_occupancy), (1, 16));
        assert_eq!(d.access_latency, cfg.dram.access_latency);
        // One shard (the serial schedule) keeps the unsharded model.
        assert_eq!(*LlcShard::new(&cfg, 0, 1, 64).dram().config(), cfg.dram);
    }

    /// A demand data request from `cluster` to `line` (drain-order key `now`).
    fn data_request(now: u64, line: u64, cluster: u16) -> LlcRequest {
        LlcRequest {
            key: super::super::request::ReqKey { now, core: 0, seq: now as u32 },
            line: LineAddr::new(line),
            pc: garibaldi_types::VirtAddr::new(0x400),
            sig: 0x400,
            cluster,
            kind: ReqKind::Data { is_write: false, il_hint: None, ifetch_seq: None },
        }
    }

    #[test]
    fn directory_costs_its_cluster_width_per_frame() {
        let snap = ThresholdSnapshot { color: 0, threshold: 0 };
        let mut out = DrainOut::default();
        // 40 cores in clusters of 4: 10 sharer clusters, 2 bytes a frame.
        let cfg = SystemConfig::paper_baseline();
        assert_eq!(cfg.clusters(), 10);
        let mut sh = LlcShard::new(&cfg, 0, 1, 64);
        assert_eq!(sh.cache().config().directory_bytes(), 2);
        assert_eq!(sh.cache().directory_heap_bytes(), 0, "untouched directory allocated");
        sh.drain(&[data_request(1, 5, 9), data_request(2, 5, 3)], snap, &mut out);
        let frames = 64 * cfg.llc_ways;
        assert_eq!(sh.cache().directory_heap_bytes(), 2 * frames);
        assert_eq!(sh.cache().peek(LineAddr::new(5)).unwrap().sharers, 1 << 9 | 1 << 3);
        // 64 clusters keep the full mask, cluster 63 included.
        let mut wide = SystemConfig::paper_baseline();
        wide.cores = 64 * L2_CLUSTER_SIZE;
        wide.validate().expect("64 clusters fit the sharer mask");
        let mut sh = LlcShard::new(&wide, 0, 1, 64);
        sh.drain(&[data_request(1, 5, 63)], snap, &mut out);
        assert_eq!(sh.cache().directory_heap_bytes(), 8 * frames);
        assert_eq!(sh.cache().peek(LineAddr::new(5)).unwrap().sharers, 1 << 63);
    }
}
