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

use super::request::{InvalCmd, LlcRequest, ReqKey, ReqKind, ReqOutcome, ShardCmd};
use crate::config::SystemConfig;
use crate::reuse::ReuseProfiler;
use garibaldi::{instruction_way_mask, DppnTable, GaribaldiConfig, GaribaldiStats, PairTable};
use garibaldi_cache::{AccessCtx, CacheConfig, LineMeta, LineMut, MesiState, SetAssocCache};
use garibaldi_mem::{DramConfig, DramModel};
use garibaldi_types::{AccessKind, LineAddr, U64Set};

/// The Garibaldi state sliced per shard: pair/D_PPN entries for lines whose
/// LLC set falls in the shard's range, plus this slice's event counters.
pub struct GarShard {
    pair: PairTable,
    dppn: DppnTable,
    stats: GaribaldiStats,
    cfg: GaribaldiConfig,
}

impl GarShard {
    fn new(cfg: &GaribaldiConfig, shards: usize) -> Self {
        Self {
            pair: PairTable::with_entries(cfg, (cfg.pair_entries() / shards).max(64)),
            dppn: DppnTable::new((cfg.dppn_entries() / shards).max(64)),
            stats: GaribaldiStats::default(),
            cfg: cfg.clone(),
        }
    }
}

/// Epoch-frozen snapshot of the threshold unit consumed by shard drains;
/// the unit itself is replayed serially between the two parallel passes.
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

/// Lookahead distance of the software-pipelined drain: while request `i`
/// resolves, the host-CPU rows request `i + DRAIN_LOOKAHEAD` will touch
/// (LLC tag/flag/stamp row, pair-table bucket, D_PPN slot, oracle seen
/// slot, DRAM channel occupancy head) are already being pulled toward L1,
/// so row misses overlap instead of serializing. Eight lines of lookahead
/// covers a load-to-use of a few hundred cycles at the drain's per-request
/// cost without thrashing the L1 (same window as the step-phase batching
/// in `private.rs`).
pub const DRAIN_LOOKAHEAD: usize = 8;

/// One LLC shard.
pub struct LlcShard {
    cache: SetAssocCache,
    dram: DramModel,
    gar: Option<GarShard>,
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
    /// Sum of the three tier hit latencies, hoisted out of the drain hot
    /// loop (configuration-constant).
    hit_lat: u64,
    /// `(instruction, data)` way masks when way partitioning is on, hoisted
    /// out of `insert_guarded` (configuration-constant).
    part_masks: Option<(u64, u64)>,
    cfg: SystemConfig,
}

impl LlcShard {
    /// Builds shard `idx` of `shards`, owning global LLC sets
    /// `[base, base + sets)` of a `total_sets`-set LLC.
    pub fn new(cfg: &SystemConfig, idx: usize, shards: usize, total_sets: usize) -> Self {
        let (base, sets) = shard_range(total_sets, shards, idx);
        let cache = SetAssocCache::new(
            CacheConfig::shard(format!("llc.s{idx}"), total_sets, base, sets, cfg.llc_ways),
            cfg.scheme.policy,
        );
        // Keep aggregate DRAM bandwidth equal to the unsharded model: each
        // shard gets one channel whose per-line occupancy is scaled by
        // shards / channels.
        let dcfg = DramConfig {
            channels: 1,
            transfer_occupancy: (cfg.dram.transfer_occupancy * shards as u64
                / cfg.dram.channels.max(1) as u64)
                .max(1),
            ..cfg.dram
        };
        Self {
            cache,
            dram: DramModel::new(dcfg),
            gar: cfg.scheme.garibaldi.as_ref().map(|g| GarShard::new(g, shards)),
            oracle_seen: U64Set::new(),
            profiler: cfg.profile_reuse.then(|| ReuseProfiler::new(total_sets)),
            qbs_cycles: 0,
            lost_upgrades: 0,
            pf_cands: Vec::new(),
            set_scratch: Vec::new(),
            hit_lat: cfg.l1_latency + cfg.l2_latency + cfg.llc_latency,
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
        self.gar.as_ref().map(|g| &g.stats)
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
            g.stats = GaribaldiStats::default();
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
    /// (cleared first).
    ///
    /// Software-pipelined: a prologue pass batch-computes every request's
    /// shard-local set (a multiply/mask each under `SetIndexFast`), then
    /// the resolution pass walks the run in its original order with a
    /// [`DRAIN_LOOKAHEAD`]-request window of host-CPU row hints in flight
    /// ahead of the resolution point. Hints are architecturally inert, so
    /// outcomes, commands, invalidations and stats are bit-identical to
    /// the scalar loop (pinned by `tests/drain_differential.rs` and the
    /// committed goldens).
    pub fn drain(&mut self, reqs: &[LlcRequest], snap: ThresholdSnapshot, out: &mut DrainOut) {
        out.clear();
        self.set_scratch.clear();
        self.set_scratch.reserve(reqs.len());
        for r in reqs {
            self.set_scratch.push(self.cache.set_of(r.line) as u32);
        }
        for i in 0..reqs.len() {
            if let Some(a) = reqs.get(i + DRAIN_LOOKAHEAD) {
                let aset = self.set_scratch[i + DRAIN_LOOKAHEAD] as usize;
                self.hint_request(a, aset);
            }
            let r = &reqs[i];
            let set = self.set_scratch[i] as usize;
            match r.kind {
                ReqKind::Instr { demand } => self.drain_instr(r, set, demand, snap, out),
                ReqKind::Data { is_write, il_hint, .. } => {
                    self.drain_data(r, set, is_write, il_hint, snap, out);
                }
                ReqKind::Writeback { is_instr } => {
                    if let Some(mut m) = self.cache.peek_mut_at(set, r.line) {
                        m.set_dirty();
                    } else {
                        let ctx =
                            AccessCtx { line: r.line, pc_sig: r.sig, is_instr, is_prefetch: false };
                        self.insert_guarded_at(set, r.line, &ctx, true, snap);
                    }
                }
                ReqKind::PfProbe => {
                    if self.cache.lookup_at(set, r.line).is_none() {
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
    /// touch when it resolves: the LLC tag/flag/stamp rows always, plus
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
                    g.pair.prefetch_entry(r.line);
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
        out: &mut DrainOut,
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
                self.hit_lat
            } else {
                self.hit_lat + self.dram.access(r.line, r.key.now, false)
            };
            out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: seen }));
            return;
        }

        if demand {
            if let Some(p) = self.profiler.as_mut() {
                p.on_access(r.line, AccessKind::Instr, r.sig);
            }
        }
        let hit_way = if demand {
            self.cache.access_way_at(set, &ctx, false)
        } else {
            self.cache.lookup_at(set, r.line)
        };
        let hit = hit_way.is_some();

        if let Some(g) = self.gar.as_mut() {
            g.stats.instr_accesses += 1;
            if demand && !hit {
                g.stats.instr_misses += 1;
                // One fused slot probe instead of the scalar loop's
                // lookup + query_protect + on_instr_miss triple.
                let (tracked, protected) =
                    g.pair.resolve_instr_miss(r.line, snap.color, snap.threshold);
                if tracked {
                    if protected {
                        g.stats.protected_entry_misses += 1;
                    } else if g.cfg.enable_prefetch {
                        g.pair.prefetch_candidates_into(r.line, &g.dppn, &mut self.pf_cands);
                        g.stats.prefetches_issued += self.pf_cands.len() as u64;
                        for &dl in &self.pf_cands {
                            out.cmds.push((
                                r.key,
                                ShardCmd::PairwisePrefetch { dl, sig: r.sig, now: r.key.now },
                            ));
                        }
                    }
                }
            }
        }

        let (latency, way) = if hit {
            (self.hit_lat, hit_way)
        } else {
            let dram_lat = self.dram.access(r.line, r.key.now, false);
            let (qbs, way) = self.insert_guarded_at(set, r.line, &ctx, false, snap);
            (self.hit_lat + dram_lat + qbs, way)
        };
        if let Some(w) = way {
            self.record_sharer_frame(set, w, r.cluster as usize);
        }
        if demand {
            out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: hit }));
        }
    }

    fn drain_data(
        &mut self,
        r: &LlcRequest,
        set: usize,
        is_write: bool,
        il_hint: Option<LineAddr>,
        snap: ThresholdSnapshot,
        out: &mut DrainOut,
    ) {
        let ctx = AccessCtx { line: r.line, pc_sig: r.sig, is_instr: false, is_prefetch: false };
        if let Some(p) = self.profiler.as_mut() {
            p.on_access(r.line, AccessKind::Data, r.sig);
        }
        let hit_way = self.cache.access_way_at(set, &ctx, is_write);
        let hit = hit_way.is_some();
        if let Some(g) = self.gar.as_mut() {
            g.stats.data_accesses += 1;
            if let Some(il) = il_hint {
                // Routed to (and counted at) the shard owning `il` in B′.
                out.cmds.push((r.key, ShardCmd::PairUpdate { il, data_hit: hit, dl: r.line }));
            }
        }
        let (latency, way) = if hit {
            (self.hit_lat, hit_way)
        } else {
            let dram_lat = self.dram.access(r.line, r.key.now, false);
            let (qbs, way) = self.insert_guarded_at(set, r.line, &ctx, false, snap);
            (self.hit_lat + dram_lat + qbs, way)
        };
        if let Some(w) = way {
            self.record_sharer_frame(set, w, r.cluster as usize);
            if is_write {
                self.write_upgrade_frame(set, w, r, out);
            }
        }
        out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: hit }));
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
    /// (docs/ARCHITECTURE.md §"Coherence semantics", identical in the
    /// serial engine's `MemoryHierarchy::invalidate_remote`): the
    /// non-inclusive LLC's directory is the sole authority for write
    /// propagation. A written line that is not LLC-resident has no
    /// directory entry, so *no* invalidations are propagated — any stale
    /// private-tier copies persist until natural eviction or a later
    /// upgrade after the directory re-learns its sharers. The deliberately
    /// "lost" upgrade is counted so the coherence differential battery can
    /// observe the path on both engines.
    fn write_upgrade(&mut self, r: &LlcRequest, set: usize, out: &mut DrainOut) {
        let Some(m) = self.cache.peek_mut_at(set, r.line) else {
            self.lost_upgrades += 1;
            return;
        };
        Self::upgrade_frame(m, r, out);
    }

    /// [`LlcShard::write_upgrade`] on a frame whose way the caller just
    /// resolved — no tag re-scan (the fill re-established the directory
    /// entry, so this path never loses the upgrade).
    fn write_upgrade_frame(&mut self, set: usize, way: usize, r: &LlcRequest, out: &mut DrainOut) {
        let m = self.cache.frame_mut(set, way);
        Self::upgrade_frame(m, r, out);
    }

    /// The resident half of the contract: drop every other cluster from
    /// the sharer mask, move the line to Modified, and emit one
    /// [`InvalCmd`] carrying the displaced sharers (flowed back to the
    /// private tiers at the barrier).
    fn upgrade_frame(mut m: LineMut<'_>, r: &LlcRequest, out: &mut DrainOut) {
        let others = m.sharers() & !(1 << r.cluster);
        if others == 0 {
            m.set_state(MesiState::Modified);
            return;
        }
        m.set_sharers(1 << r.cluster);
        m.set_state(MesiState::Modified);
        out.invals.push((r.key, InvalCmd { line: r.line, others }));
    }

    /// Guarded LLC insertion (QBS + way partitioning), mirroring
    /// `MemoryHierarchy::insert_llc_guarded`, with the set precomputed by
    /// the drain prologue. Returns the QBS latency and the filled way
    /// (`None` when the fill was bypassed), so callers can update the
    /// frame's directory state without re-probing the tag row.
    fn insert_guarded_at(
        &mut self,
        set: usize,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        snap: ThresholdSnapshot,
    ) -> (u64, Option<usize>) {
        if let Some((i_mask, d_mask)) = self.part_masks {
            let mask = if ctx.is_instr { i_mask } else { d_mask };
            let out = self.cache.insert_restricted_at(set, line, ctx, dirty, mask);
            if let Some(ev) = out.evicted {
                self.on_evict(ev.meta);
            }
            return (0, out.way);
        }

        let Some(g) = self.gar.as_mut() else {
            let out = self.cache.insert_at(set, line, ctx, dirty);
            if let Some(ev) = out.evicted {
                self.on_evict(ev.meta);
            }
            return (0, out.way);
        };

        let enable_protection = g.cfg.enable_protection;
        let qbs_lookup_cost = g.cfg.qbs_lookup_cost;
        let max_protects = if enable_protection { g.cfg.qbs_max_attempts } else { 0 };
        let no_bypass = ctx.is_instr
            && enable_protection
            && g.pair
                .lookup(line)
                .map(|e| g.pair.aged_cost(e, snap.color) > snap.threshold)
                .unwrap_or(false);
        let mut queries = 0u32;
        let pair = &mut g.pair;
        let stats = &mut g.stats;
        let out = self.cache.insert_with_guard_opts_at(
            set,
            line,
            ctx,
            dirty,
            max_protects,
            !no_bypass,
            |meta: &LineMeta| {
                queries += 1;
                let protect =
                    enable_protection && pair.query_protect(meta.line, snap.color, snap.threshold);
                if protect {
                    stats.protections += 1;
                } else {
                    stats.declines += 1;
                }
                protect
            },
        );
        let qbs_lat = qbs_lookup_cost * queries as u64;
        self.qbs_cycles += qbs_lat;
        if no_bypass {
            if let Some(w) = out.way {
                self.cache.protect_frame(set, w);
            }
        }
        if let Some(ev) = out.evicted {
            self.on_evict(ev.meta);
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
    /// order, under the same epoch-frozen threshold snapshot.
    ///
    /// Pipelined like [`LlcShard::drain`]: a [`DRAIN_LOOKAHEAD`]-command
    /// window keeps the pair-table bucket and D_PPN slot of upcoming
    /// `PairUpdate`s — and the LLC row and DRAM channel head of upcoming
    /// `PairwisePrefetch`es — in flight ahead of the application point.
    pub fn apply_cmds(&mut self, cmds: &[(ReqKey, ShardCmd)], snap: ThresholdSnapshot) {
        for i in 0..cmds.len() {
            if let Some(&(_, ahead)) = cmds.get(i + DRAIN_LOOKAHEAD) {
                self.hint_cmd(ahead);
            }
            let (_, cmd) = &cmds[i];
            match *cmd {
                ShardCmd::PairUpdate { il, data_hit, dl } => {
                    if let Some(g) = self.gar.as_mut() {
                        let idx = g.dppn.insert(dl.ppn());
                        g.pair.update_on_data(
                            il,
                            data_hit,
                            idx,
                            dl.line_in_page() as u8,
                            snap.color,
                            snap.threshold,
                        );
                        g.stats.pair_updates += 1;
                    }
                }
                ShardCmd::PairwisePrefetch { dl, sig, now } => {
                    let set = self.cache.set_of(dl);
                    if self.cache.lookup_at(set, dl).is_none() {
                        let ctx =
                            AccessCtx { line: dl, pc_sig: sig, is_instr: false, is_prefetch: true };
                        self.dram.access(dl, now, false);
                        self.insert_guarded_at(set, dl, &ctx, false, snap);
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
                    g.dppn.prefetch_slot(dl.ppn());
                    g.pair.prefetch_entry(il);
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
        self.gar.as_ref().map(|g| (&g.pair, &g.dppn))
    }

    /// I-oracle seen-set (read-only; differential battery post-state).
    pub fn oracle_seen(&self) -> &U64Set {
        &self.oracle_seen
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
