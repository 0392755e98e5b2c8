//! Differential battery: the software-pipelined batched drain against a
//! naive scalar reference drain.
//!
//! `RefShard` reimplements `LlcShard`'s externally visible drain semantics
//! in the most literal per-request form possible — the pre-batching scalar
//! loop, recomputing the partition way mask on every request, issuing no
//! host-CPU hints — using only public crate APIs. Both
//! sides are driven with byte-identical sorted request runs, so any
//! divergence in outcomes, cross-shard commands, invalidations, stats or
//! post-drain state pinpoints a bug in the batched prologue, the lookahead
//! hint window, or the hoisted per-drain constants.
//!
//! A second property drains several cores' request runs in place through
//! `LlcShard::drain_lanes` (the epoch barrier's drain: each core's lane
//! lists the seqs of its run's requests for the shard) and checks it
//! against draining the materialized merge of the named requests.
//!
//! Run with `PROPTEST_CASES=512` (the CI `differential` job) for an
//! elevated case count.

use garibaldi::config::{QBS_LOOKUP_COST, QBS_MAX_ATTEMPTS};
use garibaldi::{instruction_way_mask, DppnTable, GaribaldiConfig, GaribaldiStats, PairTable};
use garibaldi_cache::{
    AccessCtx, CacheConfig, Fill, LineMeta, MesiState, PolicyKind, SetAssocCache,
};
use garibaldi_mem::{DramConfig, DramModel};
use garibaldi_sim::config::HIT_LATENCY;
use garibaldi_sim::engine::request::{InvalCmd, LlcRequest, ReqKey, ReqKind, ReqOutcome, ShardCmd};
use garibaldi_sim::engine::shard::{shard_range, DrainOut, LlcShard, ThresholdSnapshot};
use garibaldi_sim::{LlcScheme, SystemConfig};
use garibaldi_types::{AccessKind, LineAddr, U64Set, VirtAddr};
use proptest::prelude::*;

/// Scalar reference shard: same public components (`SetAssocCache` shard
/// view, `PairTable`/`DppnTable` slices, the scaled `DramModel` slice,
/// `U64Set` oracle), resolved one request at a time exactly as the
/// pre-batching drain did.
struct RefShard {
    cache: SetAssocCache,
    dram: DramModel,
    pair: Option<PairTable>,
    dppn: Option<DppnTable>,
    gcfg: Option<GaribaldiConfig>,
    gstats: GaribaldiStats,
    oracle_seen: U64Set,
    qbs_cycles: u64,
    lost_upgrades: u64,
    pf_cands: Vec<LineAddr>,
    cfg: SystemConfig,
}

impl RefShard {
    /// Mirrors `LlcShard::new`'s shard scaling (same set range, same pair
    /// and D_PPN slice sizing, same DRAM channel occupancy scaling). The
    /// directory keeps the default full `u64` mask per frame, so the
    /// shard's cluster-sized directory is checked against it.
    fn new(cfg: &SystemConfig, idx: usize, shards: usize, total_sets: usize) -> Self {
        let (base, sets) = shard_range(total_sets, shards, idx);
        let cache = SetAssocCache::new(
            CacheConfig::shard(format!("llc.s{idx}"), total_sets, base, sets, cfg.llc_ways),
            cfg.scheme.policy,
        );
        let channels = cfg.dram.channels.max(1);
        let slice = (channels / shards).max(1);
        let dcfg = DramConfig {
            channels: slice,
            transfer_occupancy: (cfg.dram.transfer_occupancy * (shards * slice) as u64
                / channels as u64)
                .max(1),
            ..cfg.dram
        };
        let g = cfg.scheme.garibaldi.as_ref();
        Self {
            cache,
            dram: DramModel::new(dcfg),
            pair: g.map(|g| PairTable::with_entries(g, (g.pair_entries() / shards).max(64))),
            dppn: g.map(|g| DppnTable::new((g.dppn_entries() / shards).max(64))),
            gcfg: g.cloned(),
            gstats: GaribaldiStats::default(),
            oracle_seen: U64Set::new(),
            qbs_cycles: 0,
            lost_upgrades: 0,
            pf_cands: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    fn drain(&mut self, reqs: &[LlcRequest], snap: ThresholdSnapshot, out: &mut DrainOut) {
        out.clear();
        for r in reqs {
            match r.kind {
                ReqKind::Instr { demand } => self.drain_instr(r, demand, snap, out),
                ReqKind::Data { is_write, il_hint, .. } => {
                    self.drain_data(r, is_write, il_hint, snap, out);
                }
                ReqKind::Writeback { is_instr } => {
                    if let Some(mut m) = self.cache.peek_mut(r.line) {
                        m.set_dirty();
                    } else {
                        let ctx =
                            AccessCtx { line: r.line, pc_sig: r.sig, is_instr, is_prefetch: false };
                        self.insert_guarded(r.line, &ctx, true, snap);
                    }
                }
                ReqKind::PfProbe => {
                    if self.cache.lookup(r.line).is_none() {
                        self.dram.access(r.line, r.key.now, false);
                    }
                }
                ReqKind::DirUpdate { record, write } => {
                    if record {
                        self.record_sharer(r.line, r.cluster as usize);
                    }
                    if write {
                        self.write_upgrade(r, out);
                    }
                }
            }
        }
    }

    fn drain_instr(
        &mut self,
        r: &LlcRequest,
        demand: bool,
        snap: ThresholdSnapshot,
        out: &mut DrainOut,
    ) {
        let ctx = AccessCtx { line: r.line, pc_sig: r.sig, is_instr: true, is_prefetch: !demand };

        if self.cfg.i_oracle {
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
            out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: seen }));
            return;
        }

        let hit = if demand {
            self.cache.access(&ctx, false)
        } else {
            self.cache.lookup(r.line).is_some()
        };

        if let Some(pair) = self.pair.as_mut() {
            let gcfg = self.gcfg.as_ref().expect("pair implies config");
            self.gstats.instr_accesses += 1;
            if demand && !hit {
                self.gstats.instr_misses += 1;
                if pair.lookup(r.line).is_some() {
                    let protected = pair.query_protect(r.line, snap.color, snap.threshold);
                    if protected {
                        self.gstats.protected_entry_misses += 1;
                    } else if gcfg.enable_prefetch {
                        let dppn = self.dppn.as_ref().expect("pair implies dppn");
                        pair.prefetch_candidates_into(r.line, dppn, &mut self.pf_cands);
                        self.gstats.prefetches_issued += self.pf_cands.len() as u64;
                        for &dl in &self.pf_cands {
                            out.cmds.push((
                                r.key,
                                ShardCmd::PairwisePrefetch { dl, sig: r.sig, now: r.key.now },
                            ));
                        }
                    }
                }
                pair.on_instr_miss(r.line);
            }
        }

        let latency = if hit {
            HIT_LATENCY
        } else {
            let dram_lat = self.dram.access(r.line, r.key.now, false);
            let qbs = self.insert_guarded(r.line, &ctx, false, snap);
            HIT_LATENCY + dram_lat + qbs
        };
        self.record_sharer(r.line, r.cluster as usize);
        if demand {
            out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: hit }));
        }
    }

    fn drain_data(
        &mut self,
        r: &LlcRequest,
        is_write: bool,
        il_hint: Option<LineAddr>,
        snap: ThresholdSnapshot,
        out: &mut DrainOut,
    ) {
        let ctx = AccessCtx { line: r.line, pc_sig: r.sig, is_instr: false, is_prefetch: false };
        let hit = self.cache.access(&ctx, is_write);
        if self.pair.is_some() {
            self.gstats.data_accesses += 1;
            if let Some(il) = il_hint {
                out.cmds.push((r.key, ShardCmd::PairUpdate { il, data_hit: hit, dl: r.line }));
            }
        }
        let latency = if hit {
            HIT_LATENCY
        } else {
            let dram_lat = self.dram.access(r.line, r.key.now, false);
            let qbs = self.insert_guarded(r.line, &ctx, false, snap);
            HIT_LATENCY + dram_lat + qbs
        };
        self.record_sharer(r.line, r.cluster as usize);
        if is_write {
            self.write_upgrade(r, out);
        }
        out.outcomes.push((r.key.core, r.key.seq, ReqOutcome { latency, llc_hit: hit }));
    }

    fn record_sharer(&mut self, line: LineAddr, cluster: usize) {
        if let Some(mut m) = self.cache.peek_mut(line) {
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
    }

    /// LLC-directory-scoped write upgrade (the contract of
    /// `LlcShard::write_upgrade`): an LLC miss has no directory entry, so
    /// the upgrade is counted as lost and propagates nothing.
    fn write_upgrade(&mut self, r: &LlcRequest, out: &mut DrainOut) {
        let Some(mut m) = self.cache.peek_mut(r.line) else {
            self.lost_upgrades += 1;
            return;
        };
        let others = m.sharers() & !(1 << r.cluster);
        if others == 0 {
            m.set_state(MesiState::Modified);
            return;
        }
        m.set_sharers(1 << r.cluster);
        m.set_state(MesiState::Modified);
        out.invals.push((r.key, InvalCmd { line: r.line, others }));
    }

    /// Scalar `insert_guarded`: recomputes `instruction_way_mask` per call
    /// (the batched drain hoists it to construction).
    fn insert_guarded(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        snap: ThresholdSnapshot,
    ) -> u64 {
        if self.cfg.partition_instr_ways > 0 {
            let (i_mask, d_mask) =
                instruction_way_mask(self.cfg.llc_ways, self.cfg.partition_instr_ways);
            let rule = Fill::partition(if ctx.is_instr { i_mask } else { d_mask });
            let out =
                self.cache.fill(self.cache.probe_fill(line), line, ctx, dirty, rule, |_| false);
            if let Some(ev) = out.evicted {
                self.on_evict(ev);
            }
            return 0;
        }

        let Some(pair) = self.pair.as_ref() else {
            let out = self.cache.insert(line, ctx, dirty);
            if let Some(ev) = out.evicted {
                self.on_evict(ev);
            }
            return 0;
        };

        let enable_protection = self.gcfg.as_ref().expect("pair implies config").enable_protection;
        let max_protects = if enable_protection { QBS_MAX_ATTEMPTS } else { 0 };
        let no_bypass = ctx.is_instr
            && enable_protection
            && pair.lookup(line).map(|e| e.aged_cost(snap.color) > snap.threshold).unwrap_or(false);
        let mut queries = 0u32;
        let stats = &mut self.gstats;
        let rule = Fill { bypass: !no_bypass, max_protects, ..Fill::PLAIN };
        let probe = self.cache.probe_fill(line);
        let out = self.cache.fill(probe, line, ctx, dirty, rule, |meta: &LineMeta| {
            queries += 1;
            let protect =
                enable_protection && pair.query_protect(meta.line, snap.color, snap.threshold);
            if protect {
                stats.protections += 1;
            } else {
                stats.declines += 1;
            }
            protect
        });
        let qbs_lat = QBS_LOOKUP_COST * queries as u64;
        self.qbs_cycles += qbs_lat;
        if no_bypass {
            if let Some(way) = self.cache.lookup(line) {
                self.cache.protect_frame(self.cache.set_of(line), way);
            }
        }
        if let Some(ev) = out.evicted {
            self.on_evict(ev);
        }
        qbs_lat
    }

    fn on_evict(&mut self, meta: LineMeta) {
        if meta.dirty {
            self.dram.access(meta.line, 0, true);
        }
    }

    fn apply_cmds(&mut self, cmds: &[(ReqKey, ShardCmd)], snap: ThresholdSnapshot) {
        for (_, cmd) in cmds {
            match *cmd {
                ShardCmd::PairUpdate { il, data_hit, dl } => {
                    if let Some(pair) = self.pair.as_mut() {
                        let idx = self.dppn.as_mut().expect("pair implies dppn").insert(dl.ppn());
                        pair.update_on_data(
                            il,
                            data_hit,
                            idx,
                            dl.line_in_page() as u8,
                            snap.color,
                            snap.threshold,
                        );
                        self.gstats.pair_updates += 1;
                    }
                }
                ShardCmd::PairwisePrefetch { dl, sig, now } => {
                    if self.cache.lookup(dl).is_none() {
                        let ctx =
                            AccessCtx { line: dl, pc_sig: sig, is_instr: false, is_prefetch: true };
                        self.dram.access(dl, now, false);
                        self.insert_guarded(dl, &ctx, false, snap);
                    }
                }
            }
        }
    }
}

/// `(total_sets, shards, idx, ways)` geometries: pow2 and non-pow2 set
/// counts, whole-LLC single-shard views and first/middle/last multi-shard
/// slices (uneven splits included).
const GEOMETRIES: &[(usize, usize, usize, usize)] =
    &[(16, 1, 0, 4), (24, 1, 0, 4), (13, 3, 1, 4), (64, 4, 3, 8), (7, 2, 0, 3), (40, 3, 2, 12)];

/// Scheme axis: plain LRU, Mockingjay+Garibaldi (prefetch + protection),
/// Garibaldi under the instruction oracle, and LRU with way partitioning
/// (the partitioned `fill` with the hoisted mask).
const SCHEMES: usize = 4;

fn test_cfg(scheme_idx: usize, ways: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.llc_ways = ways;
    cfg.profile_reuse = false;
    cfg.partition_instr_ways = 0;
    cfg.i_oracle = false;
    // Small tables so full post-state comparison stays cheap per case.
    let small = GaribaldiConfig {
        pair_entries_log2: 7,
        dppn_entries_log2: 6,
        color_period: 500,
        ..GaribaldiConfig::default()
    };
    match scheme_idx % SCHEMES {
        0 => cfg.scheme = LlcScheme::plain(PolicyKind::Lru),
        1 => cfg.scheme = LlcScheme { policy: PolicyKind::Mockingjay, garibaldi: Some(small) },
        2 => {
            cfg.scheme = LlcScheme { policy: PolicyKind::Lru, garibaldi: Some(small) };
            cfg.i_oracle = true;
        }
        _ => {
            cfg.scheme = LlcScheme::plain(PolicyKind::Lru);
            cfg.partition_instr_ways = (ways / 2).max(1);
        }
    }
    cfg
}

/// One op of the request soup. `sel` picks the request kind, `raw` the
/// line/signature material, `aux` the kind's knobs.
type Op = (u8, u64, u64);

/// Builds a key-sorted request run whose lines all fall in the shard's
/// owned global sets `[base, base + sets)` of a `total_sets`-set LLC.
fn build_requests(ops: &[Op], total_sets: usize, base: usize, sets: usize) -> Vec<LlcRequest> {
    let (m, b, s) = (total_sets as u64, base as u64, sets as u64);
    let mut now = 0u64;
    ops.iter()
        .enumerate()
        .map(|(i, &(sel, raw, aux))| {
            now += 1 + (aux % 3); // strictly ascending keys
            let line = LineAddr::new((raw / s % 16) * m + b + raw % s);
            let kind = match sel % 8 {
                0 | 1 => ReqKind::Instr { demand: true },
                2 => ReqKind::Instr { demand: false },
                3 | 4 => ReqKind::Data {
                    is_write: aux & 1 != 0,
                    il_hint: (aux & 2 != 0).then(|| LineAddr::new((aux >> 2) & 0xff)),
                    ifetch_seq: None,
                },
                5 => ReqKind::Writeback { is_instr: aux & 1 != 0 },
                6 => ReqKind::PfProbe,
                _ => ReqKind::DirUpdate { record: aux & 1 != 0, write: aux & 2 != 0 },
            };
            LlcRequest {
                key: ReqKey { now, core: (raw % 8) as u16, seq: i as u32 },
                line,
                pc: VirtAddr::new(raw << 2),
                sig: raw ^ 0x9e37_79b9,
                cluster: (raw % 4) as u16,
                kind,
            }
        })
        .collect()
}

/// Full post-state equivalence: every cache frame, cache/DRAM/Garibaldi
/// stats, QBS cycles, the oracle seen-set, the whole D_PPN table and the
/// pair-table entries of every line the run could have touched.
fn assert_same_state(
    sh: &LlcShard,
    rf: &RefShard,
    touched: &[LineAddr],
) -> Result<(), TestCaseError> {
    let cfg = sh.cache().config();
    for set in 0..cfg.sets {
        for w in 0..cfg.ways {
            prop_assert_eq!(
                sh.cache().frame_meta(set, w),
                rf.cache.frame_meta(set, w),
                "frame ({}, {}) diverged",
                set,
                w
            );
        }
    }
    prop_assert_eq!(sh.cache().stats(), rf.cache.stats(), "cache stats diverged");
    prop_assert_eq!(sh.dram().stats(), rf.dram.stats(), "dram stats diverged");
    prop_assert_eq!(sh.qbs_cycles(), rf.qbs_cycles, "qbs cycles diverged");
    prop_assert_eq!(sh.lost_upgrades(), rf.lost_upgrades, "lost upgrades diverged");
    let mut a: Vec<u64> = sh.oracle_seen().iter().collect();
    let mut b: Vec<u64> = rf.oracle_seen.iter().collect();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "oracle seen-set diverged");
    match (sh.garibaldi_tables(), rf.pair.as_ref()) {
        (Some((pair, dppn)), Some(rpair)) => {
            prop_assert_eq!(sh.garibaldi_stats(), Some(&rf.gstats), "garibaldi stats diverged");
            prop_assert_eq!(pair.stats(), rpair.stats(), "pair-table stats diverged");
            for &il in touched {
                prop_assert_eq!(pair.entry_for(il), rpair.entry_for(il), "pair entry diverged");
            }
            let rdppn = rf.dppn.as_ref().expect("pair implies dppn");
            prop_assert_eq!(dppn.len(), rdppn.len());
            prop_assert_eq!(dppn.replacements(), rdppn.replacements());
            for i in 0..dppn.len() as u16 {
                prop_assert_eq!(dppn.get(i), rdppn.get(i), "dppn slot {} diverged", i);
            }
        }
        (None, None) => {}
        _ => prop_assert!(false, "garibaldi configuration mismatch between shard and reference"),
    }
    Ok(())
}

/// Drives one `(scheme, geometry, snapshot)` point: drain the identical
/// run on both sides, compare outputs and post-state; on whole-LLC
/// geometries also feed the drain's own command stream (every line is
/// owned) through both `apply_cmds` and compare again.
fn run_case(
    scheme_idx: usize,
    geom_idx: usize,
    snap: ThresholdSnapshot,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let (total_sets, shards, idx, ways) = GEOMETRIES[geom_idx % GEOMETRIES.len()];
    let cfg = test_cfg(scheme_idx, ways);
    let (base, sets) = shard_range(total_sets, shards, idx);
    let reqs = build_requests(ops, total_sets, base, sets);

    let mut touched: Vec<LineAddr> = reqs.iter().map(|r| r.line).collect();
    for r in &reqs {
        if let ReqKind::Data { il_hint: Some(il), .. } = r.kind {
            touched.push(il);
        }
    }

    let mut sh = LlcShard::new(&cfg, idx, shards, total_sets);
    let mut rf = RefShard::new(&cfg, idx, shards, total_sets);
    let mut out = DrainOut::default();
    let mut rout = DrainOut::default();
    sh.drain(&reqs, snap, &mut out);
    rf.drain(&reqs, snap, &mut rout);

    prop_assert_eq!(&out.outcomes, &rout.outcomes, "drain outcomes diverged");
    prop_assert_eq!(&out.cmds, &rout.cmds, "drain cmds diverged");
    prop_assert_eq!(&out.invals, &rout.invals, "drain invals diverged");
    assert_same_state(&sh, &rf, &touched)?;

    if shards == 1 {
        // Whole-LLC view: every command target is owned, so the drain's
        // own stream exercises phase B′ on both sides.
        for &(_, cmd) in &out.cmds {
            let (ShardCmd::PairwisePrefetch { dl, .. } | ShardCmd::PairUpdate { il: dl, .. }) = cmd;
            touched.push(dl);
        }
        sh.apply_cmds(&out.cmds, snap);
        rf.apply_cmds(&rout.cmds, snap);
        assert_same_state(&sh, &rf, &touched)?;
    }
    Ok(())
}

/// The request runs of `k` cores and each core's lane of seqs, with the
/// materialized merge of the requests the lanes name.
type Lanes = (Vec<Vec<LlcRequest>>, Vec<Vec<u16>>, Vec<LlcRequest>);

/// Deals the requests of `ops` into the runs of `k` cores, core `l`
/// issuing with its own clock (ties across cores are common) and sequence,
/// so each run is key-sorted by construction. About one request in five
/// stays out of its core's lane, as a request for another shard would, so
/// the drain must read only the seqs a lane names. Returns the runs, the
/// lanes and the materialized merge of the requests the lanes name.
fn build_lanes(ops: &[Op], k: usize, total_sets: usize, base: usize, sets: usize) -> Lanes {
    let (mut runs, mut lanes) = (vec![Vec::new(); k], vec![Vec::new(); k]);
    if k == 0 {
        return (runs, lanes, Vec::new());
    }
    let mut clock = vec![0u64; k];
    let mut merged = Vec::new();
    let reqs = build_requests(ops, total_sets, base, sets);
    for (mut r, &(_, raw, aux)) in reqs.into_iter().zip(ops) {
        let l = (raw as usize / 7 + aux as usize) % k;
        clock[l] += aux % 3;
        let seq = runs[l].len();
        r.key = ReqKey { now: clock[l], core: l as u16, seq: seq as u32 };
        runs[l].push(r);
        if (raw ^ aux) % 5 != 4 {
            lanes[l].push(seq as u16);
            merged.push(r);
        }
    }
    merged.sort_by_key(|r| r.key);
    (runs, lanes, merged)
}

/// Drains `k` cores' runs through `drain_lanes` and the materialized merge
/// of the requests their lanes name through `drain` (and the scalar
/// reference): outputs and post-state must agree. On whole-LLC geometries
/// the drain's commands, dealt back into per-core runs, go through
/// `apply_cmd_runs` against `apply_cmds` of the merged stream.
fn run_lanes_case(
    scheme_idx: usize,
    geom_idx: usize,
    snap: ThresholdSnapshot,
    ops: &[Op],
    k: usize,
) -> Result<(), TestCaseError> {
    let (total_sets, shards, idx, ways) = GEOMETRIES[geom_idx % GEOMETRIES.len()];
    let cfg = test_cfg(scheme_idx, ways);
    let (base, sets) = shard_range(total_sets, shards, idx);
    let (runs, lanes, merged) = build_lanes(ops, k, total_sets, base, sets);

    let mut touched: Vec<LineAddr> = merged.iter().map(|r| r.line).collect();
    for r in &merged {
        if let ReqKind::Data { il_hint: Some(il), .. } = r.kind {
            touched.push(il);
        }
    }

    let mut sh = LlcShard::new(&cfg, idx, shards, total_sets);
    let mut flat = LlcShard::new(&cfg, idx, shards, total_sets);
    let mut rf = RefShard::new(&cfg, idx, shards, total_sets);
    let (mut out, mut flat_out, mut rout) =
        (DrainOut::default(), DrainOut::default(), DrainOut::default());
    let mut order = vec![(7, 7); 3];
    sh.drain_lanes(&runs, &lanes, &mut order, snap, &mut out);
    flat.drain(&merged, snap, &mut flat_out);
    rf.drain(&merged, snap, &mut rout);

    prop_assert_eq!(order.len(), merged.len(), "one order entry per request");
    prop_assert_eq!(&out.outcomes, &flat_out.outcomes, "merge-order outcomes diverged");
    prop_assert_eq!(&out.cmds, &flat_out.cmds, "merge-order cmds diverged");
    prop_assert_eq!(&out.invals, &flat_out.invals, "merge-order invals diverged");
    prop_assert_eq!(&out.outcomes, &rout.outcomes, "reference outcomes diverged");
    assert_same_state(&sh, &rf, &touched)?;
    assert_same_state(&flat, &rf, &touched)?;

    if shards == 1 {
        let mut cmd_runs = vec![Vec::new(); k.max(1)];
        for &(key, cmd) in &out.cmds {
            let (ShardCmd::PairwisePrefetch { dl, .. } | ShardCmd::PairUpdate { il: dl, .. }) = cmd;
            touched.push(dl);
            cmd_runs[key.core as usize].push((key, cmd));
        }
        sh.apply_cmd_runs(&cmd_runs, &mut order, snap);
        rf.apply_cmds(&rout.cmds, snap);
        assert_same_state(&sh, &rf, &touched)?;
    }
    Ok(())
}

proptest! {
    /// Random request soups across schemes × geometries × epoch snapshots.
    #[test]
    fn batched_drain_matches_scalar_reference(
        ops in prop::collection::vec((0u8..8, 0u64..512, 0u64..1024), 1..400),
        scheme_idx in 0usize..SCHEMES,
        geom_idx in 0usize..GEOMETRIES.len(),
        color in 0u8..8,
        threshold in 0u32..64,
    ) {
        run_case(scheme_idx, geom_idx, ThresholdSnapshot { color, threshold }, &ops)?;
    }

    /// Several cores' runs drained in place through their lanes' merge
    /// order match draining the materialized merge of the named requests.
    #[test]
    fn merge_order_drain_matches_materialized_merge(
        ops in prop::collection::vec((0u8..8, 0u64..512, 0u64..1024), 1..400),
        k in 0usize..12,
        scheme_idx in 0usize..SCHEMES,
        geom_idx in 0usize..GEOMETRIES.len(),
        color in 0u8..8,
        threshold in 0u32..64,
    ) {
        run_lanes_case(scheme_idx, geom_idx, ThresholdSnapshot { color, threshold }, &ops, k)?;
    }

    /// Synthetic command soups through `apply_cmds` on a whole-LLC view:
    /// arbitrary `PairUpdate`/`PairwisePrefetch` interleavings, not just
    /// the ones a drain happens to emit.
    #[test]
    fn batched_apply_cmds_matches_scalar_reference(
        cmds_raw in prop::collection::vec((0u8..2, 0u64..512, 0u64..512, 0u64..2), 1..300),
        scheme_idx in 0usize..SCHEMES,
        color in 0u8..8,
        threshold in 0u32..64,
    ) {
        let (total_sets, _, _, ways) = GEOMETRIES[0];
        let cfg = test_cfg(scheme_idx, ways);
        let snap = ThresholdSnapshot { color, threshold };
        let mut now = 0u64;
        let mut touched = Vec::new();
        let cmds: Vec<(ReqKey, ShardCmd)> = cmds_raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, a, b, hit))| {
                now += 1;
                let key = ReqKey { now, core: (a % 8) as u16, seq: i as u32 };
                let (il, dl) = (LineAddr::new(a), LineAddr::new(b));
                touched.push(il);
                touched.push(dl);
                let cmd = if sel == 0 {
                    ShardCmd::PairUpdate { il, data_hit: hit != 0, dl }
                } else {
                    ShardCmd::PairwisePrefetch { dl, sig: a ^ b, now }
                };
                (key, cmd)
            })
            .collect();
        let mut sh = LlcShard::new(&cfg, 0, 1, total_sets);
        let mut rf = RefShard::new(&cfg, 0, 1, total_sets);
        sh.apply_cmds(&cmds, snap);
        rf.apply_cmds(&cmds, snap);
        assert_same_state(&sh, &rf, &touched)?;
    }
}

/// Deterministic smoke sequence so plain `cargo test` exercises every
/// scheme × geometry point even at a proptest case count of 1.
#[test]
fn batched_drain_matches_reference_fixed_sequence() {
    let mut x = 0x243f_6a88_85a3_08d3u64; // deterministic xorshift64*
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let ops: Vec<Op> = (0..700).map(|_| (next() as u8, next() % 512, next() % 1024)).collect();
    for scheme_idx in 0..SCHEMES {
        for geom_idx in 0..GEOMETRIES.len() {
            let snap = ThresholdSnapshot { color: (geom_idx % 8) as u8, threshold: 24 };
            run_case(scheme_idx, geom_idx, snap, &ops).unwrap();
            for k in [0, 1, 2, 5, 40] {
                run_lanes_case(scheme_idx, geom_idx, snap, &ops, k).unwrap();
            }
        }
    }
}
