//! The per-layer split (`--trace 1`).
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions on inputs taken from the workload's own generated streams:
//!
//! * `trace`: `SimRunner::generate_streams` for the run's records;
//! * `core`: `SetAssocCache::access` at L1 and L2 geometry;
//! * `llc`: `SetAssocCache::access` at LLC geometry, `LlcShard::drain` and
//!   `LlcShard::apply_cmds`;
//! * `garibaldi`: `GaribaldiModule::{on_instr_access, on_data_access}` and
//!   the threshold unit the barrier replays;
//! * `mem`: `DramModel::access`.
//!
//! The probe inputs come from a filter that walks the first
//! [`PROBE_RECORDS_PER_CORE`] records of every core round-robin through
//! private L1/L2 caches and the LLC, so each layer sees the accesses that
//! reach it. A separate traced `w1` run supplies the counters
//! (`RunResult`) and phase seconds (`EngineStats`). Counts times per-call
//! cost rebuild each engine phase; the residual against the measured phase
//! says how much of it the named layers explain.

use crate::workloads::{self, Engine, RunSize};
use crate::{median, ratio, rounds, Args, Checks, Leg, Report};
use garibaldi::{GaribaldiModule, ThresholdUnit};
use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
use garibaldi_mem::DramModel;
use garibaldi_sim::engine::request::{LlcRequest, ReqKey, ReqKind, ShardCmd};
use garibaldi_sim::engine::shard::{DrainOut, LlcShard, ThresholdSnapshot};
use garibaldi_sim::{EngineStats, SystemConfig};
use garibaldi_trace::{registry, PpnAllocator, SharedAddressSpace, TraceRecord, WorkloadClass};
use garibaldi_types::{CoreId, LineAddr, ThreadId, VirtAddr};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// `generate_streams` timings behind `trace.gen_s`.
const GEN_REPEATS: usize = 3;
/// Records per core fed through the probe filter.
const PROBE_RECORDS_PER_CORE: usize = 10_000;
/// Timed passes per probe (after one untimed warm pass); the median counts.
const PROBE_REPEATS: usize = 3;
/// Requests per `LlcShard::drain` call, as in the `shard_drain_run` micro.
const DRAIN_RUN: usize = 512;
/// Approximate core cycles per record, for request timestamps.
const CYCLES_PER_RECORD: u64 = 16;

/// One LLC-bound demand access seen by the probe filter.
#[derive(Clone, Copy)]
struct LlcEvent {
    core: u16,
    /// Record index within the core's stream.
    step: u64,
    pc: VirtAddr,
    line: LineAddr,
    /// The record's own instruction line (the helper-table deduction).
    il: LineAddr,
    sig: u64,
    is_instr: bool,
    is_write: bool,
    hit: bool,
}

impl LlcEvent {
    fn ctx(&self) -> AccessCtx {
        if self.is_instr {
            AccessCtx::instr(self.line, self.sig)
        } else {
            AccessCtx::data(self.line, self.sig)
        }
    }
}

/// Per-level access sequences: `(cache index, context, write)`.
#[derive(Default)]
struct Feed {
    l1: Vec<(u16, AccessCtx, bool)>,
    l2: Vec<(u16, AccessCtx, bool)>,
    llc: Vec<LlcEvent>,
}

/// Demand access with fill on a miss; returns the hit.
fn access_fill(c: &mut SetAssocCache, ctx: &AccessCtx, is_write: bool) -> bool {
    let hit = c.access(ctx, is_write);
    if !hit {
        c.insert(ctx.line, ctx, is_write);
    }
    hit
}

fn lru(bytes: u64, ways: usize) -> SetAssocCache {
    SetAssocCache::new(CacheConfig::from_capacity("probe", bytes, ways), PolicyKind::Lru)
}

fn llc_cache(cfg: &SystemConfig) -> SetAssocCache {
    SetAssocCache::new(
        CacheConfig::from_capacity("probe-llc", cfg.llc_bytes, cfg.llc_ways),
        cfg.scheme.policy,
    )
}

/// Per-core address spaces, allocated as the simulator allocates them:
/// threads of one server process share a space, other programs get their own.
fn address_spaces(slots: &[&str]) -> Vec<SharedAddressSpace> {
    let mut alloc = PpnAllocator::new();
    let mut shared: HashMap<&str, SharedAddressSpace> = HashMap::new();
    slots
        .iter()
        .map(|&name| {
            let p = registry::by_name(name).expect("known profile");
            if p.class == WorkloadClass::Server {
                shared
                    .entry(name)
                    .or_insert_with(|| SharedAddressSpace::new(alloc.alloc_space()))
                    .clone()
            } else {
                SharedAddressSpace::new(alloc.alloc_space())
            }
        })
        .collect()
}

/// PC signature as the simulator forms it for replacement-policy context.
fn sig(core: usize, pc: VirtAddr) -> u64 {
    (pc.get() & !63).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (core as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
}

/// Walks the streams round-robin through private L1I/L1D, per-cluster L2
/// and the LLC, recording the accesses each level sees.
fn filter(cfg: &SystemConfig, slots: &[&str], streams: &[Vec<TraceRecord>]) -> Feed {
    let spaces = address_spaces(slots);
    let mut l1: Vec<SetAssocCache> = (0..cfg.cores)
        .flat_map(|_| [lru(cfg.l1i_bytes, cfg.l1_ways), lru(cfg.l1d_bytes, cfg.l1_ways)])
        .collect();
    let mut l2: Vec<SetAssocCache> =
        (0..cfg.clusters()).map(|_| lru(cfg.l2_bytes, cfg.l2_ways)).collect();
    let mut llc = llc_cache(cfg);
    let mut feed = Feed::default();
    let per_core = streams.iter().map(Vec::len).min().unwrap_or(0).min(PROBE_RECORDS_PER_CORE);
    for step in 0..per_core {
        for (core, (asp, stream)) in spaces.iter().zip(streams).enumerate() {
            let rec = &stream[step];
            let s = sig(core, rec.pc);
            let il = asp.translate_line(rec.pc);
            let refs =
                rec.data_refs().iter().map(|d| (asp.translate_line(d.va), false, d.rw.is_write()));
            for (line, is_instr, is_write) in std::iter::once((il, true, false)).chain(refs) {
                let ctx =
                    if is_instr { AccessCtx::instr(line, s) } else { AccessCtx::data(line, s) };
                let i1 = 2 * core + usize::from(!is_instr);
                feed.l1.push((i1 as u16, ctx, is_write));
                if access_fill(&mut l1[i1], &ctx, is_write) {
                    continue;
                }
                let cl = cfg.cluster_of(core);
                feed.l2.push((cl as u16, ctx, false));
                if access_fill(&mut l2[cl], &ctx, false) {
                    continue;
                }
                let hit = access_fill(&mut llc, &ctx, is_write);
                feed.llc.push(LlcEvent {
                    core: core as u16,
                    step: step as u64,
                    pc: rec.pc,
                    line,
                    il,
                    sig: s,
                    is_instr,
                    is_write,
                    hit,
                });
            }
        }
    }
    feed
}

/// Median seconds of [`PROBE_REPEATS`] timed `pass`es, in ns per call.
fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e9 / calls.max(1) as f64
}

/// ns per access (fill included on a miss) of `ops` against `caches`,
/// after one warm pass over the same sequence.
fn cache_ns(ops: &[(u16, AccessCtx, bool)], mut caches: Vec<SetAssocCache>) -> f64 {
    let mut pass = || {
        for (i, ctx, w) in ops {
            black_box(access_fill(&mut caches[*i as usize], ctx, *w));
        }
    };
    pass();
    ns_per_call(ops.len(), pass)
}

/// Per-call host costs of every layer, in ns.
struct Probes {
    l1_access: f64,
    l2_access: f64,
    llc_access: f64,
    drain_request: f64,
    apply_cmd: f64,
    on_instr: f64,
    on_data: f64,
    threshold: f64,
    dram_access: f64,
}

fn probe(cfg: &SystemConfig, feed: &Feed) -> Probes {
    let gcfg = cfg.scheme.garibaldi.clone().expect("the scheme under test runs Garibaldi");
    let now = |e: &LlcEvent| e.step * CYCLES_PER_RECORD;

    // Caches: each level replays the accesses that reached it.
    let l1 = (0..cfg.cores)
        .flat_map(|_| [lru(cfg.l1i_bytes, cfg.l1_ways), lru(cfg.l1d_bytes, cfg.l1_ways)]);
    let l1_access = cache_ns(&feed.l1, l1.collect());
    let l2_access =
        cache_ns(&feed.l2, (0..cfg.clusters()).map(|_| lru(cfg.l2_bytes, cfg.l2_ways)).collect());
    let llc_ops: Vec<_> = feed.llc.iter().map(|e| (0u16, e.ctx(), e.is_write)).collect();
    let llc_access = cache_ns(&llc_ops, vec![llc_cache(cfg)]);

    // Garibaldi module: warm in event order, then time each entry point
    // over its own events.
    let mut module = GaribaldiModule::new(gcfg.clone(), cfg.cores);
    let instr: Vec<&LlcEvent> = feed.llc.iter().filter(|e| e.is_instr).collect();
    let data: Vec<&LlcEvent> = feed.llc.iter().filter(|e| !e.is_instr).collect();
    let on_instr = |m: &mut GaribaldiModule, e: &LlcEvent| {
        black_box(m.on_instr_access(CoreId::new(e.core), e.pc, e.line, e.hit, true));
    };
    let on_data = |m: &mut GaribaldiModule, e: &LlcEvent| {
        m.on_data_access(CoreId::new(e.core), e.pc, e.line, e.hit);
    };
    for e in &feed.llc {
        if e.is_instr {
            on_instr(&mut module, e);
        } else {
            on_data(&mut module, e);
        }
    }
    let on_instr_ns =
        ns_per_call(instr.len(), || instr.iter().for_each(|e| on_instr(&mut module, e)));
    let on_data_ns = ns_per_call(data.len(), || data.iter().for_each(|e| on_data(&mut module, e)));

    // The threshold unit as the barrier replays it, once per demand access.
    let mut unit = ThresholdUnit::new(&gcfg, cfg.cores);
    let snap = ThresholdSnapshot { color: unit.color(), threshold: unit.threshold() };
    let mut replay = || {
        for e in &feed.llc {
            let t = ThreadId::new(e.core);
            unit.on_llc_access(e.hit);
            if !e.is_instr {
                unit.record_data_access(t, e.pc, e.hit);
            } else if !e.hit {
                unit.record_instr_miss(t, e.pc);
            }
        }
    };
    replay();
    let threshold_ns = ns_per_call(feed.llc.len(), replay);

    // One shard owning the whole LLC drains the events in 512-request runs;
    // the cross-shard commands it emits feed the apply probe.
    let sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;
    let mut shard = LlcShard::new(cfg, 0, 1, sets);
    let reqs: Vec<LlcRequest> = feed
        .llc
        .iter()
        .enumerate()
        .map(|(i, e)| LlcRequest {
            key: ReqKey { now: now(e), core: e.core, seq: i as u32 },
            line: e.line,
            pc: e.pc,
            sig: e.sig,
            cluster: cfg.cluster_of(e.core as usize) as u16,
            kind: if e.is_instr {
                ReqKind::Instr { demand: true }
            } else {
                ReqKind::Data { is_write: e.is_write, il_hint: Some(e.il), ifetch_seq: None }
            },
        })
        .collect();
    let mut out = DrainOut::default();
    let mut cmds: Vec<Vec<(ReqKey, ShardCmd)>> = Vec::new();
    for run in reqs.chunks(DRAIN_RUN) {
        shard.drain(run, snap, &mut out);
        cmds.push(out.cmds.clone());
    }
    let drain_ns = ns_per_call(reqs.len(), || {
        for run in reqs.chunks(DRAIN_RUN) {
            shard.drain(run, snap, &mut out);
        }
    });
    let n_cmds = cmds.iter().map(Vec::len).sum();
    let apply_ns = ns_per_call(n_cmds, || cmds.iter().for_each(|c| shard.apply_cmds(c, snap)));

    // DRAM: the LLC misses, at their issue times.
    let mut dram = DramModel::new(cfg.dram);
    let misses: Vec<(LineAddr, u64)> =
        feed.llc.iter().filter(|e| !e.hit).map(|e| (e.line, now(e))).collect();
    let mut dram_pass = || {
        for &(line, t) in &misses {
            black_box(dram.access(line, t, false));
        }
    };
    dram_pass();
    let dram_ns = ns_per_call(misses.len(), dram_pass);

    Probes {
        l1_access,
        l2_access,
        llc_access,
        drain_request: drain_ns,
        apply_cmd: apply_ns,
        on_instr: on_instr_ns,
        on_data: on_data_ns,
        threshold: threshold_ns,
        dram_access: dram_ns,
    }
}

/// Median of one `EngineStats` field across runs.
fn med(stats: &[EngineStats], f: impl Fn(&EngineStats) -> f64) -> f64 {
    median(&stats.iter().map(f).collect::<Vec<_>>())
}

pub(crate) fn per_layer(a: &Args, checks: &mut Checks, out: &mut Report) {
    let w = a.workload;
    let size = workloads::TIMED;
    let total = size.records + size.warmup;
    let mg = workloads::runner(w, workloads::scheme_under_test(), a.seed);
    let cfg = mg.config().clone();
    let slots: Vec<&str> = (0..cfg.cores).map(|i| w.profiles[i % w.profiles.len()]).collect();

    // Trace layer: generate the run's records, then feed the probes from them.
    let mut gen = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..GEN_REPEATS {
        drop(std::mem::take(&mut streams));
        let t = Instant::now();
        streams = mg.generate_streams(total);
        gen.push(t.elapsed().as_secs_f64());
    }
    let gen_s = median(&gen);
    let feed = filter(&cfg, &slots, &streams);
    drop(streams);
    let p = probe(&cfg, &feed);
    drop(feed);

    // The end-to-end w1 and w2 legs, plus the traced w1 run: every record
    // measured (no warmup), so its counters cover exactly the records its
    // phase seconds cover.
    let legs = [
        Leg::new("w1", Engine::Workers(1), size),
        Leg::new("w1-traced", Engine::Workers(1), RunSize { records: total, warmup: 0 }),
        Leg::new("w2", Engine::Workers(2), size),
    ];
    let (runs, n_rounds) = rounds(w, &mg, &legs, a.seconds, checks);
    let [untraced, traced, w2] = &runs[..] else { unreachable!("three legs") };
    let r = traced.last.as_ref().expect("at least one traced run");
    let st = &traced.stats;
    let n = size.total() as f64;
    let rps = |secs: &[f64]| median(&secs.iter().map(|t| n / t).collect::<Vec<_>>());
    let step_s = med(st, |s| s.step_s);
    let drain_s = med(st, |s| s.drain_s);
    let serial_s = med(st, |s| s.serial_s);
    let core_self = step_s - gen_s;
    let l1d_hits = r.l1.hits() - r.l1i.hits();
    let l1d_acc = r.l1.accesses() - r.l1i.accesses();
    let cpi = r.mean_cpi_stack();
    let g = r.garibaldi.as_ref().expect("the scheme under test runs Garibaldi");
    let gs = g.stats;
    let scaling = ratio(median(&untraced.scaled), median(&w2.scaled));

    // Cost model: counts of the traced run times per-call costs.
    let m_trace = gen_s;
    let m_l1 = r.l1.accesses() as f64 * p.l1_access * 1e-9;
    let m_l2 = r.l2.accesses() as f64 * p.l2_access * 1e-9;
    let m_llc = r.llc.accesses() as f64 * p.llc_access * 1e-9;
    let m_gar = gs.instr_accesses as f64 * p.on_instr * 1e-9;
    let m_dram = r.dram.accesses() as f64 * p.dram_access * 1e-9;
    let m_thresh = r.llc.accesses() as f64 * p.threshold * 1e-9;
    let m_apply = (gs.pair_updates + gs.prefetches_issued) as f64 * p.apply_cmd * 1e-9;
    let residual = |measured: f64, model: f64| 100.0 * ratio(measured - model, measured);

    out.put("trace.gen_s", gen_s, "s");
    out.put("trace.ns_per_record", gen_s * 1e9 / n, "ns");

    out.put("engine.step_s", step_s, "s");
    out.put("core.self_s", core_self, "s");
    out.put("core.ns_per_record", core_self * 1e9 / n, "ns");
    out.put("l1i.hit_rate", ratio(r.l1i.hits() as f64, r.l1i.accesses() as f64), "ratio");
    out.put("l1d.hit_rate", ratio(l1d_hits as f64, l1d_acc as f64), "ratio");
    out.put("l2.hit_rate", ratio(r.l2.hits() as f64, r.l2.accesses() as f64), "ratio");
    out.put("core.ifetch_cpi", cpi.ifetch, "CPI");
    out.put("core.data_cpi", cpi.data, "CPI");
    out.put("l1.access_ns", p.l1_access, "ns");
    out.put("l2.access_ns", p.l2_access, "ns");

    out.put("engine.drain_s", drain_s, "s");
    out.put(
        "engine.drain_imbalance",
        med(st, |s| s.drain_imbalance().map_or(1.0, |(max, mean)| ratio(max, mean))),
        "ratio",
    );
    out.put("llc.accesses", r.llc.accesses() as f64, "count");
    out.put("llc.instr_ratio", r.llc.instr_access_ratio(), "ratio");
    out.put("llc.i_miss_rate", r.llc.i_miss_rate(), "ratio");
    out.put("llc.d_miss_rate", r.llc.d_miss_rate(), "ratio");
    out.put("llc.ns_per_access", drain_s * 1e9 / (r.llc.accesses().max(1)) as f64, "ns");
    out.put("llc.access_ns", p.llc_access, "ns");
    out.put("llc.drain_run_ns", p.drain_request * DRAIN_RUN as f64, "ns");
    out.put("llc.apply_cmd_ns", p.apply_cmd, "ns");

    out.put("garibaldi.instr_misses", gs.instr_misses as f64, "count");
    out.put("garibaldi.pair_updates", gs.pair_updates as f64, "count");
    out.put("garibaldi.protections", gs.protections as f64, "count");
    out.put("garibaldi.prefetches_issued", gs.prefetches_issued as f64, "count");
    out.put(
        "garibaldi.protect_ratio",
        ratio(gs.protections as f64, (gs.protections + gs.declines) as f64),
        "ratio",
    );
    out.put(
        "llc.prefetch_useful_ratio",
        ratio(r.llc.prefetch_useful as f64, r.llc.prefetch_fills as f64),
        "ratio",
    );
    out.put("garibaldi.helper_hit_rate", g.helper_hit_rate, "ratio");
    out.put("garibaldi.final_threshold", g.final_threshold as f64, "count");
    out.put("garibaldi.p_imiss_given_dhit", r.conditional.miss_rate_data_hit(), "ratio");
    out.put("garibaldi.p_imiss_given_dmiss", r.conditional.miss_rate_data_miss(), "ratio");
    out.put("garibaldi.on_instr_access_ns", p.on_instr, "ns");
    out.put("garibaldi.on_data_access_ns", p.on_data, "ns");
    out.put("garibaldi.threshold_ns", p.threshold, "ns");

    out.put("dram.reads", r.dram.reads as f64, "count");
    out.put("dram.writes", r.dram.writes as f64, "count");
    out.put("dram.access_ns", p.dram_access, "ns");

    out.put("engine.serial_s", serial_s, "s");
    out.put("engine.apply_s", med(st, |s| s.apply_s), "s");
    out.put("engine.merge_s", med(st, |s| s.merge_s), "s");
    out.put("engine.epochs", med(st, |s| s.epochs as f64), "count");
    out.put("engine.learned_syncs", med(st, |s| s.learned_syncs as f64), "count");
    out.put("engine.inval_cmds", med(st, |s| s.inval_cmds as f64), "count");
    out.put("coherence.invalidations", r.invalidations as f64, "count");
    // Share of the traced run's engine wall spent in the phases that run on
    // the workers (step, drain, apply): the Amdahl p behind any speedup.
    out.put(
        "engine.parallel_fraction",
        med(st, |s| ratio(s.step_s + s.drain_s + s.apply_s, s.wall_s)),
        "fraction",
    );
    out.put("engine.w2_scaling", scaling, "ratio");

    out.put("model.step.trace_s", m_trace, "s");
    out.put("model.step.l1_s", m_l1, "s");
    out.put("model.step.l2_s", m_l2, "s");
    out.put("model.drain.llc_s", m_llc, "s");
    out.put("model.drain.garibaldi_s", m_gar, "s");
    out.put("model.drain.dram_s", m_dram, "s");
    out.put("model.serial.threshold_s", m_thresh, "s");
    out.put("model.serial.pair_apply_s", m_apply, "s");
    out.put("engine.model_residual_pct.step", residual(step_s, m_trace + m_l1 + m_l2), "%");
    out.put("engine.model_residual_pct.drain", residual(drain_s, m_llc + m_gar + m_dram), "%");
    out.put("engine.model_residual_pct.serial", residual(serial_s, m_thresh + m_apply), "%");

    let (rps_traced, rps_untraced) = (rps(&traced.scaled), rps(&untraced.scaled));
    out.put("trace.rps_w1_traced", rps_traced, "records/s");
    out.put("trace.rps_w1_untraced", rps_untraced, "records/s");
    out.put("trace.overhead_pct", 100.0 * ratio(rps_untraced - rps_traced, rps_untraced), "%");
    println!(
        "note: {n_rounds} rounds of untraced w1 / traced w1 / w2; probes fed by the first \
         {PROBE_RECORDS_PER_CORE} records of each core"
    );
}
