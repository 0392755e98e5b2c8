//! Hierarchy-level invariants: the walk through the private tiers, the
//! directory, the Garibaldi hooks, oracle semantics, partitioning,
//! coherence, and the non-inclusive LLC's behaviour.
//!
//! Directed tests drive the serial schedule ([`EngineChoice::Serial`])
//! one scripted record at a time; every core translates through one shared
//! address space, so a virtual line names the same physical line on every
//! core.

use garibaldi_cache::{CacheConfig, CacheStats, MesiState, PolicyKind};
use garibaldi_sim::engine::private::RecordSource;
use garibaldi_sim::engine::request::{LlcRequest, ReqKey, ReqKind};
use garibaldi_sim::engine::shard::{DrainOut, LlcShard, ThresholdSnapshot};
use garibaldi_sim::{
    EngineChoice, ExperimentScale, LlcScheme, ParallelEngine, SimRunner, SystemConfig,
};
use garibaldi_trace::{SharedAddressSpace, TraceRecord, WorkloadMix};
use garibaldi_types::{Fields, LineAddr, RwKind, VirtAddr};

fn small_cfg(scheme: LlcScheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(&ExperimentScale::smoke(), scheme);
    cfg.cores = 8; // two L2 clusters for the coherence checks
    cfg
}

/// [`small_cfg`] with every prefetcher off, so each fill in a directed test
/// is a demand fill the assertions can reason about.
fn quiet_cfg(scheme: LlcScheme) -> SystemConfig {
    let mut cfg = small_cfg(scheme);
    cfg.l1i_prefetcher = false;
    cfg.l1d_prefetcher = false;
    cfg.l2_prefetcher = false;
    cfg
}

const PC: u64 = 0x40_0000;

/// A record fetching `pc` and touching one data line (`None`: fetch only).
fn rec(pc: u64, data: Option<(u64, RwKind)>) -> TraceRecord {
    let mut r = TraceRecord::fetch_only(VirtAddr::new(pc), 8);
    if let Some((va, rw)) = data {
        r.push_data(VirtAddr::new(va), rw);
    }
    r
}

/// The serial schedule over `streams`, one per core, in address space `asp`.
fn serial<'p>(
    cfg: &SystemConfig,
    asp: &SharedAddressSpace,
    streams: &'p [Vec<TraceRecord>],
) -> ParallelEngine<'p> {
    let cores = streams
        .iter()
        .map(|s| (RecordSource::Replay { records: s, pos: 0 }, asp.clone()))
        .collect();
    ParallelEngine::new(
        cfg,
        &EngineChoice::Serial,
        WorkloadMix::homogeneous("tpcc", cfg.cores),
        cores,
    )
}

/// Private-tier `(L1, L2)` stats summed over every cluster.
fn private_stats(e: &ParallelEngine<'_>) -> (CacheStats, CacheStats) {
    let (mut l1, mut l2) = (CacheStats::default(), CacheStats::default());
    for cl in e.clusters() {
        let (c1, _, c2) = cl.tier.stats();
        l1.merge(&c1);
        l2.merge(&c2);
    }
    (l1, l2)
}

fn llc_stats(e: &ParallelEngine<'_>) -> CacheStats {
    *e.shards()[0].cache().stats()
}

#[derive(Debug, PartialEq)]
enum Level {
    L1,
    L2,
    Llc,
    Memory,
}

/// Steps `core` through its next record and reports the tier that served
/// the record's one data reference.
fn step_data(e: &mut ParallelEngine<'_>, core: usize) -> Level {
    let ((l1, l2), llc) = (private_stats(e), llc_stats(e));
    e.step_serial(core);
    let ((l1b, l2b), llcb) = (private_stats(e), llc_stats(e));
    if l1b.d_hits > l1.d_hits {
        Level::L1
    } else if l2b.d_hits > l2.d_hits {
        Level::L2
    } else if llcb.d_hits > llc.d_hits {
        Level::Llc
    } else {
        Level::Memory
    }
}

#[test]
fn instruction_fetch_walks_the_hierarchy() {
    let cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Lru));
    let asp = SharedAddressSpace::new(1);
    let mut streams = vec![Vec::new(); cfg.cores];
    streams[0] = vec![rec(PC, None), rec(PC, None)];
    let mut e = serial(&cfg, &asp, &streams);
    // Cold: the fetch misses every tier down to DRAM.
    e.step_serial(0);
    let llc = llc_stats(&e);
    assert_eq!((llc.i_accesses, llc.i_misses()), (1, 1));
    let cold = e.clusters()[0].cores[0].clock;
    // Warm: an L1I hit, invisible to the LLC and charged no stall.
    e.step_serial(0);
    let (l1, _) = private_stats(&e);
    assert_eq!(l1.i_hits, 1);
    assert_eq!(llc_stats(&e).i_accesses, 1);
    let warm = e.clusters()[0].cores[0].clock - cold;
    assert!(cold > warm, "cold record {cold} cycles vs warm {warm}");
}

#[test]
fn sibling_core_hits_shared_l2() {
    let cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Lru));
    let asp = SharedAddressSpace::new(1);
    let read = vec![rec(PC, Some((0x9_9990, RwKind::Read)))];
    let streams = vec![read; cfg.cores];
    let mut e = serial(&cfg, &asp, &streams);
    assert_eq!(step_data(&mut e, 0), Level::Memory);
    // Core 1 shares core 0's L2 cluster: the line is already there.
    assert_eq!(step_data(&mut e, 1), Level::L2);
    // Core 4 is in another cluster: it must go to the LLC.
    assert_eq!(step_data(&mut e, 4), Level::Llc);
}

#[test]
fn llc_records_sharers_across_clusters() {
    let cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Lru));
    let asp = SharedAddressSpace::new(1);
    let va = 0x4200;
    let streams = vec![vec![rec(PC, Some((va, RwKind::Read)))]; cfg.cores];
    let mut e = serial(&cfg, &asp, &streams);
    e.step_serial(0);
    e.step_serial(4);
    let meta = e.shards()[0].cache().peek(asp.translate_line(VirtAddr::new(va))).expect("resident");
    assert_eq!(meta.sharer_count(), 2);
    assert_eq!(meta.state, MesiState::Shared);
}

#[test]
fn garibaldi_sees_only_llc_level_traffic() {
    let cfg = quiet_cfg(LlcScheme::mockingjay_garibaldi());
    let asp = SharedAddressSpace::new(1);
    let mut streams = vec![Vec::new(); cfg.cores];
    streams[0] = vec![rec(PC, None), rec(PC, None)];
    let mut e = serial(&cfg, &asp, &streams);
    e.step_serial(0); // reaches the LLC (cold)
    e.step_serial(0); // L1I hit: invisible to the module
    let g = e.shards()[0].garibaldi_stats().expect("garibaldi configured");
    assert_eq!(g.instr_accesses, 1);
}

/// §4.3 at the shard: a data access deduced to pair with `il` teaches the
/// pair table, and a later unprotected miss on `il` installs the paired
/// data line as a prefetched LLC line.
#[test]
fn pairwise_prefetch_installs_llc_lines() {
    let cfg = quiet_cfg(LlcScheme::with_garibaldi(PolicyKind::Lru));
    let sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;
    let mut sh = LlcShard::new(&cfg, 0, 1, sets);
    // A threshold no cost exceeds: nothing is protected, so the miss on
    // `il` prefetches instead of defending.
    let snap = ThresholdSnapshot { color: 0, threshold: u32::MAX };
    let (il, dl) = (LineAddr::new(0x100), LineAddr::new(0x200));
    let mut seq = 0;
    let mut drain = |sh: &mut LlcShard, line: LineAddr, kind: ReqKind| {
        let req = LlcRequest {
            key: ReqKey { now: 10 * seq as u64, core: 0, seq },
            line,
            pc: VirtAddr::new(PC),
            sig: 0x9e37,
            cluster: 0,
            kind,
        };
        seq += 1;
        let mut out = DrainOut::default();
        sh.drain(&[req], snap, &mut out);
        sh.apply_cmds(&out.cmds, snap);
    };
    let data = |il_hint| ReqKind::Data { is_write: false, il_hint, ifetch_seq: None };
    // Teach the pair, then push `dl` out of its LLC set with plain data.
    drain(&mut sh, dl, data(Some(il)));
    for k in 1..=cfg.llc_ways as u64 {
        drain(&mut sh, LineAddr::new(dl.get() + k * sets as u64), data(None));
    }
    assert!(sh.cache().peek(dl).is_none(), "conflicts evicted the paired line");
    let before = sh.cache().stats().prefetch_fills;
    drain(&mut sh, il, ReqKind::Instr { demand: true });
    assert!(
        sh.cache().stats().prefetch_fills > before,
        "pairwise prefetch installed the paired data line"
    );
    assert!(sh.cache().peek(dl).is_some_and(|m| m.prefetched), "paired line resident");
}

#[test]
fn i_oracle_hits_after_first_access() {
    let mut cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Lru));
    cfg.i_oracle = true;
    let asp = SharedAddressSpace::new(1);
    // Fetch many distinct instruction lines so L1/L2 cannot hold them, then
    // refetch: the oracle LLC must serve every one.
    let n = 200_000u64;
    let fetch = |i: u64| rec(PC + i * 64, None);
    let mut streams = vec![Vec::new(); cfg.cores];
    streams[0] = (0..n).chain(0..1000).map(fetch).collect();
    let mut e = serial(&cfg, &asp, &streams);
    for _ in 0..n {
        e.step_serial(0);
    }
    let before = llc_stats(&e).i_hits;
    for _ in 0..1000 {
        e.step_serial(0);
    }
    let after = llc_stats(&e).i_hits;
    assert_eq!(after - before, 1000, "oracle: every refetch hits at the LLC");
}

#[test]
fn partitioning_keeps_masks_disjoint_and_runs() {
    let mut cfg = small_cfg(LlcScheme::plain(PolicyKind::Mockingjay));
    cfg.partition_instr_ways = 2;
    let s = ExperimentScale::smoke();
    let r = SimRunner::new(cfg, WorkloadMix::homogeneous("tpcc", 8), 3)
        .run(s.records_per_core, s.warmup_per_core);
    assert!(r.llc.accesses() > 0);
    // With strict partitioning no QBS guard runs.
    assert_eq!(r.llc.guarded_protections, 0);
    assert_eq!(r.qbs_cycles, 0);
}

#[test]
fn write_invalidates_remote_cluster_copies() {
    let cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Lru));
    let asp = SharedAddressSpace::new(1);
    let va = 0xAB_CD00;
    let read = rec(PC, Some((va, RwKind::Read)));
    let mut streams = vec![Vec::new(); cfg.cores];
    streams[0] = vec![read, rec(PC, Some((va, RwKind::Write)))];
    streams[4] = vec![read, read];
    let mut e = serial(&cfg, &asp, &streams);
    // Core 0 (cluster 0) and core 4 (cluster 1) both read the line.
    e.step_serial(0);
    e.step_serial(4);
    assert_eq!(e.invalidations(), 0);
    // Core 0 writes: cluster 1's copy must be invalidated.
    e.step_serial(0);
    assert!(e.invalidations() >= 1, "remote sharer invalidated");
    // Cluster 1 reads again: it cannot hit in its private caches.
    let served = step_data(&mut e, 4);
    assert!(
        matches!(served, Level::Llc | Level::Memory),
        "invalidated line cannot hit in remote private caches (served at {served:?})"
    );
}

#[test]
fn dirty_l2_evictions_write_back_to_llc_then_dram() {
    let s = ExperimentScale::smoke();
    let cfg = small_cfg(LlcScheme::plain(PolicyKind::Lru));
    let r = SimRunner::new(cfg, WorkloadMix::homogeneous("ycsb", 8), 3)
        .run(s.records_per_core, s.warmup_per_core);
    assert!(r.llc.writebacks > 0 || r.dram.writes > 0, "writebacks flow downward");
}

#[test]
fn llc_occupancy_never_exceeds_capacity() {
    let cfg = quiet_cfg(LlcScheme::plain(PolicyKind::Drrip));
    let asp = SharedAddressSpace::new(1);
    let n = 200_000u64;
    let streams: Vec<Vec<TraceRecord>> = (0..cfg.cores as u64)
        .map(|c| {
            (0..n / cfg.cores as u64)
                .map(|j| rec(PC, Some(((j * cfg.cores as u64 + c) * 64, RwKind::Read))))
                .collect()
        })
        .collect();
    let mut e = serial(&cfg, &asp, &streams);
    for i in 0..n {
        e.step_serial((i % cfg.cores as u64) as usize);
    }
    let llc = e.shards()[0].cache();
    assert!(llc.occupancy() <= llc.config().sets * llc.config().ways);
}

#[test]
fn prefetched_lines_register_and_get_consumed() {
    let s = ExperimentScale::smoke();
    let cfg = small_cfg(LlcScheme::plain(PolicyKind::Lru));
    let r = SimRunner::new(cfg, WorkloadMix::homogeneous("bwaves", 8), 3)
        .run(s.records_per_core, s.warmup_per_core);
    // The streaming workload exercises next-line/GHB heavily.
    assert!(r.l1.prefetch_fills > 0, "prefetches were issued");
    assert!(r.l1.prefetch_useful > 0, "some prefetches were consumed by demand");
}
