//! Machine-readable performance snapshot: the PR 2 40-core reference
//! point's engine phase breakdown plus the hot-structure micro-bench
//! ns/iter numbers, as one JSON document.
//!
//! This is the perf trajectory's unit of record: each optimization PR
//! regenerates it and commits the result as `BENCH_<n>.json` at the repo
//! root, so regressions show up as reviewable diffs instead of buried
//! bench logs. The CI perf-smoke leg runs this target and prints the same
//! breakdown into the job log, plus a `workers=2` row beside the recorded
//! `workers=1` one so the log shows what the worker pool buys.
//!
//! ```console
//! $ cargo bench -p garibaldi-bench --bench perf_snapshot
//! $ cp target/garibaldi-results/perf_snapshot.json BENCH_<n>.json
//! ```
//!
//! Knobs: `GARIBALDI_PERF_RECORDS` / `GARIBALDI_PERF_WARMUP` shrink the
//! reference point (CI smoke); the committed snapshot uses the defaults
//! (30 k + 7.5 k records/core × 40 cores = 1.5 M records, the PR 2
//! reference). Wall-clock numbers are machine-dependent — compare
//! snapshots from the same host class only.

use garibaldi_bench::*;
use garibaldi_sim::EngineStats;
use garibaldi_trace::{random_shared_mixes, WorkloadMix};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The engine leg of the snapshot: the parallel engine's one profile.
struct EngineLeg {
    tag: String,
    stats: EngineStats,
    harmonic_mean_ipc: f64,
}

fn reference_runner(records: u64, warmup: u64) -> (SimRunner, u64, u64) {
    let scale = ExperimentScale {
        factor: 1.0,
        cores: 40,
        records_per_core: records,
        warmup_per_core: warmup,
        color_period: (records / 8).max(1_000),
    };
    let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
    let workloads = ["tpcc", "twitter", "kafka", "verilator"];
    let slots: Vec<String> = (0..40).map(|i| workloads[i % 4].to_string()).collect();
    (SimRunner::new(cfg, WorkloadMix { slots }, 42), records, warmup)
}

fn run_leg(runner: &SimRunner, records: u64, warmup: u64, workers: usize) -> EngineLeg {
    let eng = EngineConfig::with_workers(workers);
    let tag = EngineChoice::Parallel(eng).tag();
    let (result, stats) = runner.run_parallel_stats(records, warmup, &eng);
    println!(
        "[perf] {tag} workers={workers} wall={:.3}s step={:.3}s drain={:.3}s merge={:.3}s \
         apply={:.3}s serial={:.3}s epochs={} syncs={} hmean-ipc={:.4}",
        stats.wall_s,
        stats.step_s,
        stats.drain_s,
        stats.merge_s,
        stats.apply_s,
        stats.serial_s,
        stats.epochs,
        stats.learned_syncs,
        result.harmonic_mean_ipc(),
    );
    EngineLeg { tag, stats, harmonic_mean_ipc: result.harmonic_mean_ipc() }
}

/// The shared-data coherence reference point (PR 8): an 8-core random
/// shared mix (two L2 clusters, so the LLC directory actually carries
/// cross-cluster invalidations) under the reference scheme on the parallel
/// engine. Tracks the MESI path's cost and activity: `invalidations` is the
/// serial-comparable drop count from the run result, `inval_cmds` the
/// popcount-weighted invalidation commands the shards issued. Both must stay
/// > 0 — a zero here means the directory path went dormant.
struct SharedLeg {
    mix: String,
    stats: EngineStats,
    harmonic_mean_ipc: f64,
    invalidations: u64,
}

fn shared_reference(records: u64, warmup: u64) -> SharedLeg {
    let scale = ExperimentScale {
        factor: 1.0,
        cores: 8,
        records_per_core: records,
        warmup_per_core: warmup,
        color_period: (records / 8).max(1_000),
    };
    let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
    let mix = random_shared_mixes(1, scale.cores, 42).remove(0);
    let mix_label = mix.slots.join(",");
    let runner = SimRunner::new(cfg, mix, 42);
    let eng = EngineConfig::default();
    let (result, stats) = runner.run_parallel_stats(records, warmup, &eng);
    println!(
        "[perf] shared-ref ({mix_label}) wall={:.3}s invals={} inval-cmds={} hmean-ipc={:.4}",
        stats.wall_s,
        result.invalidations,
        stats.inval_cmds,
        result.harmonic_mean_ipc(),
    );
    SharedLeg {
        mix: mix_label,
        stats,
        harmonic_mean_ipc: result.harmonic_mean_ipc(),
        invalidations: result.invalidations,
    }
}

/// Times `f` (ns/iter): short warmup, then a fixed-iteration measured loop
/// sized from the warmup estimate. Coarse by design — the snapshot tracks
/// order-of-magnitude regressions, not single-digit percents.
fn ns_per_iter<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed().as_millis() < 30 {
        black_box(f());
        warm += 1;
    }
    let per = (t0.elapsed().as_nanos() as f64 / warm as f64).max(0.5);
    let iters = ((150e6 / per) as u64).clamp(1_000, 50_000_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t1.elapsed().as_nanos() as f64 / iters as f64
}

fn micro_benches() -> Vec<(&'static str, f64)> {
    use garibaldi::{DppnTable, GaribaldiConfig, PairTable};
    use garibaldi_sim::ReuseProfiler;
    use garibaldi_types::{AccessKind, LineAddr, U64Table};

    let mut out = Vec::new();

    // Pair table: allocate/update and protection queries (the shared
    // fast-hash index mixer's consumers).
    let cfg = GaribaldiConfig::default();
    let mut t = PairTable::new(&cfg);
    let mut i = 0u64;
    out.push((
        "pair_table_update",
        ns_per_iter(|| {
            i = i.wrapping_add(1);
            t.update_on_data(
                LineAddr::new(i % 100_000),
                i % 3 == 0,
                (i % 8_192) as u16,
                (i % 64) as u8,
                (i % 8) as u8,
                32,
            );
        }),
    ));
    let mut q = 0u64;
    out.push((
        "pair_table_query",
        ns_per_iter(|| {
            q = q.wrapping_add(17);
            t.query_protect(LineAddr::new(q % 100_000), 0, 32)
        }),
    ));
    let dppn = DppnTable::new(64);
    let mut pf_buf = Vec::new();
    let mut p = 0u64;
    out.push((
        "pair_table_prefetch_candidates_into",
        ns_per_iter(|| {
            p = p.wrapping_add(31);
            t.prefetch_candidates_into(LineAddr::new(p % 100_000), &dppn, &mut pf_buf);
        }),
    ));

    // Reuse profiler (the micro_reuse guard, snapshot form).
    let mut prof = ReuseProfiler::new(1);
    let mut r = 0u64;
    out.push((
        "reuse_access_shallow",
        ns_per_iter(|| {
            r = r.wrapping_add(1);
            prof.on_access(LineAddr::new((r % 16) * 8), AccessKind::Data, r % 7);
        }),
    ));
    let mut prof_deep = ReuseProfiler::new(1);
    let mut d = 0u64;
    out.push((
        "reuse_access_deep",
        ns_per_iter(|| {
            d = d.wrapping_add(1);
            prof_deep.on_access(LineAddr::new((d % 400) * 8), AccessKind::Data, d % 7);
        }),
    ));

    // The open-addressed table against std's SipHash HashMap on the same
    // churn pattern (the tentpole's constant factor, isolated).
    let mut fast: U64Table<u64> = U64Table::new();
    let mut k = 0u64;
    out.push((
        "u64table_insert_get_remove",
        ns_per_iter(|| {
            k = k.wrapping_add(1);
            fast.insert(k % 4096, k);
            black_box(fast.get((k * 7) % 4096));
            fast.remove((k * 13) % 4096);
        }),
    ));
    let mut slow: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut k2 = 0u64;
    out.push((
        "std_hashmap_insert_get_remove",
        ns_per_iter(|| {
            k2 = k2.wrapping_add(1);
            slow.insert(k2 % 4096, k2);
            black_box(slow.get(&((k2 * 7) % 4096)));
            slow.remove(&((k2 * 13) % 4096));
        }),
    ));

    // SoA tag-array hot paths: single-pass way scan on hit and miss, and
    // the full evict+fill pipeline (scan → victim → evict → fill) under
    // LRU on an LLC-like non-pow2 geometry (modulo set indexing, the
    // worst case for the index arithmetic).
    use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
    let mk_llc = || SetAssocCache::new(CacheConfig::new("bench-llc", 1_920, 12), PolicyKind::Lru);
    let resident = 1_920u64 * 12;

    let mut hit_c = mk_llc();
    for l in 0..resident {
        hit_c.insert(LineAddr::new(l), &AccessCtx::data(LineAddr::new(l), l), false);
    }
    let mut h = 0u64;
    out.push((
        "setassoc_access_hit",
        ns_per_iter(|| {
            h = h.wrapping_add(7);
            let la = LineAddr::new(h % resident);
            hit_c.access(&AccessCtx::data(la, h), false)
        }),
    ));

    let mut miss_c = mk_llc();
    for l in 0..resident {
        miss_c.insert(LineAddr::new(l), &AccessCtx::data(LineAddr::new(l), l), false);
    }
    let mut ms = 0u64;
    out.push((
        "setassoc_access_miss",
        ns_per_iter(|| {
            ms = ms.wrapping_add(7);
            // Lines beyond the resident range: same sets, no tag match.
            let la = LineAddr::new(resident + ms % resident);
            miss_c.access(&AccessCtx::data(la, ms), false)
        }),
    ));

    let mut ev_c = mk_llc();
    for l in 0..resident {
        ev_c.insert(LineAddr::new(l), &AccessCtx::data(LineAddr::new(l), l), false);
    }
    let mut e = 0u64;
    out.push((
        "setassoc_insert_evict",
        ns_per_iter(|| {
            e = e.wrapping_add(1);
            // Strictly increasing lines: every insert misses a full set and
            // evicts (13 distinct lines rotate per set under 12 ways).
            ev_c.insert(LineAddr::new(resident + e), &AccessCtx::data(LineAddr::new(e), e), false)
        }),
    ));

    // Temporal prefetcher miss path (U64Table-backed successor table).
    let mut tp = garibaldi_cache::TemporalPrefetcher::new();
    let mut cand = Vec::new();
    let mut m = 0u64;
    out.push((
        "temporal_prefetcher_miss",
        ns_per_iter(|| {
            use garibaldi_cache::Prefetcher;
            m = m.wrapping_add(1);
            cand.clear();
            tp.on_access(LineAddr::new(m % 10_000), 0, false, &mut cand);
        }),
    ));

    // Batched shard drain (phase A) and command application (phase B′):
    // one whole-LLC shard under the reference scheme resolving a
    // pre-sorted 512-request run / 512-command soup per iteration — the
    // two loops the software-pipelined lookahead window targets.
    {
        use garibaldi_sim::engine::request::{LlcRequest, ReqKey, ReqKind, ShardCmd};
        use garibaldi_sim::engine::shard::{DrainOut, LlcShard, ThresholdSnapshot};
        use garibaldi_types::VirtAddr;

        let scale = ExperimentScale {
            factor: 1.0,
            cores: 40,
            records_per_core: 30_000,
            warmup_per_core: 7_500,
            color_period: 3_750,
        };
        let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
        let llc_sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;
        let mut shard = LlcShard::new(&cfg, 0, 1, llc_sets);
        let snap = ThresholdSnapshot { color: 0, threshold: 4 };

        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        const RUN: u32 = 512;
        let mut reqs = Vec::with_capacity(RUN as usize);
        let mut now = 0u64;
        for s in 0..RUN {
            let a = step();
            now += 1 + a % 3;
            let kind = match a % 8 {
                0..=2 => ReqKind::Instr { demand: a % 16 < 12 },
                3..=5 => ReqKind::Data {
                    is_write: a % 5 == 0,
                    il_hint: (a % 3 == 0).then(|| LineAddr::new((a >> 8) % (1 << 20))),
                    ifetch_seq: None,
                },
                6 => ReqKind::Writeback { is_instr: a % 2 == 0 },
                _ => ReqKind::PfProbe,
            };
            reqs.push(LlcRequest {
                key: ReqKey { now, core: (a % 40) as u16, seq: s },
                line: LineAddr::new(a % (1 << 20)),
                pc: VirtAddr::new((a & 0xffff_fff0) << 2),
                sig: a >> 17,
                cluster: (a % 10) as u16,
                kind,
            });
        }
        let mut drain_out = DrainOut::default();
        out.push((
            "shard_drain_run",
            ns_per_iter(|| {
                shard.drain(&reqs, snap, &mut drain_out);
                drain_out.outcomes.len()
            }),
        ));

        let mut cmds = Vec::with_capacity(RUN as usize);
        let mut cnow = 0u64;
        for s in 0..RUN {
            let a = step();
            cnow += 1 + a % 3;
            let key = ReqKey { now: cnow, core: (a % 40) as u16, seq: s };
            let cmd = if a % 3 == 0 {
                ShardCmd::PairwisePrefetch {
                    dl: LineAddr::new(a % (1 << 20)),
                    sig: a >> 13,
                    now: cnow,
                }
            } else {
                ShardCmd::PairUpdate {
                    il: LineAddr::new((a >> 7) % (1 << 20)),
                    data_hit: a % 2 == 0,
                    dl: LineAddr::new((a >> 11) % (1 << 20)),
                }
            };
            cmds.push((key, cmd));
        }
        out.push(("apply_cmds_run", ns_per_iter(|| shard.apply_cmds(&cmds, snap))));
    }

    // Learned-state merge (the barrier's learned-state sync work): pool
    // eight divergently trained Mockingjay predictors' privatized exports
    // into one consensus. One iteration ≈ one sync's merge under the
    // 8-shard default geometry.
    {
        let n_shards = 8usize;
        let peers: Vec<SetAssocCache> = (0..n_shards as u64)
            .map(|i| {
                let mut c =
                    SetAssocCache::new(CacheConfig::new("merge", 64, 8), PolicyKind::Mockingjay);
                let mut state = 0x9e37_79b9u64.wrapping_mul(i + 1) | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..4_000 {
                    let la = LineAddr::new(next() % 2_048);
                    let ctx = AccessCtx::data(la, 0x40_0000 + (next() % 256) * 4);
                    if !c.access(&ctx, false) {
                        c.insert(la, &ctx, false);
                    }
                }
                c
            })
            .collect();
        let exports: Vec<Vec<u32>> = peers.iter().map(|c| c.export_policy_learned()).collect();
        let mut merged = Vec::new();
        out.push((
            "learned_merge_run",
            ns_per_iter(|| {
                peers[0].merge_policy_learned(&exports, &mut merged);
                merged.len()
            }),
        ));
    }

    for (name, ns) in &out {
        println!("[perf] {name:<36} {ns:>10.1} ns/iter");
    }
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let records: u64 =
        std::env::var("GARIBALDI_PERF_RECORDS").ok().and_then(|v| v.parse().ok()).unwrap_or(30_000);
    let warmup: u64 =
        std::env::var("GARIBALDI_PERF_WARMUP").ok().and_then(|v| v.parse().ok()).unwrap_or(7_500);
    println!(
        "perf snapshot: 40-core reference point (tpcc/twitter/kafka/verilator, factor 1.0, \
         {records}+{warmup} records/core), workers=1"
    );

    let (runner, records, warmup) = reference_runner(records, warmup);
    let leg = run_leg(&runner, records, warmup, 1);
    // Log only: the snapshot records the one-worker leg.
    run_leg(&runner, records, warmup, 2);
    let shared = shared_reference(records, warmup);
    let micro = micro_benches();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"garibaldi-perf-snapshot-v1\",");
    let _ = writeln!(
        json,
        "  \"reference_point\": {{\"cores\": 40, \"factor\": 1.0, \
         \"workloads\": \"tpcc,twitter,kafka,verilator\", \"scheme\": \"Mockingjay+Garibaldi\", \
         \"records_per_core\": {records}, \"warmup_per_core\": {warmup}, \"workers\": 1, \
         \"seed\": 42}},"
    );
    let s = &leg.stats;
    let _ = writeln!(
        json,
        "  \"engine\": [{{\"tag\": \"{}\", \"wall_s\": {}, \"step_s\": {}, \"drain_s\": {}, \
         \"merge_s\": {}, \"apply_s\": {}, \"serial_s\": {}, \"epochs\": {}, \
         \"learned_syncs\": {}, \"harmonic_mean_ipc\": {}}}],",
        leg.tag,
        json_num(s.wall_s),
        json_num(s.step_s),
        json_num(s.drain_s),
        json_num(s.merge_s),
        json_num(s.apply_s),
        json_num(s.serial_s),
        s.epochs,
        s.learned_syncs,
        json_num(leg.harmonic_mean_ipc),
    );
    let _ = writeln!(
        json,
        "  \"shared_reference\": {{\"cores\": 8, \"factor\": 1.0, \"mix\": \"{}\", \
         \"scheme\": \"Mockingjay+Garibaldi\", \
         \"records_per_core\": {records}, \"warmup_per_core\": {warmup}, \"seed\": 42, \
         \"wall_s\": {}, \"invalidations\": {}, \"inval_cmds\": {}, \
         \"harmonic_mean_ipc\": {}}},",
        shared.mix,
        json_num(shared.stats.wall_s),
        shared.invalidations,
        shared.stats.inval_cmds,
        json_num(shared.harmonic_mean_ipc),
    );
    let _ = writeln!(json, "  \"micro_ns_per_iter\": {{");
    for (i, (name, ns)) in micro.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{name}\": {}{}",
            json_num(*ns),
            if i + 1 < micro.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    let path = out_dir().join("perf_snapshot.json");
    std::fs::write(&path, &json).expect("write perf snapshot");
    println!("[json] {}", path.display());
}
