//! Coherence differential battery for the shared-data workload family.
//!
//! The SPLASH-2-style shared profiles (`registry::SHARED_NAMES`) are the
//! first workloads whose hot sets are written by *multiple* cores, so they
//! are the first to exercise the MESI-lite directory on both engines at
//! figure-bearing rates. This battery pins the **LLC-directory-scoped**
//! coherence contract (docs/ARCHITECTURE.md §"Coherence semantics") from
//! three directions:
//!
//! 1. **Directed two-cluster tests** — the write-upgrade miss path
//!    (`LlcShard::write_upgrade` / `MemoryHierarchy::invalidate_remote`):
//!    a write to a line with no LLC directory entry must propagate *no*
//!    invalidations and count a lost upgrade, identically on both engines;
//!    the resident path must invalidate exactly the other clusters named
//!    by the sharer mask.
//! 2. **Fixed-seed serial-vs-parallel gate** — the shared profiles run on
//!    both engines at the fidelity gate scale; serial results are
//!    committed goldens (`tests/golden/coherence_baselines.jsonl`,
//!    re-bless with `GARIBALDI_BLESS=1 cargo test -p garibaldi-sim --test
//!    coherence_differential`) and the parallel engine must keep the
//!    figure geomean within the 2 % hard gate, invalidation counts and
//!    private-tier hit rates close.
//! 3. **Proptest worker-count byte-invariance** — on arbitrary shared
//!    mixes the parallel engine's `RunResult` must be byte-identical
//!    across worker counts.
//!
//! Run with `PROPTEST_CASES=512` (the CI `coherence-differential` leg)
//! for an elevated case count.

use garibaldi_cache::{CacheStats, MesiState, PolicyKind};
use garibaldi_sim::engine::request::{LlcRequest, ReqKey, ReqKind};
use garibaldi_sim::engine::shard::{DrainOut, LlcShard, ThresholdSnapshot};
use garibaldi_sim::hierarchy::MemoryHierarchy;
use garibaldi_sim::{
    checkpoint, EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner,
    SystemConfig,
};
use garibaldi_trace::{random_shared_mixes, registry, WorkloadMix};
use garibaldi_types::{CoreId, HitLevel, LineAddr, RwKind, VirtAddr};
use proptest::prelude::*;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// 1. Directed two-cluster write-upgrade tests (parallel shard).
// ---------------------------------------------------------------------------

/// A plain-LRU shard config (the directory is scheme-independent; LRU
/// keeps the directed traffic free of QBS/partitioning side effects).
fn shard_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.scheme = LlcScheme::plain(PolicyKind::Lru);
    cfg.profile_reuse = false;
    cfg.partition_instr_ways = 0;
    cfg.i_oracle = false;
    cfg
}

fn dir_req(seq: u32, cluster: u16, line: u64, kind: ReqKind) -> LlcRequest {
    LlcRequest {
        key: ReqKey { now: 10 * (seq as u64 + 1), core: cluster, seq },
        line: LineAddr::new(line),
        pc: VirtAddr::new(0x40_0000),
        sig: 0x9e37 ^ line,
        cluster,
        kind,
    }
}

const SNAP: ThresholdSnapshot = ThresholdSnapshot { color: 0, threshold: 24 };

/// Miss path: a `DirUpdate { write }` for a line the LLC does not hold
/// must emit no invalidations (no directory entry → no sharer knowledge),
/// leave the cache untouched, and count one lost upgrade.
#[test]
fn shard_write_upgrade_on_llc_miss_loses_quietly_and_is_counted() {
    let cfg = shard_cfg();
    let mut sh = LlcShard::new(&cfg, 0, 1, 64);
    let mut out = DrainOut::default();
    let reqs = vec![dir_req(0, 0, 17, ReqKind::DirUpdate { record: false, write: true })];
    sh.drain(&reqs, SNAP, &mut out);
    assert!(out.invals.is_empty(), "LLC-miss upgrade must not invalidate");
    assert!(out.cmds.is_empty() && out.outcomes.is_empty());
    assert_eq!(sh.lost_upgrades(), 1, "the lost upgrade must be observable");
    assert!(sh.cache().peek(LineAddr::new(17)).is_none(), "no fill on the directory path");
}

/// Resident path: with cluster 1 on the sharer mask, a write upgrade from
/// cluster 0 emits exactly one invalidation naming cluster 1, collapses
/// the mask to the writer, and moves the line to Modified.
#[test]
fn shard_resident_write_upgrade_invalidates_exactly_the_other_sharers() {
    let cfg = shard_cfg();
    let mut sh = LlcShard::new(&cfg, 0, 1, 64);
    let mut out = DrainOut::default();
    let line = 17u64;
    let reqs = vec![
        // Cluster 1 demand-fills the line (miss → fill + sharer record).
        dir_req(0, 1, line, ReqKind::Data { is_write: false, il_hint: None, ifetch_seq: None }),
        // Cluster 0 hit in its private tier: directory record + upgrade.
        dir_req(1, 0, line, ReqKind::DirUpdate { record: true, write: true }),
    ];
    sh.drain(&reqs, SNAP, &mut out);

    assert_eq!(out.invals.len(), 1, "exactly one invalidation command");
    let (_, inv) = &out.invals[0];
    assert_eq!(inv.line, LineAddr::new(line));
    assert_eq!(inv.others, 1 << 1, "only cluster 1 held a stale copy");
    assert_eq!(sh.lost_upgrades(), 0);

    let m = sh.cache().peek(LineAddr::new(line)).expect("line stays resident");
    assert_eq!(m.sharers, 1 << 0, "mask collapses to the writer");
    assert_eq!(m.state, MesiState::Modified);
}

// ---------------------------------------------------------------------------
// 2. Directed two-cluster write-upgrade tests (serial hierarchy).
// ---------------------------------------------------------------------------

/// Eight cores = two 4-core L2 clusters; prefetchers off so every fill in
/// the test is a demand fill the assertions can reason about.
fn serial_cfg() -> SystemConfig {
    let mut cfg = shard_cfg();
    cfg.cores = 8;
    cfg.l1d_prefetcher = false;
    cfg.l1i_prefetcher = false;
    cfg.l2_prefetcher = false;
    cfg
}

/// Serial mirror of the miss path: the upgrade of a line whose LLC entry
/// is gone is lost (counted, no invalidations), and the remote cluster's
/// stale copy survives in its private tier — the staleness the contract
/// deliberately accepts on a non-inclusive LLC.
#[test]
fn serial_write_upgrade_on_llc_miss_leaves_remote_copies_stale() {
    let mut h = MemoryHierarchy::new(&serial_cfg());
    let line = LineAddr::new(0xbeef);
    let pc = VirtAddr::new(0x40_0000);

    // Core 4 (cluster 1) then core 0 (cluster 0) read: both clusters on
    // the sharer mask, line resident everywhere.
    h.access_data(CoreId::new(4), pc, line, RwKind::Read, 0, None);
    h.access_data(CoreId::new(0), pc, line, RwKind::Read, 10, None);

    // The non-inclusive LLC loses the line (capacity eviction stand-in):
    // the directory entry — and only it — is gone.
    h.llc_invalidate_for_test(line);

    let inv_before = h.invalidations();
    // Core 0 writes. L1D hit → MESI upgrade → LLC directory miss.
    let out = h.access_data(CoreId::new(0), pc, line, RwKind::Write, 20, None);
    assert_eq!(out.level, HitLevel::L1);
    assert_eq!(h.invalidations(), inv_before, "no directory entry → no invalidations");
    assert_eq!(h.lost_upgrades(), 1, "the lost upgrade must be observable");

    // Cluster 1's copies are stale but alive: core 4 still hits privately.
    let stale = h.access_data(CoreId::new(4), pc, line, RwKind::Read, 30, None);
    assert_eq!(stale.level, HitLevel::L1, "stale L1 copy persists");
    h.l1d_invalidate_for_test(4, line);
    let stale = h.access_data(CoreId::new(4), pc, line, RwKind::Read, 40, None);
    assert_eq!(stale.level, HitLevel::L2, "stale L2 copy persists");
}

/// Serial mirror of the resident path: the same two-cluster sequence with
/// the directory entry intact drops cluster 1's copies and counts the
/// invalidation.
#[test]
fn serial_resident_write_upgrade_drops_the_remote_cluster() {
    let mut h = MemoryHierarchy::new(&serial_cfg());
    let line = LineAddr::new(0xbeef);
    let pc = VirtAddr::new(0x40_0000);

    h.access_data(CoreId::new(4), pc, line, RwKind::Read, 0, None);
    h.access_data(CoreId::new(0), pc, line, RwKind::Read, 10, None);
    let m = h.llc().peek(line).expect("resident");
    assert_eq!(m.sharers, 0b11, "both clusters recorded");
    assert_eq!(m.state, MesiState::Shared);

    let out = h.access_data(CoreId::new(0), pc, line, RwKind::Write, 20, None);
    assert_eq!(out.level, HitLevel::L1);
    assert_eq!(h.invalidations(), 1, "cluster 1's L2 copy dropped");
    assert_eq!(h.lost_upgrades(), 0);
    let m = h.llc().peek(line).expect("resident");
    assert_eq!(m.sharers, 1 << 0, "mask collapses to the writer");
    assert_eq!(m.state, MesiState::Modified);

    // Cluster 1 lost every private copy: core 4's re-read goes to the LLC.
    let refetch = h.access_data(CoreId::new(4), pc, line, RwKind::Read, 30, None);
    assert_eq!(refetch.level, HitLevel::Llc, "remote copies were invalidated");
}

// ---------------------------------------------------------------------------
// 3. Fixed-seed serial-vs-parallel gate over the shared family.
// ---------------------------------------------------------------------------

/// Figure-geomean tolerance (the repo-wide fidelity hard gate).
const HARD_GATE: f64 = 0.02;

/// Serial-golden re-run tolerance: float noise only.
const GOLDEN_TOL: f64 = 1e-6;

/// Per-run metric tolerance for serial vs parallel on one point. Epoch
/// timing (serial invalidates inline, the parallel engine at the next
/// barrier) makes single-run coherence-coupled metrics drift more than
/// the figure geomean; same rationale as `engine_properties.rs`'s
/// cross-epoch slack.
const POINT_TOL: f64 = 0.05;

/// Invalidation *event* agreement (serial drops vs parallel inval
/// commands — see `EngineStats::inval_cmds` for why drops themselves are
/// not comparable across engines): relative, with an absolute floor for
/// near-zero counts. Epoch staleness still shifts the event mix (a
/// remote write that was an L2 refill in the serial schedule can be a
/// stale L1 hit in the parallel one), so this is looser than the figure
/// gate; the measured battery worst case is ~28 % (the heterogeneous
/// mix, whose thinner per-line sharer sets amplify the merge effect),
/// still an order of magnitude inside the regressions this guards
/// against (a lost-invalidation bug → zero events, broadcast-on-miss →
/// a multiple of the serial count).
const INVAL_REL_TOL: f64 = 0.35;
const INVAL_ABS_TOL: u64 = 64;

/// Private-tier hit-rate agreement, in absolute hit-rate points. Epoch
/// batching keeps remote copies alive until the barrier, so highly
/// contended lines collect stale L1 hits the serial schedule turns into
/// refills — the measured worst case (radix, the deliberate
/// maximum-contention profile, ~5.7 points at the default epoch window)
/// sets the scale; the gap shrinks with `epoch_cycles` and vanishes for
/// unshared lines. Figure metrics stay inside `POINT_TOL` regardless
/// because the latency effects largely cancel between schemes.
const PRIVATE_TIER_TOL: f64 = 0.08;

/// Demand hit rate of an aggregated tier (1.0 for an idle tier).
fn hit_rate(s: &CacheStats) -> f64 {
    let a = s.accesses();
    if a == 0 {
        return 1.0;
    }
    (s.i_hits + s.d_hits) as f64 / a as f64
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/coherence_baselines.jsonl")
}

/// Gate scale: the `tests/fidelity.rs` shape, except **8 cores**: the
/// battery needs at least two 4-core L2 clusters — with a single cluster
/// there is no remote copy to invalidate and the directory sits idle.
fn gate_scale() -> ExperimentScale {
    ExperimentScale {
        factor: 0.25,
        cores: 8,
        records_per_core: 4_000,
        warmup_per_core: 1_000,
        color_period: 4_000,
    }
}

/// The battery points: every shared workload homogeneous (the fig12
/// shape) plus one random heterogeneous shared mix (cross-group placement
/// stresses cross-shard invalidation routing), each under plain LRU and
/// the headline Mockingjay+Garibaldi scheme.
fn battery_points() -> Vec<(String, WorkloadMix, LlcScheme)> {
    let scale = gate_scale();
    let mut mixes: Vec<(String, WorkloadMix)> = registry::SHARED_NAMES
        .iter()
        .map(|n| (format!("hom/{n}"), WorkloadMix::homogeneous(n, scale.cores)))
        .collect();
    mixes.push(("mix/shared0".into(), random_shared_mixes(1, scale.cores, 42).remove(0)));
    let schemes = [LlcScheme::plain(PolicyKind::Lru), LlcScheme::mockingjay_garibaldi()];
    mixes
        .into_iter()
        .flat_map(|(tag, mix)| {
            schemes.iter().map(move |s| {
                let key = format!("coherence/{tag}/{}", s.label());
                (key, mix.clone(), s.clone())
            })
        })
        .collect()
}

fn run_point(mix: &WorkloadMix, scheme: LlcScheme, choice: EngineChoice) -> RunResult {
    let scale = gate_scale();
    let cfg = SystemConfig::scaled(&scale, scheme);
    SimRunner::new(cfg, mix.clone(), 7).run_on(
        scale.records_per_core,
        scale.warmup_per_core,
        choice,
    )
}

/// Geomean of `garibaldi IPC-sum / LRU IPC-sum` over the battery mixes —
/// the figure-level statistic (fig12 shape) the 2 % gate applies to.
fn figure_geomean(results: &[(String, RunResult)]) -> f64 {
    let lookup = |key: &str| -> &RunResult {
        &results.iter().find(|(k, _)| k == key).expect("battery point present").1
    };
    let mut log_sum = 0.0;
    let mut n = 0u32;
    let mut tags: Vec<&str> = Vec::new();
    for (k, _) in results {
        let tag = k.rsplit_once('/').expect("key shape").0;
        if !tags.contains(&tag) {
            tags.push(tag);
        }
    }
    for tag in tags {
        let lru = lookup(&format!("{tag}/LRU")).ipc_sum();
        let gar = lookup(&format!("{tag}/Mockingjay+Garibaldi")).ipc_sum();
        log_sum += (gar / lru).ln();
        n += 1;
    }
    (log_sum / n as f64).exp()
}

/// Serial goldens: the shared-family battery reproduces its committed
/// baselines (bless with `GARIBALDI_BLESS=1`), and every point actually
/// exercises the coherence machinery (nonzero invalidations — the family
/// exists to wake this path, so a silent regression to zero is a bug even
/// if every IPC metric stays put).
#[test]
fn shared_family_serial_matches_golden_baselines() {
    let points = battery_points();
    let serial: Vec<(String, RunResult)> = points
        .iter()
        .map(|(k, mix, scheme)| (k.clone(), run_point(mix, scheme.clone(), EngineChoice::Serial)))
        .collect();

    for (k, r) in &serial {
        assert!(r.invalidations > 0, "{k}: shared profile produced no invalidations");
    }

    if std::env::var("GARIBALDI_BLESS").as_deref() == Ok("1") {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut text = String::new();
        for (k, r) in &serial {
            text.push_str(&checkpoint::to_json_line(k, r));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        println!("blessed {} baselines into {}", serial.len(), path.display());
        return;
    }

    let (goldens, salvage) =
        checkpoint::load_report(&golden_path()).unwrap_or_else(|e| panic!("{e}"));
    // Legacy unframed goldens are fine (they count as version mismatches);
    // garbage or a torn tail means the committed file was damaged.
    assert_eq!(
        salvage.skipped_garbage,
        0,
        "golden file {} is damaged ({salvage})",
        golden_path().display()
    );
    assert!(!salvage.truncated_tail, "golden file {} has a torn tail", golden_path().display());
    assert!(
        !goldens.is_empty(),
        "no golden baselines at {} — generate them with GARIBALDI_BLESS=1 \
         cargo test -p garibaldi-sim --test coherence_differential",
        golden_path().display()
    );
    for (k, r) in &serial {
        let golden = goldens.get(k).unwrap_or_else(|| {
            panic!("{k} missing from {} — re-bless (see test docs)", golden_path().display())
        });
        let diff = r.diff(golden);
        assert!(
            diff.within(GOLDEN_TOL),
            "{k}: serial engine moved beyond float noise from its golden: {:?}\n\
             If this movement is intended, re-bless with GARIBALDI_BLESS=1 \
             cargo test -p garibaldi-sim --test coherence_differential",
            diff.violations(GOLDEN_TOL)
        );
        assert_eq!(r.invalidations, golden.invalidations, "{k}: invalidation count moved");
    }
}

/// The parallel engine agrees with the serial engine on the shared
/// family: figure geomean within the 2 % hard gate, per-point metrics
/// within the documented slack, invalidation counts and private-tier hit
/// rates close. This is the end-to-end half of the contract pin: both
/// engines implement LLC-directory-scoped invalidation, so their
/// divergence is epoch *timing* only and must stay bounded.
#[test]
fn shared_family_parallel_within_gate_of_serial() {
    if std::env::var("GARIBALDI_BLESS").as_deref() == Ok("1") {
        return; // blessing run: baselines are being rewritten.
    }
    let points = battery_points();
    let serial: Vec<(String, RunResult)> = points
        .iter()
        .map(|(k, mix, scheme)| (k.clone(), run_point(mix, scheme.clone(), EngineChoice::Serial)))
        .collect();
    let scale = gate_scale();
    let par: Vec<(String, RunResult, u64)> = points
        .iter()
        .map(|(k, mix, scheme)| {
            let cfg = SystemConfig::scaled(&scale, scheme.clone());
            let (r, stats) = SimRunner::new(cfg, mix.clone(), 7).run_parallel_stats(
                scale.records_per_core,
                scale.warmup_per_core,
                &EngineConfig::default(),
            );
            (k.clone(), r, stats.inval_cmds)
        })
        .collect();

    // Figure-level gate (the acceptance criterion).
    let par_results: Vec<(String, RunResult)> =
        par.iter().map(|(k, r, _)| (k.clone(), r.clone())).collect();
    let gs = figure_geomean(&serial);
    let gp = figure_geomean(&par_results);
    let fig_err = (gp / gs - 1.0).abs();
    assert!(
        fig_err <= HARD_GATE,
        "shared-family figure geomean error {:.4}% exceeds the {:.1}% gate \
         (serial {gs:.4}, parallel {gp:.4})",
        fig_err * 100.0,
        HARD_GATE * 100.0,
    );

    for ((k, s), (_, p, cmds)) in serial.iter().zip(&par) {
        // Figure-bearing per-point metrics.
        let diff = p.diff(s);
        assert!(
            diff.within(POINT_TOL),
            "{k}: serial vs parallel beyond {POINT_TOL}: {:?}",
            diff.violations(POINT_TOL)
        );
        // Invalidation events: both engines route upgrades through the
        // same directory contract, so upgrade events that found remote
        // sharers (serial: counted as drops, since remote copies are
        // refilled between writes; parallel: counted as emitted commands)
        // must agree up to epoch-timing noise.
        let (a, b) = (s.invalidations, *cmds);
        eprintln!("{k}: inval events serial={a} parallel={b} (parallel drops {})", p.invalidations);
        let delta = a.abs_diff(b);
        assert!(
            delta <= INVAL_ABS_TOL || (delta as f64) <= INVAL_REL_TOL * (a.max(b) as f64),
            "{k}: invalidation events diverged: serial {a}, parallel {b}"
        );
        assert!(p.invalidations > 0, "{k}: parallel engine dropped no copies");
        assert!(
            p.invalidations <= *cmds,
            "{k}: drops ({}) exceed popcount-weighted commands ({cmds})",
            p.invalidations
        );
        // Private-tier residency: invalidations hit L1/L2 hit rates, so
        // contract drift shows up here first.
        for (tier, sh, ph) in
            [("l1", hit_rate(&s.l1), hit_rate(&p.l1)), ("l2", hit_rate(&s.l2), hit_rate(&p.l2))]
        {
            assert!(
                (sh - ph).abs() <= PRIVATE_TIER_TOL,
                "{k}: {tier} hit rate diverged: serial {sh:.4}, parallel {ph:.4}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Proptest: worker-count byte-invariance on shared traces.
// ---------------------------------------------------------------------------

/// Deliberately not a multiple of the 4-core cluster size.
const PROP_CORES: usize = 6;

proptest! {
    /// The parallel engine's `RunResult` on shared-data mixes is a pure
    /// function of the trace and the epoch grid — never of the worker
    /// count. Sharing groups interleave invalidation traffic across
    /// shards, which is exactly where a scheduling-order dependence
    /// would leak in.
    #[test]
    fn worker_count_is_byte_invariant_on_shared_traces(
        seed in 0u64..u64::MAX / 2,
        mix_idx in 0usize..4,
        workers in 2usize..5,
        scheme_idx in 0usize..2,
    ) {
        let mix = random_shared_mixes(4, PROP_CORES, seed)[mix_idx].clone();
        let scheme = if scheme_idx == 0 {
            LlcScheme::plain(PolicyKind::Lru)
        } else {
            LlcScheme::mockingjay_garibaldi()
        };
        let scale = ExperimentScale {
            factor: 0.25,
            cores: PROP_CORES,
            records_per_core: 700,
            warmup_per_core: 150,
            color_period: 1_000,
        };
        let cfg = SystemConfig::scaled(&scale, scheme);
        let runner = SimRunner::new(cfg, mix, seed);
        let eng = EngineConfig::with_workers;
        let base = runner.run_parallel(
            scale.records_per_core,
            scale.warmup_per_core,
            &eng(1),
        );
        let other = runner.run_parallel(
            scale.records_per_core,
            scale.warmup_per_core,
            &eng(workers),
        );
        // Byte-invariance is the property. Invalidation *positivity* is
        // deliberately not asserted here: a randomly drawn mix can place
        // every sharing group inside one L2 cluster (no remote copies →
        // nothing to invalidate); the fixed-seed battery above pins
        // positivity on mixes chosen to span clusters.
        prop_assert_eq!(&base, &other, "workers=1 vs workers={} diverged", workers);
    }
}
