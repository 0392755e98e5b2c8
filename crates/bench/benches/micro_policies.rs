//! Criterion micro-benchmarks: cache access/insert throughput per
//! replacement policy (the simulator's hottest path), and the tag-row scan
//! behind every lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use garibaldi_cache::{AccessCtx, CacheConfig, Fill, PolicyKind, SetAssocCache};
use garibaldi_types::LineAddr;
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("llc_access_insert");
    group.sample_size(20);
    for kind in PolicyKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &kind| {
            let mut cache = SetAssocCache::new(CacheConfig::new("bench", 1024, 12), kind);
            let mut i: u64 = 0;
            b.iter(|| {
                i = i.wrapping_add(0x9e37_79b9).wrapping_mul(31) % 65_536;
                let ctx = AccessCtx::data(LineAddr::new(i), i >> 3);
                if !cache.access(&ctx, false) {
                    cache.insert(LineAddr::new(i), &ctx, false);
                }
                black_box(cache.stats().accesses())
            });
        });
    }
    group.finish();
}

fn bench_guarded_insert(c: &mut Criterion) {
    c.bench_function("guarded_insert_qbs", |b| {
        let mut cache =
            SetAssocCache::new(CacheConfig::new("bench", 256, 12), PolicyKind::Mockingjay);
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(7919);
            let line = LineAddr::new(i % 16_384);
            let ctx = AccessCtx::instr(line, i);
            let rule = Fill { max_protects: 2, ..Fill::PLAIN };
            cache.fill(cache.probe_fill(line), line, &ctx, false, rule, |m| {
                black_box(m.line.get()) % 3 == 0
            })
        });
    });
}

/// `lookup` on full 8-, 12- and 16-way sets: the tag-row scan alone (a
/// pure lookup touches no policy or stats). 64 sets keep every row in the
/// host's L1, so the time is the scan's, not a row miss's. A hit names
/// one of a set's resident lines, a miss a line that maps to the same set
/// but was never filled.
fn bench_tag_scan(c: &mut Criterion) {
    const SETS: u64 = 64;
    const PROBES: u64 = 1024;
    let mut group = c.benchmark_group("tag_scan");
    for ways in [8u64, 12, 16] {
        let mut cache = SetAssocCache::new(
            CacheConfig::new("bench", SETS as usize, ways as usize),
            PolicyKind::Lru,
        );
        let line = |i: u64| LineAddr::new(i % SETS + SETS * (1 + i / SETS % ways));
        for i in 0..SETS * ways {
            cache.insert(line(i), &AccessCtx::data(line(i), 0), false);
        }
        assert_eq!(cache.occupancy(), (SETS * ways) as usize, "every set is full");
        for (name, past) in [("hit", 0), ("miss", SETS * ways)] {
            // Probes precomputed in a scattered order, so the timed loop
            // holds no division of its own.
            let probes: Vec<LineAddr> = (0..PROBES)
                .map(|k| LineAddr::new(line(k * 0x9e37_79b9 % (SETS * ways)).get() + past))
                .collect();
            group.bench_function(format!("{name}/{ways}"), |b| {
                let mut i = 0;
                b.iter(|| {
                    i = (i + 1) % probes.len();
                    black_box(cache.lookup(black_box(probes[i])))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_policies, bench_guarded_insert, bench_tag_scan);
criterion_main!(benches);
