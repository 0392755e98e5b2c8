//! Criterion micro-benchmarks: cache access/insert throughput per
//! replacement policy (the simulator's hottest path).

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

criterion_group!(benches, bench_policies, bench_guarded_insert);
criterion_main!(benches);
