//! Criterion micro-benchmarks for the Garibaldi structures: the LLC
//! slice's pair update and QBS guard query (the rules each engine shard
//! runs), helper-table translation and D_PPN insertion — the operations on
//! the LLC controller's critical path.

use criterion::{criterion_group, criterion_main, Criterion};
use garibaldi::{DppnTable, GaribaldiConfig, GaribaldiModule, GaribaldiSlice, HelperTable};
use garibaldi_types::{CoreId, LineAddr, PageNum, VirtAddr};
use std::hint::black_box;

fn bench_pair_table(c: &mut Criterion) {
    let cfg = GaribaldiConfig::default();
    c.bench_function("slice_pair_update", |b| {
        let mut g = GaribaldiSlice::new(&cfg, 1);
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(1);
            let dl = LineAddr::new(((i % 8_192) << 6) | (i % 64));
            g.pair_update(LineAddr::new(i % 100_000), i % 3 == 0, dl, (i % 8) as u8, 32);
            black_box(g.pair().stats().update_hits)
        });
    });
    c.bench_function("slice_guard_query", |b| {
        let mut g = GaribaldiSlice::new(&cfg, 1);
        for i in 0..100_000u64 {
            g.pair_update(LineAddr::new(i), true, LineAddr::new(0), 0, 32);
        }
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(17);
            black_box(g.should_protect(LineAddr::new(i % 100_000), 0, 32))
        });
    });
}

fn bench_helper_table(c: &mut Criterion) {
    c.bench_function("helper_table_insert_lookup", |b| {
        let mut t = HelperTable::new(128, 4);
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.insert(PageNum::new(i % 512), PageNum::new(i));
            black_box(t.lookup(PageNum::new((i + 1) % 512)))
        });
    });
}

fn bench_dppn(c: &mut Criterion) {
    c.bench_function("dppn_insert", |b| {
        let mut t = DppnTable::new(8_192);
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(97);
            black_box(t.insert(PageNum::new(i % 50_000)))
        });
    });
}

fn bench_module_flow(c: &mut Criterion) {
    c.bench_function("module_instr_data_flow", |b| {
        let mut g = GaribaldiModule::new(GaribaldiConfig::default(), 8);
        let mut i: u64 = 0;
        b.iter(|| {
            i = i.wrapping_add(1);
            let core = CoreId::new((i % 8) as u16);
            let pc = VirtAddr::new(0x40_0000 + (i % 4_096) * 64);
            g.on_instr_access(core, pc, LineAddr::new(0x8_000 + i % 4_096), i % 2 == 0, true);
            g.on_data_access(core, pc, LineAddr::new(0x90_000 + i % 1_024), i % 3 == 0);
            black_box(g.stats().pair_updates)
        });
    });
}

criterion_group!(benches, bench_pair_table, bench_helper_table, bench_dppn, bench_module_flow);
criterion_main!(benches);
