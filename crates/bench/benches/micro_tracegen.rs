//! Criterion micro-benchmark: trace-generation throughput (records/s) for
//! a server and a SPEC profile — generation must stay far cheaper than the
//! cache simulation consuming it — and what a run pays for its programs: a
//! fresh build against a hit in the process-wide shared table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use garibaldi_trace::{registry, SyntheticProgram, TraceGenerator};
use std::hint::black_box;

fn bench_tracegen(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracegen");
    group.throughput(Throughput::Elements(1));
    for name in ["tpcc", "verilator", "lbm"] {
        let program = SyntheticProgram::build(registry::by_name(name).unwrap(), 1);
        group.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, p| {
            let mut gen = TraceGenerator::new(p, 7);
            b.iter(|| black_box(gen.next_record()));
        });
    }
    group.finish();
}

fn bench_program_build(c: &mut Criterion) {
    c.bench_function("program_build_tpcc", |b| {
        let profile = registry::by_name("tpcc").unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(SyntheticProgram::build(profile, seed).text_lines())
        });
    });
    c.bench_function("program_shared_tpcc", |b| {
        let profile = registry::by_name("tpcc").unwrap();
        // The held program keeps every lookup below a warm hit.
        let _held = SyntheticProgram::shared(profile, 1);
        b.iter(|| black_box(SyntheticProgram::shared(profile, 1).text_lines()));
    });
}

criterion_group!(benches, bench_tracegen, bench_program_build);
criterion_main!(benches);
