//! Micro-benchmarks of the arena `ChannelPool` hot paths: one ring's
//! per-cycle push/pop and a per-cycle relay between two rings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use realm_bench::poolbench;

const OPS: u64 = 4096;

fn bench_channel_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_pool");
    group.bench_function("ring_push_pop", |b| {
        b.iter(|| poolbench::ring_push_pop(black_box(OPS)))
    });
    group.bench_function("ring_relay_per_cycle", |b| {
        b.iter(|| poolbench::ring_relay_per_cycle(black_box(OPS)))
    });
    group.finish();
}

criterion_group!(benches, bench_channel_pool);
criterion_main!(benches);
