//! Sharded-runtime throughput: `k` full setup-free ABA sessions partitioned
//! across worker shards (each session owning its scheduler, in-flight slab,
//! budget and metrics), vs the same workload through PR 4's single-loop
//! `SessionHost` — plus the admission-controlled pipelined beacon.
//!
//! The criterion companion to the `aba-x{k}-shard*` rows of
//! `BENCH_pr5.json` (which measures the full k ∈ {4, 8, 16} ×
//! n ∈ {10, 22, 40} grid single-shot).  CI runs this with `--test` so the
//! sharded execution paths — inline execution, parallel workers,
//! admission — cannot bit-rot.

use criterion::{criterion_group, criterion_main, Criterion};
use setupfree_bench::{
    measure_concurrent_abas, measure_sharded_abas, measure_sharded_pipelined_beacon,
};

fn bench_sharded_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_runtime");
    group.sample_size(10);
    let n = 10;
    let k = 4;
    // Print the per-iteration workload once so deliveries/sec can be read
    // off the criterion time.
    let m = measure_sharded_abas(n, k, 4, 0xC0, false);
    println!(
        "sharded_runtime/aba_x{k}_n{n}: {} deliveries, {} honest bytes per iteration",
        m.deliveries, m.honest_bytes
    );
    group.bench_function(&format!("aba_x{k}_n{n}_single_loop"), |b| {
        let mut seed = 0xC0;
        b.iter(|| {
            seed += 1;
            measure_concurrent_abas(n, k, seed)
        })
    });
    group.bench_function(&format!("aba_x{k}_n{n}_sharded_w4"), |b| {
        let mut seed = 0xC0;
        b.iter(|| {
            seed += 1;
            measure_sharded_abas(n, k, 4, seed, false)
        })
    });
    group.bench_function(&format!("aba_x{k}_n{n}_sharded_w4_parallel"), |b| {
        let mut seed = 0xC0;
        b.iter(|| {
            seed += 1;
            measure_sharded_abas(n, k, 4, seed, true)
        })
    });
    let epochs = 4;
    group.bench_function(&format!("beacon_pipe{epochs}_n{n}_sharded_admit2"), |b| {
        let mut seed = 0xBE;
        b.iter(|| {
            seed += 1;
            measure_sharded_pipelined_beacon(n, epochs, 2, 2, seed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_runtime);
criterion_main!(benches);
