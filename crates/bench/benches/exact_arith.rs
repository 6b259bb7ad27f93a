//! Criterion bench: the exact-arithmetic hot path.
//!
//! The `BigRational` referee is what caps the network sizes the exact
//! demonstrations can reach, so this bench measures it directly:
//!
//! - `exact_pushsum_*`: full exact Push-Sum runs (200 rounds) on the
//!   cycle and the star, n ∈ {8, 32, 128} — the workload whose
//!   rounds/sec figures are tracked in EXPERIMENTS.md;
//! - `bigint_*`: the two kernels the rational ops bottom out in
//!   (multi-limb division and gcd) on operands of a few thousand bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_arith::{gcd, BigInt, BigRational};
use kya_graph::{generators, StaticGraph};
use kya_runtime::{Execution, Isotropic, RunConfig};
use std::time::Duration;

const ROUNDS: u64 = 200;

fn exact_run(net: &StaticGraph, n: usize) -> Vec<BigRational> {
    let values: Vec<f64> = (0..n).map(|i| (i * i % 97) as f64).collect();
    let mut exec = Execution::new(
        Isotropic(PushSum::<BigRational>::new()),
        PushSumState::averaging(&values),
    );
    exec.drive(net, RunConfig::rounds(ROUNDS));
    exec.outputs()
}

fn bench_exact_pushsum(c: &mut Criterion) {
    for (family, make) in [
        (
            "exact_pushsum_cycle",
            generators::directed_ring as fn(usize) -> _,
        ),
        ("exact_pushsum_star", generators::star as fn(usize) -> _),
    ] {
        let mut group = c.benchmark_group(family);
        group
            .measurement_time(Duration::from_secs(5))
            .sample_size(10);
        for n in [8usize, 32, 128] {
            let net = StaticGraph::new(make(n));
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| exact_run(&net, n))
            });
        }
        group.finish();
    }
}

/// Deterministic pseudo-random big integer of `limbs` 64-bit limbs
/// (xorshift — no rand dependency needed in a bench fixture).
fn pseudo_big(limbs: usize, mut seed: u64) -> BigInt {
    let mut acc = BigInt::zero();
    for _ in 0..limbs {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        acc = (acc << 64) + BigInt::from(seed | 1);
    }
    acc
}

fn bench_bigint_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_kernels");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for limbs in [8usize, 32] {
        let a = pseudo_big(2 * limbs, 0xDEAD_BEEF);
        let b = pseudo_big(limbs, 0xC0FF_EE11);
        group.bench_with_input(
            BenchmarkId::new("div_rem", limbs * 64),
            &limbs,
            |bench, _| bench.iter(|| a.div_rem(&b)),
        );
        group.bench_with_input(BenchmarkId::new("gcd", limbs * 64), &limbs, |bench, _| {
            bench.iter(|| gcd(&a, &b))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_pushsum, bench_bigint_kernels);
criterion_main!(benches);
