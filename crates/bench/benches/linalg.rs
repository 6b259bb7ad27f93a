//! Criterion bench: exact kernel solving (ablation A1 — the exact ℤ
//! elimination that eq. (1) requires, vs an f64 power-iteration stand-in
//! that can only approximate the kernel ray and can never yield coprime
//! integers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kya_arith::spectral::FMatrix;
use kya_arith::{BigInt, IMatrix};
use std::time::Duration;

/// Fibre-count matrix of a synthetic base with ray (1, 2, ..., m): build
/// M with M z = 0 by construction.
fn fibre_matrix(m: usize) -> IMatrix {
    // Off-diagonal entries: d_{i,j} = ((i + j) % 3) + 1. The balancing
    // diagonal -(sum_{j != i} d_{i,j} z_j) / z_i puts z = (1..m) in the
    // kernel; scaling row i by z_i keeps every entry an integer without
    // moving the kernel.
    let mut q = IMatrix::zeros(m, m);
    for i in 0..m {
        let zi = (i + 1) as i64;
        let mut acc = 0i64;
        for j in 0..m {
            if i == j {
                continue;
            }
            let d = (((i + j) % 3) + 1) as i64;
            q[(i, j)] = BigInt::from(d * zi);
            acc += d * (j + 1) as i64;
        }
        q[(i, i)] = BigInt::from(-acc);
    }
    q
}

fn bench_exact_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_positive_integer_kernel");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for m in [4usize, 8, 16, 24] {
        let q = fibre_matrix(m);
        let ray: Vec<BigInt> = (1..=m).map(BigInt::from).collect();
        assert_eq!(q.positive_integer_kernel(), Ok(ray));
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| q.positive_integer_kernel().expect("rank one"))
        });
    }
    group.finish();
}

fn bench_float_perron(c: &mut Criterion) {
    let mut group = c.benchmark_group("f64_perron_ablation");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for m in [4usize, 8, 16, 24] {
        let q = fibre_matrix(m);
        // Shift to non-negative P = M + alpha I as in §4.2.
        let alpha = (0..m).map(|i| -q[(i, i)].to_f64()).fold(0.0f64, f64::max) + 1.0;
        let mut p = FMatrix::zeros(m);
        for i in 0..m {
            for j in 0..m {
                p[(i, j)] = q[(i, j)].to_f64() + if i == j { alpha } else { 0.0 };
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| p.perron(1e-12, 100_000).expect("irreducible"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_kernel, bench_float_perron);
criterion_main!(benches);
