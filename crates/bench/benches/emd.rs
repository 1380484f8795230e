//! P1 — EMD solver scaling: transportation-simplex solve time, through
//! one kept scratch as the detector solves, as a function of signature
//! size, plus the closed-form 1-D oracle for comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emd::{emd_1d, emd_with, Euclidean, Signature, TransportScratch};
use rand::Rng;
use stats::seeded_rng;

/// Random 2-D signature with `k` clusters.
fn random_signature(k: usize, rng: &mut impl Rng) -> Signature {
    let points: Vec<Vec<f64>> = (0..k)
        .map(|_| vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)])
        .collect();
    let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..10.0)).collect();
    Signature::new(points, weights).expect("valid signature")
}

fn bench_simplex_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd_simplex");
    for &k in &[2usize, 4, 8, 16, 32, 64, 128] {
        let mut rng = seeded_rng(k as u64);
        let a = random_signature(k, &mut rng);
        let b = random_signature(k, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            let mut scratch = TransportScratch::new();
            bench.iter(|| emd_with(&a, &b, &Euclidean, &mut scratch).expect("solve"));
        });
    }
    group.finish();
}

fn bench_1d_oracle_vs_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd_1d");
    for &k in &[8usize, 32, 128] {
        let mut rng = seeded_rng(1000 + k as u64);
        let a: Vec<(f64, f64)> = (0..k).map(|_| (rng.gen_range(-10.0..10.0), 1.0)).collect();
        let b: Vec<(f64, f64)> = (0..k).map(|_| (rng.gen_range(-10.0..10.0), 1.0)).collect();
        let sig = |pts: &[(f64, f64)]| {
            Signature::new(
                pts.iter().map(|&(x, _)| vec![x]).collect(),
                pts.iter().map(|&(_, w)| w).collect(),
            )
            .expect("valid")
        };
        let (sa, sb) = (sig(&a), sig(&b));
        group.bench_with_input(BenchmarkId::new("closed_form", k), &k, |bench, _| {
            bench.iter(|| emd_1d(&a, &b).expect("solve"));
        });
        group.bench_with_input(BenchmarkId::new("simplex", k), &k, |bench, _| {
            let mut scratch = TransportScratch::new();
            bench.iter(|| emd_with(&sa, &sb, &Euclidean, &mut scratch).expect("solve"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simplex_scaling, bench_1d_oracle_vs_simplex);
criterion_main!(benches);
