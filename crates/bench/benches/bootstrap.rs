//! P3 — Bayesian-bootstrap cost: CI computation time vs replicate count
//! T, and the Dirichlet weight draws inside it.

use bagcpd::{bootstrap_ci, BootstrapConfig, GroundMetric, ScoreKind, WindowScorer};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emd::Signature;
use infoest::EstimatorConfig;
use stats::{seeded_rng, Dirichlet};

fn scorer(window: usize) -> WindowScorer {
    let sigs: Vec<Signature> = (0..2 * window)
        .map(|i| {
            let base = if i < window { 0.0 } else { 4.0 };
            Signature::new(
                vec![vec![base + i as f64 * 0.1], vec![base + 1.0]],
                vec![1.0, 2.0],
            )
            .expect("valid")
        })
        .collect();
    WindowScorer::new(
        &sigs,
        window,
        window,
        &GroundMetric::Euclidean,
        EstimatorConfig::default(),
    )
    .expect("scorer")
}

fn bench_replicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_T");
    let s = scorer(5);
    let w = vec![0.2; 5];
    for &t in &[50usize, 100, 200, 500, 1000] {
        let cfg = BootstrapConfig {
            replicates: t,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |bench, _| {
            let mut rng = seeded_rng(t as u64);
            bench.iter(|| bootstrap_ci(&s, ScoreKind::SymmetrizedKl, &w, &w, &cfg, &mut rng));
        });
    }
    group.finish();
}

/// Per-replicate vs replicate-batched Dirichlet weight draws — the
/// inner loop of every bootstrap evaluation. Both arms draw the same
/// replicate rows from the same per-replicate RNG streams (the batched
/// loop is bit-identical, just cache-friendly: one pass over the alpha
/// vector filling a column across all replicates).
fn bench_dirichlet_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_dirichlet_draws");
    const REPLICATES: usize = 256;
    for &dim in &[8usize, 32] {
        let alpha = vec![1.0; dim];
        // Pre-seeded per-replicate streams, cloned into each iteration
        // (a state memcpy) so the timing isolates the draw loops from
        // RNG seeding. Both arms consume identical streams.
        let base: Vec<_> = (0..REPLICATES).map(|r| seeded_rng(r as u64)).collect();
        group.bench_with_input(BenchmarkId::new("per_replicate", dim), &dim, |bench, &n| {
            let mut out = vec![0.0; REPLICATES * n];
            let mut rngs = base.clone();
            bench.iter(|| {
                rngs.clone_from_slice(&base);
                for (r, rng) in rngs.iter_mut().enumerate() {
                    Dirichlet::sample_alpha_into(&alpha, rng, &mut out[r * n..(r + 1) * n]);
                }
                out[0]
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", dim), &dim, |bench, &n| {
            let mut out = vec![0.0; REPLICATES * n];
            let mut rngs = base.clone();
            bench.iter(|| {
                rngs.clone_from_slice(&base);
                Dirichlet::sample_alpha_batch_into(&alpha, &mut rngs, &mut out);
                out[0]
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replicates, bench_dirichlet_batch);
criterion_main!(benches);
