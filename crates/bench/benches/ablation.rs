//! P4 (timing half) — cost of the quantizer choices: signature
//! construction time per method at matched K, on a realistic bag. Each
//! build runs the production builder, `signature_at_with`, through one
//! warm scratch that takes every built signature back, as a serve worker
//! does with the signatures its windows evict.

use bagcpd::{signature_at_with, Bag, SignatureMethod, SignatureScratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stats::{seeded_rng, GaussianMixture1d};

fn make_bag(size: usize) -> Bag {
    let mut rng = seeded_rng(12);
    let mix = GaussianMixture1d::equal_weight(&[(-4.0, 1.0), (0.0, 1.0), (4.0, 1.0)]);
    Bag::from_scalars(mix.sample_n(size, &mut rng))
}

fn bench_signature_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_method");
    let bag = make_bag(300);
    let methods: [(&str, SignatureMethod); 4] = [
        ("kmeans", SignatureMethod::KMeans { k: 8 }),
        ("kmedoids", SignatureMethod::KMedoids { k: 8 }),
        ("lvq", SignatureMethod::Lvq { k: 8 }),
        ("histogram", SignatureMethod::Histogram { width: 0.5 }),
    ];
    for (name, method) in methods {
        group.bench_with_input(BenchmarkId::from_parameter(name), &method, |bench, m| {
            let mut scratch = SignatureScratch::new();
            bench.iter(|| {
                let sig = signature_at_with(&bag, m, 3, 0, &mut scratch);
                let atoms = sig.len();
                scratch.recycle(sig);
                atoms
            });
        });
    }
    group.finish();
}

fn bench_bag_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_bag_size");
    for &size in &[100usize, 300, 1000, 3000] {
        let bag = make_bag(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            let mut scratch = SignatureScratch::new();
            bench.iter(|| {
                let sig =
                    signature_at_with(&bag, &SignatureMethod::KMeans { k: 8 }, 4, 0, &mut scratch);
                let atoms = sig.len();
                scratch.recycle(sig);
                atoms
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_signature_methods, bench_bag_size_scaling);
criterion_main!(benches);
