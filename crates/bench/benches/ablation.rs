//! P4 (timing half) — cost of the quantizer choices: signature
//! construction time per method at matched K, on a realistic bag.

use bagcpd::{build_signature, Bag, SignatureMethod};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
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
            bench.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                build_signature(&bag, m, &mut rng)
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
            bench.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                build_signature(&bag, &SignatureMethod::KMeans { k: 8 }, &mut rng)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_signature_methods, bench_bag_size_scaling);
criterion_main!(benches);
