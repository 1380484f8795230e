//! P3 — streaming throughput: bags/sec through the online detector and
//! through the sharded engine as the concurrent stream count grows
//! (1, 64, 1024 named streams).

use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, SignatureMethod};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use stream::{EmdScratch, EngineConfig, MetricsRegistry, OnlineDetector, StreamEngine, StreamId};

const BAGS_PER_STREAM: usize = 8;

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 16,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn bag_for(s: usize, t: usize) -> Bag {
    let level = if t >= BAGS_PER_STREAM / 2 { 3.0 } else { 0.0 };
    Bag::from_scalars((0..16).map(move |i| level + ((i * 3 + s + t) % 7) as f64 * 0.1))
}

/// One full engine lifecycle: spawn, resolve every stream once, push
/// `streams * BAGS_PER_STREAM` bags by id, drain, shut down. Returns the
/// event count (kept observable so the work cannot be optimized away).
fn run_engine(streams: usize, telemetry: Option<MetricsRegistry>) -> usize {
    let mut engine = StreamEngine::new(EngineConfig {
        detector: detector_config(),
        seed: 1,
        workers: 4,
        queue_capacity: 1024,
        batch_size: 128,
        event_capacity: 1 << 17,
        telemetry,
    })
    .expect("engine spawns");
    let ids: Vec<StreamId> = (0..streams)
        .map(|s| engine.resolve(&format!("s{s}")).expect("resolve"))
        .collect();
    let mut events = 0usize;
    for t in 0..BAGS_PER_STREAM {
        for (s, &id) in ids.iter().enumerate() {
            engine.push_id(id, bag_for(s, t)).expect("push");
        }
        events += engine.drain_events().len();
    }
    engine.flush().expect("flush");
    events + engine.shutdown().len()
}

fn bench_engine_stream_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_bags_per_sec");
    group.sample_size(10);
    for &streams in &[1usize, 64, 1024] {
        group.throughput(Throughput::Elements((streams * BAGS_PER_STREAM) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(streams), &streams, |b, &n| {
            b.iter(|| run_engine(n, None));
        });
    }
    group.finish();
}

/// The same lifecycle with a live telemetry registry attached: the
/// delta against `engine_bags_per_sec` is the full instrumentation
/// overhead (push counter, per-tick telemetry, solve-latency timer).
fn bench_engine_instrumented(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_bags_per_sec_instrumented");
    group.sample_size(10);
    for &streams in &[64usize, 1024] {
        group.throughput(Throughput::Elements((streams * BAGS_PER_STREAM) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(streams), &streams, |b, &n| {
            b.iter(|| run_engine(n, Some(MetricsRegistry::new())));
        });
    }
    group.finish();
}

/// Per-push cost of the incremental single-stream core (no engine, no
/// threads): the steady-state hot path.
fn bench_online_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_push_steady_state");
    group.sample_size(20);
    const PUSHES: usize = 64;
    group.throughput(Throughput::Elements(PUSHES as u64));
    group.bench_function(BenchmarkId::from_parameter("histogram"), |b| {
        let det = Detector::new(detector_config()).expect("valid");
        // One pair of scratches across iterations, as a worker keeps them.
        let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
        b.iter(|| {
            let mut online = OnlineDetector::new(det.clone(), 7);
            let mut emitted = 0usize;
            for t in 0..PUSHES {
                let bag = bag_for(0, t);
                if online
                    .push_with(bag, &mut eval, &mut emd)
                    .expect("push")
                    .is_some()
                {
                    emitted += 1;
                }
            }
            emitted
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_stream_count,
    bench_engine_instrumented,
    bench_online_push
);
criterion_main!(benches);
