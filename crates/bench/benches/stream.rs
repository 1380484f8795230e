//! P3 — streaming throughput: bags/sec through the online detector and
//! through the sharded engine as the concurrent stream count grows
//! (1, 64, 1024 named streams), plus a head-to-head of the name-keyed
//! push path against the interned `StreamId` path.

use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, SignatureMethod};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use stream::{EngineConfig, MetricsRegistry, OnlineDetector, StreamEngine, StreamId};

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

/// One full engine lifecycle: spawn, push `streams * BAGS_PER_STREAM`
/// bags, drain, shut down. Returns the event count (kept observable so
/// the work cannot be optimized away).
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
    let mut events = 0usize;
    for t in 0..BAGS_PER_STREAM {
        for s in 0..streams {
            engine.push(&format!("s{s}"), bag_for(s, t)).expect("push");
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

/// An engine whose single worker is pinned inside a huge bootstrap
/// evaluation behind a tiny queue, so every push attempt bounces: what
/// remains measurable is the pure producer-side cost of one push —
/// routing, message assembly, and (for the name path) the per-push
/// intern-table lookup. This is exactly the path that used to pay an
/// `Arc::from(name)` allocation per *rejected* push.
fn saturated_engine(streams: usize) -> (StreamEngine, Vec<String>, Vec<StreamId>) {
    let mut engine = StreamEngine::new(EngineConfig {
        detector: DetectorConfig {
            tau: 1,
            tau_prime: 1,
            signature: SignatureMethod::Histogram { width: 0.5 },
            bootstrap: BootstrapConfig {
                replicates: 500_000, // one inspection point takes seconds
                ..Default::default()
            },
            ..Default::default()
        },
        seed: 1,
        workers: 1,
        queue_capacity: 2,
        batch_size: 1,
        event_capacity: 1 << 17,
        telemetry: None,
    })
    .expect("engine spawns");
    // Production-shaped names (the per-push lookup hashes every byte).
    let names: Vec<String> = (0..streams)
        .map(|s| format!("tenant-{:06}/sensor-{:06}/bags", s % 53, s))
        .collect();
    let ids: Vec<StreamId> = names
        .iter()
        .map(|n| engine.resolve(n).expect("resolve"))
        .collect();
    // Saturate: feed one stream until the worker is mid-evaluation and
    // the queue refuses.
    let mut t = 0usize;
    loop {
        if engine
            .try_push_id(ids[0], bag_for(0, t))
            .expect("try_push")
            .is_some()
        {
            break;
        }
        t += 1;
    }
    (engine, names, ids)
}

fn bench_push_keying(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_push_attempt");
    group.sample_size(20);
    for &streams in &[64usize, 1024] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("name", streams), &streams, |b, &n| {
            let (mut engine, names, _ids) = saturated_engine(n);
            let mut bag = Some(bag_for(0, 0));
            let mut s = 0usize;
            b.iter(|| {
                s = (s + 1) % n;
                let attempt = bag.take().expect("bag cycles");
                bag = match engine.try_push(&names[s], attempt).expect("engine alive") {
                    Some(back) => Some(back),
                    None => Some(bag_for(0, 0)), // rare: a slot freed up
                };
            });
        });
        group.bench_with_input(BenchmarkId::new("id", streams), &streams, |b, &n| {
            let (mut engine, _names, ids) = saturated_engine(n);
            let mut bag = Some(bag_for(0, 0));
            let mut s = 0usize;
            b.iter(|| {
                s = (s + 1) % n;
                let attempt = bag.take().expect("bag cycles");
                bag = match engine.try_push_id(ids[s], attempt).expect("engine alive") {
                    Some(back) => Some(back),
                    None => Some(bag_for(0, 0)), // rare: a slot freed up
                };
            });
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
        b.iter(|| {
            let mut online = OnlineDetector::new(det.clone(), 7);
            let mut emitted = 0usize;
            for t in 0..PUSHES {
                if online.push(bag_for(0, t)).expect("push").is_some() {
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
    bench_push_keying,
    bench_online_push
);
criterion_main!(benches);
