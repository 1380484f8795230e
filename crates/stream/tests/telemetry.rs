//! Telemetry integration tests: golden Prometheus exposition, registry
//! behavior under concurrent recording, and a full pipeline run checked
//! for coverage of every instrumented layer — engine, ingest, solver,
//! and pipeline egress.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use stream::ingest::MemorySource;
use stream::sink::MemorySink;
use stream::telemetry::names;
use stream::{Clock, MetricsRegistry, Pipeline, PipelineSummary};

/// The exposition output is specified byte for byte: families in name
/// order, `# HELP`/`# TYPE` headers, `_total` counters, cumulative
/// histogram buckets with a final `+Inf`, and Prometheus float
/// spellings. All observed values are exactly representable in binary
/// so the float formatting is deterministic.
#[test]
fn prometheus_exposition_is_golden() {
    let registry = MetricsRegistry::with_clock(Clock::manual());
    let pushes = registry.counter(names::ENGINE_PUSHES, "Bags accepted");
    pushes.add(3);
    let messages =
        registry.gauge_labeled(names::ENGINE_TICK_MESSAGES, "Messages", &[("worker", "0")]);
    messages.set(2.5);
    let hist = registry.histogram("bagscpd_test_seconds", "Test latency", &[0.25, 4.0]);
    hist.observe(0.125);
    hist.observe(0.5);
    hist.observe(8.0);

    let expected = "\
# HELP bagscpd_engine_pushes_total Bags accepted
# TYPE bagscpd_engine_pushes_total counter
bagscpd_engine_pushes_total 3
# HELP bagscpd_engine_tick_messages Messages
# TYPE bagscpd_engine_tick_messages gauge
bagscpd_engine_tick_messages{worker=\"0\"} 2.5
# HELP bagscpd_test_seconds Test latency
# TYPE bagscpd_test_seconds histogram
bagscpd_test_seconds_bucket{le=\"0.25\"} 1
bagscpd_test_seconds_bucket{le=\"4\"} 2
bagscpd_test_seconds_bucket{le=\"+Inf\"} 3
bagscpd_test_seconds_sum 8.625
bagscpd_test_seconds_count 3
";
    assert_eq!(registry.render(), expected);
}

/// N threads hammer one shared counter and one shared histogram while
/// the main thread renders concurrently; no increment is lost and no
/// render tears.
#[test]
fn registry_survives_concurrent_recording_and_rendering() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let registry = MetricsRegistry::new();
    // The main thread joins the barrier too: every worker has registered
    // both families before the first render, and the renders still
    // overlap the recording.
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let registry = registry.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                // Registration from every thread: idempotent, returns
                // the same shared handles.
                let c = registry.counter("bagscpd_test_events_total", "shared counter");
                let h = registry.histogram("bagscpd_test_lat_seconds", "shared hist", &[0.5]);
                barrier.wait();
                for n in 0..PER_THREAD {
                    c.inc();
                    h.observe(if (n + i as u64).is_multiple_of(2) {
                        0.25
                    } else {
                        1.0
                    });
                }
            })
        })
        .collect();
    barrier.wait();
    for _ in 0..200 {
        let text = registry.render();
        assert!(text.contains("# TYPE bagscpd_test_events_total counter"));
    }
    for worker in workers {
        worker.join().expect("worker thread");
    }
    let total = (THREADS as u64) * PER_THREAD;
    let c = registry.counter("bagscpd_test_events_total", "shared counter");
    let h = registry.histogram("bagscpd_test_lat_seconds", "shared hist", &[0.5]);
    assert_eq!(c.get(), total);
    assert_eq!(h.count(), total);
    assert_eq!(
        h.sum(),
        (total / 2) as f64 * 0.25 + (total / 2) as f64 * 1.0
    );
    let text = registry.render();
    assert!(text.contains(&format!("bagscpd_test_events_total {total}")));
    assert!(text.contains(&format!(
        "bagscpd_test_lat_seconds_bucket{{le=\"0.5\"}} {}",
        total / 2
    )));
}

fn small_detector() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 32,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn bags(n: usize) -> impl Iterator<Item = (i64, Vec<Vec<f64>>)> {
    (0..n).map(move |t| {
        let level = if t < n / 2 { 0.0 } else { 6.0 };
        let rows = (0..20)
            .map(|i| vec![level + (i % 5) as f64 * 0.1])
            .collect();
        (t as i64, rows)
    })
}

fn metric(summary: &PipelineSummary, key: &str) -> f64 {
    summary
        .metrics
        .iter()
        .find(|s| s.key == key)
        .unwrap_or_else(|| panic!("metric '{key}' missing from the summary snapshot"))
        .value
}

/// One batch pipeline run records a consistent story across all four
/// layers, surfaced through the summary's snapshot.
#[test]
fn pipeline_summary_snapshot_covers_every_layer() {
    let sink = MemorySink::new();
    let summary = Pipeline::builder(small_detector())
        .seed(42)
        .workers(2)
        .source(MemorySource::bags("alpha", bags(8)))
        .source(MemorySource::bags("beta", bags(8)))
        .sink(sink)
        .build()
        .expect("pipeline builds")
        .run()
        .expect("pipeline runs");

    // Engine layer: every completed bag was pushed and scored.
    assert_eq!(metric(&summary, names::ENGINE_PUSHES), 16.0);
    assert_eq!(metric(&summary, names::ENGINE_BAGS_SCORED), 16.0);
    assert_eq!(
        metric(&summary, names::ENGINE_POINTS),
        summary.points as f64
    );
    // Ingest layer: the pipeline routed the same bags, from parsed rows.
    assert_eq!(metric(&summary, names::INGEST_BAGS), 16.0);
    // Solver layer: scoring ran EMD solves and timed each one.
    assert!(metric(&summary, &format!("{}_count", names::SOLVER_SOLVE_SECONDS)) > 0.0);
    assert!(metric(&summary, names::SOLVER_EXACT_SOLVES) > 0.0);
    // Pipeline layer: the memory sink saw deliveries.
    assert!(
        metric(
            &summary,
            &format!("{}{{sink=\"memory\"}}", names::PIPELINE_EVENTS_DELIVERED)
        ) > 0.0
    );
    // Top-K noisiest streams published at finish, labeled per stream.
    let topk: HashMap<&str, f64> = summary
        .metrics
        .iter()
        .filter(|s| s.key.starts_with(names::TOPK_SCORE_SUM))
        .map(|s| (s.key.as_str(), s.value))
        .collect();
    assert_eq!(topk.len(), 2, "both streams in the top-K window: {topk:?}");
    assert_eq!(summary.quarantined_total, 0);
}

/// The scrape endpoint end to end at the library level: a pipeline
/// built with `serve_metrics` answers `GET /metrics` from its own step
/// loop — no thread — with valid Prometheus text.
#[test]
fn pipeline_serves_metrics_over_http() {
    let mut pipeline = Pipeline::builder(small_detector())
        .seed(42)
        .workers(1)
        .source(MemorySource::bags("alpha", bags(8)))
        .sink(MemorySink::new())
        .serve_metrics("127.0.0.1:0")
        .build()
        .expect("pipeline builds");
    let addr = pipeline.metrics_addr().expect("endpoint bound");

    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    sock.set_read_timeout(Some(Duration::from_millis(10)))
        .expect("timeout");

    // The endpoint is polled by step(): drive the pipeline until the
    // response arrives (Connection: close ends it with EOF).
    let mut resp = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        // A drained pipeline's step() still polls the endpoint, so
        // stepping past done is fine here.
        let _ = pipeline.step().expect("step");
        let mut buf = [0u8; 4096];
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => resp.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
        assert!(Instant::now() < deadline, "no response before deadline");
    }
    let text = String::from_utf8(resp).expect("utf-8 response");
    assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
    assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    let body = text.split("\r\n\r\n").nth(1).expect("body");
    for family in [
        names::ENGINE_PUSHES,
        names::INGEST_BAGS,
        names::SOLVER_SOLVE_SECONDS,
        names::PIPELINE_EVENTS_DELIVERED,
        names::METRICS_SCRAPES,
    ] {
        assert!(body.contains(family), "family '{family}' missing:\n{body}");
    }
    pipeline.finish().expect("finish");
}
