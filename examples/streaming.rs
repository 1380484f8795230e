//! Online use: feed bags one at a time and act on alerts as they fire.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```
//!
//! Part 1 drives a single [`stream::OnlineDetector`]: each push costs
//! one signature build plus a handful of cached EMD solves (constant
//! memory), and each completed score point — identical to what the
//! batch API would produce — prints immediately, with a latency of τ'
//! bags. One evaluation scratch and one EMD scratch serve every push,
//! as they serve every stream of an engine worker, so a warm push
//! allocates nothing.
//!
//! Part 2 runs the same workload through the [`stream::Pipeline`]
//! facade: many named sensors enter through `Source`s, every output —
//! score points, notes, checkpoint commits — leaves through `Sink`s as
//! one typed event stream, and the session checkpoints on shutdown. A
//! second pipeline pointed at the same state file resumes the fleet
//! bit-identically: the restart loses nothing, and no host-side
//! engine plumbing is involved.

use bags_cpd::stats::{seeded_rng, GaussianMixture1d};
use bags_cpd::stream::ingest::MemorySource;
use bags_cpd::stream::{
    CheckpointPolicy, CsvSink, EmdScratch, Event, MemorySink, OnlineDetector, Pipeline, Sink as _,
};
use bags_cpd::{Bag, Detector, DetectorConfig, EvalScratch};

const SENSORS: usize = 6;

fn detector() -> Detector {
    Detector::new(DetectorConfig {
        tau: 5,
        tau_prime: 4,
        ..DetectorConfig::default()
    })
    .expect("valid config")
}

/// Three regimes: a slow drift would not alert, but these two shape
/// changes (variance up at t = 15, mode split at t = 30) should.
fn regimes() -> [GaussianMixture1d; 3] {
    [
        GaussianMixture1d::equal_weight(&[(0.0, 1.0)]),
        GaussianMixture1d::equal_weight(&[(0.0, 3.0)]),
        GaussianMixture1d::equal_weight(&[(-4.0, 1.0), (4.0, 1.0)]),
    ]
}

fn single_stream() {
    let mut rng = seeded_rng(5);
    let regimes = regimes();
    let mut online = OnlineDetector::new(detector(), 99);
    let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());

    println!("streaming 45 bags (changes injected at t = 15 and t = 30)\n");
    for t in 0..45 {
        let regime = &regimes[t / 15];
        let bag = Bag::from_scalars(regime.sample_n(150, &mut rng));
        let point = online.push_with(bag, &mut eval, &mut emd);
        if let Some(p) = point.expect("push succeeds") {
            println!(
                "t={:>2}  score={:>7.4}  ci=[{:>7.4}, {:>7.4}]{}",
                p.t,
                p.score,
                p.ci.lo,
                p.ci.up,
                if p.alert { "  <-- ALERT" } else { "" }
            );
        }
    }
}

/// The whole fleet's observations, per sensor: `(time, rows)` pairs.
/// Sampled in `(t, sensor)` order so splitting the range across two
/// sessions draws the exact sequence one uninterrupted run would.
fn fleet_bags(range: std::ops::Range<usize>) -> Vec<Vec<(i64, Vec<Vec<f64>>)>> {
    let mut rng = seeded_rng(17);
    let regimes = regimes();
    let mut bags: Vec<Vec<(i64, Vec<Vec<f64>>)>> = vec![Vec::new(); SENSORS];
    for t in 0..range.end {
        for (s, per_sensor) in bags.iter_mut().enumerate() {
            // Half the sensors change regimes, half stay flat.
            let regime = if s % 2 == 0 {
                &regimes[t / 15]
            } else {
                &regimes[0]
            };
            let rows: Vec<Vec<f64>> = regime
                .sample_n(120, &mut rng)
                .into_iter()
                .map(|x| vec![x])
                .collect();
            if t >= range.start {
                per_sensor.push((t as i64, rows));
            }
        }
    }
    bags
}

/// One session over `range`: a pipeline with one in-memory source per
/// sensor and a collecting sink, checkpointing to `state` at shutdown.
fn fleet_session(range: std::ops::Range<usize>, state: &std::path::Path) -> Vec<Event> {
    let collected = MemorySink::new();
    let mut builder = Pipeline::builder(detector().config().clone())
        .seed(99)
        .workers(3)
        .checkpoint(CheckpointPolicy::disabled(), state) // final checkpoint only
        .sink(collected.clone());
    for (s, sensor_bags) in fleet_bags(range.clone()).into_iter().enumerate() {
        builder = builder.source(MemorySource::bags(format!("sensor-{s}"), sensor_bags));
    }
    let pipeline = builder.build().expect("pipeline builds");
    let resumed = pipeline.resumed();
    let summary = pipeline.run().expect("pipeline runs");
    println!(
        "session over t = {}..{}: {} bags, {} points, checkpoint {} bytes{}",
        range.start,
        range.end,
        summary.bags,
        summary.points,
        summary.checkpoint_bytes.unwrap_or(0),
        if resumed { " (resumed)" } else { "" },
    );
    collected.events()
}

fn pipeline_fleet() {
    let state = std::env::temp_dir().join("bags_cpd_streaming_example.snap");
    let _ = std::fs::remove_file(&state);

    println!("\npipeline: {SENSORS} sensors on 3 workers, restart at t = 20\n");
    // Session 1 winds down with a checkpoint; session 2 resumes from it
    // and continues exactly where the fleet left off.
    let mut events = fleet_session(0..20, &state);
    events.extend(fleet_session(20..45, &state));

    // The same events in the canonical CSV schema, for one sample point:
    // the smallest (stream, t), whichever worker delivered first.
    let first = events
        .iter()
        .filter(|e| e.point().is_some())
        .min_by_key(|e| (e.stream(), e.point().map(|p| p.t)));
    if let Some(event) = first {
        let mut csv = CsvSink::new(Vec::new());
        csv.deliver(std::slice::from_ref(event)).expect("in-memory");
        print!(
            "a point event as canonical CSV:\n{}",
            String::from_utf8(csv.into_inner()).expect("utf8")
        );
    }

    let mut alerts: Vec<(String, usize)> = events
        .iter()
        .filter(|e| e.is_alert())
        .map(|e| {
            (
                e.stream().expect("points carry a stream").to_string(),
                e.point().expect("alert is a point").t,
            )
        })
        .collect();
    alerts.sort();
    println!("alerts across the fleet (sensor, t): {alerts:?}");
    let _ = std::fs::remove_file(&state);
}

fn main() {
    single_stream();
    pipeline_fleet();
}
