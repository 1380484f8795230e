//! Property tests of ingestion determinism: however many sources are
//! interleaved through the `Pipeline`, each stream's emitted points
//! must be bit-identical to feeding that stream alone through a
//! standalone `OnlineDetector` — and killing + resuming from a
//! checkpoint at any batch boundary must be lossless.

use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, SignatureMethod};
use proptest::prelude::*;
use stream::ingest::{CheckpointPolicy, CsvFileSource, ThreadedLineSource};
use stream::sink::MemorySink;
use stream::{derive_stream_seed, EmdScratch, Event, OnlineDetector, Pipeline, PipelineBuilder};

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

fn detector_cfg() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn pipeline(seed: u64, workers: usize) -> PipelineBuilder {
    Pipeline::builder(detector_cfg())
        .seed(seed)
        .workers(workers)
}

/// One generated stream: a name plus per-bag row counts and level
/// offsets (rows are derived deterministically from those).
#[derive(Debug, Clone)]
struct GenStream {
    name: String,
    bags: Vec<(u8, i8)>, // (rows 3..20, level scaled by 0.5)
}

/// `n_range` streams of 6..14 bags each, named by index.
fn streams_strategy(n_range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<GenStream>> {
    prop::collection::vec(prop::collection::vec((3u8..20, -4i8..4), 6..14), n_range).prop_map(
        |all| {
            all.into_iter()
                .enumerate()
                .map(|(idx, bags)| GenStream {
                    name: format!("s{idx}"),
                    bags,
                })
                .collect()
        },
    )
}

fn rows_for(stream: &GenStream, t: usize) -> Vec<Vec<f64>> {
    let (n, level) = stream.bags[t];
    (0..n as usize)
        .map(|i| vec![level as f64 * 0.5 + ((i * 5 + t) % 9) as f64 * 0.25])
        .collect()
}

fn csv_for(stream: &GenStream, upto: usize) -> String {
    let mut s = String::from("t,x\n");
    for t in 0..upto {
        for row in rows_for(stream, t) {
            s.push_str(&format!("{t},{}\n", row[0]));
        }
    }
    s
}

/// Run `builder` to completion; every event it delivered.
fn run(builder: PipelineBuilder) -> Vec<Event> {
    let sink = MemorySink::new();
    builder.sink(sink.clone()).build().unwrap().run().unwrap();
    sink.events()
}

fn points_by_stream(events: &[Event], name: &str) -> Vec<bagcpd::ScorePoint> {
    events
        .iter()
        .filter(|e| e.stream() == Some(name))
        .filter_map(|e| e.point())
        .cloned()
        .collect()
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any set of streams interleaved through the pipeline produces,
    /// per stream, exactly the points a solo detector produces.
    #[test]
    fn pipeline_interleaving_matches_solo_detectors(
        streams in streams_strategy(1..4),
        master_seed in 0u64..1000,
        workers in 1usize..4,
    ) {
        let mut builder = pipeline(master_seed, workers);
        for s in &streams {
            let text = csv_for(s, s.bags.len());
            builder = builder.source(ThreadedLineSource::spawn(
                Cursor::new(text.into_bytes()),
                format!("mem:{}", s.name),
                s.name.clone(),
            ));
        }
        let events = run(builder);

        let detector = Detector::new(detector_cfg()).unwrap();
        let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
        for s in &streams {
            let mut solo = OnlineDetector::new(
                detector.clone(),
                derive_stream_seed(master_seed, &s.name),
            );
            let mut expected = Vec::new();
            for t in 0..s.bags.len() {
                let bag = Bag::new(rows_for(s, t));
                expected.extend(solo.push_with(bag, &mut eval, &mut emd).unwrap());
            }
            prop_assert_eq!(
                expected,
                points_by_stream(&events, &s.name),
                "stream {} diverged from its solo detector", s.name
            );
        }
    }

    /// Checkpoint at an arbitrary batch boundary, then resume over the
    /// grown inputs: the combined per-stream points equal an
    /// uninterrupted session's, bit for bit.
    #[test]
    fn checkpoint_resume_at_any_boundary_is_lossless(
        streams in streams_strategy(1..3),
        cut_frac in 0.1..0.95f64,
        master_seed in 0u64..1000,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "stream_ingest_prop_{}_{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("ck.snap");
        let ref_state = dir.join("ref.snap");

        let paths: Vec<std::path::PathBuf> = streams
            .iter()
            .map(|s| dir.join(format!("{}.csv", s.name)))
            .collect();
        // A checkpointing session over the csv files; a state file
        // that exists is resumed (its master seed wins).
        let session = |seed: u64, state: &std::path::Path| {
            let mut builder =
                pipeline(seed, 2).checkpoint(CheckpointPolicy::disabled(), state);
            for (s, p) in streams.iter().zip(&paths) {
                builder = builder.source(CsvFileSource::new(
                    p.to_string_lossy().into_owned(),
                    s.name.clone(),
                    false,
                ));
            }
            run(builder)
        };

        // Session 1: truncated inputs (an arbitrary per-stream batch
        // boundary), ending in a checkpoint.
        for (s, p) in streams.iter().zip(&paths) {
            let cut = ((s.bags.len() as f64) * cut_frac).ceil() as usize;
            std::fs::write(p, csv_for(s, cut.clamp(1, s.bags.len()))).unwrap();
        }
        let mut got = session(master_seed, &state);

        // Session 2: the inputs have grown to full length; resume.
        for (s, p) in streams.iter().zip(&paths) {
            std::fs::write(p, csv_for(s, s.bags.len())).unwrap();
        }
        got.extend(session(0, &state));

        // Reference: one uninterrupted checkpointing session.
        for (s, p) in streams.iter().zip(&paths) {
            std::fs::write(p, csv_for(s, s.bags.len())).unwrap();
        }
        let expected = session(master_seed, &ref_state);

        for s in &streams {
            prop_assert_eq!(
                points_by_stream(&expected, &s.name),
                points_by_stream(&got, &s.name),
                "stream {}: resume lost or corrupted data", s.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
