//! The egress layer: golden-output equivalence against the retired
//! `println!` formats, and fault injection proving the delivery-acked
//! checkpoint contract ("a committed checkpoint never covers
//! undelivered output").

use bagcpd::{BootstrapConfig, DetectorConfig, ScorePoint, SignatureMethod};
use stream::ingest::{CsvFileSource, MemorySource, ThreadedLineSource};
use stream::sink::{CsvSchema, CsvSink, MemorySink, Sink, Tee};
use stream::{derive_stream_seed, CheckpointPolicy, Event, OnlineDetector, Pipeline};

use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn detector_cfg() -> DetectorConfig {
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

/// CSV text: `bags` bags of 20 rows each, with a level shift at
/// `change_at`, values perturbed by `salt` so streams differ.
fn csv_text(bags: usize, change_at: usize, salt: u64, header: bool) -> String {
    let mut s = String::new();
    if header {
        s.push_str("t,x\n");
    }
    for t in 0..bags {
        let level = if t < change_at { 0.0 } else { 5.0 };
        for i in 0..20 {
            let x = level + ((i as u64 * 3 + salt + t as u64) % 7) as f64 * 0.1;
            s.push_str(&format!("{t},{x}\n"));
        }
    }
    s
}

fn bags_of(text: &str) -> Vec<(i64, Vec<Vec<f64>>)> {
    let mut by_time: BTreeMap<i64, Vec<Vec<f64>>> = BTreeMap::new();
    for line in text.lines().skip_while(|l| l.starts_with("t,")) {
        let (t, x) = line.split_once(',').unwrap();
        by_time
            .entry(t.parse().unwrap())
            .or_default()
            .push(vec![x.parse().unwrap()]);
    }
    by_time.into_iter().collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream_sink_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The pre-PR CLI stdout row (`src/main.rs` batch/follow/serve
/// `println!`/`print_event`), replicated format-string for
/// format-string.
fn legacy_stdout_row(stream: Option<&str>, p: &ScorePoint) -> String {
    let mut s = String::new();
    if let Some(name) = stream {
        s.push_str(&format!("{name},"));
    }
    s.push_str(&format!(
        "{},{:.6},{:.6},{:.6},{}\n",
        p.t,
        p.score,
        p.ci.lo,
        p.ci.up,
        u8::from(p.alert)
    ));
    s
}

/// The pre-PR batch `--output` row (`src/main.rs` `writeln!`),
/// replicated format-string for format-string.
fn legacy_output_row(p: &ScorePoint) -> String {
    format!(
        "{},{},{},{},{},{}\n",
        p.t,
        p.score,
        p.ci.lo,
        p.ci.up,
        p.xi.map_or(String::new(), |x| x.to_string()),
        u8::from(p.alert)
    )
}

/// The reference points a solo detector emits for `text` under `seed`.
fn reference_points(text: &str, seed: u64) -> Vec<ScorePoint> {
    let detector = bagcpd::Detector::new(detector_cfg()).unwrap();
    let mut online = OnlineDetector::new(detector, seed);
    let (mut eval, mut emd) = (bagcpd::EvalScratch::new(), stream::EmdScratch::new());
    let mut out = Vec::new();
    for (_, rows) in bags_of(text) {
        let bag = bagcpd::Bag::new(rows);
        out.extend(online.push_with(bag, &mut eval, &mut emd).unwrap());
    }
    out
}

// ---------------------------------------------------------------------
// Golden-output equivalence: the sinks, configured the way the CLI
// modes configure them, must reproduce the retired println!/writeln!
// bytes exactly.
// ---------------------------------------------------------------------

#[test]
fn csv_sink_schemas_reproduce_legacy_bytes_for_fixed_points() {
    // Awkward values on purpose: negative zero, non-terminating
    // fractions, missing xi — everything the two formatters disagreed
    // about historically.
    let points = vec![
        ScorePoint {
            t: 3,
            score: 1.0 / 3.0,
            ci: bagcpd::ConfidenceInterval {
                lo: -0.0,
                up: 2.839229,
            },
            xi: None,
            alert: false,
        },
        ScorePoint {
            t: 4,
            score: 29.422781,
            ci: bagcpd::ConfidenceInterval {
                lo: 29.422781,
                up: 29.4227814159,
            },
            xi: Some(0.1 + 0.2),
            alert: true,
        },
    ];
    let events: Vec<Event> = points
        .iter()
        .map(|p| Event::Point {
            stream: Arc::from("s0"),
            point: *p,
        })
        .collect();

    // follow/batch stdout: no stream column, no xi, six decimals.
    let mut sink = CsvSink::with_schema(Vec::new(), CsvSchema::legacy_stdout(false));
    sink.deliver(&events).unwrap();
    let mut expected = String::from("t,score,ci_lo,ci_up,alert\n");
    for p in &points {
        expected.push_str(&legacy_stdout_row(None, p));
    }
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);

    // serve stdout: stream prefix, otherwise identical.
    let mut sink = CsvSink::with_schema(Vec::new(), CsvSchema::legacy_stdout(true));
    sink.deliver(&events).unwrap();
    let mut expected = String::from("stream,t,score,ci_lo,ci_up,alert\n");
    for p in &points {
        expected.push_str(&legacy_stdout_row(Some("s0"), p));
    }
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);

    // batch --output: xi column, full precision.
    let mut sink = CsvSink::with_schema(Vec::new(), CsvSchema::single_stream());
    sink.deliver(&events).unwrap();
    let mut expected = String::from("t,score,ci_lo,ci_up,xi,alert\n");
    for p in &points {
        expected.push_str(&legacy_output_row(p));
    }
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
}

#[test]
fn follow_shaped_pipeline_is_byte_identical_to_legacy_follow_output() {
    // A whole pipeline (line source -> engine -> CsvSink) must emit the
    // same bytes the old hand-rolled follow loop printed: header first
    // (even with no points), then one legacy row per point.
    let text = csv_text(9, 5, 1, true);
    let seed = 7;
    let mut expected = String::from("t,score,ci_lo,ci_up,alert\n");
    for p in reference_points(&text, seed) {
        expected.push_str(&legacy_stdout_row(None, &p));
    }

    let sink = MemorySink::new();
    let csv = Arc::new(Mutex::new(Vec::new()));
    let summary = Pipeline::builder(detector_cfg())
        .workers(1)
        .strict(true)
        .stream_seed("s", seed)
        .source(ThreadedLineSource::spawn(
            Cursor::new(text.into_bytes()),
            "mem",
            "s",
        ))
        .sink(Tee::new(
            CsvSink::with_schema(SharedBuf(csv.clone()), CsvSchema::legacy_stdout(false)),
            sink.clone(),
        ))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.points, 5, "9 bags, window 5");
    let got = String::from_utf8(csv.lock().unwrap().clone()).unwrap();
    assert_eq!(got, expected, "pipeline CSV must match the legacy bytes");
}

#[test]
fn serve_shaped_pipeline_matches_legacy_per_stream_output() {
    // Multi-stream: cross-stream interleaving is scheduling-dependent,
    // but each stream's row subsequence must be exactly the legacy
    // stream-prefixed bytes.
    let seed = 11;
    let texts: Vec<String> = (0..3).map(|s| csv_text(9, 5, s, false)).collect();
    let csv = Arc::new(Mutex::new(Vec::new()));
    let mut builder = Pipeline::builder(detector_cfg())
        .seed(seed)
        .workers(2)
        .sink(CsvSink::with_schema(
            SharedBuf(csv.clone()),
            CsvSchema::legacy_stdout(true),
        ));
    for (s, text) in texts.iter().enumerate() {
        builder = builder.source(MemorySource::bags(format!("sensor-{s}"), bags_of(text)));
    }
    builder.build().unwrap().run().unwrap();

    let got = String::from_utf8(csv.lock().unwrap().clone()).unwrap();
    let mut lines = got.lines();
    assert_eq!(lines.next(), Some("stream,t,score,ci_lo,ci_up,alert"));
    for (s, text) in texts.iter().enumerate() {
        let name = format!("sensor-{s}");
        let expected: String = reference_points(text, derive_stream_seed(seed, &name))
            .iter()
            .map(|p| legacy_stdout_row(Some(&name), p))
            .collect();
        let stream_rows: String = got
            .lines()
            .skip(1)
            .filter(|l| l.starts_with(&format!("{name},")))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stream_rows, expected, "stream {name}");
    }
}

/// A `Vec<u8>` writer the test can keep a handle to after the sink
/// moved into the pipeline.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault injection: a sink that fails mid-delivery must block the
// checkpoint commit, and resume must replay exactly the undelivered
// points.
// ---------------------------------------------------------------------

/// Delivers events into a shared list until `points_left` score points
/// have been accepted, then fails the batch with `ErrorKind::Other`
/// mid-delivery (the prefix of the batch *was* accepted — the nastiest
/// partial-failure shape).
struct FailingSink {
    delivered: Arc<Mutex<Vec<Event>>>,
    points_left: usize,
}

impl Sink for FailingSink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        for event in events {
            if event.point().is_some() {
                if self.points_left == 0 {
                    return Err(io::Error::other("injected sink failure"));
                }
                self.points_left -= 1;
            }
            self.delivered.lock().unwrap().push(event.clone());
        }
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Accepts everything, but refuses to flush durably once anything has
/// been delivered (the build-time priming flush of an empty sink is
/// allowed through, as any real sink's would be).
struct NoFlushSink {
    delivered: Arc<Mutex<Vec<Event>>>,
}

impl Sink for NoFlushSink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        self.delivered.lock().unwrap().extend_from_slice(events);
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        if self.delivered.lock().unwrap().is_empty() {
            Ok(())
        } else {
            Err(io::Error::other("injected flush failure"))
        }
    }
}

/// 40 bags => 800 data rows: the first 512-line poll pushes 25 bags (21
/// points), the second the rest (35 points total with the trailing bag
/// held back). `every_bags: 10` puts a checkpoint attempt after each
/// poll.
fn fault_fixture(dir: &std::path::Path) -> PathBuf {
    let input = dir.join("in.csv");
    std::fs::write(&input, csv_text(40, 99, 1, true)).unwrap();
    input
}

fn fault_pipeline(input: &std::path::Path, state: &std::path::Path) -> stream::PipelineBuilder {
    Pipeline::builder(detector_cfg())
        .seed(5)
        .workers(1)
        // Pin the stream seed so `reference_points(text, 5)` (a solo
        // detector under seed 5) is the ground truth.
        .stream_seed("s", 5)
        .checkpoint(
            CheckpointPolicy {
                every_bags: Some(10),
                every_ticks: None,
            },
            state,
        )
        .source(CsvFileSource::new(
            input.to_string_lossy().into_owned(),
            "s",
            false,
        ))
}

fn points_by_t(events: &[Event]) -> BTreeMap<usize, ScorePoint> {
    events
        .iter()
        .filter_map(|e| e.point())
        .map(|p| (p.t, *p))
        .collect()
}

#[test]
fn sink_failure_before_first_commit_leaves_no_checkpoint() {
    let dir = tmp_dir("fault_early");
    let input = fault_fixture(&dir);
    let state = dir.join("state.snap");

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let err = fault_pipeline(&input, &state)
        .sink(FailingSink {
            delivered: delivered.clone(),
            points_left: 10,
        })
        .build()
        .unwrap()
        .run()
        .expect_err("the failing sink must abort the run");
    assert!(
        matches!(err, stream::PipelineError::Sink(ref e) if e.kind() == io::ErrorKind::Other),
        "{err}"
    );
    // The failure landed before the first flush_durable completed, so
    // no checkpoint may exist: the delivered prefix is safe, everything
    // else must be recomputed.
    assert!(
        !state.exists(),
        "a checkpoint over undelivered points was committed"
    );

    // Resume (from scratch — there is no checkpoint) with a healthy
    // sink: every point reappears, and the ones the failed session did
    // deliver replay bit-identically.
    let sink = MemorySink::new();
    fault_pipeline(&input, &state)
        .sink(sink.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let replayed = points_by_t(&sink.events());
    let reference = reference_points(&csv_text(39, 99, 1, true), 5);
    assert_eq!(
        replayed.len(),
        reference.len(),
        "39 pushed bags (hold-back)"
    );
    for p in &reference {
        assert_eq!(replayed.get(&p.t), Some(p), "t = {}", p.t);
    }
    let delivered = delivered.lock().unwrap();
    for (p, q) in delivered.iter().filter_map(|e| e.point()).zip(&reference) {
        assert_eq!(p, q, "delivered prefix must be the reference prefix");
    }
}

#[test]
fn sink_failure_after_a_commit_resumes_with_exactly_the_undelivered_tail() {
    let dir = tmp_dir("fault_mid");
    let input = fault_fixture(&dir);
    let state = dir.join("state.snap");
    let reference = reference_points(&csv_text(39, 99, 1, true), 5);
    assert_eq!(reference.len(), 35);

    // Budget 30: the first commit (21 points delivered) succeeds, the
    // delivery for the second fails 30 points in.
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let err = fault_pipeline(&input, &state)
        .sink(FailingSink {
            delivered: delivered.clone(),
            points_left: 30,
        })
        .build()
        .unwrap()
        .run()
        .expect_err("the failing sink must abort the run");
    assert!(matches!(err, stream::PipelineError::Sink(_)), "{err}");
    assert!(
        state.exists(),
        "the first checkpoint was delivered and committed"
    );
    let delivered: Vec<ScorePoint> = delivered
        .lock()
        .unwrap()
        .iter()
        .filter_map(|e| e.point())
        .copied()
        .collect();
    assert_eq!(delivered.len(), 30);
    assert_eq!(&delivered[..], &reference[..30], "ordered prefix");

    // Resume from the surviving checkpoint: the session replays every
    // point past it — covering all 5 undelivered ones — and the overlap
    // with the failed session's delivered tail is bit-identical.
    let sink = MemorySink::new();
    fault_pipeline(&input, &state)
        .sink(sink.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let resumed = points_by_t(&sink.events());
    for p in &reference[30..] {
        assert_eq!(
            resumed.get(&p.t),
            Some(p),
            "undelivered point t = {} must be replayed",
            p.t
        );
    }
    // Combined delivery covers the whole reference with no divergence.
    let mut combined = points_by_t(
        &delivered
            .iter()
            .map(|p| Event::Point {
                stream: Arc::from("s"),
                point: *p,
            })
            .collect::<Vec<_>>(),
    );
    for (t, p) in &resumed {
        if let Some(prev) = combined.insert(*t, *p) {
            assert_eq!(prev, *p, "replayed point t = {t} diverged");
        }
    }
    assert_eq!(combined.len(), reference.len());
    for p in &reference {
        assert_eq!(combined.get(&p.t), Some(p), "t = {}", p.t);
    }
}

#[test]
fn flush_durable_failure_blocks_the_commit_even_after_delivery() {
    let dir = tmp_dir("fault_flush");
    let input = fault_fixture(&dir);
    let state = dir.join("state.snap");

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let err = fault_pipeline(&input, &state)
        .sink(NoFlushSink {
            delivered: delivered.clone(),
        })
        .build()
        .unwrap()
        .run()
        .expect_err("an unflushable sink must abort the run");
    assert!(matches!(err, stream::PipelineError::Sink(_)), "{err}");
    assert!(
        !delivered.lock().unwrap().is_empty(),
        "delivery itself succeeded"
    );
    assert!(
        !state.exists(),
        "a checkpoint must not be committed before flush_durable succeeds"
    );
}

#[test]
fn flush_durable_failure_blocks_the_final_commit() {
    // Periodic checkpoints off: the only commit is the one `finish`
    // takes, and it too must wait for every sink's flush_durable.
    let dir = tmp_dir("fault_final_flush");
    let input = fault_fixture(&dir);
    let state = dir.join("state.snap");
    let final_only =
        || fault_pipeline(&input, &state).checkpoint(CheckpointPolicy::disabled(), &state);

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let mut pipeline = final_only()
        .sink(NoFlushSink {
            delivered: delivered.clone(),
        })
        .build()
        .unwrap();
    while !pipeline.step().unwrap().done {}
    let err = pipeline
        .finish()
        .expect_err("an unflushable sink must fail the wind-down");
    assert!(matches!(err, stream::PipelineError::Sink(_)), "{err}");
    assert!(
        !delivered.lock().unwrap().is_empty(),
        "delivery itself succeeded"
    );
    assert!(
        !state.exists(),
        "the final checkpoint must not be committed before flush_durable succeeds"
    );

    // A healthy re-run reproduces every point.
    let sink = MemorySink::new();
    final_only()
        .sink(sink.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let replayed = points_by_t(&sink.events());
    let reference = reference_points(&csv_text(39, 99, 1, true), 5);
    assert_eq!(
        replayed.len(),
        reference.len(),
        "39 pushed bags (hold-back)"
    );
    for p in &reference {
        assert_eq!(replayed.get(&p.t), Some(p), "t = {}", p.t);
    }
}

// ---------------------------------------------------------------------
// Tee partial failure: a fault in one leg must not starve the other.
// ---------------------------------------------------------------------

/// Refuses every delivery and every flush with a fixed error.
struct RefusingSink;

impl Sink for RefusingSink {
    fn deliver(&mut self, _events: &[Event]) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::ConnectionReset, "leg down"))
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::ConnectionReset, "leg down"))
    }
}

#[test]
fn tee_delivers_to_the_healthy_leg_and_reports_the_first_error() {
    let events = vec![
        Event::Note("n0".into()),
        Event::Note("n1".into()),
        Event::Note("n2".into()),
    ];

    // Failing leg first: the healthy leg must still see the batch.
    let healthy = MemorySink::new();
    let mut tee = Tee::new(RefusingSink, healthy.clone());
    let err = tee.deliver(&events).expect_err("the failed leg's error");
    assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    assert_eq!(
        healthy.events().len(),
        3,
        "b must not be starved by a's fault"
    );
    let err = tee.flush_durable().expect_err("flush reports too");
    assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);

    // Failing leg second: same batch coverage, same (first) error out.
    let healthy = MemorySink::new();
    let mut tee = Tee::new(healthy.clone(), RefusingSink);
    let err = tee.deliver(&events).expect_err("the failed leg's error");
    assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    assert_eq!(healthy.events().len(), 3, "a delivered before b failed");
}
