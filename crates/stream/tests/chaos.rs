//! Fault-domain integration tests, driven by the deterministic
//! `testkit` chaos wrappers:
//!
//! - transient sink faults are absorbed by [`RetryingSink`] and the
//!   output stays **byte-identical** to a fault-free run;
//! - retry exhaustion degrades the station (durable spill +
//!   [`Event::Degraded`]) instead of aborting, and recovery replays the
//!   backlog in order before new deliveries;
//! - a session killed while degraded keeps committing checkpoints over
//!   its spilled events, and the next session replays them losslessly;
//! - chaos at the source (stalls, refused connections) either vanishes
//!   from the output or aborts, by the pipeline's strictness.

use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use stream::ingest::CsvFileSource;
use stream::sink::{CsvSchema, CsvSink, MemorySink, RetryingSink, Sink};
use stream::testkit::{
    ChaosSink, ChaosSource, DeliverFault, FaultSchedule, FlushFault, SourceFault,
};
use stream::{
    CheckpointPolicy, Event, MetricsRegistry, Pipeline, PipelineBuilder, ScoreLogReader,
    ScoreLogSink,
};

use std::io;
use std::path::{Path, PathBuf};
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

/// CSV text: `bags` bags of 20 rows each with a level shift at
/// `change_at` (same generator as `tests/sink.rs`).
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(dir: &Path) -> PathBuf {
    let input = dir.join("in.csv");
    std::fs::write(&input, csv_text(40, 99, 1, true)).unwrap();
    input
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

/// The deterministic single-stream pipeline shape every test uses:
/// seed pinned, one worker, a checkpoint attempt every 10 bags.
fn bare_pipeline(state: &Path) -> PipelineBuilder {
    Pipeline::builder(detector_cfg())
        .seed(5)
        .workers(1)
        .stream_seed("s", 5)
        .checkpoint(
            CheckpointPolicy {
                every_bags: Some(10),
                every_ticks: None,
            },
            state,
        )
}

fn pipeline(input: &Path, state: &Path) -> PipelineBuilder {
    bare_pipeline(state).source(CsvFileSource::new(
        input.to_string_lossy().into_owned(),
        "s",
        false,
    ))
}

/// The bytes a fault-free run of [`pipeline`] writes to its CSV sink —
/// the ground truth every chaos run is compared against.
fn fault_free_csv(input: &Path, dir: &Path) -> String {
    let state = dir.join("reference-state.snap");
    let buf = Arc::new(Mutex::new(Vec::new()));
    pipeline(input, &state)
        .sink(CsvSink::with_schema(
            SharedBuf(buf.clone()),
            CsvSchema::legacy_stdout(false),
        ))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let got = buf.lock().unwrap().clone();
    String::from_utf8(got).unwrap()
}

/// Data rows of a legacy-stdout CSV dump (headers stripped, so dumps
/// from different sessions can be concatenated).
fn rows(csv: &str) -> Vec<&str> {
    csv.lines()
        .filter(|l| *l != "t,score,ci_lo,ci_up,alert")
        .collect()
}

fn metric(registry: &MetricsRegistry, prefix: &str) -> f64 {
    registry
        .snapshot()
        .iter()
        .filter(|s| s.key.starts_with(prefix))
        .map(|s| s.value)
        .sum()
}

// ---------------------------------------------------------------------
// (a) Transient faults: retries absorb them, output is byte-identical.
// ---------------------------------------------------------------------

#[test]
fn transient_deliver_faults_retry_to_byte_identical_output() {
    let dir = tmp_dir("retry_deliver");
    let input = fixture(&dir);
    let want = fault_free_csv(&input, &dir);

    // Worst case both faults arm inside one delivered batch: 1 + 2
    // failures still fit the default 4-attempt budget.
    let schedule = FaultSchedule {
        deliver: vec![
            DeliverFault {
                at_event: 2,
                failures: 1,
                kind: io::ErrorKind::Interrupted,
                torn: 0,
            },
            DeliverFault {
                at_event: 30,
                failures: 2,
                kind: io::ErrorKind::ConnectionReset,
                torn: 0,
            },
        ],
        flush: Vec::new(),
    };
    let buf = Arc::new(Mutex::new(Vec::new()));
    let registry = MetricsRegistry::new();
    let sink = RetryingSink::new(
        ChaosSink::new(
            CsvSink::with_schema(SharedBuf(buf.clone()), CsvSchema::legacy_stdout(false)),
            schedule,
        ),
        4,
    )
    .with_metrics(&registry)
    .with_waiter(|_| {});

    let state = dir.join("state.snap");
    let summary = pipeline(&input, &state)
        .metrics(registry.clone())
        .sink(sink)
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(summary.spilled_events, 0, "retries alone must absorb these");
    let got = buf.lock().unwrap().clone();
    assert_eq!(
        String::from_utf8(got).unwrap(),
        want,
        "retried run must be byte-identical to the fault-free run"
    );
    assert_eq!(
        metric(&registry, "bagscpd_sink_retries_total"),
        3.0,
        "each injected failure costs exactly one retry"
    );
}

#[test]
fn transient_flush_faults_retry_and_the_checkpoint_commits() {
    let dir = tmp_dir("retry_flush");
    let input = fixture(&dir);
    let want = fault_free_csv(&input, &dir);

    // Flush call 0 is the build-time priming flush; call 1 is the first
    // checkpoint's durability barrier — fail that one, once.
    let schedule = FaultSchedule {
        deliver: Vec::new(),
        flush: vec![FlushFault {
            at_flush: 1,
            kind: io::ErrorKind::Interrupted,
        }],
    };
    let buf = Arc::new(Mutex::new(Vec::new()));
    let registry = MetricsRegistry::new();
    let sink = RetryingSink::new(
        ChaosSink::new(
            CsvSink::with_schema(SharedBuf(buf.clone()), CsvSchema::legacy_stdout(false)),
            schedule,
        ),
        4,
    )
    .with_metrics(&registry)
    .with_waiter(|_| {});

    let state = dir.join("state.snap");
    pipeline(&input, &state)
        .metrics(registry.clone())
        .sink(sink)
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert!(
        state.exists(),
        "the retried flush must not block the commit"
    );
    let got = buf.lock().unwrap().clone();
    assert_eq!(String::from_utf8(got).unwrap(), want);
    assert!(metric(&registry, "bagscpd_sink_retries_total") >= 1.0);
}

// ---------------------------------------------------------------------
// (b) Retry exhaustion: degrade + spill + markers, then in-order
// recovery — never an abort.
// ---------------------------------------------------------------------

#[test]
fn retry_exhaustion_degrades_spills_and_recovers_in_order() {
    let dir = tmp_dir("degrade_recover");
    let input = fixture(&dir);
    let want = fault_free_csv(&input, &dir);
    let spill = dir.join("spill");

    // 4 consecutive failures exhaust the default 4-attempt budget in a
    // single pipeline delivery; the next probe heals.
    let schedule = FaultSchedule {
        deliver: vec![DeliverFault {
            at_event: 5,
            failures: 4,
            kind: io::ErrorKind::ConnectionReset,
            torn: 0,
        }],
        flush: Vec::new(),
    };
    let buf = Arc::new(Mutex::new(Vec::new()));
    let registry = MetricsRegistry::new();
    let sink = RetryingSink::new(
        ChaosSink::new(
            CsvSink::with_schema(SharedBuf(buf.clone()), CsvSchema::legacy_stdout(false)),
            schedule,
        ),
        4,
    )
    .with_metrics(&registry)
    .with_waiter(|_| {});
    let observer = MemorySink::new();

    let state = dir.join("state.snap");
    let summary = pipeline(&input, &state)
        .metrics(registry.clone())
        .spill_dir(&spill)
        .sink(sink)
        .sink(observer.clone())
        .build()
        .unwrap()
        .run()
        .expect("exhaustion must degrade, not abort");

    assert_eq!(summary.spilled_events, 0, "the backlog was replayed");
    assert!(
        metric(&registry, "bagscpd_egress_spilled_events_total") > 0.0,
        "the refused batch must have hit the spill log"
    );
    assert_eq!(
        metric(&registry, "bagscpd_egress_degraded"),
        0.0,
        "no station may end the run degraded"
    );
    assert!(
        !spill.join("sink-0-csv.spill").exists(),
        "recovery must remove the drained spill file"
    );

    // The surviving sink saw the full degraded lifecycle, in order.
    let events = observer.events();
    let degraded = events
        .iter()
        .position(|e| matches!(e, Event::Degraded { .. }))
        .expect("a Degraded marker must reach surviving sinks");
    let recovered = events
        .iter()
        .position(|e| matches!(e, Event::Recovered { .. }))
        .expect("a Recovered marker must follow");
    assert!(degraded < recovered);
    match &events[recovered] {
        Event::Recovered { sink, replayed } => {
            assert_eq!(sink.as_str(), "csv");
            assert!(*replayed > 0, "recovery replays the spilled backlog");
        }
        _ => unreachable!(),
    }

    // Replay-before-new-deliveries keeps the bytes identical.
    let got = buf.lock().unwrap().clone();
    assert_eq!(
        String::from_utf8(got).unwrap(),
        want,
        "degrade + recover must still produce the fault-free bytes"
    );
}

// ---------------------------------------------------------------------
// (c) Killed mid-degraded: checkpoints over spilled events are legal
// (the spill is durable), and the next session replays losslessly.
// ---------------------------------------------------------------------

#[test]
fn degraded_checkpoints_cover_spilled_events_and_resume_replays_them() {
    let dir = tmp_dir("degraded_resume");
    let input = fixture(&dir);
    let want = fault_free_csv(&input, &dir);
    let spill = dir.join("spill");
    let state = dir.join("state.snap");

    // Session 1: the sink dies at ordinal 8 and never comes back.
    let schedule = FaultSchedule {
        deliver: vec![DeliverFault {
            at_event: 8,
            failures: u32::MAX,
            kind: io::ErrorKind::ConnectionReset,
            torn: 0,
        }],
        flush: Vec::new(),
    };
    let buf1 = Arc::new(Mutex::new(Vec::new()));
    let sink = RetryingSink::new(
        ChaosSink::new(
            CsvSink::with_schema(SharedBuf(buf1.clone()), CsvSchema::legacy_stdout(false)),
            schedule,
        ),
        4,
    )
    .with_waiter(|_| {});
    let summary = pipeline(&input, &state)
        .spill_dir(&spill)
        .sink(sink)
        .build()
        .unwrap()
        .run()
        .expect("a dead sink must not abort a spill-backed session");
    assert!(summary.spilled_events > 0, "the tail must be spilled");
    assert!(
        state.exists(),
        "checkpoints must keep committing while degraded"
    );
    let csv1 = String::from_utf8(buf1.lock().unwrap().clone()).unwrap();
    assert!(
        want.starts_with(&csv1),
        "the delivered prefix must be a byte prefix of the fault-free run"
    );

    // Two-phase contract, degraded form: every reference point is
    // either in the delivered prefix or durably spilled — nothing the
    // checkpoint covers is merely in memory.
    let spill_path = spill.join("sink-0-csv.spill");
    assert!(
        std::fs::read(&spill_path).unwrap().starts_with(b"BCPDSLG1"),
        "a spill file is a score log"
    );
    let backlog = ScoreLogReader::read_all(&spill_path).unwrap();
    let spilled_points = backlog
        .iter()
        .filter(|e| matches!(e, Event::Point { .. }))
        .count();
    assert_eq!(
        rows(&csv1).len() + spilled_points,
        rows(&want).len(),
        "delivered + spilled must cover exactly the reference points"
    );

    // Session 2 ("after the kill"): healthy sink, same state + spill
    // dir. It must start degraded, announce the resumed backlog, replay
    // it in order, and recover.
    let buf2 = Arc::new(Mutex::new(Vec::new()));
    let observer = MemorySink::new();
    let summary2 = pipeline(&input, &state)
        .spill_dir(&spill)
        .sink(CsvSink::with_schema(
            SharedBuf(buf2.clone()),
            CsvSchema::legacy_stdout(false),
        ))
        .sink(observer.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary2.spilled_events, 0);
    assert!(!spill_path.exists(), "the drained spill file is removed");

    let events = observer.events();
    let resumed = events
        .iter()
        .find_map(|e| match e {
            Event::Degraded { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .expect("the resumed session must announce its inherited backlog");
    assert!(resumed.contains("resumed with"), "{resumed}");
    let replayed = events
        .iter()
        .find_map(|e| match e {
            Event::Recovered { replayed, .. } => Some(*replayed),
            _ => None,
        })
        .expect("the resumed session must recover");
    assert_eq!(replayed as usize, backlog.len());

    // Concatenated sessions are byte-identical to the fault-free run:
    // nothing lost, nothing duplicated, order preserved.
    let csv2 = String::from_utf8(buf2.lock().unwrap().clone()).unwrap();
    let combined: Vec<&str> = rows(&csv1).into_iter().chain(rows(&csv2)).collect();
    assert_eq!(combined, rows(&want));
}

#[test]
fn leftover_spill_in_the_retired_format_fails_the_build_untouched() {
    let dir = tmp_dir("retired_spill");
    let input = fixture(&dir);
    let spill = dir.join("spill");
    std::fs::create_dir_all(&spill).unwrap();
    // One well-formed frame behind the magic an older build wrote.
    let spill_path = spill.join("sink-0-csv.spill");
    let mut log = ScoreLogSink::open(&spill_path).unwrap();
    log.deliver(&[Event::Note("backlog".into())]).unwrap();
    log.flush_durable().unwrap();
    drop(log);
    let mut bytes = std::fs::read(&spill_path).unwrap();
    bytes[..8].copy_from_slice(b"BCPDSPL1");
    std::fs::write(&spill_path, &bytes).unwrap();

    let err = pipeline(&input, &dir.join("state.snap"))
        .spill_dir(&spill)
        .sink(CsvSink::with_schema(
            io::sink(),
            CsvSchema::legacy_stdout(false),
        ))
        .build()
        .err()
        .expect("a spill file that is not a score log must fail the build")
        .to_string();
    assert!(
        err.contains(&format!(
            "{} is not a score log (bad magic)",
            spill_path.display()
        )),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&spill_path).unwrap(),
        bytes,
        "the refused file is left as it was"
    );
}

// ---------------------------------------------------------------------
// Source chaos: stalls are invisible, refusals follow strictness.
// ---------------------------------------------------------------------

#[test]
fn chaos_source_stalls_are_invisible_in_the_output() {
    let dir = tmp_dir("source_stall");
    let input = fixture(&dir);
    let want = fault_free_csv(&input, &dir);

    let source = ChaosSource::new(
        CsvFileSource::new(input.to_string_lossy().into_owned(), "s", false),
        vec![(0, SourceFault::Stall), (2, SourceFault::Stall)],
    );
    let buf = Arc::new(Mutex::new(Vec::new()));
    let state = dir.join("state.snap");
    bare_pipeline(&state)
        .source(source)
        .sink(CsvSink::with_schema(
            SharedBuf(buf.clone()),
            CsvSchema::legacy_stdout(false),
        ))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let got = buf.lock().unwrap().clone();
    assert_eq!(
        String::from_utf8(got).unwrap(),
        want,
        "stalled polls delay but never change the output"
    );
}

#[test]
fn refused_connection_drops_the_source_but_keeps_the_session_alive() {
    let dir = tmp_dir("source_refuse");
    let input = fixture(&dir);

    let source = ChaosSource::new(
        CsvFileSource::new(input.to_string_lossy().into_owned(), "s", false),
        vec![(0, SourceFault::Refuse)],
    );
    let observer = MemorySink::new();
    let state = dir.join("state.snap");
    let summary = bare_pipeline(&state)
        .source(source)
        .sink(observer.clone())
        .build()
        .unwrap()
        .run()
        .expect("a non-strict session survives a refused source");
    assert_eq!(summary.points, 0, "the refused source never produced");
    assert!(
        observer.events().iter().any(|e| matches!(
            e,
            Event::Note(n) if n.contains("injected connection refusal")
        )),
        "the drop must be announced to the sinks"
    );
}

#[test]
fn refused_connection_aborts_a_strict_session() {
    let dir = tmp_dir("source_refuse_strict");
    let input = fixture(&dir);

    let source = ChaosSource::new(
        CsvFileSource::new(input.to_string_lossy().into_owned(), "s", false),
        vec![(1, SourceFault::Refuse)],
    );
    let state = dir.join("state.snap");
    let err = bare_pipeline(&state)
        .strict(true)
        .source(source)
        .sink(MemorySink::new())
        .build()
        .unwrap()
        .run()
        .expect_err("a strict session must abort on a refused source");
    assert!(err.to_string().contains("injected"), "{err}");
}
