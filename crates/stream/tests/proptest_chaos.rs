//! Property test of the fault-domain layer: under *arbitrary* seeded
//! fault schedules — transient deliver failures, torn partial writes,
//! retry exhaustion into degraded mode, and a sink killed outright
//! mid-run — the delivered output, deduplicated on `(stream, t)`, is
//! byte-identical to a fault-free run. The dedup is the same contract
//! resume already grants consumers: torn writes and replays may
//! duplicate a row, but never lose, reorder, or corrupt one.

use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use proptest::prelude::*;
use stream::ingest::CsvFileSource;
use stream::sink::{CsvSchema, CsvSink, RetryingSink};
use stream::testkit::{ChaosSink, DeliverFault, FaultSchedule};
use stream::{CheckpointPolicy, Pipeline, PipelineBuilder};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

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

/// A `Vec<u8>` writer the test keeps a handle to after the sink moved
/// into the pipeline.
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

fn pipeline(input: &Path, state: &Path) -> PipelineBuilder {
    Pipeline::builder(detector_cfg())
        .seed(5)
        .workers(1)
        .stream_seed("s", 5)
        .checkpoint(
            CheckpointPolicy {
                every_bags: Some(8),
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

/// The shared fixture: one 24-bag CSV input plus the CSV bytes a
/// fault-free run emits for it (computed once; every case compares
/// against the same ground truth).
fn fixture() -> &'static (PathBuf, String) {
    static FIXTURE: OnceLock<(PathBuf, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("stream_proptest_chaos_fixture");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let mut text = String::from("t,x\n");
        for t in 0..24usize {
            let level = if t < 12 { 0.0 } else { 5.0 };
            for i in 0..20 {
                let x = level + ((i as u64 * 3 + 1 + t as u64) % 7) as f64 * 0.1;
                text.push_str(&format!("{t},{x}\n"));
            }
        }
        std::fs::write(&input, text).unwrap();

        let buf = Arc::new(Mutex::new(Vec::new()));
        pipeline(&input, &dir.join("reference-state.snap"))
            .sink(CsvSink::with_schema(
                SharedBuf(buf.clone()),
                CsvSchema::legacy_stdout(false),
            ))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let want = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        (input, want)
    })
}

/// Data rows deduplicated on `t` (the key consumers dedup on; one
/// stream here, so the stream half is implicit). Duplicate keys must
/// carry byte-identical rows — a diverging duplicate is corruption,
/// not harmless re-delivery.
fn dedup_rows(csv: &str) -> Vec<&str> {
    let mut seen: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let mut out = Vec::new();
    for line in csv.lines() {
        if line == "t,score,ci_lo,ci_up,alert" {
            continue;
        }
        let key = line.split(',').next().unwrap();
        match seen.get(key) {
            Some(prev) => assert_eq!(*prev, line, "duplicate rows for t={key} diverged"),
            None => {
                seen.insert(key, line);
                out.push(line);
            }
        }
    }
    out
}

/// One chaos session over the fixture: the schedule drives a
/// `ChaosSink` under the retry wrapper, exhaustion spills. Returns the
/// CSV bytes and whether events were still spilled at exit.
fn chaos_session(schedule: FaultSchedule, state: &Path, spill: &Path) -> (String, bool) {
    let (input, _) = fixture();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = RetryingSink::new(
        ChaosSink::new(
            CsvSink::with_schema(SharedBuf(buf.clone()), CsvSchema::legacy_stdout(false)),
            schedule,
        ),
        4,
    )
    .with_waiter(|_| {});
    let summary = pipeline(input, state)
        .spill_dir(spill)
        .sink(sink)
        .build()
        .unwrap()
        .run()
        .expect("a spill-backed session must never abort on sink faults");
    let csv = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    (csv, summary.spilled_events > 0)
}

/// A healthy resume session from the same state + spill dir: replays
/// whatever the killed session left behind.
fn resume_session(state: &Path, spill: &Path) -> String {
    let (input, _) = fixture();
    let buf = Arc::new(Mutex::new(Vec::new()));
    pipeline(input, state)
        .spill_dir(spill)
        .sink(CsvSink::with_schema(
            SharedBuf(buf.clone()),
            CsvSchema::legacy_stdout(false),
        ))
        .build()
        .unwrap()
        .run()
        .expect("the resume session is fault-free");
    let got = buf.lock().unwrap().clone();
    String::from_utf8(got).unwrap()
}

fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream_proptest_chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    // Each case runs 1-2 full (small) pipelines; a moderate case count
    // keeps the sweep broad without dominating the suite.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded schedule — plus, in half the cases, a sink that dies
    /// outright mid-run (the kill-mid-degraded shape) — yields, after
    /// `(stream, t)` dedup and at most one resume, exactly the
    /// fault-free bytes.
    #[test]
    fn seeded_fault_schedules_preserve_the_fault_free_output(
        seed in 0u64..100_000,
        faults in 1usize..6,
        kill in 0u8..2,
    ) {
        let (_, want) = fixture();
        let dir = case_dir("case");
        let state = dir.join("state.snap");
        let spill = dir.join("spill");

        let mut schedule = FaultSchedule::seeded(seed, 30, faults);
        if kill == 1 {
            // The sink dies for good partway in — early enough that the
            // ordinal always arrives (the run emits ~20+ events) — so
            // the session must end degraded and hand off to a resume.
            schedule.deliver.retain(|f| f.at_event < 10);
            schedule.deliver.push(DeliverFault {
                at_event: 10 + seed % 5,
                failures: u32::MAX,
                kind: io::ErrorKind::ConnectionAborted,
                torn: 0,
            });
        }

        let (csv1, degraded) = chaos_session(schedule, &state, &spill);
        prop_assert_eq!(degraded, kill == 1, "only a dead sink may leave spill behind");
        let mut combined = csv1;
        if degraded {
            combined.push_str(&resume_session(&state, &spill));
        }
        prop_assert_eq!(dedup_rows(&combined), dedup_rows(want));
    }

    /// The same seed is the same run, down to the raw (pre-dedup)
    /// bytes. Torn faults are excluded here: a torn leak duplicates the
    /// head of the *failing batch*, and batch boundaries are
    /// scheduling-dependent — their stability-modulo-dedup is exactly
    /// what the property above proves.
    #[test]
    fn chaos_runs_are_reproducible_per_seed(seed in 0u64..100_000, faults in 1usize..6) {
        let mut schedule = FaultSchedule::seeded(seed, 30, faults);
        for f in &mut schedule.deliver {
            f.torn = 0;
        }
        let dir_a = case_dir("rep_a");
        let dir_b = case_dir("rep_b");
        let (a, _) = chaos_session(
            schedule.clone(),
            &dir_a.join("state.snap"),
            &dir_a.join("spill"),
        );
        let (b, _) = chaos_session(
            schedule,
            &dir_b.join("state.snap"),
            &dir_b.join("spill"),
        );
        prop_assert_eq!(a, b);
    }
}
