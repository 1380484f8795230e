//! Integration tests of the multi-source ingestion layer: sources,
//! routing through the pipeline, quarantine isolation, and periodic
//! checkpointing.

use bagcpd::Detector;
use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use stream::ingest::{
    CheckpointPolicy, CsvFileSource, DirSource, Source, SourceItem, SourceStatus, TcpLimits,
    TcpSource, ThreadedLineSource,
};
use stream::sink::MemorySink;
use stream::{derive_stream_seed, Event, Pipeline, PipelineBuilder, PipelineSummary};

use std::io::Cursor;
use std::io::Write as _;
use std::path::PathBuf;

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

fn pipeline(seed: u64) -> PipelineBuilder {
    Pipeline::builder(detector_cfg()).seed(seed).workers(2)
}

/// Run `builder` to completion into a memory sink: the summary plus
/// every delivered event.
fn run(builder: PipelineBuilder) -> (PipelineSummary, Vec<Event>) {
    let sink = MemorySink::new();
    let summary = builder.sink(sink.clone()).build().unwrap().run().unwrap();
    (summary, sink.events())
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream_ingest_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn points_of<'a>(
    events: &'a [Event],
    stream: &'a str,
) -> impl Iterator<Item = &'a bagcpd::ScorePoint> {
    events
        .iter()
        .filter(move |e| e.stream() == Some(stream))
        .filter_map(|e| e.point())
}

#[test]
fn line_sources_match_standalone_detectors_bit_for_bit() {
    let seed = 11;
    let mut builder = pipeline(seed);
    for s in 0..4u64 {
        let text = csv_text(12, 6, s, s % 2 == 0);
        builder = builder.source(ThreadedLineSource::spawn(
            Cursor::new(text.into_bytes()),
            format!("mem-{s}"),
            format!("stream-{s}"),
        ));
    }
    let (_, events) = run(builder);

    let detector = Detector::new(detector_cfg()).unwrap();
    let (mut eval, mut emd) = (bagcpd::EvalScratch::new(), stream::EmdScratch::new());
    for s in 0..4u64 {
        let name = format!("stream-{s}");
        let mut reference =
            stream::OnlineDetector::new(detector.clone(), derive_stream_seed(seed, &name));
        let mut expected = Vec::new();
        for t in 0..12 {
            let level = if t < 6 { 0.0 } else { 5.0 };
            let rows: Vec<Vec<f64>> = (0..20)
                .map(|i| vec![level + ((i as u64 * 3 + s + t as u64) % 7) as f64 * 0.1])
                .collect();
            let bag = bagcpd::Bag::new(rows);
            expected.extend(reference.push_with(bag, &mut eval, &mut emd).unwrap());
        }
        let got: Vec<_> = points_of(&events, &name).cloned().collect();
        assert_eq!(expected, got, "stream {name} must match a solo detector");
    }
}

#[test]
fn dir_source_serves_one_stream_per_file_and_picks_up_new_files() {
    let dir = tmp_dir("dir_source");
    std::fs::write(dir.join("a.csv"), csv_text(9, 99, 1, true)).unwrap();
    std::fs::write(dir.join("b.csv"), csv_text(9, 99, 2, true)).unwrap();
    std::fs::write(dir.join("ignored.txt"), "not a csv").unwrap();

    // Watch mode: the directory is re-scanned, so a file written
    // mid-session joins the fleet (and the source never reports Done).
    let sink = MemorySink::new();
    let mut pipeline = pipeline(3)
        .source(DirSource::new(dir.to_string_lossy().into_owned(), true))
        .sink(sink.clone())
        .build()
        .unwrap();
    // First step discovers a+b; write a third file mid-session.
    let _ = pipeline.step().unwrap();
    std::fs::write(dir.join("c.csv"), csv_text(9, 99, 3, true)).unwrap();
    // 9 bags, window 5: 4 points per stream while tailing (the trailing
    // bag stays pending until finish completes it).
    for _ in 0..1000 {
        let _ = pipeline.step().unwrap();
        let events = sink.events();
        if ["a", "b", "c"]
            .iter()
            .all(|n| points_of(&events, n).count() >= 4)
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    pipeline.finish().unwrap();
    let events = sink.events();
    for name in ["a", "b", "c"] {
        assert_eq!(points_of(&events, name).count(), 5, "stream {name}");
    }
    assert_eq!(points_of(&events, "ignored").count(), 0);
}

#[test]
fn dir_source_without_watch_drains_and_completes() {
    let dir = tmp_dir("dir_drain");
    std::fs::write(dir.join("a.csv"), csv_text(9, 99, 1, true)).unwrap();
    std::fs::write(dir.join("b.csv"), csv_text(9, 99, 2, true)).unwrap();
    let (_, events) =
        run(pipeline(3).source(DirSource::new(dir.to_string_lossy().into_owned(), false)));
    for name in ["a", "b"] {
        assert_eq!(points_of(&events, name).count(), 5, "stream {name}");
    }
}

#[test]
fn quarantine_isolates_bad_stream_and_keeps_siblings_alive() {
    let dir = tmp_dir("quarantine");
    std::fs::write(dir.join("good.csv"), csv_text(9, 99, 1, true)).unwrap();
    // Malformed row mid-file.
    std::fs::write(dir.join("bad.csv"), "t,x\n0,0.1\n0,0.2\n1,garbage\n2,0.3\n").unwrap();
    // Backwards time.
    std::fs::write(dir.join("back.csv"), "t,x\n5,0.1\n4,0.2\n").unwrap();

    let (summary, events) =
        run(pipeline(3).source(DirSource::new(dir.to_string_lossy().into_owned(), false)));

    assert_eq!(summary.quarantined.len(), 2, "{:?}", summary.quarantined);
    let mut quarantined: Vec<&str> = summary
        .quarantined
        .iter()
        .map(|q| q.stream.as_ref())
        .collect();
    quarantined.sort_unstable();
    assert_eq!(quarantined, ["back", "bad"]);
    assert!(summary
        .quarantined
        .iter()
        .any(|q| q.error.to_string().contains("bad coordinate")
            || q.error.to_string().contains("bad time")));
    // Each quarantine also reached the sinks as an event.
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::Quarantine(_)))
            .count(),
        2
    );
    // The good stream is untouched.
    assert_eq!(points_of(&events, "good").count(), 5);
}

#[test]
fn strict_mode_fails_fast_on_the_first_data_error() {
    let dir = tmp_dir("strict");
    let path = dir.join("bad.csv");
    std::fs::write(&path, "t,x\n5,0.1\n4,0.2\n").unwrap();
    let mut pipeline = pipeline(3)
        .strict(true)
        .source(CsvFileSource::new(
            path.to_string_lossy().into_owned(),
            "s",
            false,
        ))
        .build()
        .unwrap();
    let err = (0..100)
        .find_map(|_| pipeline.step().err())
        .expect("a strict pipeline must surface the error");
    assert!(
        matches!(err, stream::PipelineError::Source(_)),
        "strict data errors are source failures: {err:?}"
    );
    assert!(err.to_string().contains("time went backwards"), "{err}");
}

#[test]
fn periodic_checkpoints_fire_by_bags_and_by_ticks() {
    let dir = tmp_dir("policy");
    let input = dir.join("in.csv");
    // Big enough to span several 512-line polls, so the by-bags policy
    // fires on multiple distinct steps (checkpoints land at batch
    // boundaries — one per step at most).
    std::fs::write(&input, csv_text(60, 99, 1, true)).unwrap();
    let source = || CsvFileSource::new(input.to_string_lossy().into_owned(), "s", false);
    let state = dir.join("state.snap");

    let (summary, _) = run(pipeline(3)
        .checkpoint(
            CheckpointPolicy {
                every_bags: Some(5),
                every_ticks: None,
            },
            &state,
        )
        .source(source()));
    // ~25 bags per 512-line step, 59 completed bags -> at least two
    // periodic checkpoints plus the final one.
    assert!(
        summary.checkpoints >= 3,
        "{} checkpoints",
        summary.checkpoints
    );
    assert!(state.exists());
    assert!(summary.checkpoint_bytes.is_some());

    // Tick-based trigger: a due checkpoint commits inside the step that
    // raised it, after the points it covers reached the sink.
    let state2 = dir.join("state2.snap");
    let sink = MemorySink::new();
    let mut pipeline = pipeline(3)
        .checkpoint(
            CheckpointPolicy {
                every_bags: None,
                every_ticks: Some(1),
            },
            &state2,
        )
        .source(source())
        .sink(sink.clone())
        .build()
        .unwrap();
    let step = pipeline.step().unwrap();
    assert!(step.bags > 4, "the first step completes a window");
    assert!(state2.exists(), "the due checkpoint commits within step()");
    let events = sink.events();
    let Some(Event::CheckpointWritten { bags, .. }) = events.last() else {
        panic!("the commit is announced last: {events:?}");
    };
    assert_eq!(*bags, step.bags as u64);
    // Window 5: every bag pushed before the commit has been evaluated
    // and delivered ahead of the announcement.
    assert_eq!(
        points_of(&events, "s").count() as u64,
        bags - 4,
        "the commit covers only delivered points"
    );
    let summary = pipeline.finish().unwrap();
    assert!(
        summary.checkpoints >= 2,
        "{} checkpoints",
        summary.checkpoints
    );
}

#[test]
fn unapplied_resume_cursor_survives_checkpoint_rewrite() {
    // A source whose file cannot be opened must carry its restored
    // cursor forward verbatim — a checkpoint rewrite while the file is
    // missing must not clobber the stream's saved position.
    use stream::ingest::StreamCursor;
    let dir = tmp_dir("cursor_carry");
    let state = dir.join("state.snap");

    let saved = StreamCursor {
        completed_time: Some(7),
        pending: Some((8, vec![vec![0.25]])),
        consumed: 123,
        prefix_hash: 456,
        quarantined: false,
    };
    let cursors = vec![("s".to_string(), saved.clone())];
    // The snapshot of an engine that holds no stream yet.
    let snapshot = stream::snapshot::encode_engine::<&str>(&detector_cfg(), 1, &[], Vec::new());
    let bytes = stream::ingest::checkpoint::encode_checkpoint(&cursors, &snapshot);
    std::fs::write(&state, bytes).unwrap();

    // The file does not exist: the first poll fails and (non-strict)
    // the source is dropped — but its cursor must persist through the
    // final checkpoint.
    let (_, events) = run(pipeline(1)
        .checkpoint(CheckpointPolicy::disabled(), &state)
        .source(CsvFileSource::new(
            dir.join("missing.csv").to_string_lossy().into_owned(),
            "s",
            false,
        )));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Note(n) if n.contains("failed and was dropped"))),
        "{events:?}"
    );
    let (rewritten, _) =
        stream::ingest::checkpoint::decode_checkpoint(&std::fs::read(&state).unwrap()).unwrap();
    let carried = rewritten
        .iter()
        .find(|(n, _)| n == "s")
        .expect("cursor kept");
    assert_eq!(carried.1, saved, "saved cursor must survive verbatim");
}

#[test]
fn dir_source_skips_non_file_csv_entries_with_a_note() {
    let dir = tmp_dir("dir_non_file");
    std::fs::write(dir.join("good.csv"), csv_text(9, 99, 1, true)).unwrap();
    // A directory with a .csv name: opening it "succeeds" on Linux and
    // only the first read would fail — it must be skipped (visibly),
    // never fed to the engine, and never take its siblings down.
    std::fs::create_dir_all(dir.join("broken.csv")).unwrap();

    let (summary, events) =
        run(pipeline(3).source(DirSource::new(dir.to_string_lossy().into_owned(), false)));

    assert!(summary.quarantined.is_empty(), "{:?}", summary.quarantined);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Note(n) if n.contains("not a regular file"))),
        "{events:?}"
    );
    assert_eq!(points_of(&events, "good").count(), 5);
    assert_eq!(points_of(&events, "broken").count(), 0);
}

#[test]
fn failed_files_free_their_open_file_slots() {
    // More failing files than a DirSource holds open at once, sorted
    // ahead of the good ones: each failure must free its slot, or the
    // good files wait for one forever.
    let dir = tmp_dir("dir_failed_slots");
    for i in 0..520 {
        std::fs::write(dir.join(format!("bad{i:03}.csv")), b"t,x\n0,0.5\n0,\xff\n").unwrap();
    }
    for s in 0..4u64 {
        std::fs::write(dir.join(format!("s{s}.csv")), csv_text(9, 99, s, true)).unwrap();
    }
    let mut src = DirSource::new(dir.to_string_lossy().into_owned(), false);
    let mut out = Vec::new();
    let mut polls = 0;
    while src.poll(&mut out).unwrap() != SourceStatus::Done {
        polls += 1;
        assert!(polls < 1000, "the directory never drains");
    }
    src.finish(&mut out).unwrap();
    let quarantined = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Quarantine { stream, .. } if stream.starts_with("bad")))
        .count();
    assert_eq!(quarantined, 520);
    for s in 0..4 {
        let times: Vec<i64> = bags_for(&out, &format!("s{s}"))
            .map(|i| match i {
                SourceItem::Bag { time, .. } => *time,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(times, (0..9).collect::<Vec<_>>(), "stream s{s}");
    }
}

#[test]
fn a_bad_trailing_line_quarantines_its_file_and_later_files_still_finish() {
    // A file that ends in an unterminated line that does not parse,
    // sorted ahead of a good file, on a run without a checkpoint:
    // finishing the first must not keep the second from completing its
    // trailing bag.
    let dir = tmp_dir("dir_bad_trailing_line");
    let mut a = csv_text(9, 99, 1, true);
    a.push_str("9,abc");
    std::fs::write(dir.join("a.csv"), a).unwrap();
    std::fs::write(dir.join("b.csv"), csv_text(9, 99, 2, true)).unwrap();
    let seed = 3;
    let (summary, events) =
        run(pipeline(seed).source(DirSource::new(dir.to_string_lossy().into_owned(), false)));

    assert_eq!(summary.quarantined_total, 1, "{:?}", summary.quarantined);
    let record = &summary.quarantined[0];
    assert_eq!(&*record.stream, "a");
    assert!(
        record.error.to_string().contains("bad coordinate"),
        "{}",
        record.error
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::Quarantine(_)))
            .count(),
        1
    );
    let expected = Detector::new(detector_cfg())
        .unwrap()
        .analyze(&bags_of(9, 99, 2), derive_stream_seed(seed, "b"))
        .unwrap()
        .points;
    let got: Vec<_> = points_of(&events, "b").copied().collect();
    assert_eq!(got, expected, "b scores every bag, its trailing one too");
    // `a` stops at the bad line, with its bag at t = 8 still open: eight
    // bags, window 5.
    assert_eq!(points_of(&events, "a").count(), 4);
}

/// The bags of `csv_text(bags, change_at, salt, _)`, as the file
/// sources read them.
fn bags_of(bags: usize, change_at: usize, salt: u64) -> Vec<bagcpd::Bag> {
    (0..bags)
        .map(|t| {
            let level = if t < change_at { 0.0 } else { 5.0 };
            let rows = (0..20)
                .map(|i| vec![level + ((i as u64 * 3 + salt + t as u64) % 7) as f64 * 0.1])
                .collect();
            bagcpd::Bag::new(rows)
        })
        .collect()
}

/// Bags among `items`.
fn bag_count(items: &[SourceItem]) -> usize {
    items
        .iter()
        .filter(|i| matches!(i, SourceItem::Bag { .. }))
        .count()
}

#[test]
fn dir_source_reads_each_pass_in_slices() {
    // 18 files of 60 bags of 20 rows: a 512-line poll completes 25 or
    // 26 bags of a file, so a pass takes 3 to 4 slices of 128 bags.
    let dir = tmp_dir("dir_slices");
    for s in 0..18u64 {
        std::fs::write(dir.join(format!("f{s:02}.csv")), csv_text(60, 30, s, true)).unwrap();
    }
    let file = |dir: &std::path::Path, name: &str| {
        CsvFileSource::new(
            dir.join(format!("{name}.csv"))
                .to_string_lossy()
                .into_owned(),
            name,
            false,
        )
    };
    // The reference: each file's own source, polled once per pass in
    // name order.
    let mut reference: Vec<CsvFileSource> =
        (0..18).map(|s| file(&dir, &format!("f{s:02}"))).collect();
    let mut src = DirSource::new(dir.to_string_lossy().into_owned(), false);
    let mut passes = 0;
    loop {
        passes += 1;
        let mut want = Vec::new();
        let mut want_status = SourceStatus::Done;
        // Items per slice: a slice ends with the file that brings it to
        // 128 bags, so none holds more than 127 plus one file's poll.
        let (mut sliced, mut slice_bags) = (vec![0], 0);
        for file in &mut reference {
            if slice_bags >= 128 {
                sliced.push(0);
                slice_bags = 0;
            }
            let from = want.len();
            if file.poll(&mut want).unwrap() == SourceStatus::Active {
                want_status = SourceStatus::Active;
            }
            *sliced.last_mut().unwrap() += want.len() - from;
            slice_bags += bag_count(&want[from..]);
        }

        let mut got = Vec::new();
        let mut slices = Vec::new();
        let status = loop {
            let from = got.len();
            let status = src.poll(&mut got).unwrap();
            slices.push(got.len() - from);
            if passes == 2 && slices.len() == 1 {
                // Created mid-pass: the next pass reads it.
                std::fs::write(dir.join("late.csv"), csv_text(9, 99, 99, true)).unwrap();
            }
            if status != SourceStatus::More {
                break status;
            }
        };
        assert_eq!(
            got, want,
            "pass {passes}: the files' own polls, in name order"
        );
        assert_eq!(slices, sliced, "pass {passes}: slices end at 128 bags");
        assert_eq!(status, want_status, "pass {passes}: the pass's status");
        assert!(
            passes > 1 || slices.len() >= 3,
            "a pass spans several slices: {slices:?}"
        );
        if passes == 2 {
            assert!(bags_for(&got, "late").next().is_none(), "{got:?}");
            reference.push(file(&dir, "late"));
        }
        if passes == 3 {
            assert_eq!(bags_for(&got, "late").count(), 8, "joins at the next pass");
        }
        if status == SourceStatus::Done {
            break;
        }
        assert!(passes < 10, "the directory never drains");
    }
    assert_eq!(passes, 3, "1,201 lines per file take three 512-line polls");
    assert_eq!(src.poll(&mut Vec::new()).unwrap(), SourceStatus::Done);
}

#[test]
fn a_tick_covers_a_whole_pass_of_slices() {
    use stream::telemetry::names;
    // The files of the slicing test above: three passes of 3 to 4
    // slices, committed once per tick.
    let dir = tmp_dir("dir_slice_ticks");
    let seed = 17;
    for s in 0..18u64 {
        std::fs::write(dir.join(format!("f{s:02}.csv")), csv_text(60, 30, s, true)).unwrap();
    }
    let sink = MemorySink::new();
    let mut pipeline = pipeline(seed)
        .checkpoint(
            CheckpointPolicy {
                every_bags: None,
                every_ticks: Some(1),
            },
            dir.join("state.snap"),
        )
        .source(DirSource::new(dir.to_string_lossy().into_owned(), false))
        .sink(sink.clone())
        .build()
        .unwrap();
    let slices = |pipeline: &Pipeline| -> f64 {
        let count = format!("{}_count", names::INGEST_POLL_SECONDS);
        let metrics = pipeline.metrics().snapshot();
        metrics
            .iter()
            .filter(|m| m.key.starts_with(&count))
            .map(|m| m.value)
            .sum()
    };
    let mut passes = 0;
    loop {
        let step = pipeline.step().unwrap();
        passes += 1;
        if passes == 1 {
            assert!(slices(&pipeline) >= 3.0, "the first pass spans 3 slices");
        }
        if step.done {
            break;
        }
    }
    assert_eq!(passes, 3);
    let summary = pipeline.finish().unwrap();
    assert_eq!(
        summary.checkpoints,
        passes + 1,
        "one commit per tick, and the final one"
    );

    // With a state path the trailing bag stays pending: 59 bags scored.
    let events = sink.events();
    let detector = Detector::new(detector_cfg()).unwrap();
    for s in 0..18u64 {
        let name = format!("f{s:02}");
        let batch = detector
            .analyze(&bags_of(59, 30, s), derive_stream_seed(seed, &name))
            .unwrap();
        let got: Vec<_> = points_of(&events, &name).cloned().collect();
        assert_eq!(got, batch.points, "stream {name}");
    }
}

#[test]
fn checkpoint_resume_matches_uninterrupted_run() {
    // Two csv streams; checkpoint after the first part, resume over the
    // grown files, and compare per-stream points with an uninterrupted
    // session — the engine-level analogue of the CLI resume test.
    let dir = tmp_dir("resume");
    let full_a = csv_text(14, 7, 1, true);
    let full_b = csv_text(14, 7, 2, false);
    let cut_a = {
        // Keep the first 8 bags (header + 8 * 20 rows).
        let lines: Vec<&str> = full_a.lines().collect();
        lines[..1 + 8 * 20].join("\n") + "\n"
    };
    let cut_b = {
        let lines: Vec<&str> = full_b.lines().collect();
        lines[..8 * 20].join("\n") + "\n"
    };
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    let state = dir.join("state.snap");

    let session = |seed: u64, state: &std::path::Path| {
        let mut builder = pipeline(seed).checkpoint(CheckpointPolicy::disabled(), state);
        for (path, name) in [(&a, "a"), (&b, "b")] {
            builder = builder.source(CsvFileSource::new(
                path.to_string_lossy().into_owned(),
                name,
                false,
            ));
        }
        run(builder).1
    };

    // Session 1: the truncated inputs, ending in a checkpoint.
    std::fs::write(&a, &cut_a).unwrap();
    std::fs::write(&b, &cut_b).unwrap();
    let mut got = session(9, &state);

    // Session 2: the files have grown; resume from the checkpoint (the
    // master seed comes from the snapshot).
    std::fs::write(&a, &full_a).unwrap();
    std::fs::write(&b, &full_b).unwrap();
    got.extend(session(0, &state));

    // Reference: one uninterrupted checkpointing session.
    let expected = session(9, &dir.join("ref.snap"));

    for name in ["a", "b"] {
        let e: Vec<_> = points_of(&expected, name).cloned().collect();
        let g: Vec<_> = points_of(&got, name).cloned().collect();
        assert_eq!(e, g, "stream {name}: resume must lose nothing");
    }
}

#[test]
fn tcp_source_routes_interleaved_streams_and_quarantines_per_stream() {
    let tcp = TcpSource::bind("127.0.0.1:0", false).unwrap();
    let addr = tcp.local_addr().unwrap();

    let writer = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        for t in 0..9 {
            for i in 0..15 {
                // Interleave two healthy streams line by line.
                writeln!(sock, "x,{t},{}", (i % 5) as f64 * 0.1).unwrap();
                writeln!(sock, "y,{t},{}", (i % 4) as f64 * 0.2).unwrap();
            }
        }
        // One poisoned stream: backwards time.
        sock.write_all(b"z,5,1.0\nz,3,0.5\nz,6,1.0\n").unwrap();
    });

    let (summary, events) = run(pipeline(3).source(tcp));
    writer.join().unwrap();

    assert_eq!(points_of(&events, "x").count(), 5, "9 bags, window 5");
    assert_eq!(points_of(&events, "y").count(), 5);
    assert_eq!(summary.quarantined.len(), 1);
    assert_eq!(summary.quarantined[0].stream.as_ref(), "z");
}

#[test]
fn quarantine_survives_checkpoint_resume() {
    // A quarantined stream must stay out of service after kill/resume,
    // even if its producer (e.g. a reconnecting TCP client) speaks
    // again — matching what an uninterrupted run would do.
    use std::collections::HashMap;
    use stream::ingest::StreamCursor;

    let mut cursors = HashMap::new();
    cursors.insert(
        "z".to_string(),
        StreamCursor {
            completed_time: Some(5),
            quarantined: true,
            ..Default::default()
        },
    );

    let mut tcp = TcpSource::bind("127.0.0.1:0", false).unwrap();
    tcp.restore(&cursors);
    let addr = tcp.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        for t in 6..10 {
            writeln!(sock, "z,{t},0.5").unwrap();
            writeln!(sock, "ok,{t},0.5").unwrap();
        }
    });
    writer.join().unwrap();
    let mut out = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while tcp.poll(&mut out).unwrap() != SourceStatus::Done {
        assert!(std::time::Instant::now() < deadline, "tcp drain timed out");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    tcp.finish(&mut out).unwrap();
    let z_bags = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Bag { stream, .. } if stream.as_ref() == "z"))
        .count();
    let ok_bags = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Bag { stream, .. } if stream.as_ref() == "ok"))
        .count();
    assert_eq!(z_bags, 0, "quarantined stream must stay dead: {out:?}");
    assert_eq!(ok_bags, 4, "healthy stream unaffected");
    // And the rewritten cursor keeps the flag.
    let mut rewritten = Vec::new();
    tcp.cursors(&mut rewritten);
    let z = rewritten.iter().find(|(n, _)| n.as_ref() == "z");
    assert!(z.is_none_or(|(_, c)| c.quarantined), "{rewritten:?}");
}

#[test]
fn csv_source_poll_statuses_and_tailing() {
    let dir = tmp_dir("tail");
    let path = dir.join("grow.csv");
    std::fs::write(&path, "t,x\n0,0.1\n0,0.2\n").unwrap();
    let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "s", true);
    let mut out: Vec<SourceItem> = Vec::new();
    // Tail mode: EOF reports progress, then Idle — never Done.
    assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Active);
    assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Idle);
    assert!(out.is_empty(), "bag 0 still pending: {out:?}");
    // The file grows; the next poll completes bag 0.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "1,0.3").unwrap();
    drop(f);
    assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Active);
    assert!(
        matches!(&out[..], [SourceItem::Bag { time: 0, rows, .. }] if rows.len() == 2),
        "{out:?}"
    );
}

#[test]
fn quarantining_line_stays_outside_the_cursor() {
    // The content address must stop just before a poison row, so a
    // resumed session re-reads it, re-quarantines, and matches an
    // uninterrupted run — instead of silently reviving the stream past
    // the bad line.
    let dir = tmp_dir("poison_cursor");
    let path = dir.join("p.csv");
    let good = "t,x\n0,0.1\n0,0.2\n1,0.1\n";
    std::fs::write(&path, format!("{good}0,9.9\n1,0.3\n")).unwrap();
    let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "s", false);
    let mut out: Vec<SourceItem> = Vec::new();
    while src.poll(&mut out).unwrap() != SourceStatus::Done {}
    assert!(
        out.iter()
            .any(|i| matches!(i, SourceItem::Quarantine { .. })),
        "{out:?}"
    );
    let mut cursors = Vec::new();
    src.cursors(&mut cursors);
    assert_eq!(
        cursors[0].1.consumed as usize,
        good.len(),
        "the backwards-time row must not be counted as consumed"
    );
}

#[test]
fn unterminated_trailing_line_is_not_consumed_by_cursor() {
    let dir = tmp_dir("partial");
    let path = dir.join("p.csv");
    // The final line has no newline: the producer may still be writing.
    std::fs::write(&path, "t,x\n0,0.1\n0,0.2\n1,0.").unwrap();
    let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "s", false);
    let mut out: Vec<SourceItem> = Vec::new();
    while src.poll(&mut out).unwrap() != SourceStatus::Done {}
    let mut cursors = Vec::new();
    src.cursors(&mut cursors);
    let (_, cursor) = &cursors[0];
    assert_eq!(
        cursor.consumed as usize,
        "t,x\n0,0.1\n0,0.2\n".len(),
        "the fragment must not be counted"
    );
    assert_eq!(cursor.pending.as_ref().map(|(t, _)| *t), Some(0));
}

/// Drain a TCP source directly until `Done`, collecting its items.
fn drain_tcp(tcp: &mut TcpSource) -> Vec<SourceItem> {
    let mut out = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while tcp.poll(&mut out).unwrap() != SourceStatus::Done {
        assert!(std::time::Instant::now() < deadline, "tcp drain timed out");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    tcp.finish(&mut out).unwrap();
    out
}

fn bags_for<'a>(out: &'a [SourceItem], stream: &'a str) -> impl Iterator<Item = &'a SourceItem> {
    out.iter()
        .filter(move |i| matches!(i, SourceItem::Bag { stream: s, .. } if s.as_ref() == stream))
}

#[test]
fn tcp_oversized_line_quarantines_its_stream_without_buffering_it() {
    let mut tcp = TcpSource::bind_with(
        "127.0.0.1:0",
        false,
        TcpLimits {
            max_line_bytes: 64,
            max_streams: 4096,
        },
    )
    .unwrap();
    let addr = tcp.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        // A healthy stream interleaved with a hostile one: the poison
        // line is far beyond the limit (and would OOM an unbounded
        // buffer if it never ended).
        for t in 0..3 {
            writeln!(sock, "ok,{t},0.5").unwrap();
        }
        write!(sock, "big,0,").unwrap();
        let chunk = vec![b'1'; 8 * 1024];
        for _ in 0..64 {
            sock.write_all(&chunk).unwrap(); // 512 KiB line, one stream
        }
        writeln!(sock).unwrap();
        // Both streams speak again after the flood.
        writeln!(sock, "big,1,0.5").unwrap();
        for t in 3..6 {
            writeln!(sock, "ok,{t},0.5").unwrap();
        }
    });
    let out = drain_tcp(&mut tcp);
    writer.join().unwrap();

    let quarantined: Vec<&SourceItem> = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Quarantine { .. }))
        .collect();
    assert_eq!(quarantined.len(), 1, "{out:?}");
    assert!(
        matches!(
            quarantined[0],
            SourceItem::Quarantine { stream, error }
                if stream.as_ref() == "big" && error.to_string().contains("max_line_bytes")
        ),
        "{quarantined:?}"
    );
    // The healthy stream's bags all completed; the quarantined one
    // produced nothing (its post-flood line was refused too).
    assert_eq!(bags_for(&out, "ok").count(), 6);
    assert_eq!(bags_for(&out, "big").count(), 0);
}

#[test]
fn tcp_excess_streams_are_refused_with_a_note() {
    let mut tcp = TcpSource::bind_with(
        "127.0.0.1:0",
        false,
        TcpLimits {
            max_line_bytes: 64 * 1024,
            max_streams: 2,
        },
    )
    .unwrap();
    let addr = tcp.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        for t in 0..4 {
            writeln!(sock, "a,{t},0.1").unwrap();
            writeln!(sock, "b,{t},0.2").unwrap();
            writeln!(sock, "c,{t},0.3").unwrap(); // one over the limit
        }
    });
    let out = drain_tcp(&mut tcp);
    writer.join().unwrap();

    assert_eq!(bags_for(&out, "a").count(), 4);
    assert_eq!(bags_for(&out, "b").count(), 4);
    assert_eq!(bags_for(&out, "c").count(), 0, "{out:?}");
    let refusals = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Note(n) if n.contains("'c' refused") && n.contains("max_streams")))
        .count();
    assert_eq!(refusals, 1, "one note per refused stream: {out:?}");
    assert!(
        !out.iter()
            .any(|i| matches!(i, SourceItem::Quarantine { .. })),
        "refusal is not a quarantine: {out:?}"
    );
}

#[test]
fn tcp_hostile_unique_names_cannot_grow_bookkeeping_without_bound() {
    // An attacker inventing a fresh stream name per oversized line must
    // not grow the quarantine bookkeeping past the stream cap: the
    // lines are dropped (with a note), the healthy stream keeps going.
    let mut tcp = TcpSource::bind_with(
        "127.0.0.1:0",
        false,
        TcpLimits {
            max_line_bytes: 32,
            max_streams: 1,
        },
    )
    .unwrap();
    let addr = tcp.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        writeln!(sock, "ok,0,0.5").unwrap();
        for n in 0..10 {
            // Each line oversized and uniquely named.
            writeln!(sock, "attack-{n},0,{}", "9".repeat(64)).unwrap();
        }
        for t in 1..4 {
            writeln!(sock, "ok,{t},0.5").unwrap();
        }
    });
    let out = drain_tcp(&mut tcp);
    writer.join().unwrap();

    assert_eq!(bags_for(&out, "ok").count(), 4, "{out:?}");
    // One durable quarantine at most (the cap); the rest dropped as
    // transient notes.
    assert!(
        tcp.quarantined().count() <= 1,
        "bookkeeping must stay capped"
    );
    let dropped = out
        .iter()
        .filter(|i| matches!(i, SourceItem::Note(n) if n.contains("oversized line dropped")))
        .count();
    assert!(
        dropped >= 9,
        "excess oversized lines are noted, not stored: {out:?}"
    );
}

/// Satellite of the telemetry layer: a fleet where *every* stream
/// quarantines must not grow the pipeline's retained-record list
/// without bound — retention is capped at the most recent
/// [`RETAINED_QUARANTINES`] records, while the full count survives in
/// `quarantined_total` and the telemetry counter.
#[test]
fn quarantine_retention_is_capped_but_counted_in_full() {
    use stream::telemetry::names;
    use stream::{MetricsRegistry, RETAINED_QUARANTINES};

    let dir = tmp_dir("retention");
    let n = RETAINED_QUARANTINES + 17;
    for s in 0..n {
        // One malformed row per stream: quarantined on first poll, in
        // file-name order.
        std::fs::write(dir.join(format!("s{s:04}.csv")), "0,oops\n").unwrap();
    }
    let registry = MetricsRegistry::new();
    let (summary, _) = run(pipeline(1)
        .metrics(registry.clone())
        .source(DirSource::new(dir.to_string_lossy().into_owned(), false)));

    assert_eq!(summary.quarantined.len(), RETAINED_QUARANTINES);
    assert_eq!(summary.quarantined_total, n as u64);
    // The *most recent* records are the ones retained.
    assert_eq!(
        summary.quarantined.last().unwrap().stream.as_ref(),
        format!("s{:04}", n - 1)
    );
    assert_eq!(
        summary.quarantined[0].stream.as_ref(),
        format!("s{:04}", n - RETAINED_QUARANTINES)
    );
    let counted = registry
        .snapshot()
        .iter()
        .find(|s| s.key == names::INGEST_QUARANTINES)
        .expect("quarantine counter registered")
        .value;
    assert_eq!(counted, n as f64);
}
