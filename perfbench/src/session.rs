//! One pipeline session, wired as `serve --dir` wires it: a
//! [`DirSource`] into the library [`Pipeline`] (Mux → StreamEngine),
//! a [`CsvSink`] in serve's stdout layout writing to a file, and — on a
//! durable workload — periodic checkpoints plus a [`ScoreLogSink`].
//!
//! The benchmark's own wrappers sit at the layer boundaries: a source
//! that stamps every bag when `Source::poll` returns, and a last sink
//! that stamps every point when it arrives. A traced session also
//! records a span around every `Pipeline::step`, every poll and every
//! sink call; spans stay in memory until the session ends.

use crate::fleet::{Workload, TAU_PRIME};
use crate::sys;
use bagcpd::ScorePoint;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::LineWriter;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::ingest::{
    CheckpointPolicy, DirSource, Source, SourceError, SourceItem, SourceStatus, StreamCursor,
};
use stream::telemetry::{names, LATENCY_BUCKETS};
use stream::{CsvSchema, CsvSink, Event, MetricsRegistry, Pipeline, ScoreLogSink, Sink};

/// What `Pipeline::run` sleeps after an idle step; the benchmark's
/// step loop is `run`'s, so it sleeps the same.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Checkpoint file of a durable session, inside its state directory.
pub const STATE_FILE: &str = "fleet.snap";
/// Score log of a durable session.
pub const SCORE_LOG: &str = "scores.log";
/// The serve-layout CSV every session writes.
pub const SCORES_CSV: &str = "scores.csv";

/// Everything one session needs.
pub struct SessionSpec<'a> {
    /// The workload's shape and wiring.
    pub workload: &'a Workload,
    /// Directory holding the fleet's CSV files.
    pub fleet: &'a Path,
    /// State directory; emptied before the session starts.
    pub state: &'a Path,
    /// Engine master seed.
    pub master_seed: u64,
    /// Engine worker threads.
    pub workers: usize,
    /// Record spans around steps, polls and sink calls.
    pub traced: bool,
}

/// One recorded span: a named interval and the span that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `ingest.poll` or `sink.deliver`.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index of the enclosing `pipeline.step` / `pipeline.finish` span.
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// State shared by the step loop and the benchmark's wrappers.
#[derive(Default)]
struct Probe {
    traced: bool,
    /// Instant `Source::poll` returned each bag, per stream, in push
    /// order (bag `t` of a fleet stream is its `t`-th bag).
    stamps: HashMap<Arc<str>, Vec<Instant>>,
    /// Points that reached the benchmark's sink, with arrival instants.
    points: Vec<(Arc<str>, ScorePoint, Instant)>,
    stream_errors: u64,
    quarantines: u64,
    checkpoints: u64,
    spans: Vec<Span>,
    /// The open step or finish span.
    open: Option<usize>,
}

impl Probe {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.traced {
            let parent = self.open;
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
            });
        }
    }
}

type Shared = Rc<RefCell<Probe>>;

/// A source that stamps every bag its inner source completes.
struct StampedSource<S> {
    inner: S,
    probe: Shared,
}

impl<S> StampedSource<S> {
    fn stamp(&self, name: &'static str, start: Instant, items: &[SourceItem]) {
        let end = Instant::now();
        let mut probe = self.probe.borrow_mut();
        for item in items {
            if let SourceItem::Bag { stream, .. } = item {
                match probe.stamps.get_mut(stream) {
                    Some(v) => v.push(end),
                    None => {
                        probe.stamps.insert(stream.clone(), vec![end]);
                    }
                }
            }
        }
        probe.span(name, start, end);
    }
}

impl<S: Source> Source for StampedSource<S> {
    fn origin(&self) -> &str {
        self.inner.origin()
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        let from = out.len();
        let start = Instant::now();
        let status = self.inner.poll(out);
        self.stamp("ingest.poll", start, &out[from..]);
        status
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        self.inner.cursors(out);
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        self.inner.restore(cursors);
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        let from = out.len();
        let start = Instant::now();
        let done = self.inner.finish(out);
        self.stamp("ingest.finish", start, &out[from..]);
        done
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.inner.attach_telemetry(registry);
    }

    fn pressure(&mut self, load: f64) {
        self.inner.pressure(load);
    }
}

/// A sink that records a span around each call of its inner sink.
struct TimedSink<S> {
    inner: S,
    deliver: &'static str,
    flush: &'static str,
    probe: Shared,
}

impl<S: Sink> Sink for TimedSink<S> {
    fn deliver(&mut self, events: &[Event]) -> std::io::Result<()> {
        let start = Instant::now();
        let r = self.inner.deliver(events);
        self.probe
            .borrow_mut()
            .span(self.deliver, start, Instant::now());
        r
    }

    fn flush_durable(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let r = self.inner.flush_durable();
        self.probe
            .borrow_mut()
            .span(self.flush, start, Instant::now());
        r
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// The benchmark's own last sink: stamps every point on arrival and
/// counts everything that is not a point.
struct BenchSink {
    probe: Shared,
}

impl Sink for BenchSink {
    fn deliver(&mut self, events: &[Event]) -> std::io::Result<()> {
        let start = Instant::now();
        let mut probe = self.probe.borrow_mut();
        for event in events {
            match event {
                Event::Point { stream, point } => {
                    probe.points.push((stream.clone(), *point, start));
                }
                Event::StreamError { .. } => probe.stream_errors += 1,
                Event::Quarantine(_) => probe.quarantines += 1,
                Event::CheckpointWritten { .. } => probe.checkpoints += 1,
                _ => {}
            }
        }
        probe.span("bench.deliver", start, Instant::now());
        Ok(())
    }

    fn flush_durable(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "bench"
    }
}

/// Per-layer figures of a traced session (source (a) of the trace).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Time inside `Source::poll`.
    pub poll_s: f64,
    /// Polls made.
    pub polls: u64,
    /// Step time outside polls, sink calls and checkpoint commits:
    /// engine pushes (backpressure waits included) and event drains.
    pub route_s: f64,
    /// Steps reporting idle.
    pub idle_steps: u64,
    /// Periodic checkpoint commits inside steps (the pipeline's own
    /// commit timer), minus the sink calls they made.
    pub commit_s: f64,
    /// `Pipeline::finish` minus its source and sink time.
    pub finish_s: f64,
    /// Time inside the CSV sink's `deliver`.
    pub sink_deliver_s: f64,
    /// Time inside the CSV sink's `flush_durable`.
    pub sink_flush_s: f64,
    /// Time inside the score-log sink's `deliver`.
    pub scorelog_deliver_s: f64,
    /// Time inside the score-log sink's `flush_durable`.
    pub scorelog_flush_s: f64,
    /// Every span, for the trace file.
    pub spans: Vec<Span>,
    /// Instant the session's first step started (span time origin).
    pub origin: Instant,
}

/// What one session measured and delivered.
#[derive(Debug, Clone)]
pub struct Session {
    /// From `PipelineBuilder::build` (and the sinks it takes) to the
    /// first step.
    pub setup_s: f64,
    /// From the first step to the return of `finish()`.
    pub run_s: f64,
    /// Process CPU over `run_s`.
    pub cpu_s: f64,
    /// Highest resident set size sampled after each step and after
    /// `finish()`, starting from a trimmed allocator.
    pub peak_rss_mb: f64,
    /// Bags pushed into the engine.
    pub bags: u64,
    /// Every point the benchmark's sink received.
    pub points: Vec<(Arc<str>, ScorePoint, Instant)>,
    /// Ingest→emit latency of each point, in ms.
    pub latencies_ms: Vec<f64>,
    /// Points delivered to the benchmark's sink.
    pub points_delivered: usize,
    /// Stream errors delivered.
    pub stream_errors: u64,
    /// Quarantines delivered.
    pub quarantines: u64,
    /// `CheckpointWritten` events delivered (periodic and final).
    pub checkpoints: u64,
    /// Size of the final checkpoint.
    pub checkpoint_bytes: u64,
    /// Score-log file size at the end.
    pub scorelog_bytes: u64,
    /// The engine's `bagscpd_solver_exact_solves_total`.
    pub exact_solves: u64,
    /// Per-layer figures when traced.
    pub trace: Option<Trace>,
}

/// The value of one sample of a pipeline's final metrics snapshot.
fn sample(metrics: &[stream::MetricSample], key: &str) -> f64 {
    metrics
        .iter()
        .find(|s| s.key == key)
        .map_or(0.0, |s| s.value)
}

/// Run one closed-loop session from an empty state directory.
///
/// # Errors
/// Any build, source, engine or sink failure, as text.
pub fn run_session(spec: &SessionSpec<'_>) -> Result<Session, String> {
    let w = spec.workload;
    let _ = std::fs::remove_dir_all(spec.state);
    std::fs::create_dir_all(spec.state).map_err(|e| format!("{}: {e}", spec.state.display()))?;
    let probe: Shared = Rc::new(RefCell::new(Probe {
        traced: spec.traced,
        ..Probe::default()
    }));
    let wrap = |sink: Box<dyn Sink>, deliver, flush| -> Box<dyn Sink> {
        if spec.traced {
            Box::new(TimedSink {
                inner: sink,
                deliver,
                flush,
                probe: probe.clone(),
            })
        } else {
            sink
        }
    };

    sys::release_free_memory();
    let mut peak_rss_mb = sys::rss_mb();
    let setup_start = Instant::now();
    let registry = MetricsRegistry::new();
    let csv_path = spec.state.join(SCORES_CSV);
    let csv_file =
        std::fs::File::create(&csv_path).map_err(|e| format!("{}: {e}", csv_path.display()))?;
    // Serve writes this layout to stdout, which is line-buffered.
    let csv = CsvSink::with_schema(LineWriter::new(csv_file), CsvSchema::legacy_stdout(true));
    let mut builder = Pipeline::builder(w.detector())
        .seed(spec.master_seed)
        .workers(spec.workers)
        .strict(false)
        .metrics(registry.clone())
        .sink_boxed(wrap(Box::new(csv), "sink.deliver", "sink.flush"));
    if w.durable {
        builder = builder.checkpoint(
            CheckpointPolicy {
                every_bags: None,
                every_ticks: Some(1),
            },
            spec.state.join(STATE_FILE),
        );
        let log_path = spec.state.join(SCORE_LOG);
        let log = ScoreLogSink::open(&log_path)
            .map_err(|e| format!("{}: {e}", log_path.display()))?
            .with_metrics(&registry);
        builder = builder.sink_boxed(wrap(Box::new(log), "scorelog.deliver", "scorelog.flush"));
    }
    let source = StampedSource {
        inner: DirSource::new(spec.fleet.to_string_lossy(), false),
        probe: probe.clone(),
    };
    let mut pipeline = builder
        .sink(BenchSink {
            probe: probe.clone(),
        })
        .source(source)
        .build()
        .map_err(|e| e.to_string())?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu_start = sys::cpu_seconds();
    let run_start = Instant::now();
    // The pipeline times each periodic commit itself; registering the
    // same histogram again hands back that timer.
    let commits = registry.histogram(
        names::PIPELINE_CHECKPOINT_SECONDS,
        "Seconds per delivery-acked checkpoint commit",
        LATENCY_BUCKETS,
    );
    let mut steps: Vec<StepRecord> = Vec::new();
    loop {
        let open = open_span(&probe, "pipeline.step");
        let committed_before = commits.sum();
        let step = pipeline.step().map_err(|e| e.to_string())?;
        close_span(&probe, open);
        peak_rss_mb = peak_rss_mb.max(sys::rss_mb());
        if let Some(span) = open {
            steps.push(StepRecord {
                span,
                idle: step.idle,
                commit_s: commits.sum() - committed_before,
            });
        }
        if step.done {
            break;
        }
        if step.idle {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    let open = open_span(&probe, "pipeline.finish");
    let summary = pipeline.finish().map_err(|e| e.to_string())?;
    close_span(&probe, open);
    peak_rss_mb = peak_rss_mb.max(sys::rss_mb());
    let run_s = run_start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_start;

    let probe = Rc::try_unwrap(probe)
        .map_err(|_| "a wrapper outlived its pipeline".to_string())?
        .into_inner();
    let latencies_ms = probe
        .points
        .iter()
        .filter_map(|(stream, point, at)| {
            let last_bag = probe.stamps.get(stream)?.get(point.t + TAU_PRIME - 1)?;
            Some(at.saturating_duration_since(*last_bag).as_secs_f64() * 1e3)
        })
        .collect();
    let trace = spec
        .traced
        .then(|| summarize_trace(&probe.spans, &steps, run_start));
    let scorelog_bytes = std::fs::metadata(spec.state.join(SCORE_LOG)).map_or(0, |m| m.len());
    Ok(Session {
        setup_s,
        run_s,
        cpu_s,
        peak_rss_mb,
        bags: summary.bags,
        points_delivered: probe.points.len(),
        points: probe.points,
        latencies_ms,
        stream_errors: probe.stream_errors,
        quarantines: probe.quarantines.max(summary.quarantined_total),
        checkpoints: probe.checkpoints,
        checkpoint_bytes: summary.checkpoint_bytes.unwrap_or(0) as u64,
        scorelog_bytes,
        exact_solves: sample(&summary.metrics, "bagscpd_solver_exact_solves_total") as u64,
        trace,
    })
}

/// One traced `Pipeline::step`.
struct StepRecord {
    /// Its span.
    span: usize,
    /// The step reported idle.
    idle: bool,
    /// Seconds the step spent in a periodic checkpoint commit.
    commit_s: f64,
}

/// Open a step-level span (traced sessions only); returns its index.
fn open_span(probe: &Shared, name: &'static str) -> Option<usize> {
    let mut p = probe.borrow_mut();
    if !p.traced {
        return None;
    }
    let now = Instant::now();
    p.spans.push(Span {
        name,
        start: now,
        end: now,
        parent: None,
    });
    let idx = p.spans.len() - 1;
    p.open = Some(idx);
    Some(idx)
}

/// Close the span opened by [`open_span`].
fn close_span(probe: &Shared, idx: Option<usize>) {
    if let Some(idx) = idx {
        let mut p = probe.borrow_mut();
        p.spans[idx].end = Instant::now();
        p.open = None;
    }
}

/// Fold a traced session's spans into per-layer figures. A commit runs
/// at the end of its step, so the sink calls inside it are the child
/// spans that start within its last `commit_s` seconds.
fn summarize_trace(spans: &[Span], steps: &[StepRecord], origin: Instant) -> Trace {
    let mut t = Trace {
        poll_s: 0.0,
        polls: 0,
        route_s: 0.0,
        idle_steps: 0,
        commit_s: 0.0,
        finish_s: 0.0,
        sink_deliver_s: 0.0,
        sink_flush_s: 0.0,
        scorelog_deliver_s: 0.0,
        scorelog_flush_s: 0.0,
        spans: spans.to_vec(),
        origin,
    };
    // Child time by parent span.
    let mut children = vec![0.0f64; spans.len()];
    for span in spans {
        match span.name {
            "ingest.poll" => {
                t.poll_s += span.secs();
                t.polls += 1;
            }
            "sink.deliver" => t.sink_deliver_s += span.secs(),
            "sink.flush" => t.sink_flush_s += span.secs(),
            "scorelog.deliver" => t.scorelog_deliver_s += span.secs(),
            "scorelog.flush" => t.scorelog_flush_s += span.secs(),
            _ => {}
        }
        if let Some(parent) = span.parent {
            children[parent] += span.secs();
        }
    }
    for step in steps {
        let span = &spans[step.span];
        let own = (span.secs() - children[step.span]).max(0.0);
        if step.idle {
            t.idle_steps += 1;
        }
        let commit_from = span.end - Duration::from_secs_f64(step.commit_s);
        let commit_children: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(step.span) && c.start >= commit_from)
            .map(Span::secs)
            .sum();
        let commit = (step.commit_s - commit_children).clamp(0.0, own);
        t.commit_s += commit;
        t.route_s += own - commit;
    }
    if let Some((idx, span)) = spans
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == "pipeline.finish")
    {
        t.finish_s = (span.secs() - children[idx]).max(0.0);
    }
    t
}

/// Layer replay of the checkpoint path at the end-of-fleet state a
/// durable session left behind: `StreamEngine::restore`, then
/// `StreamEngine::snapshot`, then `encode_checkpoint` + `write_atomic`.
/// Returns `(restore_s, encode_s, write_s)`.
///
/// # Errors
/// A missing or unreadable checkpoint, or an engine failure.
pub fn snapshot_replay(
    workload: &Workload,
    state: &Path,
    workers: usize,
) -> Result<(f64, f64, f64), String> {
    use stream::ingest::checkpoint::{decode_checkpoint, encode_checkpoint, write_atomic};
    use stream::{EngineConfig, StreamEngine};
    let path = state.join(STATE_FILE);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (cursors, snapshot) = decode_checkpoint(&bytes).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut engine = StreamEngine::restore(
        snapshot,
        EngineConfig {
            detector: workload.detector(),
            workers,
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let restore_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let snapshot = engine.snapshot().map_err(|e| e.to_string())?;
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let encoded = encode_checkpoint(&cursors, &snapshot);
    write_atomic(&state.join("replayed.snap"), &encoded)?;
    let write_s = t0.elapsed().as_secs_f64();
    engine.shutdown();
    Ok((restore_s, encode_s, write_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::fleet::{generate, WORKLOADS};
    use crate::replay::replay;

    #[test]
    fn pipeline_equals_reference_on_every_tiny_shape() {
        let root = crate::testdir("session-vs-reference");
        for workload in WORKLOADS {
            let w = workload.tiny();
            let fleet = root.join(w.name).join("fleet");
            generate(&w, 5, &fleet).unwrap();
            let (refs, _) = replay(&w, &fleet, 5).unwrap();
            for traced in [false, true] {
                let state = root.join(w.name).join("state");
                let session = run_session(&SessionSpec {
                    workload: &w,
                    fleet: &fleet,
                    state: &state,
                    master_seed: 5,
                    workers: 2,
                    traced,
                })
                .unwrap();
                let c = check(&refs, &session, w.durable);
                let per_stream = w.points_per_stream() - usize::from(w.durable);
                assert_eq!(c.expected as usize, w.streams * per_stream, "{}", w.name);
                assert_eq!(c.failed, 0, "{}: {c:?}", w.name);
                assert_eq!(c.bit_diffs, 0, "{}: online == batch bit for bit", w.name);
                assert_eq!(session.latencies_ms.len(), session.points.len());
                assert_eq!(session.trace.is_some(), traced);
                if w.durable {
                    assert!(session.checkpoints >= 2, "periodic + final commits");
                    assert!(session.scorelog_bytes > 0);
                    snapshot_replay(&w, &state, 2).unwrap();
                }
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
