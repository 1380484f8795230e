//! The [`Pipeline`]: read → detect → deliver → checkpoint as one owned
//! loop, and the only way to drive a session.
//!
//! - **sources in** — any [`crate::ingest::Source`] (files, dirs, TCP,
//!   stdin, memory), polled round-robin; their bags are routed into
//!   the [`StreamEngine`] by interned id, and a stream whose input
//!   fails is quarantined instead of killing the process;
//! - **events out** — one ordered [`Event`] stream, delivered to any
//!   [`Sink`] (CSV, score log, stderr diagnostics, tees, memory). A
//!   point is delivered as soon as the pipeline holds it: at the end of
//!   every step, and also while a call waits on the engine — a push
//!   into a full worker queue, or the barrier every commit and
//!   [`Pipeline::finish`] take. Each such batch is the ingest side's
//!   pending notes and quarantines, then the engine's events, oldest
//!   first; per stream, points arrive in `t` order;
//! - **delivery-acked checkpoints** — a checkpoint is committed only
//!   after every event it covers was delivered *and* every sink's
//!   [`Sink::flush_durable`] succeeded. A sink I/O error aborts the run
//!   with the checkpoint uncommitted, so resuming from the last good
//!   checkpoint recomputes the undelivered points bit-identically; a
//!   `kill -9` at any instant loses nothing;
//! - **graceful degradation** (opt-in via
//!   [`PipelineBuilder::spill_dir`]) — a sink that keeps refusing
//!   delivery spills to a durable score log ([`ScoreLogSink`]) instead
//!   of killing the run, and replays the backlog in order when it
//!   recovers.

use crate::engine::{EngineConfig, EngineError, Outlet, StreamEngine, StreamId};
use crate::event::{Event, QuarantineRecord};
use crate::ingest::checkpoint::{decode_checkpoint, encode_checkpoint, write_atomic, CursorList};
use crate::ingest::{
    CheckpointPolicy, Source, SourceError, SourceItem, SourceStatus, StreamCursor,
};
use crate::scorelog::{ScoreLogReader, ScoreLogSink};
use crate::sink::Sink;
use crate::telemetry::{
    names, Clock, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, MetricsServer,
    NoisyStreams, LATENCY_BUCKETS,
};
use bagcpd::{Bag, DetectorConfig};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How long [`Pipeline::run`] sleeps between ticks when every source is
/// idle.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Score points per noisiest-stream window: the top-K gauges are
/// republished (and the window reset) every this many points.
const TOPK_WINDOW_POINTS: u64 = 512;

/// How many streams each top-K family keeps per window.
const TOPK_K: usize = 8;

/// Most recent quarantine records a pipeline retains for its
/// [`PipelineSummary`]. The lifetime *count* is unbounded
/// ([`PipelineSummary::quarantined_total`] and the ingest telemetry
/// counter); the record list is capped so a pathological source
/// emitting quarantines forever cannot grow the process without bound.
pub const RETAINED_QUARANTINES: usize = 256;

/// Pipeline failure modes.
#[derive(Debug)]
pub enum PipelineError {
    /// Construction failed (bad configuration, unreadable state file).
    Build(String),
    /// The engine refused or died.
    Engine(EngineError),
    /// A source-fatal failure (strict mode also routes per-stream data
    /// errors here).
    Source(SourceError),
    /// Checkpoint persistence failed, or two sources claimed one
    /// stream.
    State(String),
    /// A sink refused delivery or failed to flush; no checkpoint was
    /// committed over the affected events.
    Sink(std::io::Error),
    /// Strict mode: a stream's detector rejected a bag.
    StreamFailed {
        /// The failing stream.
        stream: Arc<str>,
        /// The detector's error text.
        message: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Build(why) | PipelineError::State(why) => write!(f, "{why}"),
            PipelineError::Engine(e) => write!(f, "{e}"),
            PipelineError::Source(e) => write!(f, "{e}"),
            PipelineError::Sink(e) => write!(f, "output sink: {e}"),
            PipelineError::StreamFailed { stream, message } => {
                write!(f, "stream '{stream}': {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<EngineError> for PipelineError {
    fn from(e: EngineError) -> Self {
        PipelineError::Engine(e)
    }
}

/// What one [`Pipeline::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "ignoring a StepReport drops the done/idle signals the drive loop needs"]
pub struct StepReport {
    /// Bags pushed into the engine this step.
    pub bags: usize,
    /// Every source is exhausted; call [`Pipeline::finish`].
    pub done: bool,
    /// Nothing happened; the caller may sleep before stepping again
    /// ([`Pipeline::run`] does).
    pub idle: bool,
}

/// What a completed pipeline did.
#[derive(Debug)]
pub struct PipelineSummary {
    /// Score points delivered to the sinks.
    pub points: u64,
    /// Bags pushed over the run (restored history excluded).
    pub bags: u64,
    /// Checkpoints committed (periodic + final).
    pub checkpoints: u64,
    /// Size of the final checkpoint, if one was written.
    pub checkpoint_bytes: Option<usize>,
    /// Every stream quarantined over the run (most recent, capped at
    /// [`RETAINED_QUARANTINES`] records).
    pub quarantined: Vec<QuarantineRecord>,
    /// Total quarantines over the run (may exceed `quarantined.len()`).
    pub quarantined_total: u64,
    /// Events still sitting durably in spill logs at the end of the run
    /// (a sink that never recovered). Zero on a healthy run; a resumed
    /// session replays them before its first new delivery.
    pub spilled_events: u64,
    /// Final snapshot of every metric the run recorded — the `--stats`
    /// report of batch hosts, without scraping the HTTP endpoint.
    pub metrics: Vec<MetricSample>,
}

/// Builder for a [`Pipeline`]; see [`Pipeline::builder`].
#[must_use = "a PipelineBuilder does nothing until build() is called"]
pub struct PipelineBuilder {
    engine: EngineConfig,
    sources: Vec<Box<dyn Source>>,
    sinks: Vec<Box<dyn Sink>>,
    policy: CheckpointPolicy,
    state_path: Option<PathBuf>,
    strict: bool,
    stream_seeds: Vec<(String, u64)>,
    metrics: Option<MetricsRegistry>,
    metrics_addr: Option<String>,
    spill_dir: Option<PathBuf>,
    score_log: Option<PathBuf>,
}

impl PipelineBuilder {
    /// Master seed (each stream's seed derives from it and the stream
    /// name unless overridden by [`PipelineBuilder::stream_seed`]). A
    /// restored checkpoint keeps its own master seed regardless.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Worker threads for the detection pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.engine.workers = workers;
        self
    }

    /// Add an ingestion source (repeatable; drained round-robin).
    pub fn source(mut self, source: impl Source + 'static) -> Self {
        self.sources.push(Box::new(source));
        self
    }

    /// Add a delivery sink (repeatable; every sink sees every event,
    /// and every sink must accept delivery and flush durably before a
    /// checkpoint commits).
    pub fn sink(self, sink: impl Sink + 'static) -> Self {
        self.sink_boxed(Box::new(sink))
    }

    /// [`PipelineBuilder::sink`] for an already-boxed sink.
    pub fn sink_boxed(mut self, sink: Box<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Checkpoint to `path` under `policy`; an existing file at `path`
    /// is restored by [`PipelineBuilder::build`] (the session resumes).
    /// A final checkpoint is always written by [`Pipeline::finish`].
    pub fn checkpoint(mut self, policy: CheckpointPolicy, path: impl Into<PathBuf>) -> Self {
        self.policy = policy;
        self.state_path = Some(path.into());
        self
    }

    /// Fail the whole run on the first per-stream data or detector
    /// error instead of quarantining the stream (single-stream hosts
    /// usually want this; fleets do not). Default `false`.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Pin one stream's seed instead of deriving it from the master
    /// seed and the name. No-op if the stream already exists in a
    /// restored checkpoint (its established seed wins).
    pub fn stream_seed(mut self, stream: impl Into<String>, seed: u64) -> Self {
        self.stream_seeds.push((stream.into(), seed));
        self
    }

    /// Record into `registry` instead of a fresh one — for hosts that
    /// pre-register their own metrics, share one registry across
    /// pipelines, or drive latency tests with [`Clock::manual`]. Every
    /// pipeline has a registry either way; this only substitutes it.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Enable degraded-mode egress: when a sink's `deliver` fails
    /// (after whatever retrying a [`crate::sink::RetryingSink`] wrapper
    /// did), the pipeline spills that sink's events to a durable score
    /// log ([`ScoreLogSink`], file `sink-{idx}-{kind}.spill` under
    /// `dir`, readable by `bags-cpd replay` and `query`) instead of
    /// aborting. An [`Event::Degraded`] flows through the surviving
    /// sinks, a checkpoint commit counts "durably spilled" as delivered
    /// (the spill is fsynced before the commit), and the first delivery
    /// of every later step, and every flush, probes the sink (the other
    /// deliveries append to the spill) — on success the backlog
    /// replays in order *before* any new event, an [`Event::Recovered`]
    /// is announced, and the spill file is removed. A build that finds
    /// a non-empty spill file under `dir` (a crash mid-degraded) starts
    /// that sink degraded and replays the same way; a leftover file
    /// that is not a score log fails the build and is left untouched.
    ///
    /// Without this, a failed sink aborts the run with the pending
    /// checkpoint uncommitted (the pre-existing behavior). `flush_durable`
    /// failures on a healthy sink always abort: the events it buffers
    /// were already delivered, so a spill could not make them durable,
    /// and committing a checkpoint over them would break the two-phase
    /// contract.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Record every event to the durable binary score log at `path`
    /// (see [`crate::scorelog::ScoreLogSink`]) in addition to the
    /// configured sinks. An existing log is appended to — the torn tail
    /// of a crashed writer is truncated first, and a resumed session's
    /// re-delivered tail lands as bit-identical duplicate records that
    /// every score-log reader dedups. The sink participates in the
    /// two-phase checkpoint contract like any other (fsync before
    /// commit) and records into the pipeline's metrics registry.
    pub fn score_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.score_log = Some(path.into());
        self
    }

    /// Serve `GET /metrics` (Prometheus text exposition) at `addr`,
    /// e.g. `"127.0.0.1:9464"` — port 0 picks a free port, reported by
    /// [`Pipeline::metrics_addr`]. The endpoint is polled from the
    /// pipeline's own loop; no thread is spawned.
    pub fn serve_metrics(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Construct the pipeline: restore the checkpoint if one exists at
    /// the configured path, otherwise start a fresh engine; then attach
    /// every source (adopting restored cursors) and prime every sink
    /// (an initial `flush_durable`, so a `CsvSink` prints its header
    /// before the first tick — a live consumer sees the schema
    /// immediately, exactly like the original CLI loop).
    ///
    /// # Errors
    /// [`PipelineError::Build`] for invalid configuration or an
    /// unreadable/corrupt state file; [`PipelineError::Sink`] if a sink
    /// cannot flush.
    pub fn build(mut self) -> Result<Pipeline, PipelineError> {
        let registry = self.metrics.unwrap_or_default();
        if let Some(path) = &self.score_log {
            let sink = crate::scorelog::ScoreLogSink::open(path)
                .map_err(|e| PipelineError::Build(format!("score log {}: {e}", path.display())))?
                .with_metrics(&registry);
            self.sinks.push(Box::new(sink));
        }
        let server = match &self.metrics_addr {
            Some(addr) => Some(
                MetricsServer::bind(addr, registry.clone())
                    .map_err(|e| PipelineError::Build(format!("metrics endpoint {addr}: {e}")))?,
            ),
            None => None,
        };
        let engine_cfg = EngineConfig {
            telemetry: Some(registry.clone()),
            ..self.engine
        };
        let mut restored_state = None;
        let mut resume = HashMap::new();
        let mut engine = match &self.state_path {
            Some(path) if path.exists() => {
                let in_state = |e: &dyn std::fmt::Display| {
                    PipelineError::Build(format!("{}: {e}", path.display()))
                };
                let bytes = std::fs::read(path).map_err(|e| in_state(&e))?;
                let (cursors, snapshot) = decode_checkpoint(&bytes).map_err(|e| in_state(&e))?;
                let engine =
                    StreamEngine::restore(snapshot, engine_cfg).map_err(|e| in_state(&e))?;
                resume = cursors.into_iter().collect();
                restored_state = Some(bytes);
                engine
            }
            _ => StreamEngine::new(engine_cfg).map_err(|e| PipelineError::Build(e.to_string()))?,
        };
        let mut ingest = Ingest::new(&registry, self.strict, resume);
        for (stream, seed) in &self.stream_seeds {
            engine
                .resolve_seeded(stream, *seed)
                .map_err(|e| PipelineError::Build(e.to_string()))?;
        }
        for source in self.sources {
            ingest.add_source(source, &registry);
        }
        let checkpoint_seconds = registry.histogram(
            names::PIPELINE_CHECKPOINT_SECONDS,
            "Seconds per delivery-acked checkpoint commit",
            LATENCY_BUCKETS,
        );
        let mut pipeline = Pipeline {
            engine,
            ingest,
            egress: Egress::new(self.sinks, self.strict, &registry, self.spill_dir)?,
            policy: self.policy,
            state_path: self.state_path,
            since_commit: SinceCommit::default(),
            checkpoints: 0,
            restored_state,
            registry,
            server,
            checkpoint_seconds,
        };
        pipeline.egress.flush()?;
        Ok(pipeline)
    }
}

/// The owned read→detect→deliver→checkpoint loop. Construct with
/// [`Pipeline::builder`], then either hand over control with
/// [`Pipeline::run`] or drive tick-by-tick with [`Pipeline::step`] +
/// [`Pipeline::finish`].
///
/// ```
/// use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
/// use stream::ingest::MemorySource;
/// use stream::sink::MemorySink;
/// use stream::Pipeline;
///
/// let detector = DetectorConfig {
///     tau: 3,
///     tau_prime: 2,
///     signature: SignatureMethod::Histogram { width: 0.5 },
///     bootstrap: BootstrapConfig { replicates: 32, ..Default::default() },
///     ..Default::default()
/// };
/// // 8 bags with a level shift halfway: window 5 -> 4 score points.
/// let bags = (0..8).map(|t| {
///     let level = if t < 4 { 0.0 } else { 6.0 };
///     let rows = (0..20).map(|i| vec![level + (i % 5) as f64 * 0.1]).collect();
///     (t as i64, rows)
/// });
/// let sink = MemorySink::new();
/// let summary = Pipeline::builder(detector)
///     .seed(42)
///     .workers(1)
///     .source(MemorySource::bags("sensor", bags))
///     .sink(sink.clone())
///     .build()?
///     .run()?;
/// assert_eq!(summary.points, 4);
/// assert!(sink.events().iter().all(|e| e.point().is_some()));
/// # Ok::<(), stream::PipelineError>(())
/// ```
pub struct Pipeline {
    engine: StreamEngine,
    ingest: Ingest,
    egress: Egress,
    policy: CheckpointPolicy,
    /// Where checkpoints go; `None` disables checkpointing and makes
    /// [`Pipeline::finish`] complete trailing bags instead of holding
    /// them back.
    state_path: Option<PathBuf>,
    since_commit: SinceCommit,
    /// Checkpoints committed so far (periodic + final).
    checkpoints: u64,
    /// The checkpoint bytes the build restored from, if any.
    restored_state: Option<Vec<u8>>,
    registry: MetricsRegistry,
    /// The scrape endpoint, polled from [`Pipeline::step`].
    server: Option<MetricsServer>,
    checkpoint_seconds: Histogram,
}

/// What happened since the last commit: the [`CheckpointPolicy`]'s
/// inputs.
#[derive(Default)]
struct SinceCommit {
    bags: u64,
    ticks: u64,
    /// Anything happened (bags, active sources, quarantines) — gates
    /// the tick trigger.
    dirty: bool,
}

impl Pipeline {
    /// Start building a pipeline around the paper's detection
    /// parameters; everything else (sources, sinks, checkpointing,
    /// strictness, pool shape) is opt-in on the builder.
    pub fn builder(detector: DetectorConfig) -> PipelineBuilder {
        PipelineBuilder {
            engine: EngineConfig {
                detector,
                ..EngineConfig::default()
            },
            sources: Vec::new(),
            sinks: Vec::new(),
            policy: CheckpointPolicy::disabled(),
            state_path: None,
            strict: false,
            stream_seeds: Vec::new(),
            metrics: None,
            score_log: None,
            metrics_addr: None,
            spill_dir: None,
        }
    }

    /// Whether [`PipelineBuilder::build`] restored an existing
    /// checkpoint.
    pub fn resumed(&self) -> bool {
        self.restored_state.is_some()
    }

    /// The exact checkpoint bytes the build restored from (`None` on a
    /// fresh start) — for hosts that report resume diagnostics without
    /// re-reading (and possibly racing) the state file.
    pub fn restored_state(&self) -> Option<&[u8]> {
        self.restored_state.as_deref()
    }

    /// The restored cursor table (empty unless [`Pipeline::resumed`]).
    pub fn resume_cursors(&self) -> &HashMap<String, StreamCursor> {
        &self.ingest.resume
    }

    /// The engine's master seed: [`PipelineBuilder::seed`] on a fresh
    /// start, the checkpoint's own seed on a resumed one.
    pub fn master_seed(&self) -> u64 {
        self.engine.master_seed()
    }

    /// Score points delivered so far.
    pub fn points_delivered(&self) -> u64 {
        self.egress.points
    }

    /// The registry every layer of this pipeline records into — render
    /// it, snapshot it, or pre-register host-side metrics on it.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Where the scrape endpoint actually listens (`None` unless
    /// [`PipelineBuilder::serve_metrics`] was configured) — the real
    /// port when the host bound port 0.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// One tick: one round over the sources (a directory's whole pass,
    /// routed slice by slice), pushing completed bags, then deliver every
    /// finished event (those finished while a push waits for queue
    /// space go out during the wait) — and, when the checkpoint policy
    /// comes due, commit a checkpoint within the same step (see
    /// [`Pipeline::finish`] for the commit order).
    ///
    /// # Errors
    /// Engine, source and checkpoint failures
    /// ([`PipelineError::Engine`], [`PipelineError::Source`],
    /// [`PipelineError::State`]), sink I/O failures
    /// ([`PipelineError::Sink`] — the pending checkpoint is *not*
    /// committed), or, in strict mode, the first stream failure.
    pub fn step(&mut self) -> Result<StepReport, PipelineError> {
        if let Some(server) = &mut self.server {
            server.poll();
        }
        self.egress.probe_due = true;
        let (report, eventful) = self.ingest.poll(&mut self.engine, &mut self.egress)?;
        let since = &mut self.since_commit;
        since.bags += report.bags as u64;
        since.ticks += 1;
        since.dirty |= eventful;
        let due =
            self.state_path.is_some() && self.policy.due(since.bags, since.ticks, since.dirty);
        self.deliver_ready()?;
        if due {
            let t0 = self.egress.clock.now_ns();
            self.commit()?;
            self.checkpoint_seconds
                .observe_ns(self.egress.clock.now_ns().saturating_sub(t0));
        }
        Ok(report)
    }

    /// Step until every source is exhausted (sleeping briefly while
    /// idle), then [`Pipeline::finish`]. A watch-mode source never
    /// reports done, so this runs until the process is stopped.
    ///
    /// # Errors
    /// As [`Pipeline::step`] / [`Pipeline::finish`].
    pub fn run(mut self) -> Result<PipelineSummary, PipelineError> {
        loop {
            let step = self.step()?;
            if step.done {
                break;
            }
            if step.idle {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.finish()
    }

    /// Wind down. Without a state path, EOF means the data is final:
    /// the events already evaluated are delivered, then every source
    /// completes its trailing bag. With one, trailing bags stay held
    /// back in the cursors. Either way the run ends in the commit every
    /// periodic checkpoint takes too:
    ///
    /// 1. barrier-flush the engine and deliver every event (points go
    ///    out while the barrier waits, as the workers finish them);
    /// 2. `flush_durable` every sink;
    /// 3. write cursors + engine snapshot (with a state path);
    /// 4. announce the commit as [`Event::CheckpointWritten`].
    ///
    /// # Errors
    /// As [`Pipeline::step`]; a sink failure leaves the final
    /// checkpoint unwritten, so a resumed session replays the
    /// undelivered tail.
    pub fn finish(mut self) -> Result<PipelineSummary, PipelineError> {
        if self.state_path.is_none() {
            // Points already evaluated go out ahead of whatever the
            // sources' wind-down reports.
            self.settle()?;
            self.ingest.finish(&mut self.engine, &mut self.egress)?;
        }
        let checkpoint_bytes = self.commit()?;
        let Pipeline {
            engine,
            ingest,
            mut egress,
            checkpoints,
            registry,
            ..
        } = self;
        egress.deliver(&engine.shutdown())?;
        egress.flush()?;
        // Announcements raised by the final flush (a sink recovering at
        // the last moment) still go through the surviving sinks.
        egress.deliver(&[])?;
        // Publish the partial final window, so the top-K gauges of a
        // short batch run are not silently empty.
        if egress.noisy.points() > 0 {
            egress.noisy.publish(&registry, TOPK_K);
        }
        Ok(PipelineSummary {
            points: egress.points,
            bags: ingest.bags,
            checkpoints,
            checkpoint_bytes,
            quarantined: ingest.quarantined,
            quarantined_total: ingest.quarantined_total,
            spilled_events: egress.spilled_remaining(),
            metrics: registry.snapshot(),
        })
    }

    /// Deliver the completed events, without blocking: ingest-side
    /// events (notes, quarantines) in occurrence order, then everything
    /// the engine has finished.
    fn deliver_ready(&mut self) -> Result<(), PipelineError> {
        self.engine
            .drain(&mut outlet(&mut self.egress, &mut self.ingest.pending))
    }

    /// Barrier-flush the engine, delivering events as the barrier
    /// drains them, then every event it completed.
    fn settle(&mut self) -> Result<(), PipelineError> {
        self.engine
            .flush(&mut outlet(&mut self.egress, &mut self.ingest.pending))?;
        self.deliver_ready()
    }

    /// The one commit order (see [`Pipeline::finish`]): no bag is pushed
    /// between the barrier and the snapshot, so the checkpoint covers
    /// exactly what was delivered and flushed. Returns the checkpoint's
    /// size, or `None` without a state path.
    fn commit(&mut self) -> Result<Option<usize>, PipelineError> {
        self.settle()?;
        self.egress.flush()?;
        let Some(path) = self.state_path.clone() else {
            return Ok(None);
        };
        let cursors = self.ingest.cursors()?;
        let snapshot = self.engine.snapshot()?;
        let bytes = encode_checkpoint(&cursors, &snapshot);
        write_atomic(&path, &bytes).map_err(PipelineError::State)?;
        self.since_commit = SinceCommit::default();
        self.checkpoints += 1;
        self.egress.deliver(&[Event::CheckpointWritten {
            bytes: bytes.len(),
            bags: self.ingest.bags,
        }])?;
        Ok(Some(bytes.len()))
    }
}

/// The outlet of every engine call the pipeline makes: it delivers
/// `pending` (the ingest side's notes and quarantines), then the
/// engine's events, oldest first, as one batch, leaving both empty; a
/// delivery failure ends the call with that error.
fn outlet<'a>(
    egress: &'a mut Egress,
    pending: &'a mut Vec<Event>,
) -> impl FnMut(&mut VecDeque<Event>) -> Result<(), PipelineError> + 'a {
    move |stash| {
        pending.extend(stash.drain(..));
        let delivered = egress.deliver(pending);
        pending.clear();
        delivered
    }
}

/// The ingestion half of the pipeline: every source with its status,
/// the routing table, quarantine records and the ingest metrics.
struct Ingest {
    sources: Vec<(Box<dyn Source>, SourceStatus)>,
    /// Fail on the first per-stream data error instead of quarantining.
    strict: bool,
    /// Cursor map handed to every source added (restore path).
    resume: HashMap<String, StreamCursor>,
    /// First source to push each stream, plus the interned id — the
    /// per-bag routing cache and the cross-source collision guard.
    claims: HashMap<Arc<str>, (usize, StreamId)>,
    items: Vec<SourceItem>,
    /// Notes and quarantines awaiting delivery; drained ahead of the
    /// engine's events.
    pending: Vec<Event>,
    /// Most recent quarantine records (capped at
    /// [`RETAINED_QUARANTINES`]; oldest dropped first).
    quarantined: Vec<QuarantineRecord>,
    /// Lifetime quarantine count (unlike the record list, never capped).
    quarantined_total: u64,
    /// Bags pushed over the run.
    bags: u64,
    clock: Clock,
    bags_routed: Counter,
    quarantines: Counter,
    evictions: Counter,
    /// Per-source poll histograms (labeled by origin), parallel to
    /// `sources`.
    polls: Vec<Histogram>,
}

impl Ingest {
    fn new(
        registry: &MetricsRegistry,
        strict: bool,
        resume: HashMap<String, StreamCursor>,
    ) -> Self {
        Ingest {
            sources: Vec::new(),
            strict,
            resume,
            claims: HashMap::new(),
            items: Vec::new(),
            pending: Vec::new(),
            quarantined: Vec::new(),
            quarantined_total: 0,
            bags: 0,
            clock: registry.clock(),
            bags_routed: registry.counter(
                names::INGEST_BAGS,
                "Completed bags routed into the engine by the pipeline",
            ),
            quarantines: registry.counter(
                names::INGEST_QUARANTINES,
                "Streams quarantined at ingestion",
            ),
            evictions: registry.counter(
                names::INGEST_STREAMS_EVICTED,
                "Streams retired from service by source eviction policies (idle timeouts)",
            ),
            polls: Vec::new(),
        }
    }

    /// Add a source: it adopts any restored cursors for its streams and
    /// registers its own metrics; its poll histogram is registered here.
    fn add_source(&mut self, mut source: Box<dyn Source>, registry: &MetricsRegistry) {
        source.restore(&self.resume);
        source.attach_telemetry(registry);
        self.polls.push(registry.histogram_labeled(
            names::INGEST_POLL_SECONDS,
            "Wall-clock seconds per source poll",
            LATENCY_BUCKETS,
            &[("source", source.origin())],
        ));
        self.sources.push((source, SourceStatus::Idle));
    }

    /// One round-robin round over every live source: report the
    /// engine's queue load, poll, and route what the poll produced. A
    /// source that answers [`SourceStatus::More`] is polled again within
    /// the round, after its slice is routed, so the engine takes each
    /// slice before the next is read. Also returns whether anything
    /// happened (bags, active sources, quarantines).
    fn poll(
        &mut self,
        engine: &mut StreamEngine,
        egress: &mut Egress,
    ) -> Result<(StepReport, bool), PipelineError> {
        let mut report = StepReport::default();
        let mut active_sources = 0usize;
        let quarantined_before = self.quarantined_total;
        for idx in 0..self.sources.len() {
            if self.sources[idx].1 == SourceStatus::Done {
                continue;
            }
            let polled = loop {
                let mut items = std::mem::take(&mut self.items);
                items.clear();
                // Tell the source how full the engine's bounded queues
                // are before it reads more input, so interactive sources
                // can push back on their producers instead of stalling
                // in a push.
                self.sources[idx].0.pressure(engine.queue_load());
                let t0 = self.clock.now_ns();
                let polled = self.sources[idx].0.poll(&mut items);
                self.polls[idx].observe_ns(self.clock.now_ns().saturating_sub(t0));
                let routed = self.route(idx, &mut items, engine, egress);
                self.items = items;
                report.bags += routed?;
                if polled != Ok(SourceStatus::More) {
                    break polled;
                }
            };
            match polled {
                Ok(status) => {
                    self.sources[idx].1 = status;
                    if status == SourceStatus::Active {
                        active_sources += 1;
                    }
                }
                Err(e) => {
                    // Source-fatal: the source is out, the rest live on
                    // (or the whole session dies, in strict mode).
                    self.sources[idx].1 = SourceStatus::Done;
                    if self.strict {
                        return Err(PipelineError::Source(e));
                    }
                    self.pending.push(Event::Note(format!(
                        "source {} failed and was dropped: {e}",
                        self.sources[idx].0.origin()
                    )));
                }
            }
        }
        report.done = self
            .sources
            .iter()
            .all(|(_, status)| *status == SourceStatus::Done);
        report.idle = active_sources == 0 && report.bags == 0;
        let eventful = !report.idle || self.quarantined_total > quarantined_before;
        Ok((report, eventful))
    }

    /// Let every source complete its trailing bag, and route it.
    fn finish(
        &mut self,
        engine: &mut StreamEngine,
        egress: &mut Egress,
    ) -> Result<(), PipelineError> {
        for idx in 0..self.sources.len() {
            let mut items = std::mem::take(&mut self.items);
            items.clear();
            let finished = self.sources[idx].0.finish(&mut items);
            let routed = self.route(idx, &mut items, engine, egress);
            self.items = items;
            routed?;
            if let Err(e) = finished {
                if self.strict {
                    return Err(PipelineError::Source(e));
                }
                self.pending.push(Event::Note(format!(
                    "source {}: {e}",
                    self.sources[idx].0.origin()
                )));
            }
        }
        Ok(())
    }

    /// Route one source's items into the engine and the records, and
    /// return how many bags were pushed. The claims table interns each
    /// stream once (per-bag cost: one map lookup, no hashing of the
    /// engine's seed scheme) and rejects a second source feeding an
    /// already-claimed stream — two inputs interleaved into one detector
    /// would silently corrupt its scores, so that is a configuration
    /// error in every mode. Events the engine completes while a call
    /// waits are delivered through `egress` straight away.
    fn route(
        &mut self,
        source_idx: usize,
        items: &mut Vec<SourceItem>,
        engine: &mut StreamEngine,
        egress: &mut Egress,
    ) -> Result<usize, PipelineError> {
        let mut bags = 0;
        for item in items.drain(..) {
            match item {
                SourceItem::Bag { stream, rows, .. } => {
                    let out: &mut Outlet<'_, PipelineError> =
                        &mut outlet(egress, &mut self.pending);
                    let id = match self.claims.get(&stream) {
                        Some(&(owner, id)) => {
                            if owner != source_idx {
                                return Err(PipelineError::State(format!(
                                    "stream '{stream}' is fed by two sources ({} and {}); \
                                     a stream must have exactly one input",
                                    self.sources[owner].0.origin(),
                                    self.sources[source_idx].0.origin()
                                )));
                            }
                            id
                        }
                        None => {
                            let id = engine.resolve(&stream, out)?;
                            self.claims.insert(stream.clone(), (source_idx, id));
                            id
                        }
                    };
                    engine.push(id, Bag::new(rows), out)?;
                    bags += 1;
                    self.bags += 1;
                    self.bags_routed.inc();
                }
                SourceItem::Quarantine { stream, error } => {
                    if self.strict {
                        return Err(PipelineError::Source(error));
                    }
                    self.quarantined_total += 1;
                    self.quarantines.inc();
                    let record = QuarantineRecord { stream, error };
                    self.pending.push(Event::Quarantine(record.clone()));
                    if self.quarantined.len() >= RETAINED_QUARANTINES {
                        // Quarantines are rare; on the pathological path
                        // an O(n) shift of 256 records is irrelevant.
                        self.quarantined.remove(0);
                    }
                    self.quarantined.push(record);
                }
                SourceItem::Note(n) => self.pending.push(Event::Note(n)),
                SourceItem::Retire { stream } => {
                    // Source-initiated retirement (idle eviction). Drop
                    // the claim too: if the stream speaks again it
                    // re-resolves to the same interned id but starts a
                    // fresh detector — the documented eviction
                    // semantics. The id is looked up by name, not in
                    // the claims: the stream may be a restored one that
                    // has not routed a bag in this session. A name never
                    // interned has nothing to retire.
                    self.claims.remove(&stream);
                    let Some(id) = engine.id_of(&stream) else {
                        continue;
                    };
                    if engine.retire(id, &mut outlet(egress, &mut self.pending))? {
                        self.evictions.inc();
                        self.pending.push(Event::Note(format!(
                            "stream '{stream}' evicted after idling; it restarts fresh if it \
                             returns"
                        )));
                    }
                }
            }
        }
        Ok(bags)
    }

    /// Every source's resume cursors, sorted by stream name, plus the
    /// restored cursors of streams no source has reported.
    ///
    /// # Errors
    /// [`PipelineError::State`] if two sources report a cursor for the
    /// same stream (resume would be ambiguous).
    fn cursors(&self) -> Result<CursorList, PipelineError> {
        let mut cursors: CursorList = Vec::new();
        for (source, _) in &self.sources {
            source.cursors(&mut cursors);
        }
        let mut seen = std::collections::HashSet::with_capacity(cursors.len());
        for (name, _) in &cursors {
            if !seen.insert(name.as_ref()) {
                return Err(PipelineError::State(format!(
                    "two sources report a cursor for stream '{name}' — resume would be \
                     ambiguous; feed a stream from one source only"
                )));
            }
        }
        // Restored cursors of streams no source has claimed (a directory
        // file that has not re-appeared yet, a TCP stream that has not
        // spoken) must survive the rewrite, or their hold-back rows and
        // positions would be lost.
        let unclaimed: CursorList = self
            .resume
            .iter()
            .filter(|(name, _)| !seen.contains(name.as_str()))
            .map(|(name, cursor)| (Arc::from(name.as_str()), cursor.clone()))
            .collect();
        cursors.extend(unclaimed);
        cursors.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(cursors)
    }
}

/// One sink plus its delivery metrics, labeled by [`Sink::kind`] (two
/// sinks of the same kind share series — the label reflects *what* is
/// downstream, not which instance). `spill` is `Some` while the sink is
/// degraded: its batches go to the log, not the sink.
struct SinkStation {
    sink: Box<dyn Sink>,
    kind: &'static str,
    delivered: Counter,
    deliver_seconds: Histogram,
    flush_seconds: Histogram,
    spill: Option<ScoreLogSink>,
}

/// The delivery half of the pipeline: every sink with its metrics, the
/// point count, the windowed noisiest-stream accounting, and — when a
/// spill directory is configured — degraded-mode supervision (see
/// [`PipelineBuilder::spill_dir`]).
struct Egress {
    stations: Vec<SinkStation>,
    strict: bool,
    points: u64,
    clock: Clock,
    registry: MetricsRegistry,
    noisy: NoisyStreams,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    spill_dir: Option<PathBuf>,
    /// Degraded/Recovered announcements awaiting delivery; drained at
    /// the head of the next [`Egress::deliver`].
    pending: Vec<Event>,
    /// A degraded station may be probed for recovery by the next
    /// delivery: set by every [`Pipeline::step`], cleared by the first
    /// batch, so the batches a step delivers while it waits on the
    /// engine append to the spill without re-reading it.
    /// [`Egress::flush`] always probes.
    probe_due: bool,
    degraded_gauge: Gauge,
    spilled: Counter,
    replay_seconds: Histogram,
}

impl Egress {
    fn new(
        sinks: Vec<Box<dyn Sink>>,
        strict: bool,
        registry: &MetricsRegistry,
        spill_dir: Option<PathBuf>,
    ) -> Result<Egress, PipelineError> {
        let stations = sinks
            .into_iter()
            .map(|sink| {
                let kind = sink.kind();
                let labels: &[(&str, &str)] = &[("sink", kind)];
                SinkStation {
                    kind,
                    delivered: registry.counter_labeled(
                        names::PIPELINE_EVENTS_DELIVERED,
                        "Events delivered, by sink kind",
                        labels,
                    ),
                    deliver_seconds: registry.histogram_labeled(
                        names::PIPELINE_DELIVER_SECONDS,
                        "Seconds per delivery batch, by sink kind",
                        LATENCY_BUCKETS,
                        labels,
                    ),
                    flush_seconds: registry.histogram_labeled(
                        names::PIPELINE_FLUSH_SECONDS,
                        "Seconds per durable flush, by sink kind",
                        LATENCY_BUCKETS,
                        labels,
                    ),
                    sink,
                    spill: None,
                }
            })
            .collect();
        let mut egress = Egress {
            stations,
            strict,
            points: 0,
            clock: registry.clock(),
            registry: registry.clone(),
            noisy: NoisyStreams::new(),
            checkpoints: registry.counter(names::PIPELINE_CHECKPOINTS, "Checkpoints committed"),
            checkpoint_bytes: registry.counter(
                names::PIPELINE_CHECKPOINT_BYTES,
                "Checkpoint bytes written (cumulative)",
            ),
            spill_dir,
            pending: Vec::new(),
            probe_due: false,
            degraded_gauge: registry.gauge(
                names::EGRESS_DEGRADED,
                "Sinks currently degraded (spilling instead of delivering)",
            ),
            spilled: registry.counter(
                names::EGRESS_SPILLED_EVENTS,
                "Events appended to durable spill logs while degraded",
            ),
            replay_seconds: registry.histogram(
                names::EGRESS_SPILL_REPLAY_SECONDS,
                "Seconds per spill replay on sink recovery",
                LATENCY_BUCKETS,
            ),
        };
        egress.adopt_leftover_spills()?;
        Ok(egress)
    }

    /// A crash mid-degraded leaves a non-empty spill file behind; the
    /// next build starts that sink degraded so the backlog replays —
    /// in order, before any new delivery — once the sink accepts again.
    fn adopt_leftover_spills(&mut self) -> Result<(), PipelineError> {
        let Some(dir) = self.spill_dir.clone() else {
            return Ok(());
        };
        std::fs::create_dir_all(&dir).map_err(PipelineError::Sink)?;
        for idx in 0..self.stations.len() {
            let path = Egress::spill_path(&dir, idx, self.stations[idx].kind);
            if !path.exists() {
                continue;
            }
            let log = ScoreLogSink::open(&path).map_err(PipelineError::Sink)?;
            if log.is_empty() {
                continue;
            }
            self.pending.push(Event::Degraded {
                sink: self.stations[idx].kind.to_string(),
                reason: format!("resumed with {} spilled events", log.events()),
            });
            self.stations[idx].spill = Some(log);
        }
        self.update_degraded_gauge();
        Ok(())
    }

    fn spill_path(dir: &std::path::Path, idx: usize, kind: &str) -> PathBuf {
        dir.join(format!("sink-{idx}-{kind}.spill"))
    }

    fn update_degraded_gauge(&self) {
        let degraded = self.stations.iter().filter(|s| s.spill.is_some()).count();
        self.degraded_gauge.set(degraded as f64);
    }

    /// Deliver pending Degraded/Recovered announcements, then `events`.
    fn deliver(&mut self, events: &[Event]) -> Result<(), PipelineError> {
        if !self.pending.is_empty() {
            let markers = std::mem::take(&mut self.pending);
            self.deliver_batch(&markers)?;
        }
        if events.is_empty() {
            return Ok(());
        }
        self.deliver_batch(events)
    }

    /// Deliver one batch to every sink, counting points. In strict mode
    /// a [`Event::StreamError`] aborts: the events before it are
    /// delivered, the error itself is not (the host reports it as the
    /// run's failure), and nothing after it is either.
    fn deliver_batch(&mut self, events: &[Event]) -> Result<(), PipelineError> {
        if events.is_empty() {
            return Ok(());
        }
        let failed = self
            .strict
            .then(|| {
                events.iter().enumerate().find_map(|(pos, e)| match e {
                    Event::StreamError { stream, message } => Some((pos, stream, message)),
                    _ => None,
                })
            })
            .flatten();
        let deliverable = &events[..failed.map_or(events.len(), |(pos, ..)| pos)];
        let probe = std::mem::take(&mut self.probe_due);
        for idx in 0..self.stations.len() {
            self.station_deliver(idx, deliverable, probe)?;
        }
        for event in deliverable {
            match event {
                Event::Point { stream, point } => {
                    self.points += 1;
                    self.noisy.record(stream, point.score, point.alert);
                }
                Event::CheckpointWritten { bytes, .. } => {
                    self.checkpoints.inc();
                    self.checkpoint_bytes.add(*bytes as u64);
                }
                _ => {}
            }
        }
        if self.noisy.points() >= TOPK_WINDOW_POINTS {
            self.noisy.publish(&self.registry, TOPK_K);
        }
        if let Some((_, stream, message)) = failed {
            return Err(PipelineError::StreamFailed {
                stream: stream.clone(),
                message: message.clone(),
            });
        }
        Ok(())
    }

    /// One station's share of a batch: when degraded, a recovery probe
    /// if `probe` allows one, then delivery or — on continued refusal —
    /// a spill append; plain delivery when healthy (degrading on failure
    /// if a spill directory exists).
    fn station_deliver(
        &mut self,
        idx: usize,
        events: &[Event],
        probe: bool,
    ) -> Result<(), PipelineError> {
        if self.stations[idx].spill.is_some() && !(probe && self.try_recover(idx)?) {
            let station = &mut self.stations[idx];
            if let Some(spill) = station.spill.as_mut() {
                spill.deliver(events).map_err(PipelineError::Sink)?;
            }
            self.spilled.add(events.len() as u64);
            return Ok(());
        }
        let t0 = self.clock.now_ns();
        let station = &mut self.stations[idx];
        match station.sink.deliver(events) {
            Ok(()) => {
                station
                    .deliver_seconds
                    .observe_ns(self.clock.now_ns().saturating_sub(t0));
                station.delivered.add(events.len() as u64);
                Ok(())
            }
            Err(err) => self.degrade(idx, events, err),
        }
    }

    /// Enter degraded mode for station `idx` (or abort the run if no
    /// spill directory is configured): the refused batch goes to the
    /// spill log and an [`Event::Degraded`] is queued for the survivors.
    fn degrade(
        &mut self,
        idx: usize,
        undelivered: &[Event],
        err: std::io::Error,
    ) -> Result<(), PipelineError> {
        let Some(dir) = self.spill_dir.clone() else {
            return Err(PipelineError::Sink(err));
        };
        let station = &mut self.stations[idx];
        let path = Egress::spill_path(&dir, idx, station.kind);
        let mut spill = ScoreLogSink::open(&path).map_err(PipelineError::Sink)?;
        spill.deliver(undelivered).map_err(PipelineError::Sink)?;
        self.spilled.add(undelivered.len() as u64);
        station.spill = Some(spill);
        self.pending.push(Event::Degraded {
            sink: self.stations[idx].kind.to_string(),
            reason: err.to_string(),
        });
        self.update_degraded_gauge();
        Ok(())
    }

    /// Probe a degraded station: replay the whole backlog in order,
    /// flush it durably, and only then declare recovery (queueing an
    /// [`Event::Recovered`] and removing the spill file). A sink that
    /// still refuses stays degraded; only spill-log I/O itself is
    /// fatal.
    fn try_recover(&mut self, idx: usize) -> Result<bool, PipelineError> {
        let t0 = self.clock.now_ns();
        let station = &mut self.stations[idx];
        let Some(spill) = station.spill.as_mut() else {
            return Ok(true);
        };
        let backlog = ScoreLogReader::read_all(spill.path()).map_err(PipelineError::Sink)?;
        if station.sink.deliver(&backlog).is_err() || station.sink.flush_durable().is_err() {
            return Ok(false);
        }
        spill.clear().map_err(PipelineError::Sink)?;
        let path = spill.path().to_path_buf();
        station.spill = None;
        let _ = std::fs::remove_file(&path);
        station.delivered.add(backlog.len() as u64);
        self.replay_seconds
            .observe_ns(self.clock.now_ns().saturating_sub(t0));
        self.pending.push(Event::Recovered {
            sink: self.stations[idx].kind.to_string(),
            replayed: backlog.len() as u64,
        });
        self.update_degraded_gauge();
        Ok(true)
    }

    /// `flush_durable` every healthy sink (all must succeed for a
    /// checkpoint to proceed). Degraded stations are probed for
    /// recovery first; one that stays degraded fsyncs its spill log
    /// instead — that is what lets the commit count its spilled events
    /// as covered.
    fn flush(&mut self) -> Result<(), PipelineError> {
        for idx in 0..self.stations.len() {
            if self.stations[idx].spill.is_some() && !self.try_recover(idx)? {
                let station = &mut self.stations[idx];
                if let Some(spill) = station.spill.as_mut() {
                    spill.flush_durable().map_err(PipelineError::Sink)?;
                }
                continue;
            }
            let station = &mut self.stations[idx];
            let t0 = self.clock.now_ns();
            station.sink.flush_durable().map_err(PipelineError::Sink)?;
            station
                .flush_seconds
                .observe_ns(self.clock.now_ns().saturating_sub(t0));
        }
        Ok(())
    }

    /// Events still sitting in spill logs (durable but undelivered).
    fn spilled_remaining(&self) -> u64 {
        self.stations
            .iter()
            .filter_map(|s| s.spill.as_ref().map(ScoreLogSink::events))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::MemorySource;
    use crate::scorelog::format::MAGIC;
    use bagcpd::{Detector, ScorePoint};
    use std::sync::Mutex;

    const TAU_PRIME: usize = 2;

    /// A stream's name and its `(time, rows)` bags.
    type Stream<'a> = (&'a str, Vec<(i64, Vec<Vec<f64>>)>);

    fn detector_cfg() -> DetectorConfig {
        DetectorConfig {
            tau: 3,
            tau_prime: TAU_PRIME,
            ..Default::default()
        }
    }

    /// `n` bags of 30 2-D rows with a level shift halfway.
    fn bags(n: usize, salt: usize) -> Vec<(i64, Vec<Vec<f64>>)> {
        (0..n)
            .map(|t| {
                let level = if t < n / 2 { 0.0 } else { 3.0 };
                let rows = (0..30)
                    .map(|i| {
                        let u = ((i * 7 + t * 3 + salt) % 11) as f64 * 0.1;
                        vec![level + u, 0.5 * u]
                    })
                    .collect();
                (t as i64, rows)
            })
            .collect()
    }

    /// One worker, seeds pinned per stream, every stream's bags queued
    /// in one memory source, interleaved (one poll hands over up to 64).
    fn builder(streams: &[Stream<'_>]) -> PipelineBuilder {
        let mut source = MemorySource::new("memory://fleet");
        let longest = streams.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (name, bags) in streams {
                if let Some((t, rows)) = bags.get(i) {
                    source.push_bag(name, *t, rows.clone());
                }
            }
        }
        let mut builder = Pipeline::builder(detector_cfg()).workers(1);
        for (i, (name, _)) in streams.iter().enumerate() {
            builder = builder.stream_seed(*name, 100 + i as u64);
        }
        builder.source(source)
    }

    /// Records every batch it is handed, as handed.
    #[derive(Clone, Default)]
    struct Batches(Arc<Mutex<Vec<Vec<Event>>>>);

    impl Batches {
        fn with_points(&self) -> usize {
            let batches = self.0.lock().unwrap();
            batches
                .iter()
                .filter(|b| b.iter().any(|e| e.point().is_some()))
                .count()
        }

        fn events(&self) -> Vec<Event> {
            self.0.lock().unwrap().concat()
        }
    }

    impl Sink for Batches {
        fn deliver(&mut self, events: &[Event]) -> std::io::Result<()> {
            self.0.lock().unwrap().push(events.to_vec());
            Ok(())
        }

        fn flush_durable(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every point arrives once, in per-stream `t` order, equal to the
    /// batch detector's.
    fn assert_matches_analyze(events: &[Event], streams: &[Stream<'_>]) {
        let detector = Detector::new(detector_cfg()).unwrap();
        for (i, (name, bags)) in streams.iter().enumerate() {
            let got: Vec<ScorePoint> = events
                .iter()
                .filter(|e| e.stream() == Some(name))
                .filter_map(|e| e.point().copied())
                .collect();
            let bags: Vec<Bag> = bags
                .iter()
                .map(|(_, rows)| Bag::new(rows.clone()))
                .collect();
            let expected = detector.analyze(&bags, 100 + i as u64).unwrap().points;
            assert_eq!(got, expected, "stream {name}");
        }
    }

    #[test]
    fn push_waits_deliver_points_before_the_step_returns() {
        let streams = [("a", bags(20, 0)), ("b", bags(20, 5))];
        let sink = Batches::default();
        let mut builder = builder(&streams).sink(sink.clone());
        builder.engine.queue_capacity = 2;
        let mut pipeline = builder.build().unwrap();
        let step = pipeline.step().unwrap();
        assert_eq!(step.bags, 40, "one poll hands over every bag");
        assert!(
            sink.with_points() > 1,
            "points went out while pushes waited for queue space"
        );
        while !pipeline.step().unwrap().done {}
        pipeline.finish().unwrap();
        assert_matches_analyze(&sink.events(), &streams);
    }

    #[test]
    fn the_finish_barrier_delivers_points_while_it_waits() {
        let streams = [("a", bags(20, 0)), ("b", bags(20, 5))];
        let sink = Batches::default();
        let mut pipeline = builder(&streams).sink(sink.clone()).build().unwrap();
        assert_eq!(pipeline.step().unwrap().bags, 40);
        let before = sink.with_points();
        let summary = pipeline.finish().unwrap();
        // Without waits, finish would hand over every point left in one
        // batch, after its barrier.
        assert!(
            sink.with_points() - before > 1,
            "points went out while the barrier waited"
        );
        assert_eq!(summary.points, 2 * (20 - 3 - TAU_PRIME + 1) as u64);
        assert_matches_analyze(&sink.events(), &streams);
    }

    #[test]
    fn strict_mode_delivers_nothing_after_a_stream_error() {
        let mut a = bags(40, 0);
        // A bag of another dimension: the detector rejects it.
        a[20].1 = vec![vec![1.0, 2.0, 3.0]; 30];
        let streams = [("a", a)];
        let sink = Batches::default();
        let mut builder = builder(&streams).strict(true).sink(sink.clone());
        builder.engine.queue_capacity = 2;
        let err = builder.build().unwrap().run().unwrap_err();
        assert!(
            matches!(err, PipelineError::StreamFailed { ref stream, .. } if &**stream == "a"),
            "{err}"
        );
        let events = sink.events();
        assert!(events.iter().all(|e| e.point().is_some()), "{events:?}");
        // Point t is emitted by bag t + τ' − 1: exactly the points of
        // the bags ahead of the rejected one (t = 3..=18) went out.
        let ts: Vec<usize> = events
            .iter()
            .filter_map(|e| e.point())
            .map(|p| p.t)
            .collect();
        assert_eq!(ts, (3..=20 - TAU_PRIME).collect::<Vec<_>>());
    }

    /// Fails its `fail_at`-th delivery (1-based); records every call.
    struct FailingSink {
        calls: Arc<Mutex<Vec<&'static str>>>,
        fail_at: usize,
    }

    impl Sink for FailingSink {
        fn deliver(&mut self, _events: &[Event]) -> std::io::Result<()> {
            let mut calls = self.calls.lock().unwrap();
            calls.push("deliver");
            if calls.iter().filter(|c| **c == "deliver").count() >= self.fail_at {
                return Err(std::io::Error::other("injected failure"));
            }
            Ok(())
        }

        fn flush_durable(&mut self) -> std::io::Result<()> {
            self.calls.lock().unwrap().push("flush");
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_gets_nothing_after_its_failed_batch() {
        let streams = [("a", bags(20, 0)), ("b", bags(20, 5))];
        let calls = Arc::new(Mutex::new(Vec::new()));
        let mut builder = builder(&streams).sink(FailingSink {
            calls: calls.clone(),
            fail_at: 3,
        });
        builder.engine.queue_capacity = 2;
        let err = builder.build().unwrap().run().unwrap_err();
        assert!(matches!(err, PipelineError::Sink(_)), "{err}");
        let calls = calls.lock().unwrap();
        // The build primes the sink with one flush; then two good
        // batches and the failed one, and nothing after it.
        assert_eq!(*calls, ["flush", "deliver", "deliver", "deliver"]);
    }

    /// Refuses every delivery; counts the attempts.
    struct DeadSink(Arc<Mutex<usize>>);

    impl Sink for DeadSink {
        fn deliver(&mut self, _events: &[Event]) -> std::io::Result<()> {
            *self.0.lock().unwrap() += 1;
            Err(std::io::Error::other("sink is down"))
        }

        fn flush_durable(&mut self) -> std::io::Result<()> {
            Ok(())
        }

        fn kind(&self) -> &'static str {
            "dead"
        }
    }

    fn spill_frames(path: &std::path::Path) -> usize {
        let mut frames = 0;
        crate::framed::FrameScanner::open(path, MAGIC, "score log")
            .unwrap()
            .for_each(&mut |_| {
                frames += 1;
                Ok(())
            })
            .unwrap();
        frames
    }

    #[test]
    fn a_degraded_sink_probes_recovery_once_per_step() {
        let dir =
            std::env::temp_dir().join(format!("bagscpd-pipeline-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let streams = [("a", bags(20, 0)), ("b", bags(20, 5))];
        let attempts = Arc::new(Mutex::new(0));
        let healthy = Batches::default();
        let mut builder = builder(&streams)
            .sink(DeadSink(attempts.clone()))
            .sink(healthy.clone())
            .spill_dir(&dir);
        builder.engine.queue_capacity = 2;
        let mut pipeline = builder.build().unwrap();
        let mut steps = 1;
        let _ = pipeline.step().unwrap();
        // The first batch degrades the sink and spends the step's
        // probe; every later batch of the step (the Degraded marker's
        // included) is appended to the spill as it is, without
        // replaying the backlog.
        assert_eq!(*attempts.lock().unwrap(), 1);
        let batches = healthy.0.lock().unwrap().len();
        assert!(batches > 2, "{batches} batches");
        assert_eq!(spill_frames(&dir.join("sink-0-dead.spill")), batches);

        while !pipeline.step().unwrap().done {
            steps += 1;
        }
        steps += 1;
        let summary = pipeline.finish().unwrap();
        assert!(summary.spilled_events > 0);
        // At most one probe per step, plus one per flush: the final
        // commit's and the one after the engine shuts down.
        let attempts = *attempts.lock().unwrap();
        assert!(
            attempts <= steps + 2,
            "{attempts} attempts in {steps} steps"
        );
        assert!(healthy.0.lock().unwrap().len() > steps + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
