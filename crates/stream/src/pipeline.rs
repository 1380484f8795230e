//! The [`Pipeline`] facade: read → detect → deliver → checkpoint as one
//! owned loop.
//!
//! Every online host used to hand-assemble the same four-step dance —
//! build an engine, wrap it in a [`Mux`], poll sources, print events,
//! and re-implement the two-phase durable-checkpoint protocol by
//! convention. The pipeline owns all of it behind a builder:
//!
//! - **sources in** — any [`crate::ingest::Source`] (files, dirs, TCP,
//!   stdin, memory), multiplexed round-robin;
//! - **events out** — one ordered [`Event`] stream, delivered to any
//!   [`Sink`] (CSV, JSONL, stderr diagnostics, tees, memory);
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

use crate::engine::{EngineConfig, StreamEngine};
use crate::event::{Event, QuarantineRecord};
use crate::ingest::{CheckpointPolicy, Mux, MuxConfig, MuxError, Source, StreamCursor};
use crate::scorelog::{ScoreLogReader, ScoreLogSink};
use crate::sink::Sink;
use crate::telemetry::{
    names, Clock, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, MetricsServer,
    NoisyStreams, LATENCY_BUCKETS,
};
use bagcpd::DetectorConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`Pipeline::run`] sleeps between ticks when every source is
/// idle.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Score points per noisiest-stream window: the top-K gauges are
/// republished (and the window reset) every this many points.
const TOPK_WINDOW_POINTS: u64 = 512;

/// How many streams each top-K family keeps per window.
const TOPK_K: usize = 8;

/// Pipeline failure modes.
#[derive(Debug)]
pub enum PipelineError {
    /// Construction failed (bad configuration, unreadable state file).
    Build(String),
    /// The ingestion layer or engine failed (strict-mode data errors
    /// included).
    Mux(MuxError),
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
            PipelineError::Build(why) => write!(f, "{why}"),
            PipelineError::Mux(e) => write!(f, "{e}"),
            PipelineError::Sink(e) => write!(f, "output sink: {e}"),
            PipelineError::StreamFailed { stream, message } => {
                write!(f, "stream '{stream}': {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<MuxError> for PipelineError {
    fn from(e: MuxError) -> Self {
        PipelineError::Mux(e)
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
    /// Bags pushed over the run.
    pub bags: u64,
    /// Checkpoints committed (periodic + final).
    pub checkpoints: u64,
    /// Size of the final checkpoint, if one was written.
    pub checkpoint_bytes: Option<usize>,
    /// Every stream quarantined over the run (most recent, capped at
    /// [`crate::ingest::RETAINED_QUARANTINES`] records).
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
    pub fn source(self, source: impl Source + 'static) -> Self {
        self.source_boxed(Box::new(source))
    }

    /// [`PipelineBuilder::source`] for an already-boxed source.
    pub fn source_boxed(mut self, source: Box<dyn Source>) -> Self {
        self.sources.push(source);
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
    /// (the spill is fsynced before the commit), and every later
    /// delivery or flush probes the sink — on success the backlog
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
        let mux_cfg = MuxConfig {
            policy: self.policy,
            state_path: self.state_path.clone(),
            strict: self.strict,
        };
        let mut restored_state = None;
        let mut mux = match &self.state_path {
            Some(path) if path.exists() => {
                let bytes = std::fs::read(path)
                    .map_err(|e| PipelineError::Build(format!("{}: {e}", path.display())))?;
                let mux = Mux::restore(&bytes, engine_cfg, mux_cfg)
                    .map_err(|e| PipelineError::Build(format!("{}: {e}", path.display())))?;
                restored_state = Some(bytes);
                mux
            }
            _ => {
                let engine = StreamEngine::new(engine_cfg)
                    .map_err(|e| PipelineError::Build(e.to_string()))?;
                Mux::new(engine, mux_cfg)
            }
        };
        mux.set_telemetry(&registry);
        for (stream, seed) in &self.stream_seeds {
            mux.engine_mut()
                .resolve_seeded(stream, *seed)
                .map_err(|e| PipelineError::Build(e.to_string()))?;
        }
        for source in self.sources {
            mux.add_source(source);
        }
        let checkpoint_seconds = registry.histogram(
            names::PIPELINE_CHECKPOINT_SECONDS,
            "Seconds per delivery-acked checkpoint commit",
            LATENCY_BUCKETS,
        );
        let mut pipeline = Pipeline {
            mux,
            egress: Egress::new(self.sinks, self.strict, &registry, self.spill_dir)?,
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
/// [`Pipeline::run`] / [`Pipeline::run_until`] or drive tick-by-tick
/// with [`Pipeline::step`] + [`Pipeline::finish`].
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
    mux: Mux,
    egress: Egress,
    /// The checkpoint bytes the build restored from, if any.
    restored_state: Option<Vec<u8>>,
    registry: MetricsRegistry,
    /// The scrape endpoint, polled from [`Pipeline::step`].
    server: Option<MetricsServer>,
    checkpoint_seconds: Histogram,
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
        self.mux.resume_cursors()
    }

    /// The underlying engine (resolve ids, inspect the master seed, …).
    pub fn engine_mut(&mut self) -> &mut StreamEngine {
        self.mux.engine_mut()
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

    /// One tick: poll every source, push completed bags, deliver every
    /// finished event — and, when the checkpoint policy comes due, run
    /// the delivery-acked commit (barrier-flush the engine, deliver,
    /// `flush_durable` every sink, only then write the checkpoint).
    ///
    /// # Errors
    /// Source/engine/state failures ([`PipelineError::Mux`]), sink I/O
    /// failures ([`PipelineError::Sink`] — the pending checkpoint is
    /// *not* committed), or, in strict mode, the first stream failure.
    pub fn step(&mut self) -> Result<StepReport, PipelineError> {
        if let Some(server) = &mut self.server {
            server.poll();
        }
        let report = self.mux.tick()?;
        let events = self.mux.drain_events();
        self.egress.deliver(&events)?;
        if report.checkpoint_due {
            let t0 = self.egress.clock.now_ns();
            let events = self.mux.flush_events()?;
            self.egress.deliver(&events)?;
            self.egress.flush()?;
            self.mux.checkpoint_now()?;
            // Announce the commit through the same stream.
            let events = self.mux.drain_events();
            self.egress.deliver(&events)?;
            self.checkpoint_seconds
                .observe_ns(self.egress.clock.now_ns().saturating_sub(t0));
        }
        Ok(StepReport {
            bags: report.bags,
            done: report.done,
            idle: report.idle,
        })
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

    /// As [`Pipeline::run`], but return control at `deadline` instead
    /// of finishing; returns whether the sources are exhausted. Call
    /// again to keep going, or [`Pipeline::finish`] to wind down (which
    /// a drained pipeline still needs, for the final events and
    /// checkpoint).
    ///
    /// # Errors
    /// As [`Pipeline::step`].
    pub fn run_until(&mut self, deadline: Instant) -> Result<bool, PipelineError> {
        loop {
            let step = self.step()?;
            if step.done {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if step.idle {
                std::thread::sleep(
                    IDLE_SLEEP.min(deadline.saturating_duration_since(Instant::now())),
                );
            }
        }
    }

    /// Wind down: barrier-flush the engine, deliver everything, flush
    /// the sinks durably, and only then let the mux write its final
    /// checkpoint (non-checkpointing runs complete trailing bags here
    /// instead). The final events — including the closing
    /// [`Event::CheckpointWritten`] — go through the sinks too.
    ///
    /// # Errors
    /// As [`Pipeline::step`]; a sink failure leaves the final
    /// checkpoint unwritten, so a resumed session replays the
    /// undelivered tail.
    pub fn finish(self) -> Result<PipelineSummary, PipelineError> {
        let Pipeline {
            mut mux,
            mut egress,
            registry,
            ..
        } = self;
        // Deliver everything already evaluated and make it durable
        // before the final checkpoint can cover it.
        let events = mux.flush_events()?;
        egress.deliver(&events)?;
        egress.flush()?;
        let finish = mux.finish()?;
        egress.deliver(&finish.events)?;
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
            bags: finish.bags_pushed,
            checkpoints: finish.checkpoints_written,
            checkpoint_bytes: finish.checkpoint_bytes,
            quarantined: finish.quarantined,
            quarantined_total: finish.quarantined_total,
            spilled_events: egress.spilled_remaining(),
            metrics: registry.snapshot(),
        })
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
        for idx in 0..self.stations.len() {
            self.station_deliver(idx, deliverable)?;
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

    /// One station's share of a batch: recover-then-deliver when
    /// degraded (spilling on continued refusal), plain delivery when
    /// healthy (degrading on failure if a spill directory exists).
    fn station_deliver(&mut self, idx: usize, events: &[Event]) -> Result<(), PipelineError> {
        if self.stations[idx].spill.is_some() && !self.try_recover(idx)? {
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
