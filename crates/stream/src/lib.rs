//! Online multi-stream change-point detection engine.
//!
//! The batch pipeline in `bagcpd` answers "where did this recorded
//! sequence change?". This crate turns it into a *runtime*: bags arrive
//! one at a time on thousands of independent named streams, alerts come
//! out as soon as the paper's test window completes, and the whole
//! engine can checkpoint to bytes and resume after a restart.
//!
//! The layers, bottom up:
//!
//! - [`OnlineDetector`] — a single stream. `push_with(bag, ..)` costs
//!   one signature build plus at most `tau + tau' - 1` EMD solves (each
//!   pair is solved once and reused by every inspection point that
//!   needs it, via [`cache::SignatureWindow`]); memory stays bounded by
//!   the window width, and the caller's [`EmdScratch`] and
//!   `bagcpd::EvalScratch` make a warm push allocation-free. Emitted
//!   points are **bit-identical** to `bagcpd::Detector::analyze` on the
//!   same sequence.
//! - [`StreamEngine`] — a fixed pool of worker threads serving many
//!   named streams behind bounded queues (backpressure, not unbounded
//!   buffering), with per-tick batched evaluation. The [`Pipeline`]
//!   drives it: stream names are interned to dense ids — resolved
//!   once, then pushed by id with no per-push allocation, hashing, or
//!   map lookup — and each worker evaluates its whole tick through one
//!   shared bootstrap scratch instead of per-point buffers. Outside the
//!   crate only its checkpoint calls ([`StreamEngine::restore`],
//!   [`StreamEngine::snapshot`], [`StreamEngine::shutdown`]) are
//!   public.
//! - [`snapshot`] — a versioned binary checkpoint format storing every
//!   stream's state; restoring yields outputs bit-identical to an
//!   engine that never stopped.
//! - [`ingest`] — [`Source`]s (CSV files, directories, pipes, TCP,
//!   memory) with per-stream resume cursors, and the `cursors + engine
//!   snapshot` checkpoint format.
//! - [`sink`] — [`Sink`]s (CSV, stderr diagnostics, tees, memory,
//!   retries) receiving everything the session observes as one typed
//!   [`Event`] stream.
//! - [`scorelog`] — a durable binary record of the event stream
//!   ([`ScoreLogSink`]), replayable and diffable against a fresh run
//!   ([`ReplayDiffSink`]) and summarized or filtered in one pass
//!   ([`ScoreStore`]); built on the checksummed append-only framing in
//!   [`framed`] and the [`snapshot`] byte codec. Degraded-mode egress
//!   spills to the same format.
//! - [`Pipeline`] — the one session driver, owning the whole
//!   read→detect→deliver→checkpoint loop: it polls the sources
//!   round-robin, routes their bags into the engine, quarantines
//!   failing streams instead of aborting, and commits delivery-acked
//!   checkpoints — a checkpoint commits only after every event it
//!   covers was delivered and every sink flushed durably.
//! - [`telemetry`] — a lock-cheap [`MetricsRegistry`] of counters,
//!   gauges, and latency histograms wired through every layer above
//!   (engine, ingest, solvers, pipeline) without touching the
//!   allocation-free hot path, rendered as Prometheus text exposition
//!   and scraped live from a [`MetricsServer`].
//! - [`testkit`] — deterministic fault injection ([`testkit::ChaosSink`],
//!   [`testkit::ChaosSource`]) for exercising the fault-domain layer
//!   ([`RetryingSink`], [`PipelineBuilder::spill_dir`] degraded mode)
//!   without real failures, clocks, or sleeps.
//!
//! ```
//! use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, SignatureMethod};
//! use stream::{EmdScratch, OnlineDetector};
//!
//! let detector = Detector::new(DetectorConfig {
//!     tau: 4,
//!     tau_prime: 3,
//!     signature: SignatureMethod::Histogram { width: 0.5 },
//!     bootstrap: BootstrapConfig { replicates: 64, ..Default::default() },
//!     ..Default::default()
//! })
//! .unwrap();
//! let mut online = OnlineDetector::new(detector, 7);
//! // One pair of scratches across every bag, as an engine worker keeps
//! // them across every stream it serves.
//! let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
//! for t in 0..20 {
//!     let level = if t < 10 { 0.0 } else { 8.0 };
//!     let bag = Bag::from_scalars((0..30).map(|i| level + (i % 7) as f64 * 0.1));
//!     if let Some(point) = online.push_with(bag, &mut eval, &mut emd).unwrap() {
//!         println!("t={} score={:.3} alert={}", point.t, point.score, point.alert);
//!     }
//! }
//! ```

pub mod cache;
pub mod engine;
pub mod event;
pub mod framed;
pub mod hash;
pub mod ingest;
pub mod online;
pub mod pipeline;
pub mod scorelog;
pub mod sink;
pub mod snapshot;
pub mod telemetry;
pub mod testkit;
mod worker;

pub use cache::{EmdScratch, SignatureWindow};
pub use engine::{EngineConfig, EngineError, StreamEngine};
pub use event::{DiffOutcome, Event, QuarantineRecord};
pub use ingest::{CheckpointPolicy, Source, SourceStatus};
pub use online::{OnlineDetector, OnlineState};
pub use pipeline::{
    Pipeline, PipelineBuilder, PipelineError, PipelineSummary, StepReport, RETAINED_QUARANTINES,
};
pub use scorelog::{
    DiffSummary, DiffTracker, Query, QueryRow, ReplayDiffSink, ScoreLogReader, ScoreLogSink,
    ScoreStore, StreamSummary,
};
pub use sink::{CsvSchema, CsvSink, MemorySink, RetryingSink, Sink, StderrAlertSink, Tee};
pub use snapshot::SnapshotError;
pub use telemetry::{
    Clock, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, MetricsServer, SolveTimer,
};

/// The seed a stream named `stream` runs under inside an engine with
/// the given master seed (unless the host overrode it via
/// [`PipelineBuilder::stream_seed`]). Public so offline tooling can
/// reproduce any engine stream with a standalone [`OnlineDetector`].
pub fn derive_stream_seed(master_seed: u64, stream: &str) -> u64 {
    worker::stream_seed(master_seed, stream)
}
