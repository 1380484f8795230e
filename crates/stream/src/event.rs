//! The engine's unified output stream: one typed [`Event`] enum.
//!
//! Everything a host can observe — completed score points, per-bag
//! detector errors, stream quarantines, operational notes, committed
//! checkpoints — arrives through one ordered event stream, which
//! [`crate::Pipeline`] gathers from its sources and
//! [`crate::StreamEngine::drain_events`] and delivers to every
//! [`crate::sink::Sink`].

use crate::ingest::source::SourceError;
use bagcpd::ScorePoint;
use std::sync::Arc;

/// A stream taken out of service by its source (malformed row,
/// backwards timestamp, I/O failure, oversized line, …). The stream
/// stops; its siblings and the process keep running.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The quarantined stream.
    pub stream: Arc<str>,
    /// What happened.
    pub error: SourceError,
}

/// How a live score compared against a recorded one during a replay
/// `--diff` session (see [`crate::scorelog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Bit-identical scores.
    Equal,
    /// Not bit-identical, but within the session's epsilon (how a
    /// solver change that moves floating-point rounding is pinned).
    WithinEps,
    /// Outside epsilon — a regression (or an intentional change).
    Diverged,
}

/// One output of the detection pipeline, in delivery order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed inspection point (its `alert` flag is the paper's
    /// Eq. 18 decision).
    Point {
        /// Stream name (shared with the worker's shard map — cheap to
        /// clone per event).
        stream: Arc<str>,
        /// The completed score point.
        point: ScorePoint,
    },
    /// A bag was rejected (e.g. dimension mismatch); the stream keeps
    /// running with the offending bag dropped. Strict hosts abort on
    /// this instead of delivering it.
    StreamError {
        /// Stream name.
        stream: Arc<str>,
        /// Human-readable failure description.
        message: String,
    },
    /// A stream was quarantined at its source: fatal input for that
    /// stream only, every other stream keeps flowing.
    Quarantine(QuarantineRecord),
    /// A human-readable operational note (input rotation detected,
    /// refused stream, dropped source, …).
    Note(String),
    /// A checkpoint was committed durably. Emitted *after* the write —
    /// and, under [`crate::Pipeline`], only after every event the
    /// checkpoint covers was delivered and `flush_durable` succeeded.
    CheckpointWritten {
        /// Size of the checkpoint file in bytes.
        bytes: usize,
        /// Total bags pushed when the checkpoint was taken.
        bags: u64,
    },
    /// A sink exhausted its delivery attempts and the pipeline entered
    /// degraded mode for it: its events now spill to a durable
    /// append-only log instead of aborting the run. Delivered through
    /// the surviving sinks (the degraded one is, by definition, not
    /// listening).
    Degraded {
        /// The degraded sink's kind label.
        sink: String,
        /// The error that exhausted the delivery attempts.
        reason: String,
    },
    /// A degraded sink accepted its spilled backlog — replayed in
    /// order, ahead of any new delivery — and rejoined the pipeline.
    Recovered {
        /// The recovered sink's kind label.
        sink: String,
        /// Events replayed from the spill log.
        replayed: u64,
    },
    /// A replay `--diff` session compared one live score point against
    /// the recorded score log (see [`crate::scorelog`]). Emitted once
    /// per matched `(stream, t)`, interleaved with the live points.
    ReplayDiff {
        /// Stream name.
        stream: Arc<str>,
        /// The inspection point (0-based bag ordinal, as in the log).
        t: usize,
        /// The score the live session computed.
        live: f64,
        /// The score the log recorded.
        recorded: f64,
        /// The comparison verdict.
        outcome: DiffOutcome,
    },
}

impl Event {
    /// The stream this event belongs to, if it is stream-scoped
    /// ([`Event::Note`] and [`Event::CheckpointWritten`] are not).
    pub fn stream(&self) -> Option<&str> {
        match self {
            Event::Point { stream, .. }
            | Event::StreamError { stream, .. }
            | Event::ReplayDiff { stream, .. } => Some(stream),
            Event::Quarantine(record) => Some(&record.stream),
            Event::Note(_)
            | Event::CheckpointWritten { .. }
            | Event::Degraded { .. }
            | Event::Recovered { .. } => None,
        }
    }

    /// Whether this is a score point with its alert flag raised.
    pub fn is_alert(&self) -> bool {
        matches!(
            self,
            Event::Point { point, .. } if point.alert
        )
    }

    /// The score point, if this is a point event.
    pub fn point(&self) -> Option<&ScorePoint> {
        match self {
            Event::Point { point, .. } => Some(point),
            _ => None,
        }
    }
}
