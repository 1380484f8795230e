//! Egress: where the pipeline's [`Event`] stream leaves the process.
//!
//! A [`Sink`] is the mirror image of [`crate::ingest::Source`]: the
//! pipeline hands it batches of completed events with
//! [`Sink::deliver`], and asks it to make everything delivered so far
//! *durable* with [`Sink::flush_durable`] before a checkpoint commits.
//! That ordering — deliver, flush durably, only then write the
//! checkpoint — is what turns the ROADMAP's crash-safety invariant ("a
//! committed checkpoint never covers undelivered output") from a CLI
//! convention into a library guarantee: [`crate::Pipeline`] refuses to
//! commit a checkpoint when either call fails, so a `kill -9` at any
//! instant loses nothing and a sink I/O error can never strand scores
//! that the resumed session would skip.
//!
//! Implementations:
//!
//! - [`CsvSink`] — the one canonical CSV schema
//!   (`stream,t,score,ci_lo,ci_up,xi,alert`) with explicit, documented
//!   elision options for single-stream mode and the legacy stdout
//!   format.
//! - [`JsonLinesSink`] — one JSON object per event (every variant, not
//!   just points); hand-rolled, no dependencies.
//! - [`StderrAlertSink`] — the CLI's stderr diagnostics (ALERT lines,
//!   warnings, quarantine reports, notes, checkpoint sizes), with an
//!   optional repeat-warning rate limit.
//! - [`Tee`] — deliver to two sinks; both always see every batch, and
//!   the first error is reported after both ran.
//! - [`MemorySink`] — collect events in memory behind a shared handle
//!   (tests, embedding hosts).
//! - [`RetryingSink`] — wrap any sink with a [`RetryPolicy`]: bounded
//!   exponential backoff with deterministic jitter for transient I/O
//!   errors.
//!
//! Degraded-mode egress spills a refusing sink's backlog to a
//! [`crate::ScoreLogSink`] (see the fault-tolerance notes on
//! [`crate::PipelineBuilder::spill_dir`]).

mod alert;
mod csv;
mod json;
mod retry;

pub use alert::StderrAlertSink;
pub use csv::{CsvSchema, CsvSink};
pub use json::JsonLinesSink;
pub use retry::{RetryPolicy, RetryingSink};

use crate::event::Event;
use std::io;
use std::sync::{Arc, Mutex};

/// A delivery target for the pipeline's event stream.
///
/// The contract mirrors [`crate::ingest::Source`]:
///
/// - [`Sink::deliver`] hands over a batch of events in order. A sink
///   may buffer; an `Err` means the batch was **not** fully accepted
///   and the pipeline must not checkpoint past it.
/// - [`Sink::flush_durable`] pushes everything delivered so far to its
///   durable destination (flush the file, the socket, …). A checkpoint
///   is committed only after this returns `Ok` — so on resume, the
///   events the checkpoint covers are exactly the events the sink has
///   durably accepted.
pub trait Sink {
    /// Deliver a batch of events, in order.
    ///
    /// # Errors
    /// Any I/O failure; the pipeline treats the batch as undelivered
    /// (it will be recomputed on resume) and aborts without committing
    /// a checkpoint over it.
    fn deliver(&mut self, events: &[Event]) -> io::Result<()>;

    /// Make everything delivered so far durable.
    ///
    /// # Errors
    /// Any I/O failure; a pending checkpoint is not committed.
    fn flush_durable(&mut self) -> io::Result<()>;

    /// A short static label naming the sink type — the `sink` label on
    /// the pipeline's per-sink delivery metrics.
    fn kind(&self) -> &'static str {
        "sink"
    }
}

impl Sink for Box<dyn Sink> {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        (**self).deliver(events)
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        (**self).flush_durable()
    }

    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// Deliver every event to two sinks. Both sinks see every batch even
/// when one fails — a fault in `a` must not starve `b` — and the first
/// error is reported once both have run. The pipeline then treats the
/// batch as undelivered for checkpoint purposes, which is the
/// conservative choice: re-delivery on resume may duplicate events into
/// the sink that had already accepted them, but never lose any.
pub struct Tee<A, B> {
    a: A,
    b: B,
}

impl<A: Sink, B: Sink> Tee<A, B> {
    /// Fan events out to `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: Sink, B: Sink> Sink for Tee<A, B> {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        let a = self.a.deliver(events);
        let b = self.b.deliver(events);
        a.and(b)
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        let a = self.a.flush_durable();
        let b = self.b.flush_durable();
        a.and(b)
    }

    fn kind(&self) -> &'static str {
        "tee"
    }
}

/// An in-memory sink behind a cheaply clonable handle: hand one clone
/// to the pipeline, keep another to read what was delivered. Used by
/// tests and by hosts that consume scores in-process.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Snapshot of everything delivered so far.
    ///
    /// Poisoning is ignored: the buffer is a plain `Vec` of delivered
    /// events, so a panicking writer cannot leave it half-updated.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Take everything delivered so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(
            &mut *self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

impl Sink for MemorySink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(events);
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}
