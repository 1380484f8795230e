//! In-memory source: feed already-assembled bags through the pipeline.

use super::source::{Source, SourceError, SourceItem, SourceStatus};
use std::collections::VecDeque;
use std::sync::Arc;

/// Bags handed to the pipeline per poll, so a huge in-memory backlog still
/// interleaves fairly with live sources and the engine's queues.
const BAGS_PER_POLL: usize = 64;

/// A [`Source`] over bags that already live in memory — the batch
/// mode's front-end, and the natural entry point for hosts that
/// assemble observations themselves instead of parsing CSV.
///
/// The data is final by construction, so there is no resume cursor and
/// no hold-back: every queued bag is emitted (in order, chunked per
/// poll) and the source reports `Done`.
pub struct MemorySource {
    origin: String,
    queue: VecDeque<SourceItem>,
}

impl MemorySource {
    /// An empty source (fill it with [`MemorySource::push_bag`]).
    pub fn new(origin: impl Into<String>) -> Self {
        MemorySource {
            origin: origin.into(),
            queue: VecDeque::new(),
        }
    }

    /// One stream's complete bag sequence, in push order. Times only
    /// label the bags (scores use the 0-based ordinal, as everywhere).
    pub fn bags(
        stream: impl AsRef<str>,
        bags: impl IntoIterator<Item = (i64, Vec<Vec<f64>>)>,
    ) -> Self {
        let name: Arc<str> = Arc::from(stream.as_ref());
        let mut src = MemorySource::new(format!("memory://{name}"));
        for (time, rows) in bags {
            src.push(&name, time, rows);
        }
        src
    }

    /// Queue one bag for `stream`. Empty row lists are ignored (a bag
    /// has at least one member by definition).
    pub fn push_bag(&mut self, stream: impl AsRef<str>, time: i64, rows: Vec<Vec<f64>>) {
        self.push(&Arc::from(stream.as_ref()), time, rows);
    }

    fn push(&mut self, stream: &Arc<str>, time: i64, rows: Vec<Vec<f64>>) {
        if !rows.is_empty() {
            self.queue.push_back(SourceItem::Bag {
                stream: stream.clone(),
                time,
                rows,
            });
        }
    }

    /// Bags still queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether every bag has been handed over.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl Source for MemorySource {
    fn origin(&self) -> &str {
        &self.origin
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        if self.queue.is_empty() {
            return Ok(SourceStatus::Done);
        }
        out.extend(self.queue.drain(..BAGS_PER_POLL.min(self.queue.len())));
        Ok(SourceStatus::Active)
    }
}
