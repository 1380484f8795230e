//! Recording side: a [`Sink`] that appends every event to a score log.

use super::format::{Decoder, Encoder, MAGIC};
use crate::event::Event;
use crate::framed::FramedLog;
use crate::sink::Sink;
use crate::snapshot::Writer;
use crate::telemetry::{names, Counter, MetricsRegistry};
use std::io;
use std::path::Path;

/// Durable append-only binary log of the pipeline's event stream: every
/// variant is recorded (not just points, unlike the CSV sink), stream
/// names are interned and numbers stay binary, so a point record costs
/// ~a few dozen bytes.
///
/// Crash safety: each delivered batch is one checksummed frame, a torn
/// tail from a crashed writer is truncated on reopen, and
/// [`Sink::flush_durable`] fsyncs — so under the pipeline's
/// two-phase checkpoint contract a committed checkpoint never covers a
/// record the log could lose. The flip side of that contract is that a
/// resumed session re-delivers the uncheckpointed tail, so a log that
/// lived through a `kill -9` may hold duplicate `(stream, t)` records —
/// bit-identical by the determinism guarantee; readers
/// ([`super::ScoreStore`], [`super::ReplayDiffSink`]) dedup on id.
///
/// The same sink is degraded-mode egress's spill file (see
/// [`crate::PipelineBuilder::spill_dir`]): a refusing sink's backlog is
/// delivered here, read back with [`super::ScoreLogReader::read_all`]
/// on recovery, and dropped with [`ScoreLogSink::clear`].
pub struct ScoreLogSink {
    log: FramedLog,
    enc: Encoder,
    /// Frame payload buffer, reused by every batch.
    buf: Writer,
    /// Events recorded over the log's lifetime (survives reopen).
    events: u64,
    metrics: Option<Metrics>,
}

struct Metrics {
    records: Counter,
    bytes: Counter,
}

impl ScoreLogSink {
    /// Open (or create) the score log at `path`, scanning any existing
    /// content to restore the stream-name intern table and truncate a
    /// torn tail.
    ///
    /// # Errors
    /// I/O failure, or an existing file that is not a score log.
    pub fn open(path: &Path) -> io::Result<ScoreLogSink> {
        let mut dec = Decoder::new();
        let mut events = 0u64;
        let mut scratch = Vec::new();
        let log = FramedLog::open(path, MAGIC, "score log", &mut |payload| {
            if dec.decode_into(payload, &mut scratch) {
                events += scratch.len() as u64;
                scratch.clear();
                true
            } else {
                false
            }
        })?;
        Ok(ScoreLogSink {
            log,
            enc: Encoder::restore(dec.names()),
            buf: Writer::new(),
            events,
            metrics: None,
        })
    }

    /// Report recorded-event and written-byte counts to `registry`
    /// ([`names::SCORELOG_RECORDS`], [`names::SCORELOG_BYTES`]).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> ScoreLogSink {
        self.metrics = Some(Metrics {
            records: registry.counter(names::SCORELOG_RECORDS, "Events recorded to the score log"),
            bytes: registry.counter(
                names::SCORELOG_BYTES,
                "Bytes appended to the score log (frame headers included)",
            ),
        });
        self
    }

    /// Events recorded over the log's lifetime, including any found on
    /// disk when the log was reopened.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Drop every recorded event: truncate the file back to its magic,
    /// sync, and forget the stream-name intern table along with the
    /// event count — the next batch defines its streams afresh, so a
    /// reopen decodes it.
    ///
    /// # Errors
    /// I/O failure.
    pub fn clear(&mut self) -> io::Result<()> {
        self.log.clear()?;
        self.enc = Encoder::new();
        self.events = 0;
        Ok(())
    }
}

impl Sink for ScoreLogSink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.enc.encode_batch(events, &mut self.buf);
        let written = self.log.append(self.buf.as_bytes())?;
        self.events += events.len() as u64;
        if let Some(m) = &self.metrics {
            m.records.add(events.len() as u64);
            m.bytes.add(written);
        }
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    fn kind(&self) -> &'static str {
        "scorelog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DiffOutcome;
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::sync::Arc;

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-scorelog-sink-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(stream: &str, t: usize, score: f64) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score - 1.0,
                    up: score + 1.0,
                },
                xi: None,
                alert: false,
            },
        }
    }

    #[test]
    fn reopened_sink_appends_without_redefining_streams() {
        let path = tempdir().join("scores.slog");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = ScoreLogSink::open(&path).unwrap();
            sink.deliver(&[point("a", 0, 1.0), point("b", 0, 2.0)])
                .unwrap();
            sink.flush_durable().unwrap();
            assert_eq!(sink.events(), 2);
        }
        {
            let mut sink = ScoreLogSink::open(&path).unwrap();
            assert_eq!(sink.events(), 2, "reopen counts existing events");
            sink.deliver(&[point("b", 1, 3.0)]).unwrap();
            sink.flush_durable().unwrap();
            assert_eq!(sink.events(), 3);
        }
        let events = super::super::ScoreLogReader::read_all(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], point("b", 1, 3.0));
    }

    #[test]
    fn clear_forgets_the_intern_table_with_the_events() {
        let path = tempdir().join("cleared.slog");
        let _ = std::fs::remove_file(&path);
        let mut sink = ScoreLogSink::open(&path).unwrap();
        sink.deliver(&[point("a", 0, 1.0), point("b", 0, 2.0)])
            .unwrap();
        sink.clear().unwrap();
        assert_eq!(sink.path(), path.as_path());
        assert_eq!(ScoreLogSink::open(&path).unwrap().events(), 0);

        // "b" was defined before the clear; the batch after it must
        // define the name again, or a reopen would truncate its record
        // as a torn tail.
        let after = [point("b", 1, 3.0), point("c", 1, 4.0)];
        sink.deliver(&after).unwrap();
        sink.flush_durable().unwrap();
        assert_eq!(sink.events(), 2);
        assert_eq!(ScoreLogSink::open(&path).unwrap().events(), 2);
        let events = super::super::ScoreLogReader::read_all(&path).unwrap();
        assert_eq!(events, after);
    }

    #[test]
    fn metrics_count_records_and_bytes() {
        let path = tempdir().join("metrics.slog");
        let _ = std::fs::remove_file(&path);
        let registry = MetricsRegistry::new();
        let mut sink = ScoreLogSink::open(&path).unwrap().with_metrics(&registry);
        sink.deliver(&[
            point("a", 0, 1.0),
            Event::ReplayDiff {
                stream: Arc::from("a"),
                t: 0,
                live: 1.0,
                recorded: 1.0,
                outcome: DiffOutcome::Equal,
            },
        ])
        .unwrap();
        let snapshot = registry.snapshot();
        let records = snapshot
            .iter()
            .find(|s| s.key == names::SCORELOG_RECORDS)
            .expect("records counter");
        assert_eq!(records.value, 2.0);
        let bytes = snapshot
            .iter()
            .find(|s| s.key == names::SCORELOG_BYTES)
            .expect("bytes counter");
        assert!(bytes.value > 0.0);
    }
}
