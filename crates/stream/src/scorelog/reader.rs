//! Reading side: stream a score log back as [`Event`]s — the one read
//! path every score-log consumer (replay, diff, query, spill recovery)
//! goes through.

use super::format::{Decoder, MAGIC};
use crate::event::Event;
use crate::framed::FrameScanner;
use std::io;
use std::path::Path;

/// Sequential reader over a score log: decodes frames in append order
/// and hands back the recorded events. Opens the file read-only, so it
/// is safe to point at the log of a *live* recording session — a torn
/// final frame (a writer mid-append) ends the scan cleanly instead of
/// erroring or truncating.
pub struct ScoreLogReader;

impl ScoreLogReader {
    /// Visit every recorded event in order without materializing the
    /// whole log. The callback's `io::Result` aborts the scan on `Err`.
    ///
    /// # Errors
    /// I/O failure, a file that is not a score log, or an undecodable
    /// (but checksum-valid) frame — which means a format skew, not a
    /// torn write, so it is reported rather than skipped.
    pub fn for_each(path: &Path, f: &mut dyn FnMut(&Event) -> io::Result<()>) -> io::Result<()> {
        let mut scanner = FrameScanner::open(path, MAGIC, "score log")?;
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        scanner.for_each(&mut |payload| {
            if !dec.decode_into(payload, &mut events) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("undecodable frame in {}", path.display()),
                ));
            }
            for event in &events {
                f(event)?;
            }
            events.clear();
            Ok(())
        })
    }

    /// Read the whole log into memory, in append order.
    ///
    /// # Errors
    /// As [`ScoreLogReader::for_each`].
    pub fn read_all(path: &Path) -> io::Result<Vec<Event>> {
        let mut out = Vec::new();
        ScoreLogReader::for_each(path, &mut |event| {
            out.push(event.clone());
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorelog::ScoreLogSink;
    use crate::sink::Sink;
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::sync::Arc;

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-scorelog-reader-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reader_returns_events_in_append_order() {
        let path = tempdir().join("scores.slog");
        let _ = std::fs::remove_file(&path);
        let mut sink = ScoreLogSink::open(&path).unwrap();
        let mut expect = Vec::new();
        for t in 0..5 {
            let batch = vec![
                Event::Point {
                    stream: Arc::from("a"),
                    point: ScorePoint {
                        t,
                        score: t as f64,
                        ci: ConfidenceInterval { lo: 0.0, up: 1.0 },
                        xi: None,
                        alert: false,
                    },
                },
                Event::Note(format!("batch {t}")),
            ];
            sink.deliver(&batch).unwrap();
            expect.extend(batch);
        }
        sink.flush_durable().unwrap();
        assert_eq!(ScoreLogReader::read_all(&path).unwrap(), expect);
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = ScoreLogReader::read_all(&tempdir().join("nope.slog")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
