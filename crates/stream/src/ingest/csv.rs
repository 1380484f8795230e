//! CSV-backed sources: an incrementally tailed file with
//! content-addressed resume ([`CsvFileSource`]) and a reader-backed
//! source for stdin or any other reader ([`ThreadedLineSource`]).

use super::source::{BagAssembler, Source, SourceError, SourceItem, SourceStatus, StreamCursor};
use crate::hash::Fnv1a;
use crate::telemetry::{names, MetricsRegistry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::sync::Arc;

/// Lines a file source consumes per poll before yielding, so one deep
/// backlog cannot starve its siblings in a round-robin drain.
const LINES_PER_POLL: usize = 512;

/// Shared help text for the cross-source parsed-row counter. Every
/// registration site must use the same string: the registry keeps the
/// help of the first registration.
pub(crate) const ROWS_HELP: &str = "Data rows parsed across all sources";

/// One CSV file feeding one stream, read incrementally with the
/// checkpoint semantics of the original CLI follow mode:
///
/// - **content-addressed resume** — the cursor records the consumed
///   byte count and an FNV-1a hash of those bytes; re-opening the same
///   (possibly grown) file continues exactly after them, while a
///   rotated or rewritten file is detected by the hash and read from
///   the top with already-pushed times skipped;
/// - **hold-back** — a completed line is only ever consumed whole: a
///   trailing fragment with no newline is neither parsed, hashed, nor
///   counted (the producer may still be writing it), and the trailing
///   bag is completed only by [`Source::finish`] — which the pipeline calls
///   solely on non-checkpointing runs, where EOF proves the data final.
pub struct CsvFileSource {
    path: String,
    assembler: BagAssembler,
    reader: Option<BufReader<std::fs::File>>,
    hasher: Fnv1a,
    consumed: u64,
    lineno: usize,
    /// Adopted checkpoint cursor, applied when the file is opened.
    resume: Option<StreamCursor>,
    /// Keep polling after EOF (the file may grow) instead of `Done`.
    tail: bool,
    /// A non-tailed file reached EOF: its reader is closed and every
    /// later poll is `Done` (re-opening would re-read from byte 0).
    exhausted: bool,
    /// Partially read line (no newline yet) — not consumed, not hashed,
    /// and not yet checked for UTF-8: the producer may have flushed only
    /// part of a multi-byte character.
    partial: Vec<u8>,
    line: Vec<u8>,
    quarantined: bool,
}

impl CsvFileSource {
    /// Source for `path`, feeding the stream named `stream`.
    ///
    /// `tail` keeps the source alive at EOF so a growing file keeps
    /// feeding (a watch/serve session) instead of reporting `Done`.
    pub fn new(path: impl Into<String>, stream: impl Into<String>, tail: bool) -> Self {
        let path = path.into();
        CsvFileSource {
            assembler: BagAssembler::new(Arc::from(stream.into().as_str()), true),
            path,
            reader: None,
            hasher: Fnv1a::new(),
            consumed: 0,
            lineno: 0,
            resume: None,
            tail,
            exhausted: false,
            partial: Vec::new(),
            line: Vec::new(),
            quarantined: false,
        }
    }

    /// The stream this source feeds.
    pub fn stream(&self) -> &Arc<str> {
        self.assembler.stream()
    }

    /// Whether the file is open (its descriptor held) right now.
    pub(super) fn is_open(&self) -> bool {
        self.reader.is_some()
    }

    /// Whether the next poll would open the file: it is closed, yet
    /// neither drained nor quarantined.
    pub(super) fn awaits_open(&self) -> bool {
        self.reader.is_none() && !self.exhausted && !self.quarantined
    }

    /// Open the file, replaying the content-addressed resume protocol:
    /// hash the first `cursor.consumed` bytes; a match continues after
    /// them, a mismatch (or short file) re-reads from the top in
    /// rotated mode.
    fn open(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        let file = std::fs::File::open(&self.path)
            .map_err(|e| SourceError::Io(format!("{}: {e}", self.path)))?;
        let mut reader = BufReader::new(file);
        // The stashed cursor is only consumed once the open fully
        // succeeds; a failure part-way keeps it for the next attempt
        // (and for faithful carry-forward by `cursors()`).
        let cursor = self.resume.clone();
        if let Some(cursor) = cursor {
            if cursor.consumed > 0 {
                let mut hasher = Fnv1a::new();
                let mut left = cursor.consumed;
                let mut prefix_lines = 0usize;
                let mut buf = [0u8; 8192];
                while left > 0 {
                    let want = left.min(buf.len() as u64) as usize;
                    let n = reader
                        .read(&mut buf[..want])
                        .map_err(|e| SourceError::Io(format!("{}: {e}", self.path)))?;
                    if n == 0 {
                        break;
                    }
                    hasher.update(&buf[..n]);
                    prefix_lines += buf[..n].iter().filter(|&&b| b == b'\n').count();
                    left -= n as u64;
                }
                if left == 0 && hasher.finish() == cursor.prefix_hash {
                    // Same file: continue right after the consumed prefix.
                    self.hasher = hasher;
                    self.consumed = cursor.consumed;
                    self.lineno = prefix_lines;
                    self.assembler.restore_cursor(&cursor, false);
                    self.reader = Some(reader);
                    self.resume = None;
                    return Ok(());
                }
                // Rotated or rewritten: read from byte 0, fresh hash.
                out.push(SourceItem::Note(format!(
                    "note: {} is not the checkpointed input (rotated or rewritten?); reading \
                     from the top — already-pushed times are skipped and rows for the pending \
                     bag are treated as its continuation",
                    self.path
                )));
                let file = std::fs::File::open(&self.path)
                    .map_err(|e| SourceError::Io(format!("{}: {e}", self.path)))?;
                reader = BufReader::new(file);
                self.assembler.restore_cursor(&cursor, true);
            } else {
                // No byte position (a stdin-written cursor, say): treat
                // the input as rotated so history is skipped by time.
                self.assembler.restore_cursor(&cursor, true);
            }
        }
        self.reader = Some(reader);
        self.resume = None;
        Ok(())
    }

    /// Feed one completed line (with its newline) through the
    /// assembler. The content address advances only on success: a
    /// quarantining row is left *outside* the cursor, so a resumed
    /// session re-reads it, hits the same error, and quarantines the
    /// stream again — deterministically matching an uninterrupted run
    /// instead of silently reviving the stream past the poison row.
    fn consume_line(&mut self, line: &str, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        let lineno = self.lineno;
        self.lineno += 1;
        let r = self.assembler.line(line, lineno, &self.path, out);
        if r.is_ok() {
            self.hasher.update(line.as_bytes());
            self.consumed += line.len() as u64;
        }
        r
    }

    /// Read up to [`LINES_PER_POLL`] lines: the body of
    /// [`Source::poll`], which releases the reader when this fails.
    fn read_lines(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        if self.quarantined || self.exhausted {
            return Ok(SourceStatus::Done);
        }
        if self.reader.is_none() {
            self.open(out)?;
        }
        let mut read_any = false;
        for _ in 0..LINES_PER_POLL {
            self.line.clear();
            let Some(reader) = self.reader.as_mut() else {
                // open() always fills the slot on success; treat an
                // empty one as a spurious idle poll, not a crash.
                return Ok(SourceStatus::Idle);
            };
            let n = reader
                .read_until(b'\n', &mut self.line)
                .map_err(|e| SourceError::Io(format!("{}: {e}", self.path)))?;
            if n == 0 {
                if !self.tail {
                    // Release the descriptor now: a directory of more
                    // files than the open-file limit must not hold them
                    // all until the run ends.
                    self.reader = None;
                    self.exhausted = true;
                    // The data is final, so its last fragment is too.
                    self.utf8(&self.partial)?;
                    return Ok(SourceStatus::Done);
                }
                return Ok(if read_any {
                    SourceStatus::Active
                } else {
                    SourceStatus::Idle
                });
            }
            read_any = true;
            if !self.line.ends_with(b"\n") {
                // Unterminated: the producer may still be writing it.
                // Stash the fragment; it is completed by a later read
                // (the hash and byte count only ever cover full lines).
                self.partial.append(&mut self.line);
                continue;
            }
            if !self.partial.is_empty() {
                self.partial.append(&mut self.line);
                std::mem::swap(&mut self.partial, &mut self.line);
            }
            // A whole line is text or an error; the buffer is kept.
            let bytes = std::mem::take(&mut self.line);
            let consumed = self.utf8(&bytes).map(|line| self.consume_line(line, out));
            self.line = bytes;
            if let Err(e) = consumed? {
                self.quarantine(e, out);
                return Ok(SourceStatus::Done);
            }
        }
        Ok(SourceStatus::Active)
    }

    /// Take the stream out of service for a line that failed, and
    /// release the file: nothing reads it again.
    fn quarantine(&mut self, error: SourceError, out: &mut Vec<SourceItem>) {
        self.quarantined = true;
        self.reader = None;
        out.push(SourceItem::Quarantine {
            stream: self.assembler.stream().clone(),
            error,
        });
    }

    /// `bytes` as text, or the error a line reader gives for bytes that
    /// are not UTF-8.
    fn utf8<'b>(&self, bytes: &'b [u8]) -> Result<&'b str, SourceError> {
        std::str::from_utf8(bytes).map_err(|_| {
            SourceError::Io(format!("{}: stream did not contain valid UTF-8", self.path))
        })
    }
}

impl Source for CsvFileSource {
    fn origin(&self) -> &str {
        &self.path
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        let polled = self.read_lines(out);
        if polled.is_err() {
            // Nothing polls a failed source again: release the
            // descriptor, or a directory's open-file slot stays taken.
            self.reader = None;
        }
        polled
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        // A restored cursor that was never applied (the file has not
        // been opened yet, or opening failed) must be carried forward
        // verbatim — reporting the blank assembler here would clobber
        // the stream's saved position and held-back rows at the next
        // checkpoint rewrite.
        let mut cursor = match &self.resume {
            Some(c) => c.clone(),
            None => self.assembler.cursor(self.consumed, self.hasher.finish()),
        };
        cursor.quarantined = cursor.quarantined || self.quarantined;
        out.push((self.assembler.stream().clone(), cursor));
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        if let Some(c) = cursors.get(self.assembler.stream().as_ref()) {
            // A quarantined stream stays out of service across resume.
            self.quarantined = c.quarantined;
            self.resume = Some(c.clone());
        }
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.assembler
            .set_row_counter(registry.counter(names::INGEST_ROWS, ROWS_HELP));
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        if self.quarantined {
            return Ok(());
        }
        // Only called on a non-checkpointing, winding-down run: the
        // data is final, so an unterminated trailing line is real data
        // and the trailing bag completes. A trailing line that fails
        // quarantines the stream, as a failing complete line does in
        // `poll`, so the sources finished after this one still are.
        if !self.partial.is_empty() {
            let lineno = self.lineno;
            self.lineno += 1;
            let bytes = std::mem::take(&mut self.partial);
            let fed = self
                .utf8(&bytes)
                .and_then(|line| self.assembler.line(line, lineno, &self.path, out));
            if let Err(error) = fed {
                self.quarantine(error, out);
                return Ok(());
            }
        }
        self.assembler.flush(out);
        Ok(())
    }
}

/// A line source whose (blocking) reader runs on its own thread, so
/// [`Source::poll`] never parks the ingestion loop: lines cross over a
/// channel and poll consumes whatever has arrived, keeping per-bag
/// output latency on a live pipe while the engine's events keep
/// draining. This is the CLI's stdin front-end, and it takes any
/// [`BufRead`] + `Send` reader — a regular file, a closed pipe, an
/// in-memory buffer.
///
/// No byte position is recorded (the cursor's `consumed` stays 0): a
/// resumed session re-reads from the top and skips already-pushed
/// times, exactly like the original stdin follow mode.
pub struct ThreadedLineSource {
    origin: String,
    assembler: BagAssembler,
    rx: std::sync::mpsc::Receiver<std::io::Result<String>>,
    lineno: usize,
    done: bool,
    quarantined: bool,
}

impl ThreadedLineSource {
    /// Spawn the reader thread and wrap its output. The thread exits at
    /// EOF, on a read error, or when this source is dropped (its next
    /// send fails); an unterminated final line is delivered as a line —
    /// a closed pipe makes the data final.
    pub fn spawn<R: BufRead + Send + 'static>(
        mut reader: R,
        origin: impl Into<String>,
        stream: impl Into<String>,
    ) -> Self {
        // Bounded: a fast producer blocks here once the detector falls
        // this far behind, restoring the synchronous follow loop's
        // natural backpressure instead of buffering the input in RAM.
        let (tx, rx) = std::sync::mpsc::sync_channel(4 * LINES_PER_POLL);
        let err_tx = tx.clone();
        let spawned = std::thread::Builder::new()
            .name("ingest-line-reader".into())
            .spawn(move || loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        if tx.send(Ok(line)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            });
        if let Err(e) = spawned {
            // Surface the spawn failure through the source's normal
            // error path instead of aborting the process.
            let _ = err_tx.send(Err(e));
        }
        drop(err_tx);
        ThreadedLineSource {
            origin: origin.into(),
            assembler: BagAssembler::new(Arc::from(stream.into().as_str()), true),
            rx,
            lineno: 0,
            done: false,
            quarantined: false,
        }
    }

    /// The stream this source feeds.
    pub fn stream(&self) -> &Arc<str> {
        self.assembler.stream()
    }
}

impl Source for ThreadedLineSource {
    fn origin(&self) -> &str {
        &self.origin
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        if self.done || self.quarantined {
            return Ok(SourceStatus::Done);
        }
        let mut read_any = false;
        for _ in 0..LINES_PER_POLL {
            match self.rx.try_recv() {
                Ok(Ok(line)) => {
                    read_any = true;
                    let lineno = self.lineno;
                    self.lineno += 1;
                    if let Err(e) = self.assembler.line(&line, lineno, &self.origin, out) {
                        self.quarantined = true;
                        out.push(SourceItem::Quarantine {
                            stream: self.assembler.stream().clone(),
                            error: e,
                        });
                        return Ok(SourceStatus::Done);
                    }
                }
                Ok(Err(e)) => {
                    self.done = true;
                    return Err(SourceError::Io(format!("{}: {e}", self.origin)));
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    return Ok(if read_any {
                        SourceStatus::Active
                    } else {
                        SourceStatus::Idle
                    });
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.done = true;
                    return Ok(SourceStatus::Done);
                }
            }
        }
        Ok(SourceStatus::Active)
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        let mut cursor = self.assembler.cursor(0, 0);
        cursor.quarantined = self.quarantined;
        out.push((self.assembler.stream().clone(), cursor));
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        if let Some(c) = cursors.get(self.assembler.stream().as_ref()) {
            self.quarantined = c.quarantined;
            self.assembler.restore_cursor(c, true);
        }
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.assembler
            .set_row_counter(registry.counter(names::INGEST_ROWS, ROWS_HELP));
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        if !self.quarantined {
            self.assembler.flush(out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::DirSource;

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bagscpd-csv-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `(stream, time)` of every bag in `items`, in order.
    fn bags(items: &[SourceItem]) -> Vec<(String, i64)> {
        items
            .iter()
            .filter_map(|item| match item {
                SourceItem::Bag { stream, time, .. } => Some((stream.to_string(), *time)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn eof_closes_a_non_tailed_file_and_later_polls_yield_nothing() {
        let dir = tempdir("eof");
        let path = dir.join("a.csv");
        let text = "t,x\n0,0.1\n0,0.2\n1,0.3\n2,0.4\n";
        std::fs::write(&path, text).unwrap();
        let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "a", false);
        let mut out = Vec::new();
        while src.poll(&mut out).unwrap() != SourceStatus::Done {}
        assert!(src.reader.is_none(), "the descriptor is released at EOF");
        let drained = out.len();
        for _ in 0..3 {
            assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Done);
        }
        assert_eq!(out.len(), drained, "no re-read from byte 0: {out:?}");
        // The cursor and the trailing bag survive the closed reader.
        let mut cursors = Vec::new();
        src.cursors(&mut cursors);
        assert_eq!(cursors[0].1.consumed, text.len() as u64);
        assert_eq!(cursors[0].1.pending, Some((2, vec![vec![0.4]])));
        src.finish(&mut out).unwrap();
        let want: Vec<(String, i64)> = (0..3).map(|t| ("a".to_string(), t)).collect();
        assert_eq!(bags(&out), want);
    }

    #[test]
    fn quarantine_closes_the_file() {
        let dir = tempdir("quarantine");
        let path = dir.join("a.csv");
        std::fs::write(&path, "t,x\n0,0.1\n1,oops\n2,0.3\n").unwrap();
        let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "a", false);
        let mut out = Vec::new();
        assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Done);
        assert!(src.reader.is_none(), "the descriptor is released");
        assert!(
            matches!(&out[..], [SourceItem::Quarantine { .. }]),
            "{out:?}"
        );
    }

    #[test]
    fn a_failing_trailing_fragment_quarantines_its_stream_at_finish() {
        let dir = tempdir("trailing");
        // A tailed file leaves its fragment unchecked at EOF, so the
        // bytes that are not UTF-8 reach finish too.
        for (name, text, tail, why) in [
            ("utf8", &b"t,x\n0,0.1\n1,\xff"[..], true, "valid UTF-8"),
            (
                "malformed",
                &b"t,x\n0,0.1\n1,abc"[..],
                false,
                "bad coordinate",
            ),
        ] {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, text).unwrap();
            let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), name, tail);
            let mut out = Vec::new();
            while src.poll(&mut out).unwrap() == SourceStatus::Active {}
            assert_eq!(out, [], "{name}: the fragment is held back");
            src.finish(&mut out).unwrap();
            // The stream stops at the bad line: its bag at t = 0 is not
            // completed.
            match &out[..] {
                [SourceItem::Quarantine { stream, error }] => {
                    assert_eq!(&**stream, name);
                    assert!(error.to_string().contains(why), "{name}: {error}");
                }
                other => panic!("{name}: {other:?}"),
            }
            let mut cursors = Vec::new();
            src.cursors(&mut cursors);
            assert!(cursors[0].1.quarantined, "{name}");
        }
    }

    #[test]
    fn a_character_split_across_writes_is_read_whole() {
        // The writer has flushed the first byte of "é" only.
        let dir = tempdir("split-utf8");
        let path = dir.join("press.csv");
        std::fs::write(&path, b"t,temp\xc3").unwrap();
        let mut src = DirSource::new(dir.to_string_lossy().into_owned(), true);
        let mut out = Vec::new();
        src.poll(&mut out).unwrap();
        assert_eq!(out, [], "the fragment waits for the rest of its line");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut file, b"\xa9rature\n0,1.5\n0,2.5\n1,3.5\n2,4.5\n").unwrap();
        while src.poll(&mut out).unwrap() == SourceStatus::Active {}
        assert_eq!(
            bags(&out),
            [("press".to_string(), 0), ("press".to_string(), 1)]
        );
        assert!(
            !out.iter()
                .any(|item| matches!(item, SourceItem::Quarantine { .. })),
            "{out:?}"
        );
        let mut cursors = Vec::new();
        src.cursors(&mut cursors);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(cursors[0].1.consumed, len, "every line is addressed");
    }

    #[test]
    fn a_complete_line_that_is_not_utf8_fails_the_poll() {
        let dir = tempdir("bad-utf8");
        let want = |path: &std::path::Path| {
            Err(SourceError::Io(format!(
                "{}: stream did not contain valid UTF-8",
                path.to_string_lossy()
            )))
        };
        // A terminated line, on a tailed file and on a finished one.
        for tail in [true, false] {
            let path = dir.join(format!("line-{tail}.csv"));
            std::fs::write(&path, b"t,x\n0,0.5\n1,\xff\n2,1.5\n").unwrap();
            let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "a", tail);
            assert_eq!(src.poll(&mut Vec::new()), want(&path));
            let mut cursors = Vec::new();
            src.cursors(&mut cursors);
            assert_eq!(cursors[0].1.consumed, 10, "the bad line is not addressed");
        }
        // A finished file's unterminated last line.
        let path = dir.join("fragment.csv");
        std::fs::write(&path, b"t,x\n0,0.5\n1,\xff").unwrap();
        let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "a", false);
        assert_eq!(src.poll(&mut Vec::new()), want(&path));
    }

    #[test]
    fn a_failed_poll_releases_the_file() {
        let dir = tempdir("failed-poll");
        // A complete line that is not UTF-8, on a tailed file and on a
        // finished one.
        for tail in [true, false] {
            let path = dir.join(format!("bad-{tail}.csv"));
            std::fs::write(&path, b"t,x\n0,0.5\n0,\xff\n").unwrap();
            let mut src = CsvFileSource::new(path.to_string_lossy().into_owned(), "a", tail);
            assert!(src.poll(&mut Vec::new()).is_err());
            assert!(!src.is_open(), "tail = {tail}: the descriptor is released");
        }
        // A read error: a directory opens, but its first read fails.
        let mut src = CsvFileSource::new(dir.to_string_lossy().into_owned(), "d", false);
        assert!(matches!(src.poll(&mut Vec::new()), Err(SourceError::Io(_))));
        assert!(!src.is_open(), "the descriptor is released");
    }

    #[test]
    fn dir_source_drains_three_files_once_each() {
        let dir = tempdir("dir3");
        for name in ["a", "b", "c"] {
            std::fs::write(
                dir.join(format!("{name}.csv")),
                "t,x\n0,1\n0,2\n1,3\n2,4\n2,5\n",
            )
            .unwrap();
        }
        let mut src = DirSource::new(dir.to_string_lossy().into_owned(), false);
        let mut out = Vec::new();
        while src.poll(&mut out).unwrap() != SourceStatus::Done {}
        assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Done);
        src.finish(&mut out).unwrap();
        let mut got = bags(&out);
        got.sort();
        let want: Vec<(String, i64)> = ["a", "b", "c"]
            .iter()
            .flat_map(|s| (0..3).map(move |t| (s.to_string(), t)))
            .collect();
        assert_eq!(got, want, "every bag exactly once: {out:?}");
    }
}
