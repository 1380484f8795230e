//! The [`Source`] trait and the row→bag assembly core shared by every
//! implementation.
//!
//! A source is an *incremental, poll-driven* producer of completed bags
//! for one or more named streams. [`Source::poll`] consumes whatever
//! input is available right now and appends [`SourceItem`]s; it never
//! parks the ingestion loop on one slow producer longer than its own
//! read budget. Bag boundaries, hold-back of the trailing
//! still-accumulating bag, header skipping, monotonic-time enforcement,
//! and rotated-input resume semantics all live in [`BagAssembler`] —
//! lifted out of the CLI's original single-source `run_follow` loop so
//! every source kind shares one battle-tested implementation.

use crate::telemetry::{Counter, MetricsRegistry};
use bagcpd::MAX_ABS_COORD;
use std::collections::HashMap;
use std::sync::Arc;

/// Liveness of a source after a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Input was consumed; poll again soon.
    Active,
    /// Nothing available right now, but more may come.
    Idle,
    /// Exhausted: this source will never produce again.
    Done,
    /// This poll returned one slice of a round that is not over yet:
    /// poll again within the same round (a [`crate::Pipeline`] tick)
    /// once its items are routed. The round's last slice returns the
    /// round's own status. Only [`super::DirSource`] answers this.
    More,
}

/// A source-level failure, pre-formatted with its `origin:line` context.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceError {
    /// I/O failure reading the input.
    Io(String),
    /// Malformed or inconsistent data (bad row, backwards time,
    /// dimension change, …).
    Data(String),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io(m) | SourceError::Data(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// One output of a poll.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceItem {
    /// A completed bag for a stream (rows validated: non-empty,
    /// dimension-consistent, finite).
    Bag {
        /// Stream the bag belongs to.
        stream: Arc<str>,
        /// The bag's time value from the input.
        time: i64,
        /// Member rows.
        rows: Vec<Vec<f64>>,
    },
    /// A stream hit fatal input and was quarantined at its source: the
    /// stream stops, the source (and every other stream) keeps going.
    Quarantine {
        /// The quarantined stream.
        stream: Arc<str>,
        /// What happened.
        error: SourceError,
    },
    /// A human-readable operational note (rotation detected, pending bag
    /// rebuilt, …) for the host to log.
    Note(String),
    /// A stream should be retired from service (its detector state
    /// released): the source decided it will not feed it again — e.g.
    /// the idle-eviction policy of a long-lived network source. Unlike
    /// [`SourceItem::Quarantine`] this is not an error: if the stream
    /// later reappears it starts fresh.
    Retire {
        /// The stream to retire.
        stream: Arc<str>,
    },
}

/// Resumable position of one stream within a source: everything a
/// checkpoint needs to continue the stream without loss.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamCursor {
    /// Time of the last bag completed (handed to the engine).
    pub completed_time: Option<i64>,
    /// `(time, rows)` of the bag still accumulating; never empty rows
    /// when present.
    pub pending: Option<(i64, Vec<Vec<f64>>)>,
    /// Input bytes consumed (0 for non-seekable sources).
    pub consumed: u64,
    /// FNV-1a hash of those consumed bytes.
    pub prefix_hash: u64,
    /// The stream was quarantined by its source; a resumed session
    /// keeps it out of service instead of silently reviving it.
    pub quarantined: bool,
}

/// An incremental ingestion source feeding one or more named streams.
pub trait Source {
    /// Diagnostic identity (file path, `<stdin>`, `tcp://addr`, …).
    fn origin(&self) -> &str;

    /// Consume available input, appending completed bags, quarantine
    /// records, and notes to `out`. A source may split one round of
    /// reading into slices, answering [`SourceStatus::More`] for every
    /// slice but the last.
    ///
    /// # Errors
    /// Only *source-fatal* conditions (the file vanished, the listener
    /// died). Per-stream data problems are reported as
    /// [`SourceItem::Quarantine`] instead, so one bad stream never takes
    /// down its siblings.
    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError>;

    /// Append the per-stream resume cursors of this source.
    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        let _ = out;
    }

    /// Adopt resume cursors (matched by stream name) from a checkpoint.
    /// Must be called before the first [`Source::poll`].
    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        let _ = cursors;
    }

    /// End-of-run hook: a non-checkpointing source completes its
    /// trailing bag here (EOF means the data is final); a checkpointing
    /// one leaves it pending for the cursor.
    ///
    /// # Errors
    /// As [`Source::poll`].
    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        let _ = out;
        Ok(())
    }

    /// Register this source's metric handles in `registry` (the pipeline
    /// calls this once, before the first poll). The default does
    /// nothing; implementations with per-row or per-line work register
    /// counters here so polling itself stays allocation-free.
    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        let _ = registry;
    }

    /// Engine queue pressure report, called by the pipeline before each
    /// poll with `load` in `[0, 1]` (fraction of the engine's bounded
    /// input queues currently in flight). Interactive sources use it to signal
    /// backpressure to their producers (the TCP source's `!busy` /
    /// `!ready` lines); the default ignores it.
    fn pressure(&mut self, load: f64) {
        let _ = load;
    }
}

/// Parse one CSV row: return its time and write its coordinates into
/// `coords` (cleared first). With `allow_header`, an unparseable time
/// column is treated as a (skipped) header line — `Ok(None)`, `coords`
/// left empty — only ever correct for the true first line of an input,
/// not for a line read after a mid-file resume. Public because it is the
/// one authoritative definition of the row format (the CLI batch mode
/// parses with it too).
///
/// The fields are parsed straight off the comma split, so a row costs no
/// allocation beyond what `coords` needs to grow; a caller that passes
/// a vector sized to the row's dimension makes it allocation-free.
///
/// A coordinate that is not finite, or whose magnitude exceeds
/// [`MAX_ABS_COORD`], is a data error naming the line and the value. On
/// an error `coords` holds the coordinates before the offending one.
pub fn parse_row(
    line: &str,
    lineno: usize,
    origin: &str,
    allow_header: bool,
    coords: &mut Vec<f64>,
) -> Result<Option<i64>, SourceError> {
    coords.clear();
    let mut fields = line.split(',').map(str::trim);
    let time = fields.next().unwrap_or_default();
    let Some(first) = fields.next() else {
        return Err(SourceError::Data(format!(
            "{origin}:{}: need time plus >= 1 coordinate",
            lineno + 1
        )));
    };
    let t: i64 = match time.parse() {
        Ok(t) => t,
        Err(_) if allow_header => return Ok(None),
        Err(e) => {
            return Err(SourceError::Data(format!(
                "{origin}:{}: bad time '{time}': {e}",
                lineno + 1
            )))
        }
    };
    for f in std::iter::once(first).chain(fields) {
        let x: f64 = f.parse().map_err(|e| {
            SourceError::Data(format!("{origin}:{}: bad coordinate: {e}", lineno + 1))
        })?;
        if !x.is_finite() {
            return Err(SourceError::Data(format!(
                "{origin}:{}: non-finite coordinate '{f}'",
                lineno + 1
            )));
        }
        if x.abs() > MAX_ABS_COORD {
            return Err(SourceError::Data(format!(
                "{origin}:{}: coordinate '{f}' exceeds the supported magnitude {MAX_ABS_COORD:e}",
                lineno + 1
            )));
        }
        coords.push(x);
    }
    Ok(Some(t))
}

/// Row→bag assembly for one stream: groups contiguous equal-time rows
/// into bags, enforces nondecreasing times and a stable dimension,
/// holds the trailing bag back until the time column advances, and
/// carries the rotated-resume semantics of the original CLI follow loop
/// (skip already-pushed times; rebuild the pending bag when an input
/// re-presents history).
#[derive(Debug, Clone)]
pub struct BagAssembler {
    stream: Arc<str>,
    cur_time: Option<i64>,
    cur_rows: Vec<Vec<f64>>,
    /// Time of the last bag completed by this assembler (or restored).
    completed_time: Option<i64>,
    dim: Option<usize>,
    /// Whether an unparseable time column on the first fed line may be
    /// skipped as a header.
    allow_header: bool,
    first_line: bool,
    /// Rotated-resume mode: drop rows with `t <=` the restored
    /// completed time (constant for the session).
    skip_through: Option<i64>,
    saw_old_rows: bool,
    /// Rows restored from a checkpoint (as opposed to read from this
    /// input) still buffered in `cur_rows`.
    restored_buffered: usize,
    /// Parsed-row counter when the host attached telemetry.
    rows: Option<Counter>,
}

impl BagAssembler {
    /// Fresh assembler for `stream`. `allow_header` permits one leading
    /// header line.
    pub fn new(stream: Arc<str>, allow_header: bool) -> Self {
        BagAssembler {
            stream,
            cur_time: None,
            cur_rows: Vec::new(),
            completed_time: None,
            dim: None,
            allow_header,
            first_line: true,
            skip_through: None,
            saw_old_rows: false,
            restored_buffered: 0,
            rows: None,
        }
    }

    /// Count every successfully parsed data row into `counter` (sources
    /// route their [`crate::telemetry::names::INGEST_ROWS`] handle here,
    /// so all of them share one definition of "a row").
    pub fn set_row_counter(&mut self, counter: Counter) {
        self.rows = Some(counter);
    }

    /// The stream this assembler feeds.
    pub fn stream(&self) -> &Arc<str> {
        &self.stream
    }

    /// Time of the last completed bag.
    pub fn completed_time(&self) -> Option<i64> {
        self.completed_time
    }

    /// The still-accumulating bag, if any.
    pub fn pending(&self) -> Option<(i64, &[Vec<f64>])> {
        self.cur_time
            .filter(|_| !self.cur_rows.is_empty())
            .map(|t| (t, self.cur_rows.as_slice()))
    }

    /// Adopt a checkpoint cursor. With `rotated`, the input does not
    /// continue byte-for-byte where the cursor left off: already-pushed
    /// times are skipped and pending-time rows are treated as a
    /// continuation of the buffered bag (or a rebuild, if the input
    /// demonstrably re-presents history).
    pub fn restore_cursor(&mut self, cursor: &StreamCursor, rotated: bool) {
        self.completed_time = cursor.completed_time;
        if let Some((t, rows)) = &cursor.pending {
            self.cur_time = Some(*t);
            self.cur_rows = rows.clone();
            self.restored_buffered = rows.len();
            self.dim = rows.first().map(Vec::len);
        }
        if rotated {
            self.skip_through = cursor.completed_time;
        } else {
            // Continuing mid-input: the next line is data, never a header.
            self.allow_header = false;
        }
    }

    /// Feed one raw line (newline stripped or not). Completed bags are
    /// appended to `out` tagged with this assembler's stream.
    ///
    /// # Errors
    /// [`SourceError::Data`] on malformed rows, backwards time, or a
    /// dimension change — the caller decides whether that quarantines
    /// the stream or aborts the session.
    pub fn line(
        &mut self,
        line: &str,
        lineno: usize,
        origin: &str,
        out: &mut Vec<SourceItem>,
    ) -> Result<(), SourceError> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        let header_ok = self.allow_header && self.first_line;
        self.first_line = false;
        let mut coords = Vec::with_capacity(self.dim.unwrap_or(0));
        let Some(t) = parse_row(trimmed, lineno, origin, header_ok, &mut coords)? else {
            return Ok(());
        };
        if let Some(rows) = &self.rows {
            rows.inc();
        }
        // Rotated input may re-present history: drop rows of bags that
        // were already pushed.
        if self.skip_through.is_some_and(|last| t <= last) {
            self.saw_old_rows = true;
            return Ok(());
        }
        // A true rotation carries only post-cut data, so pending-time
        // rows are a continuation of the buffered bag. But an input
        // that re-presented already-pushed times re-presents the
        // pending rows too — appending would double-count them, so
        // rebuild the pending bag from this input alone.
        if self.saw_old_rows && self.restored_buffered > 0 && Some(t) == self.cur_time {
            out.push(SourceItem::Note(format!(
                "note: {origin} re-presents already-processed times; rebuilding the pending bag \
                 for t = {t} from this input instead of appending to the buffered rows"
            )));
            self.cur_rows.clear();
            self.restored_buffered = 0;
        }
        match self.dim {
            None => self.dim = Some(coords.len()),
            Some(d) if d != coords.len() => {
                return Err(SourceError::Data(format!(
                    "{origin}:{}: dimension {} != {d}",
                    lineno + 1,
                    coords.len()
                )));
            }
            _ => {}
        }
        match self.cur_time {
            Some(prev) if t == prev => self.cur_rows.push(coords),
            Some(prev) if t < prev => {
                return Err(SourceError::Data(format!(
                    "{origin}:{}: time went backwards ({t} after {prev}); follow mode needs \
                     nondecreasing times with equal times contiguous",
                    lineno + 1
                )));
            }
            Some(prev) => {
                // The next bag is likely the size of this one: size its
                // row list up front instead of regrowing it from empty.
                let next = Vec::with_capacity(self.cur_rows.len());
                out.push(SourceItem::Bag {
                    stream: self.stream.clone(),
                    time: prev,
                    rows: std::mem::replace(&mut self.cur_rows, next),
                });
                self.completed_time = Some(prev);
                self.restored_buffered = 0;
                self.cur_time = Some(t);
                self.cur_rows.push(coords);
            }
            None => {
                self.cur_time = Some(t);
                self.cur_rows.push(coords);
            }
        }
        Ok(())
    }

    /// Complete the trailing bag (EOF of a run whose data is final).
    pub fn flush(&mut self, out: &mut Vec<SourceItem>) {
        if let Some(t) = self.cur_time.take() {
            if !self.cur_rows.is_empty() {
                out.push(SourceItem::Bag {
                    stream: self.stream.clone(),
                    time: t,
                    rows: std::mem::take(&mut self.cur_rows),
                });
                self.completed_time = Some(t);
                self.restored_buffered = 0;
            }
        }
    }

    /// This assembler's cursor contribution (`consumed`/`prefix_hash`
    /// are the byte-position parts and `quarantined` the service flag,
    /// both owned by the source).
    pub fn cursor(&self, consumed: u64, prefix_hash: u64) -> StreamCursor {
        StreamCursor {
            completed_time: self.completed_time,
            pending: self
                .pending()
                .map(|(t, rows)| (t, rows.to_vec()))
                .filter(|(_, rows)| !rows.is_empty()),
            consumed,
            prefix_hash,
            quarantined: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm() -> BagAssembler {
        BagAssembler::new(Arc::from("s"), true)
    }

    #[test]
    fn groups_contiguous_times_into_bags() {
        let mut a = asm();
        let mut out = Vec::new();
        for (i, l) in ["t,x", "0,1.0", "0,2.0", "1,3.0", "1,4.0", "2,5.0"]
            .iter()
            .enumerate()
        {
            a.line(l, i, "test", &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
        assert!(
            matches!(&out[0], SourceItem::Bag { time: 0, rows, .. } if rows.len() == 2),
            "{out:?}"
        );
        assert_eq!(a.pending().unwrap().0, 2, "trailing bag held back");
        a.flush(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(a.pending(), None);
    }

    #[test]
    fn header_only_allowed_on_first_line() {
        let mut a = asm();
        let mut out = Vec::new();
        a.line("0,1.0", 0, "test", &mut out).unwrap();
        let err = a.line("t,x", 1, "test", &mut out).unwrap_err();
        assert!(err.to_string().contains("bad time 't'"), "{err}");
    }

    #[test]
    fn backwards_time_and_dimension_change_error() {
        let mut a = asm();
        let mut out = Vec::new();
        a.line("5,1.0", 0, "test", &mut out).unwrap();
        let err = a.line("4,1.0", 1, "test", &mut out).unwrap_err();
        assert!(err.to_string().contains("time went backwards"), "{err}");

        let mut a = asm();
        a.line("5,1.0", 0, "test", &mut out).unwrap();
        let err = a.line("6,1.0,2.0", 1, "test", &mut out).unwrap_err();
        assert!(err.to_string().contains("dimension 2 != 1"), "{err}");
    }

    #[test]
    fn non_finite_coordinates_are_data_errors_not_panics() {
        let mut a = asm();
        let mut out = Vec::new();
        let err = a.line("0,inf", 0, "test", &mut out).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn coordinates_beyond_the_magnitude_bound_are_data_errors() {
        let mut coords = Vec::new();
        for ok in ["1e150", "-1e150"] {
            let row = parse_row(&format!("3,0.5,{ok}"), 0, "test", false, &mut coords).unwrap();
            assert_eq!(
                row.map(|t| (t, coords.clone())),
                Some((3, vec![0.5, ok.parse().unwrap()]))
            );
        }
        for bad in ["1e151", "-1e151", "1e308"] {
            let err =
                parse_row(&format!("3,0.5,{bad}"), 6, "test", false, &mut coords).unwrap_err();
            assert!(matches!(err, SourceError::Data(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.starts_with("test:7: "), "{msg}");
            assert!(
                msg.contains(&format!("'{bad}'")) && msg.contains("1e150"),
                "{msg}"
            );
        }
    }

    #[test]
    fn rotated_resume_skips_old_and_continues_pending() {
        let mut a = BagAssembler::new(Arc::from("s"), true);
        a.restore_cursor(
            &StreamCursor {
                completed_time: Some(5),
                pending: Some((6, vec![vec![0.1]])),
                consumed: 0,
                prefix_hash: 0,
                quarantined: false,
            },
            true,
        );
        let mut out = Vec::new();
        // Post-cut rotation: only new rows for the pending time.
        a.line("6,0.2", 0, "test", &mut out).unwrap();
        a.line("7,0.3", 1, "test", &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(
            matches!(&out[0], SourceItem::Bag { time: 6, rows, .. } if rows.len() == 2),
            "buffered + continuation rows: {out:?}"
        );
    }

    #[test]
    fn re_presented_history_rebuilds_pending_bag() {
        let mut a = BagAssembler::new(Arc::from("s"), true);
        a.restore_cursor(
            &StreamCursor {
                completed_time: Some(5),
                pending: Some((6, vec![vec![0.1]])),
                consumed: 0,
                prefix_hash: 0,
                quarantined: false,
            },
            true,
        );
        let mut out = Vec::new();
        a.line("5,9.0", 0, "test", &mut out).unwrap(); // old row -> skipped
        a.line("6,0.1", 1, "test", &mut out).unwrap(); // re-presented pending row
        a.line("7,0.3", 2, "test", &mut out).unwrap();
        let note = out
            .iter()
            .any(|i| matches!(i, SourceItem::Note(n) if n.contains("re-presents")));
        assert!(note, "{out:?}");
        let bag6 = out.iter().find_map(|i| match i {
            SourceItem::Bag { time: 6, rows, .. } => Some(rows.len()),
            _ => None,
        });
        assert_eq!(bag6, Some(1), "rebuilt, not double-counted: {out:?}");
    }
}
