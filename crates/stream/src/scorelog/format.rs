//! The score log's on-disk record format.
//!
//! A score log is a framed log ([`crate::framed`]) whose frame payloads
//! are count-prefixed batches of *records*. Stream names are interned:
//! the first record mentioning a stream is preceded by a `DefineStream`
//! record binding the next dense `u32` id to the name, and every later
//! record carries the 4-byte id instead of the spelled-out name — a
//! point record is ~a few dozen bytes regardless of how long stream
//! names are. Ids are assigned in first-sighting order, so the table is
//! reconstructible from any prefix of the log (torn-tail truncation can
//! never orphan an id).
//!
//! The [`Encoder`]/[`Decoder`] pair below is the only code that knows
//! this layout; the sink, reader, store, and differ all go through it.
//! Both sit on [`crate::snapshot::Writer`] and [`crate::snapshot::Reader`],
//! the byte codec the checkpoint formats use too.

use crate::event::{DiffOutcome, Event, QuarantineRecord};
use crate::ingest::source::SourceError;
use crate::snapshot::{Reader, SnapshotError, Writer};
use bagcpd::{ConfidenceInterval, ScorePoint};
use std::collections::HashMap;
use std::sync::Arc;

// lint:fingerprint-begin(scorelog-format)
//
// Serialized layout of the score log. Record wire shapes (after the
// u32 record count that opens every frame payload):
//
// | tag | record        | fields                                           |
// |-----|---------------|--------------------------------------------------|
// | 0   | DefineStream  | id u32, name str                                 |
// | 1   | Point         | id u32, t u64, score f64, ci_lo f64, ci_up f64,  |
// |     |               | xi (u8 flag + f64 if 1), alert u8                |
// | 2   | StreamError   | id u32, message str                              |
// | 3   | Quarantine    | id u32, error kind u8 (0 io / 1 data), message str|
// | 4   | Note          | text str                                         |
// | 5   | Checkpoint    | bytes u64, bags u64                              |
// | 6   | Degraded      | sink str, reason str                             |
// | 7   | Recovered     | sink str, replayed u64                           |
// | 8   | ReplayDiff    | id u32, t u64, live f64, recorded f64, outcome u8|
//
// Changing any of this requires bumping the format digit in MAGIC and
// keeping a migration path for logs written by released builds.

/// Magic prefix of every score log; the trailing digit is the format
/// version.
pub const MAGIC: &[u8; 8] = b"BCPDSLG1";

const TAG_DEFINE_STREAM: u8 = 0;
const TAG_POINT: u8 = 1;
const TAG_STREAM_ERROR: u8 = 2;
const TAG_QUARANTINE: u8 = 3;
const TAG_NOTE: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_DEGRADED: u8 = 6;
const TAG_RECOVERED: u8 = 7;
const TAG_REPLAY_DIFF: u8 = 8;
// lint:fingerprint-end(scorelog-format)

/// Streaming encoder: owns the name→id intern table of one log and
/// emits `DefineStream` records as new streams appear.
pub struct Encoder {
    ids: HashMap<Arc<str>, u32>,
}

impl Encoder {
    /// A fresh encoder for an empty log.
    pub fn new() -> Encoder {
        Encoder {
            ids: HashMap::new(),
        }
    }

    /// Rebuild the encoder state of an existing log from the decoder's
    /// reconstructed name table (ids are the indexes, in definition
    /// order) — how a reopened [`super::ScoreLogSink`] resumes
    /// appending without re-defining streams.
    pub fn restore(names: &[Arc<str>]) -> Encoder {
        Encoder {
            ids: names
                .iter()
                .enumerate()
                .map(|(id, name)| (name.clone(), id as u32))
                .collect(),
        }
    }

    /// Encode one event batch as a frame payload into `w` (cleared
    /// first, so one writer serves every batch). Returns the number of
    /// records written — the events plus any `DefineStream` records for
    /// first-sighted streams.
    pub fn encode_batch(&mut self, events: &[Event], w: &mut Writer) -> u32 {
        w.clear();
        w.u32(0); // patched below
        let mut records = 0u32;
        for event in events {
            records += self.encode_event(event, w);
        }
        w.patch_u32(0, records);
        records
    }

    /// The id for `name`, interning (and emitting a `DefineStream`
    /// record) on first sighting. Returns `(id, defined)`.
    fn intern(&mut self, name: &Arc<str>, w: &mut Writer) -> (u32, bool) {
        if let Some(&id) = self.ids.get(name) {
            return (id, false);
        }
        let id = self.ids.len() as u32;
        self.ids.insert(name.clone(), id);
        w.u8(TAG_DEFINE_STREAM);
        w.u32(id);
        w.str(name);
        (id, true)
    }

    /// Encode one event; returns the records written (1, or 2 when a
    /// `DefineStream` was emitted first).
    fn encode_event(&mut self, event: &Event, w: &mut Writer) -> u32 {
        match event {
            Event::Point { stream, point } => {
                let (id, defined) = self.intern(stream, w);
                w.u8(TAG_POINT);
                w.u32(id);
                w.u64(point.t as u64);
                w.f64(point.score);
                w.f64(point.ci.lo);
                w.f64(point.ci.up);
                match point.xi {
                    Some(xi) => {
                        w.u8(1);
                        w.f64(xi);
                    }
                    None => w.u8(0),
                }
                w.u8(u8::from(point.alert));
                1 + u32::from(defined)
            }
            Event::StreamError { stream, message } => {
                let (id, defined) = self.intern(stream, w);
                w.u8(TAG_STREAM_ERROR);
                w.u32(id);
                w.str(message);
                1 + u32::from(defined)
            }
            Event::Quarantine(record) => {
                let (id, defined) = self.intern(&record.stream, w);
                w.u8(TAG_QUARANTINE);
                w.u32(id);
                match &record.error {
                    SourceError::Io(m) => {
                        w.u8(0);
                        w.str(m);
                    }
                    SourceError::Data(m) => {
                        w.u8(1);
                        w.str(m);
                    }
                }
                1 + u32::from(defined)
            }
            Event::Note(text) => {
                w.u8(TAG_NOTE);
                w.str(text);
                1
            }
            Event::CheckpointWritten { bytes, bags } => {
                w.u8(TAG_CHECKPOINT);
                w.u64(*bytes as u64);
                w.u64(*bags);
                1
            }
            Event::Degraded { sink, reason } => {
                w.u8(TAG_DEGRADED);
                w.str(sink);
                w.str(reason);
                1
            }
            Event::Recovered { sink, replayed } => {
                w.u8(TAG_RECOVERED);
                w.str(sink);
                w.u64(*replayed);
                1
            }
            Event::ReplayDiff {
                stream,
                t,
                live,
                recorded,
                outcome,
            } => {
                let (id, defined) = self.intern(stream, w);
                w.u8(TAG_REPLAY_DIFF);
                w.u32(id);
                w.u64(*t as u64);
                w.f64(*live);
                w.f64(*recorded);
                w.u8(match outcome {
                    DiffOutcome::Equal => 0,
                    DiffOutcome::WithinEps => 1,
                    DiffOutcome::Diverged => 2,
                });
                1 + u32::from(defined)
            }
        }
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// Streaming decoder: rebuilds the id→name table as `DefineStream`
/// records arrive. Because ids are dense and defined in order, decoding
/// any prefix of a log leaves the table consistent.
pub struct Decoder {
    names: Vec<Arc<str>>,
}

/// A byte the layout does not allow where it appears.
fn invalid(what: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("invalid {what}"))
}

impl Decoder {
    /// A fresh decoder (empty table — decode from the first frame).
    pub fn new() -> Decoder {
        Decoder { names: Vec::new() }
    }

    /// The reconstructed name table (index = stream id).
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Decode one frame payload, appending the events to `out`
    /// (`DefineStream` records update the table and emit nothing).
    /// Returns false on any malformed byte — `out` and the name table
    /// are rolled back to their state before the call.
    pub fn decode_into(&mut self, payload: &[u8], out: &mut Vec<Event>) -> bool {
        let out_mark = out.len();
        let names_mark = self.names.len();
        if self.try_decode(payload, out).is_ok() {
            true
        } else {
            out.truncate(out_mark);
            self.names.truncate(names_mark);
            false
        }
    }

    fn try_decode(&mut self, payload: &[u8], out: &mut Vec<Event>) -> Result<(), SnapshotError> {
        let mut r = Reader::new(payload);
        for _ in 0..r.u32()? {
            self.decode_record(&mut r, out)?;
        }
        if r.finished() {
            Ok(())
        } else {
            Err(invalid("trailing bytes"))
        }
    }

    /// Resolve a stream id against the table.
    fn name(&self, id: u32) -> Result<Arc<str>, SnapshotError> {
        self.names
            .get(id as usize)
            .cloned()
            .ok_or_else(|| invalid("stream id"))
    }

    /// Decode one record (every record counts one, `DefineStream`
    /// included).
    fn decode_record(
        &mut self,
        r: &mut Reader<'_>,
        out: &mut Vec<Event>,
    ) -> Result<(), SnapshotError> {
        let event = match r.u8()? {
            TAG_DEFINE_STREAM => {
                let id = r.u32()? as usize;
                let name = r.str()?;
                if id == self.names.len() {
                    self.names.push(Arc::from(name));
                } else if self.names.get(id).map(|n| &**n) != Some(name.as_str()) {
                    // Out-of-order definition, or a redefinition that
                    // disagrees with the table: malformed.
                    return Err(invalid("stream definition"));
                }
                return Ok(());
            }
            TAG_POINT => {
                let stream = self.name(r.u32()?)?;
                let t = r.u64()? as usize;
                let score = r.f64()?;
                let lo = r.f64()?;
                let up = r.f64()?;
                let xi = match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    _ => return Err(invalid("xi flag")),
                };
                let alert = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(invalid("alert flag")),
                };
                Event::Point {
                    stream,
                    point: ScorePoint {
                        t,
                        score,
                        ci: ConfidenceInterval { lo, up },
                        xi,
                        alert,
                    },
                }
            }
            TAG_STREAM_ERROR => Event::StreamError {
                stream: self.name(r.u32()?)?,
                message: r.str()?,
            },
            TAG_QUARANTINE => {
                let stream = self.name(r.u32()?)?;
                let error = match r.u8()? {
                    0 => SourceError::Io(r.str()?),
                    1 => SourceError::Data(r.str()?),
                    _ => return Err(invalid("quarantine kind")),
                };
                Event::Quarantine(QuarantineRecord { stream, error })
            }
            TAG_NOTE => Event::Note(r.str()?),
            TAG_CHECKPOINT => Event::CheckpointWritten {
                bytes: r.u64()? as usize,
                bags: r.u64()?,
            },
            TAG_DEGRADED => Event::Degraded {
                sink: r.str()?,
                reason: r.str()?,
            },
            TAG_RECOVERED => Event::Recovered {
                sink: r.str()?,
                replayed: r.u64()?,
            },
            TAG_REPLAY_DIFF => Event::ReplayDiff {
                stream: self.name(r.u32()?)?,
                t: r.u64()? as usize,
                live: r.f64()?,
                recorded: r.f64()?,
                outcome: match r.u8()? {
                    0 => DiffOutcome::Equal,
                    1 => DiffOutcome::WithinEps,
                    2 => DiffOutcome::Diverged,
                    _ => return Err(invalid("diff outcome")),
                },
            },
            _ => return Err(invalid("record tag")),
        };
        out.push(event);
        Ok(())
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(stream: &str, t: usize, score: f64) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score - 0.5,
                    up: score + 0.5,
                },
                xi: t.is_multiple_of(2).then_some(0.125),
                alert: t.is_multiple_of(3),
            },
        }
    }

    #[test]
    fn every_variant_round_trips_with_interning() {
        let events = vec![
            point("sensor-with-a-long-name", 0, 1.0),
            point("sensor-with-a-long-name", 1, 2.0),
            point("b", 0, 3.0),
            Event::StreamError {
                stream: Arc::from("b"),
                message: "bad bag".into(),
            },
            Event::Quarantine(QuarantineRecord {
                stream: Arc::from("q"),
                error: SourceError::Io("gone".into()),
            }),
            Event::Note("rotated".into()),
            Event::CheckpointWritten { bytes: 10, bags: 3 },
            Event::Degraded {
                sink: "csv".into(),
                reason: "refused".into(),
            },
            Event::Recovered {
                sink: "csv".into(),
                replayed: 7,
            },
            Event::ReplayDiff {
                stream: Arc::from("b"),
                t: 4,
                live: 1.0,
                recorded: 1.0 + 1e-9,
                outcome: DiffOutcome::WithinEps,
            },
        ];
        let mut enc = Encoder::new();
        let mut buf = Writer::new();
        // 10 events + 3 DefineStream records.
        assert_eq!(enc.encode_batch(&events, &mut buf), 13);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        assert!(dec.decode_into(buf.as_bytes(), &mut out));
        assert_eq!(out, events);
        assert_eq!(dec.names().len(), 3);
    }

    #[test]
    fn interning_keeps_point_records_compact() {
        let long = "a-stream-name-much-longer-than-a-u32-id";
        let mut enc = Encoder::new();
        let mut buf = Writer::new();
        enc.encode_batch(&[point(long, 0, 1.0)], &mut buf);
        let first = buf.len();
        enc.encode_batch(&[point(long, 1, 2.0)], &mut buf);
        let later = buf.len();
        assert!(
            later < first - long.len(),
            "later frames must not re-spell the name ({later} vs {first})"
        );
        // tag + id + t + 3 f64 + xi flag + f64 + alert = 47 bytes, plus
        // the 4-byte count: "a few dozen bytes" as promised.
        assert!(later <= 52, "point record too large: {later}");
    }

    #[test]
    fn encoder_restore_continues_the_table() {
        let mut enc = Encoder::new();
        let mut first = Writer::new();
        enc.encode_batch(&[point("a", 0, 1.0), point("b", 0, 2.0)], &mut first);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        assert!(dec.decode_into(first.as_bytes(), &mut out));

        // A reopened log's encoder must reuse existing ids.
        let mut resumed = Encoder::restore(dec.names());
        let mut second = Writer::new();
        let records = resumed.encode_batch(&[point("b", 1, 3.0), point("c", 0, 4.0)], &mut second);
        assert_eq!(records, 3, "one new DefineStream (c), two points");
        assert!(dec.decode_into(second.as_bytes(), &mut out));
        assert_eq!(out.len(), 4);
        assert_eq!(dec.names().len(), 3);
    }

    /// A decoder whose table holds `name` as id 0, built by decoding a
    /// frame of one `DefineStream` record.
    fn decoder_knowing(name: &str) -> Decoder {
        let mut w = Writer::new();
        w.u32(1);
        w.u8(TAG_DEFINE_STREAM);
        w.u32(0);
        w.str(name);
        let mut dec = Decoder::new();
        assert!(dec.decode_into(w.as_bytes(), &mut Vec::new()));
        assert_eq!(dec.names().len(), 1);
        dec
    }

    #[test]
    fn malformed_frames_roll_back_cleanly() {
        let mut enc = Encoder::new();
        let mut w = Writer::new();
        enc.encode_batch(&[point("a", 0, 1.0)], &mut w);
        let buf = w.as_bytes();
        for cut in 1..buf.len() {
            let mut dec = Decoder::new();
            let mut out = Vec::new();
            assert!(!dec.decode_into(&buf[..cut], &mut out), "prefix {cut}");
            assert!(out.is_empty());
            assert!(dec.names().is_empty(), "table rolled back at {cut}");
        }
        // Redefinition that disagrees with the table is refused.
        let mut dec = decoder_knowing("other");
        let mut out = Vec::new();
        assert!(!dec.decode_into(buf, &mut out));
        // A consistent redefinition (a frame the table already covers)
        // is accepted.
        let mut dec = decoder_knowing("a");
        assert!(dec.decode_into(buf, &mut out));
        assert_eq!(out.len(), 1);
    }
}
