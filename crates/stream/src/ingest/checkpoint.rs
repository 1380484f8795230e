//! Ingestion checkpoints: per-source resume cursors in front of an
//! engine snapshot, plus the atomic on-disk write protocol.
//!
//! Current layout (`BCPDFLW2`, all integers little-endian):
//!
//! ```text
//! magic     8 bytes  b"BCPDFLW2"
//! cursors   u32      count, then per cursor:
//!   stream          u32 length + UTF-8 name
//!   quarantined     u8    1 if the stream is out of service (stays so on resume)
//!   completed_time  i64   time of the last completed bag (NO_TIME if none)
//!   pending_time    i64   time of the held-back bag (NO_TIME if none)
//!   consumed        u64   input bytes consumed (0 for non-seekable sources)
//!   prefix_hash     u64   FNV-1a of those consumed bytes
//!   dim             u32   pending-row dimension
//!   rows            u32   pending-row count, then rows * dim f64s
//! snapshot  …       stream::snapshot engine checkpoint (every stream)
//! ```
//!
//! This is the only layout read. Files in the retired single-source
//! `BCPDFLW1` layout are refused as [`StateError::BadMagic`].
//!
//! Everything parses through [`crate::snapshot::Reader`], inheriting
//! its truncation-safe, allocation-guarded discipline, and the error
//! taxonomy is unchanged from the original CLI loader: short files are
//! [`StateError::Truncated`] (never "foreign file"), and pending rows
//! without a pending time are refused rather than silently dropped.

use super::source::StreamCursor;
use crate::snapshot::{Reader, SnapshotError, Writer};
use std::io::Write as _;
use std::sync::Arc;

// lint:fingerprint-begin(checkpoint-header)
/// Magic bytes of the multi-source checkpoint format.
pub const STATE_MAGIC: &[u8; 8] = b"BCPDFLW2";

/// Sentinel for "no time" in cursor fields.
pub const NO_TIME: i64 = i64::MIN;
// lint:fingerprint-end(checkpoint-header)

/// Name under which the CLI `follow` stream lives in the engine
/// snapshot and the cursor table.
pub const FOLLOW_STREAM: &str = "cli-follow";

/// Checkpoint parse/validation failures, with truncation, wrong file
/// type, and structural corruption kept distinct.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The file ended before the checkpoint structure did — a short or
    /// torn write, *not* a foreign file.
    Truncated,
    /// The magic bytes are wrong: this is not a current bags-cpd
    /// checkpoint (a foreign file, or one in the retired `BCPDFLW1`
    /// layout).
    BadMagic,
    /// Structurally invalid header content (reason attached).
    Corrupt(String),
    /// The embedded engine snapshot failed to parse or validate.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => {
                write!(f, "truncated checkpoint (file ends before its structure)")
            }
            StateError::BadMagic => write!(
                f,
                "not a bags-cpd checkpoint (expected BCPDFLW2; BCPDFLW1 files from \
                 older builds are no longer read)"
            ),
            StateError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            StateError::Snapshot(e) => write!(f, "checkpoint snapshot: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<SnapshotError> for StateError {
    fn from(e: SnapshotError) -> Self {
        match e {
            // A truncated embedded snapshot is still a truncated file.
            SnapshotError::Truncated => StateError::Truncated,
            other => StateError::Snapshot(other),
        }
    }
}

// lint:fingerprint-begin(cursor-layout)
// Everything from here to the matching end marker defines the on-disk
// byte layout of BCPDFLW2 checkpoints. Changing it requires a new magic
// (the framing's version field), then re-blessing
// checkpoint.rs.fingerprint via
// `cargo run -p lint -- check --update-fingerprints`.
fn put_cursor(w: &mut Writer, cursor: &StreamCursor) {
    w.u8(u8::from(cursor.quarantined));
    w.i64(cursor.completed_time.unwrap_or(NO_TIME));
    match &cursor.pending {
        Some((t, rows)) if !rows.is_empty() => {
            w.i64(*t);
            w.u64(cursor.consumed);
            w.u64(cursor.prefix_hash);
            w.u32(rows[0].len() as u32);
            w.u32(rows.len() as u32);
            for row in rows {
                for &x in row {
                    w.f64(x);
                }
            }
        }
        _ => {
            w.i64(NO_TIME);
            w.u64(cursor.consumed);
            w.u64(cursor.prefix_hash);
            w.u32(0);
            w.u32(0);
        }
    }
}

fn read_cursor(r: &mut Reader<'_>) -> Result<StreamCursor, StateError> {
    let quarantined = match r.take(1).map_err(StateError::from)? {
        [0] => false,
        [1] => true,
        other => {
            return Err(StateError::Corrupt(format!(
                "invalid quarantine flag {}",
                other[0]
            )))
        }
    };
    let completed_time = r.i64()?;
    let completed_time = (completed_time != NO_TIME).then_some(completed_time);
    let pending_time = r.i64()?;
    let consumed = r.u64()?;
    let prefix_hash = r.u64()?;
    let dim = r.u32()? as usize;
    let count = r.u32()? as usize;
    if pending_time == NO_TIME && count > 0 {
        return Err(StateError::Corrupt(format!(
            "{count} pending rows but no pending time — refusing to drop buffered data"
        )));
    }
    if pending_time != NO_TIME && count == 0 {
        return Err(StateError::Corrupt("a pending time with no rows".into()));
    }
    if count > 0 && dim == 0 {
        return Err(StateError::Corrupt("pending rows of dimension 0".into()));
    }
    let mut rows = Vec::with_capacity(r.bounded_capacity(count, dim.saturating_mul(8)));
    for _ in 0..count {
        let mut row = Vec::with_capacity(r.bounded_capacity(dim, 8));
        for _ in 0..dim {
            row.push(r.f64()?);
        }
        rows.push(row);
    }
    Ok(StreamCursor {
        completed_time,
        pending: (pending_time != NO_TIME).then_some((pending_time, rows)),
        consumed,
        prefix_hash,
        quarantined,
    })
}

/// Serialize a checkpoint: the per-stream resume cursors, then the
/// engine snapshot bytes.
pub fn encode_checkpoint<S: AsRef<str>>(cursors: &[(S, StreamCursor)], snapshot: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + cursors.len() * 64 + snapshot.len());
    w.bytes(STATE_MAGIC);
    w.u32(cursors.len() as u32);
    for (name, cursor) in cursors {
        w.str(name.as_ref());
        put_cursor(&mut w, cursor);
    }
    w.bytes(snapshot);
    w.into_bytes()
}

/// Parse a checkpoint into its cursor table and the borrowed engine
/// snapshot bytes (decode those with [`crate::snapshot::decode_engine`]
/// or [`crate::StreamEngine::restore`]).
///
/// # Errors
/// [`StateError::Truncated`] for a short file, [`StateError::BadMagic`]
/// for a foreign file, or [`StateError::Corrupt`] for inconsistent
/// cursor content (including pending rows without a pending time, which
/// are refused rather than dropped).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(NamedCursors, &[u8]), StateError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8).map_err(|_| StateError::Truncated)?;
    if magic != STATE_MAGIC {
        return Err(StateError::BadMagic);
    }
    let count = r.u32()? as usize;
    // Each cursor occupies at least 4 (name length) + 40 (fixed fields).
    let mut cursors = Vec::with_capacity(r.bounded_capacity(count, 44));
    for _ in 0..count {
        let name = r.str().map_err(|e| match e {
            SnapshotError::Truncated => StateError::Truncated,
            other => StateError::Corrupt(other.to_string()),
        })?;
        if name.is_empty() {
            return Err(StateError::Corrupt("empty stream name in a cursor".into()));
        }
        if cursors.iter().any(|(n, _)| *n == name) {
            return Err(StateError::Corrupt(format!(
                "duplicate cursor for stream '{name}'"
            )));
        }
        let cursor = read_cursor(&mut r)?;
        cursors.push((name, cursor));
    }
    Ok((cursors, r.rest()))
}
// lint:fingerprint-end(cursor-layout)

/// Atomically persist checkpoint bytes: write a sibling temp file,
/// fsync it, rename over the target, and best-effort fsync the
/// directory — an interrupted write never destroys the previous
/// checkpoint, and a power loss cannot leave a zero-length file behind
/// the new name.
///
/// # Errors
/// The underlying I/O error, annotated with the offending path.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = {
        let mut p = path.as_os_str().to_owned();
        p.push(".tmp");
        std::path::PathBuf::from(p)
    };
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        f.write_all(bytes)
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        // Durability, not just process-crash atomicity: the data must be
        // on disk before the rename commits.
        f.sync_all()
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            std::path::Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Convenience alias used by sources when reporting cursors.
pub type CursorList = Vec<(Arc<str>, StreamCursor)>;

/// A decoded cursor table: `(stream name, cursor)` pairs.
pub type NamedCursors = Vec<(String, StreamCursor)>;

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(t: i64) -> StreamCursor {
        StreamCursor {
            completed_time: Some(t),
            pending: Some((t + 1, vec![vec![0.5, 1.5], vec![2.5, 3.5]])),
            consumed: 99,
            prefix_hash: 1234,
            quarantined: t % 2 == 0,
        }
    }

    #[test]
    fn round_trip_many_cursors() {
        let cursors = vec![
            ("alpha".to_string(), cursor(3)),
            (
                "beta".to_string(),
                StreamCursor {
                    completed_time: None,
                    pending: None,
                    consumed: 0,
                    prefix_hash: 0,
                    quarantined: false,
                },
            ),
        ];
        let snapshot = b"SNAPBYTES";
        let bytes = encode_checkpoint(&cursors, snapshot);
        let (back, snap) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, cursors);
        assert_eq!(snap, snapshot);
    }

    #[test]
    fn truncation_foreign_and_corruption_are_distinct() {
        let bytes = encode_checkpoint(&[("s".to_string(), cursor(1))], b"SNAP");
        assert_eq!(
            decode_checkpoint(&bytes[..4]),
            Err(StateError::Truncated),
            "shorter than the magic is truncation"
        );
        assert_eq!(decode_checkpoint(&bytes[..20]), Err(StateError::Truncated));

        let mut foreign = bytes.clone();
        foreign[..8].copy_from_slice(b"NOTBAGS!");
        assert_eq!(decode_checkpoint(&foreign), Err(StateError::BadMagic));

        let dup = encode_checkpoint(
            &[("s".to_string(), cursor(1)), ("s".to_string(), cursor(2))],
            b"",
        );
        assert!(matches!(
            decode_checkpoint(&dup),
            Err(StateError::Corrupt(_))
        ));
    }

    #[test]
    fn pending_rows_without_time_are_refused() {
        let mut w = Writer::new();
        w.bytes(STATE_MAGIC);
        w.u32(1);
        w.str("s");
        w.u8(0); // not quarantined
        w.i64(4); // completed
        w.i64(NO_TIME); // no pending time…
        w.u64(0);
        w.u64(0);
        w.u32(1);
        w.u32(2); // …but two pending rows
        w.f64(0.5);
        w.f64(1.5);
        match decode_checkpoint(&w.into_bytes()) {
            Err(StateError::Corrupt(why)) => {
                assert!(why.contains("pending rows"), "{why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_not_truncates() {
        let dir = std::env::temp_dir().join("bags_cpd_ck_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
    }
}
