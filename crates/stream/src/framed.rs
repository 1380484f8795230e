//! The framed-log core behind the runtime's durable append-only log,
//! the [`crate::scorelog`] — which is also what degraded-mode egress
//! spills to. This module owns the on-disk shape:
//!
//! - an 8-byte magic (per log type, carrying its format version digit,
//!   e.g. `BCPDSLG1`) so a log never parses a foreign file;
//! - frames of `[u32 LE payload length][u64 LE FNV-1a(payload)][payload]`;
//! - torn tails (a `kill -9` mid-append) detected on open — bad length,
//!   bad checksum, short read, or a payload the owner refuses — and
//!   truncated away, so a log never replays garbage;
//! - absurd frame lengths refused ([`MAX_FRAME`]): a torn length prefix
//!   can decode to anything;
//! - [`FramedLog::sync`] is an `fsync`, which is what lets a durable
//!   log participate in the pipeline's two-phase checkpoint contract.
//!
//! [`FramedLog`] is the read-write handle (append/clear);
//! [`FrameScanner`] is the read-only side for tooling that inspects a
//! log another process may still be writing (it stops at the torn tail
//! instead of truncating it).

use crate::hash::Fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header: u32 payload length + u64 FNV-1a of the payload.
pub const FRAME_HEADER: usize = 4 + 8;

/// Refuse absurd frame lengths (a torn length prefix can decode to
/// anything); no legitimate frame approaches this.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Magic length shared by every framed log.
const MAGIC_LEN: usize = 8;

/// What a scan callback decided about one well-formed frame.
type FrameAccept<'a> = dyn FnMut(&[u8]) -> bool + 'a;

/// A durable append-only log of checksummed frames. See the module docs
/// for the format and crash-safety properties.
pub struct FramedLog {
    file: File,
    path: PathBuf,
}

impl FramedLog {
    /// Open (or create) the log at `path`, scanning existing frames and
    /// truncating a torn tail left by a crash mid-append. `accept` is
    /// called once per checksum-valid frame payload, in order; returning
    /// `false` marks the frame (and everything after it) as garbage to
    /// truncate — owners validate their payload encoding here and count
    /// their records as a side effect.
    ///
    /// # Errors
    /// I/O failure, or an existing file whose magic is not `magic`
    /// (refusing to truncate a file this log does not own; `label`
    /// names the log type in the error).
    pub fn open(
        path: &Path,
        magic: &[u8; 8],
        label: &str,
        accept: &mut FrameAccept<'_>,
    ) -> io::Result<FramedLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(magic)?;
            file.sync_data()?;
            return Ok(FramedLog {
                file,
                path: path.to_path_buf(),
            });
        }
        check_magic(&mut file, magic, label, path)?;
        // Scan frames; stop at the first torn/corrupt/refused one and
        // truncate.
        let mut good_end = MAGIC_LEN as u64;
        let mut header = [0u8; FRAME_HEADER];
        let mut payload = Vec::new();
        while let FrameRead::Frame = read_frame(&mut file, &mut header, &mut payload)? {
            if !accept(&payload) {
                break;
            }
            good_end += (FRAME_HEADER + payload.len()) as u64;
        }
        if good_end < len {
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(FramedLog {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one frame around `payload`. Durable only after
    /// [`FramedLog::sync`]. Returns the bytes written (header + payload).
    ///
    /// # Errors
    /// I/O failure (the frame may be torn on disk, which the next open
    /// truncates away), or a payload larger than [`MAX_FRAME`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if payload.is_empty() || payload.len() as u64 > u64::from(MAX_FRAME) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame payload must be non-empty and within the maximum frame size",
            ));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&Fnv1a::hash(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        Ok(frame.len() as u64)
    }

    /// Make every appended frame durable (`fsync`).
    ///
    /// # Errors
    /// I/O failure; the caller must not treat pending frames as durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every frame: truncate back to the magic and sync.
    ///
    /// # Errors
    /// I/O failure.
    pub fn clear(&mut self) -> io::Result<()> {
        self.file.set_len(MAGIC_LEN as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()
    }
}

/// Read-only access to a framed log, for tooling (query, diff) that
/// inspects a log a live session may still be appending to: a torn tail
/// ends the scan instead of being truncated.
pub struct FrameScanner {
    file: File,
    path: PathBuf,
}

impl FrameScanner {
    /// Open `path` read-only, verifying its magic.
    ///
    /// # Errors
    /// I/O failure, or a file whose magic is not `magic` (`label` names
    /// the expected log type in the error).
    pub fn open(path: &Path, magic: &[u8; 8], label: &str) -> io::Result<FrameScanner> {
        let mut file = OpenOptions::new().read(true).open(path)?;
        check_magic(&mut file, magic, label, path)?;
        Ok(FrameScanner {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Visit every checksum-valid frame in order, with its byte offset
    /// (of the frame header, usable with [`FrameScanner::frame_at`]).
    /// Stops silently at the first torn or corrupt frame.
    ///
    /// # Errors
    /// I/O failure, or the first error the callback returns.
    pub fn for_each(&mut self, f: &mut dyn FnMut(u64, &[u8]) -> io::Result<()>) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(MAGIC_LEN as u64))?;
        let mut offset = MAGIC_LEN as u64;
        let mut header = [0u8; FRAME_HEADER];
        let mut payload = Vec::new();
        loop {
            match read_frame(&mut self.file, &mut header, &mut payload)? {
                FrameRead::Frame => {}
                FrameRead::Torn => return Ok(()),
            }
            f(offset, &payload)?;
            offset += (FRAME_HEADER + payload.len()) as u64;
        }
    }

    /// Read the one frame whose header starts at `offset` (as reported
    /// by [`FrameScanner::for_each`]) into `payload`.
    ///
    /// # Errors
    /// I/O failure, or a torn/corrupt frame at that offset
    /// (`InvalidData`) — offsets from a completed `for_each` over an
    /// unchanged file never fail.
    pub fn frame_at(&mut self, offset: u64, payload: &mut Vec<u8>) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; FRAME_HEADER];
        match read_frame(&mut self.file, &mut header, payload)? {
            FrameRead::Frame => Ok(()),
            FrameRead::Torn => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "no valid frame at offset {offset} in {}",
                    self.path.display()
                ),
            )),
        }
    }
}

/// Outcome of reading one frame at the current position.
enum FrameRead {
    /// `payload` holds a checksum-valid frame.
    Frame,
    /// Torn or corrupt (short header, absurd length, short payload, bad
    /// checksum) — the end of the usable log.
    Torn,
}

fn read_frame(
    file: &mut File,
    header: &mut [u8; FRAME_HEADER],
    payload: &mut Vec<u8>,
) -> io::Result<FrameRead> {
    if read_up_to(file, header)? < FRAME_HEADER {
        return Ok(FrameRead::Torn);
    }
    let frame_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let sum = u64::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    if frame_len == 0 || frame_len > MAX_FRAME {
        return Ok(FrameRead::Torn);
    }
    payload.resize(frame_len as usize, 0);
    if read_up_to(file, payload)? < frame_len as usize {
        return Ok(FrameRead::Torn);
    }
    if Fnv1a::hash(payload) != sum {
        return Ok(FrameRead::Torn);
    }
    Ok(FrameRead::Frame)
}

fn check_magic(file: &mut File, magic: &[u8; 8], label: &str, path: &Path) -> io::Result<()> {
    let mut got = [0u8; MAGIC_LEN];
    let n = read_up_to(file, &mut got)?;
    if n < MAGIC_LEN || &got != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a {label} (bad magic)", path.display()),
        ));
    }
    Ok(())
}

/// Read until `buf` is full or EOF; returns bytes read (an `Interrupted`
/// read is retried).
fn read_up_to(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Little-endian encode/decode helpers shared by every framed-log
/// payload format (hand-rolled — no serde in this workspace):
/// integers, f64 bit patterns, length-prefixed UTF-8.
pub mod wire {
    /// Append a little-endian u32.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its little-endian bit pattern.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    /// A bounds-checked decoding cursor over one frame payload; every
    /// accessor returns `None` past the end (decoders turn that into a
    /// refused frame, never a panic).
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        /// Decode from the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        /// Whether every byte has been consumed (a well-formed frame
        /// decodes exactly, with no trailing garbage).
        pub fn at_end(&self) -> bool {
            self.pos == self.buf.len()
        }

        /// Take `n` raw bytes.
        pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            let slice = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(slice)
        }

        /// One byte.
        pub fn u8(&mut self) -> Option<u8> {
            self.take(1).map(|b| b[0])
        }

        /// Little-endian u32.
        pub fn u32(&mut self) -> Option<u32> {
            self.take(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Little-endian u64.
        pub fn u64(&mut self) -> Option<u64> {
            self.take(8)
                .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        }

        /// f64 from its little-endian bit pattern.
        pub fn f64(&mut self) -> Option<f64> {
            self.u64().map(f64::from_bits)
        }

        /// Length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Option<&'a str> {
            let len = self.u32()? as usize;
            std::str::from_utf8(self.take(len)?).ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"BCPDTST1";

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-framed-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn frames_round_trip_across_reopen_and_scanners_agree() {
        let dir = tempdir();
        let path = dir.join("log.bin");
        {
            let mut log = FramedLog::open(&path, MAGIC, "test log", &mut |_| true).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta-beta").unwrap();
            log.sync().unwrap();
        }
        let mut seen = Vec::new();
        let mut log = FramedLog::open(&path, MAGIC, "test log", &mut |p| {
            seen.push(p.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta-beta".to_vec()]);
        log.append(b"gamma").unwrap();

        let mut offsets = Vec::new();
        let mut scanner = FrameScanner::open(&path, MAGIC, "test log").unwrap();
        scanner
            .for_each(&mut |off, p| {
                offsets.push((off, p.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(offsets.len(), 3);
        let mut payload = Vec::new();
        scanner.frame_at(offsets[1].0, &mut payload).unwrap();
        assert_eq!(payload, b"beta-beta");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_on_open_but_not_readonly() {
        let dir = tempdir();
        let path = dir.join("torn.bin");
        {
            let mut log = FramedLog::open(&path, MAGIC, "test log", &mut |_| true).unwrap();
            log.append(b"keep").unwrap();
            log.append(b"torn").unwrap();
            log.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 2).unwrap();
        drop(file);

        // Read-only: stops at the tear, leaves the file alone.
        let mut frames = 0;
        let mut scanner = FrameScanner::open(&path, MAGIC, "test log").unwrap();
        scanner
            .for_each(&mut |_, _| {
                frames += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(frames, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 2);

        // Read-write: truncates the tear away.
        let mut kept = 0;
        drop(
            FramedLog::open(&path, MAGIC, "test log", &mut |_| {
                kept += 1;
                true
            })
            .unwrap(),
        );
        assert_eq!(kept, 1);
        assert!(std::fs::metadata(&path).unwrap().len() < len - 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_payload_truncates_and_foreign_magic_errors() {
        let dir = tempdir();
        let path = dir.join("refuse.bin");
        {
            let mut log = FramedLog::open(&path, MAGIC, "test log", &mut |_| true).unwrap();
            log.append(b"good").unwrap();
            log.append(b"BAD!").unwrap();
            log.sync().unwrap();
        }
        let mut seen = Vec::new();
        drop(
            FramedLog::open(&path, MAGIC, "test log", &mut |p| {
                seen.push(p.to_vec());
                p != b"BAD!"
            })
            .unwrap(),
        );
        // The refused frame is truncated; the next open sees one frame.
        let mut second = Vec::new();
        drop(
            FramedLog::open(&path, MAGIC, "test log", &mut |p| {
                second.push(p.to_vec());
                true
            })
            .unwrap(),
        );
        assert_eq!(second, vec![b"good".to_vec()]);

        let foreign = dir.join("foreign.bin");
        std::fs::write(&foreign, b"not a framed log").unwrap();
        assert!(FramedLog::open(&foreign, MAGIC, "test log", &mut |_| true).is_err());
        assert!(FrameScanner::open(&foreign, MAGIC, "test log").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_resets_to_magic() {
        let dir = tempdir();
        let path = dir.join("clear.bin");
        let mut log = FramedLog::open(&path, MAGIC, "test log", &mut |_| true).unwrap();
        log.append(b"x").unwrap();
        log.clear().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 8);
        log.append(b"y").unwrap();
        log.sync().unwrap();
        let mut seen = 0;
        drop(
            FramedLog::open(&path, MAGIC, "test log", &mut |_| {
                seen += 1;
                true
            })
            .unwrap(),
        );
        assert_eq!(seen, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_cursor_round_trips_and_bounds_checks() {
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, 7);
        wire::put_u64(&mut buf, u64::MAX - 1);
        wire::put_f64(&mut buf, -0.125);
        wire::put_str(&mut buf, "naïve");
        let mut cur = wire::Cursor::new(&buf);
        assert_eq!(cur.u32(), Some(7));
        assert_eq!(cur.u64(), Some(u64::MAX - 1));
        assert_eq!(cur.f64().map(f64::to_bits), Some((-0.125f64).to_bits()));
        assert_eq!(cur.str(), Some("naïve"));
        assert!(cur.at_end());
        assert_eq!(cur.u8(), None, "reads past the end are None, not panics");
    }
}
