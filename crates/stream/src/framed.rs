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
//! instead of truncating it). Frames are read in order, start to end;
//! payloads are encoded with [`crate::snapshot::Writer`] and decoded
//! with [`crate::snapshot::Reader`], the byte codec of every on-disk
//! format.

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
    /// The frame being appended (header, then payload), kept across
    /// appends so writing a frame allocates nothing once it has grown.
    frame: Vec<u8>,
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
                frame: Vec::new(),
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
            frame: Vec::new(),
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
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&Fnv1a::hash(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(frame)?;
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
        Ok(FrameScanner { file })
    }

    /// Visit every checksum-valid frame payload in order. Stops silently
    /// at the first torn or corrupt frame.
    ///
    /// # Errors
    /// I/O failure, or the first error the callback returns.
    pub fn for_each(&mut self, f: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(MAGIC_LEN as u64))?;
        let mut header = [0u8; FRAME_HEADER];
        let mut payload = Vec::new();
        while let FrameRead::Frame = read_frame(&mut self.file, &mut header, &mut payload)? {
            f(&payload)?;
        }
        Ok(())
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

        let mut scanned = Vec::new();
        let mut scanner = FrameScanner::open(&path, MAGIC, "test log").unwrap();
        scanner
            .for_each(&mut |p| {
                scanned.push(p.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(scanned.len(), 3);
        assert_eq!(scanned[1], b"beta-beta");
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
            .for_each(&mut |_| {
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
}
