//! Binary snapshot format for engine checkpoint/restore, plus the
//! [`Reader`]/[`Writer`] primitives it is built on: the one byte codec
//! of every on-disk format, shared with the `--state` checkpoint
//! ([`crate::ingest::checkpoint`]) and the score log
//! ([`crate::scorelog::format`]) so all three keep one error discipline.
//!
//! Layout (all integers little-endian, floats as IEEE-754 bit patterns):
//!
//! ```text
//! magic    8 bytes  b"BCPDSNAP"
//! version  u32      4
//! config   fingerprint of the DetectorConfig (see below)
//! seed     u64      engine master seed
//! names    u64      intern-table size, then per name (id order):
//!   name       u32 length + UTF-8 bytes
//! streams  u64      count, then per stream (ascending id):
//!   id         u32 index into the intern table
//!   state      OnlineState (see encode_state)
//! ```
//!
//! Version 2 replaced the v1 name-keyed stream list with the engine's
//! intern table plus id-keyed states: restoring rebuilds the table in
//! the same order, so [`crate::StreamId`] handles obtained before a
//! snapshot stay valid after a restore and a restore → snapshot round
//! trip is byte-identical. Version 3 flattened each stream's cached
//! distance rows into one contiguous buffer (matching the in-place
//! window matrix of [`crate::SignatureWindow`]): a single `u32` count
//! followed by the `n (n-1) / 2` forward-row values. Version 4 gave
//! the config fingerprint's solver tag room for solvers other than the
//! exact simplex; those solvers are gone, and the only tag written is
//! `0`, so for every configuration that can still be built a v3 file
//! differs from a v4 one only in its version field, and both read.
//! Versions 1 and 2 are refused with [`SnapshotError::BadVersion`]; a
//! file written under a retired solver's tag fails with
//! [`SnapshotError::ConfigMismatch`].
//!
//! The config fingerprint captures every parameter that affects results
//! (windows, score, weighting, signature method, metric, solver,
//! estimator constants, bootstrap); restore refuses a snapshot whose
//! fingerprint differs from the engine's configuration rather than
//! silently resuming with different semantics.

use crate::online::OnlineState;
use bagcpd::score::EmdSolver;
use bagcpd::{DetectorConfig, GroundMetric, ScoreKind, SignatureMethod, Weighting};
use emd::Signature;

// lint:fingerprint-begin(snapshot-header)
/// Magic bytes opening every snapshot.
pub const MAGIC: &[u8; 8] = b"BCPDSNAP";
/// Current format version.
pub const VERSION: u32 = 4;
/// Oldest version [`decode_engine`] still reads.
pub const MIN_READ_VERSION: u32 = 3;
// lint:fingerprint-end(snapshot-header)

/// Snapshot parse/validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The magic bytes are wrong — not a snapshot.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The snapshot was taken under a different detector configuration.
    ConfigMismatch,
    /// Structurally invalid content (reason attached).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a bags-cpd snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ConfigMismatch => {
                write!(
                    f,
                    "snapshot was taken under a different detector configuration"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- primitive writer --------------------------------------------------

/// Little-endian binary writer over a growable buffer — the encode-side
/// counterpart of [`Reader`].
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Empty writer with a pre-reserved buffer.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string (u32 length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Overwrite the little-endian `u32` written at byte `at` — a count
    /// known only once the records behind it are written.
    ///
    /// # Panics
    /// If fewer than `at + 4` bytes have been written.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Drop everything written, keeping the buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

// ---- primitive reader --------------------------------------------------

/// Cursor over a checkpoint buffer with truncation-safe reads: every
/// accessor fails with [`SnapshotError::Truncated`] instead of panicking
/// when the buffer ends early, and [`Reader::bounded_capacity`] caps
/// pre-allocations so corrupt length fields cannot trigger huge
/// reservations.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Consume the next `n` bytes.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consume everything left in the buffer (possibly empty).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Consume the next `N` bytes as an array.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`] if fewer than `N` bytes remain.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let (bytes, rest) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(SnapshotError::Truncated)?;
        self.pos = self.buf.len() - rest.len();
        Ok(*bytes)
    }

    /// Read a byte.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a little-endian `i64`.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`].
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Corrupt`] for
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pre-allocation guard: never reserve more elements than the
    /// remaining bytes could possibly encode (each element of every
    /// decoded collection occupies at least `min_size` bytes), so a
    /// corrupt length field cannot trigger a huge allocation before the
    /// very next read fails with `Truncated`.
    pub fn bounded_capacity(&self, declared: usize, min_size: usize) -> usize {
        declared.min(self.remaining() / min_size.max(1))
    }
}

// ---- config fingerprint ------------------------------------------------

// lint:fingerprint-begin(engine-layout)
// Everything from here to the matching end marker defines the on-disk
// byte layout. Changing it requires a VERSION bump (and, for files
// that must keep reading, a migration path in read_state), then
// re-blessing snapshot.rs.fingerprint via
// `cargo run -p lint -- check --update-fingerprints`.
/// Serialize every result-affecting configuration parameter.
fn put_config(w: &mut Writer, cfg: &DetectorConfig) {
    w.u64(cfg.tau as u64);
    w.u64(cfg.tau_prime as u64);
    w.u8(match cfg.score {
        ScoreKind::LikelihoodRatio => 0,
        ScoreKind::SymmetrizedKl => 1,
    });
    w.u8(match cfg.weighting {
        Weighting::Equal => 0,
        Weighting::Discounted => 1,
    });
    match &cfg.signature {
        SignatureMethod::KMeans { k } => {
            w.u8(0);
            w.u64(*k as u64);
        }
        SignatureMethod::KMedoids { k } => {
            w.u8(1);
            w.u64(*k as u64);
        }
        SignatureMethod::Lvq { k } => {
            w.u8(2);
            w.u64(*k as u64);
        }
        SignatureMethod::Histogram { width } => {
            w.u8(3);
            w.f64(*width);
        }
    }
    w.u8(match cfg.metric {
        GroundMetric::Euclidean => 0,
        GroundMetric::Manhattan => 1,
        GroundMetric::Chebyshev => 2,
    });
    // Tags 1 and 2 belonged to retired approximate solvers; files
    // carrying them fail as ConfigMismatch.
    w.u8(match cfg.solver {
        EmdSolver::Exact => 0,
    });
    w.f64(cfg.estimator.offset);
    w.f64(cfg.estimator.scale);
    w.f64(cfg.estimator.dist_floor);
    w.u64(cfg.bootstrap.replicates as u64);
    w.f64(cfg.bootstrap.alpha);
}

/// The fingerprint bytes of a configuration.
pub fn config_fingerprint(cfg: &DetectorConfig) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    put_config(&mut w, cfg);
    w.into_bytes()
}

// ---- OnlineState -------------------------------------------------------

fn put_signature(w: &mut Writer, sig: &Signature) {
    w.u32(sig.len() as u32);
    w.u32(sig.dim() as u32);
    for p in sig.points() {
        for &x in p {
            w.f64(x);
        }
    }
    for &weight in sig.weights() {
        w.f64(weight);
    }
}

fn read_signature(r: &mut Reader<'_>) -> Result<Signature, SnapshotError> {
    let k = r.u32()? as usize;
    let dim = r.u32()? as usize;
    if k == 0 || dim == 0 || k.saturating_mul(dim) > 16_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible signature shape {k} x {dim}"
        )));
    }
    let mut points = Vec::with_capacity(r.bounded_capacity(k, dim.saturating_mul(8)));
    for _ in 0..k {
        let mut p = Vec::with_capacity(r.bounded_capacity(dim, 8));
        for _ in 0..dim {
            p.push(r.f64()?);
        }
        points.push(p);
    }
    let mut weights = Vec::with_capacity(r.bounded_capacity(k, 8));
    for _ in 0..k {
        weights.push(r.f64()?);
    }
    Signature::new(points, weights)
        .map_err(|e| SnapshotError::Corrupt(format!("invalid signature: {e}")))
}

/// Append one stream state (current-version framing: the flattened
/// distance rows are written as one `u32` count plus values).
pub fn encode_state(w: &mut Writer, state: &OnlineState) {
    w.u64(state.seed);
    w.u64(state.pushed);
    w.u64(state.emitted);
    match state.dim {
        None => w.u32(0),
        Some(d) => w.u32(d + 1),
    }
    w.u32(state.sigs.len() as u32);
    for sig in &state.sigs {
        put_signature(w, sig);
    }
    w.u32(state.rows.len() as u32);
    for &d in &state.rows {
        w.f64(d);
    }
    w.u32(state.ci_up_hist.len() as u32);
    for &u in &state.ci_up_hist {
        w.f64(u);
    }
}

fn read_state(r: &mut Reader<'_>) -> Result<OnlineState, SnapshotError> {
    let seed = r.u64()?;
    let pushed = r.u64()?;
    let emitted = r.u64()?;
    let dim = match r.u32()? {
        0 => None,
        d => Some(d - 1),
    };
    let nsigs = r.u32()? as usize;
    if nsigs > 1_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible retained signature count {nsigs}"
        )));
    }
    // Each signature takes at least 8 bytes (shape header) on the wire.
    let mut sigs = Vec::with_capacity(r.bounded_capacity(nsigs, 8));
    for _ in 0..nsigs {
        sigs.push(read_signature(r)?);
    }
    let expected_rows = nsigs * nsigs.saturating_sub(1) / 2;
    let total = r.u32()? as usize;
    if total != expected_rows {
        return Err(SnapshotError::Corrupt(format!(
            "{total} distance entries for {nsigs} signatures (expected {expected_rows})"
        )));
    }
    let mut rows = Vec::with_capacity(r.bounded_capacity(total, 8));
    for _ in 0..total {
        rows.push(r.f64()?);
    }
    let hist_len = r.u32()? as usize;
    if hist_len > 1_000_000 {
        return Err(SnapshotError::Corrupt("implausible CI history".into()));
    }
    let mut ci_up_hist = Vec::with_capacity(r.bounded_capacity(hist_len, 8));
    for _ in 0..hist_len {
        ci_up_hist.push(r.f64()?);
    }
    Ok(OnlineState {
        seed,
        pushed,
        emitted,
        dim,
        sigs,
        rows,
        ci_up_hist,
    })
}

// ---- whole engine ------------------------------------------------------

/// A decoded engine checkpoint: the master seed, the intern table
/// (`names[id]` is the name behind [`crate::StreamId`] `id`), and the
/// live streams' states keyed by intern-table index. Retired streams
/// keep their table entry but carry no state, so the stream list can be
/// shorter than the table.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Engine master seed.
    pub master_seed: u64,
    /// Stream-name intern table, in id order.
    pub names: Vec<String>,
    /// Live stream states as `(intern-table index, state)`, ascending.
    pub streams: Vec<(u32, OnlineState)>,
}

/// Serialize an engine checkpoint: master seed, the intern table in id
/// order, and every live stream's state sorted by id — so equal engine
/// states produce equal bytes regardless of collection order.
pub fn encode_engine<S: AsRef<str>>(
    cfg: &DetectorConfig,
    master_seed: u64,
    names: &[S],
    mut streams: Vec<(u32, OnlineState)>,
) -> Vec<u8> {
    streams.sort_by_key(|(id, _)| *id);
    let mut w = Writer::with_capacity(64 + names.len() * 24 + streams.len() * 256);
    w.bytes(MAGIC);
    w.u32(VERSION);
    put_config(&mut w, cfg);
    w.u64(master_seed);
    w.u64(names.len() as u64);
    for name in names {
        w.str(name.as_ref());
    }
    w.u64(streams.len() as u64);
    for (id, state) in &streams {
        debug_assert!((*id as usize) < names.len(), "stream id outside the table");
        w.u32(*id);
        encode_state(&mut w, state);
    }
    w.into_bytes()
}

/// Parse an engine checkpoint, validating magic, version, that the
/// embedded configuration fingerprint matches `cfg`, and that the
/// stream ids are distinct members of the intern table.
///
/// # Errors
/// Any [`SnapshotError`].
pub fn decode_engine(bytes: &[u8], cfg: &DetectorConfig) -> Result<EngineSnapshot, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if !(MIN_READ_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::BadVersion(version));
    }
    let expected = config_fingerprint(cfg);
    if r.take(expected.len())? != expected.as_slice() {
        return Err(SnapshotError::ConfigMismatch);
    }
    let master_seed = r.u64()?;
    let name_count = r.u64()?;
    if name_count > 100_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible intern-table size {name_count}"
        )));
    }
    // A table entry is at least its 4-byte length prefix.
    let mut names = Vec::with_capacity(r.bounded_capacity(name_count as usize, 4));
    for _ in 0..name_count {
        names.push(r.str()?);
    }
    {
        let mut seen = std::collections::HashSet::with_capacity(names.len());
        for name in &names {
            if !seen.insert(name.as_str()) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate name '{name}' in the intern table"
                )));
            }
        }
    }
    let count = r.u64()?;
    if count > name_count {
        return Err(SnapshotError::Corrupt(format!(
            "{count} stream states for {name_count} interned names"
        )));
    }
    // A stream entry is at least 40 bytes (id + state header).
    let mut streams: Vec<(u32, OnlineState)> =
        Vec::with_capacity(r.bounded_capacity(count as usize, 40));
    for _ in 0..count {
        let id = r.u32()?;
        if id as usize >= names.len() {
            return Err(SnapshotError::Corrupt(format!(
                "stream id {id} outside the intern table of {} names",
                names.len()
            )));
        }
        if let Some((prev, _)) = streams.last() {
            if id <= *prev {
                return Err(SnapshotError::Corrupt(format!(
                    "stream ids not strictly increasing ({id} after {prev})"
                )));
            }
        }
        let state = read_state(&mut r)?;
        streams.push((id, state));
    }
    if !r.finished() {
        return Err(SnapshotError::Corrupt("trailing bytes".into()));
    }
    Ok(EngineSnapshot {
        master_seed,
        names,
        streams,
    })
}
// lint:fingerprint-end(engine-layout)

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::BootstrapConfig;

    fn state(seed: u64) -> OnlineState {
        OnlineState {
            seed,
            pushed: 5,
            emitted: 0,
            dim: Some(1),
            sigs: vec![
                Signature::new(vec![vec![0.0], vec![1.5]], vec![1.0, 2.0]).unwrap(),
                Signature::new(vec![vec![3.0]], vec![4.0]).unwrap(),
            ],
            rows: vec![2.25],
            ci_up_hist: vec![],
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            tau: 3,
            tau_prime: 2,
            bootstrap: BootstrapConfig {
                replicates: 50,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn engine_round_trip() {
        let names = ["beta", "alpha"];
        let streams = vec![(1, state(1)), (0, state(2))];
        let bytes = encode_engine(&cfg(), 99, &names, streams);
        let snap = decode_engine(&bytes, &cfg()).unwrap();
        assert_eq!(snap.master_seed, 99);
        assert_eq!(snap.names, vec!["beta", "alpha"], "table keeps id order");
        assert_eq!(snap.streams.len(), 2);
        assert_eq!(snap.streams[0], (0, state(2)), "streams are id-sorted");
        assert_eq!(snap.streams[1], (1, state(1)));
    }

    #[test]
    fn retired_streams_keep_their_table_entry() {
        // A name with no state (a retired stream) survives the round
        // trip, so its StreamId stays valid after restore.
        let bytes = encode_engine(&cfg(), 3, &["live", "retired"], vec![(0, state(1))]);
        let snap = decode_engine(&bytes, &cfg()).unwrap();
        assert_eq!(snap.names.len(), 2);
        assert_eq!(snap.streams.len(), 1);
    }

    #[test]
    fn rejects_bad_magic_version_truncation() {
        let bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_engine(&bad, &cfg()), Err(SnapshotError::BadMagic));

        let mut bad = bytes.clone();
        bad[8] = 200;
        assert_eq!(
            decode_engine(&bad, &cfg()),
            Err(SnapshotError::BadVersion(200))
        );

        assert_eq!(
            decode_engine(&bytes[..bytes.len() - 3], &cfg()),
            Err(SnapshotError::Truncated)
        );

        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            decode_engine(&trailing, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_version_1_with_explicit_bad_version() {
        // v1 and v2 snapshots (same magic, version field 1 or 2) must
        // fail loudly as BadVersion, never parse as garbage.
        for version in [1u32, 2] {
            let mut bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_engine(&bytes, &cfg()),
                Err(SnapshotError::BadVersion(version))
            );
        }
    }

    #[test]
    fn rejects_invalid_stream_ids() {
        // Id outside the table: build the raw layout with the public
        // Writer, pointing the only stream at id 7 of a 1-entry table.
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.bytes(&config_fingerprint(&cfg()));
        w.u64(1);
        w.u64(1);
        w.str("a");
        w.u64(1);
        w.u32(7);
        encode_state(&mut w, &state(1));
        assert!(matches!(
            decode_engine(&w.into_bytes(), &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));

        // Duplicate id.
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.bytes(&config_fingerprint(&cfg()));
        w.u64(1);
        w.u64(2);
        w.str("a");
        w.str("b");
        w.u64(2);
        w.u32(0);
        encode_state(&mut w, &state(1));
        w.u32(0);
        encode_state(&mut w, &state(2));
        assert!(matches!(
            decode_engine(&w.into_bytes(), &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_duplicate_interned_names() {
        let bytes = encode_engine(&cfg(), 1, &["same", "same"], vec![]);
        assert!(matches!(
            decode_engine(&bytes, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_declared_lengths_fail_fast_without_allocating() {
        // A tiny buffer claiming 100M interned names must fail with
        // Truncated (after a bounded, byte-budget-limited reservation),
        // not attempt a multi-GB Vec::with_capacity.
        let bytes = encode_engine::<&str>(&cfg(), 1, &[], vec![]);
        let names_at = bytes.len() - 16; // names count, then stream count
        let mut huge = bytes;
        huge[names_at..names_at + 8].copy_from_slice(&100_000_000u64.to_le_bytes());
        huge.push(0); // one stray byte of "table data"
        assert!(matches!(
            decode_engine(&huge, &cfg()),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn rejects_config_mismatch() {
        let bytes = encode_engine::<&str>(&cfg(), 1, &[], vec![]);
        let other = DetectorConfig { tau: 4, ..cfg() };
        assert_eq!(
            decode_engine(&bytes, &other),
            Err(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn exact_fingerprint_is_stable_and_retired_solver_tags_mismatch() {
        // The fingerprint bytes of the test config, as written by every
        // build since version 4: v3 and v4 files of an exact session
        // keep resuming only while these stay put.
        #[rustfmt::skip]
        const FINGERPRINT: [u8; 69] = [
            3, 0, 0, 0, 0, 0, 0, 0, // tau
            2, 0, 0, 0, 0, 0, 0, 0, // tau'
            1, // score: symmetrized KL
            0, // weighting: equal
            0, 8, 0, 0, 0, 0, 0, 0, 0, // signature: k-means, k = 8
            0, // metric: Euclidean
            0, // solver: exact
            0, 0, 0, 0, 0, 0, 0, 0, // estimator offset 0.0
            0, 0, 0, 0, 0, 0, 240, 63, // estimator scale 1.0
            17, 234, 45, 129, 153, 151, 113, 61, // dist floor 1e-12
            50, 0, 0, 0, 0, 0, 0, 0, // bootstrap replicates
            154, 153, 153, 153, 153, 153, 169, 63, // alpha 0.05
        ];
        assert_eq!(config_fingerprint(&cfg()), FINGERPRINT);
        // The solver tag follows tau, tau', score, weighting, the
        // signature method (tag + k) and the metric.
        const SOLVER_TAG_AT: usize = 12 + 8 + 8 + 1 + 1 + 9 + 1;
        let bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);
        assert_eq!(bytes[SOLVER_TAG_AT], 0);
        assert!(decode_engine(&bytes, &cfg()).is_ok());
        // Tags 1 and 2 belonged to retired approximate solvers: such
        // checkpoints are another configuration.
        for tag in [1u8, 2] {
            let mut retired = bytes.clone();
            retired[SOLVER_TAG_AT] = tag;
            assert_eq!(
                decode_engine(&retired, &cfg()),
                Err(SnapshotError::ConfigMismatch)
            );
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let names = ["x", "y"];
        let a = encode_engine(&cfg(), 7, &names, vec![(0, state(1)), (1, state(2))]);
        let b = encode_engine(&cfg(), 7, &names, vec![(1, state(2)), (0, state(1))]);
        assert_eq!(a, b, "order of collection must not matter");
    }

    #[test]
    fn reader_and_writer_round_trip_primitives() {
        let mut w = Writer::new();
        w.u8(9);
        w.u32(7);
        w.u64(u64::MAX);
        w.i64(i64::MIN);
        w.f64(-0.5);
        w.str("name");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.str().unwrap(), "name");
        assert!(r.finished());
        assert_eq!(r.u32(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn writer_patches_a_count_and_reuses_its_buffer() {
        let mut w = Writer::new();
        w.u32(0);
        w.str("ab");
        w.patch_u32(0, 2);
        assert_eq!(w.as_bytes(), [2, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
        let capacity = w.as_bytes().as_ptr();
        w.clear();
        assert!(w.is_empty());
        w.u8(1);
        assert_eq!(w.as_bytes(), [1]);
        assert_eq!(w.as_bytes().as_ptr(), capacity, "the allocation is kept");
    }
}
