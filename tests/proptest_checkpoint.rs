//! Property tests of the `--state` checkpoint format: corrupting or
//! truncating a checkpoint at an arbitrary byte offset must always
//! yield a clean error — never a panic, an allocation blow-up, or a
//! silently lossy resume (pending rows dropped on the floor).

use bags_cpd::emd::Signature;
use bags_cpd::stream::ingest::checkpoint::{
    decode_checkpoint, encode_checkpoint, StateError, FOLLOW_STREAM, NO_TIME,
};
use bags_cpd::stream::ingest::StreamCursor;
use bags_cpd::stream::snapshot::{decode_engine, encode_engine};
use bags_cpd::stream::OnlineState;
use bags_cpd::{BootstrapConfig, DetectorConfig};
use proptest::prelude::*;

/// Byte offset of the pending-time field in a single-stream
/// checkpoint: magic (8) + cursor count (4) + name length (4) + the
/// name itself + quarantine flag (1) + completed_time (8).
const PENDING_TIME_AT: usize = 8 + 4 + 4 + FOLLOW_STREAM.len() + 1 + 8;

fn cfg() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        bootstrap: BootstrapConfig {
            replicates: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Everything a single-stream checkpoint restores, as `follow --state`
/// writes it: one cursor and one stream's detector state, both named
/// [`FOLLOW_STREAM`].
#[derive(Debug, Clone, PartialEq)]
struct Single {
    master_seed: u64,
    cursor: StreamCursor,
    state: OnlineState,
}

fn encode(ck: &Single) -> Vec<u8> {
    let snapshot = encode_engine(
        &cfg(),
        ck.master_seed,
        &[FOLLOW_STREAM],
        vec![(0, ck.state.clone())],
    );
    encode_checkpoint(&[(FOLLOW_STREAM, ck.cursor.clone())], &snapshot)
}

fn decode(bytes: &[u8]) -> Result<Single, StateError> {
    let (cursors, snapshot) = decode_checkpoint(bytes)?;
    let missing = || StateError::Corrupt(format!("no '{FOLLOW_STREAM}' in the checkpoint"));
    let cursor = cursors
        .into_iter()
        .find_map(|(name, c)| (name == FOLLOW_STREAM).then_some(c))
        .ok_or_else(missing)?;
    let snap = decode_engine(snapshot, &cfg())?;
    let id = snap
        .names
        .iter()
        .position(|n| n == FOLLOW_STREAM)
        .ok_or_else(missing)?;
    let state = snap
        .streams
        .into_iter()
        .find_map(|(i, s)| (i as usize == id).then_some(s))
        .ok_or_else(missing)?;
    Ok(Single {
        master_seed: snap.master_seed,
        cursor,
        state,
    })
}

/// A structurally valid `OnlineState` with `k` retained signatures
/// (flattened triangular distance rows, as the real window keeps them).
fn state(seed: u64, k: usize) -> OnlineState {
    let sigs: Vec<Signature> = (0..k)
        .map(|i| Signature::new(vec![vec![i as f64 * 0.5]], vec![1.0]).unwrap())
        .collect();
    let rows: Vec<f64> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (j - i) as f64 * 0.5))
        .collect();
    OnlineState {
        seed,
        pushed: k as u64,
        emitted: 0,
        dim: (k > 0).then_some(1),
        sigs,
        rows,
        ci_up_hist: vec![],
    }
}

fn checkpoint(
    seed: u64,
    k: usize,
    completed: Option<i64>,
    pending: Option<(i64, Vec<Vec<f64>>)>,
    consumed: u64,
    prefix_hash: u64,
) -> Single {
    Single {
        master_seed: seed,
        cursor: StreamCursor {
            completed_time: completed,
            pending,
            consumed,
            prefix_hash,
            quarantined: false,
        },
        state: state(seed, k),
    }
}

/// Strategy for a pending bag: absent half the time, else 1–4 rows of
/// a shared dimension 1–3 at a non-sentinel time.
fn pending_strategy() -> impl Strategy<Value = Option<(i64, Vec<Vec<f64>>)>> {
    (0u8..2, (NO_TIME + 1)..i64::MAX, 1usize..4, 1usize..5).prop_map(|(present, t, dim, count)| {
        (present == 1).then(|| {
            let rows = (0..count)
                .map(|r| (0..dim).map(|c| (r * dim + c) as f64 * 0.25).collect())
                .collect();
            (t, rows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity on every field.
    #[test]
    fn round_trip(
        seed in 0u64..u64::MAX,
        k in 0usize..4,
        completed in (0u8..2, (NO_TIME + 1)..i64::MAX)
            .prop_map(|(some, t)| (some == 1).then_some(t)),
        pending in pending_strategy(),
        consumed in 0u64..u64::MAX,
        prefix_hash in 0u64..u64::MAX,
        quarantined in 0u8..2,
    ) {
        let mut ck = checkpoint(seed, k, completed, pending, consumed, prefix_hash);
        ck.cursor.quarantined = quarantined == 1;
        let back = decode(&encode(&ck)).expect("valid checkpoint decodes");
        prop_assert_eq!(back, ck);
    }

    /// Every strict prefix of a valid checkpoint fails cleanly: no
    /// panic, no giant allocation, just an error.
    #[test]
    fn truncation_at_any_offset_errors(
        cut_frac in 0.0..1.0f64,
        pending in pending_strategy(),
    ) {
        let bytes = encode(&checkpoint(7, 2, Some(5), pending, 100, 42));
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        // A short file reads as truncation (or, with the magic intact
        // but content cut, whichever structural error hit first) — but
        // never as a successful, silently shorter resume.
        decode(&bytes[..cut]).expect_err("a strict prefix must never decode");
    }

    /// Flipping any single byte never panics; if the result still
    /// decodes, the pending bag is structurally intact (no rows were
    /// silently dropped and no ragged rows appear).
    #[test]
    fn byte_flip_never_panics_or_drops_rows(
        at_frac in 0.0..1.0f64,
        flip in 1u8..=255,
        pending in pending_strategy(),
    ) {
        let mut bytes = encode(&checkpoint(3, 2, Some(1), pending, 9, 11));
        let at = ((bytes.len() as f64) * at_frac) as usize % bytes.len();
        bytes[at] ^= flip;
        if let Ok(decoded) = decode(&bytes) {
            if let Some((_, rows)) = &decoded.cursor.pending {
                prop_assert!(!rows.is_empty(), "pending present implies rows");
                let dim = rows[0].len();
                prop_assert!(rows.iter().all(|r| r.len() == dim), "ragged pending rows");
            }
        }
    }
}

#[test]
fn pending_rows_without_pending_time_are_rejected_not_dropped() {
    // Regression: the old loader treated `count > 0` with
    // `pending_time == NO_TIME` as "no pending bag" and silently
    // discarded the buffered rows — data loss on resume. It must be a
    // hard error.
    let ck = checkpoint(1, 2, Some(4), Some((5, vec![vec![0.5], vec![1.5]])), 10, 2);
    let mut bytes = encode(&ck);
    // Clear pending_time only.
    bytes[PENDING_TIME_AT..PENDING_TIME_AT + 8].copy_from_slice(&NO_TIME.to_le_bytes());
    match decode(&bytes) {
        Err(StateError::Corrupt(why)) => {
            assert!(why.contains("pending rows"), "unexpected reason: {why}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn truncated_and_foreign_files_are_distinguished() {
    // Regression: a short write used to be reported as a foreign file;
    // it must surface as truncation instead.
    let bytes = encode(&checkpoint(1, 2, None, None, 0, 0));

    assert_eq!(
        decode(&bytes[..20]),
        Err(StateError::Truncated),
        "short file is truncation, not a foreign file"
    );
    assert_eq!(
        decode(&bytes[..3]),
        Err(StateError::Truncated),
        "shorter than the magic is still truncation"
    );

    for magic in [b"NOTBAGS!", b"BCPDFLW1"] {
        let mut foreign = bytes.clone();
        foreign[..8].copy_from_slice(magic);
        assert_eq!(
            decode(&foreign),
            Err(StateError::BadMagic),
            "wrong magic is a foreign file, and the retired layout is one"
        );
    }
}

#[test]
fn pending_time_without_rows_is_rejected() {
    let mut bytes = encode(&checkpoint(1, 2, None, None, 0, 0));
    // Set pending_time, keep the row count 0.
    bytes[PENDING_TIME_AT..PENDING_TIME_AT + 8].copy_from_slice(&7i64.to_le_bytes());
    assert!(matches!(decode(&bytes), Err(StateError::Corrupt(_))));
}
