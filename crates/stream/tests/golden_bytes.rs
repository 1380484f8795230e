//! Golden bytes for the two durable formats the runtime writes: a
//! score log (magic, then two checksummed frames) and a `--state`
//! checkpoint (cursors in front of an engine snapshot). Every byte is
//! pinned, so a codec refactor that moves one fails here before any
//! recording or checkpoint in the field stops reading.

use bagcpd::{BootstrapConfig, ConfidenceInterval, DetectorConfig, ScorePoint};
use emd::Signature;
use std::path::PathBuf;
use std::sync::Arc;
use stream::ingest::checkpoint::{decode_checkpoint, encode_checkpoint};
use stream::ingest::{SourceError, StreamCursor};
use stream::scorelog::{ScoreLogReader, ScoreLogSink};
use stream::sink::Sink;
use stream::snapshot::{decode_engine, encode_engine};
use stream::{DiffOutcome, Event, OnlineState, QuarantineRecord};

/// Lower-case hex, the form the fixtures below are written in.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compare `bytes` with a hex fixture, reporting the first differing
/// byte.
fn assert_golden(bytes: &[u8], want: &str) {
    let got = hex(bytes);
    if got != want {
        let at = got
            .as_bytes()
            .iter()
            .zip(want.as_bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "bytes differ from the fixture at byte {} ({} bytes, fixture {}):\n{got}",
            at / 2,
            bytes.len(),
            want.len() / 2
        );
    }
}

fn point(stream: &str, t: usize, score: f64, xi: Option<f64>, alert: bool) -> Event {
    Event::Point {
        stream: Arc::from(stream),
        point: ScorePoint {
            t,
            score,
            ci: ConfidenceInterval {
                lo: score - 0.25,
                up: score + 0.5,
            },
            xi,
            alert,
        },
    }
}

/// One batch holding every `Event` variant (both quarantine error
/// kinds and every diff outcome), defining streams `a`, `bb` and `q`.
fn every_variant() -> Vec<Event> {
    vec![
        point("a", 5, 1.5, Some(0.125), true),
        point("bb", 7, -2.0, None, false),
        Event::StreamError {
            stream: Arc::from("a"),
            message: "bag at t = 6 has dimension 3".into(),
        },
        Event::Quarantine(QuarantineRecord {
            stream: Arc::from("q"),
            error: SourceError::Io("gone".into()),
        }),
        Event::Quarantine(QuarantineRecord {
            stream: Arc::from("bb"),
            error: SourceError::Data("line 4: bad".into()),
        }),
        Event::Note("rotated".into()),
        Event::CheckpointWritten {
            bytes: 4096,
            bags: 12,
        },
        Event::Degraded {
            sink: "csv".into(),
            reason: "refused".into(),
        },
        Event::Recovered {
            sink: "csv".into(),
            replayed: 9,
        },
        Event::ReplayDiff {
            stream: Arc::from("a"),
            t: 5,
            live: 1.5,
            recorded: 1.5,
            outcome: DiffOutcome::Equal,
        },
        Event::ReplayDiff {
            stream: Arc::from("bb"),
            t: 7,
            live: -2.0,
            recorded: -2.0 + 1e-12,
            outcome: DiffOutcome::WithinEps,
        },
        Event::ReplayDiff {
            stream: Arc::from("q"),
            t: 1,
            live: 3.0,
            recorded: f64::NAN,
            outcome: DiffOutcome::Diverged,
        },
    ]
}

/// A second batch: points on the streams the first batch interned
/// (carried by id alone) and one new stream, defined as id 3.
fn reusing_ids() -> Vec<Event> {
    vec![
        point("bb", 8, 0.75, Some(-1.0), false),
        point("a", 6, 2.5, None, true),
        point("new", 0, 0.0, None, false),
    ]
}

const SCORE_LOG: &str = concat!(
    // magic BCPDSLG1
    "42435044534c4731",
    // frame 1: u32 length, u64 FNV-1a
    "5b010000b2e41bbf7dfa9148",
    // payload 1: every variant
    "0f00000000000000000100000061010000000005000000000000000000000000",
    "00f83f000000000000f43f000000000000004001000000000000c03f01000100",
    "00000200000062620101000000070000000000000000000000000000c0000000",
    "00000002c0000000000000f8bf000002000000001c0000006261672061742074",
    "203d2036206861732064696d656e73696f6e2033000200000001000000710302",
    "0000000004000000676f6e650301000000010b0000006c696e6520343a206261",
    "640407000000726f74617465640500100000000000000c000000000000000603",
    "0000006373760700000072656675736564070300000063737609000000000000",
    "0008000000000500000000000000000000000000f83f000000000000f83f0008",
    "01000000070000000000000000000000000000c068eeffffffffffbf01080200",
    "000001000000000000000000000000000840000000000000f87f02",
    // frame 2: u32 length, u64 FNV-1a
    "8d000000e00d154f9ea04036",
    // payload 2: ids reused, one new stream
    "0400000001010000000800000000000000000000000000e83f000000000000e0",
    "3f000000000000f43f01000000000000f0bf0001000000000600000000000000",
    "0000000000000440000000000000024000000000000008400001000300000003",
    "0000006e65770103000000000000000000000000000000000000000000000000",
    "00d0bf000000000000e03f0000",
);

#[test]
fn score_log_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("bagscpd-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("golden.slog");
    let _ = std::fs::remove_file(&path);
    let mut sink = ScoreLogSink::open(&path).unwrap();
    sink.deliver(&every_variant()).unwrap();
    sink.deliver(&reusing_ids()).unwrap();
    sink.flush_durable().unwrap();
    drop(sink);

    assert_golden(&std::fs::read(&path).unwrap(), SCORE_LOG);
    // And the pinned bytes decode back to the events that wrote them
    // (NaN compares by bits, so compare the debug forms).
    let back = ScoreLogReader::read_all(&path).unwrap();
    let mut expect = every_variant();
    expect.extend(reusing_ids());
    assert_eq!(format!("{back:?}"), format!("{expect:?}"));
    std::fs::remove_dir_all(&dir).ok();
}

fn state(seed: u64, pushed: u64) -> OnlineState {
    OnlineState {
        seed,
        pushed,
        emitted: pushed.saturating_sub(2),
        dim: Some(2),
        sigs: vec![
            Signature::new(vec![vec![0.5, -1.0], vec![2.0, 3.0]], vec![3.0, 1.0]).unwrap(),
            Signature::new(vec![vec![1.0, 1.0]], vec![4.0]).unwrap(),
        ],
        rows: vec![1.75],
        ci_up_hist: vec![0.5, 2.25],
    }
}

fn config() -> DetectorConfig {
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

const CHECKPOINT: &str = concat!(
    // magic BCPDFLW2, two cursors
    "42435044464c5732020000000200000073300008000000000000000900000000",
    "000000d204000000000000efbeadde0df0edfe02000000020000000000000000",
    "00d03f000000000000e0bf000000000000f03f00000000000000400200000073",
    "3101000000000000008000000000000000800000000000000000000000000000",
    "00000000000000000000",
    // engine snapshot BCPDSNAP v4, two streams
    "42435044534e4150040000000300000000000000020000000000000001000008",
    "0000000000000000000000000000000000000000000000f03f11ea2d81999771",
    "3d28000000000000009a9999999999a93f4d0000000000000002000000000000",
    "000200000073300200000073310200000000000000000000000a000000000000",
    "0009000000000000000700000000000000030000000200000002000000020000",
    "00000000000000e03f000000000000f0bf000000000000004000000000000008",
    "400000000000000840000000000000f03f0100000002000000000000000000f0",
    "3f000000000000f03f000000000000104001000000000000000000fc3f020000",
    "00000000000000e03f0000000000000240010000000b00000000000000060000",
    "0000000000040000000000000003000000020000000200000002000000000000",
    "000000e03f000000000000f0bf00000000000000400000000000000840000000",
    "0000000840000000000000f03f0100000002000000000000000000f03f000000",
    "000000f03f000000000000104001000000000000000000fc3f02000000000000",
    "000000e03f0000000000000240",
);

#[test]
fn checkpoint_bytes_are_pinned() {
    let snapshot = encode_engine(
        &config(),
        77,
        &["s0", "s1"],
        vec![(1, state(11, 6)), (0, state(10, 9))],
    );
    let cursors = vec![
        (
            "s0".to_string(),
            StreamCursor {
                completed_time: Some(8),
                pending: Some((9, vec![vec![0.25, -0.5], vec![1.0, 2.0]])),
                consumed: 1234,
                prefix_hash: 0xfeed_f00d_dead_beef,
                quarantined: false,
            },
        ),
        (
            "s1".to_string(),
            StreamCursor {
                completed_time: None,
                pending: None,
                consumed: 0,
                prefix_hash: 0,
                quarantined: true,
            },
        ),
    ];
    let bytes = encode_checkpoint(&cursors, &snapshot);
    assert_golden(&bytes, CHECKPOINT);

    let (back, snap) = decode_checkpoint(&bytes).unwrap();
    assert_eq!(back, cursors);
    let engine = decode_engine(snap, &config()).unwrap();
    assert_eq!(engine.master_seed, 77);
    assert_eq!(engine.names, vec!["s0", "s1"]);
    assert_eq!(engine.streams, vec![(0, state(10, 9)), (1, state(11, 6))]);
}
