//! Hostile input for `--state` checkpoints: every truncation of a valid
//! checkpoint, and byte flips at every offset, either restore or fail
//! with an error. `decode_checkpoint`, `decode_engine` and
//! `OnlineDetector::from_state` each return `Ok` or `Err` on whatever
//! the step before them let through; none of them panics.

use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, SignatureMethod};
use stream::ingest::checkpoint::{decode_checkpoint, encode_checkpoint};
use stream::ingest::StreamCursor;
use stream::snapshot::{decode_engine, encode_engine};
use stream::{EmdScratch, OnlineDetector};

fn config() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::KMeans { k: 3 },
        bootstrap: BootstrapConfig {
            replicates: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A two-stream checkpoint as a session leaves it: one stream still
/// filling its first window, one past it with points emitted and a
/// pending bag in its cursor.
fn valid_checkpoint() -> Vec<u8> {
    let det = Detector::new(config()).expect("valid config");
    let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
    let mut states = Vec::new();
    for (id, bags) in [(0u32, 3usize), (1, 7)] {
        let mut online = OnlineDetector::new(det.clone(), 10 + u64::from(id));
        for t in 0..bags {
            let rows = (0..6).map(|i| vec![(i * 5 + t * 3) as f64 * 0.25, i as f64 - 2.5]);
            online
                .push_with(Bag::new(rows.collect()), &mut eval, &mut emd)
                .expect("push");
        }
        states.push((id, online.state()));
    }
    let snapshot = encode_engine(&config(), 77, &["s0", "s1"], states);
    let cursors = [
        (
            "s0",
            StreamCursor {
                completed_time: Some(2),
                pending: None,
                consumed: 96,
                prefix_hash: 0x0123_4567_89ab_cdef,
                quarantined: false,
            },
        ),
        (
            "s1",
            StreamCursor {
                completed_time: Some(6),
                pending: Some((7, vec![vec![0.5, -1.0], vec![2.0, 3.0]])),
                consumed: 1234,
                prefix_hash: 0xfeed_f00d_dead_beef,
                quarantined: false,
            },
        ),
    ];
    encode_checkpoint(&cursors, &snapshot)
}

/// How far `bytes` restores: 0 if the checkpoint is refused, 1 if the
/// engine snapshot inside it is, 2 if a stream's detector is, and 3 if
/// every stream is restored.
fn restore(bytes: &[u8]) -> usize {
    let Ok((_cursors, snapshot)) = decode_checkpoint(bytes) else {
        return 0;
    };
    let Ok(engine) = decode_engine(snapshot, &config()) else {
        return 1;
    };
    let det = Detector::new(config()).expect("valid config");
    let restored = engine
        .streams
        .into_iter()
        .map(|(_, state)| OnlineDetector::from_state(det.clone(), state))
        .collect::<Result<Vec<_>, _>>();
    if restored.is_ok() {
        3
    } else {
        2
    }
}

/// `restore` on `bytes`, reporting `what` if it panics.
fn restore_or_report(bytes: &[u8], what: &dyn Fn() -> String) -> usize {
    std::panic::catch_unwind(|| restore(bytes)).unwrap_or_else(|_| panic!("{} panicked", what()))
}

#[test]
fn every_truncation_and_byte_flip_restores_or_errs() {
    let bytes = valid_checkpoint();
    assert_eq!(restore(&bytes), 3, "the intact checkpoint restores");

    for cut in 0..bytes.len() {
        let reached = restore_or_report(&bytes[..cut], &|| format!("a cut at byte {cut}"));
        assert!(reached < 3, "a cut at byte {cut} restored every stream");
    }

    // Each bit alone, and the whole byte.
    let masks = [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff];
    let mut reached = [0usize; 4];
    let mut corrupt = bytes.clone();
    for at in 0..bytes.len() {
        for mask in masks {
            corrupt[at] ^= mask;
            let what = || format!("flipping {mask:#04x} at byte {at}");
            reached[restore_or_report(&corrupt, &what)] += 1;
            corrupt[at] ^= mask;
        }
    }
    // The flips reach every stage, `from_state` included, both where it
    // refuses a state and where it accepts one.
    assert!(
        reached.iter().all(|&n| n > 0),
        "flips by stage: {reached:?}"
    );
}
