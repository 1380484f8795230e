//! Integration tests of the sharded engine: scale (1000+ concurrent
//! streams under bounded memory) and checkpoint/restore fidelity.

use bagcpd::{Bag, BootstrapConfig, DetectorConfig, ScorePoint, SignatureMethod};
use std::collections::HashMap;
use stream::{snapshot, EngineConfig, StreamEngine};

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        detector: DetectorConfig {
            tau: 3,
            tau_prime: 2,
            signature: SignatureMethod::Histogram { width: 0.5 },
            bootstrap: BootstrapConfig {
                replicates: 16,
                ..Default::default()
            },
            ..Default::default()
        },
        seed: 7,
        workers,
        queue_capacity: 256,
        batch_size: 64,
        event_capacity: 16384,
        telemetry: None,
    }
}

/// Bag `t` of stream `s`: stationary for even streams, an injected shift
/// at t = 4 for odd streams.
fn bag_for(s: usize, t: usize) -> Bag {
    let level = if s % 2 == 1 && t >= 4 { 5.0 } else { 0.0 };
    Bag::from_scalars((0..12).map(move |i| level + ((i * 3 + s + t) % 7) as f64 * 0.1))
}

/// Resolve `stream` and push `bag` to it.
fn push(engine: &mut StreamEngine, stream: &str, bag: Bag) {
    let id = engine.resolve(stream).unwrap();
    engine.push_id(id, bag).unwrap();
}

/// Group point events per stream.
fn points_by_stream(events: Vec<stream::Event>) -> HashMap<String, Vec<ScorePoint>> {
    let mut map: HashMap<String, Vec<ScorePoint>> = HashMap::new();
    for e in events {
        let name = e
            .stream()
            .expect("engine events are stream-scoped")
            .to_string();
        match e.point() {
            Some(point) => map.entry(name).or_default().push(*point),
            None => panic!("unexpected error event on {name}: {e:?}"),
        }
    }
    map
}

#[test]
fn thousand_streams_push_through_bounded_engine() {
    const STREAMS: usize = 1024;
    const BAGS: usize = 8;
    let mut engine = StreamEngine::new(engine_config(4)).unwrap();

    let mut stashed = Vec::new();
    for t in 0..BAGS {
        for s in 0..STREAMS {
            let name = format!("stream-{s:04}");
            push(&mut engine, &name, bag_for(s, t));
        }
        // Drain as we go, as a production consumer would; the bounded
        // queues mean an undrained engine would block, not balloon.
        stashed.extend(engine.drain_events());
    }
    assert_eq!(engine.flush().unwrap(), STREAMS, "all streams live");

    // Retained state per stream is capped at the window width: check via
    // the snapshot, which records exactly what the engine holds.
    let snap = engine.snapshot().unwrap();
    let decoded = snapshot::decode_engine(&snap, &engine_config(4).detector).unwrap();
    assert_eq!(decoded.streams.len(), STREAMS);
    assert_eq!(decoded.names.len(), STREAMS);
    for (id, st) in &decoded.streams {
        let name = &decoded.names[*id as usize];
        assert_eq!(st.pushed, BAGS as u64, "{name}");
        assert!(st.sigs.len() <= 5, "{name}: window must stay bounded");
        assert!(st.ci_up_hist.len() <= 2, "{name}");
    }

    stashed.extend(engine.shutdown());
    let by_stream = points_by_stream(stashed);
    assert_eq!(by_stream.len(), STREAMS, "every stream produced points");
    for (name, points) in &by_stream {
        // 8 bags, window 5 -> inspection points t = 3..=6.
        assert_eq!(points.len(), 4, "{name}");
        assert_eq!(
            points.iter().map(|p| p.t).collect::<Vec<_>>(),
            vec![3, 4, 5, 6],
            "{name}: per-stream ordering preserved"
        );
    }

    // Sharding must not affect results: stream-0007 under a different
    // worker count reproduces identical points.
    let mut single = StreamEngine::new(engine_config(1)).unwrap();
    for t in 0..BAGS {
        push(&mut single, "stream-0007", bag_for(7, t));
    }
    single.flush().unwrap();
    let solo = points_by_stream(single.shutdown());
    assert_eq!(solo["stream-0007"], by_stream["stream-0007"]);
}

#[test]
fn snapshot_mid_window_then_restore_yields_identical_alerts() {
    const STREAMS: usize = 5;
    const CUT: usize = 6; // mid-window: warm, with partial CI history
    const TOTAL: usize = 14;

    // Reference: an engine that never stops.
    let mut reference = StreamEngine::new(engine_config(2)).unwrap();
    for t in 0..TOTAL {
        for s in 0..STREAMS {
            push(&mut reference, &format!("s{s}"), bag_for(s, t));
        }
    }
    reference.flush().unwrap();
    let expected = points_by_stream(reference.shutdown());

    // Interrupted: snapshot at the cut, restore (with a different
    // worker-pool shape), continue with the same bags.
    let mut first = StreamEngine::new(engine_config(2)).unwrap();
    for t in 0..CUT {
        for s in 0..STREAMS {
            push(&mut first, &format!("s{s}"), bag_for(s, t));
        }
    }
    let bytes = first.snapshot().unwrap();
    let mut early = first.drain_events();
    early.extend(first.shutdown());

    let mut restored = StreamEngine::restore(&bytes, engine_config(3)).unwrap();
    assert_eq!(
        restored.master_seed(),
        7,
        "master seed travels in the snapshot"
    );
    assert_eq!(restored.flush().unwrap(), STREAMS, "streams resumed");
    for t in CUT..TOTAL {
        for s in 0..STREAMS {
            push(&mut restored, &format!("s{s}"), bag_for(s, t));
        }
    }
    restored.flush().unwrap();
    let mut all = early;
    all.extend(restored.shutdown());
    let got = points_by_stream(all);

    assert_eq!(expected.len(), got.len());
    for (name, points) in &expected {
        assert_eq!(
            points, &got[name],
            "{name}: restored run must be bit-identical"
        );
        assert!(
            name == "s0" || name == "s2" || name == "s4" || points.iter().any(|p| p.alert),
            "{name}: the injected shift should alert in shifted streams"
        );
    }

    // The snapshot also restores into an equal snapshot.
    let mut again = StreamEngine::restore(&bytes, engine_config(1)).unwrap();
    let bytes2 = again.snapshot().unwrap();
    assert_eq!(bytes, bytes2, "restore -> snapshot is the identity");
}

#[test]
fn stream_ids_survive_snapshot_restore() {
    let mut engine = StreamEngine::new(engine_config(2)).unwrap();
    let a = engine.resolve("alpha").unwrap();
    let b = engine.resolve("beta").unwrap();
    for t in 0..4 {
        engine.push_id(a, bag_for(0, t)).unwrap();
        engine.push_id(b, bag_for(1, t)).unwrap();
    }
    let bytes = engine.snapshot().unwrap();
    let mut events = engine.shutdown();

    // Ids issued before the checkpoint address the same streams after a
    // restore into a different pool shape.
    let mut restored = StreamEngine::restore(&bytes, engine_config(3)).unwrap();
    assert_eq!(restored.id_of("alpha"), Some(a));
    assert_eq!(restored.id_of("beta"), Some(b));
    for t in 4..8 {
        restored.push_id(a, bag_for(0, t)).unwrap();
        restored.push_id(b, bag_for(1, t)).unwrap();
    }
    restored.flush().unwrap();
    events.extend(restored.shutdown());
    let by_stream = points_by_stream(events);

    // Reference: the same bags through one uninterrupted engine.
    let mut reference = StreamEngine::new(engine_config(2)).unwrap();
    for t in 0..8 {
        push(&mut reference, "alpha", bag_for(0, t));
        push(&mut reference, "beta", bag_for(1, t));
    }
    reference.flush().unwrap();
    let expected = points_by_stream(reference.shutdown());
    assert_eq!(expected, by_stream, "continuation is bit-identical");
}

#[test]
fn restore_rejects_mismatched_config() {
    let mut engine = StreamEngine::new(engine_config(2)).unwrap();
    push(&mut engine, "s", bag_for(0, 0));
    let bytes = engine.snapshot().unwrap();
    engine.shutdown();

    let mut other = engine_config(2);
    other.detector.tau = 4;
    assert!(matches!(
        StreamEngine::restore(&bytes, other),
        Err(stream::EngineError::Snapshot(
            stream::SnapshotError::ConfigMismatch
        ))
    ));
}
