//! Regression diffing: compare a live replay run against a recorded
//! score log, point by point.

use super::ScoreLogReader;
use crate::event::{DiffOutcome, Event};
use crate::sink::Sink;
use crate::telemetry::{names, Counter, MetricsRegistry};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What one recorded point is compared against (and whether a live
/// point has matched it yet).
struct RecordedPoint {
    point: bagcpd::ScorePoint,
    matched: bool,
}

/// Bit-identity across every field of the point — score, both CI
/// bounds, xi, and the alert flag.
fn bits_equal(a: &bagcpd::ScorePoint, b: &bagcpd::ScorePoint) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.ci.lo.to_bits() == b.ci.lo.to_bits()
        && a.ci.up.to_bits() == b.ci.up.to_bits()
        && a.alert == b.alert
        && match (a.xi, b.xi) {
            (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        }
}

/// The largest absolute difference across the numeric fields — NaN when
/// any pair is incomparable (one xi missing, or a NaN meets anything:
/// the bit-identical-NaN case was already accepted as `Equal`), so
/// `delta <= eps` is false exactly when it should be.
fn max_delta(a: &bagcpd::ScorePoint, b: &bagcpd::ScorePoint) -> f64 {
    let xi = match (a.xi, b.xi) {
        (Some(x), Some(y)) => Some((x, y)),
        (None, None) => None,
        _ => return f64::NAN,
    };
    let pairs = [(a.score, b.score), (a.ci.lo, b.ci.lo), (a.ci.up, b.ci.up)];
    let mut delta = 0.0f64;
    for (x, y) in pairs.into_iter().chain(xi) {
        let d = (x - y).abs();
        if d.is_nan() {
            return f64::NAN;
        }
        delta = delta.max(d);
    }
    delta
}

struct DiffState {
    /// `(stream, t)` → recorded score, deduplicated at load time
    /// (duplicates from checkpoint-resume are bit-identical).
    recorded: HashMap<(Arc<str>, u64), RecordedPoint>,
    /// Largest recorded `t` per stream — the recording's horizon.
    horizon: HashMap<Arc<str>, u64>,
    eps: f64,
    compared: u64,
    equal: u64,
    within_eps: u64,
    diverged: u64,
    /// Live points inside the recorded horizon that the log never
    /// recorded — same divergence severity as a score mismatch (the
    /// replay saw inputs the recording did not).
    unexpected: u64,
    /// Live points past a stream's recorded horizon. Benign: where a
    /// recording ends depends on session mode — a checkpointing serve
    /// session holds back the final partial bag (EOF is not final for a
    /// resumable session), so a fresh batch-semantics replay of the
    /// same inputs legitimately produces extra trailing points.
    trailing: u64,
}

impl DiffState {
    /// Classify a live point against the record and update the tallies.
    /// Every field is compared — score, both CI bounds, xi, alert — not
    /// just the score: scores are seed-independent, so a recording made
    /// under a different seed or bootstrap differs only in its CI
    /// fields. Returns the recorded score and the verdict; `None` for a
    /// duplicate live delivery of an already-compared point
    /// (checkpoint-resume re-delivery): it was already counted, so no
    /// new verdict is emitted.
    fn compare(
        &mut self,
        stream: &Arc<str>,
        live: &bagcpd::ScorePoint,
    ) -> Option<(f64, DiffOutcome)> {
        let Some(rec) = self.recorded.get_mut(&(stream.clone(), live.t as u64)) else {
            // Past the stream's recorded horizon: benign trailing output
            // (the recording stopped earlier than this replay — see the
            // `trailing` field), counted but not compared. A stream the
            // log never saw at all, or a gap inside the horizon, is a
            // real divergence.
            if self
                .horizon
                .get(stream)
                .is_some_and(|&max_t| live.t as u64 > max_t)
            {
                self.trailing += 1;
                return None;
            }
            self.unexpected += 1;
            // Surface the unmatched point as a diverged verdict with a
            // NaN recorded score rather than dropping it silently.
            return Some((f64::NAN, DiffOutcome::Diverged));
        };
        if rec.matched {
            return None;
        }
        rec.matched = true;
        let recorded = rec.point.score;
        self.compared += 1;
        let outcome = if bits_equal(live, &rec.point) {
            self.equal += 1;
            DiffOutcome::Equal
        } else if max_delta(live, &rec.point) <= self.eps {
            self.within_eps += 1;
            DiffOutcome::WithinEps
        } else {
            self.diverged += 1;
            DiffOutcome::Diverged
        };
        Some((recorded, outcome))
    }

    fn summary(&self) -> DiffSummary {
        DiffSummary {
            compared: self.compared,
            equal: self.equal,
            within_eps: self.within_eps,
            diverged: self.diverged,
            unexpected_live: self.unexpected,
            trailing_live: self.trailing,
            missing_live: self.recorded.values().filter(|r| !r.matched).count() as u64,
        }
    }
}

/// Final tallies of a diff run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSummary {
    /// Recorded points a live point was compared against.
    pub compared: u64,
    /// Comparisons where every field of the point was bit-identical.
    pub equal: u64,
    /// Comparisons within the configured epsilon on every numeric field
    /// (but not bit-equal).
    pub within_eps: u64,
    /// Comparisons beyond the epsilon.
    pub diverged: u64,
    /// Live points inside the recorded horizon that the log never
    /// recorded.
    pub unexpected_live: u64,
    /// Live points past a stream's recorded horizon — benign: a
    /// checkpointing recording holds back the final partial bag, so a
    /// fresh replay of the same inputs runs one inspection point past
    /// it.
    pub trailing_live: u64,
    /// Recorded points the live run never produced.
    pub missing_live: u64,
}

impl DiffSummary {
    /// Whether the replay matched the record: nothing diverged, nothing
    /// unexpected inside the horizon, nothing missing. (Within-eps
    /// verdicts pass — the epsilon exists to accept solver changes that
    /// move floating-point rounding — and trailing points past the recorded horizon pass, because
    /// where a recording ends depends on session mode, not on scores.)
    pub fn is_clean(&self) -> bool {
        self.diverged == 0 && self.unexpected_live == 0 && self.missing_live == 0
    }
}

/// Shared handle onto a [`ReplayDiffSink`]'s tallies: the pipeline owns
/// the sink, the caller keeps the tracker and reads the
/// [`DiffSummary`] after the run.
#[derive(Clone)]
pub struct DiffTracker {
    state: Arc<Mutex<DiffState>>,
}

impl DiffTracker {
    /// Snapshot of the tallies so far.
    ///
    /// Poisoning is ignored: the state is plain tallies, so a panicking
    /// writer cannot leave it structurally broken.
    pub fn summary(&self) -> DiffSummary {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .summary()
    }
}

/// A [`Sink`] adapter that diffs the live event stream against a
/// recorded score log. Every delivered event is forwarded to the inner
/// sink unchanged; after each [`Event::Point`], a typed
/// [`Event::ReplayDiff`] verdict is injected into the same batch, so
/// downstream sinks (CSV, stderr, even another score log) see
/// the comparison as first-class data.
///
/// The verdict per `(stream, t)` considers the whole point — score,
/// both CI bounds, xi, alert — because scores are seed-independent
/// (only the bootstrap fields see the RNG): `Equal` when every field
/// is bit-identical, `WithinEps` when every numeric field is within
/// `eps`, `Diverged` otherwise. A live point the log never recorded is
/// `Diverged` with a NaN recorded score — unless it lies past the
/// stream's recorded horizon, in which case it is benign trailing
/// output ([`DiffSummary::trailing_live`]): a checkpointing recording
/// holds back the final partial bag, so a fresh replay legitimately
/// runs past it. Recorded points the live run never produces surface
/// in [`DiffSummary::missing_live`].
pub struct ReplayDiffSink<S> {
    inner: S,
    state: Arc<Mutex<DiffState>>,
    out: Vec<Event>,
    metrics: Option<Metrics>,
}

struct Metrics {
    compared: Counter,
    diverged: Counter,
}

impl<S: Sink> ReplayDiffSink<S> {
    /// Load the recorded log at `path` and wrap `inner` with a differ
    /// accepting score drift up to `eps` (use `0.0` for bit-exactness).
    ///
    /// # Errors
    /// I/O failure or an unreadable log.
    pub fn load(path: &Path, eps: f64, inner: S) -> io::Result<ReplayDiffSink<S>> {
        let mut recorded: HashMap<(Arc<str>, u64), RecordedPoint> = HashMap::new();
        let mut horizon: HashMap<Arc<str>, u64> = HashMap::new();
        ScoreLogReader::for_each(path, &mut |event| {
            if let Event::Point { stream, point } = event {
                recorded
                    .entry((stream.clone(), point.t as u64))
                    .or_insert(RecordedPoint {
                        point: *point,
                        matched: false,
                    });
                let max_t = horizon.entry(stream.clone()).or_insert(0);
                *max_t = (*max_t).max(point.t as u64);
            }
            Ok(())
        })?;
        Ok(ReplayDiffSink {
            inner,
            state: Arc::new(Mutex::new(DiffState {
                recorded,
                horizon,
                eps,
                compared: 0,
                equal: 0,
                within_eps: 0,
                diverged: 0,
                unexpected: 0,
                trailing: 0,
            })),
            out: Vec::new(),
            metrics: None,
        })
    }

    /// Report comparison and divergence counts to `registry`
    /// ([`names::SCORELOG_REPLAY_COMPARED`],
    /// [`names::SCORELOG_REPLAY_DIVERGED`]).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> ReplayDiffSink<S> {
        self.metrics = Some(Metrics {
            compared: registry.counter(
                names::SCORELOG_REPLAY_COMPARED,
                "Replayed points compared against the recorded score log",
            ),
            diverged: registry.counter(
                names::SCORELOG_REPLAY_DIVERGED,
                "Replayed points that diverged from the recorded score log",
            ),
        });
        self
    }

    /// The streams the log recorded points for, sorted by name — the
    /// streams [`super::ScoreStore::streams`] lists, learned by the
    /// same read that loaded the points.
    pub fn recorded_streams(&self) -> Vec<Arc<str>> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut streams: Vec<Arc<str>> = state.horizon.keys().cloned().collect();
        streams.sort();
        streams
    }

    /// A handle for reading the tallies after the pipeline consumed the
    /// sink.
    pub fn tracker(&self) -> DiffTracker {
        DiffTracker {
            state: self.state.clone(),
        }
    }
}

impl<S: Sink> Sink for ReplayDiffSink<S> {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for event in events {
                out.push(event.clone());
                let Event::Point { stream, point } = event else {
                    continue;
                };
                let Some((recorded, outcome)) = state.compare(stream, point) else {
                    continue;
                };
                if let Some(m) = &self.metrics {
                    m.compared.inc();
                    if outcome == DiffOutcome::Diverged {
                        m.diverged.inc();
                    }
                }
                out.push(Event::ReplayDiff {
                    stream: stream.clone(),
                    t: point.t,
                    live: point.score,
                    recorded,
                    outcome,
                });
            }
        }
        let r = self.inner.deliver(&out);
        self.out = out;
        r
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        self.inner.flush_durable()
    }

    fn kind(&self) -> &'static str {
        "diff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorelog::ScoreLogSink;
    use crate::sink::MemorySink;
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::path::PathBuf;

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-scorelog-diff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(stream: &str, t: usize, score: f64) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score,
                    up: score,
                },
                xi: None,
                alert: false,
            },
        }
    }

    fn record(path: &Path, events: &[Event]) {
        let _ = std::fs::remove_file(path);
        let mut sink = ScoreLogSink::open(path).unwrap();
        sink.deliver(events).unwrap();
        sink.flush_durable().unwrap();
    }

    #[test]
    fn verdicts_cover_equal_within_eps_diverged_and_unexpected() {
        let path = tempdir().join("verdicts.slog");
        record(
            &path,
            &[point("a", 0, 1.0), point("a", 1, 2.0), point("a", 2, 3.0)],
        );
        let mem = MemorySink::new();
        let mut diff = ReplayDiffSink::load(&path, 1e-6, mem.clone()).unwrap();
        let tracker = diff.tracker();
        diff.deliver(&[
            point("a", 0, 1.0),        // bit-equal
            point("a", 1, 2.0 + 1e-9), // within eps
            point("a", 2, 4.0),        // diverged
            point("b", 0, 9.0),        // never recorded
        ])
        .unwrap();
        let summary = tracker.summary();
        assert_eq!(summary.compared, 3);
        assert_eq!(summary.equal, 1);
        assert_eq!(summary.within_eps, 1);
        assert_eq!(summary.diverged, 1);
        assert_eq!(summary.unexpected_live, 1);
        assert_eq!(summary.missing_live, 0);
        assert!(!summary.is_clean());

        // Inner sink saw each point immediately followed by a verdict.
        let events = mem.events();
        assert_eq!(events.len(), 8);
        assert!(matches!(
            events[1],
            Event::ReplayDiff {
                outcome: DiffOutcome::Equal,
                ..
            }
        ));
        let Event::ReplayDiff {
            recorded, outcome, ..
        } = &events[7]
        else {
            panic!("expected a verdict for the unrecorded point");
        };
        assert!(recorded.is_nan());
        assert_eq!(*outcome, DiffOutcome::Diverged);
    }

    #[test]
    fn clean_replay_and_duplicate_redelivery_stay_clean() {
        let path = tempdir().join("clean.slog");
        record(&path, &[point("a", 0, 1.5), point("a", 1, 2.5)]);
        let mut diff = ReplayDiffSink::load(&path, 0.0, MemorySink::new()).unwrap();
        let tracker = diff.tracker();
        diff.deliver(&[point("a", 0, 1.5)]).unwrap();
        // A resumed live session re-delivers its tail bit-identically.
        diff.deliver(&[point("a", 0, 1.5), point("a", 1, 2.5)])
            .unwrap();
        let summary = tracker.summary();
        assert_eq!(summary.compared, 2, "duplicate counted once");
        assert_eq!(summary.equal, 2);
        assert!(summary.is_clean());
    }

    #[test]
    fn trailing_points_past_the_horizon_stay_clean() {
        let path = tempdir().join("trailing.slog");
        record(&path, &[point("a", 4, 1.5), point("a", 5, 2.5)]);
        let mem = MemorySink::new();
        let mut diff = ReplayDiffSink::load(&path, 0.0, mem.clone()).unwrap();
        let tracker = diff.tracker();
        // A non-checkpointing replay flushes the final partial bag the
        // recording held back, so it runs one inspection point past the
        // recorded horizon.
        diff.deliver(&[point("a", 4, 1.5), point("a", 5, 2.5), point("a", 6, 3.5)])
            .unwrap();
        let summary = tracker.summary();
        assert_eq!(summary.compared, 2);
        assert_eq!(summary.trailing_live, 1);
        assert_eq!(summary.unexpected_live, 0);
        assert!(summary.is_clean());
        // Trailing points get no verdict event: nothing to compare to.
        let verdicts = mem
            .events()
            .iter()
            .filter(|e| matches!(e, Event::ReplayDiff { .. }))
            .count();
        assert_eq!(verdicts, 2);
        // An interior gap is still a real divergence.
        let gap = tempdir().join("gap.slog");
        record(&gap, &[point("a", 4, 1.5), point("a", 6, 3.5)]);
        let mut diff = ReplayDiffSink::load(&gap, 0.0, MemorySink::new()).unwrap();
        let tracker = diff.tracker();
        diff.deliver(&[point("a", 5, 2.5)]).unwrap();
        let summary = tracker.summary();
        assert_eq!(summary.unexpected_live, 1);
        assert!(!summary.is_clean());
    }

    #[test]
    fn missing_live_points_fail_the_diff() {
        let path = tempdir().join("missing.slog");
        record(&path, &[point("a", 0, 1.5), point("a", 1, 2.5)]);
        let mut diff = ReplayDiffSink::load(&path, 0.0, MemorySink::new()).unwrap();
        let tracker = diff.tracker();
        diff.deliver(&[point("a", 0, 1.5)]).unwrap();
        let summary = tracker.summary();
        assert_eq!(summary.missing_live, 1);
        assert!(!summary.is_clean());
    }
}
