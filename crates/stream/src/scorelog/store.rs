//! Query side: per-stream summaries of a score log, and filtered point
//! queries over it. Both read the log once, front to back, through
//! [`ScoreLogReader::for_each`]; nothing is indexed or kept on disk.

use super::ScoreLogReader;
use crate::event::Event;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Per-stream summary built by one scan of the log.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Point records on disk, duplicates (checkpoint-resume re-delivery)
    /// included.
    pub records: u64,
    /// Distinct inspection points.
    pub points: u64,
    /// Distinct inspection points that alerted.
    pub alerts: u64,
    /// Smallest recorded inspection point.
    pub min_t: u64,
    /// Largest recorded inspection point.
    pub max_t: u64,
    /// Largest recorded score (NaN scores are ignored).
    pub max_score: f64,
}

/// Filters for [`ScoreStore::query`]. The default selects everything.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Only this stream (all streams when `None`).
    pub stream: Option<String>,
    /// Only points with `t >= since`.
    pub since: Option<u64>,
    /// Only points with `t <= until`.
    pub until: Option<u64>,
    /// Only alerting points.
    pub alerts_only: bool,
    /// Keep only the `n` highest-scoring points (ties broken by stream
    /// name then `t` for a deterministic order).
    pub top: Option<usize>,
}

/// One point returned by a query.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Stream the point belongs to.
    pub stream: Arc<str>,
    /// The recorded score point.
    pub point: bagcpd::ScorePoint,
}

/// Per-stream summaries of a score log — record/alert counts, `t`
/// ranges, the top score — built by one scan; [`ScoreStore::query`]
/// answers filtered point queries with one scan of its own.
///
/// Duplicate `(stream, t)` records — the benign artifact of a
/// checkpoint-resume re-delivering its uncheckpointed tail — are
/// counted in [`StreamSummary::records`] but deduplicated everywhere
/// else: `points`, `alerts`, and query results see each inspection
/// point once (first occurrence; duplicates are bit-identical by the
/// determinism guarantee).
pub struct ScoreStore {
    streams: BTreeMap<Arc<str>, StreamSummary>,
}

impl ScoreStore {
    /// Scan the log at `path` and summarize every stream's points.
    ///
    /// # Errors
    /// I/O failure, a file that is not a score log, or an undecodable
    /// checksum-valid frame (format skew).
    pub fn scan(path: &Path) -> io::Result<ScoreStore> {
        let mut streams: BTreeMap<Arc<str>, StreamSummary> = BTreeMap::new();
        let mut seen: HashSet<(Arc<str>, u64)> = HashSet::new();
        ScoreLogReader::for_each(path, &mut |event| {
            let Event::Point { stream, point } = event else {
                return Ok(());
            };
            let t = point.t as u64;
            let s = streams.entry(stream.clone()).or_insert(StreamSummary {
                records: 0,
                points: 0,
                alerts: 0,
                min_t: t,
                max_t: t,
                max_score: f64::NEG_INFINITY,
            });
            s.records += 1;
            s.min_t = s.min_t.min(t);
            s.max_t = s.max_t.max(t);
            if !point.score.is_nan() {
                s.max_score = s.max_score.max(point.score);
            }
            if seen.insert((stream.clone(), t)) {
                s.points += 1;
                if point.alert {
                    s.alerts += 1;
                }
            }
            Ok(())
        })?;
        Ok(ScoreStore { streams })
    }

    /// The per-stream summaries, ordered by stream name.
    pub fn streams(&self) -> impl Iterator<Item = (&Arc<str>, &StreamSummary)> {
        self.streams.iter()
    }

    /// The summary for one stream, if it was recorded.
    pub fn stream(&self, name: &str) -> Option<&StreamSummary> {
        self.streams.get(name)
    }

    /// Recorded points of the log at `path` matching `q`, ordered by
    /// stream name then `t` (or by descending score when [`Query::top`]
    /// is set), read in one pass over the log.
    ///
    /// # Errors
    /// I/O failure or an undecodable frame; also `InvalidData` when
    /// [`Query::stream`] names a stream the log never recorded a point
    /// for.
    pub fn query(path: &Path, q: &Query) -> io::Result<Vec<QueryRow>> {
        let mut found = false;
        let mut seen: HashSet<(Arc<str>, u64)> = HashSet::new();
        let mut rows = Vec::new();
        ScoreLogReader::for_each(path, &mut |event| {
            let Event::Point { stream, point } = event else {
                return Ok(());
            };
            if let Some(name) = &q.stream {
                if **stream != **name {
                    return Ok(());
                }
                found = true;
            }
            let t = point.t as u64;
            if q.since.is_some_and(|since| t < since)
                || q.until.is_some_and(|until| t > until)
                || (q.alerts_only && !point.alert)
            {
                return Ok(());
            }
            if seen.insert((stream.clone(), t)) {
                rows.push(QueryRow {
                    stream: stream.clone(),
                    point: *point,
                });
            }
            Ok(())
        })?;
        if let (Some(name), false) = (&q.stream, found) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stream '{name}' is not in {}", path.display()),
            ));
        }
        rows.sort_by(|a, b| a.stream.cmp(&b.stream).then(a.point.t.cmp(&b.point.t)));
        if let Some(n) = q.top {
            rows.sort_by(|a, b| {
                b.point
                    .score
                    .total_cmp(&a.point.score)
                    .then(a.stream.cmp(&b.stream))
                    .then(a.point.t.cmp(&b.point.t))
            });
            rows.truncate(n);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorelog::ScoreLogSink;
    use crate::sink::Sink;
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::path::PathBuf;

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-scorelog-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(stream: &str, t: usize, score: f64, alert: bool) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score - 0.25,
                    up: score + 0.25,
                },
                xi: None,
                alert,
            },
        }
    }

    fn write_log(path: &Path) {
        let _ = std::fs::remove_file(path);
        let mut sink = ScoreLogSink::open(path).unwrap();
        sink.deliver(&[
            point("a", 0, 0.5, false),
            point("a", 1, 2.5, true),
            point("b", 0, 1.5, false),
        ])
        .unwrap();
        sink.deliver(&[Event::Note("rotation".into()), point("a", 2, 1.0, false)])
            .unwrap();
        // A resumed session re-delivers its tail: duplicates, bit-identical.
        sink.deliver(&[point("a", 2, 1.0, false), point("b", 1, 3.5, true)])
            .unwrap();
        sink.flush_durable().unwrap();
    }

    #[test]
    fn index_counts_dedup_duplicates() {
        let path = tempdir().join("store.slog");
        write_log(&path);
        let store = ScoreStore::scan(&path).unwrap();
        let a = store.stream("a").unwrap();
        assert_eq!((a.records, a.points, a.alerts), (4, 3, 1));
        assert_eq!((a.min_t, a.max_t), (0, 2));
        assert_eq!(a.max_score, 2.5);
        let b = store.stream("b").unwrap();
        assert_eq!((b.records, b.points, b.alerts), (2, 2, 1));
        assert!(store.stream("c").is_none());
    }

    #[test]
    fn queries_filter_dedup_and_rank() {
        let path = tempdir().join("query.slog");
        write_log(&path);

        let all = ScoreStore::query(&path, &Query::default()).unwrap();
        assert_eq!(all.len(), 5, "deduplicated across duplicates");
        assert_eq!(&*all[0].stream, "a");
        assert_eq!(all[0].point.t, 0);

        let ranged = ScoreStore::query(
            &path,
            &Query {
                stream: Some("a".into()),
                since: Some(1),
                until: Some(2),
                ..Query::default()
            },
        )
        .unwrap();
        assert_eq!(
            ranged.iter().map(|r| r.point.t).collect::<Vec<_>>(),
            vec![1, 2]
        );

        let alerts = ScoreStore::query(
            &path,
            &Query {
                alerts_only: true,
                ..Query::default()
            },
        )
        .unwrap();
        assert_eq!(alerts.len(), 2);

        let top = ScoreStore::query(
            &path,
            &Query {
                top: Some(2),
                ..Query::default()
            },
        )
        .unwrap();
        assert_eq!(
            top.iter().map(|r| r.point.score).collect::<Vec<_>>(),
            vec![3.5, 2.5]
        );

        let missing = ScoreStore::query(
            &path,
            &Query {
                stream: Some("zzz".into()),
                ..Query::default()
            },
        )
        .unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::InvalidData);
    }
}
