//! Deterministic fault injection for the stream pipeline.
//!
//! Real fault-tolerance bugs hide in orderings: the retry that lands
//! mid-batch, the flush that fails after delivery succeeded, the
//! connection that dies between two polls. This module makes those
//! orderings *reproducible*: a [`FaultSchedule`] is an explicit (or
//! seed-derived) list of faults keyed by **event ordinal** and **call
//! index** — not by wall-clock time or batch boundary, both of which
//! vary run to run — so the same schedule produces the same failure
//! sequence on every execution, under any worker count or batching.
//!
//! - [`ChaosSink`] wraps any [`Sink`] and fails chosen `deliver` /
//!   `flush_durable` calls with chosen [`io::ErrorKind`]s, optionally
//!   leaking a torn prefix of the failing batch into the inner sink
//!   first (the duplicate-on-retry shape real torn writes produce).
//! - [`ChaosSource`] wraps any [`Source`] and stalls or kills chosen
//!   polls (a hung producer, a refused connection).
//!
//! Everything here is deterministic and sleep-free; pair it with
//! [`crate::telemetry::Clock::manual`] and a no-op backoff waiter
//! ([`crate::sink::RetryingSink::with_waiter`]) for instant tests.

use crate::event::Event;
use crate::ingest::{Source, SourceError, SourceItem, SourceStatus, StreamCursor};
use crate::sink::Sink;
use crate::telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// One injected `deliver` failure window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliverFault {
    /// 0-based ordinal (across the sink's lifetime) of the first event
    /// the fault refuses: the fault arms on the first non-empty
    /// `deliver` whose batch contains this ordinal, and every armed
    /// call fails until `failures` calls have failed.
    pub at_event: u64,
    /// Consecutive `deliver` calls that fail before the fault heals.
    /// Behind a [`crate::sink::RetryingSink`] of 4 attempts,
    /// `failures <= 3` is survived by retries alone; more exhausts
    /// them and degrades the station.
    pub failures: u32,
    /// The error kind each failing call returns (pick a transient kind
    /// to exercise retries, a permanent one to fail fast).
    pub kind: io::ErrorKind,
    /// Events from the head of the failing batch leaked into the inner
    /// sink *before* the error (on the first failing call only): a torn
    /// partial write. The caller re-delivers the whole batch after the
    /// fault heals, so the leaked prefix appears twice downstream —
    /// exactly the duplication a real torn write produces.
    pub torn: usize,
}

/// One injected `flush_durable` failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushFault {
    /// 0-based index of the `flush_durable` call that fails.
    pub at_flush: u64,
    /// The error kind the call returns.
    pub kind: io::ErrorKind,
}

/// A deterministic set of sink faults: what fails, when, and how.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Deliver faults, consumed in `at_event` order.
    pub deliver: Vec<DeliverFault>,
    /// Flush faults, consumed in `at_flush` order.
    pub flush: Vec<FlushFault>,
}

/// Transient error kinds the seeded generator draws from.
const TRANSIENT_KINDS: [io::ErrorKind; 4] = [
    io::ErrorKind::Interrupted,
    io::ErrorKind::TimedOut,
    io::ErrorKind::ConnectionReset,
    io::ErrorKind::WouldBlock,
];

/// xorshift64* step — a tiny, dependency-free, reproducible generator
/// (quality is irrelevant here; determinism is everything).
fn mix(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultSchedule {
    /// No faults.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Derive a schedule of `faults` transient deliver faults (plus the
    /// occasional torn write) spread over the first `horizon` event
    /// ordinals, entirely from `seed`. The same `(seed, horizon,
    /// faults)` always yields the same schedule.
    pub fn seeded(seed: u64, horizon: u64, faults: usize) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        // A zero state would stick xorshift at zero forever.
        if state == 0 {
            state = 0x2545_F491_4F6C_DD1D;
        }
        let mut deliver = Vec::with_capacity(faults);
        let mut used = std::collections::HashSet::new();
        for _ in 0..faults {
            let at_event = mix(&mut state) % horizon.max(1);
            // One fault per ordinal: overlapping windows would make
            // the consumed-in-order contract ambiguous.
            if !used.insert(at_event) {
                continue;
            }
            let failures = 1 + (mix(&mut state) % 3) as u32;
            let kind = TRANSIENT_KINDS[(mix(&mut state) % 4) as usize];
            let torn = if mix(&mut state).is_multiple_of(8) {
                1
            } else {
                0
            };
            deliver.push(DeliverFault {
                at_event,
                failures,
                kind,
                torn,
            });
        }
        deliver.sort_by_key(|f| f.at_event);
        FaultSchedule {
            deliver,
            flush: Vec::new(),
        }
    }

    /// Sort both fault lists into consumption order (callers building
    /// schedules by hand need not pre-sort).
    fn normalized(mut self) -> Self {
        self.deliver.sort_by_key(|f| f.at_event);
        self.flush.sort_by_key(|f| f.at_flush);
        self
    }
}

/// A [`Sink`] wrapper that fails exactly the calls its
/// [`FaultSchedule`] names — batching-independent (faults key on event
/// ordinals, which are the same however the pipeline batches) and
/// therefore deterministic under any worker count.
pub struct ChaosSink<S> {
    inner: S,
    schedule: FaultSchedule,
    /// Next unconsumed entry of `schedule.deliver`.
    next_fault: usize,
    /// Failing calls served by the armed fault so far.
    failures_done: u32,
    /// The armed fault's torn prefix was already leaked.
    torn_leaked: bool,
    /// Next unconsumed entry of `schedule.flush`.
    next_flush_fault: usize,
    /// Events accepted (delivered to the inner sink as part of a
    /// successful call) over the sink's lifetime.
    accepted: u64,
    /// `flush_durable` calls seen.
    flush_calls: u64,
}

impl<S: Sink> ChaosSink<S> {
    /// Wrap `inner` under `schedule`.
    pub fn new(inner: S, schedule: FaultSchedule) -> Self {
        ChaosSink {
            inner,
            schedule: schedule.normalized(),
            next_fault: 0,
            failures_done: 0,
            torn_leaked: false,
            next_flush_fault: 0,
            accepted: 0,
            flush_calls: 0,
        }
    }

    /// Events accepted into the inner sink so far (torn leaks excluded).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for ChaosSink<S> {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        if events.is_empty() {
            // An empty deliver is not a real delivery attempt; keeping
            // it fault-free keeps the call sequence (and thus the
            // schedule's meaning) independent of callers that probe
            // with empty batches.
            return Ok(());
        }
        if let Some(f) = self.schedule.deliver.get(self.next_fault) {
            if f.at_event < self.accepted + events.len() as u64 && self.failures_done < f.failures {
                if !self.torn_leaked && f.torn > 0 {
                    self.torn_leaked = true;
                    self.inner.deliver(&events[..events.len().min(f.torn)])?;
                }
                self.failures_done += 1;
                let kind = f.kind;
                if self.failures_done >= f.failures {
                    // Consumed: the next call heals.
                    self.next_fault += 1;
                    self.failures_done = 0;
                    self.torn_leaked = false;
                }
                return Err(io::Error::new(kind, "injected deliver fault"));
            }
        }
        self.inner.deliver(events)?;
        self.accepted += events.len() as u64;
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        let call = self.flush_calls;
        self.flush_calls += 1;
        if let Some(f) = self.schedule.flush.get(self.next_flush_fault) {
            if f.at_flush <= call {
                self.next_flush_fault += 1;
                return Err(io::Error::new(f.kind, "injected flush fault"));
            }
        }
        self.inner.flush_durable()
    }

    fn kind(&self) -> &'static str {
        // Transparent: spill files, metric labels, and degraded-mode
        // events name the real sink, so a chaos run looks exactly like
        // the fault it simulates.
        self.inner.kind()
    }
}

/// What an injected poll fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFault {
    /// Report `Idle` without polling the inner source — a producer
    /// that has hung without closing.
    Stall,
    /// Fail the poll with a connection-refused I/O error. Poll errors
    /// are source-fatal: a non-strict pipeline drops the source and keeps
    /// the session alive, a strict one aborts.
    Refuse,
}

/// A [`Source`] wrapper that stalls or kills the polls its schedule
/// names (everything else forwards untouched, cursors and
/// backpressure included).
pub struct ChaosSource<S> {
    inner: S,
    /// `(poll index, fault)`, consumed in order.
    faults: Vec<(u64, SourceFault)>,
    next: usize,
    polls: u64,
}

impl<S: Source> ChaosSource<S> {
    /// Wrap `inner`; `faults` is a list of `(poll index, fault)` pairs
    /// (any order).
    pub fn new(inner: S, mut faults: Vec<(u64, SourceFault)>) -> Self {
        faults.sort_by_key(|(at, _)| *at);
        ChaosSource {
            inner,
            faults,
            next: 0,
            polls: 0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Source> Source for ChaosSource<S> {
    fn origin(&self) -> &str {
        self.inner.origin()
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        let call = self.polls;
        self.polls += 1;
        if let Some(&(at, fault)) = self.faults.get(self.next) {
            if at <= call {
                self.next += 1;
                return match fault {
                    SourceFault::Stall => Ok(SourceStatus::Idle),
                    SourceFault::Refuse => Err(SourceError::Io(format!(
                        "{}: injected connection refusal",
                        self.inner.origin()
                    ))),
                };
            }
        }
        self.inner.poll(out)
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        self.inner.cursors(out);
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        self.inner.restore(cursors);
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        self.inner.finish(out)
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.inner.attach_telemetry(registry);
    }

    fn pressure(&mut self, load: f64) {
        self.inner.pressure(load);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn note(i: usize) -> Event {
        Event::Note(format!("n{i}"))
    }

    #[test]
    fn deliver_faults_key_on_ordinals_not_batches() {
        let schedule = FaultSchedule {
            deliver: vec![DeliverFault {
                at_event: 3,
                failures: 2,
                kind: io::ErrorKind::TimedOut,
                torn: 0,
            }],
            flush: Vec::new(),
        };
        let mut sink = ChaosSink::new(MemorySink::new(), schedule);
        // Ordinals 0..3 pass regardless of batching.
        sink.deliver(&[note(0), note(1)]).unwrap();
        sink.deliver(&[note(2)]).unwrap();
        // The batch containing ordinal 3 fails twice, then heals.
        let batch = [note(3), note(4)];
        assert_eq!(
            sink.deliver(&batch).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            sink.deliver(&batch).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        sink.deliver(&batch).unwrap();
        assert_eq!(sink.accepted(), 5);
        assert_eq!(sink.inner().events().len(), 5);
        // Empty delivers never probe the schedule.
        sink.deliver(&[]).unwrap();
        assert_eq!(sink.accepted(), 5);
    }

    #[test]
    fn torn_fault_leaks_a_prefix_once_then_duplicates_on_heal() {
        let schedule = FaultSchedule {
            deliver: vec![DeliverFault {
                at_event: 0,
                failures: 2,
                kind: io::ErrorKind::ConnectionReset,
                torn: 1,
            }],
            flush: Vec::new(),
        };
        let mut sink = ChaosSink::new(MemorySink::new(), schedule);
        let batch = [note(0), note(1)];
        assert!(sink.deliver(&batch).is_err());
        assert_eq!(sink.inner().events().len(), 1, "torn prefix leaked once");
        assert!(sink.deliver(&batch).is_err());
        assert_eq!(sink.inner().events().len(), 1, "not leaked again");
        sink.deliver(&batch).unwrap();
        // Healed full delivery lands behind the leaked prefix: the
        // duplicate a real torn write produces.
        assert_eq!(sink.inner().events().len(), 3);
        assert_eq!(sink.accepted(), 2, "leak does not count as accepted");
    }

    #[test]
    fn flush_faults_key_on_call_index() {
        let schedule = FaultSchedule {
            deliver: Vec::new(),
            flush: vec![FlushFault {
                at_flush: 1,
                kind: io::ErrorKind::Interrupted,
            }],
        };
        let mut sink = ChaosSink::new(MemorySink::new(), schedule);
        sink.flush_durable().unwrap();
        assert_eq!(
            sink.flush_durable().unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        sink.flush_durable().unwrap();
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = FaultSchedule::seeded(42, 100, 5);
        let b = FaultSchedule::seeded(42, 100, 5);
        assert_eq!(a.deliver, b.deliver);
        assert!(!a.deliver.is_empty());
        assert!(a.deliver.windows(2).all(|w| w[0].at_event < w[1].at_event));
        assert!(a
            .deliver
            .iter()
            .all(|f| f.at_event < 100 && (1..=3).contains(&f.failures)));
        let c = FaultSchedule::seeded(43, 100, 5);
        assert_ne!(a.deliver, c.deliver, "different seed, different faults");
    }

    #[test]
    fn chaos_source_stalls_and_refuses_on_schedule() {
        use crate::ingest::MemorySource;
        let inner = MemorySource::bags("s", vec![(0, vec![vec![1.0]]), (1, vec![vec![2.0]])]);
        let mut src = ChaosSource::new(
            inner,
            vec![(0, SourceFault::Stall), (2, SourceFault::Refuse)],
        );
        let mut out = Vec::new();
        assert_eq!(src.poll(&mut out).unwrap(), SourceStatus::Idle);
        assert!(out.is_empty(), "stalled poll produced nothing");
        let _ = src.poll(&mut out); // real poll
        let err = src.poll(&mut out).unwrap_err();
        assert!(
            matches!(err, SourceError::Io(ref m) if m.contains("injected")),
            "{err}"
        );
    }
}
