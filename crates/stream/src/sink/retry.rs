//! [`RetryingSink`]: bounded exponential backoff for transient sink
//! faults.
//!
//! A flaky destination (a socket that resets, a file system that
//! briefly blocks) should not abort a long-running serve session. This
//! wrapper retries [`Sink::deliver`] / [`Sink::flush_durable`] up to a
//! number of attempts: transient `io::ErrorKind`s are retried with
//! exponential backoff (25 ms doubling up to 2 s) and deterministic
//! jitter, permanent ones fail immediately, and an attempt whose
//! [`Clock`]-measured duration reaches 1 s is treated as transient
//! regardless of kind (a synchronous sink call cannot be preempted, so
//! the timeout classifies rather than interrupts). When the attempts
//! are exhausted the error propagates — and if the pipeline was built
//! with [`crate::PipelineBuilder::spill_dir`], that exhaustion triggers
//! degraded mode instead of an abort.
//!
//! Retrying `deliver` assumes re-delivery of the same batch is
//! acceptable to the destination: sinks that may have partially written
//! before failing can see the prefix duplicated. The repo's CSV
//! consumers dedup on `(stream,t)`, which is the same contract resume
//! already relies on.

use super::Sink;
use crate::event::Event;
use crate::hash::Fnv1a;
use crate::telemetry::{names, Clock, Counter, Histogram, MetricsRegistry, LATENCY_BUCKETS};
use std::io;
use std::time::Duration;

/// Backoff before the first retry; doubles per retry.
const BASE_BACKOFF: Duration = Duration::from_millis(25);

/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// An errored attempt that ran at least this long is treated as
/// transient regardless of its `io::ErrorKind`.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(1);

/// Whether an `io::ErrorKind` is worth retrying. Connection-shaped and
/// interruption-shaped failures are transient; everything else (invalid
/// data, permissions, broken pipes) is permanent.
///
/// `BrokenPipe` is deliberately permanent: the reader is gone and
/// re-writing the same batch cannot bring it back — that is the
/// degraded-mode path's job.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
    )
}

/// Backoff before retry number `retry` (0-based) of call number `call`:
/// `min(BASE_BACKOFF * 2^retry, MAX_BACKOFF)`, then deterministically
/// jittered into `[half, full]` by hashing `(0, call, retry)`. Pure —
/// same inputs, same pause.
fn backoff(retry: u32, call: u64) -> Duration {
    let exp = BASE_BACKOFF
        .saturating_mul(1u32.checked_shl(retry.min(20)).unwrap_or(u32::MAX))
        .min(MAX_BACKOFF);
    let mut h = Fnv1a::new();
    // A zero seed word leads the hash input; dropping it would move
    // every pause.
    h.update(&0u64.to_le_bytes());
    h.update(&call.to_le_bytes());
    h.update(&retry.to_le_bytes());
    // Jitter fraction in [0, 1) with 10 bits of resolution.
    let frac = (h.finish() & 0x3ff) as f64 / 1024.0;
    let half = exp / 2;
    let half_ns = half.as_nanos().min(u128::from(u64::MAX)) as u64;
    half + Duration::from_nanos((half_ns as f64 * frac) as u64)
}

/// A [`Sink`] wrapper that retries transient failures. See the module
/// docs for the classification rules and the re-delivery caveat.
pub struct RetryingSink<S> {
    inner: S,
    max_attempts: u32,
    clock: Clock,
    waiter: Box<dyn FnMut(Duration) + Send>,
    calls: u64,
    retries: Option<Counter>,
    backoff_seconds: Option<Histogram>,
}

impl<S: Sink> RetryingSink<S> {
    /// Wrap `inner`, trying each call at most `max_attempts` times (the
    /// first try included; `1` disables retrying). The default waiter
    /// really sleeps; tests inject a no-op with
    /// [`RetryingSink::with_waiter`] so no test ever blocks on backoff.
    pub fn new(inner: S, max_attempts: u32) -> Self {
        RetryingSink {
            inner,
            max_attempts: max_attempts.max(1),
            clock: Clock::monotonic(),
            waiter: Box::new(std::thread::sleep),
            calls: 0,
            retries: None,
            backoff_seconds: None,
        }
    }

    /// Replace the backoff waiter (default: `thread::sleep`).
    pub fn with_waiter(mut self, waiter: impl FnMut(Duration) + Send + 'static) -> Self {
        self.waiter = Box::new(waiter);
        self
    }

    /// Register retry telemetry: a `sink`-labeled retry counter and a
    /// backoff-pause histogram. Also adopts the registry's clock.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.clock = registry.clock();
        self.retries = Some(registry.counter_labeled(
            names::SINK_RETRIES,
            "Delivery/flush attempts retried by RetryingSink.",
            &[("sink", self.inner.kind())],
        ));
        self.backoff_seconds = Some(registry.histogram(
            names::SINK_RETRY_BACKOFF_SECONDS,
            "Backoff pause before each sink retry, in seconds.",
            LATENCY_BUCKETS,
        ));
        self
    }

    fn run<F>(&mut self, mut op: F) -> io::Result<()>
    where
        F: FnMut(&mut S) -> io::Result<()>,
    {
        self.calls = self.calls.wrapping_add(1);
        let timeout_ns = ATTEMPT_TIMEOUT.as_nanos() as u64;
        let mut retry = 0u32;
        loop {
            let start = self.clock.now_ns();
            match op(&mut self.inner) {
                Ok(()) => return Ok(()),
                Err(err) => {
                    let took = self.clock.now_ns().saturating_sub(start);
                    let transient = took >= timeout_ns || is_transient(err.kind());
                    if !transient || retry + 1 >= self.max_attempts {
                        return Err(err);
                    }
                    let pause = backoff(retry, self.calls);
                    if let Some(c) = &self.retries {
                        c.inc();
                    }
                    if let Some(h) = &self.backoff_seconds {
                        h.observe(pause.as_secs_f64());
                    }
                    (self.waiter)(pause);
                    retry += 1;
                }
            }
        }
    }
}

impl<S: Sink> Sink for RetryingSink<S> {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        self.run(|inner| inner.deliver(events))
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        self.run(S::flush_durable)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}
