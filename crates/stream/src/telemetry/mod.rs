//! Runtime telemetry: a lock-cheap registry of counters, gauges, and
//! fixed-bucket latency histograms, rendered as Prometheus text
//! exposition (format 0.0.4).
//!
//! Design constraints, in order:
//!
//! - **The hot path stays allocation-free.** A metric handle
//!   ([`Counter`], [`Gauge`], [`Histogram`]) is an `Arc` around plain
//!   atomics; recording is a relaxed `fetch_add` (plus a bounded CAS
//!   loop for a histogram's sum). Registration — the only locking,
//!   allocating operation — happens once, at construction time; workers
//!   then carry cloned handles. The streaming alloc-guard test pins
//!   this: a warm, *instrumented* `push_with` performs exactly zero
//!   heap allocations.
//! - **Deterministic exposition.** Families render in name order and
//!   series in label order (both `BTreeMap`s), so the output is
//!   golden-testable byte for byte.
//! - **Test-controllable time.** Every latency measurement goes through
//!   a [`Clock`], which is either monotonic (`Instant`-based) or
//!   [`Clock::manual`] — tests advance time explicitly instead of
//!   sleeping.
//!
//! The registry is wired through every layer of the runtime: the engine
//! ([`crate::EngineConfig::telemetry`]), the ingestion mux and sources,
//! the EMD solver (via a [`SolveTimer`] carried in
//! [`crate::EmdScratch`]), and the [`crate::Pipeline`] — which also
//! exposes it over HTTP with a [`MetricsServer`]. The CLI's `--stats`
//! prints a snapshot of it at exit.

mod server;

pub use server::MetricsServer;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical metric names, so instrumentation sites, tests, and docs
/// agree on one spelling. All names carry the `bagscpd_` prefix;
/// counters end in `_total` per Prometheus convention.
pub mod names {
    /// Bags accepted by the engine's push entry points.
    pub const ENGINE_PUSHES: &str = "bagscpd_engine_pushes_total";
    /// Bags evaluated by the worker pool.
    pub const ENGINE_BAGS_SCORED: &str = "bagscpd_engine_bags_scored_total";
    /// Score points emitted by the worker pool.
    pub const ENGINE_POINTS: &str = "bagscpd_engine_points_total";
    /// Per-stream detector errors (bag dropped, stream kept alive).
    pub const ENGINE_STREAM_ERRORS: &str = "bagscpd_engine_stream_errors_total";
    /// Evaluation ticks, labeled `worker`.
    pub const ENGINE_TICKS: &str = "bagscpd_engine_ticks_total";
    /// Messages (bags and control messages) the worker drained in its
    /// latest tick, labeled `worker`. It is the size of the last batch,
    /// not a queue depth: `sync_channel` exposes no length, and after a
    /// fully drained run it still holds the final batch's size.
    pub const ENGINE_TICK_MESSAGES: &str = "bagscpd_engine_tick_messages";
    /// Exact transportation-simplex solves.
    pub const SOLVER_EXACT_SOLVES: &str = "bagscpd_solver_exact_solves_total";
    /// Stepping-stone pivots across exact solves.
    pub const SOLVER_PIVOTS: &str = "bagscpd_solver_pivots_total";
    /// Wall-clock seconds per EMD solve (histogram).
    pub const SOLVER_SOLVE_SECONDS: &str = "bagscpd_solver_solve_seconds";
    /// CSV rows parsed into bag members, across all sources.
    pub const INGEST_ROWS: &str = "bagscpd_ingest_rows_total";
    /// Completed bags routed into the engine by the mux.
    pub const INGEST_BAGS: &str = "bagscpd_ingest_bags_total";
    /// Streams quarantined at ingestion.
    pub const INGEST_QUARANTINES: &str = "bagscpd_ingest_quarantines_total";
    /// Wall-clock seconds per source poll (histogram, labeled `source`).
    pub const INGEST_POLL_SECONDS: &str = "bagscpd_ingest_poll_seconds";
    /// Complete lines routed by TCP sources.
    pub const INGEST_TCP_LINES: &str = "bagscpd_ingest_tcp_lines_total";
    /// Lines dropped by `TcpLimits::max_line_bytes`.
    pub const INGEST_TCP_LINES_DROPPED: &str = "bagscpd_ingest_tcp_lines_dropped_total";
    /// Stream names refused by `TcpLimits::max_streams`.
    pub const INGEST_TCP_STREAMS_REFUSED: &str = "bagscpd_ingest_tcp_streams_refused_total";
    /// Events delivered, labeled `sink`.
    pub const PIPELINE_EVENTS_DELIVERED: &str = "bagscpd_pipeline_events_delivered_total";
    /// Wall-clock seconds per delivery batch (histogram, labeled `sink`).
    pub const PIPELINE_DELIVER_SECONDS: &str = "bagscpd_pipeline_deliver_seconds";
    /// Wall-clock seconds per durable flush (histogram, labeled `sink`).
    pub const PIPELINE_FLUSH_SECONDS: &str = "bagscpd_pipeline_flush_seconds";
    /// Checkpoints committed.
    pub const PIPELINE_CHECKPOINTS: &str = "bagscpd_pipeline_checkpoints_total";
    /// Checkpoint bytes written (cumulative).
    pub const PIPELINE_CHECKPOINT_BYTES: &str = "bagscpd_pipeline_checkpoint_bytes_total";
    /// Wall-clock seconds per checkpoint commit (histogram).
    pub const PIPELINE_CHECKPOINT_SECONDS: &str = "bagscpd_pipeline_checkpoint_seconds";
    /// Alert count of the noisiest streams in the last window, labeled
    /// `stream`.
    pub const TOPK_ALERTS: &str = "bagscpd_stream_topk_alerts";
    /// Score sum of the noisiest streams in the last window, labeled
    /// `stream`.
    pub const TOPK_SCORE_SUM: &str = "bagscpd_stream_topk_score_sum";
    /// `GET /metrics` requests answered by the [`super::MetricsServer`].
    pub const METRICS_SCRAPES: &str = "bagscpd_metrics_scrapes_total";
    /// Diagnostic lines suppressed by the stderr sink's rate limit.
    pub const STDERR_SUPPRESSED: &str = "bagscpd_stderr_lines_suppressed_total";
    /// Delivery/flush attempts retried by [`crate::sink::RetryingSink`],
    /// labeled `sink`.
    pub const SINK_RETRIES: &str = "bagscpd_sink_retries_total";
    /// Backoff pause before each retry, in seconds (histogram).
    pub const SINK_RETRY_BACKOFF_SECONDS: &str = "bagscpd_sink_retry_backoff_seconds";
    /// Sinks currently in degraded mode (spilling instead of
    /// delivering).
    pub const EGRESS_DEGRADED: &str = "bagscpd_egress_degraded";
    /// Events appended to durable spill logs while degraded.
    pub const EGRESS_SPILLED_EVENTS: &str = "bagscpd_egress_spilled_events_total";
    /// Wall-clock seconds per spill replay on sink recovery (histogram).
    pub const EGRESS_SPILL_REPLAY_SECONDS: &str = "bagscpd_egress_spill_replay_seconds";
    /// Lines refused from unauthenticated TCP connections.
    pub const INGEST_TCP_AUTH_FAILURES: &str = "bagscpd_ingest_tcp_auth_failures_total";
    /// `!busy`/`!ready` backpressure transitions broadcast to TCP
    /// clients.
    pub const INGEST_TCP_BACKPRESSURE: &str = "bagscpd_ingest_tcp_backpressure_transitions_total";
    /// Idle streams evicted (detector retired, cursor dropped).
    pub const INGEST_STREAMS_EVICTED: &str = "bagscpd_ingest_streams_evicted_total";
    /// Records appended to durable score logs by `ScoreLogSink`.
    pub const SCORELOG_RECORDS: &str = "bagscpd_scorelog_records_total";
    /// Bytes appended to durable score logs (frame overhead included).
    pub const SCORELOG_BYTES: &str = "bagscpd_scorelog_bytes_total";
    /// Per-(stream, t) score comparisons made by replay `--diff`.
    pub const SCORELOG_REPLAY_COMPARED: &str = "bagscpd_scorelog_replay_compared_total";
    /// Replay comparisons that diverged beyond the session's epsilon.
    pub const SCORELOG_REPLAY_DIVERGED: &str = "bagscpd_scorelog_replay_diverged_total";
}

/// Default latency buckets (seconds), spanning sub-microsecond EMD
/// solves up to multi-second checkpoint commits.
pub const LATENCY_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1, 2.5];

/// A monotonic nanosecond clock, either real (`Instant`-based) or
/// manual (an atomic counter tests advance explicitly). Every latency
/// histogram in the runtime reads time through one of these, so latency
/// tests are deterministic without sleeping.
///
/// Cloning shares the underlying time source: clones of a manual clock
/// all see the same `advance_ns`.
#[derive(Debug, Clone)]
pub struct Clock(ClockInner);

#[derive(Debug, Clone)]
enum ClockInner {
    /// Nanoseconds since the clock's construction.
    Monotonic(Instant),
    /// Shared counter, advanced explicitly.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A real clock: `now_ns` is nanoseconds since construction.
    pub fn monotonic() -> Self {
        Clock(ClockInner::Monotonic(Instant::now()))
    }

    /// A manual clock starting at zero; advance it with
    /// [`Clock::advance_ns`].
    pub fn manual() -> Self {
        Clock(ClockInner::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// Current time in nanoseconds. Never allocates.
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            ClockInner::Monotonic(epoch) => {
                let d = epoch.elapsed();
                d.as_secs()
                    .saturating_mul(1_000_000_000)
                    .saturating_add(u64::from(d.subsec_nanos()))
            }
            ClockInner::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Advance a manual clock by `ns`.
    ///
    /// # Panics
    /// Panics on a monotonic clock — only tests hold manual clocks, and
    /// advancing real time is a category error.
    pub fn advance_ns(&self, ns: u64) {
        match &self.0 {
            ClockInner::Manual(t) => {
                t.fetch_add(ns, Ordering::Relaxed);
            }
            // lint:allow(NO_PANIC_SURFACE, manual clocks exist only in tests; advancing real time is a category error worth aborting loudly)
            ClockInner::Monotonic(_) => panic!("Clock::advance_ns on a monotonic clock"),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::monotonic()
    }
}

/// A monotonically increasing count. Cloning shares the underlying
/// atomic; recording is one relaxed `fetch_add`.
#[derive(Debug, Clone, Default)]
#[must_use = "a dropped Counter handle records nothing"]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (stored as `f64` bits in one
/// atomic). Cloning shares the underlying atomic.
#[derive(Debug, Clone)]
#[must_use = "a dropped Gauge handle records nothing"]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: bucket bounds are chosen at registration,
/// so recording is a bounded linear scan plus one `fetch_add` — no
/// allocation, ever. Rendered with cumulative `_bucket{le=…}` series
/// plus `_sum` and `_count`, per the Prometheus text format.
#[derive(Debug, Clone)]
#[must_use = "a dropped Histogram handle records nothing"]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts, `bounds.len() + 1` long.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Record one observation. Allocation-free: a bounded scan for the
    /// bucket, two `fetch_add`s, and a CAS loop for the sum.
    pub fn observe(&self, v: f64) {
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration measured in nanoseconds (stored in seconds).
    pub fn observe_ns(&self, ns: u64) {
        self.observe(ns as f64 * 1e-9);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// A latency probe pairing a [`Histogram`] with the [`Clock`] it reads:
/// carried by [`crate::EmdScratch`] into the solve loop, so every EMD
/// solve is timed without the solver crates knowing telemetry exists.
#[derive(Debug, Clone)]
#[must_use = "a dropped SolveTimer times nothing"]
pub struct SolveTimer {
    hist: Histogram,
    clock: Clock,
}

impl SolveTimer {
    /// Pair a histogram with the clock that feeds it.
    pub fn new(hist: Histogram, clock: Clock) -> Self {
        SolveTimer { hist, clock }
    }

    /// Start a measurement (a nanosecond timestamp).
    pub fn start(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Finish a measurement started at `t0`.
    pub fn stop(&self, t0: u64) {
        self.hist.observe_ns(self.clock.now_ns().saturating_sub(t0));
    }
}

/// One flattened sample of a [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// `name{labels}` (histograms flatten to `name_count` and
    /// `name_sum`).
    pub key: String,
    /// The sample's value (counters as exact integers in `f64`).
    pub value: f64,
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A registered handle of any kind.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric family: a help string, a kind, and its labeled series
/// (key = rendered label pairs without braces; `""` for unlabeled).
#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: Kind,
    series: BTreeMap<String, Handle>,
}

#[derive(Debug)]
struct RegistryInner {
    clock: Clock,
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// The process-wide metric registry: a cheaply clonable handle (one
/// `Arc`) mapping `(name, labels)` to shared atomic metric handles.
///
/// Registration (`counter`, `gauge`, `histogram`, and their `_labeled`
/// variants) takes the registry lock and may allocate; it is idempotent
/// — registering the same name and labels again returns a handle to the
/// same atomics, which is how N workers share one counter. Recording
/// through a handle never locks and never allocates.
///
/// # Panics
/// Registering an existing name as a different kind panics: two layers
/// disagreeing on what a metric *is* is a programming error, not a
/// runtime condition.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry on a monotonic clock.
    pub fn new() -> Self {
        MetricsRegistry::with_clock(Clock::monotonic())
    }

    /// A fresh registry reading time from `clock` (tests pass
    /// [`Clock::manual`] for deterministic latency histograms).
    pub fn with_clock(clock: Clock) -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                clock,
                families: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The clock every latency measurement of this registry reads.
    pub fn clock(&self) -> Clock {
        self.inner.clock.clone()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_labeled(name, help, &[])
    }

    /// Register (or look up) a labeled counter.
    pub fn counter_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            Handle::Counter(Counter::default())
        }) {
            Handle::Counter(c) => c,
            // lint:allow(NO_PANIC_SURFACE, register's kind assert guarantees the variant)
            _ => unreachable!("registered as a counter"),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_labeled(name, help, &[])
    }

    /// Register (or look up) a labeled gauge.
    pub fn gauge_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels, || {
            Handle::Gauge(Gauge::default())
        }) {
            Handle::Gauge(g) => g,
            // lint:allow(NO_PANIC_SURFACE, register's kind assert guarantees the variant)
            _ => unreachable!("registered as a gauge"),
        }
    }

    /// Register (or look up) an unlabeled histogram with the given
    /// ascending bucket bounds (first registration's bounds win).
    pub fn histogram(&self, name: &'static str, help: &'static str, bounds: &[f64]) -> Histogram {
        self.histogram_labeled(name, help, bounds, &[])
    }

    /// Register (or look up) a labeled histogram.
    pub fn histogram_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels, || {
            Handle::Histogram(Histogram::new(bounds))
        }) {
            Handle::Histogram(h) => h,
            // lint:allow(NO_PANIC_SURFACE, register's kind assert guarantees the variant)
            _ => unreachable!("registered as a histogram"),
        }
    }

    /// Replace a gauge family's whole series set at once — the
    /// publication primitive behind the windowed top-K gauges, where
    /// last window's streams must *disappear*, not linger at stale
    /// values.
    pub fn replace_gauges(
        &self,
        name: &'static str,
        help: &'static str,
        label: &str,
        entries: &[(&str, f64)],
    ) {
        let mut families = self
            .inner
            .families
            .lock()
            // Poisoning is ignored: every critical section only inserts
            // or overwrites whole entries, so no partial state escapes.
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind: Kind::Gauge,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == Kind::Gauge,
            "metric '{name}' is a {}, not a gauge",
            family.kind.as_str()
        );
        family.series.clear();
        for (value, v) in entries {
            let gauge = Gauge::default();
            gauge.set(*v);
            family
                .series
                .insert(label_key(&[(label, value)]), Handle::Gauge(gauge));
        }
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self
            .inner
            .families
            .lock()
            // Poisoning is ignored: every critical section only inserts
            // or overwrites whole entries, so no partial state escapes.
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric '{name}' is already registered as a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Render the whole registry as Prometheus text exposition
    /// (format 0.0.4): `# HELP` / `# TYPE` per family, families in name
    /// order, series in label order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`MetricsRegistry::render`] into a caller-kept buffer.
    pub fn render_into(&self, out: &mut String) {
        let families = self
            .inner
            .families
            .lock()
            // Poisoning is ignored: every critical section only inserts
            // or overwrites whole entries, so no partial state escapes.
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => {
                        write_sample(out, name, "", labels, None, &c.get().to_string());
                    }
                    Handle::Gauge(g) => {
                        write_sample(out, name, "", labels, None, &fmt_value(g.get()));
                    }
                    Handle::Histogram(h) => {
                        let inner = &*h.0;
                        let mut cumulative = 0u64;
                        for (i, bound) in inner.bounds.iter().enumerate() {
                            cumulative += inner.buckets[i].load(Ordering::Relaxed);
                            write_sample(
                                out,
                                name,
                                "_bucket",
                                labels,
                                Some(&fmt_value(*bound)),
                                &cumulative.to_string(),
                            );
                        }
                        write_sample(
                            out,
                            name,
                            "_bucket",
                            labels,
                            Some("+Inf"),
                            &h.count().to_string(),
                        );
                        write_sample(out, name, "_sum", labels, None, &fmt_value(h.sum()));
                        write_sample(out, name, "_count", labels, None, &h.count().to_string());
                    }
                }
            }
        }
    }

    /// Flatten every series to `(key, value)` samples — the `--stats`
    /// report's input. Counters and gauges yield one sample; histograms
    /// yield `name_count` and `name_sum`.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let families = self
            .inner
            .families
            .lock()
            // Poisoning is ignored: every critical section only inserts
            // or overwrites whole entries, so no partial state escapes.
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, handle) in &family.series {
                let braced = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                };
                match handle {
                    Handle::Counter(c) => out.push(MetricSample {
                        key: format!("{name}{braced}"),
                        value: c.get() as f64,
                    }),
                    Handle::Gauge(g) => out.push(MetricSample {
                        key: format!("{name}{braced}"),
                        value: g.get(),
                    }),
                    Handle::Histogram(h) => {
                        out.push(MetricSample {
                            key: format!("{name}_count{braced}"),
                            value: h.count() as f64,
                        });
                        out.push(MetricSample {
                            key: format!("{name}_sum{braced}"),
                            value: h.sum(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// One exposition line: `name[suffix]{labels[,le="…"]} value`.
fn write_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    match (labels.is_empty(), le) {
        (true, None) => {}
        (true, Some(le)) => {
            let _ = write!(out, "{{le=\"{le}\"}}");
        }
        (false, None) => {
            let _ = write!(out, "{{{labels}}}");
        }
        (false, Some(le)) => {
            let _ = write!(out, "{{{labels},le=\"{le}\"}}");
        }
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Rendered label pairs without the surrounding braces (`""` when
/// unlabeled); doubles as the series key, so series order is label
/// order.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Escape a HELP string (`\` and newlines).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A float in Prometheus spelling (`+Inf`/`-Inf`/`NaN` instead of
/// Rust's `inf`/`NaN`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Windowed per-stream noise accounting behind the "noisiest streams"
/// top-K gauges: the pipeline records every score point, and every
/// `window` points publishes the top K by alert count and by score sum
/// as two replaceable gauge families, then starts the next window.
///
/// Lives outside the hot path (the pipeline's delivery loop, which
/// already allocates per event batch), so a plain `HashMap` is fine.
#[derive(Debug, Default)]
pub struct NoisyStreams {
    stats: HashMap<Arc<str>, (u64, f64)>,
    points: u64,
}

impl NoisyStreams {
    /// Empty accounting.
    pub fn new() -> Self {
        NoisyStreams::default()
    }

    /// Record one score point.
    pub fn record(&mut self, stream: &Arc<str>, score: f64, alert: bool) {
        let entry = self.stats.entry(stream.clone()).or_insert((0, 0.0));
        entry.0 += u64::from(alert);
        entry.1 += score;
        self.points += 1;
    }

    /// Points recorded in the current window.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Publish the current window's top `k` (by alerts, then by score
    /// sum) into `registry` as the [`names::TOPK_ALERTS`] and
    /// [`names::TOPK_SCORE_SUM`] gauge families, replacing last
    /// window's, and reset the window.
    pub fn publish(&mut self, registry: &MetricsRegistry, k: usize) {
        let mut ranked: Vec<(&Arc<str>, u64, f64)> = self
            .stats
            .iter()
            .map(|(name, &(alerts, score))| (name, alerts, score))
            .collect();

        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.total_cmp(&a.2)).then(a.0.cmp(b.0)));
        let by_alerts: Vec<(&str, f64)> = ranked
            .iter()
            .take(k)
            .map(|(name, alerts, _)| (name.as_ref(), *alerts as f64))
            .collect();
        registry.replace_gauges(
            names::TOPK_ALERTS,
            "Alert count of the noisiest streams in the last window",
            "stream",
            &by_alerts,
        );

        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(b.1.cmp(&a.1)).then(a.0.cmp(b.0)));
        let by_score: Vec<(&str, f64)> = ranked
            .iter()
            .take(k)
            .map(|(name, _, score)| (name.as_ref(), *score))
            .collect();
        registry.replace_gauges(
            names::TOPK_SCORE_SUM,
            "Score sum of the noisiest streams in the last window",
            "stream",
            &by_score,
        );

        self.stats.clear();
        self.points = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t_total", "help");
        let b = reg.counter("t_total", "help");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("t_total", "help");
        let _ = reg.gauge("t_total", "help");
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", "latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = reg.render();
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(
            text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count 3\n"), "{text}");
    }

    #[test]
    fn manual_clock_drives_solve_timer() {
        let clock = Clock::manual();
        let reg = MetricsRegistry::with_clock(clock.clone());
        let h = reg.histogram("solve_seconds", "solve latency", &[1e-3, 1.0]);
        let timer = SolveTimer::new(h.clone(), clock.clone());
        let t0 = timer.start();
        clock.advance_ns(2_000_000); // 2 ms
        timer.stop(t0);
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn topk_publishes_and_resets_window() {
        let reg = MetricsRegistry::new();
        let mut noisy = NoisyStreams::new();
        let a: Arc<str> = Arc::from("a");
        let b: Arc<str> = Arc::from("b");
        noisy.record(&a, 1.0, true);
        noisy.record(&a, 2.0, true);
        noisy.record(&b, 10.0, false);
        noisy.publish(&reg, 1);
        let text = reg.render();
        assert!(
            text.contains("bagscpd_stream_topk_alerts{stream=\"a\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("bagscpd_stream_topk_score_sum{stream=\"b\"} 10"),
            "{text}"
        );
        assert_eq!(noisy.points(), 0, "window reset");
        // Next window replaces, not accumulates.
        noisy.record(&b, 0.5, true);
        noisy.publish(&reg, 1);
        let text = reg.render();
        assert!(
            !text.contains("stream=\"a\""),
            "stale series must disappear: {text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter_labeled("c_total", "help", &[("s", "a\"b\\c\nd")]);
        let text = reg.render();
        assert!(text.contains("c_total{s=\"a\\\"b\\\\c\\nd\"} 0"), "{text}");
    }
}
