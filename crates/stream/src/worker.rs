//! Worker threads: each owns one shard of the engine's streams.

use crate::cache::EmdScratch;
use crate::engine::StreamId;
use crate::event::Event;
use crate::online::{OnlineDetector, OnlineState};
use crate::telemetry::{names, Counter, Gauge, MetricsRegistry, SolveTimer, LATENCY_BUCKETS};
use bagcpd::{derive_seed, Bag, Detector, EvalScratch, SolverStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;

/// Messages a worker accepts. Control messages double as barriers: they
/// are handled strictly after every push queued before them. The one
/// exception is [`Msg::Register`], which is applied immediately — the
/// engine sends it before the first push of its stream, so it can never
/// affect pushes already queued.
pub(crate) enum Msg {
    /// Bind an interned id to its name and derived seed. Sent exactly
    /// once per stream, before that stream's first push.
    Register {
        /// The interned id (hashed to this shard by the engine).
        id: StreamId,
        /// Stream name; shared, not copied, between the registry and
        /// every event the stream emits.
        name: Arc<str>,
        /// The stream's seed, derived from `(master seed, name)`.
        seed: u64,
    },
    /// Feed one bag to a registered stream (state created on first
    /// push). Carries no allocation beyond the bag itself.
    Push {
        /// Interned stream id.
        stream: StreamId,
        /// The observation.
        bag: Bag,
    },
    /// Barrier; replies with the shard's stream count once everything
    /// queued before it has been evaluated.
    Flush {
        /// Reply channel.
        reply: Sender<usize>,
    },
    /// Serialize the shard's stream states.
    Snapshot {
        /// Reply channel.
        reply: Sender<Vec<(StreamId, OnlineState)>>,
    },
    /// Retire a stream: drop its state and free its memory (the
    /// id→name registration stays, so the id remains usable). Replies
    /// with whether the stream had live state.
    Retire {
        /// Interned stream id.
        stream: StreamId,
        /// Reply channel.
        reply: Sender<bool>,
    },
    /// Install restored stream states (engine restore path); ids must
    /// already be registered.
    Install {
        /// States routed to this shard.
        streams: Vec<(StreamId, OnlineState)>,
        /// Reply channel: `Err` describes the first invalid state.
        reply: Sender<Result<(), String>>,
    },
}

/// FNV-1a hash of a stream name; drives both shard routing and
/// per-stream seed derivation (stable across worker-pool sizes).
pub(crate) fn name_hash(name: &str) -> u64 {
    crate::hash::Fnv1a::hash(name.as_bytes())
}

/// The seed of a named stream under an engine master seed. A pure
/// function of `(master, name)`, so a stream's results do not depend on
/// which worker runs it or on the worker-pool size.
pub(crate) fn stream_seed(master: u64, name: &str) -> u64 {
    derive_seed(master, name_hash(name))
}

/// One worker's pre-registered metric handles: every handle is resolved
/// at pool construction, so the evaluation loop only touches atomics —
/// no registry lock, no allocation, nothing on the hot path.
///
/// Solver work (exact solves, pivots) is counted *inside* the solver
/// scratch as plain integers (the solver crates know nothing of
/// telemetry); the worker folds the per-tick deltas into the shared
/// counters here.
pub(crate) struct WorkerTelemetry {
    /// Evaluation ticks of this worker.
    ticks: Counter,
    /// Messages drained in the latest tick (the last batch's size, not
    /// a queue depth).
    tick_messages: Gauge,
    /// Bags evaluated (shared across workers).
    bags: Counter,
    /// Score points emitted (shared).
    points: Counter,
    /// Per-bag stream errors (shared).
    errors: Counter,
    /// Exact simplex solves (shared).
    exact_solves: Counter,
    /// Simplex pivots (shared).
    pivots: Counter,
    /// Solve-latency probe, cloned into the worker's [`EmdScratch`].
    solve_timer: SolveTimer,
    /// Solver-scratch counter values at the last fold.
    last: SolverStats,
}

impl WorkerTelemetry {
    /// Register this worker's handles (labeled series keyed by worker
    /// index; shared families resolve to the same atomics pool-wide).
    pub(crate) fn new(registry: &MetricsRegistry, worker: usize) -> Self {
        let index = worker.to_string();
        let labels = [("worker", index.as_str())];
        let solve_hist = registry.histogram(
            names::SOLVER_SOLVE_SECONDS,
            "Wall-clock seconds per EMD solve",
            LATENCY_BUCKETS,
        );
        WorkerTelemetry {
            ticks: registry.counter_labeled(
                names::ENGINE_TICKS,
                "Evaluation ticks per worker",
                &labels,
            ),
            tick_messages: registry.gauge_labeled(
                names::ENGINE_TICK_MESSAGES,
                "Messages drained in the latest tick per worker",
                &labels,
            ),
            bags: registry.counter(
                names::ENGINE_BAGS_SCORED,
                "Bags evaluated by the worker pool",
            ),
            points: registry.counter(
                names::ENGINE_POINTS,
                "Score points emitted by the worker pool",
            ),
            errors: registry.counter(
                names::ENGINE_STREAM_ERRORS,
                "Per-bag stream errors (bag dropped, stream kept alive)",
            ),
            exact_solves: registry.counter(
                names::SOLVER_EXACT_SOLVES,
                "Exact transportation-simplex solves",
            ),
            pivots: registry.counter(
                names::SOLVER_PIVOTS,
                "Stepping-stone pivots across exact solves",
            ),
            solve_timer: SolveTimer::new(solve_hist, registry.clock()),
            last: SolverStats::default(),
        }
    }

    /// Record one tick that drained `drained` messages.
    fn tick(&self, drained: usize) {
        self.ticks.inc();
        self.tick_messages.set(drained as f64);
    }

    /// Fold the solver-scratch deltas since the previous fold into the
    /// shared counters.
    fn fold_solver(&mut self, stats: SolverStats) {
        self.exact_solves
            .add(stats.exact_solves - self.last.exact_solves);
        self.pivots.add(stats.pivots - self.last.pivots);
        self.last = stats;
    }
}

/// What the worker knows about an interned stream independent of its
/// live detector state: set once at registration, kept across retire.
struct StreamMeta {
    /// The stream's name (cloned cheaply into every event).
    name: Arc<str>,
    /// The stream's derived seed.
    seed: u64,
}

/// One worker's whole state: the id→name/seed registry, the live
/// detectors, and the evaluation scratches shared by *all* streams the
/// worker ticks over — one set of bootstrap buffers (`EvalScratch`) and
/// one set of EMD solver buffers (`EmdScratch`) per worker, not one per
/// inspection point or per EMD solve.
struct Shard {
    registry: HashMap<StreamId, StreamMeta>,
    streams: HashMap<StreamId, OnlineDetector>,
    scratch: EvalScratch,
    emd: EmdScratch,
}

/// Worker main loop: drain up to `batch_size` queued messages, then
/// evaluate the tick — pushes grouped per stream so each stream's
/// score/bootstrap work runs contiguously through the shared scratch —
/// and emit events.
pub(crate) fn run(
    detector: Detector,
    rx: Receiver<Msg>,
    events: SyncSender<Event>,
    batch_size: usize,
    mut telemetry: Option<WorkerTelemetry>,
    in_flight: Arc<AtomicU64>,
) {
    let mut shard = Shard {
        registry: HashMap::new(),
        streams: HashMap::new(),
        scratch: EvalScratch::new(),
        emd: EmdScratch::new(),
    };
    if let Some(t) = &telemetry {
        shard.emd.set_solve_timer(t.solve_timer.clone());
    }
    let mut batch: Vec<Msg> = Vec::with_capacity(batch_size);
    loop {
        // Block for the first message; engine shutdown closes the queue.
        match rx.recv() {
            Ok(m) => batch.push(m),
            Err(_) => return,
        }
        while batch.len() < batch_size {
            match rx.try_recv() {
                Ok(m) => batch.push(m),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        if let Some(t) = &telemetry {
            t.tick(batch.len());
        }
        let pushes = batch
            .iter()
            .filter(|m| matches!(m, Msg::Push { .. }))
            .count() as u64;
        let result = tick(
            &detector,
            &mut shard,
            &mut batch,
            &events,
            telemetry.as_ref(),
        );
        // Settle the engine's in-flight count only after the tick: a bag
        // being evaluated still occupies the pipeline for backpressure
        // purposes. The producer increments before sending, so this can
        // never underflow.
        in_flight.fetch_sub(pushes, Ordering::Relaxed);
        if let Some(t) = &mut telemetry {
            t.fold_solver(shard.emd.solver_stats());
        }
        if result.is_err() {
            // Event receiver gone: the engine was dropped mid-stream.
            return;
        }
    }
}

/// Process one batch. Returns `Err` only when the event channel is
/// disconnected.
fn tick(
    detector: &Detector,
    shard: &mut Shard,
    batch: &mut Vec<Msg>,
    events: &SyncSender<Event>,
    telemetry: Option<&WorkerTelemetry>,
) -> Result<(), ()> {
    // Group consecutive pushes by stream (per-stream arrival order is
    // preserved; cross-stream order within a tick is immaterial).
    let mut order: Vec<StreamId> = Vec::new();
    let mut groups: HashMap<StreamId, Vec<Bag>> = HashMap::new();

    for msg in batch.drain(..) {
        match msg {
            Msg::Register { id, name, seed } => {
                // Not a barrier: the engine registers an id before its
                // first push, so no queued push can depend on this.
                shard.registry.insert(id, StreamMeta { name, seed });
            }
            Msg::Push { stream, bag } => {
                groups
                    .entry(stream)
                    .or_insert_with(|| {
                        order.push(stream);
                        Vec::new()
                    })
                    .push(bag);
            }
            control => {
                // Barrier: evaluate pending pushes first.
                evaluate(detector, shard, &mut order, &mut groups, events, telemetry)?;
                match control {
                    Msg::Register { .. } | Msg::Push { .. } => unreachable!("handled above"),
                    Msg::Flush { reply } => {
                        let _ = reply.send(shard.streams.len());
                    }
                    Msg::Retire { stream, reply } => {
                        let _ = reply.send(shard.streams.remove(&stream).is_some());
                    }
                    Msg::Snapshot { reply } => {
                        let states = shard
                            .streams
                            .iter()
                            .map(|(id, det)| (*id, det.state()))
                            .collect();
                        let _ = reply.send(states);
                    }
                    Msg::Install { streams, reply } => {
                        let _ = reply.send(install(detector, shard, streams));
                    }
                }
            }
        }
    }
    evaluate(detector, shard, &mut order, &mut groups, events, telemetry)
}

/// Evaluate the grouped pushes of one tick through the shard's shared
/// scratch.
fn evaluate(
    detector: &Detector,
    shard: &mut Shard,
    order: &mut Vec<StreamId>,
    groups: &mut HashMap<StreamId, Vec<Bag>>,
    events: &SyncSender<Event>,
    telemetry: Option<&WorkerTelemetry>,
) -> Result<(), ()> {
    for id in order.drain(..) {
        let bags = groups.remove(&id).expect("grouped with order");
        let meta = shard
            .registry
            .get(&id)
            .expect("stream registered before its first push");
        let det = shard
            .streams
            .entry(id)
            .or_insert_with(|| OnlineDetector::new(detector.clone(), meta.seed));
        for bag in bags {
            if let Some(t) = telemetry {
                t.bags.inc();
            }
            match det.push_with(bag, &mut shard.scratch, &mut shard.emd) {
                Ok(Some(point)) => {
                    if let Some(t) = telemetry {
                        t.points.inc();
                    }
                    events
                        .send(Event::Point {
                            stream: meta.name.clone(),
                            point,
                        })
                        .map_err(|_| ())?;
                }
                Ok(None) => {}
                Err(e) => {
                    if let Some(t) = telemetry {
                        t.errors.inc();
                    }
                    // Drop the offending bag, keep the stream alive.
                    events
                        .send(Event::StreamError {
                            stream: meta.name.clone(),
                            message: e.to_string(),
                        })
                        .map_err(|_| ())?;
                }
            }
        }
    }
    Ok(())
}

/// Install restored states into the shard map.
fn install(
    detector: &Detector,
    shard: &mut Shard,
    streams: Vec<(StreamId, OnlineState)>,
) -> Result<(), String> {
    for (id, state) in streams {
        let name = shard
            .registry
            .get(&id)
            .map(|m| m.name.clone())
            .ok_or_else(|| format!("stream id {} is not registered", id.index()))?;
        let det = OnlineDetector::from_state(detector.clone(), state)
            .map_err(|e| format!("stream '{name}': {e}"))?;
        shard.streams.insert(id, det);
    }
    Ok(())
}
