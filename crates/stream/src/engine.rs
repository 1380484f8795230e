//! Sharded multi-stream engine with bounded queues and checkpointing.
//!
//! Every call that can wait on the worker pool — a push into a full
//! queue, a control message, a barrier reply — waits in one loop,
//! `drain_loop`, which keeps draining the shared event queue (a worker
//! parked on a full event queue needs those receives to make progress)
//! and hands what it drains to an *outlet* its caller chooses. The
//! public calls ([`StreamEngine::push_id`], [`StreamEngine::flush`],
//! [`StreamEngine::resolve`], [`StreamEngine::retire`],
//! [`StreamEngine::snapshot`]) leave the events in the engine's stash
//! for [`StreamEngine::drain_events`]; the [`crate::Pipeline`] passes an
//! outlet that delivers them to its sinks while the call still waits.

use crate::event::Event;
use crate::snapshot::{decode_engine, encode_engine, SnapshotError};
use crate::telemetry::{names, Counter, MetricsRegistry};
use crate::worker::{self, Msg, WorkerTelemetry};
use bagcpd::{Bag, DetectError, Detector, DetectorConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Interned handle of a named stream within one [`StreamEngine`].
///
/// Obtained from [`StreamEngine::resolve`]; pushing by id skips the
/// per-push name hash and map lookup entirely, which is what makes the
/// multi-stream hot path allocation-free. Ids are dense (`0, 1, 2, …` in intern order),
/// stable for the life of the engine — including across
/// [`StreamEngine::retire_id`] and a [`StreamEngine::snapshot`] /
/// [`StreamEngine::restore`] round trip (the snapshot persists the
/// intern table) — and meaningless to any *other* engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// Position of this stream's name in the engine's intern table (and
    /// in the snapshot's name table).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Detection parameters shared by every stream of this engine.
    pub detector: DetectorConfig,
    /// Master seed; each stream's seed is derived from it and the
    /// stream's name, independent of sharding.
    pub seed: u64,
    /// Worker threads (streams are hash-sharded across them). Defaults
    /// to the machine's available parallelism, or 1 where that is
    /// unknown.
    pub workers: usize,
    /// Bound of each worker's input queue. A full queue makes `push_id`
    /// wait — backpressure instead of unbounded buffering. Defaults to
    /// 64 bags.
    pub queue_capacity: usize,
    /// Maximum messages a worker drains per evaluation tick.
    pub batch_size: usize,
    /// Bound of the shared event queue; producers block when the
    /// consumer falls this far behind.
    pub event_capacity: usize,
    /// Telemetry registry. `Some` instruments the engine and its
    /// workers (pushes, bags scored, points, ticks, per-worker drain
    /// depth, solver work and solve latency); `None` runs with zero
    /// instrumentation overhead. All metric handles are registered at
    /// pool construction, so instrumentation adds nothing but relaxed
    /// atomic increments to the hot path.
    pub telemetry: Option<MetricsRegistry>,
}

/// Default bound of each worker's input queue. A queued bag waits for
/// every bag ahead of it, so the bound sets latency, not throughput:
/// 1,024 held all 768 bags of a 16-stream fleet of 128-row bags at
/// k = 32, and its median ingest→emit latency fell from 115–150 ms to
/// 71–89 ms at 64, at the same throughput (2 workers on 2 vCPUs).
const QUEUE_CAPACITY: usize = 64;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            detector: DetectorConfig::default(),
            seed: 0,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            queue_capacity: QUEUE_CAPACITY,
            batch_size: 256,
            event_capacity: 65536,
            telemetry: None,
        }
    }
}

/// Engine failure modes.
#[derive(Debug)]
pub enum EngineError {
    /// Configuration rejected.
    BadConfig(String),
    /// The worker pool is gone (a worker exited or the engine shut down).
    Closed,
    /// Snapshot encode/decode/validation failure.
    Snapshot(SnapshotError),
    /// A [`StreamId`] this engine never issued.
    ForeignId(StreamId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadConfig(why) => write!(f, "bad engine config: {why}"),
            EngineError::Closed => write!(f, "engine is closed"),
            EngineError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
            EngineError::ForeignId(id) => {
                write!(f, "stream id {} was not issued by this engine", id.index())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

/// A pool of worker threads running thousands of independent
/// [`crate::OnlineDetector`]s behind bounded channels.
///
/// - **Interning** — a stream name is hashed exactly once, at
///   [`Self::resolve`], into a dense [`StreamId`]; the id-keyed entry
///   points ([`Self::push_id`], [`Self::retire_id`]) then move nothing
///   but an integer and the bag — no per-push allocation, hashing, or
///   map lookup. Snapshots persist the intern table, so ids stay valid
///   across [`Self::restore`].
/// - **Sharding** — a stream name is FNV-hashed to one worker, so each
///   stream's bags are processed in order by a single thread, and a
///   stream's results are independent of the pool size.
/// - **Backpressure** — input and event queues are bounded, so the
///   *in-flight pipeline* (queued bags plus undelivered events) is
///   bounded; [`Self::push_id`] waits when the target worker is
///   saturated rather than queueing without limit.
/// - **Checkpointing** — [`Self::snapshot`] serializes every stream's
///   state into one buffer; [`Self::restore`] resumes an identical
///   engine from it (subsequent outputs are bit-identical to never
///   having stopped).
///
/// Consume results with [`Self::drain_events`]. Completed results are
/// never dropped: while a call of a direct caller waits, ready events
/// are moved into an engine-side stash that `drain_events` returns
/// first. That stash is the *consumer's* buffer — it grows with every
/// result the caller has not yet drained (exactly as if the caller had
/// collected them), so a producer that never drains trades memory for
/// its own results, not for input buffering. Drain regularly, as the
/// scale tests do. (A [`crate::Pipeline`] never leaves events there: its
/// waits deliver them to its sinks as they are drained.)
#[derive(Debug)]
pub struct StreamEngine {
    detector: Detector,
    master_seed: u64,
    /// Intern table: `names[id]` is the name behind [`StreamId`] `id`.
    names: Vec<Arc<str>>,
    /// Reverse lookup, consulted only on the name-keyed entry points.
    ids: HashMap<Arc<str>, StreamId>,
    /// Cached shard of each id (the name is hashed once, at intern).
    shards: Vec<u32>,
    senders: Vec<SyncSender<Msg>>,
    events: Receiver<Event>,
    stash: VecDeque<Event>,
    handles: Vec<JoinHandle<()>>,
    /// Accepted-push counter when telemetry is configured.
    pushes: Option<Counter>,
    /// Bags accepted but not yet evaluated (incremented on push,
    /// decremented by workers after each tick) — the numerator of
    /// [`Self::queue_load`].
    in_flight: Arc<AtomicU64>,
    /// Per-worker input-queue bound, kept for [`Self::queue_load`].
    queue_capacity: usize,
}

impl StreamEngine {
    /// Spawn the worker pool.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for invalid detector or pool
    /// parameters, or when a worker thread cannot be spawned (the
    /// workers already started are shut down first).
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        if cfg.workers == 0 {
            return Err(EngineError::BadConfig("workers must be >= 1".into()));
        }
        if cfg.queue_capacity == 0 || cfg.event_capacity == 0 {
            return Err(EngineError::BadConfig(
                "queue capacities must be >= 1".into(),
            ));
        }
        if cfg.batch_size == 0 {
            return Err(EngineError::BadConfig("batch size must be >= 1".into()));
        }
        let detector = Detector::new(cfg.detector.clone())
            .map_err(|e: DetectError| EngineError::BadConfig(e.to_string()))?;

        let (event_tx, event_rx) = mpsc::sync_channel(cfg.event_capacity);
        let in_flight = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
            let det = detector.clone();
            let ev = event_tx.clone();
            let batch = cfg.batch_size;
            let settled = in_flight.clone();
            // All metric handles resolve here, once; workers only touch
            // atomics from then on.
            let telemetry = cfg.telemetry.as_ref().map(|r| WorkerTelemetry::new(r, i));
            let spawned = std::thread::Builder::new()
                .name(format!("stream-worker-{i}"))
                .spawn(move || worker::run(det, rx, ev, batch, telemetry, settled));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // The started workers hold no bags, so closing their
                    // queues ends them without a single event.
                    drop(senders);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(EngineError::BadConfig(format!(
                        "cannot spawn worker thread {i}: {e}"
                    )));
                }
            }
            senders.push(tx);
        }
        let pushes = cfg.telemetry.as_ref().map(|r| {
            r.counter(
                names::ENGINE_PUSHES,
                "Bags accepted by the engine's push entry points",
            )
        });
        Ok(StreamEngine {
            detector,
            master_seed: cfg.seed,
            names: Vec::new(),
            ids: HashMap::new(),
            shards: Vec::new(),
            senders,
            events: event_rx,
            stash: VecDeque::new(),
            handles,
            pushes,
            in_flight,
            queue_capacity: cfg.queue_capacity,
        })
    }

    /// Restore an engine from a [`Self::snapshot`] buffer. The supplied
    /// configuration's detector parameters must match the snapshot's
    /// (pool-shape parameters — workers, capacities — may differ); the
    /// master seed is taken from the snapshot.
    ///
    /// # Errors
    /// Snapshot validation failures, or pool spawn failures.
    pub fn restore(bytes: &[u8], cfg: EngineConfig) -> Result<Self, EngineError> {
        let snap = decode_engine(bytes, &cfg.detector)?;
        let mut engine = StreamEngine::new(EngineConfig {
            seed: snap.master_seed,
            ..cfg
        })?;
        // Rebuild the intern table in snapshot order, so every id means
        // the same stream it did before the checkpoint.
        for name in &snap.names {
            engine.resolve(name)?;
        }
        // Route each stream's state to its shard.
        let n = engine.senders.len();
        let mut per_shard: Vec<Vec<(StreamId, crate::OnlineState)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (idx, state) in snap.streams {
            let id = StreamId(idx); // decode validated idx < names.len()
            per_shard[engine.shard_of_id(id)?].push((id, state));
        }
        let (tx, rx) = mpsc::channel();
        for (shard, streams) in per_shard.into_iter().enumerate() {
            engine.send_control(
                shard,
                Msg::Install {
                    streams,
                    reply: tx.clone(),
                },
                &mut keep,
            )?;
        }
        drop(tx);
        for _ in 0..n {
            match engine.wait_reply(&rx, &mut keep) {
                Ok(Ok(())) => {}
                Ok(Err(why)) => return Err(EngineError::Snapshot(SnapshotError::Corrupt(why))),
                Err(e) => return Err(e),
            }
        }
        Ok(engine)
    }

    /// The engine's master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Intern a stream name, returning its stable [`StreamId`]. The
    /// first sighting of a name hashes it once (shard + seed), records
    /// it in the intern table, and registers it with its worker;
    /// every later call is a single map lookup. Hot-path producers
    /// resolve once and then use [`Self::push_id`], which touches no
    /// string at all.
    ///
    /// Resolving does not create stream state — that still happens on
    /// the first push — and never needs to be repeated: the id survives
    /// [`Self::retire_id`] and a snapshot/restore round trip.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited, or
    /// [`EngineError::BadConfig`] if the intern table is full (2^32
    /// names).
    pub fn resolve(&mut self, stream: &str) -> Result<StreamId, EngineError> {
        self.resolve_via(stream, &mut keep)
    }

    /// [`Self::resolve`], handing the events drained while it waits to
    /// `outlet`.
    pub(crate) fn resolve_via<E: From<EngineError>>(
        &mut self,
        stream: &str,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<StreamId, E> {
        // Interned names must stay a single map lookup: derive the seed
        // only on a miss.
        if let Some(&id) = self.ids.get(stream) {
            return Ok(id);
        }
        let seed = worker::stream_seed(self.master_seed, stream);
        self.intern(stream, seed, outlet)
    }

    /// As [`Self::resolve`], but registering the stream under an
    /// explicit seed instead of the one derived from
    /// `(master seed, name)`. The first resolution of a name wins: if
    /// the name is already interned, its established seed is kept and
    /// the existing id returned.
    ///
    /// This is how a host embeds a stream whose history began outside
    /// the engine's seed-derivation scheme — the CLI `follow` mode, for
    /// example, seeds its one stream with the user's `--seed` directly,
    /// which keeps its output bit-identical to batch analysis under the
    /// same seed.
    ///
    /// # Errors
    /// As [`Self::resolve`].
    pub fn resolve_seeded(&mut self, stream: &str, seed: u64) -> Result<StreamId, EngineError> {
        if let Some(&id) = self.ids.get(stream) {
            return Ok(id);
        }
        self.intern(stream, seed, &mut keep)
    }

    /// Record a name the intern table does not hold yet, under `seed`.
    fn intern<E: From<EngineError>>(
        &mut self,
        stream: &str,
        seed: u64,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<StreamId, E> {
        let idx = u32::try_from(self.names.len())
            .map_err(|_| EngineError::BadConfig("intern table is full (2^32 names)".into()))?;
        let id = StreamId(idx);
        let name: Arc<str> = Arc::from(stream);
        let shard = (worker::name_hash(stream) % self.senders.len() as u64) as u32;
        // Register with the worker *before* recording the id: if the
        // pool is gone, the name stays un-interned and a retry is clean.
        self.send_control(
            shard as usize,
            Msg::Register {
                id,
                name: name.clone(),
                seed,
            },
            outlet,
        )?;
        self.names.push(name.clone());
        self.shards.push(shard);
        self.ids.insert(name, id);
        Ok(id)
    }

    /// The id of an already-interned name, without interning.
    pub fn id_of(&self, stream: &str) -> Option<StreamId> {
        self.ids.get(stream).copied()
    }

    /// Feed one bag to a resolved stream — the allocation-free hot
    /// path: no hash, no lookup, no `Arc` clone. Waits while the
    /// stream's worker queue is full; while waiting, ready events are
    /// moved into the internal stash (returned by
    /// [`Self::drain_events`]), so a single-threaded producer that
    /// pushes a long burst before draining cannot deadlock against a
    /// worker parked on the full event queue.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited, or
    /// [`EngineError::ForeignId`] if `id` did not come from this
    /// engine's [`Self::resolve`].
    pub fn push_id(&mut self, id: StreamId, bag: Bag) -> Result<(), EngineError> {
        self.push_id_via(id, bag, &mut keep)
    }

    /// [`Self::push_id`], handing the events drained while it waits to
    /// `outlet`.
    pub(crate) fn push_id_via<E: From<EngineError>>(
        &mut self,
        id: StreamId,
        bag: Bag,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<(), E> {
        let shard = self.shard_of_id(id)?;
        // Count the bag in-flight *before* it is visible to the worker,
        // so the worker's post-tick decrement can never underflow.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.send_control(shard, Msg::Push { stream: id, bag }, outlet) {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        if let Some(pushes) = &self.pushes {
            pushes.inc();
        }
        Ok(())
    }

    /// Fraction of the worker pool's bounded input capacity occupied by
    /// accepted-but-unevaluated bags, in `[0, 1]` — the live
    /// backpressure signal ingestion layers use to warn producers
    /// *before* [`Self::push_id`] starts blocking. (Bags being evaluated
    /// in the current tick still count until the tick completes, so the
    /// signal errs toward "busy" rather than "ready".)
    pub fn queue_load(&self) -> f64 {
        let capacity = (self.queue_capacity.saturating_mul(self.senders.len())).max(1);
        (self.in_flight.load(Ordering::Relaxed) as f64 / capacity as f64).clamp(0.0, 1.0)
    }

    /// All events produced so far, without blocking.
    pub fn drain_events(&mut self) -> Vec<Event> {
        let mut out: Vec<Event> = self.stash.drain(..).collect();
        while let Ok(e) = self.events.try_recv() {
            out.push(e);
        }
        out
    }

    /// Retire a stream: evaluate everything already queued for it, then
    /// drop its state (its memory and snapshot footprint). Returns
    /// whether the stream existed. Pushing the same name later starts a
    /// fresh stream from scratch.
    ///
    /// Long-lived engines serving short-lived stream names (per-session
    /// streams etc.) must retire them; the engine has no TTL of its own.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited.
    pub fn retire(&mut self, stream: &str) -> Result<bool, EngineError> {
        // A name that was never interned was never pushed to: nothing
        // to retire, and no reason to intern it now.
        let Some(id) = self.id_of(stream) else {
            return Ok(false);
        };
        self.retire_id(id)
    }

    /// Id-keyed [`Self::retire`]. The id itself stays valid: it keeps
    /// its intern-table entry, and pushing it later starts a fresh
    /// stream (same name, same seed) from scratch.
    ///
    /// Retiring frees the stream's *detector state* (window signatures,
    /// distance rows — the dominant footprint) but not its intern-table
    /// entry (roughly the name's bytes, engine-side and in snapshots),
    /// which is what keeps the id valid. An engine fed unbounded
    /// *distinct* names forever (one UUID per request, say) therefore
    /// still grows by the name table; address such workloads with a
    /// bounded key space (e.g. shard-slot names reused across
    /// sessions) until a table-compaction API exists.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited, or
    /// [`EngineError::ForeignId`] if `id` did not come from this
    /// engine's [`Self::resolve`].
    pub fn retire_id(&mut self, id: StreamId) -> Result<bool, EngineError> {
        self.retire_id_via(id, &mut keep)
    }

    /// [`Self::retire_id`], handing the events drained while it waits
    /// to `outlet`.
    pub(crate) fn retire_id_via<E: From<EngineError>>(
        &mut self,
        id: StreamId,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<bool, E> {
        let shard = self.shard_of_id(id)?;
        let (tx, rx) = mpsc::channel();
        self.send_control(
            shard,
            Msg::Retire {
                stream: id,
                reply: tx,
            },
            outlet,
        )?;
        self.wait_reply(&rx, outlet)
    }

    /// Barrier: block until every bag pushed so far has been evaluated.
    /// Returns the current number of live streams. Events produced in
    /// the meantime are retained for [`Self::drain_events`].
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited.
    pub fn flush(&mut self) -> Result<usize, EngineError> {
        self.flush_via(&mut keep)
    }

    /// [`Self::flush`], handing the events drained while the barrier
    /// waits to `outlet`.
    pub(crate) fn flush_via<E: From<EngineError>>(
        &mut self,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<usize, E> {
        let (tx, rx) = mpsc::channel();
        for shard in 0..self.senders.len() {
            self.send_control(shard, Msg::Flush { reply: tx.clone() }, outlet)?;
        }
        drop(tx);
        let mut total = 0;
        for _ in 0..self.senders.len() {
            total += self.wait_reply(&rx, outlet)?;
        }
        Ok(total)
    }

    /// Checkpoint every stream's state into one binary buffer. Acts as a
    /// barrier like [`Self::flush`].
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, EngineError> {
        let (tx, rx) = mpsc::channel();
        for shard in 0..self.senders.len() {
            self.send_control(shard, Msg::Snapshot { reply: tx.clone() }, &mut keep)?;
        }
        drop(tx);
        let mut streams: Vec<(u32, crate::OnlineState)> = Vec::new();
        for _ in 0..self.senders.len() {
            streams.extend(
                self.wait_reply(&rx, &mut keep)?
                    .into_iter()
                    .map(|(id, state)| (id.index(), state)),
            );
        }
        Ok(encode_engine(
            self.detector.config(),
            self.master_seed,
            &self.names,
            streams,
        ))
    }

    /// Stop the workers and return every remaining event (stashed plus
    /// anything still queued).
    pub fn shutdown(mut self) -> Vec<Event> {
        self.senders.clear(); // workers exit when their queues close
        let mut out: Vec<Event> = self.stash.drain(..).collect();
        // Drain until every worker has dropped its event sender: a worker
        // parked on a full event queue needs these recvs to finish, so
        // draining must precede joining (the reverse order deadlocks).
        while let Ok(e) = self.events.recv() {
            out.push(e);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        out
    }

    /// Enqueue a message without ever parking this thread on the input
    /// queue: a worker can itself be parked on a full event queue with
    /// its input queue also full, so a blocking `send` from the only
    /// thread that drains events would deadlock — instead retry
    /// `try_send` while draining events (which is what eventually
    /// unparks the worker). Used by both the control plane and the
    /// blocking [`Self::push_id`].
    fn send_control<E: From<EngineError>>(
        &mut self,
        shard: usize,
        msg: Msg,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<(), E> {
        let sender = &self.senders[shard];
        let attempt = |msg: Msg| match sender.try_send(msg) {
            Ok(()) => Attempt::Done(()),
            Err(TrySendError::Full(back)) => Attempt::Retry(back),
            Err(TrySendError::Disconnected(_)) => Attempt::Closed,
        };
        drain_loop(&self.events, &mut self.stash, outlet, msg, attempt)
    }

    /// Await one reply while keeping the event pipe drained (a worker
    /// blocked on a full event queue could otherwise never reach the
    /// control message — a deadlock). A worker that dies before
    /// replying drops its reply sender, which surfaces here as
    /// [`EngineError::Closed`]; a merely slow worker is waited for.
    fn wait_reply<T, E: From<EngineError>>(
        &mut self,
        rx: &Receiver<T>,
        outlet: &mut Outlet<'_, E>,
    ) -> Result<T, E> {
        let attempt = |()| match rx.try_recv() {
            Ok(v) => Attempt::Done(v),
            Err(mpsc::TryRecvError::Empty) => Attempt::Retry(()),
            Err(mpsc::TryRecvError::Disconnected) => Attempt::Closed,
        };
        drain_loop(&self.events, &mut self.stash, outlet, (), attempt)
    }

    /// Cached shard of an interned id.
    ///
    /// # Errors
    /// [`EngineError::ForeignId`] on a [`StreamId`] this engine never
    /// issued — ids are engine-specific by construction.
    fn shard_of_id(&self, id: StreamId) -> Result<usize, EngineError> {
        self.shards
            .get(id.0 as usize)
            .map(|&shard| shard as usize)
            .ok_or(EngineError::ForeignId(id))
    }
}

/// Where a wait hands the events it drains: it gets the stash after
/// each drain that found something, oldest event first, and takes what
/// it delivers. [`keep`] takes nothing, so the events wait for
/// [`StreamEngine::drain_events`]; an error ends the wait with that
/// error.
pub(crate) type Outlet<'a, E> = dyn FnMut(&mut VecDeque<Event>) -> Result<(), E> + 'a;

/// The outlet of the public calls: leave everything in the stash.
fn keep(_: &mut VecDeque<Event>) -> Result<(), EngineError> {
    Ok(())
}

/// One step of a [`drain_loop`] attempt.
enum Attempt<S, T> {
    /// The operation went through.
    Done(T),
    /// Not ready yet; drain events and try again with this state.
    Retry(S),
    /// The other side is gone.
    Closed,
}

/// The engine's one wait loop, shared by the control plane and the
/// blocking push path: retry `attempt` (handing it back the state its
/// last try returned) while moving ready events into the stash — a
/// worker parked on the full event queue needs those receives to make
/// progress — and handing the stash to `outlet` whenever that found
/// something. While idle it backs off 50 µs -> 5 ms; arriving events
/// skip the sleep but do not reset the backoff, so a steady trickle is
/// delivered in batches rather than one event at a time.
fn drain_loop<S, T, E: From<EngineError>>(
    events: &Receiver<Event>,
    stash: &mut VecDeque<Event>,
    outlet: &mut Outlet<'_, E>,
    mut state: S,
    mut attempt: impl FnMut(S) -> Attempt<S, T>,
) -> Result<T, E> {
    let mut next_sleep = Duration::from_micros(50);
    loop {
        state = match attempt(state) {
            Attempt::Done(v) => return Ok(v),
            Attempt::Retry(state) => state,
            Attempt::Closed => return Err(EngineError::Closed.into()),
        };
        let before = stash.len();
        stash.extend(events.try_iter());
        if stash.len() > before {
            outlet(stash)?;
        } else {
            std::thread::sleep(next_sleep);
            next_sleep = (next_sleep * 2).min(Duration::from_millis(5));
        }
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.senders.clear();
        // As in shutdown(): unblock workers parked on the event queue
        // before joining them.
        while self.events.recv().is_ok() {}
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::{BootstrapConfig, SignatureMethod};

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            detector: DetectorConfig {
                tau: 3,
                tau_prime: 2,
                signature: SignatureMethod::Histogram { width: 0.5 },
                bootstrap: BootstrapConfig {
                    replicates: 32,
                    ..Default::default()
                },
                ..Default::default()
            },
            seed: 42,
            workers: 2,
            queue_capacity: 64,
            batch_size: 16,
            event_capacity: 1024,
            telemetry: None,
        }
    }

    fn bag(level: f64) -> Bag {
        Bag::from_scalars((0..20).map(|i| level + (i % 5) as f64 * 0.1))
    }

    /// Resolve `stream` and push `bag` to it.
    fn push(engine: &mut StreamEngine, stream: &str, bag: Bag) {
        let id = engine.resolve(stream).unwrap();
        engine.push_id(id, bag).unwrap();
    }

    #[test]
    fn rejects_bad_config() {
        assert!(StreamEngine::new(EngineConfig {
            workers: 0,
            ..small_cfg()
        })
        .is_err());
        let mut cfg = small_cfg();
        cfg.detector.tau = 0;
        assert!(StreamEngine::new(cfg).is_err());
    }

    #[test]
    fn events_flow_and_flush_counts_streams() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        for t in 0..8 {
            let level = if t < 4 { 0.0 } else { 6.0 };
            push(&mut engine, "a", bag(level));
            push(&mut engine, "b", bag(0.0));
        }
        assert_eq!(engine.flush().unwrap(), 2);
        let events = engine.shutdown();
        // 8 bags, window 5 -> 4 points per stream.
        let a: Vec<_> = events.iter().filter(|e| e.stream() == Some("a")).collect();
        let b: Vec<_> = events.iter().filter(|e| e.stream() == Some("b")).collect();
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert!(a.iter().all(|e| e.point().is_some()));
    }

    #[test]
    fn matches_standalone_online_detector() {
        let cfg = small_cfg();
        let detector = Detector::new(cfg.detector.clone()).unwrap();
        let mut reference =
            crate::OnlineDetector::new(detector, worker::stream_seed(cfg.seed, "ref-stream"));
        let (mut eval, mut emd) = (bagcpd::EvalScratch::new(), crate::EmdScratch::new());
        let mut expected = Vec::new();
        let mut engine = StreamEngine::new(cfg).unwrap();
        for t in 0..10 {
            let level = if t < 5 { 0.0 } else { 4.0 };
            expected.extend(
                reference
                    .push_with(bag(level), &mut eval, &mut emd)
                    .unwrap(),
            );
            push(&mut engine, "ref-stream", bag(level));
        }
        engine.flush().unwrap();
        let got: Vec<_> = engine
            .shutdown()
            .into_iter()
            .filter_map(|e| e.point().cloned())
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn bad_bags_emit_error_events_and_stream_survives() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        push(&mut engine, "s", bag(0.0));
        // Wrong dimension: dropped with an error event.
        push(&mut engine, "s", Bag::new(vec![vec![1.0, 2.0]; 4]));
        for _ in 0..6 {
            push(&mut engine, "s", bag(0.0));
        }
        engine.flush().unwrap();
        let events = engine.shutdown();
        let errors = events
            .iter()
            .filter(|e| matches!(e, Event::StreamError { .. }))
            .count();
        let points = events.iter().filter(|e| e.point().is_some()).count();
        assert_eq!(errors, 1);
        assert_eq!(points, 3, "7 good bags, window 5 -> 3 points");
    }

    #[test]
    fn flush_with_saturated_queues_does_not_deadlock() {
        // Regression: with the worker parked on a full event queue and
        // its input queue full, flush()'s control message must be
        // delivered via try_send + event draining; a blocking send
        // would deadlock before wait_reply ever ran. The queue is filled
        // with bare try_sends, which (unlike push_id) never drain
        // events, until it bounces 50 times in a row.
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.event_capacity = 1;
        cfg.queue_capacity = 2;
        cfg.batch_size = 1;
        let mut engine = StreamEngine::new(cfg).unwrap();
        let id = engine.resolve("s").unwrap();
        let shard = engine.shard_of_id(id).unwrap();
        let mut accepted = 0usize;
        let mut consecutive_bounces = 0usize;
        while consecutive_bounces < 50 && accepted < 40 {
            // Counted in flight before it is visible, as push_id does.
            engine.in_flight.fetch_add(1, Ordering::Relaxed);
            let msg = Msg::Push {
                stream: id,
                bag: bag(0.0),
            };
            match engine.senders[shard].try_send(msg) {
                Ok(()) => {
                    accepted += 1;
                    consecutive_bounces = 0;
                }
                Err(TrySendError::Full(_)) => {
                    engine.in_flight.fetch_sub(1, Ordering::Relaxed);
                    consecutive_bounces += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Disconnected(_)) => panic!("worker exited"),
            }
        }
        assert!(
            consecutive_bounces == 50 && accepted >= 7,
            "queues should saturate warm ({accepted} accepted, {consecutive_bounces} bounces)"
        );
        assert_eq!(engine.flush().unwrap(), 1);
        let points = engine
            .drain_events()
            .iter()
            .filter(|e| e.point().is_some())
            .count();
        // Window 5: n accepted bags yield n - 4 points.
        assert_eq!(points, accepted - 4);
    }

    #[test]
    fn shutdown_with_full_event_queue_does_not_deadlock() {
        // Regression: a worker parked in events.send() on a full event
        // queue must be unblocked by shutdown's drain loop; joining
        // first hangs forever.
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.event_capacity = 1;
        let mut engine = StreamEngine::new(cfg).unwrap();
        for _ in 0..12 {
            push(&mut engine, "s", bag(0.0));
        }
        // 12 bags, window 5 -> 8 points, far more than the queue holds;
        // never drained until shutdown itself.
        let events = engine.shutdown();
        assert_eq!(events.len(), 8);
    }

    #[test]
    fn retire_frees_stream_state() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        for _ in 0..6 {
            push(&mut engine, "keep", bag(0.0));
            push(&mut engine, "drop", bag(0.0));
        }
        assert_eq!(engine.flush().unwrap(), 2);
        assert!(engine.retire("drop").unwrap());
        assert!(!engine.retire("drop").unwrap(), "already gone");
        assert!(!engine.retire("never-existed").unwrap());
        assert_eq!(engine.flush().unwrap(), 1);
        // The snapshot no longer carries the retired stream's state,
        // but its intern-table entry (and thus its id) survives.
        let snap = engine.snapshot().unwrap();
        let decoded = crate::snapshot::decode_engine(&snap, &small_cfg().detector).unwrap();
        assert_eq!(decoded.streams.len(), 1);
        assert_eq!(
            decoded.names[decoded.streams[0].0 as usize], "keep",
            "only the kept stream has state"
        );
        assert_eq!(decoded.names.len(), 2, "retired name stays interned");
        // Re-pushing the retired name starts a brand-new stream, under
        // the same id as before.
        let drop_id = engine.id_of("drop").unwrap();
        push(&mut engine, "drop", bag(0.0));
        assert_eq!(engine.id_of("drop").unwrap(), drop_id);
        assert_eq!(engine.flush().unwrap(), 2);
        engine.shutdown();
    }

    #[test]
    fn resolve_is_stable_and_ids_are_dense() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let a = engine.resolve("a").unwrap();
        let b = engine.resolve("b").unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(engine.resolve("a").unwrap(), a, "resolve is idempotent");
        assert_eq!(engine.id_of("a"), Some(a));
        assert_eq!(engine.id_of("never"), None);
        // Resolving alone creates no stream state.
        assert_eq!(engine.flush().unwrap(), 0);
        // Pushing by id creates it.
        engine.push_id(a, bag(0.0)).unwrap();
        assert_eq!(engine.flush().unwrap(), 1);
        engine.shutdown();
    }

    #[test]
    fn a_foreign_id_is_an_error_and_the_engine_keeps_working() {
        let mut other = StreamEngine::new(small_cfg()).unwrap();
        other.resolve("a").unwrap();
        let foreign = other.resolve("b").unwrap();
        other.shutdown();
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let a = engine.resolve("a").unwrap();
        let err = engine.push_id(foreign, bag(0.0)).unwrap_err();
        assert!(
            matches!(err, EngineError::ForeignId(id) if id == foreign),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "stream id 1 was not issued by this engine");
        assert!(matches!(
            engine.retire_id(foreign),
            Err(EngineError::ForeignId(_))
        ));
        // Nothing was counted in flight, and every stream still scores.
        assert_eq!(engine.queue_load(), 0.0);
        for t in 0..8 {
            engine.push_id(a, bag(f64::from(t))).unwrap();
        }
        assert_eq!(engine.flush().unwrap(), 1);
        let points = engine
            .shutdown()
            .iter()
            .filter(|e| e.point().is_some())
            .count();
        assert_eq!(points, 4, "8 bags, window 5 -> 4 points");
    }
}
