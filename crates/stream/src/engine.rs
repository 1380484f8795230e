//! Sharded multi-stream engine with bounded queues and checkpointing.
//!
//! Every call that can wait on the worker pool — a push into a full
//! queue, a control message, a barrier reply — waits in one loop,
//! `drain_loop`, which keeps draining the shared event queue (a worker
//! parked on a full event queue needs those receives to make progress)
//! and hands what it drains to an *outlet* its caller chooses. The
//! [`crate::Pipeline`] is the engine's one driver: its outlet delivers
//! the events to its sinks while the call still waits. Only the waits
//! that take no outlet — [`StreamEngine::restore`]'s installs, the
//! build's seeded resolves and [`StreamEngine::snapshot`] — leave their
//! events in the engine's stash, which the next `drain` empties.

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
/// Obtained from `StreamEngine::resolve`; pushing by id skips the
/// per-push name hash and map lookup entirely, which is what makes the
/// multi-stream hot path allocation-free. Ids are dense (`0, 1, 2, …` in intern order),
/// stable for the life of the engine — including across
/// `StreamEngine::retire` and a [`StreamEngine::snapshot`] /
/// [`StreamEngine::restore`] round trip (the snapshot persists the
/// intern table) — and meaningless to any *other* engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct StreamId(pub(crate) u32);

impl StreamId {
    /// Position of this stream's name in the engine's intern table (and
    /// in the snapshot's name table).
    pub(crate) fn index(self) -> u32 {
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
    /// Bound of each worker's input queue. A full queue makes a push
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
    /// A stream id (its intern-table index) this engine never issued.
    ForeignId(u32),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadConfig(why) => write!(f, "bad engine config: {why}"),
            EngineError::Closed => write!(f, "engine is closed"),
            EngineError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
            EngineError::ForeignId(index) => {
                write!(f, "stream id {index} was not issued by this engine")
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
/// [`crate::OnlineDetector`]s behind bounded channels, driven by the
/// [`crate::Pipeline`].
///
/// - **Interning** — a stream name is hashed exactly once, at
///   `resolve`, into a dense stream id; the id-keyed calls (`push`,
///   `retire`) then move nothing but an integer and the bag — no
///   per-push allocation, hashing, or map lookup. Snapshots persist the
///   intern table, so ids stay valid across [`Self::restore`].
/// - **Sharding** — a stream name is FNV-hashed to one worker, so each
///   stream's bags are processed in order by a single thread, and a
///   stream's results are independent of the pool size.
/// - **Backpressure** — input and event queues are bounded, so the
///   *in-flight pipeline* (queued bags plus undelivered events) is
///   bounded; a push waits when the target worker is saturated rather
///   than queueing without limit.
/// - **Checkpointing** — [`Self::snapshot`] serializes every stream's
///   state into one buffer; [`Self::restore`] resumes an identical
///   engine from it (subsequent outputs are bit-identical to never
///   having stopped).
///
/// Completed results are never dropped: every call that can wait hands
/// the events it drains to its caller's outlet, and `drain` hands over
/// whatever is ready without waiting. [`Self::shutdown`] returns the
/// rest.
#[derive(Debug)]
pub struct StreamEngine {
    detector: Detector,
    master_seed: u64,
    /// Intern table: `names[id]` is the name behind [`StreamId`] `id`.
    names: Vec<Arc<str>>,
    /// Reverse lookup, consulted only when a name is resolved.
    ids: HashMap<Arc<str>, StreamId>,
    /// Cached shard of each id (the name is hashed once, at intern).
    shards: Vec<u32>,
    senders: Vec<SyncSender<Msg>>,
    events: Receiver<Event>,
    /// Events drained by the waits that take no outlet (restore's
    /// installs, seeded resolves, snapshots); the next `drain` or
    /// [`Self::shutdown`] hands them over first.
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
    pub(crate) fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
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
            engine.resolve(name, &mut keep)?;
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
    pub(crate) fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Intern a stream name, returning its stable [`StreamId`]. The
    /// first sighting of a name hashes it once (shard + seed), records
    /// it in the intern table, and registers it with its worker, handing
    /// the events drained while that waits to `outlet`; every later
    /// call is a single map lookup. Hot-path producers resolve once and
    /// then [`Self::push`] by id, which touches no string at all.
    ///
    /// Resolving does not create stream state — that still happens on
    /// the first push — and never needs to be repeated: the id survives
    /// [`Self::retire`] and a snapshot/restore round trip.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited,
    /// [`EngineError::BadConfig`] if the intern table is full (2^32
    /// names), or the outlet's own error.
    pub(crate) fn resolve<E: From<EngineError>>(
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
    /// `(master seed, name)`, and leaving the events drained while it
    /// waits in the stash. The first resolution of a name wins: if the
    /// name is already interned, its established seed is kept and the
    /// existing id returned.
    ///
    /// This is how [`crate::PipelineBuilder::stream_seed`] embeds a
    /// stream whose history began outside the engine's seed-derivation
    /// scheme — the CLI `follow` mode, for example, seeds its one
    /// stream with the user's `--seed` directly, which keeps its output
    /// bit-identical to batch analysis under the same seed.
    ///
    /// # Errors
    /// As [`Self::resolve`].
    pub(crate) fn resolve_seeded(
        &mut self,
        stream: &str,
        seed: u64,
    ) -> Result<StreamId, EngineError> {
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
    pub(crate) fn id_of(&self, stream: &str) -> Option<StreamId> {
        self.ids.get(stream).copied()
    }

    /// Feed one bag to a resolved stream — the allocation-free hot
    /// path: no hash, no lookup, no `Arc` clone. Waits while the
    /// stream's worker queue is full, handing the events drained
    /// meanwhile to `outlet`, so a single-threaded producer that pushes
    /// a long burst cannot deadlock against a worker parked on the full
    /// event queue.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited,
    /// [`EngineError::ForeignId`] if `id` did not come from this
    /// engine's [`Self::resolve`], or the outlet's own error.
    pub(crate) fn push<E: From<EngineError>>(
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
    /// *before* [`Self::push`] starts blocking. (Bags being evaluated
    /// in the current tick still count until the tick completes, so the
    /// signal errs toward "busy" rather than "ready".)
    pub(crate) fn queue_load(&self) -> f64 {
        let capacity = (self.queue_capacity.saturating_mul(self.senders.len())).max(1);
        (self.in_flight.load(Ordering::Relaxed) as f64 / capacity as f64).clamp(0.0, 1.0)
    }

    /// Hand every event produced so far to `outlet`, without blocking:
    /// the stash, then whatever the workers have queued. The outlet is
    /// called once, even when there is nothing to hand over.
    ///
    /// # Errors
    /// The outlet's own error.
    pub(crate) fn drain<E>(&mut self, outlet: &mut Outlet<'_, E>) -> Result<(), E> {
        self.stash.extend(self.events.try_iter());
        outlet(&mut self.stash)
    }

    /// Retire a stream: evaluate everything already queued for it, then
    /// drop its state (its memory and snapshot footprint), handing the
    /// events drained while it waits to `outlet`. Returns whether the
    /// stream had state. The id itself stays valid: it keeps its
    /// intern-table entry, and pushing it later starts a fresh stream
    /// (same name, same seed) from scratch.
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
    /// [`EngineError::Closed`] if the worker pool has exited,
    /// [`EngineError::ForeignId`] if `id` did not come from this
    /// engine's [`Self::resolve`], or the outlet's own error.
    pub(crate) fn retire<E: From<EngineError>>(
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

    /// Barrier: block until every bag pushed so far has been evaluated,
    /// handing the events drained while it waits to `outlet`. Returns
    /// the current number of live streams.
    ///
    /// # Errors
    /// [`EngineError::Closed`] if the worker pool has exited, or the
    /// outlet's own error.
    pub(crate) fn flush<E: From<EngineError>>(
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
    /// barrier like `flush`; the events drained while it waits
    /// stay in the stash for the next `drain` (the [`crate::Pipeline`]
    /// snapshots right after a barrier and a drain, so it finds none).
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
    /// blocking [`Self::push`].
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
            .ok_or(EngineError::ForeignId(id.0))
    }
}

/// Where a wait hands the events it drains: it gets the stash after
/// each drain that found something, oldest event first, and takes what
/// it delivers. [`keep`] takes nothing, so the events wait for the next
/// `drain`; an error ends the wait with that error.
pub(crate) type Outlet<'a, E> = dyn FnMut(&mut VecDeque<Event>) -> Result<(), E> + 'a;

/// The outlet of the waits that have no caller's outlet (restore's
/// installs, seeded resolves, snapshots): leave everything in the stash.
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
    use bagcpd::{BootstrapConfig, ScorePoint, SignatureMethod};

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

    /// The scale and checkpoint tests' configuration.
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

    fn bag(level: f64) -> Bag {
        Bag::from_scalars((0..20).map(|i| level + (i % 5) as f64 * 0.1))
    }

    /// Bag `t` of stream `s`: stationary for even streams, an injected
    /// shift at t = 4 for odd streams.
    fn bag_for(s: usize, t: usize) -> Bag {
        let level = if s % 2 == 1 && t >= 4 { 5.0 } else { 0.0 };
        Bag::from_scalars((0..12).map(move |i| level + ((i * 3 + s + t) % 7) as f64 * 0.1))
    }

    /// The tests' outlet: takes every event it is handed, in order.
    fn collect(
        into: &mut Vec<Event>,
    ) -> impl FnMut(&mut VecDeque<Event>) -> Result<(), EngineError> + '_ {
        move |stash| {
            into.extend(stash.drain(..));
            Ok(())
        }
    }

    /// Resolve `stream` and push `bag` to it, collecting what the waits
    /// drain into `events`.
    fn push(engine: &mut StreamEngine, stream: &str, bag: Bag, events: &mut Vec<Event>) {
        let id = engine.resolve(stream, &mut collect(events)).unwrap();
        engine.push(id, bag, &mut collect(events)).unwrap();
    }

    /// Group point events per stream.
    fn points_by_stream(events: Vec<Event>) -> HashMap<String, Vec<ScorePoint>> {
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
        let mut events = Vec::new();
        for t in 0..8 {
            let level = if t < 4 { 0.0 } else { 6.0 };
            push(&mut engine, "a", bag(level), &mut events);
            push(&mut engine, "b", bag(0.0), &mut events);
        }
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 2);
        events.extend(engine.shutdown());
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
        let mut events = Vec::new();
        for t in 0..10 {
            let level = if t < 5 { 0.0 } else { 4.0 };
            expected.extend(
                reference
                    .push_with(bag(level), &mut eval, &mut emd)
                    .unwrap(),
            );
            push(&mut engine, "ref-stream", bag(level), &mut events);
        }
        engine.flush(&mut collect(&mut events)).unwrap();
        events.extend(engine.shutdown());
        let got: Vec<_> = events
            .into_iter()
            .filter_map(|e| e.point().cloned())
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn bad_bags_emit_error_events_and_stream_survives() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let mut events = Vec::new();
        push(&mut engine, "s", bag(0.0), &mut events);
        // Wrong dimension: dropped with an error event.
        push(
            &mut engine,
            "s",
            Bag::new(vec![vec![1.0, 2.0]; 4]),
            &mut events,
        );
        for _ in 0..6 {
            push(&mut engine, "s", bag(0.0), &mut events);
        }
        engine.flush(&mut collect(&mut events)).unwrap();
        events.extend(engine.shutdown());
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
        // with bare try_sends, which (unlike push) never drain events,
        // until it bounces 50 times in a row.
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.event_capacity = 1;
        cfg.queue_capacity = 2;
        cfg.batch_size = 1;
        let mut engine = StreamEngine::new(cfg).unwrap();
        let mut events = Vec::new();
        let id = engine.resolve("s", &mut collect(&mut events)).unwrap();
        let shard = engine.shard_of_id(id).unwrap();
        let mut accepted = 0usize;
        let mut consecutive_bounces = 0usize;
        while consecutive_bounces < 50 && accepted < 40 {
            // Counted in flight before it is visible, as push does.
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
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 1);
        engine.drain(&mut collect(&mut events)).unwrap();
        let points = events.iter().filter(|e| e.point().is_some()).count();
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
        let mut early = Vec::new();
        for _ in 0..12 {
            push(&mut engine, "s", bag(0.0), &mut early);
        }
        // 12 bags, window 5 -> 8 points, far more than the queue holds;
        // the input queue takes every push at once, so nothing is
        // drained until shutdown itself.
        assert!(early.is_empty(), "{early:?}");
        let events = engine.shutdown();
        assert_eq!(events.len(), 8);
    }

    #[test]
    fn retire_frees_stream_state() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let mut events = Vec::new();
        for _ in 0..6 {
            push(&mut engine, "keep", bag(0.0), &mut events);
            push(&mut engine, "drop", bag(0.0), &mut events);
        }
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 2);
        let drop_id = engine.id_of("drop").unwrap();
        assert!(engine.retire(drop_id, &mut collect(&mut events)).unwrap());
        assert!(
            !engine.retire(drop_id, &mut collect(&mut events)).unwrap(),
            "already gone"
        );
        // A name never interned was never pushed to: the pipeline finds
        // no id, so there is nothing to retire.
        assert_eq!(engine.id_of("never-existed"), None);
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 1);
        // The snapshot no longer carries the retired stream's state,
        // but its intern-table entry (and thus its id) survives.
        let snap = engine.snapshot().unwrap();
        let decoded = decode_engine(&snap, &small_cfg().detector).unwrap();
        assert_eq!(decoded.streams.len(), 1);
        assert_eq!(
            decoded.names[decoded.streams[0].0 as usize], "keep",
            "only the kept stream has state"
        );
        assert_eq!(decoded.names.len(), 2, "retired name stays interned");
        // Re-pushing the retired name starts a brand-new stream, under
        // the same id as before.
        push(&mut engine, "drop", bag(0.0), &mut events);
        assert_eq!(engine.id_of("drop").unwrap(), drop_id);
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 2);
        engine.shutdown();
    }

    #[test]
    fn resolve_is_stable_and_ids_are_dense() {
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let mut events = Vec::new();
        let a = engine.resolve("a", &mut collect(&mut events)).unwrap();
        let b = engine.resolve("b", &mut collect(&mut events)).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(
            engine.resolve("a", &mut collect(&mut events)).unwrap(),
            a,
            "resolve is idempotent"
        );
        assert_eq!(engine.id_of("a"), Some(a));
        assert_eq!(engine.id_of("never"), None);
        // Resolving alone creates no stream state.
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 0);
        // Pushing by id creates it.
        engine.push(a, bag(0.0), &mut collect(&mut events)).unwrap();
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 1);
        engine.shutdown();
    }

    #[test]
    fn a_foreign_id_is_an_error_and_the_engine_keeps_working() {
        let mut events = Vec::new();
        let mut other = StreamEngine::new(small_cfg()).unwrap();
        other.resolve("a", &mut collect(&mut events)).unwrap();
        let foreign = other.resolve("b", &mut collect(&mut events)).unwrap();
        other.shutdown();
        let mut engine = StreamEngine::new(small_cfg()).unwrap();
        let a = engine.resolve("a", &mut collect(&mut events)).unwrap();
        let err = engine
            .push(foreign, bag(0.0), &mut collect(&mut events))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::ForeignId(index) if index == foreign.index()),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "stream id 1 was not issued by this engine");
        assert!(matches!(
            engine.retire(foreign, &mut collect(&mut events)),
            Err(EngineError::ForeignId(_))
        ));
        // Nothing was counted in flight, and every stream still scores.
        assert_eq!(engine.queue_load(), 0.0);
        for t in 0..8 {
            engine
                .push(a, bag(f64::from(t)), &mut collect(&mut events))
                .unwrap();
        }
        assert_eq!(engine.flush(&mut collect(&mut events)).unwrap(), 1);
        events.extend(engine.shutdown());
        let points = events.iter().filter(|e| e.point().is_some()).count();
        assert_eq!(points, 4, "8 bags, window 5 -> 4 points");
    }

    #[test]
    fn thousand_streams_push_through_bounded_engine() {
        const STREAMS: usize = 1024;
        const BAGS: usize = 8;
        let mut engine = StreamEngine::new(engine_config(4)).unwrap();

        let mut events = Vec::new();
        for t in 0..BAGS {
            for s in 0..STREAMS {
                let name = format!("stream-{s:04}");
                push(&mut engine, &name, bag_for(s, t), &mut events);
            }
            // Drain as we go, as the pipeline does after every step; the
            // bounded queues mean an undrained engine would block, not
            // balloon.
            engine.drain(&mut collect(&mut events)).unwrap();
        }
        assert_eq!(
            engine.flush(&mut collect(&mut events)).unwrap(),
            STREAMS,
            "all streams live"
        );

        // Retained state per stream is capped at the window width: check
        // via the snapshot, which records exactly what the engine holds.
        let snap = engine.snapshot().unwrap();
        let decoded = decode_engine(&snap, &engine_config(4).detector).unwrap();
        assert_eq!(decoded.streams.len(), STREAMS);
        assert_eq!(decoded.names.len(), STREAMS);
        for (id, st) in &decoded.streams {
            let name = &decoded.names[*id as usize];
            assert_eq!(st.pushed, BAGS as u64, "{name}");
            assert!(st.sigs.len() <= 5, "{name}: window must stay bounded");
            assert!(st.ci_up_hist.len() <= 2, "{name}");
        }

        events.extend(engine.shutdown());
        let by_stream = points_by_stream(events);
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
        let mut solo = Vec::new();
        for t in 0..BAGS {
            push(&mut single, "stream-0007", bag_for(7, t), &mut solo);
        }
        single.flush(&mut collect(&mut solo)).unwrap();
        solo.extend(single.shutdown());
        let solo = points_by_stream(solo);
        assert_eq!(solo["stream-0007"], by_stream["stream-0007"]);
    }

    #[test]
    fn snapshot_mid_window_then_restore_yields_identical_alerts() {
        const STREAMS: usize = 5;
        const CUT: usize = 6; // mid-window: warm, with partial CI history
        const TOTAL: usize = 14;

        // Reference: an engine that never stops.
        let mut reference = StreamEngine::new(engine_config(2)).unwrap();
        let mut events = Vec::new();
        for t in 0..TOTAL {
            for s in 0..STREAMS {
                push(&mut reference, &format!("s{s}"), bag_for(s, t), &mut events);
            }
        }
        reference.flush(&mut collect(&mut events)).unwrap();
        events.extend(reference.shutdown());
        let expected = points_by_stream(events);

        // Interrupted: snapshot at the cut, restore (with a different
        // worker-pool shape), continue with the same bags.
        let mut first = StreamEngine::new(engine_config(2)).unwrap();
        let mut all = Vec::new();
        for t in 0..CUT {
            for s in 0..STREAMS {
                push(&mut first, &format!("s{s}"), bag_for(s, t), &mut all);
            }
        }
        let bytes = first.snapshot().unwrap();
        first.drain(&mut collect(&mut all)).unwrap();
        all.extend(first.shutdown());

        let mut restored = StreamEngine::restore(&bytes, engine_config(3)).unwrap();
        assert_eq!(
            restored.master_seed(),
            7,
            "master seed travels in the snapshot"
        );
        assert_eq!(
            restored.flush(&mut collect(&mut all)).unwrap(),
            STREAMS,
            "streams resumed"
        );
        for t in CUT..TOTAL {
            for s in 0..STREAMS {
                push(&mut restored, &format!("s{s}"), bag_for(s, t), &mut all);
            }
        }
        restored.flush(&mut collect(&mut all)).unwrap();
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
        let mut events = Vec::new();
        let a = engine.resolve("alpha", &mut collect(&mut events)).unwrap();
        let b = engine.resolve("beta", &mut collect(&mut events)).unwrap();
        for t in 0..4 {
            engine
                .push(a, bag_for(0, t), &mut collect(&mut events))
                .unwrap();
            engine
                .push(b, bag_for(1, t), &mut collect(&mut events))
                .unwrap();
        }
        let bytes = engine.snapshot().unwrap();
        events.extend(engine.shutdown());

        // Ids issued before the checkpoint address the same streams after
        // a restore into a different pool shape.
        let mut restored = StreamEngine::restore(&bytes, engine_config(3)).unwrap();
        assert_eq!(restored.id_of("alpha"), Some(a));
        assert_eq!(restored.id_of("beta"), Some(b));
        for t in 4..8 {
            restored
                .push(a, bag_for(0, t), &mut collect(&mut events))
                .unwrap();
            restored
                .push(b, bag_for(1, t), &mut collect(&mut events))
                .unwrap();
        }
        restored.flush(&mut collect(&mut events)).unwrap();
        events.extend(restored.shutdown());
        let by_stream = points_by_stream(events);

        // Reference: the same bags through one uninterrupted engine.
        let mut reference = StreamEngine::new(engine_config(2)).unwrap();
        let mut expected = Vec::new();
        for t in 0..8 {
            push(&mut reference, "alpha", bag_for(0, t), &mut expected);
            push(&mut reference, "beta", bag_for(1, t), &mut expected);
        }
        reference.flush(&mut collect(&mut expected)).unwrap();
        expected.extend(reference.shutdown());
        let expected = points_by_stream(expected);
        assert_eq!(expected, by_stream, "continuation is bit-identical");
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut engine = StreamEngine::new(engine_config(2)).unwrap();
        push(&mut engine, "s", bag_for(0, 0), &mut Vec::new());
        let bytes = engine.snapshot().unwrap();
        engine.shutdown();

        let mut other = engine_config(2);
        other.detector.tau = 4;
        assert!(matches!(
            StreamEngine::restore(&bytes, other),
            Err(EngineError::Snapshot(SnapshotError::ConfigMismatch))
        ));
    }
}
