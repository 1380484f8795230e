//! TCP line-protocol source: many clients, many streams, one socket.
//!
//! Protocol: UTF-8 lines of `stream,t,x1,x2,…` — the first field names
//! the stream, the rest is the same `time,coords…` row format as the
//! CSV sources. Lines for different streams may interleave freely
//! across and within connections; per stream, times must be
//! nondecreasing with equal times contiguous (the bag contract).
//!
//! The listener and every accepted connection run non-blocking, so a
//! poll consumes exactly what has arrived and returns — one stalled
//! client never blocks the ingestion loop. A malformed line or a
//! backwards timestamp quarantines *its stream* only; other streams and
//! connections keep flowing.
//!
//! The source is hardened against hostile or broken peers by
//! [`TcpLimits`]: a line longer than `max_line_bytes` is abandoned
//! (the tail is discarded as it arrives, so an endless unterminated
//! line cannot grow a buffer without bound) and quarantines the stream
//! it names; once `max_streams` distinct streams exist, lines for new
//! stream names are refused with a [`SourceItem::Note`] instead of
//! growing the per-stream state.
//!
//! Three server-side control facilities ride on the same line protocol
//! (server→client lines start with `!`, so they can never be confused
//! with data):
//!
//! - **Auth** ([`TcpSource::set_auth_token`]): each connection must
//!   present `auth <token>` as its first line. The server answers
//!   `!ok`; anything sent before a successful handshake is refused
//!   (never routed), answered with `!denied`, and counted in the
//!   `bagscpd_ingest_tcp_auth_failures_total` telemetry counter.
//! - **Backpressure** ([`Source::pressure`]): when the engine's bounded
//!   input queues fill past a high-water mark the source broadcasts
//!   `!busy` to every client (and greets new ones with it); once the
//!   queues drain below a low-water mark it broadcasts `!ready`.
//!   Cooperative producers pause between the two; the signal is
//!   advisory — a client that keeps sending is still served, it just
//!   ends up waiting in the kernel's socket buffers.
//! - **Idle eviction** ([`TcpSource::set_evict_idle`]): a stream that
//!   has not produced a line for the configured window has its trailing
//!   bag completed and is retired from the engine
//!   ([`SourceItem::Retire`]), releasing its detector state. A stream
//!   that later returns starts fresh.

use super::csv::ROWS_HELP;
use super::source::{BagAssembler, Source, SourceError, SourceItem, SourceStatus, StreamCursor};
use crate::telemetry::{names, Clock, Counter, MetricsRegistry};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Bytes read per connection per poll (fairness budget).
const BYTES_PER_POLL: usize = 64 * 1024;

/// Engine queue load at which the source broadcasts `!busy`.
const BUSY_HIGH_WATER: f64 = 0.75;

/// Engine queue load at which a busy source broadcasts `!ready`. The
/// gap below [`BUSY_HIGH_WATER`] is hysteresis: load hovering around a
/// single threshold must not flap clients between busy and ready every
/// tick.
const BUSY_LOW_WATER: f64 = 0.25;

/// Default [`TcpSource::set_drain_grace`] window: how long a draining
/// (non-`watch`) source keeps listening after its last connection
/// closes before reporting `Done`. Long enough for a client that
/// reconnects mid-conversation (rotation, proxy failover) to come
/// back; short enough that batch jobs still wind down promptly.
const DEFAULT_DRAIN_GRACE: Duration = Duration::from_millis(200);

/// Most refused stream names remembered for note-deduplication; past
/// this, refusal stays in force but is silent (the memory of "already
/// noted" must not itself be a resource-exhaustion vector).
const REFUSED_NOTES_CAP: usize = 1024;

/// Resource limits a [`TcpSource`] enforces per line and per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpLimits {
    /// Longest accepted line (bytes, newline included). A longer line
    /// is dropped as it streams in — bounded memory, not OOM — and the
    /// stream it names is quarantined.
    pub max_line_bytes: usize,
    /// Most distinct streams this source will serve; lines naming new
    /// streams beyond it are refused with a note.
    pub max_streams: usize,
}

impl Default for TcpLimits {
    fn default() -> Self {
        TcpLimits {
            max_line_bytes: 256 * 1024,
            max_streams: 4096,
        }
    }
}

struct Conn {
    sock: TcpStream,
    /// Shared so routing a line costs a refcount bump, not a copy.
    peer: Arc<str>,
    /// Undelivered partial line (bounded by `max_line_bytes`).
    partial: Vec<u8>,
    lineno: usize,
    /// An oversized line is in progress: drop bytes until its newline.
    discarding: bool,
    /// The `auth <token>` handshake completed (vacuously true when no
    /// token is configured).
    authed: bool,
    /// An unauthenticated-line note was already emitted for this
    /// connection (one per connection, not per refused line).
    denial_noted: bool,
}

/// An oversized line's retained prefix, for routing the quarantine.
struct Oversize {
    prefix: Vec<u8>,
    lineno: usize,
    peer: Arc<str>,
}

/// The TCP source's pre-registered metric handles.
struct TcpTelemetry {
    /// Complete lines routed.
    lines: Counter,
    /// Lines dropped by `TcpLimits::max_line_bytes`.
    dropped: Counter,
    /// Stream names refused by `TcpLimits::max_streams` (counted on
    /// every refused line, including past the note-dedup cap).
    refused: Counter,
    /// Lines refused before a successful `auth` handshake.
    auth_failures: Counter,
    /// Busy↔ready transitions broadcast to clients.
    backpressure: Counter,
    /// Parsed-row counter handed to each new stream's assembler.
    rows: Counter,
}

/// Multi-stream TCP ingestion front-end.
pub struct TcpSource {
    origin: String,
    listener: TcpListener,
    conns: Vec<Conn>,
    assemblers: HashMap<Arc<str>, BagAssembler>,
    quarantined: HashSet<Arc<str>>,
    /// Streams refused by `max_streams` (noted once each).
    refused: HashSet<Box<str>>,
    /// Cursors stashed for streams that have not spoken yet.
    resume: HashMap<String, StreamCursor>,
    limits: TcpLimits,
    /// Drain mode (`watch == false`): report `Done` once at least one
    /// connection was seen, all of them have closed, and the drain
    /// grace window has elapsed without a reconnect.
    watch: bool,
    seen_conn: bool,
    buf: Vec<u8>,
    /// Metric handles when the host attached telemetry.
    telemetry: Option<TcpTelemetry>,
    /// Required `auth <token>` handshake token, when configured.
    auth_token: Option<String>,
    /// Backpressure state: `!busy` was broadcast and `!ready` was not
    /// yet.
    busy: bool,
    /// How long a draining source keeps listening after its last
    /// connection closes (reconnect window).
    drain_grace_ns: u64,
    /// When the source last transitioned to "no connections" (clock
    /// nanoseconds); `None` while connections exist or progress is
    /// being made.
    idle_since_ns: Option<u64>,
    /// Idle-eviction window, when configured.
    evict_idle_ns: Option<u64>,
    /// Per-stream last-line stamp (clock nanoseconds); maintained only
    /// while eviction is enabled.
    last_seen: HashMap<Arc<str>, u64>,
    /// Time source for drain grace and eviction: monotonic by default,
    /// the registry's (possibly manual) clock once telemetry attaches.
    clock: Clock,
}

impl TcpSource {
    /// Bind `addr` (e.g. `"127.0.0.1:7171"`) with default
    /// [`TcpLimits`]. With `watch`, the source stays alive forever (a
    /// server); without it, the source reports `Done` once every
    /// connection has come and gone — the drain semantics batch jobs
    /// and tests want.
    ///
    /// # Errors
    /// [`SourceError::Io`] if the address cannot be bound.
    pub fn bind(addr: &str, watch: bool) -> Result<Self, SourceError> {
        Self::bind_with(addr, watch, TcpLimits::default())
    }

    /// As [`TcpSource::bind`], with explicit limits.
    ///
    /// # Errors
    /// As [`TcpSource::bind`].
    pub fn bind_with(addr: &str, watch: bool, limits: TcpLimits) -> Result<Self, SourceError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| SourceError::Io(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SourceError::Io(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| SourceError::Io(format!("bind {addr}: {e}")))?;
        Ok(TcpSource {
            origin: format!("tcp://{local}"),
            listener,
            conns: Vec::new(),
            assemblers: HashMap::new(),
            quarantined: HashSet::new(),
            refused: HashSet::new(),
            resume: HashMap::new(),
            limits,
            watch,
            seen_conn: false,
            buf: vec![0u8; 8192],
            telemetry: None,
            auth_token: None,
            busy: false,
            drain_grace_ns: u64::try_from(DEFAULT_DRAIN_GRACE.as_nanos()).unwrap_or(u64::MAX),
            idle_since_ns: None,
            evict_idle_ns: None,
            last_seen: HashMap::new(),
            clock: Clock::monotonic(),
        })
    }

    /// Require every connection to authenticate with `auth <token>` as
    /// its first line. Until the handshake succeeds nothing from the
    /// connection is routed: refused lines are counted
    /// ([`names::INGEST_TCP_AUTH_FAILURES`]), answered with `!denied`,
    /// and noted once per connection. A correct handshake is answered
    /// with `!ok`. Call before the first poll.
    pub fn set_auth_token(&mut self, token: impl Into<String>) {
        self.auth_token = Some(token.into());
    }

    /// How long a draining (non-`watch`) source keeps listening after
    /// its last connection closes before reporting `Done`, so a client
    /// that drops and reconnects mid-run does not tear the session
    /// down between its connections. Default 200 ms; zero restores the
    /// old immediate-drain behavior.
    pub fn set_drain_grace(&mut self, grace: Duration) {
        self.drain_grace_ns = u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Retire streams that produce no line for `window`: the trailing
    /// bag is completed, a [`SourceItem::Retire`] releases the engine's
    /// detector state, and the stream starts fresh if it ever returns.
    /// Quarantined streams are exempt (their quarantine must outlive
    /// their silence). Disabled by default.
    pub fn set_evict_idle(&mut self, window: Duration) {
        self.evict_idle_ns = Some(u64::try_from(window.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Whether the source is currently signaling backpressure.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Best-effort control line to every live client. Failures are
    /// ignored: the socket may be gone (its close is discovered by the
    /// next read) and the signal is advisory anyway.
    fn broadcast(&mut self, line: &[u8]) {
        for conn in &mut self.conns {
            let _ = conn.sock.write_all(line);
        }
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// The enforced limits.
    pub fn limits(&self) -> TcpLimits {
        self.limits
    }

    /// Streams that have been quarantined so far.
    pub fn quarantined(&self) -> impl Iterator<Item = &Arc<str>> {
        self.quarantined.iter()
    }

    /// Route one complete line (`stream,t,coords…`).
    fn line(&mut self, raw: &[u8], peer: &str, lineno: usize, out: &mut Vec<SourceItem>) {
        let text = String::from_utf8_lossy(raw);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.lines.inc();
        }
        let Some((name, row)) = trimmed.split_once(',') else {
            // No stream prefix: an un-routable line. There is no stream
            // to quarantine, so surface it as a note and move on.
            out.push(SourceItem::Note(format!(
                "note: {peer}:{}: unroutable line (no 'stream,' prefix): {trimmed:?}",
                lineno + 1
            )));
            return;
        };
        let name = name.trim();
        if name.is_empty() {
            out.push(SourceItem::Note(format!(
                "note: {peer}:{}: empty stream name; line dropped",
                lineno + 1
            )));
            return;
        }
        // Before anything allocates: a quarantined stream's lines are
        // dropped without ever creating (or occupying) per-stream state
        // — a stream quarantined by the oversized-line path must not
        // grab a `max_streams` slot with a dead assembler.
        if self.quarantined.contains(name) {
            return;
        }
        // Cheap lookup without allocating for known streams.
        let assembler = match self.assemblers.get_mut(name) {
            Some(a) => a,
            None => {
                if self.assemblers.len() >= self.limits.max_streams {
                    if let Some(telemetry) = &self.telemetry {
                        telemetry.refused.inc();
                    }
                    // Refuse the stream, keep the connection: existing
                    // streams on it are still welcome. One note per
                    // refused name — and the per-name memory of "already
                    // noted" is itself capped, so a peer inventing
                    // unbounded names cannot grow this set without
                    // limit (past the cap, refusal is silent).
                    if self.refused.len() < REFUSED_NOTES_CAP
                        && self.refused.insert(Box::from(name))
                    {
                        out.push(SourceItem::Note(format!(
                            "note: {peer}:{}: stream '{name}' refused: max_streams = {} reached",
                            lineno + 1,
                            self.limits.max_streams
                        )));
                        if self.refused.len() == REFUSED_NOTES_CAP {
                            out.push(SourceItem::Note(
                                "note: further stream refusals will not be reported".into(),
                            ));
                        }
                    }
                    return;
                }
                let key: Arc<str> = Arc::from(name);
                let mut a = BagAssembler::new(key.clone(), false);
                if let Some(telemetry) = &self.telemetry {
                    a.set_row_counter(telemetry.rows.clone());
                }
                if let Some(c) = self.resume.get(name) {
                    // TCP has no byte position: resume is time-addressed.
                    a.restore_cursor(c, true);
                }
                self.assemblers.entry(key).or_insert(a)
            }
        };
        if self.evict_idle_ns.is_some() {
            self.last_seen
                .insert(assembler.stream().clone(), self.clock.now_ns());
        }
        if let Err(e) = assembler.line(row, lineno, peer, out) {
            let stream = assembler.stream().clone();
            self.quarantined.insert(stream.clone());
            out.push(SourceItem::Quarantine { stream, error: e });
        }
    }

    /// Quarantine the stream named by an oversized line's prefix (or
    /// note an unroutable one). The prefix is at least `max_line_bytes`
    /// long, so a legitimate `stream,` header is present unless the
    /// line was garbage to begin with.
    fn oversized(&mut self, over: &Oversize, out: &mut Vec<SourceItem>) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.dropped.inc();
        }
        let text = String::from_utf8_lossy(&over.prefix);
        let name = text
            .split_once(',')
            .map(|(name, _)| name.trim())
            .filter(|n| !n.is_empty());
        let error = SourceError::Data(format!(
            "{}:{}: line exceeds max_line_bytes = {} (dropped)",
            over.peer,
            over.lineno + 1,
            self.limits.max_line_bytes
        ));
        match name {
            Some(name) => {
                // Remembering a quarantine costs one name's worth of
                // memory, so an *unknown* stream only earns a durable
                // entry while the set is below the stream cap — a peer
                // flooding oversized lines under ever-fresh names gets
                // its lines dropped (with a note) without growing state,
                // which is the bounded-memory promise of the limit.
                let known = self.assemblers.contains_key(name);
                if !known && self.quarantined.len() >= self.limits.max_streams {
                    out.push(SourceItem::Note(format!(
                        "note: oversized line dropped ({error})"
                    )));
                    return;
                }
                let stream: Arc<str> = match self.assemblers.get_key_value(name) {
                    Some((key, _)) => key.clone(),
                    None => Arc::from(name),
                };
                if self.quarantined.insert(stream.clone()) {
                    out.push(SourceItem::Quarantine { stream, error });
                }
            }
            None => out.push(SourceItem::Note(format!(
                "note: unroutable oversized line dropped ({error})"
            ))),
        }
    }

    /// Enforce the auth handshake on the lines a connection produced
    /// this poll (`routed[watermark..]` / `oversize[over_watermark..]`):
    /// consume a leading `auth <token>` line (answered `!ok`), refuse
    /// and drop everything sent before a successful handshake
    /// (answered `!denied`, counted, noted once per connection).
    #[allow(clippy::too_many_arguments)]
    fn filter_unauthed(
        conn: &mut Conn,
        token: &str,
        telemetry: Option<&TcpTelemetry>,
        routed: &mut Vec<(Vec<u8>, usize, Arc<str>)>,
        watermark: usize,
        oversize: &mut Vec<Oversize>,
        over_watermark: usize,
        out: &mut Vec<SourceItem>,
    ) {
        if conn.authed {
            return;
        }
        let mut kept = Vec::new();
        let mut denied = 0u64;
        for (line, lineno, peer) in routed.drain(watermark..) {
            if conn.authed {
                kept.push((line, lineno, peer));
                continue;
            }
            let text = String::from_utf8_lossy(&line);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed
                .strip_prefix("auth ")
                .is_some_and(|presented| presented.trim() == token)
            {
                conn.authed = true;
                let _ = conn.sock.write_all(b"!ok\n");
                continue;
            }
            denied += 1;
        }
        routed.extend(kept);
        // An oversized line from a peer that never authenticated this
        // poll must not quarantine the stream it claims to name.
        if !conn.authed && oversize.len() > over_watermark {
            denied += (oversize.len() - over_watermark) as u64;
            oversize.truncate(over_watermark);
        }
        if denied > 0 {
            if let Some(telemetry) = telemetry {
                telemetry.auth_failures.add(denied);
            }
            let _ = conn.sock.write_all(b"!denied\n");
            if !conn.denial_noted {
                conn.denial_noted = true;
                out.push(SourceItem::Note(format!(
                    "note: {}: unauthenticated line(s) refused; the first line must be \
                     'auth <token>'",
                    conn.peer
                )));
            }
        }
    }

    /// Split a connection's buffered bytes into complete lines, pushed
    /// straight onto the routing list with the peer tag attached.
    /// Oversized lines (longer than `max_line_bytes`) are cut: the
    /// retained prefix goes to `oversize` for quarantine routing and
    /// the rest of the line is discarded as it arrives.
    fn drain_conn_buffer(
        conn: &mut Conn,
        chunk: &[u8],
        max_line_bytes: usize,
        routed: &mut Vec<(Vec<u8>, usize, Arc<str>)>,
        oversize: &mut Vec<Oversize>,
    ) {
        let mut rest = chunk;
        while !rest.is_empty() {
            let newline = rest.iter().position(|&b| b == b'\n');
            if conn.discarding {
                // Tail of an already-reported oversized line.
                match newline {
                    Some(pos) => {
                        conn.discarding = false;
                        conn.lineno += 1;
                        rest = &rest[pos + 1..];
                    }
                    None => return,
                }
                continue;
            }
            match newline {
                Some(pos) => {
                    let mut line = std::mem::take(&mut conn.partial);
                    line.extend_from_slice(&rest[..=pos]);
                    rest = &rest[pos + 1..];
                    if line.len() > max_line_bytes {
                        oversize.push(Oversize {
                            prefix: line,
                            lineno: conn.lineno,
                            peer: conn.peer.clone(),
                        });
                    } else {
                        routed.push((line, conn.lineno, conn.peer.clone()));
                    }
                    conn.lineno += 1;
                }
                None => {
                    // Invariant: `partial` never exceeds the limit (it
                    // is cleared the moment it does), so `need` > 0.
                    let need = max_line_bytes + 1 - conn.partial.len();
                    conn.partial
                        .extend_from_slice(&rest[..rest.len().min(need)]);
                    if conn.partial.len() > max_line_bytes {
                        // Report now, discard the rest as it arrives —
                        // the buffer never outgrows the limit.
                        oversize.push(Oversize {
                            prefix: std::mem::take(&mut conn.partial),
                            lineno: conn.lineno,
                            peer: conn.peer.clone(),
                        });
                        conn.discarding = true;
                    }
                    return;
                }
            }
        }
    }
}

impl Source for TcpSource {
    fn origin(&self) -> &str {
        &self.origin
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        // Accept whatever is waiting.
        loop {
            match self.listener.accept() {
                Ok((mut sock, peer)) => {
                    if sock.set_nonblocking(true).is_ok() {
                        self.seen_conn = true;
                        // A client connecting into an overloaded engine
                        // learns immediately, not at the next
                        // transition.
                        if self.busy {
                            let _ = sock.write_all(b"!busy\n");
                        }
                        self.conns.push(Conn {
                            sock,
                            peer: Arc::from(peer.to_string().as_str()),
                            partial: Vec::new(),
                            lineno: 0,
                            discarding: false,
                            authed: self.auth_token.is_none(),
                            denial_noted: false,
                        });
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(SourceError::Io(format!("{}: accept: {e}", self.origin))),
            }
        }

        // Read each connection's available bytes, collect complete
        // lines, then route (two phases, because routing needs the
        // whole source mutable). Line payloads are copied out of the
        // connection buffers; the peer tag is a shared Arc.
        let mut progressed = false;
        let mut routed: Vec<(Vec<u8>, usize, Arc<str>)> = Vec::new();
        let mut oversize: Vec<Oversize> = Vec::new();
        let mut i = 0;
        while i < self.conns.len() {
            let mut closed = false;
            let mut read_total = 0usize;
            let watermark = routed.len();
            let over_watermark = oversize.len();
            loop {
                if read_total >= BYTES_PER_POLL {
                    break;
                }
                let conn = &mut self.conns[i];
                match conn.sock.read(&mut self.buf) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        read_total += n;
                        Self::drain_conn_buffer(
                            conn,
                            &self.buf[..n],
                            self.limits.max_line_bytes,
                            &mut routed,
                            &mut oversize,
                        );
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // A dead client is a closed connection, not a
                        // source failure.
                        closed = true;
                        break;
                    }
                }
            }
            if let Some(token) = &self.auth_token {
                Self::filter_unauthed(
                    &mut self.conns[i],
                    token,
                    self.telemetry.as_ref(),
                    &mut routed,
                    watermark,
                    &mut oversize,
                    over_watermark,
                    out,
                );
            }
            if closed {
                let conn = self.conns.swap_remove(i);
                // A final line with no newline is final for this
                // connection: the peer can never complete it. From an
                // unauthenticated peer it is refused like any other.
                if !conn.partial.is_empty() {
                    if conn.authed {
                        routed.push((conn.partial, conn.lineno, conn.peer));
                    } else if let Some(telemetry) = &self.telemetry {
                        telemetry.auth_failures.inc();
                    }
                }
                progressed = true;
            } else {
                i += 1;
            }
        }
        for over in oversize {
            self.oversized(&over, out);
        }
        for (line, lineno, peer) in routed {
            self.line(&line, &peer, lineno, out);
        }

        // Idle eviction: streams silent past the window leave service,
        // releasing their detector state in the engine.
        if let Some(window) = self.evict_idle_ns {
            let now = self.clock.now_ns();
            let mut victims: Vec<Arc<str>> = Vec::new();
            for s in self.assemblers.keys() {
                if self.quarantined.contains(s) {
                    continue;
                }
                // A stream with no stamp starts its idle clock now.
                let seen = *self.last_seen.entry(s.clone()).or_insert(now);
                if now.saturating_sub(seen) >= window {
                    victims.push(s.clone());
                }
            }
            victims.sort();
            for stream in victims {
                if let Some(mut assembler) = self.assemblers.remove(&stream) {
                    // The stream is leaving service: its trailing bag
                    // is final.
                    assembler.flush(out);
                    self.last_seen.remove(&stream);
                    // Forget any restored cursor too: a stream that
                    // returns after eviction starts fresh, it does not
                    // resume.
                    self.resume.remove(stream.as_ref() as &str);
                    out.push(SourceItem::Retire { stream });
                }
            }
        }

        if progressed {
            self.idle_since_ns = None;
            Ok(SourceStatus::Active)
        } else if self.watch || !self.seen_conn || !self.conns.is_empty() {
            self.idle_since_ns = None;
            Ok(SourceStatus::Idle)
        } else {
            // Drain mode with every connection gone: hold the listener
            // open for the grace window, so a client that drops and
            // reconnects finds the session still there instead of a
            // torn-down socket.
            let now = self.clock.now_ns();
            let since = *self.idle_since_ns.get_or_insert(now);
            if now.saturating_sub(since) >= self.drain_grace_ns {
                Ok(SourceStatus::Done)
            } else {
                Ok(SourceStatus::Idle)
            }
        }
    }

    fn pressure(&mut self, load: f64) {
        if !self.busy && load >= BUSY_HIGH_WATER {
            self.busy = true;
            self.broadcast(b"!busy\n");
            if let Some(telemetry) = &self.telemetry {
                telemetry.backpressure.inc();
            }
        } else if self.busy && load <= BUSY_LOW_WATER {
            self.busy = false;
            self.broadcast(b"!ready\n");
            if let Some(telemetry) = &self.telemetry {
                telemetry.backpressure.inc();
            }
        }
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        // Deterministic order for deterministic checkpoint bytes.
        let mut streams: Vec<&Arc<str>> = self.assemblers.keys().collect();
        streams.sort();
        for s in streams {
            let mut cursor = self.assemblers[s].cursor(0, 0);
            // Persist the quarantine, so a resumed session keeps the
            // stream out of service even if its client reconnects —
            // matching what an uninterrupted run would do.
            cursor.quarantined = self.quarantined.contains(s);
            out.push((s.clone(), cursor));
        }
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        for (name, cursor) in cursors {
            if cursor.quarantined {
                self.quarantined.insert(Arc::from(name.as_str()));
            }
        }
        self.resume = cursors.clone();
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        let telemetry = TcpTelemetry {
            lines: registry.counter(
                names::INGEST_TCP_LINES,
                "Complete lines routed by TCP sources",
            ),
            dropped: registry.counter(
                names::INGEST_TCP_LINES_DROPPED,
                "Lines dropped for exceeding max_line_bytes",
            ),
            refused: registry.counter(
                names::INGEST_TCP_STREAMS_REFUSED,
                "Lines refused because max_streams was reached",
            ),
            auth_failures: registry.counter(
                names::INGEST_TCP_AUTH_FAILURES,
                "TCP lines refused before a successful auth handshake",
            ),
            backpressure: registry.counter(
                names::INGEST_TCP_BACKPRESSURE,
                "Busy/ready backpressure transitions broadcast to TCP clients",
            ),
            rows: registry.counter(names::INGEST_ROWS, ROWS_HELP),
        };
        for assembler in self.assemblers.values_mut() {
            assembler.set_row_counter(telemetry.rows.clone());
        }
        self.telemetry = Some(telemetry);
        // Drain grace and idle eviction follow the registry's clock, so
        // tests drive them with a manual clock instead of sleeping.
        self.clock = registry.clock();
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        // Flush trailing bags of non-quarantined streams. The pipeline
        // only calls finish() on a non-checkpointing, winding-down
        // session, where no further TCP data can ever complete them.
        let mut streams: Vec<Arc<str>> = self.assemblers.keys().cloned().collect();
        streams.sort();
        for s in streams {
            if !self.quarantined.contains(&s) {
                if let Some(a) = self.assemblers.get_mut(&s) {
                    a.flush(out);
                }
            }
        }
        Ok(())
    }
}
