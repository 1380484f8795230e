//! Hardened-serve ingress tests: the TCP auth handshake, the
//! busy/ready backpressure protocol, idle-stream eviction, and the
//! reconnect-aware drain grace. Every time-based behavior runs on a
//! manual clock; sockets are real, with bounded waits only for
//! loopback delivery.

use stream::ingest::{Source, SourceItem, SourceStatus, TcpSource};
use stream::telemetry::Clock;
use stream::MetricsRegistry;

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(10);

/// Sum of every sample whose key starts with `prefix`.
fn metric(registry: &MetricsRegistry, prefix: &str) -> f64 {
    registry
        .snapshot()
        .iter()
        .filter(|s| s.key.starts_with(prefix))
        .map(|s| s.value)
        .sum()
}

/// A client handle that can await the server's `!`-prefixed control
/// lines while keeping the source polled.
struct Client {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(tcp: &TcpSource) -> Client {
        let sock = TcpStream::connect(tcp.local_addr().unwrap()).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        Client {
            sock,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) {
        self.sock.write_all(line.as_bytes()).unwrap();
        self.sock.write_all(b"\n").unwrap();
    }

    /// Poll the source until the next control line arrives over this
    /// connection (loopback delivery is fast but asynchronous).
    fn expect(&mut self, tcp: &mut TcpSource, out: &mut Vec<SourceItem>, want: &str) {
        let deadline = Instant::now() + DEADLINE;
        let mut chunk = [0u8; 256];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                self.buf.drain(..=pos);
                assert_eq!(line, want);
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want:?} (buffered: {:?})",
                String::from_utf8_lossy(&self.buf)
            );
            tcp.poll(out).unwrap();
            match self.sock.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection awaiting {want:?}"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("client read: {e}"),
            }
        }
    }
}

/// Poll until `pred(out)` holds (bounded by wall clock, driven by the
/// source's own nonblocking poll).
fn poll_until(
    tcp: &mut TcpSource,
    out: &mut Vec<SourceItem>,
    what: &str,
    mut pred: impl FnMut(&[SourceItem]) -> bool,
) {
    let deadline = Instant::now() + DEADLINE;
    while !pred(out) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        tcp.poll(out).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Poll until the source reports the wanted status (for drain-grace
/// transitions driven by a manual clock).
fn poll_until_status(tcp: &mut TcpSource, out: &mut Vec<SourceItem>, want: SourceStatus) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let status = tcp.poll(out).unwrap();
        if status == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {want:?} (last: {status:?})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn bags<'a>(out: &'a [SourceItem], stream: &'a str) -> Vec<(i64, usize)> {
    out.iter()
        .filter_map(|i| match i {
            SourceItem::Bag {
                stream: s,
                time,
                rows,
            } if s.as_ref() == stream => Some((*time, rows.len())),
            _ => None,
        })
        .collect()
}

fn retired(out: &[SourceItem]) -> Vec<&str> {
    out.iter()
        .filter_map(|i| match i {
            SourceItem::Retire { stream } => Some(stream.as_ref()),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// (d) Auth: unauthenticated lines are refused, answered, counted — and
// never routed.
// ---------------------------------------------------------------------

#[test]
fn unauthenticated_lines_are_refused_counted_and_never_routed() {
    let registry = MetricsRegistry::new();
    let mut tcp = TcpSource::bind("127.0.0.1:0", false).unwrap();
    tcp.set_auth_token("sekrit");
    tcp.set_drain_grace(Duration::ZERO);
    tcp.attach_telemetry(&registry);
    let mut out = Vec::new();

    let mut client = Client::connect(&tcp);
    // Data before the handshake: refused, never routed. If this line
    // leaked, the t=0 bag below would carry its extra row.
    client.send("a,0,9.9");
    client.expect(&mut tcp, &mut out, "!denied");
    // A wrong token is just another unauthenticated line.
    client.send("auth wrong");
    client.expect(&mut tcp, &mut out, "!denied");
    // The real handshake.
    client.send("auth sekrit");
    client.expect(&mut tcp, &mut out, "!ok");
    // Authenticated data flows normally.
    client.send("a,0,0.5");
    client.send("a,1,0.5");
    poll_until(&mut tcp, &mut out, "the t=0 bag", |out| {
        !bags(out, "a").is_empty()
    });
    drop(client);
    poll_until_status(&mut tcp, &mut out, SourceStatus::Done);
    tcp.finish(&mut out).unwrap();

    // Exactly the authenticated rows: one per bag, the refused 9.9 row
    // nowhere.
    assert_eq!(bags(&out, "a"), vec![(0, 1), (1, 1)]);
    assert_eq!(
        metric(&registry, "bagscpd_ingest_tcp_auth_failures_total"),
        2.0,
        "one refused data line + one wrong token"
    );
    // The refusal is surfaced once per connection, not once per line.
    let denials = out
        .iter()
        .filter(
            |i| matches!(i, SourceItem::Note(n) if n.contains("unauthenticated line(s) refused")),
        )
        .count();
    assert_eq!(denials, 1);
}

#[test]
fn a_second_connection_must_authenticate_independently() {
    let registry = MetricsRegistry::new();
    let mut tcp = TcpSource::bind("127.0.0.1:0", true).unwrap();
    tcp.set_auth_token("sekrit");
    tcp.attach_telemetry(&registry);
    let mut out = Vec::new();

    let mut first = Client::connect(&tcp);
    first.send("auth sekrit");
    first.expect(&mut tcp, &mut out, "!ok");

    // The first connection's handshake must not cover the second.
    let mut second = Client::connect(&tcp);
    second.send("b,0,1.0");
    second.expect(&mut tcp, &mut out, "!denied");
    second.send("auth sekrit");
    second.expect(&mut tcp, &mut out, "!ok");
    second.send("b,0,1.0");
    second.send("b,1,1.0");
    poll_until(&mut tcp, &mut out, "the t=0 bag", |out| {
        !bags(out, "b").is_empty()
    });
    assert_eq!(bags(&out, "b"), vec![(0, 1)], "only the authed row routed");
    assert_eq!(
        metric(&registry, "bagscpd_ingest_tcp_auth_failures_total"),
        1.0
    );
}

// ---------------------------------------------------------------------
// (e) Backpressure: cooperative clients hear `!busy` at the high-water
// mark — below saturation — and `!ready` only back at the low-water
// mark (hysteresis).
// ---------------------------------------------------------------------

#[test]
fn backpressure_transitions_reach_every_client_with_hysteresis() {
    let registry = MetricsRegistry::new();
    let mut tcp = TcpSource::bind("127.0.0.1:0", true).unwrap();
    tcp.attach_telemetry(&registry);
    let mut out = Vec::new();

    let mut client = Client::connect(&tcp);
    // `connect` returning means the kernel completed the handshake, so
    // one poll is guaranteed to accept the pending connection — the
    // broadcasts below must have someone to reach.
    tcp.poll(&mut out).unwrap();

    let transitions = |registry: &MetricsRegistry| {
        metric(
            registry,
            "bagscpd_ingest_tcp_backpressure_transitions_total",
        )
    };
    // Below the high-water mark: silence.
    tcp.pressure(0.5);
    assert_eq!(transitions(&registry), 0.0);
    // 0.8 >= the 0.75 high-water mark — the queues are not yet full
    // (load 1.0), which is the point: the pause request goes out while
    // there is still headroom.
    tcp.pressure(0.8);
    assert_eq!(transitions(&registry), 1.0);
    client.expect(&mut tcp, &mut out, "!busy");
    // Hysteresis: dropping to the middle band changes nothing.
    tcp.pressure(0.5);
    assert_eq!(transitions(&registry), 1.0);
    // Only the low-water mark releases the client.
    tcp.pressure(0.2);
    assert_eq!(transitions(&registry), 2.0);
    client.expect(&mut tcp, &mut out, "!ready");

    // A client that connects into an overloaded engine learns at
    // accept time, not at the next transition.
    tcp.pressure(0.9);
    client.expect(&mut tcp, &mut out, "!busy");
    let mut late = Client::connect(&tcp);
    late.expect(&mut tcp, &mut out, "!busy");
}

// ---------------------------------------------------------------------
// Idle eviction: silent streams leave service (trailing bag flushed,
// Retire emitted); active and quarantined streams stay.
// ---------------------------------------------------------------------

#[test]
fn idle_streams_are_evicted_and_restart_fresh_on_return() {
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_clock(clock.clone());
    let mut tcp = TcpSource::bind("127.0.0.1:0", true).unwrap();
    tcp.set_evict_idle(Duration::from_secs(60));
    tcp.attach_telemetry(&registry);
    let mut out = Vec::new();

    let mut client = Client::connect(&tcp);
    client.send("a,0,1.0");
    client.send("b,0,1.0");
    // Both streams exist (their t=0 bags are still assembling, so wait
    // on the row counter instead).
    poll_until(&mut tcp, &mut out, "both streams' rows", |_| {
        metric(&registry, "bagscpd_ingest_rows_total") >= 2.0
    });

    // 30s later only `a` speaks (completing its t=0 bag).
    clock.advance_ns(30_000_000_000);
    client.send("a,1,1.0");
    poll_until(&mut tcp, &mut out, "a's t=0 bag", |out| {
        !bags(out, "a").is_empty()
    });

    // At 61s, `b` has been silent past the 60s window, `a` only 31s:
    // exactly `b` is evicted, with its trailing bag flushed first.
    clock.advance_ns(31_000_000_000);
    poll_until(&mut tcp, &mut out, "b's eviction", |out| {
        !retired(out).is_empty()
    });
    assert_eq!(retired(&out), vec!["b"]);
    assert_eq!(bags(&out, "b"), vec![(0, 1)], "trailing bag not lost");
    assert_eq!(bags(&out, "a"), vec![(0, 1)], "a stays in service");

    // A returning evicted stream starts fresh: an *older* time than it
    // ever produced is accepted, where a live stream would have been
    // quarantined for going backwards.
    client.send("b,0,2.0");
    client.send("b,1,2.0");
    poll_until(&mut tcp, &mut out, "b's fresh bag", |out| {
        bags(out, "b").len() > 1
    });
    assert_eq!(bags(&out, "b"), vec![(0, 1), (0, 1)]);
    assert!(
        !out.iter()
            .any(|i| matches!(i, SourceItem::Quarantine { .. })),
        "{out:?}"
    );
}

// ---------------------------------------------------------------------
// Drain grace: a draining source survives the gap between a disconnect
// and a reconnect; only sustained silence ends the session.
// ---------------------------------------------------------------------

#[test]
fn drain_grace_holds_the_session_open_across_reconnects() {
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_clock(clock.clone());
    let mut tcp = TcpSource::bind("127.0.0.1:0", false).unwrap();
    tcp.set_drain_grace(Duration::from_millis(200));
    tcp.attach_telemetry(&registry);
    let mut out = Vec::new();

    // Before any connection: never Done, no matter how long.
    clock.advance_ns(3_600_000_000_000);
    assert_eq!(tcp.poll(&mut out).unwrap(), SourceStatus::Idle);

    let mut client = Client::connect(&tcp);
    client.send("s,0,0.5");
    client.send("s,1,0.5");
    poll_until(&mut tcp, &mut out, "the t=0 bag", |out| {
        !bags(out, "s").is_empty()
    });
    drop(client);
    // The close is noticed (progress), then the source idles — but
    // inside the grace window it must not report Done.
    poll_until_status(&mut tcp, &mut out, SourceStatus::Idle);
    clock.advance_ns(150_000_000);
    assert_eq!(tcp.poll(&mut out).unwrap(), SourceStatus::Idle);

    // A reconnect inside the window keeps the session alive and resets
    // the grace timer.
    let mut client = Client::connect(&tcp);
    client.send("s,2,0.5");
    poll_until(&mut tcp, &mut out, "the t=1 bag", |out| {
        bags(out, "s").len() > 1
    });
    drop(client);
    poll_until_status(&mut tcp, &mut out, SourceStatus::Idle);

    // Only a full quiet window ends the drain.
    clock.advance_ns(150_000_000);
    assert_eq!(tcp.poll(&mut out).unwrap(), SourceStatus::Idle);
    clock.advance_ns(50_000_000);
    poll_until_status(&mut tcp, &mut out, SourceStatus::Done);
    tcp.finish(&mut out).unwrap();
    assert_eq!(bags(&out, "s"), vec![(0, 1), (1, 1), (2, 1)]);
}

// ---------------------------------------------------------------------
// Pipeline integration: Retire items release engine state (and are
// counted and announced), and queue pressure reaches every source each
// tick.
// ---------------------------------------------------------------------

/// The detector the pipeline tests run (window 5, histogram signature).
fn detector() -> bagcpd::DetectorConfig {
    use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn pipeline_retires_evicted_streams_and_announces_it() {
    use stream::sink::MemorySink;
    use stream::{Event, Pipeline};

    let clock = Clock::manual();
    let registry = MetricsRegistry::with_clock(clock.clone());
    let mut tcp = TcpSource::bind("127.0.0.1:0", false).unwrap();
    tcp.set_evict_idle(Duration::from_secs(60));
    tcp.set_drain_grace(Duration::ZERO);
    let addr = tcp.local_addr().unwrap();
    let sink = MemorySink::new();
    let mut pipeline = Pipeline::builder(detector())
        .seed(7)
        .workers(1)
        .metrics(registry.clone())
        .source(tcp)
        .sink(sink.clone())
        .build()
        .unwrap();

    let mut sock = TcpStream::connect(addr).unwrap();
    for t in 0..3 {
        writeln!(sock, "idle,{t},0.5").unwrap();
        writeln!(sock, "live,{t},0.5").unwrap();
    }
    sock.flush().unwrap();
    // Step until both streams' lines are in.
    let deadline = Instant::now() + DEADLINE;
    while metric(&registry, "bagscpd_ingest_rows_total") < 6.0 {
        assert!(Instant::now() < deadline, "lines never arrived");
        let _ = pipeline.step().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    // 61s of silence from `idle` while `live` keeps speaking.
    clock.advance_ns(61_000_000_000);
    writeln!(sock, "live,3,0.5").unwrap();
    sock.flush().unwrap();
    let deadline = Instant::now() + DEADLINE;
    while metric(&registry, "bagscpd_ingest_streams_evicted_total") < 1.0 {
        assert!(Instant::now() < deadline, "eviction never routed");
        let _ = pipeline.step().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    // The eviction reaches the sinks as a note, and the returning
    // stream is accepted fresh (t=0 again) without error.
    writeln!(sock, "idle,0,0.7").unwrap();
    writeln!(sock, "idle,1,0.7").unwrap();
    drop(sock);
    let deadline = Instant::now() + DEADLINE;
    while !pipeline.step().unwrap().done {
        assert!(Instant::now() < deadline, "pipeline never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    pipeline.finish().unwrap();

    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Note(n) if n.contains("'idle' evicted after idling")
        )),
        "{events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::StreamError { .. } | Event::Quarantine(_))),
        "the returning stream must start fresh, not fail: {events:?}"
    );
    assert_eq!(
        metric(&registry, "bagscpd_ingest_streams_evicted_total"),
        1.0
    );
}

/// A source that records every pressure report the pipeline hands it.
struct PressureProbe {
    loads: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
    polls: u32,
}

impl Source for PressureProbe {
    fn origin(&self) -> &str {
        "probe"
    }

    fn poll(
        &mut self,
        _out: &mut Vec<SourceItem>,
    ) -> Result<SourceStatus, stream::ingest::SourceError> {
        self.polls += 1;
        Ok(if self.polls < 3 {
            SourceStatus::Idle
        } else {
            SourceStatus::Done
        })
    }

    fn pressure(&mut self, load: f64) {
        self.loads.lock().unwrap().push(load);
    }
}

#[test]
fn pipeline_reports_queue_pressure_to_sources_before_every_poll() {
    use stream::Pipeline;

    let loads = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut pipeline = Pipeline::builder(detector())
        .seed(7)
        .workers(1)
        .source(PressureProbe {
            loads: loads.clone(),
            polls: 0,
        })
        .build()
        .unwrap();
    for _ in 0..3 {
        let _ = pipeline.step().unwrap();
    }
    pipeline.finish().unwrap();
    let loads = loads.lock().unwrap();
    assert_eq!(loads.len(), 3, "one report per poll");
    assert!(
        loads.iter().all(|l| (0.0..=1.0).contains(l)),
        "load is a queue fraction: {loads:?}"
    );
}
