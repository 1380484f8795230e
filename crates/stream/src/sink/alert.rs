//! Human-facing diagnostics on stderr.

use super::Sink;
use crate::event::Event;
use std::io::{self, Write};

/// The CLI's stderr channel as a sink: ALERT lines for alerting points,
/// warnings for per-bag stream errors, quarantine reports, operational
/// notes, and checkpoint sizes. Non-alerting points are silent — pair
/// this with a [`super::CsvSink`] (via [`super::Tee`]) for the score
/// table itself.
pub struct StderrAlertSink {
    /// Name the stream in ALERT lines (multi-stream sessions).
    with_stream: bool,
}

impl StderrAlertSink {
    /// `with_stream` names the stream in ALERT lines — the
    /// multi-stream (`serve`) format; single-stream sessions elide it.
    pub fn new(with_stream: bool) -> Self {
        StderrAlertSink { with_stream }
    }
}

impl Sink for StderrAlertSink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        let stderr = io::stderr();
        let mut out = stderr.lock();
        for event in events {
            match event {
                Event::Point { stream, point } => {
                    if point.alert {
                        if self.with_stream {
                            writeln!(out, "ALERT on {stream} at inspection point {}", point.t)?;
                        } else {
                            writeln!(out, "ALERT at inspection point {}", point.t)?;
                        }
                    }
                }
                Event::StreamError { stream, message } => {
                    writeln!(out, "warning: stream {stream}: {message}")?;
                }
                Event::Quarantine(record) => {
                    writeln!(
                        out,
                        "quarantined stream '{}': {} (stream is out of service; other streams \
                         continue)",
                        record.stream, record.error
                    )?;
                }
                Event::Note(note) => {
                    writeln!(out, "{note}")?;
                }
                Event::CheckpointWritten { bytes, .. } => {
                    writeln!(out, "checkpoint: {bytes} bytes")?;
                }
                Event::Degraded { sink, reason } => {
                    writeln!(
                        out,
                        "warning: sink '{sink}' degraded ({reason}); events spill to disk until \
                         it recovers"
                    )?;
                }
                Event::Recovered { sink, replayed } => {
                    writeln!(
                        out,
                        "sink '{sink}' recovered; {replayed} spilled events replayed in order"
                    )?;
                }
                Event::ReplayDiff {
                    stream,
                    t,
                    live,
                    recorded,
                    outcome,
                } => {
                    // Only divergence is worth a human's attention; the
                    // equal/within-eps verdicts stay in the summary.
                    if *outcome == crate::event::DiffOutcome::Diverged {
                        writeln!(
                            out,
                            "DIVERGED on {stream} at inspection point {t}: live {live} vs \
                             recorded {recorded}"
                        )?;
                    }
                }
            }
        }
        out.flush()
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        io::stderr().flush()
    }

    fn kind(&self) -> &'static str {
        "stderr"
    }
}
