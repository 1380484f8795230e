//! `bags-cpd` — command-line change-point detection for bag-structured
//! CSV data.
//!
//! Input format: CSV with a leading integer time column followed by the
//! coordinates of one bag member per row (header optional):
//!
//! ```csv
//! t,x1,x2
//! 0,0.13,1.2
//! 0,0.11,0.9
//! 1,0.09,1.1
//! ```
//!
//! Rows sharing a `t` form one bag.
//!
//! All three modes are thin argument-parsing shims over the library's
//! [`Pipeline`] facade (`stream::Pipeline`): sources feed the engine,
//! every output — score rows, alerts, warnings, quarantine reports,
//! checkpoint commits — leaves through `Sink`s, and the two-phase
//! durable-checkpoint protocol (deliver, flush durably, only then
//! commit) is the library's job, not this file's.
//!
//! # Batch mode
//!
//! ```sh
//! bags-cpd data.csv --tau 5 --tau-prime 5 --k 8 --alpha 0.05
//! ```
//!
//! Reads the whole file, analyzes it, and prints one line per
//! inspection point with the score, confidence interval and alert flag,
//! plus a CSV dump with `--output` (the canonical single-stream schema,
//! `t,score,ci_lo,ci_up,xi,alert`).
//!
//! # Follow mode
//!
//! ```sh
//! tail -f live.csv | bags-cpd follow - --tau 5 --tau-prime 5
//! bags-cpd follow data.csv --state checkpoint.snap
//! ```
//!
//! `follow` tails one file (or stdin with `-`) *incrementally*: rows
//! with the same time value must be contiguous and times nondecreasing;
//! each time the time column advances, the completed bag is pushed into
//! the online engine and any newly completed inspection point is
//! printed immediately — same columns as batch mode, same numbers (the
//! online path is bit-identical to batch analysis), with a latency of
//! τ' bags. The reported `t` is the 0-based bag ordinal, as in batch
//! mode.
//!
//! With `--state <file>`, the session checkpoints: the detector state
//! plus a resume cursor (consumed byte count + content hash + held-back
//! pending rows) is written atomically (temp file + fsync + rename) at
//! EOF — and, with `--checkpoint-bags`/`--checkpoint-ticks`, periodically
//! while running — so a session can be stopped (or killed) and resumed
//! without losing window context. Resume is content-addressed: the
//! same, grown (append-only) file continues exactly at the recorded
//! offset; a rotated or rewritten input is detected by the hash and
//! read from the top with already-pushed times skipped. `--state` files
//! written by the previous single-source format are still read.
//!
//! # Serve mode
//!
//! ```sh
//! bags-cpd serve --dir sensors/ --listen 127.0.0.1:7171 \
//!     --state fleet.snap --checkpoint-bags 256
//! ```
//!
//! `serve` is the multi-tenant front-end: any mix of `--csv` files (one
//! stream per file, named by file stem), a `--dir` of CSVs (one stream
//! per file, re-scanned for new files while running), and a `--listen`
//! TCP socket speaking a `stream,t,x1,…` line protocol (many clients,
//! many streams, non-blocking; hardened by `--max-line-bytes` and
//! `--max-streams`). Output rows are prefixed with the stream name. A
//! malformed row or a backwards timestamp *quarantines that stream*
//! (reported on stderr) instead of tearing the process down. Without
//! `--watch`, the process drains every source and exits; with it, it
//! keeps watching files, directory, and socket until killed. Periodic
//! checkpoints cover every stream and every source cursor — committed
//! only after the covered output was delivered — so `kill -9` loses
//! nothing past the last checkpoint.

use bags_cpd::stream::ingest::checkpoint::{decode_checkpoint, FOLLOW_STREAM};
use bags_cpd::stream::ingest::parse_row;
use bags_cpd::stream::ingest::{
    CsvFileSource, DirSource, MemorySource, TcpLimits, TcpSource, ThreadedLineSource,
};
use bags_cpd::stream::snapshot::decode_engine;
use bags_cpd::stream::testkit::{ChaosSink, DeliverFault, FaultSchedule};
use bags_cpd::stream::{
    CheckpointPolicy, CsvSchema, CsvSink, Event, MemorySink, MetricSample, MetricsRegistry,
    OnlineState, Pipeline, PipelineBuilder, Query, ReplayDiffSink, RetryPolicy, RetryingSink,
    ScoreLogReader, ScoreStore, Sink, StderrAlertSink, Tee,
};
use bags_cpd::{
    Bag, BootstrapConfig, DetectError, Detector, DetectorConfig, ScoreKind, SignatureMethod,
    Weighting,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Which front-end drives the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Read everything, analyze once.
    Batch,
    /// Tail one input, emit points as bags complete.
    Follow,
    /// Multi-source ingestion: files, directory, TCP.
    Serve,
    /// Re-emit a recorded score log, or diff a fresh run against one.
    Replay,
    /// Query a recorded score log through its per-stream index.
    Query,
}

/// Parsed command-line options.
struct Options {
    mode: Mode,
    input: String,
    tau: usize,
    tau_prime: usize,
    score: ScoreKind,
    weighting: Weighting,
    signature: SignatureMethod,
    alpha: f64,
    replicates: usize,
    seed: u64,
    /// Whether --seed was given explicitly (a resumed checkpoint keeps
    /// its original seed; warn only about a *real* conflict).
    seed_explicit: bool,
    output: Option<String>,
    state: Option<String>,
    /// serve: explicit CSV files (stream named by file stem).
    csvs: Vec<String>,
    /// serve: directory of CSVs (one stream per file).
    dir: Option<String>,
    /// serve: TCP listen address for the line protocol.
    listen: Option<String>,
    /// serve: keep watching sources instead of draining and exiting.
    watch: bool,
    /// serve: TCP hardening limits (defaults from the library).
    max_line_bytes: Option<usize>,
    max_streams: Option<usize>,
    /// Periodic checkpoint triggers (follow + serve, with --state).
    checkpoint_bags: Option<u64>,
    checkpoint_ticks: Option<u64>,
    /// serve: address for the Prometheus `GET /metrics` endpoint.
    metrics: Option<String>,
    /// Print the final telemetry snapshot to stderr on exit.
    stats: bool,
    /// serve + --listen: required `auth <token>` handshake.
    auth_token: Option<String>,
    /// serve + --listen: idle-stream eviction window (seconds).
    evict_idle: Option<f64>,
    /// serve + --listen: reconnect grace before a draining session
    /// winds down (seconds).
    drain_grace: Option<f64>,
    /// serve: directory for degraded-mode spill logs (enables graceful
    /// degradation instead of aborting on sink failure).
    spill_dir: Option<String>,
    /// serve: wrap the stdout sink in a retry layer with this many
    /// attempts.
    sink_retries: Option<u32>,
    /// serve: inject a deterministic stdout-sink fault
    /// (`<at_event>:<failures>`) — the chaos-testing hook the CI smoke
    /// test drives.
    chaos_sink: Option<(u64, u32)>,
    /// batch/follow/serve: record every event to this binary score log.
    score_log: Option<String>,
    /// replay: diff the live run against this recorded score log.
    diff: Option<String>,
    /// replay --diff: score drift accepted as "within eps" (default 0:
    /// bit-exact or diverged).
    eps: f64,
    /// query: restrict to one stream.
    q_stream: Option<String>,
    /// query: only points with `t >= since`.
    q_since: Option<u64>,
    /// query: only points with `t <= until`.
    q_until: Option<u64>,
    /// query: only alerting points.
    q_alerts_only: bool,
    /// query: top-N points by score.
    q_top: Option<usize>,
}

const USAGE: &str = "\
usage: bags-cpd <input.csv> [options]
       bags-cpd follow <input.csv|-> [options]
       bags-cpd serve [--csv <f.csv>]... [--dir <d>] [--listen <addr>] [options]
       bags-cpd replay <log> | replay --diff <log> [input.csv] [options]
       bags-cpd query <log> [--stream <s>] [--since <t>] [--until <t>] [options]

modes:
  <input.csv>            batch: analyze the whole file at once
  follow <input.csv|->   online: tail the file (or stdin), print each
                         inspection point as soon as its test window
                         completes
  serve                  online, multi-source: ingest many CSV files, a
                         directory of CSVs (one stream per file), and/or
                         a TCP line protocol ('stream,t,x1,...') into
                         one engine; output rows carry the stream name
  replay <log>           re-emit the events recorded in a --score-log
                         file; with --diff <log>, instead re-analyze the
                         original inputs (positional file and/or
                         --csv/--dir, with the recording session's
                         detector flags and --seed) and compare every
                         live score against the record, exiting nonzero
                         on any divergence
  query <log>            summarize a --score-log per stream, or list
                         recorded points filtered by --stream/--since/
                         --until/--alerts-only/--top

options:
  --tau <n>              reference window length (default 5)
  --tau-prime <n>        test window length (default 5)
  --score <kl|lr>        change-point score (default kl)
  --weighting <equal|discounted>
                         window weighting (default equal)
  --k <n>                k-means signature size (default 8)
  --histogram <width>    use histogram signatures with this bin width
  --alpha <a>            significance level for the CIs (default 0.05)
  --replicates <T>       bootstrap replicates (default 200)
  --seed <s>             RNG seed (default 42)
  --output <file.csv>    write the score series as CSV (batch mode)
  --state <file>         follow/serve: restore checkpoint if present,
                         save checkpoints while running and at exit
  --checkpoint-bags <n>  with --state: checkpoint every n bags
  --checkpoint-ticks <n> with --state: checkpoint every n poll ticks
  --csv <file.csv>       serve: add a CSV file source (repeatable);
                         the stream is named after the file stem
  --dir <dir>            serve: add every *.csv in dir (re-scanned, so
                         files appearing later join the fleet)
  --listen <addr>        serve: accept the TCP line protocol on addr
  --max-line-bytes <n>   serve: drop TCP lines longer than n bytes and
                         quarantine their stream (default 262144)
  --max-streams <n>      serve: refuse TCP streams beyond the first n
                         (default 4096)
  --watch                serve: keep running at EOF (tail files and the
                         socket) instead of draining and exiting
  --metrics <addr>       serve: answer Prometheus 'GET /metrics' scrapes
                         on addr (port 0 picks a free port; the bound
                         address is printed on stderr)
  --auth-token <tok>     serve: require every TCP connection to open
                         with 'auth <tok>' (answered '!ok'); anything
                         before a successful handshake is refused
                         ('!denied') and counted
  --evict-idle <secs>    serve: retire TCP streams silent for this long
                         (their trailing bag completes; a returning
                         stream starts fresh)
  --drain-grace <secs>   serve: without --watch, keep the TCP listener
                         draining this long after the last client
                         disconnects (reconnect window; default 0.2)
  --spill-dir <dir>      serve: degrade instead of abort when a sink
                         fails — undeliverable events spill to an
                         append-only log in dir and replay, in order,
                         when the sink recovers
  --sink-retries <n>     serve: retry transient stdout-sink failures up
                         to n attempts (bounded exponential backoff)
                         before degrading or aborting
  --chaos-sink <a>:<f>   serve: inject a deterministic stdout-sink fault
                         for testing — the delivery containing event
                         ordinal a fails f times, then heals
  --score-log <file>     batch/follow/serve: record every event to this
                         durable binary log (append-only, checksummed;
                         an existing log is appended to across resumes)
  --diff <log>           replay: compare the live run against this log
  --eps <e>              replay --diff: accept |live - recorded| <= e as
                         'within eps' instead of diverged (default 0)
  --stream <s>           query: only this stream
  --since <t>            query: only points with t >= this
  --until <t>            query: only points with t <= this
  --alerts-only          query: only alerting points
  --top <n>              query: the n highest-scoring points
  --stats                print the final telemetry snapshot (every
                         counter, gauge, and histogram) to stderr
  --help                 show this message
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Batch,
        input: String::new(),
        tau: 5,
        tau_prime: 5,
        score: ScoreKind::SymmetrizedKl,
        weighting: Weighting::Equal,
        signature: SignatureMethod::KMeans { k: 8 },
        alpha: 0.05,
        replicates: 200,
        seed: 42,
        seed_explicit: false,
        output: None,
        state: None,
        csvs: Vec::new(),
        dir: None,
        listen: None,
        watch: false,
        max_line_bytes: None,
        max_streams: None,
        checkpoint_bags: None,
        checkpoint_ticks: None,
        metrics: None,
        stats: false,
        auth_token: None,
        evict_idle: None,
        drain_grace: None,
        spill_dir: None,
        sink_retries: None,
        chaos_sink: None,
        score_log: None,
        diff: None,
        eps: 0.0,
        q_stream: None,
        q_since: None,
        q_until: None,
        q_alerts_only: false,
        q_top: None,
    };
    let mut it = args.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--tau" => opts.tau = take("--tau")?.parse().map_err(|e| format!("--tau: {e}"))?,
            "--tau-prime" => {
                opts.tau_prime = take("--tau-prime")?
                    .parse()
                    .map_err(|e| format!("--tau-prime: {e}"))?;
            }
            "--score" => {
                opts.score = match take("--score")?.as_str() {
                    "kl" => ScoreKind::SymmetrizedKl,
                    "lr" => ScoreKind::LikelihoodRatio,
                    other => return Err(format!("--score: unknown kind '{other}' (kl|lr)")),
                };
            }
            "--weighting" => {
                opts.weighting = match take("--weighting")?.as_str() {
                    "equal" => Weighting::Equal,
                    "discounted" => Weighting::Discounted,
                    other => return Err(format!("--weighting: unknown '{other}'")),
                };
            }
            "--k" => {
                let k = take("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                opts.signature = SignatureMethod::KMeans { k };
            }
            "--histogram" => {
                let width = take("--histogram")?
                    .parse()
                    .map_err(|e| format!("--histogram: {e}"))?;
                opts.signature = SignatureMethod::Histogram { width };
            }
            "--alpha" => {
                opts.alpha = take("--alpha")?
                    .parse()
                    .map_err(|e| format!("--alpha: {e}"))?;
            }
            "--replicates" => {
                opts.replicates = take("--replicates")?
                    .parse()
                    .map_err(|e| format!("--replicates: {e}"))?;
            }
            "--seed" => {
                opts.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                opts.seed_explicit = true;
            }
            "--output" => opts.output = Some(take("--output")?),
            "--state" => opts.state = Some(take("--state")?),
            "--csv" => opts.csvs.push(take("--csv")?),
            "--dir" => opts.dir = Some(take("--dir")?),
            "--listen" => opts.listen = Some(take("--listen")?),
            "--metrics" => opts.metrics = Some(take("--metrics")?),
            "--stats" => opts.stats = true,
            "--watch" => opts.watch = true,
            "--max-line-bytes" => {
                opts.max_line_bytes = Some(
                    take("--max-line-bytes")?
                        .parse()
                        .map_err(|e| format!("--max-line-bytes: {e}"))?,
                );
            }
            "--max-streams" => {
                opts.max_streams = Some(
                    take("--max-streams")?
                        .parse()
                        .map_err(|e| format!("--max-streams: {e}"))?,
                );
            }
            "--checkpoint-bags" => {
                opts.checkpoint_bags = Some(
                    take("--checkpoint-bags")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-bags: {e}"))?,
                );
            }
            "--checkpoint-ticks" => {
                opts.checkpoint_ticks = Some(
                    take("--checkpoint-ticks")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-ticks: {e}"))?,
                );
            }
            "--auth-token" => opts.auth_token = Some(take("--auth-token")?),
            "--evict-idle" => {
                let secs: f64 = take("--evict-idle")?
                    .parse()
                    .map_err(|e| format!("--evict-idle: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--evict-idle: need a positive number of seconds".to_string());
                }
                opts.evict_idle = Some(secs);
            }
            "--drain-grace" => {
                let secs: f64 = take("--drain-grace")?
                    .parse()
                    .map_err(|e| format!("--drain-grace: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--drain-grace: need a non-negative number of seconds".to_string());
                }
                opts.drain_grace = Some(secs);
            }
            "--spill-dir" => opts.spill_dir = Some(take("--spill-dir")?),
            "--sink-retries" => {
                let n: u32 = take("--sink-retries")?
                    .parse()
                    .map_err(|e| format!("--sink-retries: {e}"))?;
                if n == 0 {
                    return Err("--sink-retries: need at least 1 attempt".to_string());
                }
                opts.sink_retries = Some(n);
            }
            "--score-log" => opts.score_log = Some(take("--score-log")?),
            "--diff" => opts.diff = Some(take("--diff")?),
            "--eps" => {
                let eps: f64 = take("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
                if !eps.is_finite() || eps < 0.0 {
                    return Err("--eps: need a finite non-negative number".to_string());
                }
                opts.eps = eps;
            }
            "--stream" => opts.q_stream = Some(take("--stream")?),
            "--since" => {
                opts.q_since = Some(
                    take("--since")?
                        .parse()
                        .map_err(|e| format!("--since: {e}"))?,
                );
            }
            "--until" => {
                opts.q_until = Some(
                    take("--until")?
                        .parse()
                        .map_err(|e| format!("--until: {e}"))?,
                );
            }
            "--alerts-only" => opts.q_alerts_only = true,
            "--top" => {
                opts.q_top = Some(take("--top")?.parse().map_err(|e| format!("--top: {e}"))?);
            }
            "--chaos-sink" => {
                let spec = take("--chaos-sink")?;
                let (at, failures) = spec.split_once(':').ok_or_else(|| {
                    format!("--chaos-sink: '{spec}' is not '<at_event>:<failures>'")
                })?;
                opts.chaos_sink = Some((
                    at.parse()
                        .map_err(|e| format!("--chaos-sink: bad event ordinal '{at}': {e}"))?,
                    failures.parse().map_err(|e| {
                        format!("--chaos-sink: bad failure count '{failures}': {e}")
                    })?,
                ));
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option {other}\n\n{USAGE}"))
            }
            other => positional.push(other.to_string()),
        }
    }
    match positional.first().map(String::as_str) {
        Some("follow") => {
            opts.mode = Mode::Follow;
            positional.remove(0);
            if positional.is_empty() {
                positional.push("-".to_string()); // follow defaults to stdin
            }
        }
        Some("serve") => {
            opts.mode = Mode::Serve;
            positional.remove(0);
        }
        Some("replay") => {
            opts.mode = Mode::Replay;
            positional.remove(0);
        }
        Some("query") => {
            opts.mode = Mode::Query;
            positional.remove(0);
        }
        _ => {}
    }
    // --csv/--dir also feed replay --diff (the original inputs of the
    // recorded session); everything else stays serve-only.
    if !matches!(opts.mode, Mode::Serve | Mode::Replay)
        && (!opts.csvs.is_empty() || opts.dir.is_some())
    {
        return Err("--csv/--dir are serve/replay-mode options".to_string());
    }
    if opts.mode != Mode::Serve
        && (opts.listen.is_some()
            || opts.watch
            || opts.max_line_bytes.is_some()
            || opts.max_streams.is_some()
            || opts.metrics.is_some()
            || opts.auth_token.is_some()
            || opts.evict_idle.is_some()
            || opts.drain_grace.is_some()
            || opts.spill_dir.is_some()
            || opts.sink_retries.is_some()
            || opts.chaos_sink.is_some())
    {
        return Err("--listen/--watch/--max-line-bytes/--max-streams/--metrics/\
             --auth-token/--evict-idle/--drain-grace/--spill-dir/--sink-retries/--chaos-sink \
             are serve-mode options"
            .to_string());
    }
    if (opts.checkpoint_bags.is_some() || opts.checkpoint_ticks.is_some()) && opts.state.is_none() {
        return Err("--checkpoint-bags/--checkpoint-ticks need --state".to_string());
    }
    if opts.score_log.is_some() && matches!(opts.mode, Mode::Replay | Mode::Query) {
        return Err("--score-log records a live session (batch/follow/serve)".to_string());
    }
    if opts.mode != Mode::Replay && opts.diff.is_some() {
        return Err("--diff is a replay-mode option".to_string());
    }
    if opts.eps != 0.0 && opts.diff.is_none() {
        return Err("--eps needs replay --diff".to_string());
    }
    if opts.mode != Mode::Query
        && (opts.q_stream.is_some()
            || opts.q_since.is_some()
            || opts.q_until.is_some()
            || opts.q_alerts_only
            || opts.q_top.is_some())
    {
        return Err(
            "--stream/--since/--until/--alerts-only/--top are query-mode options".to_string(),
        );
    }
    if opts.mode == Mode::Replay {
        if opts.state.is_some() {
            return Err("replay re-runs from scratch; --state is not available".to_string());
        }
        if opts.output.is_some() {
            return Err("--output is only meaningful in batch mode".to_string());
        }
        match &opts.diff {
            None => {
                // Dump mode: the one positional is the log itself.
                if !opts.csvs.is_empty() || opts.dir.is_some() {
                    return Err("--csv/--dir need replay --diff (they name the inputs \
                                to re-analyze)"
                        .to_string());
                }
                match positional.len() {
                    0 => return Err(format!("replay: missing score log\n\n{USAGE}")),
                    1 => opts.input = positional.remove(0),
                    _ => return Err(format!("too many positional arguments\n\n{USAGE}")),
                }
            }
            Some(_) => {
                // Diff mode: positional (if any) is the original input.
                match positional.len() {
                    0 => {
                        if opts.csvs.is_empty() && opts.dir.is_none() {
                            return Err(format!(
                                "replay --diff needs the original inputs (a positional \
                                 CSV, --csv, or --dir)\n\n{USAGE}"
                            ));
                        }
                    }
                    1 => opts.input = positional.remove(0),
                    _ => return Err(format!("too many positional arguments\n\n{USAGE}")),
                }
            }
        }
        return Ok(opts);
    }
    if opts.mode == Mode::Query {
        if opts.state.is_some() || opts.output.is_some() {
            return Err("query only reads a score log; --state/--output do not apply".to_string());
        }
        match positional.len() {
            0 => return Err(format!("query: missing score log\n\n{USAGE}")),
            1 => opts.input = positional.remove(0),
            _ => return Err(format!("too many positional arguments\n\n{USAGE}")),
        }
        if let (Some(since), Some(until)) = (opts.q_since, opts.q_until) {
            if since > until {
                return Err(format!("--since {since} is after --until {until}"));
            }
        }
        return Ok(opts);
    }
    if opts.mode == Mode::Serve {
        if !positional.is_empty() {
            return Err(format!(
                "serve mode takes sources via --csv/--dir/--listen\n\n{USAGE}"
            ));
        }
        if opts.csvs.is_empty() && opts.dir.is_none() && opts.listen.is_none() {
            return Err(format!(
                "serve mode needs at least one source (--csv, --dir, or --listen)\n\n{USAGE}"
            ));
        }
        if opts.output.is_some() {
            return Err("--output is only meaningful in batch mode".to_string());
        }
        if (opts.max_line_bytes.is_some() || opts.max_streams.is_some()) && opts.listen.is_none() {
            return Err("--max-line-bytes/--max-streams need --listen".to_string());
        }
        if (opts.auth_token.is_some() || opts.evict_idle.is_some() || opts.drain_grace.is_some())
            && opts.listen.is_none()
        {
            return Err("--auth-token/--evict-idle/--drain-grace need --listen".to_string());
        }
        return Ok(opts);
    }
    match positional.len() {
        0 => Err(format!("missing input file\n\n{USAGE}")),
        1 => {
            opts.input = positional.remove(0);
            if opts.mode == Mode::Batch && opts.state.is_some() {
                return Err("--state is only meaningful in follow mode".to_string());
            }
            if opts.mode == Mode::Follow && opts.output.is_some() {
                return Err("--output is only meaningful in batch mode".to_string());
            }
            Ok(opts)
        }
        _ => Err(format!("too many positional arguments\n\n{USAGE}")),
    }
}

fn detector_config(opts: &Options) -> DetectorConfig {
    DetectorConfig {
        tau: opts.tau,
        tau_prime: opts.tau_prime,
        score: opts.score,
        weighting: opts.weighting,
        signature: opts.signature.clone(),
        bootstrap: BootstrapConfig {
            alpha: opts.alpha,
            replicates: opts.replicates,
        },
        ..DetectorConfig::default()
    }
}

fn build_detector(opts: &Options) -> Result<Detector, String> {
    Detector::new(detector_config(opts)).map_err(|e| e.to_string())
}

/// The shared pipeline shape: detection parameters, master seed, and
/// the mode's checkpoint policy (when `--state` is set).
fn pipeline_builder(opts: &Options, workers: usize, strict: bool) -> PipelineBuilder {
    let mut builder = Pipeline::builder(detector_config(opts))
        .seed(opts.seed)
        .workers(workers)
        .strict(strict);
    if let Some(state) = &opts.state {
        builder = builder.checkpoint(
            CheckpointPolicy {
                every_bags: opts.checkpoint_bags,
                every_ticks: opts.checkpoint_ticks,
            },
            state,
        );
    }
    if let Some(log) = &opts.score_log {
        builder = builder.score_log(log);
    }
    builder
}

/// Parse the bag CSV: integer time column + coordinates, through the
/// one authoritative row parser in `stream::ingest`. Batch mode sorts
/// by time (the whole file is present), so unordered inputs stay
/// accepted here even though the online sources require nondecreasing
/// times.
fn read_bags(path: &str) -> Result<Vec<Bag>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_time: BTreeMap<i64, Vec<Vec<f64>>> = BTreeMap::new();
    let mut dim: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((t, coords)) =
            parse_row(line, lineno, path, lineno == 0).map_err(|e| e.to_string())?
        else {
            continue;
        };
        match dim {
            None => dim = Some(coords.len()),
            Some(d) if d != coords.len() => {
                return Err(format!(
                    "{path}:{}: dimension {} != {}",
                    lineno + 1,
                    coords.len(),
                    d
                ));
            }
            _ => {}
        }
        by_time.entry(t).or_default().push(coords);
    }
    if by_time.is_empty() {
        return Err(format!("{path}: no data rows"));
    }
    Ok(by_time.into_values().map(Bag::new).collect())
}

/// The batch stream's name inside its one-shot engine (never persisted;
/// only its explicitly pinned seed matters).
const BATCH_STREAM: &str = "cli-batch";

fn run_batch(opts: &Options) -> Result<(), String> {
    build_detector(opts)?; // validate the configuration up front
    let bags = read_bags(&opts.input)?;
    eprintln!(
        "read {} bags (sizes {}..{}), dim {}",
        bags.len(),
        bags.iter().map(Bag::len).min().unwrap_or(0),
        bags.iter().map(Bag::len).max().unwrap_or(0),
        bags[0].dim()
    );
    // The online engine reports a too-short sequence as "no points yet";
    // batch mode knows the data is complete, so keep its explicit error.
    let need = opts.tau + opts.tau_prime;
    if bags.len() < need {
        return Err(DetectError::SequenceTooShort {
            got: bags.len(),
            need,
        }
        .to_string());
    }

    let source = MemorySource::bags(
        BATCH_STREAM,
        bags.into_iter()
            .enumerate()
            .map(|(t, bag)| (t as i64, bag.into_points())),
    );

    // Stdout keeps the legacy no-xi layout; --output gets the canonical
    // single-stream schema (with xi, full precision) — both are now the
    // same CsvSink with declared elisions instead of divergent writers.
    let collected = MemorySink::new();
    let mut builder = pipeline_builder(opts, 1, true)
        .stream_seed(BATCH_STREAM, opts.seed)
        .source(source)
        .sink(CsvSink::with_schema(
            std::io::stdout(),
            CsvSchema::legacy_stdout(false),
        ))
        .sink(collected.clone());
    if let Some(out) = &opts.output {
        let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
        builder = builder.sink(CsvSink::with_schema(file, CsvSchema::single_stream()));
    }
    let summary = builder
        .build()
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;

    let alerts: Vec<usize> = collected
        .events()
        .iter()
        .filter(|e| e.is_alert())
        .filter_map(|e| e.point().map(|p| p.t))
        .collect();
    eprintln!("alerts at: {alerts:?}");
    if let Some(out) = &opts.output {
        eprintln!("wrote {out}");
    }
    if opts.stats {
        print_stats(&summary.metrics);
    }
    Ok(())
}

fn run_follow(opts: &Options) -> Result<(), String> {
    build_detector(opts)?; // validate the configuration up front
    let mut builder = pipeline_builder(opts, 1, true)
        // A fresh follow stream is seeded with --seed *directly* (not
        // the derived multi-stream scheme), keeping follow bit-identical
        // to batch analysis; on resume the established seed wins.
        .stream_seed(FOLLOW_STREAM, opts.seed)
        .sink(CsvSink::with_schema(
            std::io::stdout(),
            CsvSchema::legacy_stdout(false),
        ))
        .sink(StderrAlertSink::new(false));
    builder = if opts.input == "-" {
        // Stdin may be a live pipe: read it on its own thread so the
        // tick loop (and event delivery) never blocks mid-stream.
        builder.source(ThreadedLineSource::spawn(
            std::io::BufReader::new(std::io::stdin()),
            "<stdin>",
            FOLLOW_STREAM,
        ))
    } else {
        builder.source(CsvFileSource::new(&opts.input, FOLLOW_STREAM, false))
    };
    let pipeline = builder.build().map_err(|e| e.to_string())?;

    let mut base_bags = 0u64;
    let mut base_points = 0u64;
    // Resume diagnostics and the seed-conflict warning, from the very
    // bytes the pipeline resumed from.
    let restored = pipeline
        .restored_state()
        .and_then(|bytes| restored_follow_state(bytes, &detector_config(opts)));
    if let (Some(cursor), Some((master_seed, state))) =
        (pipeline.resume_cursors().get(FOLLOW_STREAM), restored)
    {
        if opts.seed_explicit && master_seed != opts.seed {
            eprintln!(
                "warning: --seed {} ignored; the checkpoint continues under seed \
                 {} (a stream's seed is fixed at its first session)",
                opts.seed, master_seed
            );
        }
        base_bags = state.pushed;
        base_points = state.emitted;
        eprintln!(
            "resumed from {}: {} bags seen, {} points emitted, {} input bytes consumed{}",
            opts.state.as_deref().unwrap_or_default(),
            base_bags,
            base_points,
            cursor.consumed,
            cursor.pending.as_ref().map_or(String::new(), |(t, rows)| {
                format!(", {} buffered rows for t = {t}", rows.len())
            })
        );
    }

    let summary = pipeline.run().map_err(|e| e.to_string())?;
    eprintln!(
        "follow done: {} bags, {} inspection points",
        base_bags + summary.bags,
        base_points + summary.points
    );
    if opts.stats {
        print_stats(&summary.metrics);
    }
    Ok(())
}

/// The follow stream's detector state in a checkpoint, with the master
/// seed it runs under.
fn restored_follow_state(bytes: &[u8], cfg: &DetectorConfig) -> Option<(u64, OnlineState)> {
    let (_, snapshot) = decode_checkpoint(bytes).ok()?;
    let snap = decode_engine(snapshot, cfg).ok()?;
    let id = snap.names.iter().position(|n| n == FOLLOW_STREAM)?;
    let (_, state) = snap.streams.into_iter().find(|(i, _)| *i as usize == id)?;
    Some((snap.master_seed, state))
}

/// Add one [`CsvFileSource`] per `--csv` path, each stream named by the
/// file stem. Two files feeding one stream would interleave two inputs
/// into one detector: reject up front, not at the first checkpoint (and
/// not silently, without --state).
fn add_csv_sources(
    mut builder: PipelineBuilder,
    csvs: &[String],
    watch: bool,
) -> Result<PipelineBuilder, String> {
    let mut stems = std::collections::HashSet::new();
    for path in csvs {
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("--csv {path}: cannot derive a stream name"))?
            .to_string();
        if !stems.insert(stem.clone()) {
            return Err(format!(
                "--csv {path}: stream '{stem}' is already fed by another --csv file"
            ));
        }
        builder = builder.source(CsvFileSource::new(path, stem, watch));
    }
    Ok(builder)
}

fn run_serve(opts: &Options) -> Result<(), String> {
    build_detector(opts)?;
    // Shared registry so host-side sink wrappers (retry layer) and the
    // pipeline's own layers record into one scrape surface.
    let registry = MetricsRegistry::new();

    // Compose the stdout sink inside-out: CSV, then the optional
    // injected fault (below the retry layer, where a real I/O failure
    // would originate), then the optional retry layer.
    let csv = CsvSink::with_schema(std::io::stdout(), CsvSchema::legacy_stdout(true));
    let mut stdout_sink: Box<dyn Sink> = match opts.chaos_sink {
        Some((at_event, failures)) => {
            let schedule = FaultSchedule {
                deliver: vec![DeliverFault {
                    at_event,
                    failures,
                    kind: std::io::ErrorKind::TimedOut,
                    torn: 0,
                }],
                flush: Vec::new(),
            };
            Box::new(ChaosSink::new(csv, schedule))
        }
        None => Box::new(csv),
    };
    if let Some(attempts) = opts.sink_retries {
        let policy = RetryPolicy {
            max_attempts: attempts,
            ..RetryPolicy::default()
        };
        stdout_sink = Box::new(RetryingSink::new(stdout_sink, policy).with_metrics(&registry));
    }

    let mut builder = pipeline_builder(opts, 4, false)
        .metrics(registry)
        .sink_boxed(stdout_sink)
        .sink(StderrAlertSink::new(true));
    if let Some(dir) = &opts.spill_dir {
        builder = builder.spill_dir(dir);
    }

    builder = add_csv_sources(builder, &opts.csvs, opts.watch)?;
    if let Some(dir) = &opts.dir {
        builder = builder.source(DirSource::new(dir, opts.watch));
    }
    if let Some(addr) = &opts.listen {
        let defaults = TcpLimits::default();
        let limits = TcpLimits {
            max_line_bytes: opts.max_line_bytes.unwrap_or(defaults.max_line_bytes),
            max_streams: opts.max_streams.unwrap_or(defaults.max_streams),
        };
        let mut tcp = TcpSource::bind_with(addr, opts.watch, limits).map_err(|e| e.to_string())?;
        if let Some(token) = &opts.auth_token {
            tcp.set_auth_token(token.clone());
        }
        if let Some(secs) = opts.evict_idle {
            tcp.set_evict_idle(std::time::Duration::from_secs_f64(secs));
        }
        if let Some(secs) = opts.drain_grace {
            tcp.set_drain_grace(std::time::Duration::from_secs_f64(secs));
        }
        if let Some(local) = tcp.local_addr() {
            eprintln!("listening on {local} (line protocol: stream,t,x1,...)");
        }
        builder = builder.source(tcp);
    }
    if let Some(addr) = &opts.metrics {
        builder = builder.serve_metrics(addr.clone());
    }

    let mut pipeline = builder.build().map_err(|e| e.to_string())?;
    if let Some(local) = pipeline.metrics_addr() {
        eprintln!("metrics: listening on {local} (GET /metrics)");
    }
    // A restored engine keeps the snapshot's master seed regardless of
    // --seed; surface a real conflict (any checkpoint, not just ones
    // with a follow stream).
    let master_seed = pipeline.engine_mut().master_seed();
    if opts.seed_explicit && master_seed != opts.seed {
        eprintln!(
            "warning: --seed {} ignored; the checkpoint continues under seed {master_seed}",
            opts.seed
        );
    }
    if !pipeline.resume_cursors().is_empty() {
        eprintln!(
            "resumed {} stream cursor(s) from {}",
            pipeline.resume_cursors().len(),
            opts.state.as_deref().unwrap_or_default()
        );
    }

    let summary = pipeline.run().map_err(|e| e.to_string())?;
    eprintln!(
        "serve done: {} bags, {} inspection points, {} checkpoint(s), {} quarantined stream(s)",
        summary.bags, summary.points, summary.checkpoints, summary.quarantined_total
    );
    if summary.spilled_events > 0 {
        eprintln!(
            "warning: exited degraded: {} event(s) remain spilled on disk and will replay \
             when the session resumes",
            summary.spilled_events
        );
    }
    if opts.stats {
        print_stats(&summary.metrics);
    }
    Ok(())
}

/// `replay <log>`: re-emit every recorded event through the stdout
/// sinks — the score table on stdout (canonical schema, full
/// precision), alerts and diagnostics on stderr — without touching the
/// detector at all.
fn run_replay_dump(opts: &Options) -> Result<(), String> {
    let path = std::path::Path::new(&opts.input);
    let mut sink = Tee::new(
        CsvSink::with_schema(std::io::stdout(), CsvSchema::canonical()),
        StderrAlertSink::new(true),
    );
    let mut batch: Vec<Event> = Vec::with_capacity(256);
    let mut total = 0u64;
    ScoreLogReader::for_each(path, &mut |event| {
        total += 1;
        batch.push(event.clone());
        if batch.len() == batch.capacity() {
            let r = sink.deliver(&batch);
            batch.clear();
            return r;
        }
        Ok(())
    })
    .map_err(|e| format!("{}: {e}", opts.input))?;
    sink.deliver(&batch)
        .and_then(|()| sink.flush_durable())
        .map_err(|e| e.to_string())?;
    eprintln!("replayed {total} recorded event(s) from {}", opts.input);
    Ok(())
}

/// `replay --diff <log>`: re-analyze the original inputs with the same
/// detector flags and seed, and compare every live score against the
/// record. Exits nonzero (via `Err`) on any divergence, live point the
/// log never recorded, or recorded point the live run never reproduced.
fn run_replay_diff(opts: &Options, log: &str) -> Result<(), String> {
    build_detector(opts)?;
    let log_path = std::path::Path::new(log);
    let store = ScoreStore::scan(log_path).map_err(|e| format!("{log}: {e}"))?;
    let recorded: Vec<String> = store.streams().map(|(name, _)| name.to_string()).collect();

    let registry = MetricsRegistry::new();
    let inner = Tee::new(
        CsvSink::with_schema(std::io::stdout(), CsvSchema::legacy_stdout(true)),
        StderrAlertSink::new(true),
    );
    let diff = ReplayDiffSink::load(log_path, opts.eps, inner)
        .map_err(|e| format!("{log}: {e}"))?
        .with_metrics(&registry);
    let tracker = diff.tracker();

    // A single positional input mirrors batch/follow (one worker,
    // strict, seed pinned); --csv/--dir mirror serve (worker pool,
    // quarantine isolation, seeds derived from the master --seed).
    let multi = !opts.csvs.is_empty() || opts.dir.is_some();
    let (workers, strict) = if multi { (4, false) } else { (1, true) };
    let mut builder = pipeline_builder(opts, workers, strict)
        .metrics(registry)
        .sink(diff);
    if !opts.input.is_empty() {
        // Batch/follow recordings name their one stream internally
        // ("cli-batch"/"cli-follow"): alias the live stream to the
        // log's single recorded name so the diff lines up, and pin its
        // seed to --seed exactly as batch/follow do.
        let live = match recorded.as_slice() {
            [only] => only.clone(),
            _ => FOLLOW_STREAM.to_string(),
        };
        builder = builder
            .stream_seed(live.clone(), opts.seed)
            .source(CsvFileSource::new(&opts.input, live, false));
    }
    builder = add_csv_sources(builder, &opts.csvs, false)?;
    if let Some(dir) = &opts.dir {
        builder = builder.source(DirSource::new(dir, false));
    }

    let summary = builder
        .build()
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    let d = tracker.summary();
    eprintln!(
        "replay diff vs {log}: {} compared ({} bit-equal, {} within eps {}, {} diverged); \
         {} live point(s) not in the log, {} past the recorded horizon, \
         {} recorded point(s) not reproduced",
        d.compared,
        d.equal,
        d.within_eps,
        opts.eps,
        d.diverged,
        d.unexpected_live,
        d.trailing_live,
        d.missing_live
    );
    if opts.stats {
        print_stats(&summary.metrics);
    }
    if d.is_clean() {
        Ok(())
    } else {
        Err(format!("replay diverged from {log}"))
    }
}

fn run_replay(opts: &Options) -> Result<(), String> {
    match &opts.diff {
        Some(log) => {
            let log = log.clone();
            run_replay_diff(opts, &log)
        }
        None => run_replay_dump(opts),
    }
}

/// `query <log>`: per-stream summary, or filtered point listing when
/// any filter flag is set.
fn run_query(opts: &Options) -> Result<(), String> {
    let path = std::path::Path::new(&opts.input);
    let store = ScoreStore::scan(path).map_err(|e| format!("{}: {e}", opts.input))?;
    let filtered = opts.q_stream.is_some()
        || opts.q_since.is_some()
        || opts.q_until.is_some()
        || opts.q_alerts_only
        || opts.q_top.is_some();
    if !filtered {
        println!("stream,points,alerts,min_t,max_t,max_score,records");
        for (name, s) in store.streams() {
            println!(
                "{name},{},{},{},{},{},{}",
                s.points, s.alerts, s.min_t, s.max_t, s.max_score, s.records
            );
        }
        return Ok(());
    }
    let rows = store
        .query(&Query {
            stream: opts.q_stream.clone(),
            since: opts.q_since,
            until: opts.q_until,
            alerts_only: opts.q_alerts_only,
            top: opts.q_top,
        })
        .map_err(|e| format!("{}: {e}", opts.input))?;
    let events: Vec<Event> = rows
        .into_iter()
        .map(|r| Event::Point {
            stream: r.stream,
            point: r.point,
        })
        .collect();
    let mut sink = CsvSink::with_schema(std::io::stdout(), CsvSchema::canonical());
    // Header first even when nothing matches (flush_durable primes it,
    // exactly as the pipeline does for live sessions).
    sink.flush_durable()
        .and_then(|()| sink.deliver(&events))
        .and_then(|()| sink.flush_durable())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The `--stats` report: one `key value` line per sample, in the
/// registry's deterministic (name, then label) order.
fn print_stats(metrics: &[MetricSample]) {
    eprintln!("stats:");
    for sample in metrics {
        if sample.value.fract() == 0.0 && sample.value.abs() < 1e15 {
            eprintln!("  {} {}", sample.key, sample.value as i64);
        } else {
            eprintln!("  {} {}", sample.key, sample.value);
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    match opts.mode {
        Mode::Batch => run_batch(opts),
        Mode::Follow => run_follow(opts),
        Mode::Serve => run_serve(opts),
        Mode::Replay => run_replay(opts),
        Mode::Query => run_query(opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}
