//! `perfbench` — end-to-end and per-layer benchmark of the serve
//! pipeline over seeded CSV fleets.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-durable --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run generates the workload's fleet from `--seed`, replays it
//! layer by layer (the correctness reference), then runs closed-loop
//! pipeline sessions until `--seconds` have passed, checking every
//! delivered point. It prints every metric as `name value unit` and,
//! as its last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

mod check;
mod fleet;
mod replay;
mod session;
mod sys;

use fleet::{Workload, WORKLOADS};
use session::{Session, SessionSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Scratch space for fleets, session state and trace files, relative to
/// the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// Fewest timed sessions a run reports on, however short `--seconds`.
const MIN_SESSIONS: usize = 3;

/// Better direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// End-to-end metrics: name, unit, direction.
const END_TO_END: &[(&str, &str, Better)] = &[
    ("bags_per_s", "bags/s", Better::Higher),
    ("rows_per_s", "rows/s", Better::Higher),
    ("cpu_ms_per_bag", "ms", Better::Lower),
    ("emit_latency_p50_ms", "ms", Better::Lower),
    ("emit_latency_p99_ms", "ms", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// End-to-end metrics printed but left out of the final JSON line. The
/// 99th-percentile latency of `bigbag-ingest` comes from scheduling
/// stalls on a shared 2-core machine: over ten seeds its spread between
/// quartiles reached 0.35 of the median, above any usable bound, while
/// on the other workloads it only repeats the queue position the median
/// already shows.
const UNDECLARED: &[&str] = &["emit_latency_p99_ms"];

/// Per-layer metrics every workload reports (from a traced run).
const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.poll_s", "s"),
    ("ingest.polls", "count"),
    ("ingest.parse_us_per_row", "us"),
    ("ingest.self_s", "s"),
    ("ingest.share", "ratio"),
    ("pipeline.route_s", "s"),
    ("pipeline.idle_steps", "count"),
    ("pipeline.finish_s", "s"),
    ("engine.overhead_cpu_s", "s"),
    ("engine.emd_solves_per_bag", "count"),
    ("signature.us_per_build", "us"),
    ("signature.mean_atoms", "count"),
    ("signature.self_s", "s"),
    ("signature.share", "ratio"),
    ("emd.solves", "count"),
    ("emd.us_per_solve", "us"),
    ("emd.pivots_per_solve", "count"),
    ("emd.self_s", "s"),
    ("emd.share", "ratio"),
    ("bootstrap.us_per_point", "us"),
    ("bootstrap.self_s", "s"),
    ("bootstrap.share", "ratio"),
    ("sink.deliver_s", "s"),
    ("sink.flush_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("check.bit_diffs", "count"),
    ("check.shift_alerts", "count"),
];

/// Per-layer metrics only a durable workload has; printed, and written
/// to the trace file, but not part of the final JSON line.
const DURABLE_LAYER: &[(&str, &str)] = &[
    ("scorelog.deliver_s", "s"),
    ("scorelog.flush_s", "s"),
    ("scorelog.bytes_per_point", "bytes"),
    ("checkpoint.commits", "count"),
    ("checkpoint.commit_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("snapshot.encode_s", "s"),
    ("checkpoint.write_s", "s"),
    ("snapshot.restore_s", "s"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    commit: String,
}

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
                     [--record <baseline.jsonl> --commit <id>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                };
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--commit" => args.commit = value()?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.workload != "all" && Workload::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload: expected one of {names:?} or 'all', got '{}'",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Everything one workload run reports.
struct Report {
    workload: &'static Workload,
    workers: usize,
    sessions: usize,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    durable_layer: Vec<Metric>,
}

/// Median over sessions of `f`.
fn median_of(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    sys::median(&sessions.iter().map(f).collect::<Vec<_>>())
}

fn run_workload(w: &'static Workload, args: &Args) -> Result<Report, String> {
    // One engine worker per core: `serve` hard-codes 4, which
    // oversubscribes a small machine.
    let nproc = sys::nproc();
    let workers = nproc;
    let work = Path::new(WORK_DIR).join(format!("{}-{}", w.name, args.seed));
    let _ = std::fs::remove_dir_all(&work);
    let fleet = work.join("fleet");
    let state = work.join("state");

    let t0 = Instant::now();
    let fleet_bytes = fleet::generate(w, args.seed, &fleet)
        .map_err(|e| format!("generating {}: {e}", fleet.display()))?;
    let gen_s = t0.elapsed().as_secs_f64();
    let (refs, layers) = replay::replay(w, &fleet, args.seed)?;
    let shift_alerts = check::shift_alerts(w, &refs);
    println!(
        "# {} seed={} streams={} bags={} rows={} dim={} k={} durable={} workers={workers} \
         nproc={nproc} fleet_mb={:.1} generate_s={gen_s:.3} replay_s={:.3}",
        w.name,
        args.seed,
        w.streams,
        w.bags,
        w.rows,
        w.dim,
        w.k,
        w.durable,
        fleet_bytes as f64 / 1e6,
        layers.wall_s
    );

    // Closed-loop sessions until the budget is spent; a traced run
    // alternates untraced and traced sessions so the tracing overhead
    // is measured under the same conditions.
    let mut deadline = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut latencies_ms: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut bit_diffs) = (0u64, 0u64, 0u64);
    // One untimed warm-up session first: the page cache, the allocator
    // and the CPU's clocks settle before anything is timed.
    let mut warmed = false;
    loop {
        let trace_turn = warmed && args.trace && traced.len() < plain.len();
        let mut session = session::run_session(&SessionSpec {
            workload: w,
            fleet: &fleet,
            state: &state,
            master_seed: args.seed,
            workers,
            traced: trace_turn,
        })?;
        let c = check::check(&refs, &session, w.durable);
        println!(
            "# session {}{} traced={trace_turn} setup_s={:.6} run_s={:.4} bags_per_s={:.1} \
             cpu_s={:.4} rss_mb={:.1} p50_ms={:.2} p99_ms={:.2} failed={}",
            plain.len() + traced.len(),
            if warmed { "" } else { " (warm-up)" },
            session.setup_s,
            session.run_s,
            session.bags as f64 / session.run_s,
            session.cpu_s,
            session.peak_rss_mb,
            sys::quantile(&session.latencies_ms, 0.5),
            sys::quantile(&session.latencies_ms, 0.99),
            c.failed
        );
        attempted += c.expected;
        failed += c.failed;
        bit_diffs += c.bit_diffs;
        if c.failed > 0 {
            println!("# check: {c:?}");
        }
        // The points are checked; keeping them would grow the memory the
        // next session's peak is sampled from. Latencies are pooled over
        // the timed untraced sessions, so the p99 has a hundred-odd
        // samples beyond it rather than a handful per session.
        session.points = Vec::new();
        if warmed && !trace_turn {
            latencies_ms.append(&mut session.latencies_ms);
        }
        session.latencies_ms = Vec::new();
        if !warmed {
            warmed = true;
            deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
        } else if trace_turn {
            traced.push(session);
        } else {
            plain.push(session);
        }
        let enough = plain.len() >= MIN_SESSIONS && (!args.trace || traced.len() >= MIN_SESSIONS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let bags_per_s = |s: &Session| s.bags as f64 / s.run_s;
    let mut end_to_end: Vec<Metric> = Vec::new();
    for &(name, unit, _) in END_TO_END {
        let value = match name {
            "bags_per_s" => median_of(&plain, bags_per_s),
            "rows_per_s" => median_of(&plain, |s| (s.bags * w.rows as u64) as f64 / s.run_s),
            "cpu_ms_per_bag" => median_of(&plain, |s| s.cpu_s * 1e3 / s.bags as f64),
            "emit_latency_p50_ms" => sys::quantile(&latencies_ms, 0.5),
            "emit_latency_p99_ms" => sys::quantile(&latencies_ms, 0.99),
            "peak_rss_mb" => median_of(&plain, |s| s.peak_rss_mb),
            "setup_s" => median_of(&plain, |s| s.setup_s),
            _ => unreachable!("every end-to-end metric is computed above"),
        };
        end_to_end.push((name.to_string(), value, unit));
    }
    println!(
        "# sessions={} traced_sessions={} latency_samples={} \
         failed_ratio={} check.bit_diffs={bit_diffs} check.shift_alerts={shift_alerts} of {}",
        plain.len(),
        traced.len(),
        latencies_ms.len(),
        failed as f64 / attempted.max(1) as f64,
        w.streams.div_ceil(2),
    );

    let mut per_layer = Vec::new();
    let mut durable_layer = Vec::new();
    if args.trace {
        let tr = |f: &dyn Fn(&session::Trace) -> f64| {
            median_of(&traced, |s| s.trace.as_ref().map_or(0.0, f))
        };
        let wall = layers.wall_s.max(f64::MIN_POSITIVE);
        let plain_cpu = median_of(&plain, |s| s.cpu_s);
        let share = |s: f64| s / wall;
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "ingest.poll_s" => tr(&|t| t.poll_s),
                "ingest.polls" => tr(&|t| t.polls as f64),
                "ingest.parse_us_per_row" => layers.ingest_s * 1e6 / layers.rows.max(1) as f64,
                "ingest.self_s" => layers.ingest_s,
                "ingest.share" => share(layers.ingest_s),
                "pipeline.route_s" => tr(&|t| t.route_s),
                "pipeline.idle_steps" => tr(&|t| t.idle_steps as f64),
                "pipeline.finish_s" => tr(&|t| t.finish_s),
                "engine.overhead_cpu_s" => plain_cpu - layers.covered_s(),
                "engine.emd_solves_per_bag" => {
                    median_of(&traced, |s| s.exact_solves as f64 / s.bags.max(1) as f64)
                }
                "signature.us_per_build" => layers.signature_s * 1e6 / layers.builds.max(1) as f64,
                "signature.mean_atoms" => layers.atoms as f64 / layers.builds.max(1) as f64,
                "signature.self_s" => layers.signature_s,
                "signature.share" => share(layers.signature_s),
                "emd.solves" => layers.solves as f64,
                "emd.us_per_solve" => layers.emd_s * 1e6 / layers.solves.max(1) as f64,
                "emd.pivots_per_solve" => layers.pivots as f64 / layers.solves.max(1) as f64,
                "emd.self_s" => layers.emd_s,
                "emd.share" => share(layers.emd_s),
                "bootstrap.us_per_point" => layers.bootstrap_s * 1e6 / layers.points.max(1) as f64,
                "bootstrap.self_s" => layers.bootstrap_s,
                "bootstrap.share" => share(layers.bootstrap_s),
                "sink.deliver_s" => tr(&|t| t.sink_deliver_s),
                "sink.flush_s" => tr(&|t| t.sink_flush_s),
                "trace.coverage" => layers.covered_s() / wall,
                "trace.overhead_pct" => {
                    (median_of(&plain, bags_per_s) / median_of(&traced, bags_per_s) - 1.0) * 100.0
                }
                "check.bit_diffs" => bit_diffs as f64,
                "check.shift_alerts" => shift_alerts as f64,
                _ => unreachable!("every per-layer metric is computed above"),
            };
            per_layer.push((name.to_string(), value, unit));
        }
        if w.durable {
            let (restore_s, encode_s, write_s) = session::snapshot_replay(w, &state, workers)?;
            for &(name, unit) in DURABLE_LAYER {
                let value = match name {
                    "scorelog.deliver_s" => tr(&|t| t.scorelog_deliver_s),
                    "scorelog.flush_s" => tr(&|t| t.scorelog_flush_s),
                    "scorelog.bytes_per_point" => median_of(&traced, |s| {
                        s.scorelog_bytes as f64 / s.points_delivered.max(1) as f64
                    }),
                    "checkpoint.commits" => median_of(&traced, |s| s.checkpoints as f64),
                    "checkpoint.commit_s" => tr(&|t| t.commit_s),
                    "checkpoint.bytes" => median_of(&traced, |s| s.checkpoint_bytes as f64),
                    "snapshot.encode_s" => encode_s,
                    "checkpoint.write_s" => write_s,
                    "snapshot.restore_s" => restore_s,
                    _ => unreachable!("every durable metric is computed above"),
                };
                durable_layer.push((name.to_string(), value, unit));
            }
        }
        let trace_path = Path::new(WORK_DIR).join(format!("trace-{}-{}.json", w.name, args.seed));
        write_trace(&trace_path, traced.last(), &per_layer, &durable_layer)?;
        println!(
            "# spans and per-layer figures written to {}",
            trace_path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(Report {
        workload: w,
        workers,
        sessions: plain.len() + traced.len(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        durable_layer,
    })
}

/// Write one traced session's spans plus the per-layer figures as JSON.
fn write_trace(
    path: &Path,
    session: Option<&Session>,
    per_layer: &[Metric],
    durable_layer: &[Metric],
) -> Result<(), String> {
    let mut out = String::from("{\n  \"metrics\": ");
    out.push_str(&metrics_json(per_layer.iter().chain(durable_layer)));
    out.push_str(",\n  \"spans\": [");
    if let Some(trace) = session.and_then(|s| s.trace.as_ref()) {
        let us = |t: Instant| t.saturating_duration_since(trace.origin).as_secs_f64() * 1e6;
        for (i, span) in trace.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                span.name,
                us(span.start),
                us(span.end)
            );
        }
    }
    out.push_str("\n  ]\n}\n");
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// `{"name": {"value": v, "unit": "u"}, …}` with every digit of `v`.
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_report(r: &Report) {
    let metrics = r.end_to_end.iter().chain(&r.per_layer);
    for (name, value, unit) in metrics.chain(&r.durable_layer) {
        println!("{name} {value} {unit}");
    }
    println!(
        "# {}: {} sessions, {} points checked, {} failed",
        r.workload.name, r.sessions, r.attempted, r.failed
    );
}

/// Append this run to the baseline file, one JSON line per workload:
/// its parameters and figures, with the machine and commit they were
/// measured on.
fn record(path: &Path, args: &Args, r: &Report) -> Result<(), String> {
    use std::io::Write as _;
    let w = r.workload;
    let line = format!(
        "{{\"workload\": \"{}\", \"why\": \"{}\", \"commit\": \"{}\", \"nproc\": {}, \
         \"workers\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {{\"streams\": {}, \
         \"bags\": {}, \"rows\": {}, \"dim\": {}, \"k\": {}, \"tau\": {}, \"tau_prime\": {}, \
         \"replicates\": {}, \"durable\": {}}}, \"sessions\": {}, \"attempted\": {}, \"failed\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}}}\n",
        w.name,
        w.why,
        args.commit,
        sys::nproc(),
        r.workers,
        args.seed,
        args.seconds,
        args.trace,
        w.streams,
        w.bags,
        w.rows,
        w.dim,
        w.k,
        fleet::TAU,
        fleet::TAU_PRIME,
        fleet::REPLICATES,
        w.durable,
        r.sessions,
        r.attempted,
        r.failed,
        metrics_json(r.end_to_end.iter()),
        metrics_json(r.per_layer.iter().chain(&r.durable_layer)),
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload all`: every workload in a process of its own, so no
/// workload inherits another's heap.
fn run_all() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let given: Vec<String> = std::env::args().skip(1).collect();
    for w in WORKLOADS {
        let mut child_args = given.clone();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.name.to_string();
        }
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{} failed ({status})", w.name));
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let Some(w) = Workload::by_name(&args.workload) else {
        return run_all();
    };
    let report = run_workload(w, &args)?;
    print_report(&report);
    if let Some(path) = &args.record {
        record(path, &args, &report)?;
        println!("# baseline appended to {}", path.display());
    }
    let metrics = if args.trace {
        report.per_layer
    } else {
        let mut declared = report.end_to_end;
        declared.retain(|(name, ..)| !UNDECLARED.contains(&name.as_str()));
        declared
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(metrics.iter())
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh per-test directory under the work directory of the crate's
/// repository checkout.
#[cfg(test)]
pub(crate) fn testdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(WORK_DIR)
        .join("tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(DURABLE_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name} must match [A-Za-z0-9_.-]+");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_prints() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let declared = |section: &str, next: &str| -> Vec<String> {
            let body = &text[text.find(section).unwrap()..];
            let body = &body[..body.find(next).unwrap_or(body.len())];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared("\"workloads\"", "\"end_to_end\""), workloads);
        let e2e: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .filter(|name| !UNDECLARED.contains(name))
            .collect();
        assert_eq!(declared("\"end_to_end\"", "\"per_layer\""), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(declared("\"per_layer\"", "]"), layers);
        for (name, unit, better) in END_TO_END.iter().filter(|m| !UNDECLARED.contains(&m.0)) {
            let better = match better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json: {entry}");
        }
    }
}
