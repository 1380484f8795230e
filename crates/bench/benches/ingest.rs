//! Ingestion throughput: CSV rows/sec through the `Pipeline` as the
//! concurrent source count grows (1, 64, 1024 CSV files in one
//! directory, one stream each, read by a `DirSource` — the path
//! `serve --dir` takes) — the front-end's cost on top of the engine's
//! `engine_bags_per_sec` trajectory.
//!
//! A `DirSource` closes each file when it reaches EOF, and every file
//! here is shorter than one poll's read budget, so each is opened, read
//! and closed within one poll: the 1,024-source case runs under an
//! open-file limit of 1,024. `run_pipeline` still panics rather than
//! time a partial run if a file fails to open.

use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::path::{Path, PathBuf};
use stream::ingest::DirSource;
use stream::Pipeline;

const BAGS_PER_STREAM: usize = 8;
const ROWS_PER_BAG: usize = 12;
/// Score points per stream: one per bag once the first
/// `tau + tau_prime = 5` bags fill the window.
const POINTS_PER_STREAM: usize = BAGS_PER_STREAM - 4;

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 16,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// CSV body for one source (header + BAGS_PER_STREAM bags).
fn csv_for(source: usize) -> String {
    let mut text = String::from("t,x\n");
    for t in 0..BAGS_PER_STREAM {
        let level = if t >= BAGS_PER_STREAM / 2 { 3.0 } else { 0.0 };
        for i in 0..ROWS_PER_BAG {
            let x = level + ((i * 3 + source + t) % 7) as f64 * 0.1;
            text.push_str(&format!("{t},{x}\n"));
        }
    }
    text
}

/// Write `sources` CSV files into a fresh temp directory, once per
/// benchmark parameter.
fn fleet(sources: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bags_cpd_bench_ingest_{}_{sources}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fleet dir");
    for s in 0..sources {
        std::fs::write(dir.join(format!("s{s}.csv")), csv_for(s)).expect("write fleet file");
    }
    dir
}

/// One full ingestion lifecycle: build a pipeline over the `sources`
/// files in `dir`, run it to completion, shut down. Returns the point
/// count (observable, so the work cannot be optimized away). Panics
/// unless every stream was scored in full: a file that cannot be
/// opened quarantines its stream instead of failing the run.
fn run_pipeline(dir: &Path, sources: usize) -> u64 {
    let summary = Pipeline::builder(detector_config())
        .seed(1)
        .workers(4)
        .source(DirSource::new(dir.to_string_lossy().into_owned(), false))
        .build()
        .expect("pipeline builds")
        .run()
        .expect("run");
    assert_eq!(
        summary.quarantined_total,
        0,
        "streams quarantined, first: {:?}",
        summary.quarantined.first()
    );
    assert_eq!(summary.points, (sources * POINTS_PER_STREAM) as u64);
    summary.points
}

fn bench_ingest_source_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_rows_per_sec");
    group.sample_size(10);
    for &sources in &[1usize, 64, 1024] {
        let dir = fleet(sources);
        group.throughput(Throughput::Elements(
            (sources * BAGS_PER_STREAM * ROWS_PER_BAG) as u64,
        ));
        group.bench_with_input(BenchmarkId::from_parameter(sources), &dir, |b, dir| {
            b.iter(|| run_pipeline(dir, sources));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_ingest_source_count);
criterion_main!(benches);
