//! Experiment E5 — Fig. 11: events in a weekly e-mail network
//! (Enron-like simulator; see DESIGN.md §3 for the substitution).
//!
//! For each of the seven §5.3 features, runs the detector with the
//! paper's window sizes (τ = 5 weeks, τ' = 3 weeks) over the 100-week
//! corpus and reports, per scripted event, which features raised an
//! alert nearby — the analogue of the X-marks table of Fig. 11.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_enron
//! ```

use bagcpd::{Detector, DetectorConfig, SignatureMethod};
use bench::{relative, write_detection_csv, DetectionQuality};
use bipartite::{graphscope_segment, GraphScopeConfig, ALL_FEATURES};
use datasets::enron::{generate, EnronConfig};
use stats::seeded_rng;

fn main() {
    let mut rng = seeded_rng(1101);
    let corpus = generate(&EnronConfig::default(), &mut rng);
    println!(
        "E5 / Fig. 11 — Enron-like corpus: {} weeks, {} events\n",
        corpus.data.graphs.len(),
        corpus.events.len()
    );

    let detector = Detector::new(DetectorConfig {
        tau: 5,
        tau_prime: 3,
        signature: SignatureMethod::KMeans { k: 8 },
        ..DetectorConfig::default()
    })
    .expect("valid config");

    let tol = 3usize;
    let mut per_feature_alerts: Vec<Vec<usize>> = Vec::new();
    for feature in ALL_FEATURES {
        let bags = corpus.data.feature_bags(feature);
        let detection = detector
            .analyze(&bags.bags, 2000 + feature.number() as u64)
            .expect("analysis succeeds");
        let alerts = detection.alerts();
        let q = DetectionQuality::evaluate(&alerts, &corpus.data.change_points, tol);
        let path = write_detection_csv(&format!("enron_feature{}", feature.number()), &detection);
        println!(
            "feature {} ({:<18}): {:>2} alerts, recall {:>5.2}, precision {:>5.2}  -> {}",
            feature.number(),
            feature.name(),
            alerts.len(),
            q.recall(),
            q.precision(),
            relative(&path).display()
        );
        per_feature_alerts.push(alerts);
    }

    // The GraphScope comparator column of Fig. 11: MDL segmentation of
    // the fixed-universe weekly adjacency stream.
    println!("\nrunning GraphScope (MDL co-clustering) on the fixed-universe stream…");
    let gs_boundaries = graphscope_segment(&corpus.raw_adjacency, &GraphScopeConfig::default());
    let gs_quality = DetectionQuality::evaluate(&gs_boundaries, &corpus.data.change_points, tol);
    println!(
        "GraphScope: {} segment boundaries, recall {:.2}, precision {:.2}",
        gs_boundaries.len(),
        gs_quality.recall(),
        gs_quality.precision()
    );

    // The Fig. 11 style table: event x (ours by feature | GraphScope).
    println!("\n  week  event                           ours (features)   GraphScope");
    let mut any_detected = 0;
    let mut gs_detected = 0;
    for ev in &corpus.events {
        let hits: Vec<usize> = per_feature_alerts
            .iter()
            .enumerate()
            .filter(|(_, alerts)| {
                alerts
                    .iter()
                    .any(|&a| (a as i64 - ev.week as i64).unsigned_abs() as usize <= tol)
            })
            .map(|(i, _)| i + 1)
            .collect();
        if !hits.is_empty() {
            any_detected += 1;
        }
        let gs_hit = gs_boundaries
            .iter()
            .any(|&b| (b as i64 - ev.week as i64).unsigned_abs() as usize <= tol);
        if gs_hit {
            gs_detected += 1;
        }
        println!(
            "  {:>4}  {:<30}  {:<16}  {}",
            ev.week,
            ev.label,
            if hits.is_empty() {
                "-".to_string()
            } else {
                format!("{hits:?}")
            },
            if gs_hit { "X" } else { "-" }
        );
    }
    println!(
        "\ndetected {any_detected}/{} events with at least one feature; GraphScope {gs_detected}/{} (tolerance ±{tol} weeks)",
        corpus.events.len(),
        corpus.events.len()
    );
    println!(
        "paper's qualitative claim: most events detected by >= 1 feature, plus extras over [22]."
    );
}
