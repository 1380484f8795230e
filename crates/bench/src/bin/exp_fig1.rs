//! Experiment E1 — Fig. 1: the motivating comparison.
//!
//! Bags from 1→2→3-component Gaussian mixtures (changes at t = 50 and
//! t = 100) whose sample mean stays at zero. Our detector runs on the
//! bags; the two baselines (ChangeFinder and kernel change detection)
//! run on the sample-mean sequence, as in Fig. 1(c), and are expected to
//! see nothing.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_fig1
//! ```

use bagcpd::{Detector, DetectorConfig, SignatureMethod};
use baselines::{
    ChangeFinder, ChangeFinderConfig, KcdConfig, KernelChangeDetector, Rulsif, RulsifConfig,
    SsaConfig, SsaDetector,
};
use bench::{relative, write_detection_csv, write_table_csv, DetectionQuality};
use datasets::fig1::{generate, sample_mean_series, Fig1Config};
use stats::seeded_rng;

fn main() {
    let mut rng = seeded_rng(1001);
    let data = generate(&Fig1Config::default(), &mut rng);
    println!(
        "E1 / Fig. 1 — {} bags, true change points {:?}\n",
        data.bags.len(),
        data.change_points
    );

    // --- Our method on the bags ----------------------------------------
    let detector = Detector::new(DetectorConfig {
        tau: 5,
        tau_prime: 5,
        signature: SignatureMethod::Histogram { width: 0.5 },
        ..DetectorConfig::default()
    })
    .expect("valid config");
    let detection = detector.analyze(&data.bags, 42).expect("analysis succeeds");
    let alerts = detection.alerts();
    let q = DetectionQuality::evaluate(&alerts, &data.change_points, 5);
    let path = write_detection_csv("fig1_ours", &detection);
    println!(
        "ours (bags):        alerts at {:?} -> recall {:.2}, precision {:.2}  ({})",
        alerts,
        q.recall(),
        q.precision(),
        relative(&path).display()
    );

    // --- Baselines on the sample-mean sequence -------------------------
    let means = sample_mean_series(&data);

    let cf_scores = ChangeFinder::score_series(ChangeFinderConfig::default(), &means);
    let cf_peak_t = argmax(&cf_scores);
    println!(
        "ChangeFinder (mean sequence): peak score {:.3} at t={} (true cps at 50, 100)",
        cf_scores[cf_peak_t], cf_peak_t
    );

    let kcd = KernelChangeDetector::new(KcdConfig {
        window: 25,
        ..Default::default()
    });
    let kcd_scores = kcd.score_scalar_series(&means);
    let (kcd_peak_t, kcd_peak) = kcd_scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "KCD (mean sequence):          peak score {:.3} at t={kcd_peak_t}",
        kcd_peak
    );

    // Two more single-vector baselines from the related-work list, also
    // fed the sample-mean sequence: both are blind to these changes for
    // the same reason.
    let rulsif = Rulsif::new(RulsifConfig::default());
    let mean_vecs: Vec<Vec<f64>> = means.iter().map(|&m| vec![m]).collect();
    let rulsif_scores = rulsif.score_series(&mean_vecs, 25);
    let (rp_t, rp) = rulsif_scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!("RuLSIF (mean sequence):       peak score {rp:.3} at t={rp_t}");

    let ssa = SsaDetector::new(SsaConfig::default());
    let ssa_scores = ssa.score_series(&means);
    let (sp_t, sp) = ssa_scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!("SSA (mean sequence):          peak score {sp:.3} at t={sp_t}");

    // Score separation at true change points vs elsewhere, for all three.
    let ours_sep = separation(
        &detection
            .points
            .iter()
            .map(|p| (p.t, p.score))
            .collect::<Vec<_>>(),
        &data.change_points,
    );
    let cf_sep = separation(
        &cf_scores
            .iter()
            .enumerate()
            .map(|(t, &s)| (t, s))
            .collect::<Vec<_>>(),
        &data.change_points,
    );
    let kcd_sep = separation(&kcd_scores, &data.change_points);
    let rulsif_sep = separation(&rulsif_scores, &data.change_points);
    let ssa_sep = separation(&ssa_scores, &data.change_points);
    println!("\nscore separation (mean near change / mean elsewhere):");
    println!(
        "  ours {ours_sep:.2}x   ChangeFinder {cf_sep:.2}x   KCD {kcd_sep:.2}x   RuLSIF {rulsif_sep:.2}x   SSA {ssa_sep:.2}x"
    );
    println!("paper's claim: ours sees both changes; baselines' scores are unrelated to them.");

    let rows: Vec<Vec<f64>> = means
        .iter()
        .enumerate()
        .map(|(t, &m)| vec![t as f64, m, cf_scores[t]])
        .collect();
    let p2 = write_table_csv("fig1_baselines", "t,sample_mean,changefinder", &rows);
    println!("baseline series -> {}", relative(&p2).display());
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

/// Mean score within ±5 of a true change point divided by the mean score
/// elsewhere (shifted to be positive first).
fn separation(scores: &[(usize, f64)], truth: &[usize]) -> f64 {
    let min = scores.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let near = |t: usize| truth.iter().any(|&cp| (t as i64 - cp as i64).abs() <= 5);
    let (mut sn, mut cn, mut se, mut ce) = (0.0, 0usize, 0.0, 0usize);
    for &(t, s) in scores {
        let v = s - min + 1e-9;
        if near(t) {
            sn += v;
            cn += 1;
        } else {
            se += v;
            ce += 1;
        }
    }
    if cn == 0 || ce == 0 {
        return f64::NAN;
    }
    (sn / cn as f64) / (se / ce as f64)
}
