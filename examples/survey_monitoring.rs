//! Survey-wave monitoring — the paper's first motivating scenario
//! (§1): periodic questionnaire surveys with varying respondent pools.
//!
//! ```sh
//! cargo run --release -p bags-cpd --example survey_monitoring
//! ```
//!
//! Two scripted shifts: at wave 20 a dissatisfied segment grows (the
//! mean answer drifts slightly); at wave 40 the population *polarizes* —
//! the neutral middle splits toward the extremes while the mean answer
//! barely moves. A mean-tracking dashboard sees only the first shift;
//! the bags-of-data detector sees both.

use bags_cpd::datasets::questionnaire::{generate, QuestionnaireConfig};
use bags_cpd::stats::seeded_rng;
use bags_cpd::{Detector, DetectorConfig, SignatureMethod};

fn main() {
    let mut rng = seeded_rng(2026);
    let data = generate(&QuestionnaireConfig::default(), &mut rng);
    println!(
        "simulated {} survey waves (respondents vary per wave); shifts at {:?}\n",
        data.bags.len(),
        data.change_points
    );

    // The dashboard view: wave-mean of question 1.
    println!("wave-mean of Q1 per regime (what a dashboard shows):");
    let mean_q1 = |r: std::ops::Range<usize>| {
        let vals: Vec<f64> = data.bags[r]
            .iter()
            .flat_map(|b| b.rows().map(|p| p[0]))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    println!(
        "  waves  0-19: {:.2}   waves 20-39: {:.2}   waves 40-59: {:.2}",
        mean_q1(0..20),
        mean_q1(20..40),
        mean_q1(40..60)
    );
    println!("  (the 40-59 polarization is nearly invisible in the mean)\n");

    let detector = Detector::new(DetectorConfig {
        tau: 5,
        tau_prime: 5,
        signature: SignatureMethod::KMeans { k: 6 },
        ..DetectorConfig::default()
    })
    .expect("valid config");
    let result = detector.analyze(&data.bags, 12).expect("analysis succeeds");

    println!("bags-of-data detector:");
    for p in &result.points {
        if p.alert || data.change_points.contains(&p.t) {
            println!(
                "  wave {:>2}: score {:+.3}, ci [{:+.3}, {:+.3}]{}{}",
                p.t,
                p.score,
                p.ci.lo,
                p.ci.up,
                if p.alert { "  ALERT" } else { "" },
                if data.change_points.contains(&p.t) {
                    "  <- true shift"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "\nalerts at {:?}; true shifts {:?}",
        result.alerts(),
        data.change_points
    );
}
