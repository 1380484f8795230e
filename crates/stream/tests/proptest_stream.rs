//! Property test: the incremental detector is indistinguishable from
//! the batch pipeline on every sequence, window shape, and signature
//! method — scores, confidence intervals, and alerts alike.

use bagcpd::{
    Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, ScoreKind, SignatureMethod,
};
use proptest::prelude::*;
use stream::{EmdScratch, OnlineDetector};

/// Deterministic bag sequence: `n` bags of 1-D data whose distribution
/// shifts by `magnitude` at `change_at` (no RNG — the parameters are
/// the randomness).
fn make_bags(n: usize, change_at: usize, magnitude: f64, bag_size: usize) -> Vec<Bag> {
    (0..n)
        .map(|t| {
            let level = if t < change_at { 0.0 } else { magnitude };
            Bag::from_scalars(
                (0..bag_size).map(move |i| level + ((i * 13 + t * 7) % 17) as f64 * 0.07),
            )
        })
        .collect()
}

fn make_detector(tau: usize, tau_prime: usize, method: u8, lr_score: bool) -> Detector {
    let signature = match method % 3 {
        0 => SignatureMethod::Histogram { width: 0.4 },
        1 => SignatureMethod::KMeans { k: 4 },
        _ => SignatureMethod::KMedoids { k: 3 },
    };
    Detector::new(DetectorConfig {
        tau,
        tau_prime,
        score: if lr_score {
            ScoreKind::LikelihoodRatio
        } else {
            ScoreKind::SymmetrizedKl
        },
        signature,
        bootstrap: BootstrapConfig {
            replicates: 32,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("valid config")
}

proptest! {
    // EMD-heavy property: a moderate case count keeps the suite quick
    // while still sweeping window shapes, methods, and seeds.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn online_equals_batch(
        n in 9usize..22,
        change_frac in 0.2..0.8f64,
        magnitude in 0.0..6.0f64,
        bag_size in 12usize..40,
        tau in 2usize..5,
        tau_prime in 2usize..4,
        method in 0u8..3,
        lr_score in 0u8..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(n >= tau + tau_prime);
        let change_at = ((n as f64) * change_frac) as usize;
        let bags = make_bags(n, change_at, magnitude, bag_size);
        let det = make_detector(tau, tau_prime, method, lr_score == 1);

        let batch = det.analyze(&bags, seed).expect("batch analysis");

        let mut online = OnlineDetector::new(det, seed);
        let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
        let mut points = Vec::new();
        for bag in bags {
            if let Some(p) = online.push_with(bag, &mut eval, &mut emd).expect("online push") {
                points.push(p);
            }
        }

        // Bit-identical: same points, same scores, same CIs, same alerts.
        prop_assert_eq!(&batch.points, &points);
    }

    /// Snapshot/restore at *every* cut position leaves the remaining
    /// output unchanged.
    #[test]
    fn state_round_trip_at_any_cut(
        cut in 0usize..18,
        magnitude in 0.0..6.0f64,
        seed in 0u64..1000,
    ) {
        let bags = make_bags(18, 9, magnitude, 16);
        let det = make_detector(3, 2, 1, false);

        // One pair of scratches across all three detectors, as a worker
        // shares its scratches across streams.
        let (mut eval, mut emd) = (EvalScratch::new(), EmdScratch::new());
        let mut uncut = OnlineDetector::new(det.clone(), seed);
        let mut expected = Vec::new();
        for bag in bags.clone() {
            expected.extend(uncut.push_with(bag, &mut eval, &mut emd).expect("push"));
        }

        let mut first = OnlineDetector::new(det.clone(), seed);
        let mut got = Vec::new();
        for bag in bags.iter().take(cut).cloned() {
            got.extend(first.push_with(bag, &mut eval, &mut emd).expect("push"));
        }
        let resumed = OnlineDetector::from_state(det, first.state());
        let mut resumed = resumed.expect("state is consistent");
        for bag in bags.iter().skip(cut).cloned() {
            got.extend(resumed.push_with(bag, &mut eval, &mut emd).expect("push"));
        }
        prop_assert_eq!(&expected, &got, "cut at {}", cut);
    }
}
