//! Property-based tests for the weighted information estimators.

use infoest::{
    auto_entropy, cross_entropy, information_content, normalize_weights_into, DistanceMatrix,
    EstimatorConfig, LogDistances,
};
use proptest::prelude::*;

fn cfg() -> EstimatorConfig {
    EstimatorConfig::default()
}

fn probs(weights: &[f64]) -> Vec<f64> {
    let mut p = Vec::new();
    normalize_weights_into(weights, &mut p);
    p
}

fn logs(d: &DistanceMatrix) -> LogDistances {
    LogDistances::from_distances(d.clone(), &cfg())
}

/// Information content of plain distances under plain weights.
fn info(dists: &[f64], weights: &[f64], c: &EstimatorConfig) -> f64 {
    let log: Vec<f64> = dists.iter().map(|&d| c.log_dist(d)).collect();
    information_content(&log, &probs(weights), c)
}

/// Strategy: positive distances.
fn distances(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..100.0f64, n..=n)
}

/// Strategy: positive weights.
fn weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..10.0f64, n..=n)
}

/// Strategy: a symmetric distance matrix with zero diagonal.
fn sym_matrix(n: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec(0.01..100.0f64, n * (n - 1) / 2).prop_map(move |upper| {
        let mut it = upper.into_iter();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = it.next().expect("sized exactly");
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix::from_vec(n, n, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three estimators produce finite values on positive distances.
    #[test]
    fn estimators_finite(
        m in sym_matrix(6),
        w in weights(6),
    ) {
        let log = logs(&m);
        prop_assert!(auto_entropy(&log, 0..6, &probs(&w), &cfg()).is_finite());
        let (ps, pt) = (probs(&w[..3]), probs(&w[3..]));
        prop_assert!(cross_entropy(&log, 0..3, 3..6, &ps, &pt, &cfg()).is_finite());
        prop_assert!(info(m.row(0), &w, &cfg()).is_finite());
    }

    /// Weight-scale invariance: the estimators normalize internally.
    #[test]
    fn weight_scale_invariance(
        d in distances(5),
        w in weights(5),
        scale in 0.1..100.0f64,
    ) {
        let scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let a = info(&d, &w, &cfg());
        let b = info(&d, &scaled, &cfg());
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// Information content is monotone: uniformly larger distances give a
    /// larger value.
    #[test]
    fn information_monotone_in_distances(
        d in distances(5),
        w in weights(5),
        factor in 1.1..10.0f64,
    ) {
        let larger: Vec<f64> = d.iter().map(|x| x * factor).collect();
        let a = info(&d, &w, &cfg());
        let b = info(&larger, &w, &cfg());
        // log(factor * d) = log factor + log d, so b - a = log factor.
        prop_assert!((b - a - factor.ln()).abs() < 1e-9);
    }

    /// Cross-entropy equals the transpose with swapped weight vectors.
    #[test]
    fn cross_entropy_transpose_identity(
        m in sym_matrix(6),
        w in weights(6),
    ) {
        let log = logs(&m);
        let (ps, pt) = (probs(&w[..2]), probs(&w[2..]));
        let h1 = cross_entropy(&log, 0..2, 2..6, &ps, &pt, &cfg());
        let h2 = cross_entropy(&log, 2..6, 0..2, &pt, &ps, &cfg());
        prop_assert!((h1 - h2).abs() < 1e-9 * (1.0 + h1.abs()));
    }

    /// Auto-entropy is permutation invariant (relabeling the items).
    #[test]
    fn auto_entropy_permutation_invariant(
        m in sym_matrix(5),
        w in weights(5),
    ) {
        let n = 5;
        // Reverse permutation.
        let perm: Vec<usize> = (0..n).rev().collect();
        let pm = DistanceMatrix::from_fn(n, n, |i, j| m.get(perm[i], perm[j]));
        let pw: Vec<f64> = perm.iter().map(|&i| w[i]).collect();
        let a = auto_entropy(&logs(&m), 0..n, &probs(&w), &cfg());
        let b = auto_entropy(&logs(&pm), 0..n, &probs(&pw), &cfg());
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// The offset constant shifts every estimator by exactly c, and the
    /// scale multiplies the data term — the structure that makes them
    /// cancel in the paper's score differences.
    #[test]
    fn offset_and_scale_structure(
        d in distances(4),
        w in weights(4),
        c in -10.0..10.0f64,
        s in 0.1..10.0f64,
    ) {
        let base = info(&d, &w, &cfg());
        let shifted = info(&d, &w, &EstimatorConfig { offset: c, scale: s, dist_floor: 1e-12 });
        prop_assert!((shifted - (c + s * base)).abs() < 1e-9 * (1.0 + shifted.abs()));
    }
}
