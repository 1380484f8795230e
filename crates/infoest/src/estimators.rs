//! The three weighted information estimators, in the log domain.
//!
//! The estimators read each distance only through `ln(max(d,
//! dist_floor))` and each weight only after dividing it by its set's
//! total. So they take the logarithms as a [`LogDistances`] matrix,
//! taken once per matrix, and weights already divided by their sum
//! ([`normalize_weights_into`]), once per weighting. The two matrix
//! estimators evaluate a rectangular sub-block of a larger matrix *in
//! place* — no block extraction, no allocation, no logarithm — which is
//! what lets the change-point scores in `bagcpd` evaluate thousands of
//! bootstrap replicates against one cached window as pure multiply-adds.

use crate::matrix::LogDistances;
use std::ops::Range;

/// Configuration shared by the estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Additive constant `c` of the estimators. Cancels in change-point
    /// scores; default 0.
    pub offset: f64,
    /// Multiplicative constant `d` (effective embedding dimension).
    /// Cancels in change-point scores; default 1.
    pub scale: f64,
    /// Distances are clamped below at this floor before taking logs, so
    /// coincident signatures (distance 0) contribute a large-but-finite
    /// negative term instead of `-inf`.
    pub dist_floor: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            offset: 0.0,
            scale: 1.0,
            dist_floor: 1e-12,
        }
    }
}

impl EstimatorConfig {
    /// `ln(max(d, dist_floor))`: the term a distance `d` contributes.
    #[inline]
    pub fn log_dist(&self, d: f64) -> f64 {
        d.max(self.dist_floor).ln()
    }
}

/// Check `weights` and write each divided by their sum into `probs`:
/// the normalized ψ every estimator reads. Allocation-free once `probs`'
/// capacity covers `weights`.
///
/// # Panics
/// Panics on empty weights, or unless all are finite and `>= 0` with a
/// positive sum.
pub fn normalize_weights_into(weights: &[f64], probs: &mut Vec<f64>) {
    assert!(!weights.is_empty(), "empty weights");
    let sum: f64 = weights.iter().sum();
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0) && sum > 0.0,
        "weights must be finite, >= 0, with positive sum"
    );
    probs.clear();
    probs.extend(weights.iter().map(|&w| w / sum));
}

/// Information content `I(S; S') = c + d Σ_j ψ'_j log dist(S'_j, S)`.
///
/// `log_dists` are the log distances from each element of `S'` to the
/// signature `S` (a slice of a [`LogDistances`] row); `probs` are the
/// normalized ψ'_j.
///
/// # Panics
/// Panics on a length mismatch.
pub fn information_content(log_dists: &[f64], probs: &[f64], cfg: &EstimatorConfig) -> f64 {
    assert_eq!(
        log_dists.len(),
        probs.len(),
        "information_content: dists/weights length mismatch"
    );
    let acc: f64 = log_dists.iter().zip(probs).map(|(&l, &p)| p * l).sum();
    cfg.offset + cfg.scale * acc
}

/// Auto-entropy
/// `H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) log dist(S_i, S_j)` of
/// the items `at` of `log`, read from its square diagonal block
/// `at x at` in place; the diagonal is ignored. `probs` are the
/// normalized ψ. The `1/(1 - ψ_i)` factor renormalizes the remaining
/// weights after leaving item `i` out.
///
/// A single-element set has no leave-one-out structure; its
/// auto-entropy is defined as `c` (the log term vanishes).
///
/// # Panics
/// Panics if `at` exceeds the matrix or its length differs from
/// `probs`'.
pub fn auto_entropy(
    log: &LogDistances,
    at: Range<usize>,
    probs: &[f64],
    cfg: &EstimatorConfig,
) -> f64 {
    assert!(
        at.end <= log.rows() && at.end <= log.cols(),
        "auto_entropy: block out of range"
    );
    assert_eq!(
        at.len(),
        probs.len(),
        "auto_entropy: weights length mismatch"
    );
    if probs.len() == 1 {
        return cfg.offset;
    }
    let mut acc = 0.0;
    for (i, &wi) in probs.iter().enumerate() {
        if wi >= 1.0 {
            // Degenerate: all mass on one item; leave-one-out undefined,
            // and every other term has ψ_j = 0. Contributes nothing.
            continue;
        }
        let row = &log.row(at.start + i)[at.start..at.end];
        let mut inner = 0.0;
        for (j, (&wj, &l)) in probs.iter().zip(row).enumerate() {
            if j == i || wj == 0.0 {
                continue;
            }
            inner += wj * l;
        }
        acc += wi * inner / (1.0 - wi);
    }
    cfg.offset + cfg.scale * acc
}

/// Cross-entropy `H(S, S') = c + d Σ_i Σ_j ψ_i ψ'_j log dist(S_i, S'_j)`
/// over the rectangular block `rows x cols` of `log`, read in place:
/// rows index `S`, columns index `S'`. `probs_s` and `probs_t` are the
/// normalized ψ and ψ'.
///
/// # Panics
/// Panics if the ranges exceed the matrix or their lengths differ from
/// the weights'.
pub fn cross_entropy(
    log: &LogDistances,
    rows: Range<usize>,
    cols: Range<usize>,
    probs_s: &[f64],
    probs_t: &[f64],
    cfg: &EstimatorConfig,
) -> f64 {
    assert!(
        rows.end <= log.rows() && cols.end <= log.cols(),
        "cross_entropy: block out of range"
    );
    assert_eq!(
        rows.len(),
        probs_s.len(),
        "cross_entropy: row weights length mismatch"
    );
    assert_eq!(
        cols.len(),
        probs_t.len(),
        "cross_entropy: col weights length mismatch"
    );
    let mut acc = 0.0;
    for (i, &wi) in probs_s.iter().enumerate() {
        if wi == 0.0 {
            continue;
        }
        let row = &log.row(rows.start + i)[cols.start..cols.end];
        let mut inner = 0.0;
        for (&wj, &l) in probs_t.iter().zip(row) {
            if wj == 0.0 {
                continue;
            }
            inner += wj * l;
        }
        acc += wi * inner;
    }
    cfg.offset + cfg.scale * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use std::f64::consts::E;

    fn cfg() -> EstimatorConfig {
        EstimatorConfig::default()
    }

    fn probs(weights: &[f64]) -> Vec<f64> {
        let mut p = Vec::new();
        normalize_weights_into(weights, &mut p);
        p
    }

    fn logs(d: DistanceMatrix) -> LogDistances {
        LogDistances::from_distances(d, &cfg())
    }

    fn log_row(dists: &[f64]) -> Vec<f64> {
        dists.iter().map(|&d| cfg().log_dist(d)).collect()
    }

    #[test]
    fn information_content_equal_weights() {
        // I = mean of log distances when weights are equal.
        let i = information_content(&log_row(&[1.0, E, E * E]), &probs(&[1.0; 3]), &cfg());
        assert!((i - 1.0).abs() < 1e-12, "{i}"); // (0 + 1 + 2)/3
    }

    #[test]
    fn information_content_weighting() {
        // All mass on the second element -> log of its distance.
        let i = information_content(&log_row(&[1.0, E]), &probs(&[0.0, 5.0]), &cfg());
        assert!((i - 1.0).abs() < 1e-12);
    }

    #[test]
    fn information_content_offset_scale() {
        let c = EstimatorConfig {
            offset: 10.0,
            scale: 2.0,
            dist_floor: 1e-12,
        };
        let i = information_content(&log_row(&[E]), &[1.0], &c);
        assert!((i - 12.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_clamped_not_infinite() {
        let i = information_content(&log_row(&[0.0]), &[1.0], &cfg());
        assert!(i.is_finite());
        assert!(i < -20.0, "floor of 1e-12 gives ln ~ -27.6, got {i}");
    }

    #[test]
    fn normalize_divides_each_weight_by_the_sum_into_a_reused_buffer() {
        let mut p = Vec::with_capacity(8);
        let ptr = p.as_ptr();
        normalize_weights_into(&[1.0, 3.0, 0.0], &mut p);
        assert_eq!(p, [0.25, 0.75, 0.0]);
        normalize_weights_into(&[0.1, 0.2], &mut p);
        assert_eq!(p, [0.1 / (0.1 + 0.2), 0.2 / (0.1 + 0.2)]);
        assert_eq!(p.as_ptr(), ptr);
    }

    #[test]
    fn auto_entropy_two_points() {
        // Two items, equal weights 1/2: H = sum_i (1/2)(1/2)/(1/2) log d
        // = 2 * (1/2) log d = log d.
        let d = logs(DistanceMatrix::symmetric_from_fn(2, |_, _| E));
        let h = auto_entropy(&d, 0..2, &probs(&[1.0, 1.0]), &cfg());
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn auto_entropy_ignores_diagonal() {
        // A zero diagonal would contribute ln(dist_floor) ~ -27.6.
        let d = logs(DistanceMatrix::symmetric_from_fn(3, |_, _| E));
        let h = auto_entropy(&d, 0..3, &probs(&[1.0, 1.0, 1.0]), &cfg());
        // all off-diagonal log distances = 1 -> weighted sum = 1.
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn auto_entropy_singleton_is_offset() {
        let d = logs(DistanceMatrix::from_vec(1, 1, vec![0.0]));
        let c = EstimatorConfig {
            offset: 3.0,
            ..cfg()
        };
        assert_eq!(auto_entropy(&d, 0..1, &[1.0], &c), 3.0);
    }

    #[test]
    fn auto_entropy_leave_one_out_renormalization() {
        // Three items with weights (1/2, 1/4, 1/4), distances all e.
        // H = sum_i psi_i * [sum_{j!=i} psi_j log e] / (1 - psi_i)
        //   = sum_i psi_i * (1 - psi_i)/(1 - psi_i) = sum_i psi_i = 1.
        let d = logs(DistanceMatrix::symmetric_from_fn(3, |_, _| E));
        let h = auto_entropy(&d, 0..3, &probs(&[2.0, 1.0, 1.0]), &cfg());
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn cross_entropy_uniform() {
        let d = logs(DistanceMatrix::from_fn(2, 3, |_, _| E));
        let h = cross_entropy(&d, 0..2, 0..3, &probs(&[1.0; 2]), &probs(&[1.0; 3]), &cfg());
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_respects_both_weightings() {
        // Mass concentrated on (row 0, col 1) -> log of that distance.
        let d = logs(DistanceMatrix::from_fn(2, 2, |i, j| {
            if i == 0 && j == 1 {
                (2.0f64).exp()
            } else {
                1.0
            }
        }));
        let h = cross_entropy(&d, 0..2, 0..2, &[1.0, 0.0], &[0.0, 1.0], &cfg());
        assert!((h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_symmetric_under_transpose() {
        let d = logs(DistanceMatrix::from_fn(2, 3, |i, j| {
            1.0 + (i + 2 * j) as f64
        }));
        let dt = logs(DistanceMatrix::from_fn(3, 2, |j, i| {
            1.0 + (i + 2 * j) as f64
        }));
        let ws = [0.3, 0.7];
        let wt = [0.2, 0.5, 0.3];
        let h1 = cross_entropy(&d, 0..2, 0..3, &ws, &wt, &cfg());
        let h2 = cross_entropy(&dt, 0..3, 0..2, &wt, &ws, &cfg());
        assert!((h1 - h2).abs() < 1e-12);
    }

    #[test]
    fn unnormalized_weights_equal_normalized() {
        let d = logs(DistanceMatrix::from_fn(2, 2, |i, j| {
            1.0 + (i * 2 + j) as f64
        }));
        let h1 = cross_entropy(
            &d,
            0..2,
            0..2,
            &probs(&[1.0, 3.0]),
            &probs(&[2.0, 2.0]),
            &cfg(),
        );
        let h2 = cross_entropy(&d, 0..2, 0..2, &[0.25, 0.75], &[0.5, 0.5], &cfg());
        assert!((h1 - h2).abs() < 1e-12);
    }

    #[test]
    fn blocks_read_in_place_match_extracted_blocks_bit_for_bit() {
        // The in-place block estimators must equal extracting the block
        // first, to the last bit — the change-point scores rely on it.
        let parent = DistanceMatrix::from_fn(6, 6, |i, j| {
            if i == j {
                0.0
            } else {
                1.0 + ((i * 5 + j * 3) % 7) as f64 * 0.37
            }
        });
        let ws = probs(&[0.4, 1.1, 0.0]);
        let wt = probs(&[2.0, 0.5, 1.3]);
        let c = cfg();
        let cross = logs(parent.block(0..3, 3..6));
        let diag = logs(parent.block(3..6, 3..6));
        let parent = logs(parent);
        assert_eq!(
            cross_entropy(&cross, 0..3, 0..3, &ws, &wt, &c).to_bits(),
            cross_entropy(&parent, 0..3, 3..6, &ws, &wt, &c).to_bits()
        );
        assert_eq!(
            auto_entropy(&diag, 0..3, &wt, &c).to_bits(),
            auto_entropy(&parent, 3..6, &wt, &c).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn auto_entropy_block_out_of_range_panics() {
        let d = logs(DistanceMatrix::from_fn(3, 3, |_, _| 1.0));
        auto_entropy(&d, 1..4, &probs(&[1.0, 1.0, 1.0]), &cfg());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn information_content_length_mismatch_panics() {
        information_content(&[1.0], &[0.5, 0.5], &cfg());
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn zero_weights_panic() {
        probs(&[0.0]);
    }
}
