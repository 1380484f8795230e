//! Online feature selection — the future-work extension sketched in §6
//! of the paper.
//!
//! "It might often occur that only a couple of dimensions of x are
//! relevant to changes, while the other features are completely
//! irrelevant. […] Using data that have the class labels ('change' or
//! 'no change') for each time step, […] we could think of learning a
//! mapping and apply it on all x before constructing signatures."
//!
//! This module implements that idea as a diagonal metric learner trained
//! with exponentiated-gradient updates: each dimension keeps a positive
//! weight; when a labeled *change* arrives, dimensions whose per-
//! dimension change-point score was high are up-weighted, and on labeled
//! *no-change* steps high-scoring (false-alarming) dimensions are
//! down-weighted. The learned weights rescale bag coordinates before
//! signature construction, sharpening the EMD toward the informative
//! dimensions.

use crate::bag::Bag;
use crate::detector::Detector;
use crate::error::DetectError;

/// Online diagonal feature selector.
///
/// Each dimension's change-point scores are standardized against that
/// dimension's *own running history* (EWMA mean/variance): what counts
/// as evidence is a score unusual *for that dimension*, not a score
/// higher than the other dimensions' (different features have wildly
/// different score scales).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineFeatureSelector {
    weights: Vec<f64>,
    learning_rate: f64,
    /// EWMA mean of each dimension's scores.
    run_mean: Vec<f64>,
    /// EWMA variance of each dimension's scores.
    run_var: Vec<f64>,
    /// Observations consumed (for warm-up).
    seen: usize,
    /// EWMA decay for the running statistics.
    decay: f64,
    /// Observations before weight updates start.
    warmup: usize,
}

impl OnlineFeatureSelector {
    /// Uniform selector over `dim` features.
    ///
    /// # Panics
    /// Panics if `dim == 0` or the learning rate is not finite and
    /// positive.
    pub fn new(dim: usize, learning_rate: f64) -> Self {
        assert!(dim > 0, "feature selector: dim must be >= 1");
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "feature selector: learning rate must be > 0"
        );
        OnlineFeatureSelector {
            weights: vec![1.0; dim],
            learning_rate,
            run_mean: vec![0.0; dim],
            run_var: vec![1.0; dim],
            seen: 0,
            decay: 0.2,
            warmup: 3,
        }
    }

    /// Current per-dimension weights (mean normalized to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Consume one labeled inspection point: the per-dimension
    /// change-point scores observed there, plus whether a change truly
    /// occurred. Exponentiated-gradient update, weights renormalized to
    /// mean 1.
    ///
    /// # Panics
    /// Panics if `scores.len() != self.dim()`.
    pub fn observe(&mut self, scores: &[f64], is_change: bool) {
        assert_eq!(scores.len(), self.dim(), "observe: score dim mismatch");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "observe: scores must be finite"
        );
        // Self-standardized evidence: z_c compares this dimension's score
        // against its own EWMA history, so only *unusual* scores move the
        // weight. During warm-up only the statistics are primed.
        if self.seen >= self.warmup {
            let sign = if is_change { 1.0 } else { -1.0 };
            #[allow(clippy::needless_range_loop)] // c indexes three parallel vectors
            for c in 0..self.weights.len() {
                let z = ((scores[c] - self.run_mean[c]) / self.run_var[c].sqrt().max(1e-9))
                    .clamp(-2.0, 2.0);
                // Only positive surprise is evidence either way: a score
                // *below* a dimension's baseline says nothing about
                // change relevance.
                let evidence = z.max(0.0);
                self.weights[c] *= (sign * self.learning_rate * evidence).exp();
            }
            // Renormalize to mean 1 with a floor so no dimension dies.
            let mean: f64 = self.weights.iter().sum::<f64>() / self.weights.len() as f64;
            for w in &mut self.weights {
                *w = (*w / mean).max(1e-3);
            }
        }
        // Update the per-dimension running statistics. Change steps are
        // excluded so the "normal" baseline is not polluted by true
        // positives (the warm-up always updates).
        if !is_change || self.seen < self.warmup {
            let rho = if self.seen < self.warmup {
                1.0 / (self.seen + 1) as f64 // flat average while priming
            } else {
                self.decay
            };
            #[allow(clippy::needless_range_loop)] // c indexes three parallel vectors
            for c in 0..self.weights.len() {
                let delta = scores[c] - self.run_mean[c];
                self.run_mean[c] += rho * delta;
                self.run_var[c] = (1.0 - rho) * (self.run_var[c] + rho * delta * delta);
            }
        }
        self.seen += 1;
    }

    /// Rescale a bag's coordinates by the learned weights.
    ///
    /// # Panics
    /// Panics if the bag dimension disagrees with the selector.
    pub fn transform_bag(&self, bag: &Bag) -> Bag {
        assert_eq!(bag.dim(), self.dim(), "transform_bag: dim mismatch");
        let points: Vec<Vec<f64>> = bag
            .rows()
            .map(|p| p.iter().zip(&self.weights).map(|(x, w)| x * w).collect())
            .collect();
        Bag::new(points)
    }

    /// Rescale a whole sequence.
    pub fn transform_sequence(&self, bags: &[Bag]) -> Vec<Bag> {
        bags.iter().map(|b| self.transform_bag(b)).collect()
    }
}

/// Per-dimension change-point score series: runs the detector on each
/// coordinate projection of the bags independently. Returns
/// `series[dim]` = `(t, score)` pairs.
///
/// This is the training signal for [`OnlineFeatureSelector::observe`]:
/// at a labeled time step `t`, feed it the column of scores across
/// dimensions.
///
/// # Errors
/// As [`Detector::score_series`].
pub fn per_dimension_scores(
    detector: &Detector,
    bags: &[Bag],
    seed: u64,
) -> Result<Vec<Vec<(usize, f64)>>, DetectError> {
    if bags.is_empty() {
        return Ok(Vec::new());
    }
    let dim = bags[0].dim();
    let mut out = Vec::with_capacity(dim);
    for c in 0..dim {
        let projected: Vec<Bag> = bags
            .iter()
            .map(|b| Bag::from_scalars(b.rows().map(|p| p[c])))
            .collect();
        out.push(detector.score_series(&projected, seed ^ (c as u64) << 32)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::signature_builder::SignatureMethod;

    /// 3-D bags where only dimension 0 changes at `change_at`; dims 1-2
    /// are stationary noise.
    fn bags_with_informative_dim(n: usize, change_at: usize) -> Vec<Bag> {
        (0..n)
            .map(|t| {
                let level = if t < change_at { 0.0 } else { 6.0 };
                Bag::new(
                    (0..50)
                        .map(|i| {
                            let noise = ((i * 13 + t * 7) % 11) as f64 * 0.1;
                            vec![
                                level + noise,
                                ((i * 29 + t * 3) % 13) as f64 * 0.1,
                                ((i * 31 + t * 5) % 7) as f64 * 0.1,
                            ]
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn detector() -> Detector {
        Detector::new(DetectorConfig {
            tau: 4,
            tau_prime: 4,
            signature: SignatureMethod::Histogram { width: 0.5 },
            ..DetectorConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn learns_the_informative_dimension() {
        let bags = bags_with_informative_dim(24, 12);
        let det = detector();
        let series = per_dimension_scores(&det, &bags, 3).expect("per-dim scores");
        assert_eq!(series.len(), 3);

        let mut sel = OnlineFeatureSelector::new(3, 0.5);
        // Train over the labeled inspection points; truth: change near
        // t = 12. Points whose windows straddle the change (elevated
        // scores, but not the change itself) are skipped, the standard
        // practice with windowed labels.
        for (idx, &(t, _)) in series[0].iter().enumerate() {
            let gap = (t as i64 - 12).unsigned_abs();
            if (2..=4).contains(&gap) {
                continue;
            }
            let scores: Vec<f64> = series.iter().map(|s| s[idx].1).collect();
            sel.observe(&scores, gap <= 1);
        }
        let w = sel.weights();
        assert!(
            w[0] > w[1] && w[0] > w[2],
            "dimension 0 should dominate: {w:?}"
        );
    }

    #[test]
    fn transform_scales_coordinates() {
        let mut sel = OnlineFeatureSelector::new(2, 0.3);
        // Prime both dimensions' baselines at zero, then show a change
        // where only dim 0 spikes above its baseline.
        for _ in 0..5 {
            sel.observe(&[0.0, 0.0], false);
        }
        for _ in 0..5 {
            sel.observe(&[5.0, 0.0], true);
        }
        let bag = Bag::new(vec![vec![1.0, 1.0]]);
        let tb = sel.transform_bag(&bag);
        assert!(tb.coords()[0] > tb.coords()[1]);
        // Weight mean stays 1, so total scale is preserved.
        let mean: f64 = sel.weights().iter().sum::<f64>() / 2.0;
        assert!((mean - 1.0).abs() < 0.51, "mean weight {mean}");
    }

    #[test]
    fn no_change_observations_suppress_false_alarming_dims() {
        let mut sel = OnlineFeatureSelector::new(2, 0.4);
        // Prime at zero; then dim 1 repeatedly spikes with no true
        // change: a false-alarmer that must shrink.
        for _ in 0..5 {
            sel.observe(&[0.0, 0.0], false);
        }
        for _ in 0..3 {
            sel.observe(&[0.0, 4.0], false);
            sel.observe(&[0.0, 0.0], false); // re-anchor the baseline
        }
        let w = sel.weights();
        assert!(w[1] < w[0], "false-alarming dim should shrink: {w:?}");
    }

    #[test]
    fn weights_stay_positive_and_bounded_below() {
        let mut sel = OnlineFeatureSelector::new(3, 1.0);
        for i in 0..200 {
            // Alternate baseline and spikes so updates keep firing.
            let s = if i % 2 == 0 {
                [8.0, 0.0, 0.0]
            } else {
                [0.0, 0.0, 0.0]
            };
            sel.observe(&s, false);
        }
        assert!(sel.weights().iter().all(|&w| w >= 1e-3));
    }

    #[test]
    fn transformed_sequence_sharpens_detection() {
        // After training, the weighted bags should give the true change
        // at least as much prominence as the raw bags.
        let bags = bags_with_informative_dim(24, 12);
        let det = detector();
        let series = per_dimension_scores(&det, &bags, 5).expect("scores");
        let mut sel = OnlineFeatureSelector::new(3, 0.5);
        for (idx, &(t, _)) in series[0].iter().enumerate() {
            let gap = (t as i64 - 12).unsigned_abs();
            if (2..=4).contains(&gap) {
                continue;
            }
            let scores: Vec<f64> = series.iter().map(|s| s[idx].1).collect();
            sel.observe(&scores, gap <= 1);
        }
        let prominence = |bags: &[Bag]| -> f64 {
            let s = det.score_series(bags, 6).expect("scores");
            let near = s
                .iter()
                .filter(|&&(t, _)| (t as i64 - 12).unsigned_abs() <= 1)
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            let away = s
                .iter()
                .filter(|&&(t, _)| (t as i64 - 12).unsigned_abs() > 1)
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            near - away
        };
        let raw = prominence(&bags);
        let weighted = prominence(&sel.transform_sequence(&bags));
        assert!(
            weighted >= raw - 0.2,
            "feature selection should not hurt: raw {raw}, weighted {weighted}"
        );
    }

    #[test]
    #[should_panic(expected = "dim must be >= 1")]
    fn zero_dim_panics() {
        OnlineFeatureSelector::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "score dim mismatch")]
    fn wrong_score_len_panics() {
        let mut sel = OnlineFeatureSelector::new(2, 0.1);
        sel.observe(&[1.0], true);
    }
}
