//! Parametric bag modeling — the alternative §3.1 discusses and
//! rejects for generality, implemented here as an ablation reference.
//!
//! "If we could model `P_{B_t}` parametrically, we can reduce the
//! problem to the ordinary change-point detection problem of the
//! parameters of each `P_{B_t}`. Parametric approaches are known to
//! perform better in situations where data come from a specific family
//! of distributions […] However, applicability of parametric models
//! are limited in real-world situations."
//!
//! Each bag is fitted with a Gaussian (mean + diagonal covariance); the
//! distance between bags is the symmetrized KL divergence between the
//! fitted Gaussians, which substitutes for the EMD in the same
//! window-scoring machinery. On truly Gaussian bags this is sharp; on
//! mixture-shaped bags (Fig. 1!) the Gaussian fit is blind to the shape
//! change — exactly the failure the paper predicts.

use crate::bag::Bag;
use infoest::DistanceMatrix;

/// A Gaussian fit of one bag: sample mean and *diagonal* sample
/// variance per dimension (floored for numerical safety).
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianFit {
    /// Per-dimension mean.
    pub mean: Vec<f64>,
    /// Per-dimension variance (diagonal covariance), floored at `1e-12`.
    pub var: Vec<f64>,
}

impl GaussianFit {
    /// Fit a bag.
    pub fn fit(bag: &Bag) -> GaussianFit {
        let d = bag.dim();
        let n = bag.len() as f64;
        let mut mean = vec![0.0; d];
        for p in bag.rows() {
            for (m, &x) in mean.iter_mut().zip(p) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for p in bag.rows() {
            for (v, (&x, &m)) in var.iter_mut().zip(p.iter().zip(&mean)) {
                *v += (x - m) * (x - m);
            }
        }
        for v in &mut var {
            *v = (*v / n).max(1e-12);
        }
        GaussianFit { mean, var }
    }

    /// KL divergence `KL(self || other)` between the two diagonal
    /// Gaussians (closed form).
    pub fn kl(&self, other: &GaussianFit) -> f64 {
        debug_assert_eq!(self.mean.len(), other.mean.len());
        let mut acc = 0.0;
        for c in 0..self.mean.len() {
            let (m0, v0) = (self.mean[c], self.var[c]);
            let (m1, v1) = (other.mean[c], other.var[c]);
            acc += 0.5 * ((v1 / v0).ln() + (v0 + (m0 - m1) * (m0 - m1)) / v1 - 1.0);
        }
        acc
    }

    /// Symmetrized KL — a proper dissimilarity for the window scorer.
    pub fn symmetric_kl(&self, other: &GaussianFit) -> f64 {
        0.5 * (self.kl(other) + other.kl(self))
    }
}

/// Pairwise symmetrized-KL matrix among Gaussian fits of the bags —
/// the parametric stand-in for the pairwise EMD matrix.
///
/// # Panics
/// Panics if bag dimensions disagree.
pub fn parametric_distance_matrix(bags: &[Bag]) -> DistanceMatrix {
    let fits: Vec<GaussianFit> = bags.iter().map(GaussianFit::fit).collect();
    let n = fits.len();
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = fits[i].symmetric_kl(&fits[j]).max(0.0);
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    DistanceMatrix::from_vec(n, n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{ScoreKind, ScoreScratch, WindowScorer};
    use infoest::EstimatorConfig;

    fn bag_at(level: f64, spread: f64) -> Bag {
        Bag::from_scalars((0..60).map(|i| level + spread * (((i * 7) % 13) as f64 - 6.0) / 6.0))
    }

    /// Bimodal bag with mean ~level: mass at level ± split.
    fn bimodal_bag(level: f64, split: f64) -> Bag {
        Bag::from_scalars((0..60).map(|i| {
            let side = if i % 2 == 0 { -1.0 } else { 1.0 };
            level + side * split + (((i * 7) % 13) as f64 - 6.0) * 0.02
        }))
    }

    #[test]
    fn fit_recovers_moments() {
        let b = bag_at(3.0, 1.0);
        let f = GaussianFit::fit(&b);
        assert!((f.mean[0] - 3.0).abs() < 0.2);
        assert!(f.var[0] > 0.05 && f.var[0] < 1.0);
    }

    #[test]
    fn kl_zero_for_identical_positive_otherwise() {
        let f = GaussianFit::fit(&bag_at(0.0, 1.0));
        assert!(f.kl(&f).abs() < 1e-12);
        let g = GaussianFit::fit(&bag_at(5.0, 1.0));
        assert!(f.kl(&g) > 1.0);
        assert!((f.symmetric_kl(&g) - g.symmetric_kl(&f)).abs() < 1e-12);
    }

    #[test]
    fn parametric_detects_mean_shift() {
        // On a genuinely Gaussian-ish mean shift the parametric distance
        // matrix powers the same window scorer successfully.
        let bags: Vec<Bag> = (0..12)
            .map(|t| bag_at(if t < 6 { 0.0 } else { 4.0 }, 1.0))
            .collect();
        let dist = parametric_distance_matrix(&bags);
        // Window around the change (t=6): ref bags 2..6, test 6..10.
        let scorer = WindowScorer::from_distances(
            dist.block(2..10, 2..10),
            4,
            4,
            EstimatorConfig::default(),
        );
        let w = [0.25; 4];
        let mut score = ScoreScratch::new();
        let at_change = scorer.score_with(ScoreKind::SymmetrizedKl, &w, &w, &mut score);
        // Window fully before the change: ref 0..4, test 4..8 would
        // straddle; use a homogeneous stretch 0..8 from a no-change
        // sequence for contrast.
        let quiet: Vec<Bag> = (0..8).map(|_| bag_at(0.0, 1.0)).collect();
        let qdist = parametric_distance_matrix(&quiet);
        let qscorer = WindowScorer::from_distances(qdist, 4, 4, EstimatorConfig::default());
        let at_quiet = qscorer.score_with(ScoreKind::SymmetrizedKl, &w, &w, &mut score);
        assert!(
            at_change > at_quiet + 1.0,
            "parametric scorer: change {at_change} vs quiet {at_quiet}"
        );
    }

    #[test]
    fn parametric_is_blind_to_shape_change_with_fixed_moments() {
        // The Fig. 1 failure mode: unimodal -> bimodal with matched mean
        // AND variance. Construct spreads so the two shapes share both
        // moments; the Gaussian fit then cannot distinguish them.
        let uni = bag_at(0.0, 1.0);
        let f_uni = GaussianFit::fit(&uni);
        let sd = f_uni.var[0].sqrt();
        // Bimodal at ±sd has the same mean and (approximately) the same
        // variance as the unimodal bag.
        let bi = bimodal_bag(0.0, sd);
        let f_bi = GaussianFit::fit(&bi);
        let d = f_uni.symmetric_kl(&f_bi);
        assert!(
            d < 0.1,
            "Gaussian fits cannot see the mode split: distance {d}"
        );
        // The EMD does see it: compare against the nonparametric path.
        use crate::signature_builder::{
            signature_at_with, GroundMetric, SignatureMethod, SignatureScratch,
        };
        let mut scratch = SignatureScratch::new();
        let method = SignatureMethod::Histogram { width: 0.25 };
        let s_uni = signature_at_with(&uni, &method, 1, 0, &mut scratch);
        let s_bi = signature_at_with(&bi, &method, 1, 1, &mut scratch);
        let mut transport = emd::TransportScratch::new();
        let emd_dist =
            emd::emd_with(&s_uni, &s_bi, &GroundMetric::Euclidean, &mut transport).expect("emd");
        assert!(
            emd_dist > 5.0 * d.max(0.01),
            "EMD must see what the Gaussian fit cannot: emd {emd_dist} vs kl {d}"
        );
    }

    #[test]
    fn distance_matrix_is_symmetric_zero_diagonal() {
        let bags: Vec<Bag> = (0..5).map(|t| bag_at(t as f64, 1.0)).collect();
        let m = parametric_distance_matrix(&bags);
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }
}
