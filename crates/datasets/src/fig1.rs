//! The Fig. 1 motivating workload.
//!
//! 150 time steps; each bag holds ~300 one-dimensional observations.
//! From t = 0..50 the generating distribution is a single Gaussian, from
//! t = 50..100 a mixture of two Gaussians, from t = 100..150 a mixture of
//! three. The components are placed symmetrically so the *sample mean
//! stays at zero throughout* — which is the point: any method fed only
//! the per-step sample mean (Fig. 1(b)) cannot see these changes.

use crate::LabeledBags;
use bagcpd::Bag;
use rand::Rng;
use stats::{GaussianMixture1d, Poisson};

/// Configuration of the Fig. 1 workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Config {
    /// Number of time steps (paper: 150).
    pub steps: usize,
    /// Mean bag size (paper: "about 300 instances at each step").
    pub mean_bag_size: f64,
    /// Separation of the mixture modes.
    pub mode_separation: f64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            steps: 150,
            mean_bag_size: 300.0,
            mode_separation: 5.0,
        }
    }
}

/// Generate the workload.
///
/// Regimes (thirds of the sequence):
/// 1. `N(0, 1.5^2)` — single component;
/// 2. equal mixture of `N(±s, 1)` — two components, mean still 0;
/// 3. equal mixture of `N(-s, 1), N(0, 1), N(+s, 1)` — three components.
pub fn generate(cfg: &Fig1Config, rng: &mut impl Rng) -> LabeledBags {
    let s = cfg.mode_separation;
    let third = cfg.steps / 3;
    let regimes = [
        GaussianMixture1d::equal_weight(&[(0.0, 1.5)]),
        GaussianMixture1d::equal_weight(&[(-s, 1.0), (s, 1.0)]),
        GaussianMixture1d::equal_weight(&[(-s, 1.0), (0.0, 1.0), (s, 1.0)]),
    ];
    let sizes = Poisson::new(cfg.mean_bag_size);

    let mut bags = Vec::with_capacity(cfg.steps);
    for t in 0..cfg.steps {
        let regime = &regimes[(t / third.max(1)).min(2)];
        let n = sizes.sample(rng).max(2) as usize;
        bags.push(Bag::from_scalars(regime.sample_n(n, rng)));
    }
    LabeledBags {
        bags,
        change_points: vec![third, 2 * third],
        name: "fig1".into(),
    }
}

/// The per-step sample means (the information-destroying summarization
/// of Fig. 1(b)) as a scalar series for the baselines.
pub fn sample_mean_series(data: &LabeledBags) -> Vec<f64> {
    data.bags.iter().map(|b| b.mean()[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::seeded_rng;

    #[test]
    fn structure_matches_paper() {
        let data = generate(&Fig1Config::default(), &mut seeded_rng(1));
        assert_eq!(data.bags.len(), 150);
        assert_eq!(data.change_points, vec![50, 100]);
        let mean_size: f64 =
            data.bags.iter().map(|b| b.len() as f64).sum::<f64>() / data.bags.len() as f64;
        assert!(
            (mean_size - 300.0).abs() < 15.0,
            "mean bag size {mean_size}"
        );
    }

    #[test]
    fn sample_means_stay_near_zero_in_all_regimes() {
        // The crux of Fig. 1: the mean sequence carries no signal.
        let data = generate(&Fig1Config::default(), &mut seeded_rng(2));
        let means = sample_mean_series(&data);
        for (t, m) in means.iter().enumerate() {
            assert!(m.abs() < 1.5, "mean at t={t} is {m}");
        }
        // Regime averages are all ~0 (no level shift for baselines).
        let avg = |r: std::ops::Range<usize>| means[r.clone()].iter().sum::<f64>() / r.len() as f64;
        assert!(avg(0..50).abs() < 0.3);
        assert!(avg(50..100).abs() < 0.3);
        assert!(avg(100..150).abs() < 0.3);
    }

    #[test]
    fn regime_shapes_differ() {
        // Fraction of mass near zero distinguishes the three regimes.
        let data = generate(&Fig1Config::default(), &mut seeded_rng(3));
        let near_zero =
            |bag: &Bag| bag.rows().filter(|p| p[0].abs() < 2.0).count() as f64 / bag.len() as f64;
        let r1: f64 = data.bags[..50].iter().map(near_zero).sum::<f64>() / 50.0;
        let r2: f64 = data.bags[50..100].iter().map(near_zero).sum::<f64>() / 50.0;
        let r3: f64 = data.bags[100..].iter().map(near_zero).sum::<f64>() / 50.0;
        assert!(r1 > 0.8, "single Gaussian concentrated: {r1}");
        assert!(r2 < 0.1, "two-mode regime hollow at zero: {r2}");
        assert!(r3 > 0.2 && r3 < 0.5, "three-mode regime partial: {r3}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&Fig1Config::default(), &mut seeded_rng(4));
        let b = generate(&Fig1Config::default(), &mut seeded_rng(4));
        assert_eq!(a.bags, b.bags);
    }
}
