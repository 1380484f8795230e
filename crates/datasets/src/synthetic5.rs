//! The five synthetic datasets of §5.1 (Fig. 6), verbatim.
//!
//! Twenty bags of 2-D Gaussians, bag sizes `n_t ~ Poisson(50)`,
//! `τ = τ' = 5`:
//!
//! 1. large-variance noise, no change (`μ = 0, Σ = 15 I`);
//! 2. 80% standard normal + 20% wide-noise contamination, no change;
//! 3. mean moving slowly on a circle (gradual drift, no *significant*
//!    change);
//! 4. mean jumps from (3, 0) to (-3, 0) at t = 10 (0-indexed) — the one
//!    true change point;
//! 5. the mean's angular speed increases at t = 10 (a subtle change the
//!    paper's method does *not* alert on — by design).

use crate::LabeledBags;
use bagcpd::Bag;
use linalg::Matrix;
use rand::Rng;
use stats::{MultivariateNormal, Poisson};

/// Identifier of the five §5.1 datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Synth5 {
    /// Dataset 1: stationary, large variance.
    LargeVariance,
    /// Dataset 2: stationary with 20% contamination noise.
    Contaminated,
    /// Dataset 3: slowly rotating mean (gradual drift).
    CircularDrift,
    /// Dataset 4: mean jump at t = 10.
    MeanJump,
    /// Dataset 5: angular speed-up at t = 10.
    SpeedChange,
}

impl Synth5 {
    /// All five, in paper order.
    pub const ALL: [Synth5; 5] = [
        Synth5::LargeVariance,
        Synth5::Contaminated,
        Synth5::CircularDrift,
        Synth5::MeanJump,
        Synth5::SpeedChange,
    ];

    /// Paper's dataset number (1–5).
    pub fn number(&self) -> usize {
        match self {
            Synth5::LargeVariance => 1,
            Synth5::Contaminated => 2,
            Synth5::CircularDrift => 3,
            Synth5::MeanJump => 4,
            Synth5::SpeedChange => 5,
        }
    }

    /// Ground-truth significant change points (0-indexed bag numbers).
    /// Only Dataset 4 has one; the paper treats Dataset 5's speed-up as a
    /// change its method legitimately misses, and 1–3 as changeless.
    pub fn change_points(&self) -> Vec<usize> {
        match self {
            Synth5::MeanJump | Synth5::SpeedChange => vec![10],
            _ => vec![],
        }
    }
}

/// Number of bags per dataset (paper: 20).
pub const NUM_BAGS: usize = 20;

/// Mean bag size (paper: Poisson with λ = 50).
pub const MEAN_BAG_SIZE: f64 = 50.0;

/// Generate one of the five datasets.
pub fn generate(which: Synth5, rng: &mut impl Rng) -> LabeledBags {
    let sizes = Poisson::new(MEAN_BAG_SIZE);
    let mut bags = Vec::with_capacity(NUM_BAGS);
    for t in 0..NUM_BAGS {
        let n = sizes.sample(rng).max(2) as usize;
        let bag = match which {
            Synth5::LargeVariance => {
                let d = MultivariateNormal::isotropic(vec![0.0, 0.0], 15.0);
                Bag::new(d.sample_n(n, rng))
            }
            Synth5::Contaminated => {
                // ~80% standard normal; remaining 20% drawn around a
                // noise center itself drawn from N(0, 20 I), Σ = 5 I.
                let clean = MultivariateNormal::isotropic(vec![0.0, 0.0], 1.0);
                let n_clean = (0.8 * n as f64).floor() as usize;
                let mut pts = clean.sample_n(n_clean, rng);
                let center_dist = MultivariateNormal::isotropic(vec![0.0, 0.0], 20.0);
                for _ in n_clean..n {
                    let center = center_dist.sample(rng);
                    let noise = MultivariateNormal::new(center, &Matrix::identity(2).scaled(5.0));
                    pts.push(noise.sample(rng));
                }
                Bag::new(pts)
            }
            Synth5::CircularDrift => {
                let mu = circle_mean(t, 3.0f64.sqrt());
                let d = MultivariateNormal::isotropic(mu, 1.0);
                Bag::new(d.sample_n(n, rng))
            }
            Synth5::MeanJump => {
                let mu = if t < 10 {
                    vec![3.0, 0.0]
                } else {
                    vec![-3.0, 0.0]
                };
                let d = MultivariateNormal::isotropic(mu, 1.0);
                Bag::new(d.sample_n(n, rng))
            }
            Synth5::SpeedChange => {
                // Radius sqrt(3) while slow (t < 10), 3 while fast —
                // Eq. in §5.1 scales the whole mean vector by β.
                let beta = if t < 10 { 3.0f64.sqrt() } else { 3.0 };
                let mu = circle_mean(t, beta);
                let d = MultivariateNormal::isotropic(mu, 1.0);
                Bag::new(d.sample_n(n, rng))
            }
        };
        bags.push(bag);
    }
    LabeledBags {
        bags,
        change_points: which.change_points(),
        name: format!("synthetic5-dataset{}", which.number()),
    }
}

/// The circular mean path of Datasets 3 and 5:
/// `β (cos(π(t-0.5)/5), sin(π(t-0.5)/5))` with 1-indexed t.
fn circle_mean(t0: usize, beta: f64) -> Vec<f64> {
    let t = (t0 + 1) as f64; // paper's t runs 1..=20
    let phase = std::f64::consts::PI * (t - 0.5) / 5.0;
    vec![beta * phase.cos(), beta * phase.sin()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::seeded_rng;

    #[test]
    fn all_datasets_have_twenty_bags_of_2d() {
        for which in Synth5::ALL {
            let data = generate(which, &mut seeded_rng(10 + which.number() as u64));
            assert_eq!(data.bags.len(), 20, "{:?}", which);
            assert!(data.bags.iter().all(|b| b.dim() == 2));
            let mean_n: f64 = data.bags.iter().map(|b| b.len() as f64).sum::<f64>() / 20.0;
            assert!(
                (mean_n - 50.0).abs() < 12.0,
                "{:?} mean size {mean_n}",
                which
            );
        }
    }

    #[test]
    fn dataset4_jump_is_visible_in_means() {
        let data = generate(Synth5::MeanJump, &mut seeded_rng(20));
        let m_before: f64 = data.bags[..10].iter().map(|b| b.mean()[0]).sum::<f64>() / 10.0;
        let m_after: f64 = data.bags[10..].iter().map(|b| b.mean()[0]).sum::<f64>() / 10.0;
        assert!(m_before > 2.5, "pre-jump mean {m_before}");
        assert!(m_after < -2.5, "post-jump mean {m_after}");
        assert_eq!(data.change_points, vec![10]);
    }

    #[test]
    fn dataset1_is_wide_and_centered() {
        let data = generate(Synth5::LargeVariance, &mut seeded_rng(21));
        let all: Vec<f64> = data
            .bags
            .iter()
            .flat_map(|b| b.rows().map(|p| p[0]))
            .collect();
        let m = all.iter().sum::<f64>() / all.len() as f64;
        let v = all.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / all.len() as f64;
        assert!(m.abs() < 0.5);
        assert!((v - 15.0).abs() < 2.0, "variance {v}");
        assert!(data.change_points.is_empty());
    }

    #[test]
    fn dataset2_contamination_fraction() {
        let data = generate(Synth5::Contaminated, &mut seeded_rng(22));
        // Points beyond 4 sigma of the clean component are contamination.
        let all: usize = data.bags.iter().map(|b| b.len()).sum();
        let far: usize = data
            .bags
            .iter()
            .flat_map(|b| b.rows())
            .filter(|p| (p[0] * p[0] + p[1] * p[1]).sqrt() > 4.0)
            .count();
        let frac = far as f64 / all as f64;
        assert!(frac > 0.05 && frac < 0.25, "outlier fraction {frac}");
    }

    #[test]
    fn dataset3_drifts_continuously() {
        let data = generate(Synth5::CircularDrift, &mut seeded_rng(23));
        // Consecutive bag means move by a bounded step; distant bags can
        // be far apart. Radius stays near sqrt(3).
        for b in &data.bags {
            let m = b.mean();
            let r = (m[0] * m[0] + m[1] * m[1]).sqrt();
            assert!((r - 3.0f64.sqrt()).abs() < 0.8, "radius {r}");
        }
    }

    #[test]
    fn dataset5_speed_and_radius_change() {
        let data = generate(Synth5::SpeedChange, &mut seeded_rng(24));
        let r = |b: &Bag| {
            let m = b.mean();
            (m[0] * m[0] + m[1] * m[1]).sqrt()
        };
        let r_before: f64 = data.bags[..10].iter().map(r).sum::<f64>() / 10.0;
        let r_after: f64 = data.bags[10..].iter().map(r).sum::<f64>() / 10.0;
        assert!((r_before - 3.0f64.sqrt()).abs() < 0.5);
        assert!((r_after - 3.0).abs() < 0.5);
    }
}
