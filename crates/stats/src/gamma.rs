//! Gamma sampling (Marsaglia–Tsang squeeze method).
//!
//! The Dirichlet sampler of the Bayesian bootstrap (§4.2 of the paper)
//! normalizes independent Gamma draws, so this is on the hot path of the
//! confidence-interval computation.

use crate::normal::sample_standard_normal;
use rand::Rng;

/// Sample `Gamma(alpha, 1)` by Marsaglia–Tsang (2000).
///
/// For `alpha < 1` the standard boost is used:
/// `Gamma(alpha) = Gamma(alpha + 1) * U^(1/alpha)`.
pub fn sample_gamma_shape(alpha: f64, rng: &mut impl Rng) -> f64 {
    GammaShape::new(alpha).sample(rng)
}

/// The Marsaglia–Tsang sampler constants for one fixed shape,
/// precomputed once: `d = alpha' - 1/3`, `c = 1/sqrt(9 d)` (with
/// `alpha' = alpha + 1` under the small-shape boost), and the boost
/// exponent `1/alpha` when `alpha < 1`.
///
/// Batched callers — the bootstrap draws `replicates × dim` Gamma
/// variates per evaluation with the same shape down each column — hoist
/// [`GammaShape::new`] out of the replicate loop instead of redoing the
/// divisions and square root on every draw. Draws consume the RNG in
/// exactly the order of [`sample_gamma_shape`] and perform the same
/// float operations, so results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaShape {
    d: f64,
    c: f64,
    /// `1/alpha` when the shape is below 1 (the boost exponent).
    boost_inv_alpha: Option<f64>,
}

impl GammaShape {
    /// Precompute the sampler constants for shape `alpha`.
    pub fn new(alpha: f64) -> GammaShape {
        debug_assert!(alpha > 0.0);
        let (effective, boost_inv_alpha) = if alpha < 1.0 {
            (alpha + 1.0, Some(1.0 / alpha))
        } else {
            (alpha, None)
        };
        let d = effective - 1.0 / 3.0;
        GammaShape {
            d,
            c: 1.0 / (9.0 * d).sqrt(),
            boost_inv_alpha,
        }
    }

    /// Draw one `Gamma(alpha, 1)` sample — bit-identical to
    /// [`sample_gamma_shape`] from the same RNG state.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let core = loop {
            let x = sample_standard_normal(rng);
            let v = 1.0 + self.c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen();
            // Squeeze test first (cheap), then the full log test.
            if u < 1.0 - 0.0331 * (x * x) * (x * x) {
                break self.d * v3;
            }
            if u.ln() < 0.5 * x * x + self.d * (1.0 - v3 + v3.ln()) {
                break self.d * v3;
            }
        };
        match self.boost_inv_alpha {
            // U in (0,1]; `1 - gen::<f64>()` avoids U = 0 exactly.
            Some(inv_alpha) => core * (1.0 - rng.gen::<f64>()).powf(inv_alpha),
            None => core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, sample_var};
    use crate::rng::seeded_rng;

    /// `n` draws of `Gamma(alpha, theta)`, scaled from `Gamma(alpha, 1)`.
    fn draw(alpha: f64, theta: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| theta * sample_gamma_shape(alpha, &mut rng))
            .collect()
    }

    #[test]
    fn moments_shape_above_one() {
        let xs = draw(3.0, 2.0, 100_000, 11);
        // mean = alpha*theta = 6, var = alpha*theta^2 = 12
        assert!((mean(&xs) - 6.0).abs() < 0.1, "mean {}", mean(&xs));
        assert!(
            (sample_var(&xs) - 12.0).abs() < 0.6,
            "var {}",
            sample_var(&xs)
        );
    }

    #[test]
    fn moments_shape_below_one() {
        let xs = draw(0.5, 1.0, 200_000, 12);
        assert!((mean(&xs) - 0.5).abs() < 0.02);
        assert!((sample_var(&xs) - 0.5).abs() < 0.05);
    }

    #[test]
    fn moments_shape_one_is_exponential() {
        let xs = draw(1.0, 3.0, 100_000, 13);
        assert!((mean(&xs) - 3.0).abs() < 0.08);
        assert!((sample_var(&xs) - 9.0).abs() < 0.6);
    }

    #[test]
    fn samples_are_positive() {
        for seed in 0..5 {
            for &alpha in &[0.2, 0.9, 1.0, 5.0, 50.0] {
                let xs = draw(alpha, 1.0, 1000, 100 + seed);
                assert!(xs.iter().all(|&x| x > 0.0 && x.is_finite()));
            }
        }
    }

    /// The pre-`GammaShape` sampler, verbatim: the recursive
    /// Marsaglia–Tsang reference that the precomputed form must
    /// reproduce bit-for-bit.
    fn reference_sample(alpha: f64, rng: &mut impl Rng) -> f64 {
        if alpha < 1.0 {
            let boost = reference_sample(alpha + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>();
            return boost * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = sample_standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen();
            if u < 1.0 - 0.0331 * (x * x) * (x * x) {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }

    #[test]
    fn precomputed_shape_is_bit_identical_to_reference() {
        for &alpha in &[0.05, 0.2, 0.9, 1.0, 1.3, 5.0, 50.0] {
            let shape = GammaShape::new(alpha);
            let mut a = seeded_rng(alpha.to_bits());
            let mut b = seeded_rng(alpha.to_bits());
            for i in 0..2000 {
                assert_eq!(
                    shape.sample(&mut a).to_bits(),
                    reference_sample(alpha, &mut b).to_bits(),
                    "alpha {alpha}, draw {i}"
                );
            }
        }
    }
}
