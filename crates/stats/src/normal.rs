//! Univariate normal sampling (Marsaglia polar method).

use rand::Rng;

/// Draw one standard-normal variate using the Marsaglia polar method.
///
/// The polar method needs no transcendental calls beyond `ln`/`sqrt` and
/// has no tail cutoff, unlike a table-driven ziggurat this is a few lines
/// and exact.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal distribution `N(mean, sd^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Construct from mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `sd` is negative or not finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd.is_finite() && sd >= 0.0,
            "Normal: sd must be finite and >= 0"
        );
        assert!(mean.is_finite(), "Normal: mean must be finite");
        Normal { mean, sd }
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.mean + self.sd * sample_standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shifted_scaled_moments() {
        let mut rng = seeded_rng(8);
        let d = Normal::new(3.0, 2.0);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn degenerate_sd_zero() {
        let mut rng = seeded_rng(9);
        let d = Normal::new(5.0, 0.0);
        assert_eq!(d.sample(&mut rng), 5.0);
    }

    #[test]
    #[should_panic(expected = "sd must be finite")]
    fn negative_sd_panics() {
        Normal::new(0.0, -1.0);
    }
}
