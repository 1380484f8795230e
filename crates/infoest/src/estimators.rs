//! The constants of the three weighted information estimators.
//!
//! The estimators read each distance only through `ln(max(d,
//! dist_floor))` ([`EstimatorConfig::log_dist`], mapped over a whole
//! matrix once by [`crate::LogDistances`]) and each weight only after
//! dividing it by its set's total; `bagcpd`'s `WindowScorer` evaluates
//! them in place over a window's log block, many weightings (the
//! bootstrap's replicates) at a time.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_clamped_not_infinite() {
        let l = EstimatorConfig::default().log_dist(0.0);
        assert!(l.is_finite());
        assert!(l < -20.0, "floor of 1e-12 gives ln ~ -27.6, got {l}");
    }

    #[test]
    fn log_dist_is_the_log_above_the_floor() {
        let cfg = EstimatorConfig {
            dist_floor: 0.5,
            ..EstimatorConfig::default()
        };
        assert_eq!(cfg.log_dist(std::f64::consts::E), 1.0);
        assert_eq!(cfg.log_dist(0.1), 0.5f64.ln());
    }
}
