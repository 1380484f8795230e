//! Reference/test windows and weighting schemes (§2 Eqs. 4–5, §3.3
//! Eq. 15).

/// Weighting of the signatures inside each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// `ψ_i = 1/τ` (resp. `1/τ'`) — what the paper uses in all of §5.
    #[default]
    Equal,
    /// Discounted per Eq. (15): weight proportional to `1/|t - i|` for
    /// the reference set and `1/|t - i + 1|` for the test set, giving
    /// more importance to bags near the inspection point.
    Discounted,
}

/// Index layout of the two windows around an inspection point `t`:
/// reference bags `t-τ .. t-1`, test bags `t .. t+τ'-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowLayout {
    /// Reference window length τ.
    pub tau: usize,
    /// Test window length τ'.
    pub tau_prime: usize,
}

impl WindowLayout {
    /// Construct; panics are deferred to [`WindowLayout::validate`].
    pub fn new(tau: usize, tau_prime: usize) -> Self {
        WindowLayout { tau, tau_prime }
    }

    /// Check the layout is usable.
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.tau == 0 {
            return Err("tau must be >= 1".into());
        }
        if self.tau_prime == 0 {
            return Err("tau' must be >= 1".into());
        }
        Ok(())
    }

    /// First inspection point with a full reference window.
    pub fn first_t(&self) -> usize {
        self.tau
    }

    /// Last inspection point (inclusive) for a sequence of `n` bags, or
    /// `None` if the sequence is too short.
    pub fn last_t(&self, n: usize) -> Option<usize> {
        if n < self.tau + self.tau_prime {
            None
        } else {
            Some(n - self.tau_prime)
        }
    }

    /// Reference indices `t-τ .. t-1` for inspection point `t`.
    pub fn ref_range(&self, t: usize) -> std::ops::Range<usize> {
        debug_assert!(t >= self.tau);
        (t - self.tau)..t
    }

    /// Test indices `t .. t+τ'-1` for inspection point `t`.
    pub fn test_range(&self, t: usize) -> std::ops::Range<usize> {
        t..(t + self.tau_prime)
    }
}

/// Fill `out` with equal weights summing to one (allocation-free once
/// `out` has grown to `n`).
///
/// # Panics
/// Panics if `n == 0`.
pub fn equal_weights_into(n: usize, out: &mut Vec<f64>) {
    assert!(n > 0, "equal_weights_into: n must be >= 1");
    out.clear();
    out.resize(n, 1.0 / n as f64);
}

/// Fill `out` with the discounted weights of Eq. (15), normalized to
/// sum to one.
///
/// For the reference window (`is_ref = true`), bag at index `i` (global
/// time) gets weight `∝ 1/|t - i|`; for the test window, `∝ 1/|t - i + 1|`
/// (so the inspection bag itself, `i = t`, has the largest weight 1).
///
/// # Panics
/// Panics on an empty range.
pub fn discounted_weights_into(
    t: usize,
    range: std::ops::Range<usize>,
    is_ref: bool,
    out: &mut Vec<f64>,
) {
    assert!(!range.is_empty(), "discounted_weights_into: empty window");
    // Eq. 15 (with its evident typo corrected): reference bag at index
    // i < t is discounted by its distance t - i from the inspection
    // point; test bag at index i >= t by i - t + 1, so the inspection bag
    // itself carries the largest weight.
    out.clear();
    for i in range {
        let gap = if is_ref {
            t as f64 - i as f64
        } else {
            i as f64 - t as f64 + 1.0
        };
        out.push(1.0 / gap.max(1.0));
    }
    let total: f64 = out.iter().sum();
    for w in out.iter_mut() {
        *w /= total;
    }
}

/// Fill `out` with the weights of a window under a scheme; a caller that
/// keeps `out` across inspection points allocates nothing once it has
/// grown.
pub fn window_weights_into(
    scheme: Weighting,
    t: usize,
    range: std::ops::Range<usize>,
    is_ref: bool,
    out: &mut Vec<f64>,
) {
    match scheme {
        Weighting::Equal => equal_weights_into(range.len(), out),
        Weighting::Discounted => discounted_weights_into(t, range, is_ref, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_ranges() {
        let w = WindowLayout::new(5, 3);
        assert_eq!(w.first_t(), 5);
        assert_eq!(w.last_t(20), Some(17));
        assert_eq!(w.last_t(7), None);
        assert_eq!(w.ref_range(5), 0..5);
        assert_eq!(w.test_range(5), 5..8);
    }

    #[test]
    fn layout_minimum_sequence() {
        let w = WindowLayout::new(5, 5);
        assert_eq!(w.last_t(10), Some(5)); // exactly one inspection point
        assert_eq!(w.last_t(9), None);
    }

    #[test]
    fn validation() {
        assert!(WindowLayout::new(0, 3).validate().is_err());
        assert!(WindowLayout::new(3, 0).validate().is_err());
        assert!(WindowLayout::new(1, 1).validate().is_ok());
    }

    #[test]
    fn equal_weights_sum_to_one() {
        let mut w = Vec::new();
        equal_weights_into(5, &mut w);
        assert_eq!(w.len(), 5);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| (x - 0.2).abs() < 1e-12));
    }

    #[test]
    fn discounted_ref_weights_increase_toward_t() {
        // Reference window 0..5 at t = 5: weights ∝ 1/5, 1/4, ..., 1/1.
        let mut w = Vec::new();
        discounted_weights_into(5, 0..5, true, &mut w);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for k in 1..w.len() {
            assert!(w[k] > w[k - 1], "weights must increase toward t");
        }
        // Ratio of last to first = 5.
        assert!((w[4] / w[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn discounted_test_weights_decrease_from_t() {
        // Test window 5..8 at t = 5: gaps 1, 2, 3.
        let mut w = Vec::new();
        discounted_weights_into(5, 5..8, false, &mut w);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w[0] / w[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn into_forms_overwrite_stale_contents() {
        // A buffer holding stale values must end up equal to a fresh one.
        let (mut dirty, mut fresh) = (vec![9.0; 8], Vec::new());
        equal_weights_into(5, &mut dirty);
        equal_weights_into(5, &mut fresh);
        assert_eq!(dirty, fresh);
        let (mut dirty, mut fresh) = (vec![9.0; 8], Vec::new());
        discounted_weights_into(5, 0..5, true, &mut dirty);
        discounted_weights_into(5, 0..5, true, &mut fresh);
        assert_eq!(dirty, fresh);
        let (mut dirty, mut fresh) = (vec![9.0; 8], Vec::new());
        window_weights_into(Weighting::Discounted, 5, 5..8, false, &mut dirty);
        window_weights_into(Weighting::Discounted, 5, 5..8, false, &mut fresh);
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn window_weights_dispatch() {
        let (mut eq, mut disc) = (Vec::new(), Vec::new());
        window_weights_into(Weighting::Equal, 5, 0..5, true, &mut eq);
        assert!((eq[0] - 0.2).abs() < 1e-12);
        window_weights_into(Weighting::Discounted, 5, 0..5, true, &mut disc);
        assert!(disc[4] > disc[0]);
    }
}
