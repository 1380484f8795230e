//! Exact 1-D Earth Mover's Distance (equal-mass case).
//!
//! For two distributions on the line with equal total mass and
//! `d(x, y) = |x - y|`, the EMD equals the L1 distance between the CDFs:
//! `EMD = ∫ |F_a(x) - F_b(x)| dx / W` where `W` is the common mass.
//! It runs in `O(n log n)`, but nothing in the detector calls it: it is
//! the independent oracle the property tests compare the general solver
//! against.

use crate::error::EmdError;

/// Exact 1-D EMD between weighted point sets of equal total mass.
///
/// Inputs are `(position, weight)` pairs in any order; weights must be
/// non-negative and the two total masses must agree to within a relative
/// `1e-9`. Returns cost per unit mass, matching Eq. (12).
///
/// # Errors
/// [`EmdError::NonFiniteInput`] for bad values, [`EmdError::ZeroMass`]
/// for empty/zero-mass input, and [`EmdError::InvalidSignature`] when the
/// masses differ (use the general solver for partial matches).
pub fn emd_1d(a: &[(f64, f64)], b: &[(f64, f64)]) -> Result<f64, EmdError> {
    for &(x, w) in a.iter().chain(b) {
        if !x.is_finite() || !w.is_finite() || w < 0.0 {
            return Err(EmdError::NonFiniteInput);
        }
    }
    let wa: f64 = a.iter().map(|&(_, w)| w).sum();
    let wb: f64 = b.iter().map(|&(_, w)| w).sum();
    if wa <= 0.0 || wb <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    if (wa - wb).abs() > 1e-9 * wa.max(wb) {
        return Err(EmdError::InvalidSignature(
            "emd_1d requires equal total mass",
        ));
    }

    // Sweep the merged event list accumulating |F_a - F_b| between
    // consecutive positions. Signs: +w for a-events, -w for b-events.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(a.len() + b.len());
    events.extend(a.iter().copied());
    events.extend(b.iter().map(|&(x, w)| (x, -w)));
    events.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));

    let mut cost = 0.0;
    let mut cdf_gap: f64 = 0.0; // F_a(x) - F_b(x), unnormalized
    let mut prev_x = events[0].0;
    for &(x, signed_w) in events.iter() {
        cost += cdf_gap.abs() * (x - prev_x);
        cdf_gap += signed_w;
        prev_x = x;
    }
    Ok(cost / wa)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_masses() {
        let d = emd_1d(&[(0.0, 1.0)], &[(4.0, 1.0)]).unwrap();
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn identical_distributions() {
        let a = [(0.0, 1.0), (2.0, 3.0), (5.0, 0.5)];
        assert!(emd_1d(&a, &a).unwrap().abs() < 1e-12);
    }

    #[test]
    fn translation_shifts_by_delta() {
        let a = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)];
        let b = [(0.7, 1.0), (1.7, 1.0), (2.7, 1.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 0.7).abs() < 1e-12, "translation invariance: {d}");
    }

    #[test]
    fn split_mass() {
        // Unit mass at 0 vs half at -1 and half at +1: each half moves 1.
        let d = emd_1d(&[(0.0, 2.0)], &[(-1.0, 1.0), (1.0, 1.0)]).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_accepted() {
        let a = [(5.0, 1.0), (0.0, 1.0)];
        let b = [(1.0, 1.0), (4.0, 1.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = [(0.0, 1.0), (3.0, 2.0)];
        let b = [(1.0, 2.0), (2.0, 1.0)];
        assert!((emd_1d(&a, &b).unwrap() - emd_1d(&b, &a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance_of_weights() {
        // EMD is cost per unit mass: scaling all weights leaves it fixed.
        let a = [(0.0, 1.0), (2.0, 1.0)];
        let b = [(1.0, 1.0), (3.0, 1.0)];
        let a10 = [(0.0, 10.0), (2.0, 10.0)];
        let b10 = [(1.0, 10.0), (3.0, 10.0)];
        assert!((emd_1d(&a, &b).unwrap() - emd_1d(&a10, &b10).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn rejects_mass_mismatch() {
        assert!(matches!(
            emd_1d(&[(0.0, 1.0)], &[(0.0, 2.0)]),
            Err(EmdError::InvalidSignature(_))
        ));
    }

    #[test]
    fn rejects_zero_mass_and_nan() {
        assert_eq!(emd_1d(&[], &[(0.0, 1.0)]), Err(EmdError::ZeroMass));
        assert_eq!(
            emd_1d(&[(f64::NAN, 1.0)], &[(0.0, 1.0)]),
            Err(EmdError::NonFiniteInput)
        );
        assert_eq!(
            emd_1d(&[(0.0, -1.0)], &[(0.0, 1.0)]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn coincident_points_with_different_weights() {
        let a = [(0.0, 1.0), (0.0, 1.0)]; // mass 2 at origin
        let b = [(1.0, 2.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }
}
