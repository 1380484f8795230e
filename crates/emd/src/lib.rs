//! Earth Mover's Distance (§3.2 of Koshijima, Hino & Murata, TKDE 2015).
//!
//! Signatures `S = {(u_k, w_k)}` are compared by solving the
//! transportation problem of Eqs. (7)–(11): find the flow `f_kl >= 0`
//! minimizing `Σ f_kl d_kl` subject to row sums `<= w_k`, column sums
//! `<= w'_l`, and total flow equal to `min(Σ w_k, Σ w'_l)`. The EMD is
//! the optimal cost normalized by the total flow (Eq. 12), which makes it
//! well-defined for signatures of unequal total mass — exactly the
//! situation with bags of varying size.
//!
//! The solver is a from-scratch transportation simplex (an initial basis
//! chosen by tableau size — the northwest corner below 128 cells, the
//! least-cost rule from there on — then MODI/u-v optimality tests and
//! stepping-stone pivots with Bland's anti-cycling fallback). Unequal
//! masses are balanced with a zero-cost slack node, the textbook
//! reduction. The basis is kept across pivots as a rooted spanning tree,
//! as in the network simplex: a pivot walks only the cycle it closes and
//! re-hangs only the subtree it moves, recomputing the potentials there,
//! and gives bit-for-bit the results of rebuilding the tree every pivot.
//! A closed-form `O(n log n)` solver for the 1-D equal-mass case,
//! [`emd_1d`], is the independent oracle of the property tests; nothing
//! in the detector calls it.

pub mod error;
pub mod ground;
pub mod one_d;
pub mod signature;
pub mod transport;

pub use error::EmdError;
pub use ground::{Chebyshev, Euclidean, GroundDistance, Manhattan, WeightedEuclidean};
pub use one_d::emd_1d;
pub use signature::Signature;
pub use transport::{
    solve_transportation, solve_transportation_with, TransportPlan, TransportScratch,
    TransportStats,
};

/// Earth Mover's Distance between two signatures under a ground distance.
///
/// Implements Eqs. (7)–(12) of the paper. Masses need not match: the
/// smaller total mass is fully transported and the distance is cost per
/// unit of transported mass.
///
/// Equivalent to [`emd_with`] with a fresh [`TransportScratch`]; hot
/// loops solving many pairs should keep one scratch and call that.
///
/// # Errors
/// Returns an error if either signature has zero total mass, dimensions
/// disagree, or the solver fails to converge (which the iteration cap
/// makes effectively unreachable for sane inputs).
pub fn emd<G: GroundDistance>(a: &Signature, b: &Signature, ground: &G) -> Result<f64, EmdError> {
    emd_with(a, b, ground, &mut TransportScratch::new())
}

/// As [`emd`], running entirely out of a caller-kept scratch: the ground
/// cost matrix, the simplex tableau, and every solver working set live
/// in `scratch`, so a warm call performs no heap allocation at all (the
/// flow plan is never materialized). Bit-identical to [`emd`].
///
/// # Errors
/// See [`emd`].
pub fn emd_with<G: GroundDistance>(
    a: &Signature,
    b: &Signature,
    ground: &G,
    scratch: &mut TransportScratch,
) -> Result<f64, EmdError> {
    let mut costs = std::mem::take(&mut scratch.ground);
    let checked = fill_ground_costs(a, b, ground, &mut costs);
    let result = checked
        .and_then(|()| transport::solve_cost_flow(&costs, a.weights(), b.weights(), scratch));
    scratch.ground = costs;
    let (total_cost, total_flow) = result?;
    if total_flow <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    Ok(total_cost / total_flow)
}

/// As [`emd`], also returning the optimal flow plan for diagnostics.
///
/// # Errors
/// See [`emd`].
pub fn emd_with_flow<G: GroundDistance>(
    a: &Signature,
    b: &Signature,
    ground: &G,
) -> Result<(f64, TransportPlan), EmdError> {
    emd_with_flow_with(a, b, ground, &mut TransportScratch::new())
}

/// As [`emd_with_flow`], reusing a caller-kept scratch; only the
/// returned plan's flow list is allocated. Bit-identical to
/// [`emd_with_flow`].
///
/// # Errors
/// See [`emd`].
pub fn emd_with_flow_with<G: GroundDistance>(
    a: &Signature,
    b: &Signature,
    ground: &G,
    scratch: &mut TransportScratch,
) -> Result<(f64, TransportPlan), EmdError> {
    let mut costs = std::mem::take(&mut scratch.ground);
    let checked = fill_ground_costs(a, b, ground, &mut costs);
    let result =
        checked.and_then(|()| solve_transportation_with(&costs, a.weights(), b.weights(), scratch));
    scratch.ground = costs;
    let plan = result?;
    let total_flow = plan.total_flow();
    if total_flow <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    Ok((plan.total_cost() / total_flow, plan))
}

/// Validate a signature pair and fill the pairwise ground-distance
/// matrix into a reused buffer (the shared front half of both `emd_with`
/// forms).
fn fill_ground_costs<G: GroundDistance>(
    a: &Signature,
    b: &Signature,
    ground: &G,
    costs: &mut Vec<f64>,
) -> Result<(), EmdError> {
    if a.dim() != b.dim() {
        return Err(EmdError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    let wa = a.total_weight();
    let wb = b.total_weight();
    if wa <= 0.0 || wb <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    costs.clear();
    costs.reserve(a.len() * b.len());
    for (pa, _) in a.iter() {
        for (pb, _) in b.iter() {
            costs.push(ground.distance(pa, pb));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Signature {
        Signature::new(points, weights).unwrap()
    }

    #[test]
    fn identical_signatures_have_zero_distance() {
        let s = sig(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![2.0, 3.0]);
        let d = emd(&s, &s, &Euclidean).unwrap();
        assert!(d.abs() < 1e-12, "self-distance {d}");
    }

    #[test]
    fn two_point_masses() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![3.0]], vec![1.0]);
        assert!((emd(&a, &b, &Euclidean).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unequal_mass_point_masses() {
        // All of the smaller mass moves distance 3; Eq. 12 normalizes by
        // the transported mass, so the distance is still 3.
        let a = sig(vec![vec![0.0]], vec![5.0]);
        let b = sig(vec![vec![3.0]], vec![1.0]);
        assert!((emd(&a, &b, &Euclidean).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_transport_prefers_near_mass() {
        // a has mass at 0 and 10; b wants 1 unit at 0.5. Optimal: take it
        // from the nearby pile. EMD = 0.5.
        let a = sig(vec![vec![0.0], vec![10.0]], vec![1.0, 1.0]);
        let b = sig(vec![vec![0.5]], vec![1.0]);
        assert!((emd(&a, &b, &Euclidean).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classic_rubner_example_structure() {
        // 2x3 balanced example solvable by hand:
        // supplies (0,0)=0.4,(100,0)=0.6 ; demands (0,1)=0.5,(100,1)=0.3,(50,1)=0.2
        // Optimal: 0.4 from s0->d0 (1.0), 0.1 s1->d0 (cost 100.005),
        // 0.3 s1->d1 (1.0), 0.2 s1->d2 (50.01).
        let a = sig(vec![vec![0.0, 0.0], vec![100.0, 0.0]], vec![0.4, 0.6]);
        let b = sig(
            vec![vec![0.0, 1.0], vec![100.0, 1.0], vec![50.0, 1.0]],
            vec![0.5, 0.3, 0.2],
        );
        let (d, plan) = emd_with_flow(&a, &b, &Euclidean).unwrap();
        // Hand-computed optimum:
        let c00 = 1.0;
        let c10 = (100.0f64 * 100.0 + 1.0).sqrt();
        let c11 = 1.0;
        let c12 = (50.0f64 * 50.0 + 1.0).sqrt();
        let expected = 0.4 * c00 + 0.1 * c10 + 0.3 * c11 + 0.2 * c12;
        assert!((d - expected).abs() < 1e-9, "{d} vs {expected}");
        assert!((plan.total_flow() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_for_equal_mass() {
        let a = sig(vec![vec![0.0], vec![2.0], vec![5.0]], vec![1.0, 2.0, 1.0]);
        let b = sig(vec![vec![1.0], vec![4.0]], vec![2.0, 2.0]);
        let dab = emd(&a, &b, &Euclidean).unwrap();
        let dba = emd(&b, &a, &Euclidean).unwrap();
        assert!((dab - dba).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality_equal_mass() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![1.0], vec![3.0]], vec![0.5, 0.5]);
        let c = sig(vec![vec![5.0]], vec![1.0]);
        let ab = emd(&a, &b, &Euclidean).unwrap();
        let bc = emd(&b, &c, &Euclidean).unwrap();
        let ac = emd(&a, &c, &Euclidean).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![0.0, 1.0]], vec![1.0]);
        assert!(matches!(
            emd(&a, &b, &Euclidean),
            Err(EmdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn emd_with_dirty_scratch_is_bit_identical() {
        // One scratch across pairs of different shapes must reproduce
        // the allocating path exactly, for both the cost-only and the
        // flow-returning forms.
        let mut scratch = TransportScratch::new();
        let pairs = [
            (
                sig(vec![vec![0.0, 0.0], vec![100.0, 0.0]], vec![0.4, 0.6]),
                sig(
                    vec![vec![0.0, 1.0], vec![100.0, 1.0], vec![50.0, 1.0]],
                    vec![0.5, 0.3, 0.2],
                ),
            ),
            (
                sig(vec![vec![0.0, 1.0]], vec![5.0]),
                sig(vec![vec![3.0, 5.0]], vec![1.0]),
            ),
            (
                sig(vec![vec![0.0, 0.0], vec![2.0, 2.0]], vec![1.0, 0.0]),
                sig(vec![vec![1.0, 1.0]], vec![2.0]),
            ),
        ];
        for (a, b) in &pairs {
            let fresh = emd(a, b, &Euclidean).unwrap();
            let reused = emd_with(a, b, &Euclidean, &mut scratch).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits());
            let (fresh_d, fresh_plan) = emd_with_flow(a, b, &Euclidean).unwrap();
            let (reused_d, reused_plan) =
                emd_with_flow_with(a, b, &Euclidean, &mut scratch).unwrap();
            assert_eq!(fresh_d.to_bits(), reused_d.to_bits());
            assert_eq!(fresh_plan, reused_plan);
        }
    }

    #[test]
    fn matches_1d_oracle_on_fixed_case() {
        let a = sig(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1.0, 1.0, 1.0]);
        let b = sig(vec![vec![0.5], vec![1.5], vec![2.5]], vec![1.0, 1.0, 1.0]);
        let d = emd(&a, &b, &Euclidean).unwrap();
        let oracle = emd_1d(
            &[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
            &[(0.5, 1.0), (1.5, 1.0), (2.5, 1.0)],
        )
        .unwrap();
        assert!((d - oracle).abs() < 1e-9, "{d} vs {oracle}");
    }
}
