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
//! least-cost rule over lists of live rows and columns from there on —
//! then MODI/u-v optimality tests, priced four cells at a time, and
//! stepping-stone pivots with Bland's anti-cycling fallback). Unequal
//! masses are balanced with a zero-cost slack node, the textbook
//! reduction. The basis is kept across pivots as a rooted spanning tree,
//! as in the network simplex: a pivot walks only the cycle it closes and
//! re-hangs only the subtree it moves, recomputing the potentials there,
//! and gives bit-for-bit the results of rebuilding the tree every pivot.
//!
//! Each solve runs out of a caller-kept [`TransportScratch`], through
//! one of two entry points: [`emd_with`] returns the distance of a
//! signature pair and allocates nothing once warm, while
//! [`solve_transportation_with`] solves a cost matrix and returns the
//! optimal flows as a [`TransportPlan`].
//!
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
pub use transport::{solve_transportation_with, TransportPlan, TransportScratch, TransportStats};

/// Earth Mover's Distance between two signatures under a ground distance,
/// solved out of a caller-kept scratch.
///
/// Implements Eqs. (7)–(12) of the paper. Masses need not match: the
/// smaller total mass is fully transported and the distance is cost per
/// unit of transported mass. The ground cost matrix, the simplex tableau
/// and every solver working set live in `scratch`, so a warm call
/// performs no heap allocation at all (the flow plan is never
/// materialized; [`solve_transportation_with`] returns it). A scratch
/// dirtied by earlier solves of any shape gives the bits of a fresh one.
///
/// # Errors
/// Returns an error if either signature has zero total mass, dimensions
/// disagree, or the solver fails to converge (which the iteration cap
/// makes effectively unreachable for sane inputs).
pub fn emd_with<G: GroundDistance>(
    a: &Signature,
    b: &Signature,
    ground: &G,
    scratch: &mut TransportScratch,
) -> Result<f64, EmdError> {
    if a.dim() != b.dim() {
        return Err(EmdError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    if a.total_weight() <= 0.0 || b.total_weight() <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    let mut costs = std::mem::take(&mut scratch.ground);
    costs.clear();
    costs.reserve(a.len() * b.len());
    for (pa, _) in a.iter() {
        for (pb, _) in b.iter() {
            costs.push(ground.distance(pa, pb));
        }
    }
    let result = transport::solve_cost_flow(&costs, a.weights(), b.weights(), scratch);
    scratch.ground = costs;
    let (total_cost, total_flow) = result?;
    if total_flow <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    Ok(total_cost / total_flow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Signature {
        Signature::new(points, weights).unwrap()
    }

    /// `emd_with` on a fresh scratch.
    fn emd_fresh(a: &Signature, b: &Signature) -> Result<f64, EmdError> {
        emd_with(a, b, &Euclidean, &mut TransportScratch::new())
    }

    #[test]
    fn identical_signatures_have_zero_distance() {
        let s = sig(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![2.0, 3.0]);
        let d = emd_fresh(&s, &s).unwrap();
        assert!(d.abs() < 1e-12, "self-distance {d}");
    }

    #[test]
    fn two_point_masses() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![3.0]], vec![1.0]);
        assert!((emd_fresh(&a, &b).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unequal_mass_point_masses() {
        // All of the smaller mass moves distance 3; Eq. 12 normalizes by
        // the transported mass, so the distance is still 3.
        let a = sig(vec![vec![0.0]], vec![5.0]);
        let b = sig(vec![vec![3.0]], vec![1.0]);
        assert!((emd_fresh(&a, &b).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_transport_prefers_near_mass() {
        // a has mass at 0 and 10; b wants 1 unit at 0.5. Optimal: take it
        // from the nearby pile. EMD = 0.5.
        let a = sig(vec![vec![0.0], vec![10.0]], vec![1.0, 1.0]);
        let b = sig(vec![vec![0.5]], vec![1.0]);
        assert!((emd_fresh(&a, &b).unwrap() - 0.5).abs() < 1e-12);
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
        let d = emd_fresh(&a, &b).unwrap();
        let costs: Vec<f64> = a
            .iter()
            .flat_map(|(pa, _)| b.iter().map(move |(pb, _)| Euclidean.distance(pa, pb)))
            .collect();
        let mut scratch = TransportScratch::new();
        let plan =
            solve_transportation_with(&costs, a.weights(), b.weights(), &mut scratch).unwrap();
        // Hand-computed optimum:
        let c00 = 1.0;
        let c10 = (100.0f64 * 100.0 + 1.0).sqrt();
        let c11 = 1.0;
        let c12 = (50.0f64 * 50.0 + 1.0).sqrt();
        let expected = 0.4 * c00 + 0.1 * c10 + 0.3 * c11 + 0.2 * c12;
        assert!((d - expected).abs() < 1e-9, "{d} vs {expected}");
        assert!((plan.total_flow() - 1.0).abs() < 1e-12);
        assert_eq!(
            d.to_bits(),
            (plan.total_cost() / plan.total_flow()).to_bits()
        );
    }

    #[test]
    fn symmetry_for_equal_mass() {
        let a = sig(vec![vec![0.0], vec![2.0], vec![5.0]], vec![1.0, 2.0, 1.0]);
        let b = sig(vec![vec![1.0], vec![4.0]], vec![2.0, 2.0]);
        let dab = emd_fresh(&a, &b).unwrap();
        let dba = emd_fresh(&b, &a).unwrap();
        assert!((dab - dba).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality_equal_mass() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![1.0], vec![3.0]], vec![0.5, 0.5]);
        let c = sig(vec![vec![5.0]], vec![1.0]);
        let ab = emd_fresh(&a, &b).unwrap();
        let bc = emd_fresh(&b, &c).unwrap();
        let ac = emd_fresh(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = sig(vec![vec![0.0]], vec![1.0]);
        let b = sig(vec![vec![0.0, 1.0]], vec![1.0]);
        assert!(matches!(
            emd_fresh(&a, &b),
            Err(EmdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn emd_with_dirty_scratch_is_bit_identical() {
        // One scratch across pairs of different shapes must reproduce a
        // fresh scratch's distance exactly.
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
            let fresh = emd_fresh(a, b).unwrap();
            let reused = emd_with(a, b, &Euclidean, &mut scratch).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    #[test]
    fn matches_1d_oracle_on_fixed_case() {
        let a = sig(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1.0, 1.0, 1.0]);
        let b = sig(vec![vec![0.5], vec![1.5], vec![2.5]], vec![1.0, 1.0, 1.0]);
        let d = emd_fresh(&a, &b).unwrap();
        let oracle = emd_1d(
            &[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
            &[(0.5, 1.0), (1.5, 1.0), (2.5, 1.0)],
        )
        .unwrap();
        assert!((d - oracle).abs() < 1e-9, "{d} vs {oracle}");
    }
}
