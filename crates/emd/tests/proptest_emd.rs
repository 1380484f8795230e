//! Property-based tests for the EMD solver.
//!
//! Two independent oracles: on 1-D equal-mass inputs the transportation
//! simplex must agree with the closed-form CDF solver, and on integer
//! masses — balanced or not, degenerate or not, in any dimension — with
//! a min-cost-flow solver written separately below. Plus metric
//! properties (non-negativity, symmetry, identity, triangle inequality)
//! on random 2-D signatures.

use emd::{
    emd, emd_1d, emd_with, solve_transportation, solve_transportation_with, EmdError, Euclidean,
    GroundDistance, Signature, TransportScratch,
};
use proptest::prelude::*;

/// Strategy: a 1-D weighted point set with strictly positive weights.
fn weighted_points_1d(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(((-50.0..50.0f64), (0.01..10.0f64)), 1..=max_len)
}

/// Strategy: a small 2-D signature.
fn signature_2d(max_len: usize) -> impl Strategy<Value = Signature> {
    prop::collection::vec(
        ((-20.0..20.0f64), (-20.0..20.0f64), (0.01..5.0f64)),
        1..=max_len,
    )
    .prop_map(|triples| {
        let points: Vec<Vec<f64>> = triples.iter().map(|&(x, y, _)| vec![x, y]).collect();
        let weights: Vec<f64> = triples.iter().map(|&(_, _, w)| w).collect();
        Signature::new(points, weights).expect("strategy produces valid signatures")
    })
}

/// Strategy: a random, frequently unbalanced and degenerate
/// transportation problem `(costs, supplies, demands)`. Marginals are
/// drawn from a tiny integer grid scaled by 0.5, so zero entries
/// (filtered rows/columns), exactly equal supplies/demands, and
/// tie-heavy costs — the degenerate-pivot cases — all occur with high
/// probability.
fn transport_problem() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    ((1usize..=5), (1usize..=5)).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec((0u8..4).prop_map(|c| c as f64), m * n),
            prop::collection::vec((0u8..4).prop_map(|s| s as f64 * 0.5), m),
            prop::collection::vec((0u8..4).prop_map(|d| d as f64 * 0.5), n),
        )
    })
}

/// Strategy: 2-D points with integer weights in `0..4` (zeros
/// included), as `(points, counts)`.
fn counted_points_2d(max_len: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<u64>)> {
    prop::collection::vec(((-20.0..20.0f64), (-20.0..20.0f64), (0u64..4)), 1..=max_len)
        .prop_map(|triples| triples.iter().map(|&(x, y, w)| (vec![x, y], w)).unzip())
}

/// Test-only oracle for Eqs. (7)–(11) on integer masses: a minimum-cost
/// flow found by successive shortest paths, with Bellman–Ford on the
/// residual graph. It shares nothing with the transportation simplex —
/// no basis, no potentials, no slack node — and returns the total cost
/// and total flow of a cheapest flow of maximum value, which is the
/// EMD's flow `min(Σ supplies, Σ demands)`.
mod min_cost_flow {
    /// A residual arc; arc `e ^ 1` is its reverse.
    struct Arc {
        from: usize,
        to: usize,
        cap: u64,
        cost: f64,
    }

    fn add(arcs: &mut Vec<Arc>, from: usize, to: usize, cap: u64, cost: f64) {
        arcs.push(Arc {
            from,
            to,
            cap,
            cost,
        });
        arcs.push(Arc {
            from: to,
            to: from,
            cap: 0,
            cost: -cost,
        });
    }

    /// `(total cost, total flow)` for a row-major `supplies × demands`
    /// cost matrix.
    pub fn solve(costs: &[f64], supplies: &[u64], demands: &[u64]) -> (f64, u64) {
        let (m, n) = (supplies.len(), demands.len());
        assert_eq!(costs.len(), m * n);
        // Nodes: source 0, supplies 1..=m, demands m+1..=m+n, sink m+n+1.
        let (source, sink, nodes) = (0, m + n + 1, m + n + 2);
        let mut arcs = Vec::new();
        for (i, &s) in supplies.iter().enumerate() {
            add(&mut arcs, source, 1 + i, s, 0.0);
        }
        let unbounded = supplies.iter().sum::<u64>();
        let mut transport = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                transport.push(arcs.len());
                add(&mut arcs, 1 + i, 1 + m + j, unbounded, costs[i * n + j]);
            }
        }
        for (j, &d) in demands.iter().enumerate() {
            add(&mut arcs, 1 + m + j, sink, d, 0.0);
        }
        // Relax only on a real improvement, so that rounding in
        // tied path sums cannot form a cycle of predecessors.
        let tol = 1e-12 * (1.0 + costs.iter().fold(0.0f64, |acc, c| acc.max(c.abs())));
        let mut flow = 0;
        loop {
            let mut dist = vec![f64::INFINITY; nodes];
            let mut via = vec![usize::MAX; nodes];
            dist[source] = 0.0;
            for _ in 1..nodes {
                let mut relaxed = false;
                for (e, arc) in arcs.iter().enumerate() {
                    let through = dist[arc.from] + arc.cost;
                    if arc.cap > 0 && through < dist[arc.to] - tol {
                        dist[arc.to] = through;
                        via[arc.to] = e;
                        relaxed = true;
                    }
                }
                if !relaxed {
                    break;
                }
            }
            if dist[sink].is_infinite() {
                break;
            }
            let mut path = Vec::new();
            let mut v = sink;
            while v != source {
                assert!(path.len() < nodes, "predecessor cycle");
                path.push(via[v]);
                v = arcs[via[v]].from;
            }
            let push = path
                .iter()
                .map(|&e| arcs[e].cap)
                .min()
                .expect("non-empty path");
            for &e in &path {
                arcs[e].cap -= push;
                arcs[e ^ 1].cap += push;
            }
            flow += push;
        }
        // The flow on each supply→demand arc is its reverse's capacity.
        let cost = transport
            .iter()
            .map(|&e| arcs[e ^ 1].cap as f64 * arcs[e].cost)
            .sum();
        (cost, flow)
    }
}

/// Agreement to 1e-9, relative to the oracle's magnitude (absolute
/// below 1).
fn agrees(value: f64, oracle: f64) -> bool {
    (value - oracle).abs() <= 1e-9 * (1.0 + oracle.abs())
}

/// Normalize a weighted point set to unit mass.
fn normalize(pts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let total: f64 = pts.iter().map(|&(_, w)| w).sum();
    pts.iter().map(|&(x, w)| (x, w / total)).collect()
}

fn to_signature_1d(pts: &[(f64, f64)]) -> Signature {
    let points: Vec<Vec<f64>> = pts.iter().map(|&(x, _)| vec![x]).collect();
    let weights: Vec<f64> = pts.iter().map(|&(_, w)| w).collect();
    Signature::new(points, weights).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transportation simplex == closed-form CDF distance in 1-D.
    #[test]
    fn simplex_matches_1d_oracle(
        a in weighted_points_1d(12),
        b in weighted_points_1d(12),
    ) {
        let a = normalize(&a);
        let b = normalize(&b);
        let oracle = emd_1d(&a, &b).unwrap();
        let solved = emd(&to_signature_1d(&a), &to_signature_1d(&b), &Euclidean).unwrap();
        prop_assert!(
            (oracle - solved).abs() < 1e-7 * (1.0 + oracle.abs()),
            "oracle {oracle} vs simplex {solved}"
        );
    }

    /// EMD is non-negative and zero on identical signatures.
    #[test]
    fn non_negative_and_identity(s in signature_2d(10)) {
        let d = emd(&s, &s, &Euclidean).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d < 1e-9, "self distance {d}");
    }

    /// EMD is symmetric (any masses — Eq. 12 is symmetric by construction).
    #[test]
    fn symmetric(a in signature_2d(8), b in signature_2d(8)) {
        let dab = emd(&a, &b, &Euclidean).unwrap();
        let dba = emd(&b, &a, &Euclidean).unwrap();
        prop_assert!((dab - dba).abs() < 1e-7 * (1.0 + dab.abs()), "{dab} vs {dba}");
    }

    /// Triangle inequality holds for normalized (equal-mass) signatures.
    #[test]
    fn triangle_inequality(
        a in signature_2d(6),
        b in signature_2d(6),
        c in signature_2d(6),
    ) {
        let a = a.normalized().unwrap();
        let b = b.normalized().unwrap();
        let c = c.normalized().unwrap();
        let ab = emd(&a, &b, &Euclidean).unwrap();
        let bc = emd(&b, &c, &Euclidean).unwrap();
        let ac = emd(&a, &c, &Euclidean).unwrap();
        prop_assert!(ac <= ab + bc + 1e-7, "ac={ac} > ab+bc={}", ab + bc);
    }

    /// Translating both signatures leaves the distance unchanged;
    /// translating one by `delta` changes a point-mass pair by |delta|.
    #[test]
    fn translation_behaviour(
        a in weighted_points_1d(8),
        delta in -10.0..10.0f64,
    ) {
        let a = normalize(&a);
        let shifted: Vec<(f64, f64)> = a.iter().map(|&(x, w)| (x + delta, w)).collect();
        let d = emd_1d(&a, &shifted).unwrap();
        prop_assert!((d - delta.abs()) < 1e-7, "shift distance {d} vs {}", delta.abs());
    }

    /// Scaling all weights of both signatures leaves Eq. 12 unchanged.
    #[test]
    fn mass_scale_invariance(
        a in signature_2d(6),
        b in signature_2d(6),
        scale in 0.1..100.0f64,
    ) {
        let d1 = emd(&a, &b, &Euclidean).unwrap();
        let a2 = Signature::new(
            a.points().to_vec(),
            a.weights().iter().map(|w| w * scale).collect(),
        ).unwrap();
        let b2 = Signature::new(
            b.points().to_vec(),
            b.weights().iter().map(|w| w * scale).collect(),
        ).unwrap();
        let d2 = emd(&a2, &b2, &Euclidean).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-7 * (1.0 + d1.abs()), "{d1} vs {d2}");
    }

    /// The scratch-backed solver returns bit-identical `TransportPlan`s
    /// (cost, flow, and the flows list) to the allocating one across
    /// random unbalanced and degenerate problems, including repeated
    /// reuse of one dirty scratch across problems of varying shape.
    #[test]
    fn scratch_solver_is_bit_identical(
        problems in prop::collection::vec(transport_problem(), 1..6),
    ) {
        let mut scratch = TransportScratch::new();
        for (costs, supplies, demands) in &problems {
            let fresh = solve_transportation(costs, supplies, demands);
            let reused = solve_transportation_with(costs, supplies, demands, &mut scratch);
            match (fresh, reused) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(f.total_cost().to_bits(), r.total_cost().to_bits());
                    prop_assert_eq!(f.total_flow().to_bits(), r.total_flow().to_bits());
                    prop_assert_eq!(f.flows(), r.flows());
                }
                (f, r) => prop_assert_eq!(f.is_err(), r.is_err(), "error parity"),
            }
        }
    }

    /// `emd_with` through one dirty scratch is bit-identical to `emd`.
    #[test]
    fn emd_with_scratch_is_bit_identical(
        pairs in prop::collection::vec((signature_2d(8), signature_2d(8)), 1..5),
    ) {
        let mut scratch = TransportScratch::new();
        for (a, b) in &pairs {
            let fresh = emd(a, b, &Euclidean).unwrap();
            let reused = emd_with(a, b, &Euclidean, &mut scratch).unwrap();
            prop_assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    /// EMD against a point mass equals the weighted mean distance to it
    /// when the point-mass side has the (weakly) larger mass.
    #[test]
    fn point_mass_closed_form(s in signature_2d(8), px in -20.0..20.0f64, py in -20.0..20.0f64) {
        let s = s.normalized().unwrap();
        let p = Signature::new(vec![vec![px, py]], vec![1.0]).unwrap();
        let d = emd(&s, &p, &Euclidean).unwrap();
        let expected: f64 = s.iter()
            .map(|(pt, w)| {
                let dx = pt[0] - px;
                let dy = pt[1] - py;
                w * (dx * dx + dy * dy).sqrt()
            })
            .sum();
        prop_assert!((d - expected).abs() < 1e-7 * (1.0 + expected), "{d} vs {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The transportation simplex finds the min-cost flow's optimum, on
    /// random unbalanced and degenerate problems with integer marginals
    /// (the half-integer grid of `transport_problem`, doubled).
    #[test]
    fn simplex_matches_min_cost_flow_oracle(problem in transport_problem()) {
        let (costs, supplies, demands) = problem;
        let supplies: Vec<f64> = supplies.iter().map(|s| s * 2.0).collect();
        let demands: Vec<f64> = demands.iter().map(|d| d * 2.0).collect();
        let counts = |masses: &[f64]| masses.iter().map(|&x| x as u64).collect::<Vec<_>>();
        let (cost, flow) = min_cost_flow::solve(&costs, &counts(&supplies), &counts(&demands));
        match solve_transportation(&costs, &supplies, &demands) {
            Ok(plan) => {
                prop_assert!(
                    agrees(plan.total_flow(), flow as f64),
                    "flow {} vs oracle {flow}", plan.total_flow()
                );
                prop_assert!(
                    agrees(plan.total_cost(), cost),
                    "cost {} vs oracle {cost}", plan.total_cost()
                );
            }
            Err(e) => {
                prop_assert_eq!(e, EmdError::ZeroMass);
                prop_assert_eq!(flow, 0);
            }
        }
    }

    /// `emd` is the min-cost flow's cost per unit of flow (Eq. 12), on
    /// 2-D signatures with integer weights, zeros included. With `grid`
    /// set the points snap to a small integer grid, where ground
    /// distances tie and the simplex meets degenerate pivots.
    #[test]
    fn emd_matches_min_cost_flow_oracle(
        grid in 0u8..2,
        a in counted_points_2d(8),
        b in counted_points_2d(8),
    ) {
        let snap = |(points, counts): (Vec<Vec<f64>>, Vec<u64>)| {
            let points = points
                .into_iter()
                .map(|p| {
                    if grid == 1 {
                        p.iter().map(|x| (x / 8.0).round()).collect()
                    } else {
                        p
                    }
                })
                .collect();
            Signature::from_counts(points, &counts).expect("valid signature")
        };
        let (a, b) = (snap(a), snap(b));
        let costs: Vec<f64> = a
            .points()
            .iter()
            .flat_map(|pa| b.points().iter().map(|pb| Euclidean.distance(pa, pb)))
            .collect();
        let counts = |s: &Signature| s.weights().iter().map(|&w| w as u64).collect::<Vec<_>>();
        let (cost, flow) = min_cost_flow::solve(&costs, &counts(&a), &counts(&b));
        match emd(&a, &b, &Euclidean) {
            Ok(d) => {
                prop_assert!(flow > 0);
                let oracle = cost / flow as f64;
                prop_assert!(agrees(d, oracle), "emd {d} vs oracle {oracle}");
            }
            Err(e) => {
                prop_assert_eq!(e, EmdError::ZeroMass);
                prop_assert_eq!(flow, 0);
            }
        }
    }
}
