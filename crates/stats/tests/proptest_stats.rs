//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use stats::{quantile, seeded_rng, Categorical, Dirichlet, Summary};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles are bounded by min/max and monotone in q.
    #[test]
    fn quantile_bounds_and_monotonicity(
        xs in prop::collection::vec(-1e6..1e6f64, 1..50),
        q1 in 0.0..1.0f64,
        q2 in 0.0..1.0f64,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&xs, lo);
        let v_hi = quantile(&xs, hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
        prop_assert!(v_lo <= v_hi + 1e-9);
    }

    /// Quantile is invariant to input permutation.
    #[test]
    fn quantile_permutation_invariant(
        mut xs in prop::collection::vec(-100.0..100.0f64, 2..30),
        q in 0.0..1.0f64,
    ) {
        let before = quantile(&xs, q);
        xs.reverse();
        prop_assert_eq!(before, quantile(&xs, q));
    }

    /// Summary invariants: min <= q1 <= median <= q3 <= max, and the
    /// mean lies within [min, max].
    #[test]
    fn summary_ordering(xs in prop::collection::vec(-1e3..1e3f64, 2..60)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.q1 + 1e-12);
        prop_assert!(s.q1 <= s.median + 1e-12);
        prop_assert!(s.median <= s.q3 + 1e-12);
        prop_assert!(s.q3 <= s.max + 1e-12);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
    }

    /// Dirichlet samples always lie on the simplex, for arbitrary
    /// positive concentrations.
    #[test]
    fn dirichlet_on_simplex(
        alpha in prop::collection::vec(0.05..20.0f64, 1..12),
        seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(seed);
        let mut x = vec![0.0; alpha.len()];
        Dirichlet::sample_alpha_into(&alpha, &mut rng, &mut x);
        let sum: f64 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        prop_assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Categorical sampling never emits an index with zero weight and
    /// always emits a valid index.
    #[test]
    fn categorical_support(
        weights in prop::collection::vec(0.0..5.0f64, 2..10),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights);
        let mut rng = seeded_rng(seed);
        for _ in 0..64 {
            let k = c.sample(&mut rng);
            prop_assert!(k < weights.len());
            prop_assert!(weights[k] > 0.0, "drew zero-weight category {k}");
        }
    }

    /// sample_counts conserves the total.
    #[test]
    fn categorical_counts_conserve_total(
        weights in prop::collection::vec(0.1..5.0f64, 2..8),
        n in 0u64..500,
        seed in 0u64..100,
    ) {
        let c = Categorical::new(&weights);
        let mut rng = seeded_rng(seed);
        let counts = c.sample_counts(n, &mut rng);
        prop_assert_eq!(counts.iter().sum::<u64>(), n);
    }
}
