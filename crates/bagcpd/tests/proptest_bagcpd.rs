//! Property-based tests for the core detector's invariants.

use bagcpd::{
    bootstrap_ci, equal_weights, Bag, BootstrapConfig, Detector, DetectorConfig, EmdSolver,
    GroundMetric, ScoreKind, ScoreScratch, SignatureMethod, SolverScratch, TieredConfig,
    WindowScorer,
};
use emd::Signature;
use infoest::{DistanceMatrix, EstimatorConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a window of 1-D signatures at given positions with 2-point
/// support (jittered so signatures never coincide).
fn window(len: usize) -> impl Strategy<Value = Vec<Signature>> {
    prop::collection::vec((-20.0..20.0f64, 0.1..3.0f64), len..=len).prop_map(|specs| {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(pos, spread))| {
                // Deterministic per-index jitter keeps signatures distinct.
                let jitter = (i as f64 + 1.0) * 1e-3;
                Signature::new(
                    vec![vec![pos + jitter], vec![pos + spread + jitter]],
                    vec![1.0, 1.5],
                )
                .expect("valid signature")
            })
            .collect()
    })
}

fn scorer(sigs: &[Signature], tau: usize, tau_prime: usize) -> WindowScorer {
    WindowScorer::new(
        sigs,
        tau,
        tau_prime,
        &GroundMetric::Euclidean,
        EstimatorConfig::default(),
    )
    .expect("scorer builds")
}

/// The per-term arithmetic the log-domain scores replaced, copied
/// verbatim from the estimators of that time: one `ln` and one `w / sum`
/// per term of every evaluation. The scores must reproduce it bit for
/// bit.
mod per_term {
    use infoest::{DistanceMatrix, EstimatorConfig};
    use std::ops::Range;

    fn log_dist(cfg: &EstimatorConfig, d: f64) -> f64 {
        d.max(cfg.dist_floor).ln()
    }

    fn check_weights(weights: &[f64], what: &str) -> f64 {
        assert!(!weights.is_empty(), "{what}: empty weights");
        let sum: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0) && sum > 0.0,
            "{what}: weights must be finite, >= 0, with positive sum"
        );
        sum
    }

    fn information_content(dists: &[f64], weights: &[f64], cfg: &EstimatorConfig) -> f64 {
        assert_eq!(dists.len(), weights.len());
        let sum = check_weights(weights, "information_content");
        let acc: f64 = dists
            .iter()
            .zip(weights)
            .map(|(&d, &w)| (w / sum) * log_dist(cfg, d))
            .sum();
        cfg.offset + cfg.scale * acc
    }

    fn auto_entropy_block(
        dist: &DistanceMatrix,
        at: Range<usize>,
        weights: &[f64],
        cfg: &EstimatorConfig,
    ) -> f64 {
        let sum = check_weights(weights, "auto_entropy");
        let n = weights.len();
        if n == 1 {
            return cfg.offset;
        }
        let mut acc = 0.0;
        for i in 0..n {
            let wi = weights[i] / sum;
            if wi >= 1.0 {
                continue;
            }
            let row = &dist.row(at.start + i)[at.start..at.end];
            let mut inner = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let wj = weights[j] / sum;
                if wj == 0.0 {
                    continue;
                }
                inner += wj * log_dist(cfg, row[j]);
            }
            acc += wi * inner / (1.0 - wi);
        }
        cfg.offset + cfg.scale * acc
    }

    fn cross_entropy_block(
        dist: &DistanceMatrix,
        rows: Range<usize>,
        cols: Range<usize>,
        weights_s: &[f64],
        weights_t: &[f64],
        cfg: &EstimatorConfig,
    ) -> f64 {
        let sum_s = check_weights(weights_s, "cross_entropy");
        let sum_t = check_weights(weights_t, "cross_entropy");
        let mut acc = 0.0;
        for (i, &wi) in weights_s.iter().enumerate() {
            if wi == 0.0 {
                continue;
            }
            let row = &dist.row(rows.start + i)[cols.start..cols.end];
            let mut inner = 0.0;
            for (j, &wj) in weights_t.iter().enumerate() {
                if wj == 0.0 {
                    continue;
                }
                inner += (wj / sum_t) * log_dist(cfg, row[j]);
            }
            acc += (wi / sum_s) * inner;
        }
        cfg.offset + cfg.scale * acc
    }

    /// Eq. (16) as `WindowScorer::score_lr` computed it.
    pub fn score_lr(
        dist: &DistanceMatrix,
        tau: usize,
        tau_prime: usize,
        ref_weights: &[f64],
        test_weights: &[f64],
        est: &EstimatorConfig,
    ) -> f64 {
        let trow = dist.row(tau);
        let i_ref = information_content(&trow[..tau], ref_weights, est);
        let i_test = information_content(&trow[tau + 1..tau + tau_prime], &test_weights[1..], est);
        i_ref - i_test
    }

    /// Eq. (17) as `WindowScorer::score_kl` computed it.
    pub fn score_kl(
        dist: &DistanceMatrix,
        tau: usize,
        tau_prime: usize,
        ref_weights: &[f64],
        test_weights: &[f64],
        est: &EstimatorConfig,
    ) -> f64 {
        let w = tau + tau_prime;
        let h_cross = cross_entropy_block(dist, 0..tau, tau..w, ref_weights, test_weights, est);
        let h_ref = auto_entropy_block(dist, 0..tau, ref_weights, est);
        let h_test = auto_entropy_block(dist, tau..w, test_weights, est);
        h_cross - 0.5 * (h_ref + h_test)
    }
}

/// Strategy: one window distance — exactly 0, below the default
/// `dist_floor` of 1e-12, exactly at it, or an ordinary EMD.
fn distance() -> impl Strategy<Value = f64> {
    (0u8..6, 0.0..1.0f64).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => u * 1e-12,
        2 => 1e-12,
        _ => 1e-6 + u * 40.0,
    })
}

/// Strategy: a symmetric `w x w` window matrix of [`distance`]s with a
/// zero diagonal.
fn window_matrix(w: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec(distance(), w * (w - 1) / 2).prop_map(move |upper| {
        let mut upper = upper.into_iter();
        DistanceMatrix::symmetric_from_fn(w, |_, _| upper.next().expect("sized exactly"))
    })
}

/// Strategy: `n` raw window weights, about a third of them exactly zero
/// (never all), and in one case in four all mass on a single weight.
fn raw_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec((0u8..3, 0.01..5.0f64), n),
        0u8..4,
        0..n,
    )
        .prop_map(move |(draws, mode, hot)| {
            let mut w: Vec<f64> = draws
                .iter()
                .map(|&(k, v)| if k == 0 { 0.0 } else { v })
                .collect();
            if mode == 0 {
                w.fill(0.0);
                w[hot] = draws[hot].1;
            } else if w.iter().all(|&x| x == 0.0) {
                w[n - 1] = draws[n - 1].1;
            }
            w
        })
}

/// Strategy: a window shape with τ and τ' in 2..=8, its distance matrix,
/// both windows' raw weights, and a `dist_floor`.
#[allow(clippy::type_complexity)]
fn score_case() -> impl Strategy<Value = (usize, usize, DistanceMatrix, Vec<f64>, Vec<f64>, f64)> {
    (2usize..=8, 2usize..=8).prop_flat_map(|(tau, tau_prime)| {
        (
            Just(tau),
            Just(tau_prime),
            window_matrix(tau + tau_prime),
            raw_weights(tau),
            raw_weights(tau_prime),
            (0u8..2).prop_map(|k| if k == 0 { 1e-12 } else { 0.5 }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The log-domain scores are bit-identical to the per-term
    /// arithmetic they replaced.
    #[test]
    fn log_domain_scores_bit_identical_to_per_term_arithmetic(
        (tau, tau_prime, dist, wr, wt, floor) in score_case(),
    ) {
        let est = EstimatorConfig { dist_floor: floor, ..EstimatorConfig::default() };
        let scorer = WindowScorer::from_distances(dist.clone(), tau, tau_prime, est);
        // One scratch through both scores, so the second reads buffers
        // the first left at another length.
        let mut scratch = ScoreScratch::new();
        // Eq. 16 drops S_t's own weight: it needs mass elsewhere.
        if wt[1..].iter().any(|&w| w > 0.0) {
            let lr = scorer.score_lr(&wr, &wt, &mut scratch);
            let expect = per_term::score_lr(&dist, tau, tau_prime, &wr, &wt, &est);
            prop_assert_eq!(lr.to_bits(), expect.to_bits(), "LR {} vs {}", lr, expect);
        }
        let kl = scorer.score_kl(&wr, &wt, &mut scratch);
        let expect = per_term::score_kl(&dist, tau, tau_prime, &wr, &wt, &est);
        prop_assert_eq!(kl.to_bits(), expect.to_bits(), "KL {} vs {}", kl, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both scores are finite for arbitrary windows and weights.
    #[test]
    fn scores_always_finite(
        sigs in window(8),
        wr_raw in prop::collection::vec(0.05..5.0f64, 4),
        wt_raw in prop::collection::vec(0.05..5.0f64, 4),
    ) {
        let s = scorer(&sigs, 4, 4);
        let kl = s.score(ScoreKind::SymmetrizedKl, &wr_raw, &wt_raw);
        let lr = s.score(ScoreKind::LikelihoodRatio, &wr_raw, &wt_raw);
        prop_assert!(kl.is_finite(), "KL {kl}");
        prop_assert!(lr.is_finite(), "LR {lr}");
    }

    /// Scores are invariant to rescaling all the weights (they are
    /// normalized internally).
    #[test]
    fn scores_weight_scale_invariant(
        sigs in window(8),
        scale in 0.1..50.0f64,
    ) {
        let s = scorer(&sigs, 4, 4);
        let w = equal_weights(4);
        let w_scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let a = s.score(ScoreKind::SymmetrizedKl, &w, &w);
        let b = s.score(ScoreKind::SymmetrizedKl, &w_scaled, &w_scaled);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// KL score is symmetric under exchanging the two (equal-size)
    /// windows.
    #[test]
    fn kl_symmetric_under_window_swap(sigs in window(8)) {
        let w = equal_weights(4);
        let forward = scorer(&sigs, 4, 4).score(ScoreKind::SymmetrizedKl, &w, &w);
        let mut swapped: Vec<Signature> = sigs[4..].to_vec();
        swapped.extend_from_slice(&sigs[..4]);
        let backward = scorer(&swapped, 4, 4).score(ScoreKind::SymmetrizedKl, &w, &w);
        prop_assert!((forward - backward).abs() < 1e-9, "{forward} vs {backward}");
    }

    /// Translating every signature leaves both scores unchanged (the
    /// EMD metric space is translation invariant).
    #[test]
    fn scores_translation_invariant(sigs in window(7), delta in -50.0..50.0f64) {
        let shifted: Vec<Signature> = sigs
            .iter()
            .map(|s| {
                Signature::new(
                    s.points().iter().map(|p| vec![p[0] + delta]).collect(),
                    s.weights().to_vec(),
                )
                .expect("valid")
            })
            .collect();
        let w3 = equal_weights(3);
        let w4 = equal_weights(4);
        let a = scorer(&sigs, 3, 4).score(ScoreKind::SymmetrizedKl, &w3, &w4);
        let b = scorer(&shifted, 3, 4).score(ScoreKind::SymmetrizedKl, &w3, &w4);
        prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// Bootstrap CIs are ordered, finite, and contain the median
    /// replicate by construction.
    #[test]
    fn bootstrap_ci_well_formed(sigs in window(8), seed in 0u64..500) {
        let s = scorer(&sigs, 4, 4);
        let w = equal_weights(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let ci = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig { replicates: 64, ..Default::default() },
            &mut rng,
        );
        prop_assert!(ci.lo.is_finite() && ci.up.is_finite());
        prop_assert!(ci.lo <= ci.up);
    }

    /// Larger alpha (lower confidence) never widens the interval.
    #[test]
    fn ci_width_monotone_in_alpha(sigs in window(8), seed in 0u64..200) {
        let s = scorer(&sigs, 4, 4);
        let w = equal_weights(4);
        let ci_at = |alpha: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            bootstrap_ci(
                &s,
                ScoreKind::SymmetrizedKl,
                &w,
                &w,
                &BootstrapConfig { replicates: 128, alpha },
                &mut rng,
            )
        };
        let tight = ci_at(0.5);
        let wide = ci_at(0.05);
        prop_assert!(wide.up - wide.lo >= tight.up - tight.lo - 1e-12);
    }

    /// Tiered exact mode is bit-identical to the exact solver through
    /// the whole pipeline: quantization, banded distances, scores,
    /// bootstrap CIs, and alert decisions.
    #[test]
    fn tiered_exact_mode_detection_is_bit_identical(
        levels in prop::collection::vec(-5.0..5.0f64, 10..=14),
        seed in 0u64..200,
    ) {
        let bags: Vec<Bag> = levels
            .iter()
            .map(|&lv| Bag::from_scalars((0..12).map(move |i| lv + i as f64 * 0.25)))
            .collect();
        let base = DetectorConfig {
            tau: 3,
            tau_prime: 3,
            signature: SignatureMethod::Histogram { width: 0.5 },
            bootstrap: BootstrapConfig { replicates: 32, ..Default::default() },
            ..Default::default()
        };
        let exact = Detector::new(DetectorConfig { solver: EmdSolver::Exact, ..base.clone() })
            .unwrap()
            .analyze(&bags, seed)
            .unwrap();
        let tiered = Detector::new(DetectorConfig {
            solver: EmdSolver::Tiered(TieredConfig::default()),
            ..base
        })
        .unwrap()
        .analyze(&bags, seed)
        .unwrap();
        prop_assert_eq!(exact, tiered);
    }

    /// Bounded-error mode stays within its epsilon of the exact value
    /// on arbitrary equal-mass signature pairs.
    #[test]
    fn tiered_bounded_mode_within_epsilon(
        sigs in window(2),
        eps in 0.001..1.0f64,
    ) {
        let metric = GroundMetric::Euclidean;
        let mut scratch = SolverScratch::new();
        let exact = EmdSolver::Exact
            .distance_with(&sigs[0], &sigs[1], &metric, &mut scratch)
            .unwrap();
        let bounded = EmdSolver::Tiered(TieredConfig { epsilon: Some(eps), ..Default::default() })
            .distance_with(&sigs[0], &sigs[1], &metric, &mut scratch)
            .unwrap();
        prop_assert!(
            (bounded - exact).abs() <= eps + 1e-6,
            "bounded {bounded} vs exact {exact}, eps {eps}"
        );
    }

    /// Exact-mode k-NN pruning is lossless: `nearest_with` under the
    /// tiered solver returns exactly the exact solver's neighbor set.
    #[test]
    fn tiered_nearest_matches_exact(sigs in window(10), k in 1usize..5) {
        let metric = GroundMetric::Euclidean;
        let (query, candidates) = sigs.split_first().unwrap();
        let mut scratch = SolverScratch::new();
        let mut exact_out = Vec::new();
        let mut tiered_out = Vec::new();
        EmdSolver::Exact
            .nearest_with(query, candidates, k, &metric, &mut scratch, &mut exact_out)
            .unwrap();
        EmdSolver::Tiered(TieredConfig::default())
            .nearest_with(query, candidates, k, &metric, &mut scratch, &mut tiered_out)
            .unwrap();
        prop_assert_eq!(exact_out, tiered_out);
    }
}
