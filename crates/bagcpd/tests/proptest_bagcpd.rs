//! Property-based tests for the core detector's invariants.

use bagcpd::{
    bootstrap_ci_with, Bag, BootstrapConfig, BootstrapScratch, ConfidenceInterval, Detector,
    DetectorConfig, EmdSolver, GroundMetric, ScoreKind, ScoreScratch, SignatureMethod,
    SolverScratch, Weighting, WindowScorer,
};
use emd::Signature;
use infoest::{DistanceMatrix, EstimatorConfig, LogDistances};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stats::descriptive::quantile_sorted;
use stats::Dirichlet;
use std::cell::Cell;
use std::sync::Once;

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

/// The window scorer over `sigs`, their pairwise EMDs solved through
/// one scratch.
fn scorer(sigs: &[Signature], tau: usize, tau_prime: usize) -> WindowScorer {
    let mut scratch = SolverScratch::new();
    let dist = DistanceMatrix::symmetric_from_fn(sigs.len(), |i, j| {
        EmdSolver::Exact
            .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut scratch)
            .expect("EMD solves")
    });
    WindowScorer::from_distances(dist, tau, tau_prime, EstimatorConfig::default())
}

/// `score_with` through a fresh scratch.
fn score_fresh(s: &WindowScorer, kind: ScoreKind, wr: &[f64], wt: &[f64]) -> f64 {
    s.score_with(kind, wr, wt, &mut ScoreScratch::new())
}

/// `bootstrap_ci_with` through a fresh scratch.
fn ci_fresh(
    s: &WindowScorer,
    kind: ScoreKind,
    w: &[f64],
    cfg: &BootstrapConfig,
    rng: &mut StdRng,
) -> ConfidenceInterval {
    bootstrap_ci_with(s, kind, w, w, cfg, rng, &mut BootstrapScratch::new())
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

    /// Eq. (16) as the per-term scorer computed it.
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

    /// Eq. (17) as the per-term scorer computed it.
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
            let lr = scorer.score_with(ScoreKind::LikelihoodRatio, &wr, &wt, &mut scratch);
            let expect = per_term::score_lr(&dist, tau, tau_prime, &wr, &wt, &est);
            prop_assert_eq!(lr.to_bits(), expect.to_bits(), "LR {} vs {}", lr, expect);
        }
        let kl = scorer.score_with(ScoreKind::SymmetrizedKl, &wr, &wt, &mut scratch);
        let expect = per_term::score_kl(&dist, tau, tau_prime, &wr, &wt, &est);
        prop_assert_eq!(kl.to_bits(), expect.to_bits(), "KL {} vs {}", kl, expect);
    }
}

/// The per-replicate bootstrap path the lane kernel replaced: the weight
/// checks and arithmetic of the scorer and estimators of that time,
/// copied verbatim (their shape asserts left out). Each replicate's
/// weights are drawn alone (`Dirichlet::sample_alpha_into`), then
/// checked, divided by their window's sum, and scored with a branch per
/// skipped term. The kernel must reproduce it bit for bit, and panic
/// where it panics.
mod per_replicate {
    use infoest::{EstimatorConfig, LogDistances};
    use std::ops::Range;

    fn normalize_weights_into(weights: &[f64], probs: &mut Vec<f64>) {
        assert!(!weights.is_empty(), "empty weights");
        let sum: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0) && sum > 0.0,
            "weights must be finite, >= 0, with positive sum"
        );
        probs.clear();
        probs.extend(weights.iter().map(|&w| w / sum));
    }

    fn information_content(log_dists: &[f64], probs: &[f64], cfg: &EstimatorConfig) -> f64 {
        let acc: f64 = log_dists.iter().zip(probs).map(|(&l, &p)| p * l).sum();
        cfg.offset + cfg.scale * acc
    }

    fn auto_entropy(
        log: &LogDistances,
        at: Range<usize>,
        probs: &[f64],
        cfg: &EstimatorConfig,
    ) -> f64 {
        if probs.len() == 1 {
            return cfg.offset;
        }
        let mut acc = 0.0;
        for (i, &wi) in probs.iter().enumerate() {
            if wi >= 1.0 {
                continue;
            }
            let row = &log.row(at.start + i)[at.start..at.end];
            let mut inner = 0.0;
            for (j, (&wj, &l)) in probs.iter().zip(row).enumerate() {
                if j == i || wj == 0.0 {
                    continue;
                }
                inner += wj * l;
            }
            acc += wi * inner / (1.0 - wi);
        }
        cfg.offset + cfg.scale * acc
    }

    fn cross_entropy(
        log: &LogDistances,
        rows: Range<usize>,
        cols: Range<usize>,
        probs_s: &[f64],
        probs_t: &[f64],
        cfg: &EstimatorConfig,
    ) -> f64 {
        let mut acc = 0.0;
        for (i, &wi) in probs_s.iter().enumerate() {
            if wi == 0.0 {
                continue;
            }
            let row = &log.row(rows.start + i)[cols.start..cols.end];
            let mut inner = 0.0;
            for (&wj, &l) in probs_t.iter().zip(row) {
                if wj == 0.0 {
                    continue;
                }
                inner += wj * l;
            }
            acc += wi * inner;
        }
        cfg.offset + cfg.scale * acc
    }

    /// `WindowScorer::score_with` as it scored one replicate: Eq. 16
    /// when `lr`, else Eq. 17.
    #[allow(clippy::too_many_arguments)]
    pub fn score(
        log: &LogDistances,
        tau: usize,
        tau_prime: usize,
        est: &EstimatorConfig,
        lr: bool,
        ref_weights: &[f64],
        test_weights: &[f64],
    ) -> f64 {
        let (mut ref_probs, mut test_probs) = (Vec::new(), Vec::new());
        if lr {
            normalize_weights_into(ref_weights, &mut ref_probs);
            normalize_weights_into(&test_weights[1..], &mut test_probs);
            let trow = log.row(tau);
            let i_ref = information_content(&trow[..tau], &ref_probs, est);
            let i_test = information_content(&trow[tau + 1..], &test_probs, est);
            i_ref - i_test
        } else {
            normalize_weights_into(ref_weights, &mut ref_probs);
            normalize_weights_into(test_weights, &mut test_probs);
            let (r, t) = (&ref_probs, &test_probs);
            let w = tau + tau_prime;
            let h_cross = cross_entropy(log, 0..tau, tau..w, r, t, est);
            let h_ref = auto_entropy(log, 0..tau, r, est);
            let h_test = auto_entropy(log, tau..w, t, est);
            h_cross - 0.5 * (h_ref + h_test)
        }
    }
}

/// Run `f`, returning its value or its panic message. The panics `f`
/// raises are expected, so they are not printed.
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    thread_local! {
        static EXPECTED: Cell<bool> = const { Cell::new(false) };
    }
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTED.get() {
                report(info);
            }
        }));
    });
    EXPECTED.set(true);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    EXPECTED.set(false);
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// Strategy: a window for the lane kernel — τ in 1..=9, τ' in 2..=9, a
/// window matrix with coincident signatures, and nominal weights
/// (`None`: equal, the flat posterior; else Appendix B's, zeros and all
/// mass on one weight included).
#[allow(clippy::type_complexity)]
fn kernel_window(
) -> impl Strategy<Value = (usize, usize, DistanceMatrix, Option<(Vec<f64>, Vec<f64>)>)> {
    (1usize..=9, 2usize..=9).prop_flat_map(|(tau, tau_prime)| {
        (
            Just(tau),
            Just(tau_prime),
            window_matrix(tau + tau_prime),
            (0u8..2, raw_weights(tau), raw_weights(tau_prime))
                .prop_map(|(k, wr, wt)| (k == 1).then_some((wr, wt))),
        )
    })
}

/// Strategy: a replicate count in 2..=203 (most not a multiple of four),
/// a seed, a `dist_floor` of 1e-12, 0.5 or 0 (zero distances then log to
/// `-inf`), and the score.
fn kernel_draws() -> impl Strategy<Value = (usize, u64, f64, ScoreKind)> {
    (
        2usize..=203,
        0..u64::MAX,
        (0usize..3).prop_map(|k| [1e-12, 0.5, 0.0][k]),
        (0u8..2).prop_map(|k| {
            if k == 0 {
                ScoreKind::SymmetrizedKl
            } else {
                ScoreKind::LikelihoodRatio
            }
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lane kernel's replicate scores, and the CI
    /// `bootstrap_ci_with` takes from them, are bit for bit those of
    /// drawing and scoring each replicate alone; where that path
    /// panics, the kernel panics with the same message.
    #[test]
    fn lane_kernel_bit_identical_to_per_replicate_scoring(
        (tau, tau_prime, dist, nominal) in kernel_window(),
        (replicates, seed, floor, kind) in kernel_draws(),
    ) {
        let est = EstimatorConfig { dist_floor: floor, ..EstimatorConfig::default() };
        let scorer = WindowScorer::from_distances(dist.clone(), tau, tau_prime, est);
        let log = LogDistances::from_distances(dist, &est);
        let (wr, wt) = nominal.unwrap_or_else(|| {
            (vec![1.0 / tau as f64; tau], vec![1.0 / tau_prime as f64; tau_prime])
        });
        let (mut alpha_ref, mut alpha_test) = (Vec::new(), Vec::new());
        Dirichlet::alpha_from_weights(&wr, &mut alpha_ref);
        Dirichlet::alpha_from_weights(&wt, &mut alpha_test);
        let mut base = StdRng::seed_from_u64(seed);
        let seeds: Vec<u64> = (0..replicates).map(|_| base.gen()).collect();
        let lr = kind == ScoreKind::LikelihoodRatio;

        let expect = outcome(|| {
            let mut draws_ref = vec![0.0; tau];
            let mut draws_test = vec![0.0; tau_prime];
            seeds
                .iter()
                .map(|&s| {
                    let mut rng = StdRng::seed_from_u64(s);
                    Dirichlet::sample_alpha_into(&alpha_ref, &mut rng, &mut draws_ref);
                    Dirichlet::sample_alpha_into(&alpha_test, &mut rng, &mut draws_test);
                    per_replicate::score(&log, tau, tau_prime, &est, lr, &draws_ref, &draws_test)
                })
                .collect::<Vec<f64>>()
        });
        let actual = outcome(|| {
            let stride = replicates.next_multiple_of(Dirichlet::LANES);
            let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let mut draws_ref = vec![f64::NAN; tau * stride];
            let mut draws_test = vec![f64::NAN; tau_prime * stride];
            Dirichlet::sample_alpha_batch_into(&alpha_ref, &mut rngs, &mut draws_ref);
            Dirichlet::sample_alpha_batch_into(&alpha_test, &mut rngs, &mut draws_test);
            let mut scores = vec![0.0; replicates];
            scorer.score_batch_into(kind, &mut draws_ref, &mut draws_test, &mut scores);
            scores
        });
        match (&expect, &actual) {
            (Ok(e), Ok(a)) => {
                for (r, (e, a)) in e.iter().zip(a).enumerate() {
                    prop_assert_eq!(e.to_bits(), a.to_bits(), "replicate {}: {} vs {}", r, e, a);
                }
            }
            _ => prop_assert_eq!(&expect, &actual),
        }

        // The same replicates through the production entry point: the
        // CI is the reference scores' quantiles, or the same panic.
        let cfg = BootstrapConfig { replicates, alpha: 0.05 };
        let expect_ci = expect.and_then(|mut scores| outcome(move || {
            scores.sort_unstable_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
            let q = |p: f64| quantile_sorted(&scores, p).to_bits();
            (q(cfg.alpha / 2.0), q(1.0 - cfg.alpha / 2.0))
        }));
        let actual_ci = outcome(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ci = bootstrap_ci_with(
                &scorer, kind, &wr, &wt, &cfg, &mut rng, &mut BootstrapScratch::new(),
            );
            (ci.lo.to_bits(), ci.up.to_bits())
        });
        prop_assert_eq!(expect_ci, actual_ci);
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
        let kl = score_fresh(&s, ScoreKind::SymmetrizedKl, &wr_raw, &wt_raw);
        let lr = score_fresh(&s, ScoreKind::LikelihoodRatio, &wr_raw, &wt_raw);
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
        let w = [0.25; 4];
        let w_scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let a = score_fresh(&s, ScoreKind::SymmetrizedKl, &w, &w);
        let b = score_fresh(&s, ScoreKind::SymmetrizedKl, &w_scaled, &w_scaled);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// KL score is symmetric under exchanging the two (equal-size)
    /// windows.
    #[test]
    fn kl_symmetric_under_window_swap(sigs in window(8)) {
        let w = [0.25; 4];
        let forward = score_fresh(&scorer(&sigs, 4, 4), ScoreKind::SymmetrizedKl, &w, &w);
        let mut swapped: Vec<Signature> = sigs[4..].to_vec();
        swapped.extend_from_slice(&sigs[..4]);
        let backward = score_fresh(&scorer(&swapped, 4, 4), ScoreKind::SymmetrizedKl, &w, &w);
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
        let w3 = [1.0 / 3.0; 3];
        let w4 = [0.25; 4];
        let a = score_fresh(&scorer(&sigs, 3, 4), ScoreKind::SymmetrizedKl, &w3, &w4);
        let b = score_fresh(&scorer(&shifted, 3, 4), ScoreKind::SymmetrizedKl, &w3, &w4);
        prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// Bootstrap CIs are ordered, finite, and contain the median
    /// replicate by construction.
    #[test]
    fn bootstrap_ci_well_formed(sigs in window(8), seed in 0u64..500) {
        let s = scorer(&sigs, 4, 4);
        let w = [0.25; 4];
        let mut rng = StdRng::seed_from_u64(seed);
        let ci = ci_fresh(
            &s,
            ScoreKind::SymmetrizedKl,
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
        let w = [0.25; 4];
        let ci_at = |alpha: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            ci_fresh(
                &s,
                ScoreKind::SymmetrizedKl,
                &w,
                &BootstrapConfig { replicates: 128, alpha },
                &mut rng,
            )
        };
        let tight = ci_at(0.5);
        let wide = ci_at(0.05);
        prop_assert!(wide.up - wide.lo >= tight.up - tight.lo - 1e-12);
    }
}

/// Strategy: a symmetric `w x w` matrix of positive distances (none
/// below the default floor) with a zero diagonal.
fn positive_matrix(w: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec(0.01..100.0f64, w * (w - 1) / 2).prop_map(move |upper| {
        let mut upper = upper.into_iter();
        DistanceMatrix::symmetric_from_fn(w, |_, _| upper.next().expect("sized exactly"))
    })
}

/// Both scores of a τ = τ' = 4 window over `m` with constants `est`.
fn scores_4x4(m: &DistanceMatrix, wr: &[f64], wt: &[f64], est: EstimatorConfig) -> [f64; 2] {
    let s = WindowScorer::from_distances(m.clone(), 4, 4, est);
    [ScoreKind::LikelihoodRatio, ScoreKind::SymmetrizedKl]
        .map(|kind| s.score_with(kind, wr, wt, &mut ScoreScratch::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Relabeling the items inside each window leaves both scores
    /// unchanged (`S_t` stays first in the test window, as Eq. 16
    /// anchors on it): the estimators sum over sets.
    #[test]
    fn scores_permutation_invariant_within_windows(
        m in positive_matrix(8),
        wr in prop::collection::vec(0.01..10.0f64, 4),
        wt in prop::collection::vec(0.01..10.0f64, 4),
    ) {
        let perm = [3, 2, 1, 0, 4, 7, 6, 5];
        let pm = DistanceMatrix::from_fn(8, 8, |i, j| m.get(perm[i], perm[j]));
        let pwr: Vec<f64> = perm[..4].iter().map(|&i| wr[i]).collect();
        let pwt: Vec<f64> = perm[4..].iter().map(|&i| wt[i - 4]).collect();
        let est = EstimatorConfig::default();
        let (a, b) = (scores_4x4(&m, &wr, &wt, est), scores_4x4(&pm, &pwr, &pwt, est));
        for (a, b) in a.iter().zip(b) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// Scaling every distance by `f` adds `ln f` to every estimate,
    /// which cancels in both scores.
    #[test]
    fn scores_invariant_under_uniform_distance_scaling(
        m in positive_matrix(8),
        wr in prop::collection::vec(0.01..10.0f64, 4),
        wt in prop::collection::vec(0.01..10.0f64, 4),
        factor in 1.1..10.0f64,
    ) {
        let scaled = DistanceMatrix::from_fn(8, 8, |i, j| m.get(i, j) * factor);
        let est = EstimatorConfig::default();
        let (a, b) = (scores_4x4(&m, &wr, &wt, est), scores_4x4(&scaled, &wr, &wt, est));
        for (a, b) in a.iter().zip(b) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// The estimators' offset `c` cancels in both scores and their scale
    /// `d` multiplies them.
    #[test]
    fn estimator_offset_cancels_and_scale_multiplies(
        m in positive_matrix(8),
        wr in prop::collection::vec(0.01..10.0f64, 4),
        wt in prop::collection::vec(0.01..10.0f64, 4),
        offset in -10.0..10.0f64,
        scale in 0.1..10.0f64,
    ) {
        let base = scores_4x4(&m, &wr, &wt, EstimatorConfig::default());
        let est = EstimatorConfig { offset, scale, ..EstimatorConfig::default() };
        for (b, s) in base.iter().zip(scores_4x4(&m, &wr, &wt, est)) {
            prop_assert!((s - scale * b).abs() < 1e-9 * (1.0 + s.abs()), "{s} vs {scale} * {b}");
        }
    }
}

/// A fixed 16-bag 2-D sequence built from a formula (no RNG): bag sizes
/// cycle through 20..=24 and the level moves at t = 8.
fn formula_bags() -> Vec<Bag> {
    (0..16usize)
        .map(|t| {
            let level = if t < 8 { 0.0 } else { 1.5 };
            Bag::new(
                (0..20 + t % 5)
                    .map(|i| {
                        vec![
                            level + ((i * 7 + t * 3) % 13) as f64 * 0.25,
                            ((i * 5 + t) % 11) as f64 * 0.2 - 0.5 * level,
                        ]
                    })
                    .collect(),
            )
        })
        .collect()
}

/// `[score, ci.lo, ci.up]` bits of every inspection point of
/// `Detector::analyze(&formula_bags(), 17)` under each quantizer, as an
/// earlier version of the batch detector produced them. k-medoids and
/// LVQ have no CLI flag, so no recorded score log can reach them: this
/// table is what pins their bits across versions. Only the histogram
/// row's signature pairs fill transport tableaus of 128 cells or more,
/// which start from the least-cost rule; the other rows pin the
/// northwest corner's bits.
const PINNED: [(SignatureMethod, [[u64; 3]; 9]); 4] = [
    (
        SignatureMethod::KMeans { k: 4 },
        [
            [0xbfc5c09622be3ace, 0xbfdecb9c38b8b123, 0x3fc5d83f5b4720f1],
            [0xbf936686fbfaeed8, 0xbfd46ba459130fc4, 0x3fdf06ea1e43012a],
            [0x3fbbc56020b55615, 0xbfd485558c804e2a, 0x3fe3a243f439f203],
            [0x3fd516ee14cea69b, 0xbfc54960146faafc, 0x3fe798f0dcb26751],
            [0x3fea8947bed4f4ca, 0x3fe5705e73c926bc, 0x3ff1e3134d290d94],
            [0x3fd8f63fb94bf300, 0xbfce41895ae6db02, 0x3ff045c03c7a83e3],
            [0xbf89650932309e20, 0xbfdab588be075069, 0x3fdf887dc39049b2],
            [0xbfc77774759b8680, 0xbfdf0fd92a8c13bc, 0x3fce38464336e6c9],
            [0xbfc5d7e3f8ed8995, 0xbfdd742f4e8a5248, 0x3fcbc547d5eabac4],
        ],
    ),
    (
        SignatureMethod::KMedoids { k: 3 },
        [
            [0xbfcf52254c90cedc, 0xbfe3577b946cf2b7, 0x3fc517062e96e3a8],
            [0xbfc9f30f7c8c0894, 0xbfe3a1bae8e212b3, 0x3fd0dccf1ce830ea],
            [0x3face1de4051268c, 0xbfde02b7d32eb683, 0x3fe40af2cbb3072b],
            [0x3fd6139b8437523b, 0xbfc49f68d4f0e43e, 0x3fea677625bb57da],
            [0x3fe989c1e015d1e3, 0x3fe3c104651fef78, 0x3ff1a7fc925da1eb],
            [0x3fd4e60e33199e8d, 0xbfc945f83fbe60c0, 0x3fe7d9dc6459746f],
            [0x3fa6d05d942fac84, 0xbfd2f23439dde5d0, 0x3fe02d94af03234e],
            [0xbfbf22e6c9195604, 0xbfd9041cd1654353, 0x3fcabe2757c3a608],
            [0xbfa51d43fe5abf80, 0xbfd734f4bb349ea4, 0x3fe0a5bfdee47666],
        ],
    ),
    (
        SignatureMethod::Lvq { k: 5 },
        [
            [0xbfc704eac1805a80, 0xbfdda317f02ee621, 0x3fc6157d8e45ac56],
            [0xbfbe2acfaf81f9e2, 0xbfde426f779ad6fc, 0x3fd693d618b84a94],
            [0x3fb136d9958b17a3, 0xbfdd7a58246c6f5e, 0x3fe34f7e890dd7e2],
            [0x3fd83f607a1e9614, 0xbfc14e472364e8bc, 0x3fec3d12b53f3c30],
            [0x3fee1565f7b7c8f8, 0x3fe677ed45add06f, 0x3ff7727f411b758e],
            [0x3fda772c8a68154f, 0xbfdcccf221b42342, 0x3ff5aabfe882da3c],
            [0xbfa9e72695aa7d44, 0xbfe7607e1c9a1a15, 0x3fe536a882b110bb],
            [0xbfd69326b0912b62, 0xbfe9e235f13184c4, 0x3fc9895b9d4bea08],
            [0xbfc3750a208f48c2, 0xbfe5f1693855af12, 0x3fe49b34a9c0c5e6],
        ],
    ),
    (
        SignatureMethod::Histogram { width: 0.5 },
        [
            [0xbfd0c116d6ddb434, 0xbfe87ed171b4603a, 0x3fd9a0548dbc85fd],
            [0xbfd3cb96be61935a, 0xbfeecf7a8d0731ad, 0x3fd777e6e30b5d97],
            [0x3fa2ff401188a2f4, 0xbfeae7a845fc4c5d, 0x3fece1671102af0f],
            [0x3fdf4ae1d720ab24, 0xbfd265e082ea47f1, 0x3ff4652d649e5c97],
            [0x3ff35bd5cb7c682c, 0x3feb1cad990cb52f, 0x3ffe5a5b5df009a9],
            [0x3fdbb31808a543c6, 0xbfe352e6ce9bc783, 0x3ff77f1a80736612],
            [0xbfa91fda5369e558, 0xbfeaf4e70305db0d, 0x3fe8a7b2d85130aa],
            [0xbfd63be4651e91f6, 0xbfecc0ab9ceac640, 0x3fde56faca094a9e],
            [0xbfc25ec6163cb154, 0xbfe8cbb8bdf72e91, 0x3fefc000abd04059],
        ],
    ),
];

/// The bits of [`PINNED`]'s k-means row under the two other scoring
/// paths, the LR score (Eq. 16) and the discounted weights (Eq. 15), as
/// an earlier version of the batch detector produced them.
const PINNED_KMEANS_PATHS: [(ScoreKind, Weighting, [[u64; 3]; 9]); 2] = [
    (
        ScoreKind::LikelihoodRatio,
        Weighting::Equal,
        [
            [0xbfc713be14df5862, 0xbff3bbc8667aa8bc, 0x3fde86ccc2e50ff2],
            [0xbfdd45f70aee73ac, 0xbfeeab08eb12bb43, 0xbfb971f5d1eda7f5],
            [0xbfe271c26304ee11, 0xbff0755b66a2d892, 0xbfc6d29dfc8f49fd],
            [0xbfee04a4063da944, 0xbff53e4255b9e456, 0xbfe6bbe2d62fec94],
            [0x3fef441c6014017a, 0x3fe58162bfc4ecd2, 0x3ff74b93b47993ec],
            [0x3fef8a8940ee89ce, 0x3fd99238b3f9d8f2, 0x3ffd3e32122e7f7a],
            [0x3fddd5262ccf6050, 0x3fb9277326fcf58f, 0x3fec614f359173af],
            [0x3fc9a5be420eb5bc, 0xbfdeba07c68ed729, 0x3feb32c736b49110],
            [0xbfc4da6be9c2e816, 0xbfee33e524f00c15, 0x3fda37683e811c91],
        ],
    ),
    (
        ScoreKind::SymmetrizedKl,
        Weighting::Discounted,
        [
            [0xbfc0b78dd62cfa2e, 0xbfe51d6c5fcc9872, 0x3fd5565c57379605],
            [0xbfa014522707812c, 0xbfda58394076d365, 0x3fde1398f28d2196],
            [0xbf77c85d6a2dcb68, 0xbfd51b4e9b5e5e25, 0x3fdbd7eecd5ffdb5],
            [0x3fa946e601f1a1d8, 0xbfe1ad5924d61cc4, 0x3fe2492ec2f70583],
            [0x3feb25834ebb4f00, 0x3fe4fd960b301a1a, 0x3ff366fd253a2af3],
            [0x3fc17e643ab2c6d9, 0xbfe00000d8da58a9, 0x3fec002dfd85773a],
            [0xbfc4f4becf314056, 0xbfe6122b7344d36a, 0x3fd221fe14d23400],
            [0xbfc295eb857d2790, 0xbfe00af0d929e923, 0x3fc7d1d64528c696],
            [0xbfc002f41fc2442f, 0xbfde433cd299f1cb, 0x3fd5001801c4bf67],
        ],
    ),
];

#[test]
fn batch_detector_bits_match_recorded_values() {
    let bags = formula_bags();
    let rows = PINNED
        .into_iter()
        .map(|(method, bits)| (method, ScoreKind::SymmetrizedKl, Weighting::Equal, bits))
        .chain(
            PINNED_KMEANS_PATHS
                .into_iter()
                .map(|(score, weighting, bits)| {
                    (SignatureMethod::KMeans { k: 4 }, score, weighting, bits)
                }),
        );
    for (method, score, weighting, expected) in rows {
        let detector = Detector::new(DetectorConfig {
            tau: 4,
            tau_prime: 4,
            score,
            weighting,
            signature: method.clone(),
            ..DetectorConfig::default()
        })
        .expect("valid config");
        let actual: Vec<[u64; 3]> = detector
            .analyze(&bags, 17)
            .expect("analysis runs")
            .points
            .iter()
            .map(|p| [p.score.to_bits(), p.ci.lo.to_bits(), p.ci.up.to_bits()])
            .collect();
        let table: String = actual
            .iter()
            .map(|[s, lo, up]| format!("[{s:#018x}, {lo:#018x}, {up:#018x}],\n"))
            .collect();
        assert_eq!(
            actual, expected,
            "{method:?} {score:?} {weighting:?} bits moved; now:\n{table}"
        );
    }
}

/// The exact oracle of the smallest window, τ = τ' = 2 with equal
/// weights, over signatures at 1-D positions: the window matrix, the
/// scorer over it, and the log distance `L(i, j)` between window items
/// (0 = t-2, 1 = t-1, 2 = t, 3 = t+1).
fn tiny_window() -> (WindowScorer, impl Fn(usize, usize) -> f64) {
    let x: [f64; 4] = [0.0, 1.3, 3.1, 3.9];
    let dist = DistanceMatrix::symmetric_from_fn(4, |i, j| (x[i] - x[j]).abs());
    let scorer = WindowScorer::from_distances(dist, 2, 2, EstimatorConfig::default());
    (scorer, move |i: usize, j: usize| (x[i] - x[j]).abs().ln())
}

/// The nominal scores equal Eqs. 16 and 17 written out by hand.
#[test]
fn tiny_window_nominal_scores_match_the_paper_formulas() {
    let (scorer, l) = tiny_window();
    let w = [0.5, 0.5];
    let lr = score_fresh(&scorer, ScoreKind::LikelihoodRatio, &w, &w);
    let expect_lr = 0.5 * l(2, 0) + 0.5 * l(2, 1) - l(2, 3);
    assert!((lr - expect_lr).abs() < 1e-12, "LR {lr} vs {expect_lr}");
    // H(ref, test) - (H(ref) + H(test)) / 2: with two items per window
    // each auto-entropy is the one log distance inside it.
    let kl = score_fresh(&scorer, ScoreKind::SymmetrizedKl, &w, &w);
    let expect_kl = (l(0, 2) + l(0, 3) + l(1, 2) + l(1, 3)) / 4.0 - (l(0, 1) + l(2, 3)) / 2.0;
    assert!((kl - expect_kl).abs() < 1e-12, "KL {kl} vs {expect_kl}");
}

/// The LR bootstrap CI sits at the exact quantiles of its replicates.
///
/// Both posteriors are Dir(1, 1), so the reference weight of t-2 is
/// `p ~ U(0, 1)`, and the test window's one remaining weight normalizes
/// to 1: each replicate is `p·L(t, t-2) + (1-p)·L(t, t-1) - L(t, t+1)`,
/// uniform between its values at p = 0 and p = 1. With T replicates the
/// empirical CDF is within ε = √(ln(2/δ)/(2T)) of the exact one except
/// with probability δ (DKW), and a linearly interpolated quantile adds
/// at most 1/T.
#[test]
fn lr_bootstrap_ci_matches_exact_uniform_quantiles() {
    const T: usize = 100_000;
    let (scorer, l) = tiny_window();
    let ends = [l(2, 1) - l(2, 3), l(2, 0) - l(2, 3)];
    let (lo, hi) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
    let cdf = |x: f64| ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
    let cfg = BootstrapConfig {
        replicates: T,
        alpha: 0.05,
    };
    let delta: f64 = 1e-6;
    let bound = (f64::ln(2.0 / delta) / (2.0 * T as f64)).sqrt() + 1.0 / T as f64;
    let mut scratch = BootstrapScratch::new();
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = [0.5, 0.5];
        let ci = bootstrap_ci_with(
            &scorer,
            ScoreKind::LikelihoodRatio,
            &w,
            &w,
            &cfg,
            &mut rng,
            &mut scratch,
        );
        for (end, q) in [(ci.lo, cfg.alpha / 2.0), (ci.up, 1.0 - cfg.alpha / 2.0)] {
            let off = (cdf(end) - q).abs();
            assert!(
                off <= bound,
                "seed {seed}: F({end}) = {} vs {q} (bound {bound})",
                cdf(end)
            );
        }
    }
}
