//! Bayesian-bootstrap confidence intervals for change-point scores
//! (§4.2, Eqs. 19, 21–22).
//!
//! At each inspection point the window weights are resampled `T` times
//! from the Dirichlet posteriors
//! `{ψ_{t-τ}, …} ~ Dir(τ ψ_{t-τ}, …)` and `{ψ_t, …} ~ Dir(τ' ψ_t, …)`
//! (Appendix B; for equal weights these are the flat `Dir(1, …, 1)` of
//! Appendix A). The score is recomputed for each replicate — cheaply,
//! because the EMD matrix is fixed — and the `α/2` and `1-α/2` empirical
//! quantiles form the confidence interval.
//! The replicates are drawn component-major and scored four lanes at a
//! time, each with its own RNG stream and its scalar arithmetic, so every
//! score and CI is bit for bit that of one replicate at a time.

use crate::score::{ScoreKind, WindowScorer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use stats::descriptive::quantile_sorted;
use stats::Dirichlet;

/// Configuration of the Bayesian bootstrap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates `T`.
    pub replicates: usize,
    /// Significance level `α` (the CI covers `1 - α`).
    pub alpha: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            replicates: 200,
            alpha: 0.05,
        }
    }
}

impl BootstrapConfig {
    /// Check parameters.
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicates < 2 {
            return Err("bootstrap replicates must be >= 2".into());
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err("alpha must be in (0, 1)".into());
        }
        Ok(())
    }
}

/// A change-point score with its bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound `θ_lo` (the `α/2` quantile).
    pub lo: f64,
    /// Upper bound `θ_up` (the `1 - α/2` quantile).
    pub up: f64,
}

/// Reusable buffers for bootstrap replicate evaluation: per-replicate
/// seeds and RNGs, the resampled Dirichlet weights of the whole batch,
/// and the replicate scores.
///
/// One scratch reused across inspection points — and across *streams*,
/// as the worker tick in `crates/stream` does — makes the bootstrap hot
/// path allocation-free after warm-up. A reused scratch gives the bits
/// of a fresh one: it changes where replicate values are stored, never
/// how they are drawn.
#[derive(Debug, Clone, Default)]
pub struct BootstrapScratch {
    /// Per-replicate RNG seeds.
    seeds: Vec<u64>,
    /// Replicate scores (sorted in place for the quantiles).
    scores: Vec<f64>,
    /// Dirichlet concentrations of the reference-window posterior.
    alpha_ref: Vec<f64>,
    /// Dirichlet concentrations of the test-window posterior.
    alpha_test: Vec<f64>,
    /// Per-replicate RNG streams for the batched draws.
    rngs: Vec<StdRng>,
    /// Resampled reference-window weights, component-major (the
    /// replicates of one window item side by side).
    weights_ref: Vec<f64>,
    /// Resampled test-window weights, component-major.
    weights_test: Vec<f64>,
}

impl BootstrapScratch {
    /// Empty scratch; buffers grow to the bootstrap's shape on first use.
    pub fn new() -> Self {
        BootstrapScratch::default()
    }
}

/// Compute the bootstrap CI of the score at one inspection point,
/// drawing every buffer from `scratch` — the form the per-tick batched
/// evaluation in `crates/stream` uses, with one scratch shared across
/// all streams of a worker.
///
/// `ref_weights` / `test_weights` are the nominal window weights ψ; the
/// Dirichlet posteriors of Appendix B are parameterized from them
/// (`Dir(n·ψ)`), which reduces to the flat Dirichlet for equal weights.
///
/// The base RNG only seeds one stream per replicate, so results are
/// reproducible from the seed alone.
pub fn bootstrap_ci_with(
    scorer: &WindowScorer,
    kind: ScoreKind,
    ref_weights: &[f64],
    test_weights: &[f64],
    cfg: &BootstrapConfig,
    rng: &mut impl Rng,
    scratch: &mut BootstrapScratch,
) -> ConfidenceInterval {
    cfg.validate().expect("invalid bootstrap config");
    // The Appendix-B posteriors are fully described by their
    // concentration vectors; keep them in scratch instead of building
    // `Dirichlet` values (this function runs once per inspection point
    // on the streaming hot path and must not allocate once warm).
    Dirichlet::alpha_from_weights(ref_weights, &mut scratch.alpha_ref);
    Dirichlet::alpha_from_weights(test_weights, &mut scratch.alpha_test);

    // Derive one seed per replicate up front.
    scratch.seeds.clear();
    scratch
        .seeds
        .extend((0..cfg.replicates).map(|_| rng.gen::<u64>()));
    replicate_batch_into(scorer, kind, scratch);

    // Unstable sort: no merge buffer, and equal keys are identical f64
    // bit patterns, so the sorted sequence (and thus the quantiles) is
    // exactly what the stable sort produced.
    scratch
        .scores
        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
    ConfidenceInterval {
        lo: quantile_sorted(&scratch.scores, cfg.alpha / 2.0),
        up: quantile_sorted(&scratch.scores, 1.0 - cfg.alpha / 2.0),
    }
}

/// Score one replicate per seed into `scratch.scores`: all weight rows
/// are drawn in two component-major sweeps (one per window), then scored
/// as one batch. Each replicate's RNG sees the same stream a
/// per-replicate draw loop would give it, and each lane repeats a
/// replicate's scalar scoring, so the scores and the CI are those of
/// drawing and scoring replicate by replicate (pinned by a test).
fn replicate_batch_into(scorer: &WindowScorer, kind: ScoreKind, scratch: &mut BootstrapScratch) {
    let BootstrapScratch {
        seeds,
        scores,
        alpha_ref,
        alpha_test,
        rngs,
        weights_ref,
        weights_test,
    } = scratch;
    let stride = seeds.len().next_multiple_of(Dirichlet::LANES);
    rngs.clear();
    rngs.extend(seeds.iter().map(|&seed| StdRng::seed_from_u64(seed)));
    // Every entry is overwritten by the draws.
    weights_ref.resize(alpha_ref.len() * stride, 0.0);
    weights_test.resize(alpha_test.len() * stride, 0.0);
    // Reference rows first, then test rows, continuing the same RNGs —
    // the per-replicate draw order.
    Dirichlet::sample_alpha_batch_into(alpha_ref, rngs, weights_ref);
    Dirichlet::sample_alpha_batch_into(alpha_test, rngs, weights_test);
    scores.resize(seeds.len(), 0.0);
    scorer.score_batch_into(kind, weights_ref, weights_test, scores);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{EmdSolver, ScoreScratch, SolverScratch};
    use crate::signature_builder::GroundMetric;
    use emd::Signature;
    use infoest::{DistanceMatrix, EstimatorConfig};

    fn scorer(positions: &[f64], tau: usize, tau_prime: usize) -> WindowScorer {
        let sigs: Vec<Signature> = positions
            .iter()
            .map(|&p| Signature::new(vec![vec![p], vec![p + 0.3]], vec![1.0, 1.0]).unwrap())
            .collect();
        let mut scratch = SolverScratch::new();
        let dist = DistanceMatrix::symmetric_from_fn(sigs.len(), |i, j| {
            EmdSolver::Exact
                .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut scratch)
                .unwrap()
        });
        WindowScorer::from_distances(dist, tau, tau_prime, EstimatorConfig::default())
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Equal window weights, as the detector builds them.
    fn equal(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    /// `bootstrap_ci_with` through a fresh scratch.
    fn ci_fresh(
        scorer: &WindowScorer,
        kind: ScoreKind,
        wr: &[f64],
        wt: &[f64],
        cfg: &BootstrapConfig,
        rng: &mut impl Rng,
    ) -> ConfidenceInterval {
        let mut scratch = BootstrapScratch::new();
        bootstrap_ci_with(scorer, kind, wr, wt, cfg, rng, &mut scratch)
    }

    /// The per-replicate draw loop: the reference the batched rows must
    /// reproduce.
    fn per_replicate_scores(
        scorer: &WindowScorer,
        kind: ScoreKind,
        alpha_ref: &[f64],
        alpha_test: &[f64],
        seeds: &[u64],
    ) -> Vec<f64> {
        let mut wr = vec![0.0; alpha_ref.len()];
        let mut wt = vec![0.0; alpha_test.len()];
        let mut score = ScoreScratch::new();
        seeds
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                Dirichlet::sample_alpha_into(alpha_ref, &mut rng, &mut wr);
                Dirichlet::sample_alpha_into(alpha_test, &mut rng, &mut wt);
                scorer.score_with(kind, &wr, &wt, &mut score)
            })
            .collect()
    }

    #[test]
    fn ci_is_ordered_and_finite() {
        let s = scorer(&[0.0, 0.2, 0.4, 5.0, 5.2, 5.4], 3, 3);
        let w = equal(3);
        let ci = ci_fresh(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig::default(),
            &mut rng(1),
        );
        assert!(ci.lo.is_finite() && ci.up.is_finite());
        assert!(ci.lo <= ci.up);
    }

    #[test]
    fn ci_brackets_point_score() {
        // The nominal-weight score should normally lie inside a 95% CI.
        let s = scorer(&[0.0, 0.2, 0.4, 3.0, 3.2, 3.4], 3, 3);
        let w = equal(3);
        let point = s.score_with(ScoreKind::SymmetrizedKl, &w, &w, &mut ScoreScratch::new());
        let ci = ci_fresh(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                replicates: 500,
                ..Default::default()
            },
            &mut rng(2),
        );
        assert!(
            ci.lo <= point && point <= ci.up,
            "point {point} outside CI [{}, {}]",
            ci.lo,
            ci.up
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = scorer(&[0.0, 0.1, 0.2, 1.0, 1.1, 1.2], 3, 3);
        let w = equal(3);
        let cfg = BootstrapConfig::default();
        let a = ci_fresh(&s, ScoreKind::SymmetrizedKl, &w, &w, &cfg, &mut rng(7));
        let b = ci_fresh(&s, ScoreKind::SymmetrizedKl, &w, &w, &cfg, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_is_bit_identical_across_shapes() {
        // One scratch driven across inspection points of different
        // window shapes and both scores (as a stream worker reuses it
        // across streams) must reproduce a fresh scratch exactly.
        let mut scratch = BootstrapScratch::new();
        let cfg = BootstrapConfig::default();
        for kind in [ScoreKind::SymmetrizedKl, ScoreKind::LikelihoodRatio] {
            for (tau, tau_prime, seed) in [(3, 3, 7u64), (2, 4, 8), (4, 2, 9), (3, 3, 10)] {
                let positions: Vec<f64> = (0..tau + tau_prime).map(|i| i as f64 * 0.4).collect();
                let s = scorer(&positions, tau, tau_prime);
                let (wr, wt) = (equal(tau), equal(tau_prime));
                let fresh = ci_fresh(&s, kind, &wr, &wt, &cfg, &mut rng(seed));
                let reused =
                    bootstrap_ci_with(&s, kind, &wr, &wt, &cfg, &mut rng(seed), &mut scratch);
                assert_eq!(fresh, reused, "{kind:?} tau {tau} tau' {tau_prime}");
            }
        }
    }

    #[test]
    fn batched_replicates_match_per_replicate_draws_bitwise() {
        let s = scorer(&[0.0, 0.3, 0.6, 2.0, 2.3, 2.6], 3, 3);
        let mut scratch = BootstrapScratch::new();
        // Unequal weights, so the posterior is not flat.
        Dirichlet::alpha_from_weights(&[1.0, 2.0, 0.5], &mut scratch.alpha_ref);
        Dirichlet::alpha_from_weights(&equal(3), &mut scratch.alpha_test);
        scratch.seeds = (0..64).map(|i| 1000 + i * 17).collect();
        for kind in [ScoreKind::SymmetrizedKl, ScoreKind::LikelihoodRatio] {
            let per_replicate = per_replicate_scores(
                &s,
                kind,
                &scratch.alpha_ref,
                &scratch.alpha_test,
                &scratch.seeds,
            );
            replicate_batch_into(&s, kind, &mut scratch);
            assert_eq!(per_replicate.len(), scratch.scores.len());
            for (i, (a, b)) in per_replicate.iter().zip(&scratch.scores).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} replicate {i}");
            }
        }
    }

    #[test]
    fn wider_alpha_gives_narrower_interval() {
        let s = scorer(&[0.0, 0.5, 1.0, 2.0, 2.5, 3.0], 3, 3);
        let w = equal(3);
        let narrow = ci_fresh(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                alpha: 0.5,
                replicates: 400,
            },
            &mut rng(3),
        );
        let wide = ci_fresh(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                alpha: 0.05,
                replicates: 400,
            },
            &mut rng(3),
        );
        assert!(wide.up - wide.lo >= narrow.up - narrow.lo);
    }

    #[test]
    fn lr_score_bootstraps_too() {
        let s = scorer(&[0.0, 0.1, 0.2, 4.0, 4.1, 4.2], 3, 3);
        let w = equal(3);
        let ci = ci_fresh(
            &s,
            ScoreKind::LikelihoodRatio,
            &w,
            &w,
            &BootstrapConfig::default(),
            &mut rng(5),
        );
        assert!(ci.lo <= ci.up);
    }

    #[test]
    fn config_validation() {
        assert!(BootstrapConfig {
            replicates: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BootstrapConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BootstrapConfig::default().validate().is_ok());
    }
}
