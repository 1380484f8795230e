//! Change-point scores (§3.3, Eqs. 16–17).
//!
//! Both scores are functions of (a) the pairwise EMDs among the window's
//! signatures, used only through their logarithms, and (b) the window
//! weights, used only linearly. The Bayesian bootstrap of §4.2 resamples
//! only the weights, so [`WindowScorer`] takes the window's logarithms
//! once per inspection point, and every bootstrap replicate is pure
//! multiply-adds over them — [`WindowScorer::score_batch_into`] scores
//! the replicates four at a time.

use crate::signature_builder::GroundMetric;
use emd::{emd_with, Signature, TransportScratch};
use infoest::{DistanceMatrix, EstimatorConfig, LogDistances};
use stats::Dirichlet;
use std::ops::Range;

/// Replicates scored per pass, one lane of a `[f64; LANES]` each: the
/// lane groups of [`Dirichlet::sample_alpha_batch_into`]'s layout.
const LANES: usize = Dirichlet::LANES;

/// One value per lane.
type Lanes = [f64; LANES];

/// Which optimal-transport solver computes the signature distances.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EmdSolver {
    /// Exact transportation simplex (Eqs. 7–12) — the paper's EMD.
    #[default]
    Exact,
}

/// Reusable solver state: the transportation-simplex tableau. A
/// long-lived caller (the batch detector's banded sweep, a stream
/// worker's tick loop) keeps one and threads it through every
/// [`EmdSolver::distance_with`] call, so pairwise distances are solved
/// with no heap allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// Exact transportation-simplex buffers.
    transport: TransportScratch,
}

impl SolverScratch {
    /// Empty scratch; buffers grow to the signatures' shape on first use.
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Cumulative counters of the solver work this scratch has carried.
    /// Counters only grow; telemetry consumers snapshot and difference
    /// to get per-interval rates.
    pub fn stats(&self) -> SolverStats {
        let t = self.transport.stats();
        SolverStats {
            exact_solves: t.solves,
            pivots: t.pivots,
        }
    }
}

/// Cumulative counters of a [`SolverScratch`]'s lifetime work: exact
/// simplex solves and their pivots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Exact transportation-simplex solves that reached optimality.
    pub exact_solves: u64,
    /// Stepping-stone pivots across all exact solves.
    pub pivots: u64,
}

impl EmdSolver {
    /// Distance between two signatures under this solver, solved out of
    /// a caller-kept scratch: allocation-free once warm, and a dirty
    /// scratch gives the bits of a fresh one.
    ///
    /// # Errors
    /// Propagates the underlying solver's failures.
    pub fn distance_with(
        &self,
        a: &Signature,
        b: &Signature,
        metric: &GroundMetric,
        scratch: &mut SolverScratch,
    ) -> Result<f64, emd::EmdError> {
        match self {
            EmdSolver::Exact => emd_with(a, b, metric, &mut scratch.transport),
        }
    }
}

/// Which change-point score to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Log-likelihood-ratio score (Eq. 16): sensitive to small changes,
    /// jumpier.
    LikelihoodRatio,
    /// Symmetrized-KL score (Eq. 17): conservative and robust, less
    /// sensitive to minor changes. The paper's default in §5.
    #[default]
    SymmetrizedKl,
}

/// Cached scorer for one inspection point.
///
/// Window layout: signature indices `0..tau` are the reference set,
/// `tau..tau+tau_prime` the test set; the inspection signature `S_t` is
/// index `tau`. The window's pairwise distances are kept as their
/// logarithms ([`LogDistances`]), taken once when the scorer is built.
#[derive(Debug, Clone)]
pub struct WindowScorer {
    log: LogDistances,
    tau: usize,
    tau_prime: usize,
    est: EstimatorConfig,
}

/// The window weights of one score evaluation as a one-replicate batch
/// (every lane a copy), so that [`WindowScorer::score_with`] allocates
/// nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// Reference-window weights, [`LANES`] copies of each.
    ref_lanes: Vec<f64>,
    /// Test-window weights, [`LANES`] copies of each.
    test_lanes: Vec<f64>,
}

impl ScoreScratch {
    /// Empty scratch; buffers grow to the window's shape on first use.
    pub fn new() -> Self {
        ScoreScratch::default()
    }
}

impl WindowScorer {
    /// Build from a precomputed distance matrix over the window (the
    /// detector's band or a stream's window cache). The logarithms are
    /// taken in place, in the matrix's own storage, which
    /// [`WindowScorer::into_log_distances`] hands back.
    ///
    /// # Panics
    /// Panics if the matrix is not `(tau+tau') x (tau+tau')`.
    pub fn from_distances(
        dist: DistanceMatrix,
        tau: usize,
        tau_prime: usize,
        est: EstimatorConfig,
    ) -> Self {
        assert_eq!(dist.rows(), tau + tau_prime, "from_distances: shape");
        assert_eq!(dist.cols(), tau + tau_prime, "from_distances: shape");
        WindowScorer {
            log: LogDistances::from_distances(dist, &est),
            tau,
            tau_prime,
            est,
        }
    }

    /// Consume the scorer, returning its log-distance matrix — so a hot
    /// loop building one scorer per inspection point can recycle the
    /// matrix storage (`LogDistances::into_vec`) instead of
    /// re-allocating it every time.
    pub fn into_log_distances(self) -> LogDistances {
        self.log
    }

    /// Evaluate the chosen score with the window weights (`tau` and
    /// `tau_prime` of them): a one-replicate call of
    /// [`WindowScorer::score_batch_into`] through a caller-kept scratch.
    ///
    /// # Panics
    /// As [`WindowScorer::score_batch_into`].
    pub fn score_with(
        &self,
        kind: ScoreKind,
        ref_weights: &[f64],
        test_weights: &[f64],
        scratch: &mut ScoreScratch,
    ) -> f64 {
        let (wr, wt) = (&mut scratch.ref_lanes, &mut scratch.test_lanes);
        wr.clear();
        wr.extend(ref_weights.iter().flat_map(|&w| [w; LANES]));
        wt.clear();
        wt.extend(test_weights.iter().flat_map(|&w| [w; LANES]));
        let mut score = [0.0];
        self.score_batch_into(kind, wr, wt, &mut score);
        score[0]
    }

    /// Score a batch of weight replicates four at a time: the one
    /// implementation of Eqs. 16–17.
    ///
    /// The weights are component-major, as
    /// [`Dirichlet::sample_alpha_batch_into`] draws them: replicate `r`'s
    /// weight of window item `c` at `c * stride + r`, where `stride` is
    /// `scores.len()` rounded up to a multiple of [`Dirichlet::LANES`];
    /// replicate `r`'s score goes to `scores[r]`. Each replicate's weights are
    /// checked and divided by their window's sum in place (for Eq. 16 the
    /// test window's without `S_t`'s). Padding lanes are scored and
    /// discarded, so they need not hold valid weights.
    ///
    /// Every lane repeats the scalar arithmetic of one replicate in the
    /// same order, so each score is bit for bit the one-replicate score:
    /// Eq. 16's sums start from `-0.0`, as `f64::sum` does, and Eq. 17
    /// skips zero weights (and, in an auto-entropy, an item holding all
    /// the mass) by a per-lane select instead of a branch. The selects
    /// matter under a zero `dist_floor`, where a skipped `0 · -inf` would
    /// be `NaN`.
    ///
    /// # Panics
    /// Panics if `kind` is Eq. 16 and `tau' < 2`, if a buffer's length is
    /// not its window's times the stride, or unless every replicate's
    /// weights are finite and `>= 0` with a positive sum.
    pub fn score_batch_into(
        &self,
        kind: ScoreKind,
        ref_weights: &mut [f64],
        test_weights: &mut [f64],
        scores: &mut [f64],
    ) {
        let lr = kind == ScoreKind::LikelihoodRatio;
        assert!(
            !lr || self.tau_prime >= 2,
            "score_lr requires tau' >= 2 (S_test \\ S_t must be non-empty)"
        );
        let stride = scores.len().next_multiple_of(LANES);
        assert!(
            ref_weights.len() == self.tau * stride && test_weights.len() == self.tau_prime * stride,
            "score_batch_into: weights length"
        );
        let groups = stride / LANES;
        let (wr, _) = ref_weights.as_chunks_mut::<LANES>();
        let (wt, _) = test_weights.as_chunks_mut::<LANES>();
        for (g, out) in scores.chunks_mut(LANES).enumerate() {
            // Eq. 16 drops S_t's own weight, the first of the test window.
            normalize_lanes(&mut wr[g..], groups, 0, out.len());
            normalize_lanes(&mut wt[g..], groups, usize::from(lr), out.len());
            let (pr, pt) = (Group(&wr[g..], groups), Group(&wt[g..], groups));
            let lanes = if lr {
                self.lr_lanes(pr, pt)
            } else {
                self.kl_lanes(pr, pt)
            };
            out.copy_from_slice(&lanes[..out.len()]);
        }
    }

    /// Eq. (16) per lane, over the log distances to `S_t`.
    fn lr_lanes(&self, pr: Group<'_>, pt: Group<'_>) -> Lanes {
        let trow = self.log.row(self.tau);
        let i_ref = self.information_lanes(&trow[..self.tau], pr, 0);
        let i_test = self.information_lanes(&trow[self.tau..], pt, 1);
        std::array::from_fn(|k| i_ref[k] - i_test[k])
    }

    /// Eq. (17) per lane.
    fn kl_lanes(&self, pr: Group<'_>, pt: Group<'_>) -> Lanes {
        let w = self.tau + self.tau_prime;
        let h_cross = self.cross_lanes(pr, pt);
        let h_ref = self.auto_lanes(0..self.tau, pr);
        let h_test = self.auto_lanes(self.tau..w, pt);
        std::array::from_fn(|k| h_cross[k] - 0.5 * (h_ref[k] + h_test[k]))
    }

    /// Information content `I(S; S') = c + d Σ_j ψ'_j log dist(S'_j, S)`
    /// per lane over the items from `from` on, every term included.
    fn information_lanes(&self, logs: &[f64], p: Group<'_>, from: usize) -> Lanes {
        let mut acc = [-0.0; LANES];
        for (c, &l) in logs.iter().enumerate().skip(from) {
            let w = p.item_lanes(c);
            acc = std::array::from_fn(|k| acc[k] + w[k] * l);
        }
        self.estimate_lanes(acc)
    }

    /// Cross-entropy `H(S_ref, S_test) = c + d Σ_i Σ_j ψ_i ψ'_j log
    /// dist(S_i, S'_j)` per lane, skipping zero weights.
    fn cross_lanes(&self, pr: Group<'_>, pt: Group<'_>) -> Lanes {
        let cols = self.tau..self.tau + self.tau_prime;
        let mut acc = [0.0; LANES];
        for i in 0..self.tau {
            let mut inner = [0.0; LANES];
            for (j, &l) in self.log.row(i)[cols.clone()].iter().enumerate() {
                let wj = pt.item_lanes(j);
                inner = std::array::from_fn(|k| inner[k] + skip_zero(wj[k], wj[k] * l));
            }
            let wi = pr.item_lanes(i);
            acc = std::array::from_fn(|k| acc[k] + skip_zero(wi[k], wi[k] * inner[k]));
        }
        self.estimate_lanes(acc)
    }

    /// Auto-entropy `H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) log
    /// dist(S_i, S_j)` per lane over the window items `at`. Zero weights
    /// and an item with all the mass (its leave-one-out is undefined)
    /// contribute nothing; a single item's auto-entropy is `c`.
    fn auto_lanes(&self, at: Range<usize>, p: Group<'_>) -> Lanes {
        if at.len() == 1 {
            return [self.est.offset; LANES];
        }
        let mut acc = [0.0; LANES];
        for i in 0..at.len() {
            let mut inner = [0.0; LANES];
            for (j, &l) in self.log.row(at.start + i)[at.clone()].iter().enumerate() {
                if j != i {
                    let wj = p.item_lanes(j);
                    inner = std::array::from_fn(|k| inner[k] + skip_zero(wj[k], wj[k] * l));
                }
            }
            let wi = p.item_lanes(i);
            acc = std::array::from_fn(|k| {
                let term = wi[k] * inner[k] / (1.0 - wi[k]);
                acc[k] + if wi[k] >= 1.0 { 0.0 } else { term }
            });
        }
        self.estimate_lanes(acc)
    }

    /// `c + d · acc` per lane.
    fn estimate_lanes(&self, acc: Lanes) -> Lanes {
        acc.map(|a| self.est.offset + self.est.scale * a)
    }
}

/// `term`, or `+0.0` where its weight is zero: the scalar `continue` as
/// a select. An accumulator starting at `+0.0` never holds `-0.0`, so
/// adding `+0.0` leaves it unchanged, bit for bit.
#[inline]
fn skip_zero(weight: f64, term: f64) -> f64 {
    if weight == 0.0 {
        0.0
    } else {
        term
    }
}

/// One lane group of a component-major batch: item `c`'s weights sit
/// `c * groups` arrays on.
#[derive(Clone, Copy)]
struct Group<'a>(&'a [Lanes], usize);

impl Group<'_> {
    /// Item `c`'s weights.
    #[inline]
    fn item_lanes(&self, c: usize) -> Lanes {
        self.0[c * self.1]
    }
}

/// Check the lane group starting `w` (its items from `skip` on) and
/// divide each lane by its sum, taken from `-0.0` in item order as
/// `f64::sum` does, in place. Only the first `live` lanes are checked.
fn normalize_lanes(w: &mut [Lanes], groups: usize, skip: usize, live: usize) {
    assert!(w.len() > skip * groups, "empty weights");
    let mut sum = [-0.0; LANES];
    let mut valid = [true; LANES];
    for x in w.iter().step_by(groups).skip(skip) {
        sum = std::array::from_fn(|k| sum[k] + x[k]);
        valid = std::array::from_fn(|k| valid[k] & x[k].is_finite() & (x[k] >= 0.0));
    }
    assert!(
        valid
            .iter()
            .zip(&sum)
            .take(live)
            .all(|(&v, &s)| v && s > 0.0),
        "weights must be finite, >= 0, with positive sum"
    );
    for x in w.iter_mut().step_by(groups).skip(skip) {
        *x = std::array::from_fn(|k| x[k] / sum[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scorer over signatures at scalar positions with unit mass, their
    /// distances solved through one scratch.
    fn scorer_est(
        positions: &[f64],
        tau: usize,
        tau_prime: usize,
        est: EstimatorConfig,
    ) -> WindowScorer {
        let sigs: Vec<Signature> = positions
            .iter()
            .map(|&p| Signature::new(vec![vec![p]], vec![1.0]).unwrap())
            .collect();
        let mut scratch = SolverScratch::new();
        let dist = DistanceMatrix::symmetric_from_fn(sigs.len(), |i, j| {
            EmdSolver::Exact
                .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut scratch)
                .unwrap()
        });
        WindowScorer::from_distances(dist, tau, tau_prime, est)
    }

    fn scorer(positions: &[f64], tau: usize, tau_prime: usize) -> WindowScorer {
        scorer_est(positions, tau, tau_prime, EstimatorConfig::default())
    }

    /// `score_with` through a fresh scratch.
    fn score_fresh(s: &WindowScorer, kind: ScoreKind, wr: &[f64], wt: &[f64]) -> f64 {
        s.score_with(kind, wr, wt, &mut ScoreScratch::new())
    }

    #[test]
    fn kl_score_larger_for_separated_windows() {
        // Homogeneous: all signatures near zero.
        let homog = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.15, 0.05, 0.1], 4, 4);
        // Separated: test window far from reference window.
        let sep = scorer(&[0.0, 0.1, 0.2, 0.1, 10.0, 10.1, 10.2, 10.05], 4, 4);
        let w = [0.25; 4];
        let s_homog = score_fresh(&homog, ScoreKind::SymmetrizedKl, &w, &w);
        let s_sep = score_fresh(&sep, ScoreKind::SymmetrizedKl, &w, &w);
        assert!(
            s_sep > s_homog + 1.0,
            "separated {s_sep} vs homogeneous {s_homog}"
        );
    }

    #[test]
    fn lr_score_larger_for_separated_windows() {
        let homog = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.15, 0.05, 0.1], 4, 4);
        let sep = scorer(&[0.0, 0.1, 0.2, 0.1, 10.0, 10.1, 10.2, 10.05], 4, 4);
        let w = [0.25; 4];
        assert!(
            score_fresh(&sep, ScoreKind::LikelihoodRatio, &w, &w)
                > score_fresh(&homog, ScoreKind::LikelihoodRatio, &w, &w) + 1.0
        );
    }

    #[test]
    fn kl_score_near_zero_for_matching_windows() {
        // Both windows drawn from the same configuration (jittered so no
        // two signatures coincide exactly — exact duplicates are a
        // measure-zero case where the log floor dominates): cross-entropy
        // ~ auto-entropies, so the score is near zero.
        let s = scorer(&[0.0, 1.0, 2.0, 3.0, 0.04, 1.03, 2.02, 3.01], 4, 4);
        let w = [0.25; 4];
        let v = score_fresh(&s, ScoreKind::SymmetrizedKl, &w, &w);
        assert!(v.abs() < 1.5, "score for matching windows: {v}");
    }

    #[test]
    fn kl_is_symmetric_in_window_exchange() {
        // Swapping ref and test windows leaves Eq. 17 unchanged (the
        // symmetrization). Use equal window sizes.
        let pos_a = [0.0, 0.5, 1.0, 5.0, 5.5, 6.0];
        let pos_b = [5.0, 5.5, 6.0, 0.0, 0.5, 1.0];
        let sa = scorer(&pos_a, 3, 3);
        let sb = scorer(&pos_b, 3, 3);
        let w = [1.0 / 3.0; 3];
        assert!(
            (score_fresh(&sa, ScoreKind::SymmetrizedKl, &w, &w)
                - score_fresh(&sb, ScoreKind::SymmetrizedKl, &w, &w))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn scores_respond_to_weights() {
        // Shifting all test weight onto the far outlier raises the KL
        // score relative to weighting the matching signatures.
        let s = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.1, 30.0], 4, 3);
        let wr = [0.25; 4];
        let balanced = score_fresh(&s, ScoreKind::SymmetrizedKl, &wr, &[1.0 / 3.0; 3]);
        let outlier_heavy = score_fresh(&s, ScoreKind::SymmetrizedKl, &wr, &[0.05, 0.05, 0.9]);
        assert!(outlier_heavy > balanced);
    }

    #[test]
    #[should_panic(expected = "tau' >= 2")]
    fn lr_with_tau_prime_one_panics() {
        let s = scorer(&[0.0, 1.0, 2.0, 5.0], 3, 1);
        score_fresh(&s, ScoreKind::LikelihoodRatio, &[1.0 / 3.0; 3], &[1.0]);
    }

    #[test]
    fn estimator_constants_cancel() {
        // c and d shift/scale both terms of each score identically up to
        // the score's own structure; for score_KL the offset cancels
        // exactly: (c + dX) - ((c + dY) + (c + dZ))/2 = d(X - (Y+Z)/2)
        // requires checking: c - c = 0. Verify numerically.
        let positions = [0.0, 0.3, 0.7, 4.0, 4.2, 4.9];
        let base = scorer(&positions, 3, 3);
        let shifted = scorer_est(
            &positions,
            3,
            3,
            EstimatorConfig {
                offset: 7.0,
                scale: 1.0,
                dist_floor: 1e-12,
            },
        );
        let w = [1.0 / 3.0; 3];
        assert!(
            (score_fresh(&base, ScoreKind::SymmetrizedKl, &w, &w)
                - score_fresh(&shifted, ScoreKind::SymmetrizedKl, &w, &w))
            .abs()
                < 1e-9
        );
        assert!(
            (score_fresh(&base, ScoreKind::LikelihoodRatio, &w, &w)
                - score_fresh(&shifted, ScoreKind::LikelihoodRatio, &w, &w))
            .abs()
                < 1e-9
        );
    }
}
