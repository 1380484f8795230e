//! End-to-end detector: bags in, scores + confidence intervals + alerts
//! out (§§2–4 assembled).

use crate::bag::Bag;
use crate::bootstrap::{bootstrap_ci_with, BootstrapConfig, BootstrapScratch, ConfidenceInterval};
use crate::error::DetectError;
use crate::score::{EmdSolver, ScoreKind, ScoreScratch, SolverScratch, WindowScorer};
use crate::signature_builder::{
    derive_seed, signature_at_with, GroundMetric, SignatureMethod, SignatureScratch,
};
use crate::window::{window_weights_into, Weighting, WindowLayout};
use emd::Signature;
use infoest::{DistanceMatrix, EstimatorConfig};
use rand::SeedableRng;

/// Seed of the bootstrap RNG at inspection point `t` for a master seed.
///
/// Each inspection point draws its replicate weights from an independent
/// stream that is a pure function of `(seed, t)`: the batch detector and
/// the online detector in `crates/stream` therefore produce identical
/// confidence intervals for the same window, and resuming a restored
/// stream needs no RNG state.
pub fn bootstrap_seed(seed: u64, t: usize) -> u64 {
    derive_seed(seed ^ 0x9e37_79b9_7f4a_7c15, t as u64)
}

/// Full configuration of the detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Reference window length τ (number of bags before the inspection
    /// point).
    pub tau: usize,
    /// Test window length τ' (number of bags from the inspection point
    /// onward).
    pub tau_prime: usize,
    /// Which change-point score to use (Eq. 16 vs Eq. 17).
    pub score: ScoreKind,
    /// Weighting of signatures inside the windows (equal or Eq. 15
    /// discounted).
    pub weighting: Weighting,
    /// How bags are quantized into signatures.
    pub signature: SignatureMethod,
    /// Ground distance for the EMD.
    pub metric: GroundMetric,
    /// Optimal-transport solver: the exact transportation simplex.
    pub solver: EmdSolver,
    /// Constants of the information estimators (defaults are fine: they
    /// cancel in the scores).
    pub estimator: EstimatorConfig,
    /// Bayesian-bootstrap settings (replicates, α).
    pub bootstrap: BootstrapConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            tau: 5,
            tau_prime: 5,
            score: ScoreKind::SymmetrizedKl,
            weighting: Weighting::Equal,
            signature: SignatureMethod::default(),
            metric: GroundMetric::Euclidean,
            solver: EmdSolver::default(),
            estimator: EstimatorConfig::default(),
            bootstrap: BootstrapConfig::default(),
        }
    }
}

impl DetectorConfig {
    /// Validate all parameters.
    ///
    /// # Errors
    /// [`DetectError::BadConfig`] with a human-readable reason.
    pub fn validate(&self) -> Result<(), DetectError> {
        WindowLayout::new(self.tau, self.tau_prime)
            .validate()
            .map_err(DetectError::BadConfig)?;
        if self.score == ScoreKind::LikelihoodRatio && self.tau_prime < 2 {
            return Err(DetectError::BadConfig(
                "likelihood-ratio score requires tau' >= 2".into(),
            ));
        }
        self.bootstrap.validate().map_err(DetectError::BadConfig)?;
        // The bootstrap's scores must be finite: a zero floor logs a
        // coincident pair of signatures to -inf.
        let est = &self.estimator;
        let finite = est.offset.is_finite() && est.scale.is_finite();
        if !(finite && est.dist_floor.is_finite() && est.dist_floor > 0.0) {
            return Err(DetectError::BadConfig(
                "estimator dist_floor must be finite and > 0, offset and scale finite".into(),
            ));
        }
        match &self.signature {
            SignatureMethod::KMeans { k }
            | SignatureMethod::KMedoids { k }
            | SignatureMethod::Lvq { k } => {
                if *k == 0 {
                    return Err(DetectError::BadConfig("quantizer k must be >= 1".into()));
                }
            }
            SignatureMethod::Histogram { width } => {
                if !(width.is_finite() && *width > 0.0) {
                    return Err(DetectError::BadConfig(
                        "histogram width must be finite and > 0".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Reusable buffers for one inspection-point evaluation: the nominal
/// window weights, the nominal score's one-replicate batch, and the
/// bootstrap's [`BootstrapScratch`] (the replicates' weights, drawn and
/// scored as one batch).
///
/// [`Detector::evaluate_point_with`] fills these instead of allocating;
/// a long-lived caller (the per-worker tick loop in `crates/stream`)
/// keeps one scratch and reuses it across every stream and every
/// inspection point it evaluates.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Nominal reference-window weights.
    ref_weights: Vec<f64>,
    /// Nominal test-window weights.
    test_weights: Vec<f64>,
    /// The nominal weights as a one-replicate batch.
    score: ScoreScratch,
    /// Bootstrap replicate buffers.
    bootstrap: BootstrapScratch,
}

impl EvalScratch {
    /// Empty scratch; buffers grow to the detector's shape on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// Score, confidence interval, and alert decision at one inspection
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScorePoint {
    /// Inspection time index `t` (into the bag sequence).
    pub t: usize,
    /// Change-point score with the nominal window weights.
    pub score: f64,
    /// Bayesian-bootstrap confidence interval at `t`.
    pub ci: ConfidenceInterval,
    /// Test statistic `ξ_t = θ_lo(t) - θ_up(t - τ')` (Eq. 20), when the
    /// earlier interval exists.
    pub xi: Option<f64>,
    /// Whether a significant change was declared (`ξ_t > 0`, Eq. 18).
    pub alert: bool,
}

/// Result of analyzing a bag sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// One entry per inspection point `t = τ ..= n - τ'`.
    pub points: Vec<ScorePoint>,
}

impl Detection {
    /// Indices of the inspection points where an alert was raised.
    pub fn alerts(&self) -> Vec<usize> {
        self.points
            .iter()
            .filter(|p| p.alert)
            .map(|p| p.t)
            .collect()
    }

    /// The inspection point with the highest score, if any.
    pub fn peak(&self) -> Option<&ScorePoint> {
        self.points
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// Segment the sequence at the alerts: returns half-open `[start,
    /// end)` ranges over bag indices covering `0..n`, split at each
    /// alert (consecutive alerts produce consecutive short segments).
    /// This is the "segment time-series data beforehand" use the paper's
    /// introduction motivates.
    pub fn segments(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let mut cuts: Vec<usize> = self
            .alerts()
            .into_iter()
            .filter(|&t| t > 0 && t < n)
            .collect();
        cuts.dedup();
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0usize;
        for c in cuts {
            out.push(start..c);
            start = c;
        }
        out.push(start..n);
        out
    }
}

/// The configured detection pipeline.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
}

impl Detector {
    /// Build a detector, validating the configuration.
    ///
    /// # Errors
    /// [`DetectError::BadConfig`] for invalid parameters.
    pub fn new(cfg: DetectorConfig) -> Result<Self, DetectError> {
        cfg.validate()?;
        Ok(Detector { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Window layout implied by the configuration.
    pub fn layout(&self) -> WindowLayout {
        WindowLayout::new(self.cfg.tau, self.cfg.tau_prime)
    }

    /// Quantize every bag into a signature (deterministic in `seed`).
    ///
    /// Each bag's quantizer stream depends only on `(seed, position)`
    /// (see [`signature_at_with`]), so an online consumer can reproduce
    /// any single signature without the bags before it. One
    /// [`SignatureScratch`] serves every build of the call.
    ///
    /// # Errors
    /// [`DetectError::DimensionMismatch`] if bag dimensions disagree.
    pub fn signatures(&self, bags: &[Bag], seed: u64) -> Result<Vec<Signature>, DetectError> {
        if bags.is_empty() {
            return Ok(Vec::new());
        }
        let d = bags[0].dim();
        if bags.iter().any(|b| b.dim() != d) {
            return Err(DetectError::DimensionMismatch);
        }
        let mut scratch = SignatureScratch::new();
        Ok(bags
            .iter()
            .enumerate()
            .map(|(i, b)| signature_at_with(b, &self.cfg.signature, seed, i as u64, &mut scratch))
            .collect())
    }

    /// Full pairwise EMD matrix among signatures (used for the Fig. 6
    /// EMD heat map and MDS embedding).
    ///
    /// # Errors
    /// Propagates EMD failures.
    pub fn pairwise_emd(&self, sigs: &[Signature]) -> Result<DistanceMatrix, DetectError> {
        let mut scratch = SolverScratch::new();
        let n = sigs.len();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.cfg.solver.distance_with(
                    &sigs[i],
                    &sigs[j],
                    &self.cfg.metric,
                    &mut scratch,
                )?;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Ok(DistanceMatrix::from_vec(n, n, data))
    }

    /// Change-point scores only (no bootstrap), for cheap sweeps and
    /// benchmarking. Returns `(t, score)` pairs.
    ///
    /// # Errors
    /// As [`Detector::analyze`].
    pub fn score_series(&self, bags: &[Bag], seed: u64) -> Result<Vec<(usize, f64)>, DetectError> {
        let (band, last) = self.prepare(bags, seed)?;
        let layout = self.layout();
        let mut scratch = EvalScratch::new();
        let mut out = Vec::with_capacity(last + 1 - layout.first_t());
        for t in layout.first_t()..=last {
            let scorer = self.window_scorer(&band, t);
            out.push((t, self.nominal_score_with(&scorer, t, &mut scratch)));
        }
        Ok(out)
    }

    /// Run the full pipeline: scores, bootstrap confidence intervals, and
    /// adaptive alerts.
    ///
    /// # Errors
    /// [`DetectError::SequenceTooShort`] if fewer than `τ + τ'` bags,
    /// [`DetectError::DimensionMismatch`] for ragged dimensions, or EMD
    /// failures.
    pub fn analyze(&self, bags: &[Bag], seed: u64) -> Result<Detection, DetectError> {
        let (band, last) = self.prepare(bags, seed)?;
        let layout = self.layout();

        let mut scratch = EvalScratch::new();
        let mut points: Vec<ScorePoint> = Vec::with_capacity(last + 1 - layout.first_t());
        for t in layout.first_t()..=last {
            let scorer = self.window_scorer(&band, t);
            // Eq. 20: compare with the interval one test-window back so
            // the two test sets share no bags.
            let prev_ci_up = t
                .checked_sub(self.cfg.tau_prime)
                .filter(|prev| *prev >= layout.first_t())
                .map(|prev| points[prev - layout.first_t()].ci.up);
            points.push(self.evaluate_point_with(&scorer, t, prev_ci_up, seed, &mut scratch));
        }
        Ok(Detection { points })
    }

    /// Evaluate one inspection point from its window scorer: nominal
    /// score, Bayesian-bootstrap CI (seeded per-point, see
    /// [`bootstrap_seed`]), and the Eq. 18/20 alert decision given the
    /// upper CI bound from one test-window back (`None` while that
    /// earlier inspection point does not exist).
    ///
    /// This is the single evaluation path shared by [`Detector::analyze`]
    /// and the incremental detector in `crates/stream`, which is what
    /// guarantees stream/batch score and alert parity. It allocates
    /// nothing: every buffer (nominal weights, bootstrap
    /// seeds/weights/scores) comes from `scratch`, which the caller keeps
    /// alive across inspection points and streams.
    pub fn evaluate_point_with(
        &self,
        scorer: &WindowScorer,
        t: usize,
        prev_ci_up: Option<f64>,
        seed: u64,
        scratch: &mut EvalScratch,
    ) -> ScorePoint {
        let score = self.nominal_score_with(scorer, t, scratch);
        let mut rng = rand::rngs::StdRng::seed_from_u64(bootstrap_seed(seed, t));
        let ci = bootstrap_ci_with(
            scorer,
            self.cfg.score,
            &scratch.ref_weights,
            &scratch.test_weights,
            &self.cfg.bootstrap,
            &mut rng,
            &mut scratch.bootstrap,
        );
        let xi = prev_ci_up.map(|up| ci.lo - up);
        let alert = xi.is_some_and(|x| x > 0.0);
        ScorePoint {
            t,
            score,
            ci,
            xi,
            alert,
        }
    }

    /// The score at `t` under the nominal window weights, which are left
    /// in `scratch` for the bootstrap: the one nominal-score path of
    /// [`Detector::evaluate_point_with`] and [`Detector::score_series`].
    fn nominal_score_with(
        &self,
        scorer: &WindowScorer,
        t: usize,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let layout = self.layout();
        window_weights_into(
            self.cfg.weighting,
            t,
            layout.ref_range(t),
            true,
            &mut scratch.ref_weights,
        );
        window_weights_into(
            self.cfg.weighting,
            t,
            layout.test_range(t),
            false,
            &mut scratch.test_weights,
        );
        scorer.score_with(
            self.cfg.score,
            &scratch.ref_weights,
            &scratch.test_weights,
            &mut scratch.score,
        )
    }

    /// Shared front half: validate, build signatures, compute the banded
    /// distance matrix (pairs closer than one window width), and find
    /// the last inspection point.
    fn prepare(&self, bags: &[Bag], seed: u64) -> Result<(DistanceMatrix, usize), DetectError> {
        let need = self.cfg.tau + self.cfg.tau_prime;
        let last = self
            .layout()
            .last_t(bags.len())
            .ok_or(DetectError::SequenceTooShort {
                got: bags.len(),
                need,
            })?;
        let sigs = self.signatures(bags, seed)?;
        // One solver scratch across the whole band: the batch sweep pays
        // for its simplex tableaus once, exactly like the streaming
        // workers do per tick.
        let mut scratch = SolverScratch::new();
        let n = sigs.len();
        let width = need; // only pairs inside one window are ever read
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            let jmax = (i + width).min(n);
            for j in (i + 1)..jmax {
                let d = self.cfg.solver.distance_with(
                    &sigs[i],
                    &sigs[j],
                    &self.cfg.metric,
                    &mut scratch,
                )?;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Ok((DistanceMatrix::from_vec(n, n, data), last))
    }

    /// Extract the window block of the banded matrix as a scorer.
    fn window_scorer(&self, band: &DistanceMatrix, t: usize) -> WindowScorer {
        let layout = self.layout();
        let lo = t - self.cfg.tau;
        let hi = t + self.cfg.tau_prime;
        debug_assert!(hi <= band.rows());
        debug_assert_eq!(layout.ref_range(t).start, lo);
        let block = band.block(lo..hi, lo..hi);
        WindowScorer::from_distances(block, self.cfg.tau, self.cfg.tau_prime, self.cfg.estimator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bags with a hard mean shift at `change_at`.
    fn shifted_bags(n: usize, change_at: usize, magnitude: f64) -> Vec<Bag> {
        (0..n)
            .map(|t| {
                let level = if t < change_at { 0.0 } else { magnitude };
                // 40 deterministic points spread around the level.
                Bag::from_scalars((0..40).map(move |i| level + ((i * 7 + t) % 11) as f64 * 0.05))
            })
            .collect()
    }

    fn small_config() -> DetectorConfig {
        DetectorConfig {
            tau: 4,
            tau_prime: 4,
            bootstrap: BootstrapConfig {
                replicates: 100,
                ..Default::default()
            },
            signature: SignatureMethod::Histogram { width: 0.25 },
            ..Default::default()
        }
    }

    #[test]
    fn estimator_constants_that_make_a_score_non_finite_are_rejected() {
        // Twelve 1-D bags, the first six identical: their signatures
        // coincide, so a zero floor logs their distance to -inf. At
        // τ = τ' = 3 that made a bootstrap score NaN, and `analyze`
        // panicked sorting the replicates; now the config is refused.
        let bags: Vec<Bag> = (0..12)
            .map(|t| {
                Bag::from_scalars((0..10).map(move |i| {
                    if t < 6 {
                        i as f64 * 0.5
                    } else {
                        3.0 + (i * 7 % 10) as f64 * 0.3
                    }
                }))
            })
            .collect();
        let config = |estimator| DetectorConfig {
            tau: 3,
            tau_prime: 3,
            estimator,
            ..Default::default()
        };
        let base = EstimatorConfig::default();
        for bad in [
            EstimatorConfig {
                dist_floor: 0.0,
                ..base
            },
            EstimatorConfig {
                dist_floor: -1.0,
                ..base
            },
            EstimatorConfig {
                dist_floor: f64::INFINITY,
                ..base
            },
            EstimatorConfig {
                dist_floor: f64::NAN,
                ..base
            },
            EstimatorConfig {
                offset: f64::NAN,
                ..base
            },
            EstimatorConfig {
                scale: f64::INFINITY,
                ..base
            },
        ] {
            assert!(
                matches!(Detector::new(config(bad)), Err(DetectError::BadConfig(_))),
                "{bad:?} accepted"
            );
        }
        let out = Detector::new(config(base))
            .unwrap()
            .analyze(&bags, 1)
            .unwrap();
        assert!(out
            .points
            .iter()
            .all(|p| p.score.is_finite() && p.ci.lo.is_finite() && p.ci.up.is_finite()));
    }

    #[test]
    fn detects_hard_mean_shift() {
        // Seed 2 is an arbitrary draw where the bootstrap margin xi > 0
        // holds comfortably (the alert criterion is a threshold on
        // resampled CIs, so not every seed clears it even for a 5-sigma
        // shift; the peak location below is seed-independent).
        let bags = shifted_bags(24, 12, 5.0);
        let det = Detector::new(small_config()).unwrap();
        let out = det.analyze(&bags, 2).unwrap();
        let peak = out.peak().unwrap();
        assert!(
            (peak.t as i64 - 12).unsigned_abs() <= 2,
            "peak at t={} (expected near 12)",
            peak.t
        );
        assert!(
            !out.alerts().is_empty(),
            "an alert should fire for a 5-sigma shift"
        );
    }

    #[test]
    fn stationary_sequence_raises_no_alert() {
        let bags = shifted_bags(24, 100, 0.0); // no change inside the window
        let det = Detector::new(small_config()).unwrap();
        let out = det.analyze(&bags, 2).unwrap();
        assert!(out.alerts().is_empty(), "alerts: {:?}", out.alerts());
    }

    #[test]
    fn score_series_matches_analyze_scores() {
        // Bit for bit, under both scores and both weightings.
        let bags = shifted_bags(20, 10, 3.0);
        for (score, weighting) in [
            (ScoreKind::SymmetrizedKl, Weighting::Equal),
            (ScoreKind::LikelihoodRatio, Weighting::Equal),
            (ScoreKind::SymmetrizedKl, Weighting::Discounted),
            (ScoreKind::LikelihoodRatio, Weighting::Discounted),
        ] {
            let det = Detector::new(DetectorConfig {
                score,
                weighting,
                ..small_config()
            })
            .unwrap();
            let series = det.score_series(&bags, 3).unwrap();
            let full = det.analyze(&bags, 3).unwrap();
            assert_eq!(series.len(), full.points.len());
            for (s, p) in series.iter().zip(&full.points) {
                assert_eq!(s.0, p.t);
                assert_eq!(
                    s.1.to_bits(),
                    p.score.to_bits(),
                    "{score:?} / {weighting:?} at t = {}",
                    p.t
                );
            }
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let bags = shifted_bags(20, 10, 3.0);
        let det = Detector::new(small_config()).unwrap();
        let a = det.analyze(&bags, 5).unwrap();
        let b = det.analyze(&bags, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_short_sequence_rejected() {
        let bags = shifted_bags(7, 3, 1.0);
        let det = Detector::new(small_config()).unwrap();
        assert!(matches!(
            det.analyze(&bags, 1),
            Err(DetectError::SequenceTooShort { got: 7, need: 8 })
        ));
    }

    #[test]
    fn ragged_dimensions_rejected() {
        let mut bags = shifted_bags(10, 5, 1.0);
        bags.push(Bag::new(vec![vec![0.0, 0.0]; 5]));
        let det = Detector::new(small_config()).unwrap();
        assert!(matches!(
            det.analyze(&bags, 1),
            Err(DetectError::DimensionMismatch)
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Detector::new(DetectorConfig {
            tau: 0,
            ..small_config()
        })
        .is_err());
        assert!(Detector::new(DetectorConfig {
            score: ScoreKind::LikelihoodRatio,
            tau_prime: 1,
            ..small_config()
        })
        .is_err());
        assert!(Detector::new(DetectorConfig {
            signature: SignatureMethod::KMeans { k: 0 },
            ..small_config()
        })
        .is_err());
        assert!(Detector::new(DetectorConfig {
            signature: SignatureMethod::Histogram { width: -1.0 },
            ..small_config()
        })
        .is_err());
    }

    #[test]
    fn lr_score_variant_runs() {
        let bags = shifted_bags(20, 10, 4.0);
        let det = Detector::new(DetectorConfig {
            score: ScoreKind::LikelihoodRatio,
            ..small_config()
        })
        .unwrap();
        let out = det.analyze(&bags, 8).unwrap();
        let peak = out.peak().unwrap();
        assert!(
            (peak.t as i64 - 10).unsigned_abs() <= 2,
            "LR peak at {}",
            peak.t
        );
    }

    #[test]
    fn discounted_weighting_runs() {
        let bags = shifted_bags(20, 10, 4.0);
        let det = Detector::new(DetectorConfig {
            weighting: Weighting::Discounted,
            ..small_config()
        })
        .unwrap();
        let out = det.analyze(&bags, 9).unwrap();
        assert!(!out.points.is_empty());
    }

    #[test]
    fn alert_indices_have_prior_interval() {
        // xi is only defined once t - tau' is itself an inspection point.
        let bags = shifted_bags(24, 12, 5.0);
        let det = Detector::new(small_config()).unwrap();
        let out = det.analyze(&bags, 10).unwrap();
        let first = det.layout().first_t();
        for p in &out.points {
            if p.t < first + det.config().tau_prime {
                assert!(p.xi.is_none(), "xi defined too early at t={}", p.t);
                assert!(!p.alert);
            } else {
                assert!(p.xi.is_some());
            }
        }
    }

    #[test]
    fn segments_split_at_alerts() {
        // Seed 2 is the same run as `detects_hard_mean_shift`, which
        // asserts an alert fires.
        let bags = shifted_bags(24, 12, 5.0);
        let det = Detector::new(small_config()).unwrap();
        let out = det.analyze(&bags, 2).unwrap();
        let segs = out.segments(bags.len());
        // Segments tile 0..n without gaps or overlaps.
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs.last().unwrap().end, 24);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The change at 12 is a segment boundary.
        assert!(
            segs.iter()
                .any(|r| (r.start as i64 - 12).unsigned_abs() <= 2),
            "segments {segs:?}"
        );
    }

    #[test]
    fn segments_with_no_alerts_is_whole_range() {
        let bags = shifted_bags(20, 999, 0.0);
        let det = Detector::new(small_config()).unwrap();
        let out = det.analyze(&bags, 31).unwrap();
        assert_eq!(out.segments(20), vec![0..20]);
    }

    #[test]
    fn pairwise_emd_is_symmetric_zero_diagonal() {
        let bags = shifted_bags(10, 5, 2.0);
        let det = Detector::new(small_config()).unwrap();
        let sigs = det.signatures(&bags, 6).unwrap();
        let m = det.pairwise_emd(&sigs).unwrap();
        for i in 0..m.rows() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..m.cols() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
        }
    }
}
