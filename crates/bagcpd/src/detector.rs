//! End-to-end detector: bags in, scores + confidence intervals + alerts
//! out (§§2–4 assembled).

use crate::bag::Bag;
use crate::bootstrap::{bootstrap_ci_with, BootstrapConfig, BootstrapScratch, ConfidenceInterval};
use crate::error::DetectError;
use crate::score::{EmdSolver, ScoreKind, ScoreScratch, SolverScratch, WindowScorer};
use crate::signature_builder::{derive_seed, signature_at, GroundMetric, SignatureMethod};
use crate::window::{window_weights, window_weights_into, Weighting, WindowLayout};
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
    /// Optimal-transport solver (exact simplex by default; Sinkhorn as
    /// a fast approximation for large signatures).
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
        match &self.solver {
            EmdSolver::Exact => {}
            EmdSolver::Sinkhorn(cfg) => cfg.validate().map_err(DetectError::BadConfig)?,
            EmdSolver::Tiered(cfg) => {
                if let Some(eps) = cfg.epsilon {
                    if !(eps.is_finite() && eps > 0.0) {
                        return Err(DetectError::BadConfig(
                            "tiered epsilon must be finite and > 0".into(),
                        ));
                    }
                    // The estimate tier only runs in bounded-error mode.
                    cfg.estimate.validate().map_err(DetectError::BadConfig)?;
                }
            }
        }
        Ok(())
    }
}

/// Reusable buffers for one inspection-point evaluation: the nominal
/// window weights, their normalized form for the nominal score, plus the
/// bootstrap's [`BootstrapScratch`] (which carries the replicates' own
/// normalized weights).
///
/// [`Detector::evaluate_point_with`] fills these instead of allocating;
/// a long-lived caller (the per-worker tick loop in `crates/stream`)
/// keeps one scratch and reuses it across every stream and every
/// inspection point it evaluates. Results are bit-identical to the
/// allocating [`Detector::evaluate_point`].
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Nominal reference-window weights.
    ref_weights: Vec<f64>,
    /// Nominal test-window weights.
    test_weights: Vec<f64>,
    /// Normalized nominal weights for the nominal score.
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
            .max_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"))
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
    /// (see [`signature_at`]), so an online consumer can reproduce any
    /// single signature without the bags before it.
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
        Ok(bags
            .iter()
            .enumerate()
            .map(|(i, b)| signature_at(b, &self.cfg.signature, seed, i as u64))
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
        let (sigs, band) = self.prepare(bags, seed)?;
        let layout = self.layout();
        let last = layout.last_t(bags.len()).expect("validated in prepare");
        let mut out = Vec::with_capacity(last + 1 - layout.first_t());
        for t in layout.first_t()..=last {
            let scorer = self.window_scorer(&sigs, &band, t)?;
            let (wr, wt) = self.weights(t);
            out.push((t, scorer.score(self.cfg.score, &wr, &wt)));
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
        let (sigs, band) = self.prepare(bags, seed)?;
        let layout = self.layout();
        let last = layout.last_t(bags.len()).expect("validated in prepare");

        let mut scratch = EvalScratch::new();
        let mut points: Vec<ScorePoint> = Vec::with_capacity(last + 1 - layout.first_t());
        for t in layout.first_t()..=last {
            let scorer = self.window_scorer(&sigs, &band, t)?;
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
    /// guarantees stream/batch score and alert parity.
    pub fn evaluate_point(
        &self,
        scorer: &WindowScorer,
        t: usize,
        prev_ci_up: Option<f64>,
        seed: u64,
    ) -> ScorePoint {
        self.evaluate_point_with(scorer, t, prev_ci_up, seed, &mut EvalScratch::new())
    }

    /// As [`Detector::evaluate_point`], but allocation-free: every
    /// buffer (nominal weights, bootstrap seeds/weights/scores) comes
    /// from `scratch`, which the caller keeps alive across inspection
    /// points and streams. Bit-identical to the allocating form.
    pub fn evaluate_point_with(
        &self,
        scorer: &WindowScorer,
        t: usize,
        prev_ci_up: Option<f64>,
        seed: u64,
        scratch: &mut EvalScratch,
    ) -> ScorePoint {
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
        let score = scorer.score_with(
            self.cfg.score,
            &scratch.ref_weights,
            &scratch.test_weights,
            &mut scratch.score,
        );
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

    /// Shared front half: validate, build signatures, compute the banded
    /// distance matrix (pairs closer than one window width).
    fn prepare(
        &self,
        bags: &[Bag],
        seed: u64,
    ) -> Result<(Vec<Signature>, DistanceMatrix), DetectError> {
        let need = self.cfg.tau + self.cfg.tau_prime;
        if bags.len() < need {
            return Err(DetectError::SequenceTooShort {
                got: bags.len(),
                need,
            });
        }
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
        Ok((sigs, DistanceMatrix::from_vec(n, n, data)))
    }

    /// Extract the window block of the banded matrix as a scorer.
    fn window_scorer(
        &self,
        _sigs: &[Signature],
        band: &DistanceMatrix,
        t: usize,
    ) -> Result<WindowScorer, DetectError> {
        let layout = self.layout();
        let lo = t - self.cfg.tau;
        let hi = t + self.cfg.tau_prime;
        debug_assert!(hi <= band.rows());
        debug_assert_eq!(layout.ref_range(t).start, lo);
        let block = band.block(lo..hi, lo..hi);
        Ok(WindowScorer::from_distances(
            block,
            self.cfg.tau,
            self.cfg.tau_prime,
            self.cfg.estimator,
        ))
    }

    /// Nominal window weights at inspection point `t`.
    fn weights(&self, t: usize) -> (Vec<f64>, Vec<f64>) {
        let layout = self.layout();
        (
            window_weights(self.cfg.weighting, t, layout.ref_range(t), true),
            window_weights(self.cfg.weighting, t, layout.test_range(t), false),
        )
    }
}

/// Streaming wrapper: push bags one at a time, get a [`ScorePoint`] as
/// soon as each inspection point completes (i.e. with a delay of τ'
/// bags).
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    detector: Detector,
    bags: Vec<Bag>,
    emitted: usize,
    seed: u64,
}

impl StreamingDetector {
    /// Wrap a detector for online use.
    pub fn new(detector: Detector, seed: u64) -> Self {
        StreamingDetector {
            detector,
            bags: Vec::new(),
            emitted: 0,
            seed,
        }
    }

    /// Number of bags consumed so far.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether no bags have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Push the next bag; returns the newly completed score points (0 or
    /// 1 of them, once warm).
    ///
    /// # Errors
    /// As [`Detector::analyze`]. Note the analysis is recomputed over the
    /// retained window, reusing the same seed, so results match the batch
    /// API on the same prefix.
    pub fn push(&mut self, bag: Bag) -> Result<Vec<ScorePoint>, DetectError> {
        self.bags.push(bag);
        let layout = self.detector.layout();
        let Some(last) = layout.last_t(self.bags.len()) else {
            return Ok(Vec::new());
        };
        let first = layout.first_t();
        let pending: Vec<usize> = (first..=last).skip(self.emitted).collect();
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        // Recompute over the full retained sequence; deterministic seed
        // keeps this consistent with batch analysis.
        let detection = self.detector.analyze(&self.bags, self.seed)?;
        let newly: Vec<ScorePoint> = detection.points.into_iter().skip(self.emitted).collect();
        self.emitted += newly.len();
        Ok(newly)
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
        let bags = shifted_bags(20, 10, 3.0);
        let det = Detector::new(small_config()).unwrap();
        let series = det.score_series(&bags, 3).unwrap();
        let full = det.analyze(&bags, 3).unwrap();
        assert_eq!(series.len(), full.points.len());
        for (s, p) in series.iter().zip(&full.points) {
            assert_eq!(s.0, p.t);
            assert!((s.1 - p.score).abs() < 1e-12);
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
    fn sinkhorn_solver_finds_the_same_peak() {
        use emd::SinkhornConfig;
        let bags = shifted_bags(20, 10, 4.0);
        let exact = Detector::new(small_config()).unwrap();
        let approx = Detector::new(DetectorConfig {
            solver: EmdSolver::Sinkhorn(SinkhornConfig {
                epsilon: 0.05,
                ..Default::default()
            }),
            ..small_config()
        })
        .unwrap();
        let pe = exact.score_series(&bags, 21).unwrap();
        let pa = approx.score_series(&bags, 21).unwrap();
        let peak = |s: &[(usize, f64)]| {
            s.iter()
                .cloned()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(peak(&pe), peak(&pa), "solvers disagree on the peak");
    }

    #[test]
    fn tiered_exact_mode_analysis_is_bit_identical_to_exact() {
        use crate::score::TieredConfig;
        let bags = shifted_bags(24, 12, 4.0);
        let exact = Detector::new(small_config()).unwrap();
        let tiered = Detector::new(DetectorConfig {
            solver: EmdSolver::Tiered(TieredConfig::default()),
            ..small_config()
        })
        .unwrap();
        let oe = exact.analyze(&bags, 77).unwrap();
        let ot = tiered.analyze(&bags, 77).unwrap();
        assert_eq!(oe.points.len(), ot.points.len());
        for (e, t) in oe.points.iter().zip(&ot.points) {
            assert_eq!(e, t, "tiered exact mode diverged at t = {}", e.t);
        }
    }

    #[test]
    fn tiered_bounded_mode_finds_the_same_peak() {
        use crate::score::TieredConfig;
        let bags = shifted_bags(20, 10, 4.0);
        let exact = Detector::new(small_config()).unwrap();
        let bounded = Detector::new(DetectorConfig {
            solver: EmdSolver::Tiered(TieredConfig {
                epsilon: Some(0.05),
                ..TieredConfig::default()
            }),
            ..small_config()
        })
        .unwrap();
        let pe = exact.score_series(&bags, 21).unwrap();
        let pb = bounded.score_series(&bags, 21).unwrap();
        let peak = |s: &[(usize, f64)]| {
            s.iter()
                .cloned()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(peak(&pe), peak(&pb), "solvers disagree on the peak");
    }

    #[test]
    fn validate_rejects_bad_tiered_epsilon() {
        use crate::score::TieredConfig;
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = DetectorConfig {
                solver: EmdSolver::Tiered(TieredConfig {
                    epsilon: Some(eps),
                    ..TieredConfig::default()
                }),
                ..small_config()
            };
            assert!(cfg.validate().is_err(), "epsilon {eps} accepted");
        }
    }

    #[test]
    fn streaming_matches_batch() {
        let bags = shifted_bags(20, 10, 3.0);
        let det = Detector::new(small_config()).unwrap();
        let batch = det.analyze(&bags, 4).unwrap();

        let mut stream = StreamingDetector::new(det, 4);
        let mut streamed: Vec<ScorePoint> = Vec::new();
        for bag in bags {
            streamed.extend(stream.push(bag).unwrap());
        }
        assert_eq!(batch.points.len(), streamed.len());
        for (a, b) in batch.points.iter().zip(&streamed) {
            assert_eq!(a.t, b.t);
            assert!((a.score - b.score).abs() < 1e-12);
        }
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
