//! Incremental single-stream detector: `push(bag) -> Option<ScorePoint>`.

use crate::cache::{EmdScratch, SignatureWindow};
use bagcpd::{
    signature_at_with, Bag, DetectError, Detector, EvalScratch, ScorePoint, WindowScorer,
};
use emd::Signature;
use infoest::DistanceMatrix;
use std::collections::VecDeque;

/// Complete serializable state of an [`OnlineDetector`], independent of
/// its configuration (which the host supplies again at restore time).
///
/// No RNG state appears here: signature quantization and bootstrap
/// replicates are pure functions of `(seed, position)` (see
/// `bagcpd::signature_at` / `bagcpd::bootstrap_seed`), so position
/// counters are sufficient to resume bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineState {
    /// Master seed of this stream.
    pub seed: u64,
    /// Bags consumed so far.
    pub pushed: u64,
    /// Score points emitted so far.
    pub emitted: u64,
    /// Enforced bag dimension, once the first bag arrived.
    pub dim: Option<u32>,
    /// Retained window signatures, oldest first.
    pub sigs: Vec<Signature>,
    /// Cached pairwise distances as flattened forward rows: for each
    /// signature `k` (oldest first), its distances to signatures
    /// `k+1..n`, concatenated — `n (n-1) / 2` values in total.
    pub rows: Vec<f64>,
    /// Upper CI bounds of the last `<= tau'` emitted points.
    pub ci_up_hist: Vec<f64>,
}

/// Online wrapper of `bagcpd::Detector`: bags are pushed one at a time;
/// each push beyond the warm-up emits exactly one [`ScorePoint`] with a
/// latency of `tau'` bags, bit-identical to running
/// [`Detector::analyze`] on the full sequence.
///
/// Cost per push is one signature build plus at most `tau + tau' - 1`
/// EMD solves (each pair solved once and reused across the inspection
/// points it participates in); memory is bounded by the window width
/// regardless of stream length — unlike `bagcpd::StreamingDetector`,
/// which retains and re-analyzes the whole prefix.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    detector: Detector,
    seed: u64,
    window: SignatureWindow,
    pushed: u64,
    emitted: u64,
    ci_up_hist: VecDeque<f64>,
    dim: Option<u32>,
}

impl OnlineDetector {
    /// Wrap a validated detector for online use; `seed` plays the same
    /// role as the seed of [`Detector::analyze`].
    pub fn new(detector: Detector, seed: u64) -> Self {
        let w = detector.config().tau + detector.config().tau_prime;
        OnlineDetector {
            detector,
            seed,
            window: SignatureWindow::new(w),
            pushed: 0,
            emitted: 0,
            ci_up_hist: VecDeque::new(),
            dim: None,
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Bags consumed so far.
    pub fn bags_seen(&self) -> u64 {
        self.pushed
    }

    /// Score points emitted so far.
    pub fn points_emitted(&self) -> u64 {
        self.emitted
    }

    /// Bags still needed before the first (or next) point can be
    /// emitted; zero once warm.
    pub fn warm_up_remaining(&self) -> u64 {
        let w = self.window.capacity() as u64;
        w.saturating_sub(self.pushed)
    }

    /// Consume the next bag; once `tau + tau'` bags have arrived, every
    /// push emits the score point for inspection time
    /// `t = bags_seen - tau'`.
    ///
    /// # Errors
    /// [`DetectError::DimensionMismatch`] if the bag's dimension differs
    /// from this stream's established dimension, or an EMD failure.
    pub fn push(&mut self, bag: Bag) -> Result<Option<ScorePoint>, DetectError> {
        self.push_with(bag, &mut EvalScratch::new(), &mut EmdScratch::new())
    }

    /// As [`OnlineDetector::push`], but evaluating through caller-kept
    /// scratches: the engine's workers hold one [`EvalScratch`]
    /// (bootstrap buffers) and one [`EmdScratch`] (EMD solver tableau,
    /// window-push column, scorer-matrix storage, signature-recycling
    /// pools) each and reuse them across every stream they evaluate in
    /// a tick. Once warm, the entire push→score path — the signature
    /// build (histogram method: the evicted signature's buffers are
    /// recycled into the new one), signature-to-window distances, the
    /// incremental matrix update, the scorer, and every bootstrap
    /// replicate — performs **zero** heap allocation. Bit-identical to
    /// [`OnlineDetector::push`].
    ///
    /// # Errors
    /// As [`OnlineDetector::push`].
    pub fn push_with(
        &mut self,
        bag: Bag,
        scratch: &mut EvalScratch,
        emd: &mut EmdScratch,
    ) -> Result<Option<ScorePoint>, DetectError> {
        let d = bag.dim() as u32;
        match self.dim {
            None => self.dim = Some(d),
            Some(expect) if expect != d => return Err(DetectError::DimensionMismatch),
            _ => {}
        }
        let cfg = self.detector.config();
        let sig = signature_at_with(&bag, &cfg.signature, self.seed, self.pushed, &mut emd.sig);
        let evicted = self
            .window
            .push_with(sig, &cfg.solver, &cfg.metric, emd)
            .map_err(DetectError::Emd)?;
        if let Some(old) = evicted {
            // The evicted signature's buffers seed the next build —
            // with histogram signatures this closes the last warm-push
            // allocation.
            emd.sig.recycle(old);
        }
        self.pushed += 1;
        if !self.window.is_full() {
            return Ok(None);
        }

        let tau_prime = cfg.tau_prime;
        let t = (self.pushed as usize) - tau_prime;
        // Build the scorer in the recycled matrix storage: the window
        // copies its in-place matrix into the buffer, the scorer takes
        // its logarithms there, and the buffer returns to the scratch
        // once the point is evaluated.
        let w = self.window.len();
        let mut buf = std::mem::take(&mut emd.matrix);
        self.window.matrix_into(&mut buf);
        let scorer = WindowScorer::from_distances(
            DistanceMatrix::from_vec(w, w, buf),
            cfg.tau,
            tau_prime,
            cfg.estimator,
        );
        // The point one test window back exists iff at least tau' points
        // were already emitted; its upper CI bound is then the oldest
        // retained history entry.
        let prev_ci_up = if self.emitted >= tau_prime as u64 {
            debug_assert_eq!(self.ci_up_hist.len(), tau_prime);
            self.ci_up_hist.front().copied()
        } else {
            None
        };
        let point = self
            .detector
            .evaluate_point_with(&scorer, t, prev_ci_up, self.seed, scratch);
        emd.matrix = scorer.into_log_distances().into_vec();
        self.ci_up_hist.push_back(point.ci.up);
        if self.ci_up_hist.len() > tau_prime {
            self.ci_up_hist.pop_front();
        }
        self.emitted += 1;
        Ok(Some(point))
    }

    /// Push a batch of bags, collecting the emitted points.
    ///
    /// # Errors
    /// As [`OnlineDetector::push`]; bags before the failing one remain
    /// consumed.
    pub fn push_many(
        &mut self,
        bags: impl IntoIterator<Item = Bag>,
    ) -> Result<Vec<ScorePoint>, DetectError> {
        let mut scratch = EvalScratch::new();
        let mut emd = EmdScratch::new();
        let mut out = Vec::new();
        for bag in bags {
            if let Some(p) = self.push_with(bag, &mut scratch, &mut emd)? {
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Export the full resumable state (the detector config is not
    /// included; supply the same config to [`OnlineDetector::from_state`]).
    pub fn state(&self) -> OnlineState {
        let (sigs, rows) = self.window.parts();
        OnlineState {
            seed: self.seed,
            pushed: self.pushed,
            emitted: self.emitted,
            dim: self.dim,
            sigs,
            rows,
            ci_up_hist: self.ci_up_hist.iter().copied().collect(),
        }
    }

    /// Rebuild a detector mid-stream from a snapshot state.
    ///
    /// # Errors
    /// A description of any inconsistency between the state and the
    /// detector's configuration.
    pub fn from_state(detector: Detector, state: OnlineState) -> Result<Self, String> {
        let cfg = detector.config();
        let w = cfg.tau + cfg.tau_prime;
        let window = SignatureWindow::from_parts(w, state.sigs, state.rows)?;
        let expected_retained = (state.pushed as usize).min(w);
        if window.len() != expected_retained {
            return Err(format!(
                "{} retained signatures inconsistent with {} pushed bags (window {w})",
                window.len(),
                state.pushed
            ));
        }
        let expected_emitted = (state.pushed as usize + 1).saturating_sub(w) as u64;
        if state.emitted != expected_emitted {
            return Err(format!(
                "{} emitted points inconsistent with {} pushed bags",
                state.emitted, state.pushed
            ));
        }
        let expected_hist = (state.emitted as usize).min(cfg.tau_prime);
        if state.ci_up_hist.len() != expected_hist {
            return Err(format!(
                "{} CI history entries, expected {expected_hist}",
                state.ci_up_hist.len()
            ));
        }
        if state.pushed > 0 && state.dim.is_none() {
            return Err("missing dimension for a non-empty stream".into());
        }
        Ok(OnlineDetector {
            detector,
            seed: state.seed,
            window,
            pushed: state.pushed,
            emitted: state.emitted,
            ci_up_hist: state.ci_up_hist.into(),
            dim: state.dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};

    fn shifted_bags(n: usize, change_at: usize, magnitude: f64) -> Vec<Bag> {
        (0..n)
            .map(|t| {
                let level = if t < change_at { 0.0 } else { magnitude };
                Bag::from_scalars((0..40).map(move |i| level + ((i * 7 + t) % 11) as f64 * 0.05))
            })
            .collect()
    }

    fn detector(signature: SignatureMethod) -> Detector {
        Detector::new(DetectorConfig {
            tau: 4,
            tau_prime: 3,
            signature,
            bootstrap: BootstrapConfig {
                replicates: 64,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn matches_batch_bit_for_bit() {
        for signature in [
            SignatureMethod::Histogram { width: 0.25 },
            SignatureMethod::KMeans { k: 4 },
        ] {
            let bags = shifted_bags(20, 10, 4.0);
            let det = detector(signature);
            let batch = det.analyze(&bags, 11).unwrap();

            let mut online = OnlineDetector::new(det, 11);
            let mut points = Vec::new();
            for bag in bags {
                points.extend(online.push(bag).unwrap());
            }
            assert_eq!(batch.points, points);
        }
    }

    #[test]
    fn emission_schedule() {
        let det = detector(SignatureMethod::Histogram { width: 0.25 });
        let mut online = OnlineDetector::new(det, 1);
        assert_eq!(online.warm_up_remaining(), 7);
        for (i, bag) in shifted_bags(12, 99, 0.0).into_iter().enumerate() {
            let point = online.push(bag).unwrap();
            if i + 1 < 7 {
                assert!(point.is_none(), "no emission during warm-up (bag {i})");
            } else {
                // Bag count n emits inspection point t = n - tau'.
                assert_eq!(point.unwrap().t, i + 1 - 3);
            }
        }
        assert_eq!(online.bags_seen(), 12);
        assert_eq!(online.points_emitted(), 6);
    }

    #[test]
    fn dimension_change_rejected() {
        let det = detector(SignatureMethod::Histogram { width: 0.25 });
        let mut online = OnlineDetector::new(det, 1);
        online.push(Bag::from_scalars([1.0, 2.0])).unwrap();
        let two_d = Bag::new(vec![vec![1.0, 2.0]; 3]);
        assert!(matches!(
            online.push(two_d),
            Err(DetectError::DimensionMismatch)
        ));
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let bags = shifted_bags(22, 11, 4.0);
        let det = detector(SignatureMethod::KMeans { k: 4 });

        // Reference: one uninterrupted stream.
        let mut reference = OnlineDetector::new(det.clone(), 3);
        let mut expected = Vec::new();
        for bag in bags.clone() {
            expected.extend(reference.push(bag).unwrap());
        }

        // Interrupted: snapshot mid-window (9 bags: warm but mid-history),
        // restore, finish.
        let mut first = OnlineDetector::new(det.clone(), 3);
        let mut got = Vec::new();
        for bag in bags.iter().take(9).cloned() {
            got.extend(first.push(bag).unwrap());
        }
        let state = first.state();
        drop(first);
        let mut resumed = OnlineDetector::from_state(det, state).unwrap();
        for bag in bags.iter().skip(9).cloned() {
            got.extend(resumed.push(bag).unwrap());
        }
        assert_eq!(expected, got);
    }

    #[test]
    fn from_state_rejects_inconsistent_counts() {
        let det = detector(SignatureMethod::Histogram { width: 0.25 });
        let mut online = OnlineDetector::new(det.clone(), 5);
        for bag in shifted_bags(10, 99, 0.0) {
            online.push(bag).unwrap();
        }
        let good = online.state();

        let mut bad = good.clone();
        bad.emitted += 1;
        assert!(OnlineDetector::from_state(det.clone(), bad).is_err());

        let mut bad = good.clone();
        bad.sigs.pop();
        bad.rows.pop();
        assert!(OnlineDetector::from_state(det.clone(), bad).is_err());

        let mut bad = good;
        bad.ci_up_hist.clear();
        assert!(OnlineDetector::from_state(det, bad).is_err());
    }
}
