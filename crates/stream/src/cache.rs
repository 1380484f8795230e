//! Ring-buffered signature window with an incrementally maintained
//! pairwise-EMD matrix.
//!
//! The batch detector computes a banded distance matrix over the whole
//! sequence up front. Online, the same band is maintained incrementally:
//! each arriving signature costs `w - 1` EMD solves (one against every
//! retained signature), and every inspection point it participates in
//! reuses those cached distances instead of re-solving — the
//! "compute once, reuse across inspection points" contract of the
//! streaming engine.
//!
//! Distances live in one flat row-major `n x n` buffer in window order
//! (oldest first) that is updated *in place* on push: eviction compacts
//! the matrix by one row/column with two `memmove`s, and the new
//! signature's distances are written into the freed last row/column.
//! Nothing is re-materialized per push, and with a warm
//! [`EmdScratch`] the whole operation performs no heap allocation.

use crate::telemetry::SolveTimer;
use bagcpd::score::{EmdSolver, SolverScratch, SolverStats};
use bagcpd::{GroundMetric, SignatureScratch};
use emd::{EmdError, Signature};
use infoest::DistanceMatrix;
use std::collections::VecDeque;

/// Per-worker reusable state for the push→score hot path: the EMD
/// solver tableau, the pending-distance column of a window push, the
/// recycled storage of the per-push scorer matrix, and the
/// signature-build recycling pools (evicted signatures dismantled into
/// the next build's buffers).
///
/// One scratch serves every stream a worker ticks over (mirroring
/// `bagcpd::EvalScratch` for the bootstrap side): it is keyed by problem
/// shape, not by stream, and every solve overwrites what it reads.
#[derive(Debug, Clone, Default)]
pub struct EmdScratch {
    /// EMD solver buffers (transportation simplex / Sinkhorn).
    pub(crate) solver: SolverScratch,
    /// Distances of an incoming signature to the retained ones.
    pub(crate) col: Vec<f64>,
    /// Recycled storage for the per-push scorer matrix.
    pub(crate) matrix: Vec<f64>,
    /// Signature-build pools (histogram tables + dismantled signatures).
    pub(crate) sig: SignatureScratch,
    /// Optional solve-latency probe: when set, every EMD solve routed
    /// through this scratch is timed into the probe's histogram. The
    /// probe is a pair of `Arc`ed handles, so timing allocates nothing.
    pub(crate) timer: Option<SolveTimer>,
}

impl EmdScratch {
    /// Empty scratch; buffers grow to the window's shape on first use.
    pub fn new() -> Self {
        EmdScratch::default()
    }

    /// Time every solve routed through this scratch into `timer`'s
    /// histogram (the engine sets this on each worker's scratch when
    /// telemetry is configured).
    pub fn set_solve_timer(&mut self, timer: SolveTimer) {
        self.timer = Some(timer);
    }

    /// Cumulative solver work counters (exact solves, pivots, Sinkhorn
    /// solves and sweeps) gathered by the underlying solver scratches.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

/// Sliding window of the last `capacity` signatures plus all pairwise
/// distances among them, kept as a flat row-major matrix in window
/// order (index 0 = oldest retained signature).
#[derive(Debug, Clone)]
pub struct SignatureWindow {
    capacity: usize,
    sigs: VecDeque<Signature>,
    /// Row-major `len x len` distance matrix (symmetric, zero diagonal).
    dist: Vec<f64>,
}

impl SignatureWindow {
    /// A window retaining `capacity >= 2` signatures.
    ///
    /// # Panics
    /// Panics if `capacity < 2` (no pair to ever score).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "SignatureWindow: capacity must be >= 2");
        SignatureWindow {
            capacity,
            sigs: VecDeque::with_capacity(capacity),
            // Full capacity reserved up front: warm-up growth and
            // steady-state updates never reallocate.
            dist: Vec::with_capacity(capacity * capacity),
        }
    }

    /// Number of retained signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Whether the window holds `capacity` signatures.
    pub fn is_full(&self) -> bool {
        self.sigs.len() == self.capacity
    }

    /// The retention capacity `w`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained signatures, oldest first.
    pub fn signatures(&self) -> impl Iterator<Item = &Signature> {
        self.sigs.iter()
    }

    /// Push the next signature, evicting (and returning) the oldest if
    /// full, and compute its distance to every retained signature
    /// (exactly once each). The returned signature lets the caller
    /// recycle its buffers into the next build.
    ///
    /// Equivalent to [`SignatureWindow::push_with`] with a fresh
    /// [`EmdScratch`].
    ///
    /// # Errors
    /// Propagates EMD solver failures; the window is left unchanged in
    /// that case.
    pub fn push(
        &mut self,
        sig: Signature,
        solver: &EmdSolver,
        metric: &GroundMetric,
    ) -> Result<Option<Signature>, EmdError> {
        self.push_with(sig, solver, metric, &mut EmdScratch::new())
    }

    /// As [`SignatureWindow::push`], solving through a caller-kept
    /// [`EmdScratch`]: with the scratch warm and the window full, the
    /// push touches no heap at all. Bit-identical results.
    ///
    /// # Errors
    /// As [`SignatureWindow::push`].
    pub fn push_with(
        &mut self,
        sig: Signature,
        solver: &EmdSolver,
        metric: &GroundMetric,
        scratch: &mut EmdScratch,
    ) -> Result<Option<Signature>, EmdError> {
        // Compute against the signatures that will remain after an
        // eviction, before mutating anything (error safety).
        let evict = self.sigs.len() == self.capacity;
        let keep_from = usize::from(evict);
        scratch.col.clear();
        for old in self.sigs.iter().skip(keep_from) {
            let t0 = scratch.timer.as_ref().map(SolveTimer::start);
            let d = solver.distance_with(old, &sig, metric, &mut scratch.solver)?;
            if let (Some(timer), Some(t0)) = (scratch.timer.as_ref(), t0) {
                timer.stop(t0);
            }
            scratch.col.push(d);
        }
        let evicted = if evict {
            let old = self.sigs.pop_front();
            self.remove_oldest_row_col();
            old
        } else {
            None
        };
        self.append_row_col(&scratch.col);
        self.sigs.push_back(sig);
        Ok(evicted)
    }

    /// Compact the matrix from `n x n` to `(n-1) x (n-1)` in place by
    /// dropping row 0 and column 0 (the evicted signature).
    fn remove_oldest_row_col(&mut self) {
        let n = self.sigs.len() + 1; // called after sigs.pop_front()
        debug_assert_eq!(self.dist.len(), n * n);
        for i in 1..n {
            // Row i without its first column becomes row i-1 of the
            // shrunk matrix; destinations always precede sources, so a
            // forward sweep never clobbers unread data.
            self.dist
                .copy_within(i * n + 1..(i + 1) * n, (i - 1) * (n - 1));
        }
        self.dist.truncate((n - 1) * (n - 1));
    }

    /// Grow the matrix from `k x k` to `(k+1) x (k+1)` in place and fill
    /// the new last row/column with `col` (distances of the incoming
    /// signature to the `k` retained ones, oldest first).
    fn append_row_col(&mut self, col: &[f64]) {
        let k = self.sigs.len();
        debug_assert_eq!(self.dist.len(), k * k);
        debug_assert_eq!(col.len(), k);
        let n = k + 1;
        self.dist.resize(n * n, 0.0);
        // Re-stride rows from k to k+1, highest row first (each row's
        // destination sits at or past its source, and rows above were
        // already moved out of the way).
        for i in (1..k).rev() {
            self.dist.copy_within(i * k..(i + 1) * k, i * n);
        }
        for (i, &d) in col.iter().enumerate() {
            self.dist[i * n + k] = d;
            self.dist[k * n + i] = d;
        }
        self.dist[k * n + k] = 0.0;
    }

    /// Distance between retained signatures `i` and `j` (window-local
    /// indices, oldest = 0).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let n = self.sigs.len();
        assert!(i < n && j < n, "SignatureWindow::distance: index range");
        self.dist[i * n + j]
    }

    /// Copy the full `len x len` distance matrix (oldest first) into a
    /// reused buffer — paired with `DistanceMatrix::from_vec` /
    /// `LogDistances::into_vec`, the per-push scorer is built with no
    /// allocation.
    pub fn matrix_into(&self, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend_from_slice(&self.dist);
    }

    /// Materialize the full `len x len` distance matrix (oldest first) —
    /// the input `WindowScorer::from_distances` expects.
    pub fn matrix(&self) -> DistanceMatrix {
        let n = self.sigs.len();
        DistanceMatrix::from_vec(n, n, self.dist.clone())
    }

    /// Borrowed view of the parts for snapshotting without consuming:
    /// the retained signatures plus the flattened forward distance rows
    /// (row `k` holds the distances from signature `k` to signatures
    /// `k+1..n`, concatenated — `n (n-1) / 2` values).
    pub fn parts(&self) -> (Vec<Signature>, Vec<f64>) {
        let n = self.sigs.len();
        let mut rows = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            rows.extend_from_slice(&self.dist[i * n + i + 1..(i + 1) * n]);
        }
        (self.sigs.iter().cloned().collect(), rows)
    }

    /// Rebuild from snapshot parts, validating shape consistency.
    ///
    /// # Errors
    /// A description of the inconsistency.
    pub fn from_parts(
        capacity: usize,
        sigs: Vec<Signature>,
        rows: Vec<f64>,
    ) -> Result<Self, String> {
        if capacity < 2 {
            return Err("window capacity must be >= 2".into());
        }
        if sigs.len() > capacity {
            return Err(format!(
                "{} retained signatures exceed capacity {capacity}",
                sigs.len()
            ));
        }
        let n = sigs.len();
        let expected = n * (n - 1) / 2;
        if rows.len() != expected {
            return Err(format!(
                "{} distance entries for {n} signatures (expected {expected})",
                rows.len()
            ));
        }
        if rows.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err("a distance entry is non-finite or negative".into());
        }
        // Expand the forward rows into the full symmetric matrix.
        let mut dist = Vec::with_capacity(capacity * capacity);
        dist.resize(n * n, 0.0);
        let mut at = 0;
        for i in 0..n {
            for j in i + 1..n {
                let d = rows[at];
                at += 1;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        Ok(SignatureWindow {
            capacity,
            sigs: sigs.into(),
            dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::score::EmdSolver;

    fn sig(x: f64) -> Signature {
        Signature::new(vec![vec![x]], vec![1.0]).unwrap()
    }

    fn window_with(values: &[f64], capacity: usize) -> SignatureWindow {
        let mut w = SignatureWindow::new(capacity);
        let mut scratch = EmdScratch::new();
        for &v in values {
            w.push_with(
                sig(v),
                &EmdSolver::Exact,
                &GroundMetric::Euclidean,
                &mut scratch,
            )
            .unwrap();
        }
        w
    }

    #[test]
    fn distances_match_direct_emd() {
        let w = window_with(&[0.0, 1.0, 3.0, 7.0], 4);
        assert_eq!(w.len(), 4);
        assert!((w.distance(0, 1) - 1.0).abs() < 1e-12);
        assert!((w.distance(0, 3) - 7.0).abs() < 1e-12);
        assert!((w.distance(2, 1) - 2.0).abs() < 1e-12, "symmetric access");
        assert_eq!(w.distance(2, 2), 0.0);
    }

    #[test]
    fn eviction_keeps_band_consistent() {
        let w = window_with(&[0.0, 1.0, 3.0, 7.0, 15.0], 4);
        // Window now holds 1, 3, 7, 15.
        assert!(w.is_full());
        assert!((w.distance(0, 3) - 14.0).abs() < 1e-12);
        let m = w.matrix();
        assert_eq!(m.rows(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((m.get(i, j) - w.distance(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn long_stream_matrix_matches_pairwise_solves() {
        // Drive far past capacity and check every cached entry against a
        // direct solve — the in-place compact/append cycle must never
        // smear rows.
        let values: Vec<f64> = (0..23).map(|i| (i as f64 * 1.7).sin() * 10.0).collect();
        let w = window_with(&values, 5);
        let kept = &values[18..];
        for i in 0..5 {
            for j in 0..5 {
                let expect = (kept[i] - kept[j]).abs();
                assert!(
                    (w.distance(i, j) - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    w.distance(i, j)
                );
            }
        }
    }

    #[test]
    fn push_with_shared_scratch_matches_fresh() {
        let mut shared = SignatureWindow::new(4);
        let mut fresh = SignatureWindow::new(4);
        let mut scratch = EmdScratch::new();
        for v in [0.0, 2.0, 5.0, 9.0, 14.0, 20.0] {
            shared
                .push_with(
                    sig(v),
                    &EmdSolver::Exact,
                    &GroundMetric::Euclidean,
                    &mut scratch,
                )
                .unwrap();
            fresh
                .push(sig(v), &EmdSolver::Exact, &GroundMetric::Euclidean)
                .unwrap();
        }
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    shared.distance(i, j).to_bits(),
                    fresh.distance(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn parts_round_trip() {
        let w = window_with(&[2.0, 4.0, 8.0], 5);
        let (sigs, rows) = w.parts();
        assert_eq!(rows.len(), 3);
        let back = SignatureWindow::from_parts(5, sigs, rows).unwrap();
        assert_eq!(back.len(), 3);
        assert!((back.distance(0, 2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_rejects_wrong_length_or_bad_values() {
        let (sigs, mut rows) = window_with(&[2.0, 4.0, 8.0], 5).parts();
        rows.pop();
        assert!(SignatureWindow::from_parts(5, sigs, rows).is_err());

        let (sigs, mut rows) = window_with(&[2.0, 4.0, 8.0], 5).parts();
        rows[0] = f64::NAN;
        assert!(SignatureWindow::from_parts(5, sigs, rows).is_err());

        let (sigs, rows) = window_with(&[2.0, 4.0, 8.0], 5).parts();
        assert!(SignatureWindow::from_parts(2, sigs, rows).is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 2")]
    fn tiny_capacity_panics() {
        SignatureWindow::new(1);
    }
}
