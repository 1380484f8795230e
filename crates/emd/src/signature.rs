//! Signature type: weighted point sets (Eq. 6 of the paper).

use crate::error::EmdError;

/// A signature `S = {(u_k, w_k)}_{k=1..K}`: representative vectors with
/// non-negative weights.
///
/// Weights are real-valued — the paper's `w_k` are member counts when
/// signatures come from quantization, but the Bayesian bootstrap and the
/// information estimators rescale them, so the type is kept general.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    points: Vec<Vec<f64>>,
    weights: Vec<f64>,
    dim: usize,
}

impl Signature {
    /// Construct a signature from points and weights.
    ///
    /// # Errors
    /// Rejects empty signatures, mismatched lengths, inconsistent point
    /// dimensions, and negative or non-finite weights. Zero-weight entries
    /// are allowed (they are ignored by the solver).
    pub fn new(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Result<Self, EmdError> {
        if points.is_empty() {
            return Err(EmdError::InvalidSignature("no points"));
        }
        if points.len() != weights.len() {
            return Err(EmdError::InvalidSignature("points/weights length mismatch"));
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(EmdError::InvalidSignature("zero-dimensional points"));
        }
        if points.iter().any(|p| p.len() != dim) {
            return Err(EmdError::InvalidSignature("inconsistent point dimensions"));
        }
        if points.iter().any(|p| p.iter().any(|x| !x.is_finite())) {
            return Err(EmdError::InvalidSignature("non-finite point coordinate"));
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(EmdError::InvalidSignature(
                "weights must be finite and >= 0",
            ));
        }
        Ok(Signature {
            points,
            weights,
            dim,
        })
    }

    /// Dismantle the signature into its owned buffers, so a retiring
    /// signature's point vectors and weight buffer can be recycled into
    /// the next build instead of freed and re-allocated.
    pub fn into_parts(self) -> (Vec<Vec<f64>>, Vec<f64>) {
        (self.points, self.weights)
    }

    /// Number of weighted points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the signature is structurally empty (never true for a
    /// successfully constructed signature).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimension of the embedded points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The representative points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total mass `Σ w_k`.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Iterate over `(point, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.points
            .iter()
            .map(Vec::as_slice)
            .zip(self.weights.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let s = Signature::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![1.0, 2.0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.total_weight(), 3.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Signature::new(vec![], vec![]).is_err());
        assert!(Signature::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Signature::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, 1.0]).is_err());
        assert!(Signature::new(vec![vec![1.0]], vec![-1.0]).is_err());
        assert!(Signature::new(vec![vec![1.0]], vec![f64::NAN]).is_err());
        assert!(Signature::new(vec![vec![f64::INFINITY]], vec![1.0]).is_err());
        assert!(Signature::new(vec![vec![]], vec![1.0]).is_err());
    }

    #[test]
    fn zero_weight_entries_allowed() {
        let s = Signature::new(vec![vec![0.0], vec![1.0]], vec![0.0, 2.0]).unwrap();
        assert_eq!(s.total_weight(), 2.0);
    }

    #[test]
    fn counts_as_weights() {
        let counts = [3u64, 5];
        let weights = counts.iter().map(|&c| c as f64).collect();
        let s = Signature::new(vec![vec![0.0], vec![1.0]], weights).unwrap();
        assert_eq!(s.weights(), &[3.0, 5.0]);
    }

    #[test]
    fn iter_pairs() {
        let s = Signature::new(vec![vec![1.0], vec![2.0]], vec![0.5, 0.5]).unwrap();
        let pairs: Vec<(Vec<f64>, f64)> = s.iter().map(|(p, w)| (p.to_vec(), w)).collect();
        assert_eq!(pairs, vec![(vec![1.0], 0.5), (vec![2.0], 0.5)]);
    }
}
