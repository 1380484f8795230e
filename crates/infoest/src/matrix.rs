//! Rectangular distance matrix between two indexed collections, and its
//! log-domain twin that the estimators read.

use crate::estimators::EstimatorConfig;

/// Distances between an `n`-element collection (rows) and an `m`-element
/// collection (columns). For a single collection use `n == m` with a
/// symmetric fill; the estimators never read the diagonal in that case.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or any distance is negative
    /// or NaN.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "DistanceMatrix: shape mismatch");
        assert!(
            data.iter().all(|&d| d.is_finite() && d >= 0.0),
            "DistanceMatrix: distances must be finite and >= 0"
        );
        DistanceMatrix { rows, cols, data }
    }

    /// Build by evaluating a distance function on index pairs.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DistanceMatrix::from_vec(rows, cols, data)
    }

    /// Build a symmetric matrix from a distance function evaluated only
    /// on `i < j` (diagonal is zero).
    pub fn symmetric_from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                assert!(
                    d.is_finite() && d >= 0.0,
                    "DistanceMatrix: invalid distance"
                );
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// View of a rectangular sub-block (for windowed estimators over one
    /// global matrix).
    pub fn block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> DistanceMatrix {
        assert!(
            rows.end <= self.rows && cols.end <= self.cols,
            "block out of range"
        );
        let mut data = Vec::with_capacity(rows.len() * cols.len());
        for i in rows.clone() {
            data.extend_from_slice(
                &self.data[i * self.cols + cols.start..i * self.cols + cols.end],
            );
        }
        DistanceMatrix {
            rows: rows.len(),
            cols: cols.len(),
            data,
        }
    }
}

/// A [`DistanceMatrix`] mapped entry by entry to
/// `ln(max(d, dist_floor))` ([`EstimatorConfig::log_dist`]) — the only
/// form in which the estimators read distances. The logarithms are
/// taken once, when the matrix is built, however many weightings are
/// then evaluated against it.
#[derive(Debug, Clone, PartialEq)]
pub struct LogDistances {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl LogDistances {
    /// Take the logarithms in place, in the distance matrix's own
    /// storage (no allocation).
    pub fn from_distances(dist: DistanceMatrix, cfg: &EstimatorConfig) -> Self {
        let DistanceMatrix {
            rows,
            cols,
            mut data,
        } = dist;
        for d in &mut data {
            *d = cfg.log_dist(*d);
        }
        LogDistances { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Consume the matrix, returning its row-major storage — the
    /// recycling half of a buffer-reuse cycle with
    /// [`DistanceMatrix::from_vec`] (callers on a hot path rebuild the
    /// next matrix into the same allocation instead of a fresh one).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let m = DistanceMatrix::from_fn(2, 3, |i, j| (i + j) as f64);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn symmetric_builder() {
        let m = DistanceMatrix::symmetric_from_fn(3, |i, j| (j - i) as f64);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn block_extraction() {
        let m = DistanceMatrix::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        let b = m.block(1..3, 2..4);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(0, 0), 12.0);
        assert_eq!(b.get(1, 1), 23.0);
    }

    #[test]
    fn log_distances_map_in_place_with_the_floor() {
        let cfg = EstimatorConfig::default();
        let m = DistanceMatrix::from_vec(2, 2, vec![0.0, std::f64::consts::E, 1e-300, 1.0]);
        let ptr = m.row(0).as_ptr();
        let log = LogDistances::from_distances(m, &cfg);
        assert_eq!(log.row(0).as_ptr(), ptr, "storage is reused");
        assert_eq!((log.rows(), log.cols()), (2, 2));
        assert_eq!(log.row(0), &[cfg.dist_floor.ln(), std::f64::consts::E.ln()]);
        assert_eq!(log.row(1), &[cfg.dist_floor.ln(), 0.0]);
        assert_eq!(log.into_vec().len(), 4);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_distance() {
        DistanceMatrix::from_vec(1, 1, vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_shape_mismatch() {
        DistanceMatrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
