//! The bag-of-data observation type (§2, Eq. 3).

/// Largest coordinate magnitude ingest accepts (`parse_row` in the
/// `stream` crate rejects a row with `|x| > MAX_ABS_COORD`).
///
/// Below it, no quantity the detector derives from coordinates can
/// overflow: a squared coordinate difference is at most `(2e150)² =
/// 4e300`, so a squared ground distance summed over `d` dimensions stays
/// finite for any `d` below 4.5e7, and so do the k-means Lloyd sums and
/// LVQ steps. A larger finite value could make a center or an EMD cost
/// infinite and fail every later score of its stream.
pub const MAX_ABS_COORD: f64 = 1e150;

/// A bag `B_t = {x_i}_{i=1..n_t}` of `d`-dimensional vectors observed at
/// one time step. Bag sizes may differ across time; dimensions may not.
#[derive(Debug, Clone, PartialEq)]
pub struct Bag {
    points: Vec<Vec<f64>>,
    dim: usize,
}

impl Bag {
    /// Construct a bag from its member vectors.
    ///
    /// # Panics
    /// Panics if the bag is empty, points have inconsistent dimensions,
    /// or any coordinate is non-finite.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        assert!(!points.is_empty(), "Bag: empty bag");
        let dim = points[0].len();
        assert!(dim > 0, "Bag: zero-dimensional points");
        assert!(
            points.iter().all(|p| p.len() == dim),
            "Bag: inconsistent point dimensions"
        );
        assert!(
            points.iter().all(|p| p.iter().all(|x| x.is_finite())),
            "Bag: non-finite coordinate"
        );
        Bag { points, dim }
    }

    /// Convenience: a bag of scalars (1-D vectors).
    ///
    /// # Panics
    /// As [`Bag::new`].
    pub fn from_scalars(values: impl IntoIterator<Item = f64>) -> Self {
        let points: Vec<Vec<f64>> = values.into_iter().map(|v| vec![v]).collect();
        Bag::new(points)
    }

    /// Number of members `n_t`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: empty bags cannot be constructed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimension `d` of the member vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The member vectors.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Consume the bag, returning its member vectors (already validated
    /// non-empty, dimension-consistent, finite).
    pub fn into_points(self) -> Vec<Vec<f64>> {
        self.points
    }

    /// Sample mean of the bag — the summarization whose information loss
    /// Fig. 1 of the paper demonstrates. Used by the baseline comparison.
    pub fn mean(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.dim];
        for p in &self.points {
            for (mi, &xi) in m.iter_mut().zip(p) {
                *mi += xi;
            }
        }
        let n = self.points.len() as f64;
        for mi in &mut m {
            *mi /= n;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let b = Bag::new(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_scalars_builds_1d() {
        let b = Bag::from_scalars([1.0, 2.0, 3.0]);
        assert_eq!(b.dim(), 1);
        assert_eq!(b.points()[1], vec![2.0]);
    }

    #[test]
    fn mean_is_componentwise() {
        let b = Bag::new(vec![vec![0.0, 10.0], vec![2.0, 20.0]]);
        assert_eq!(b.mean(), vec![1.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "empty bag")]
    fn empty_bag_panics() {
        Bag::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn ragged_bag_panics() {
        Bag::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinate_panics() {
        Bag::new(vec![vec![f64::NAN]]);
    }
}
