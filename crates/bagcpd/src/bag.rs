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
///
/// The members are stored row-major in one buffer: member `i` is
/// `coords()[i * d..(i + 1) * d]`, and [`Bag::rows`] walks them in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Bag {
    dim: usize,
    coords: Vec<f64>,
}

impl Bag {
    /// Construct a bag from its member vectors, copying them into the
    /// bag's flat buffer (the row vectors are freed here, on the calling
    /// thread).
    ///
    /// # Panics
    /// Panics if the bag is empty, points have inconsistent dimensions,
    /// or any coordinate is non-finite.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        assert!(!points.is_empty(), "Bag: empty bag");
        let dim = points[0].len();
        assert!(dim > 0, "Bag: zero-dimensional points");
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in &points {
            assert!(p.len() == dim, "Bag: inconsistent point dimensions");
            coords.extend_from_slice(p);
        }
        Bag::from_coords(dim, coords)
    }

    /// Convenience: a bag of scalars (1-D vectors).
    ///
    /// # Panics
    /// As [`Bag::new`].
    pub fn from_scalars(values: impl IntoIterator<Item = f64>) -> Self {
        let coords: Vec<f64> = values.into_iter().collect();
        assert!(!coords.is_empty(), "Bag: empty bag");
        Bag::from_coords(1, coords)
    }

    /// The shared tail of the constructors: one finiteness pass over the
    /// flat buffer.
    fn from_coords(dim: usize, coords: Vec<f64>) -> Self {
        assert!(
            coords.iter().all(|x| x.is_finite()),
            "Bag: non-finite coordinate"
        );
        Bag { dim, coords }
    }

    /// Number of members `n_t`.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Always false: empty bags cannot be constructed.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimension `d` of the member vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The member vectors, in order, each a `d`-long slice.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.coords.chunks_exact(self.dim)
    }

    /// All coordinates, row-major (`len() * dim()` values; already
    /// validated finite).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Sample mean of the bag — the summarization whose information loss
    /// Fig. 1 of the paper demonstrates. Used by the baseline comparison.
    pub fn mean(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.dim];
        for p in self.rows() {
            for (mi, &xi) in m.iter_mut().zip(p) {
                *mi += xi;
            }
        }
        let n = self.len() as f64;
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
    fn rows_and_coords_are_row_major() {
        let b = Bag::new(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(b.coords(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = b.rows().collect();
        assert_eq!(rows, [&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
    }

    #[test]
    fn from_scalars_builds_1d() {
        let b = Bag::from_scalars([1.0, 2.0, 3.0]);
        assert_eq!(b.dim(), 1);
        assert_eq!(b.rows().nth(1), Some(&[2.0][..]));
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
