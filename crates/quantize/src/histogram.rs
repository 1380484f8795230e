//! Fixed-width histogram signatures.
//!
//! §3.1: "the signatures could be obtained simply by partitioning R^d
//! into distinct bins of fixed width and then count the number of
//! observations that fall in each bin. This would be a common approach
//! especially when the vectors x are 1-dimensional." Bin centers become
//! the signature vectors `u_k`, occupancies the weights `w_k`; empty bins
//! are omitted (that is what makes it a signature rather than a dense
//! histogram).

use crate::members;
use std::collections::HashMap;

/// Specification of a fixed-width binning of `R^d`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSpec {
    /// Left edge of bin 0 in each dimension.
    pub origin: Vec<f64>,
    /// Bin width in each dimension (strictly positive).
    pub width: Vec<f64>,
}

impl HistogramSpec {
    fn validate(&self, dim: usize) {
        assert_eq!(self.origin.len(), dim, "histogram: origin dim mismatch");
        assert_eq!(self.width.len(), dim, "histogram: width dim mismatch");
        assert!(
            self.width.iter().all(|&w| w.is_finite() && w > 0.0),
            "histogram: widths must be > 0"
        );
    }
}

/// Reusable working state for [`histogram_grid_with`]: the bin-index
/// map, a working key, and pools of recycled bin-key and center vectors.
///
/// All of it is keyed by problem shape, not by content: one scratch can
/// serve every histogram build of a stream (or of a whole worker shard),
/// and once its pools have grown to the workload's high-water mark a
/// build performs **no heap allocation at all**.
#[derive(Debug, Clone, Default)]
pub struct HistogramScratch {
    /// Occupied bin index → compact cluster id. Drained (not dropped)
    /// after every build, so both the table and its key vectors survive.
    bin_ids: HashMap<Vec<i64>, usize>,
    /// Working bin-index key for the point being binned.
    key: Vec<i64>,
    /// Recycled bin-key vectors (returned here by the post-build drain).
    free_keys: Vec<Vec<i64>>,
    /// Recycled center vectors (returned by builds that produced fewer
    /// bins than their output buffer already held).
    free_centers: Vec<Vec<f64>>,
}

impl HistogramScratch {
    /// Empty scratch; pools grow to the workload's shape on first use.
    pub fn new() -> Self {
        HistogramScratch::default()
    }
}

/// Histogram a bag of `dim`-dimensional points (`points`, row-major)
/// into occupied fixed-width bins, writing the bins' centers (first-seen
/// order) and occupancies into `centers` and `weights`.
///
/// A point `x` falls in the bin with index `floor((x_j - origin_j) /
/// width_j)` in each dimension `j`, so bins are left-inclusive; a bin's
/// center is `origin_j + (index_j + 0.5) · width_j`. Empty bins are never
/// emitted, and `weights[id]` accumulates the occupancy of bin `id` as an
/// exact small integer.
///
/// `centers`' existing inner vectors are reused in place, extras come
/// from (and return to) the scratch's pools; once the scratch and the
/// buffers are warm, a build performs zero heap allocations.
///
/// # Panics
/// Panics on an empty bag, a `dim` that does not divide `points` into
/// whole rows, a spec of another dimension, or widths that are not
/// finite and positive.
pub fn histogram_grid_with(
    points: &[f64],
    dim: usize,
    spec: &HistogramSpec,
    scratch: &mut HistogramScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    members(points, dim, "histogram");
    spec.validate(dim);
    debug_assert!(scratch.bin_ids.is_empty(), "scratch drained after use");

    weights.clear();
    let mut used = 0usize; // bins discovered so far == centers filled
    for p in points.chunks_exact(dim) {
        scratch.key.clear();
        for ((&x, &o), &w) in p.iter().zip(&spec.origin).zip(&spec.width) {
            scratch.key.push(((x - o) / w).floor() as i64);
        }
        if let Some(&id) = scratch.bin_ids.get(&scratch.key) {
            weights[id] += 1.0;
            continue;
        }
        // First sighting: store the key (recycled vector) and write the
        // bin's center into the next reusable slot of `centers`.
        let mut stored = scratch.free_keys.pop().unwrap_or_default();
        stored.clear();
        stored.extend_from_slice(&scratch.key);
        scratch.bin_ids.insert(stored, used);
        if used == centers.len() {
            centers.push(scratch.free_centers.pop().unwrap_or_default());
        }
        let c = &mut centers[used];
        c.clear();
        for ((&b, &o), &w) in scratch.key.iter().zip(&spec.origin).zip(&spec.width) {
            c.push(o + (b as f64 + 0.5) * w);
        }
        weights.push(1.0);
        used += 1;
    }
    // Surplus output slots and every bin key go back to the pools.
    scratch.free_centers.extend(centers.drain(used..));
    for (key, _) in scratch.bin_ids.drain() {
        scratch.free_keys.push(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{flat, row_bits};

    /// One build through a fresh scratch and fresh output buffers, with
    /// the same `origin` and `width` in every dimension.
    fn fresh(points: &[Vec<f64>], origin: f64, width: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (points, dim) = flat(points);
        let spec = HistogramSpec {
            origin: vec![origin; dim],
            width: vec![width; dim],
        };
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        histogram_grid_with(
            &points,
            dim,
            &spec,
            &mut HistogramScratch::new(),
            &mut centers,
            &mut weights,
        );
        (centers, weights)
    }

    fn scalars(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn simple_1d_binning() {
        let (centers, weights) = fresh(&scalars(&[0.1, 0.2, 0.9, 1.1, 1.9, 3.5]), 0.0, 1.0);
        // Bins [0,1): 3 points; [1,2): 2 points; [3,4): 1 point.
        assert_eq!(centers, vec![vec![0.5], vec![1.5], vec![3.5]]);
        assert_eq!(weights, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn negative_values_bin_correctly() {
        let (centers, weights) = fresh(&scalars(&[-0.5, -1.5, 0.5]), 0.0, 1.0);
        assert_eq!(weights, vec![1.0, 1.0, 1.0]);
        assert_eq!(centers[0], vec![-0.5]); // bin [-1, 0)
        assert_eq!(centers[1], vec![-1.5]); // bin [-2, -1)
        assert_eq!(centers[2], vec![0.5]); // bin [0, 1)
    }

    #[test]
    fn bin_edges_are_left_inclusive() {
        let (centers, _) = fresh(&scalars(&[1.0, 0.999999]), 0.0, 1.0);
        assert_eq!(
            centers,
            vec![vec![1.5], vec![0.5]],
            "1.0 belongs to [1,2), 0.999999 to [0,1)"
        );
    }

    #[test]
    fn two_dimensional_grid() {
        let pts = vec![
            vec![0.5, 0.5],
            vec![0.4, 0.6],
            vec![1.5, 0.5],
            vec![0.5, 1.5],
        ];
        let (centers, weights) = fresh(&pts, 0.0, 1.0);
        assert_eq!(centers.len(), 3);
        assert_eq!(weights, vec![2.0, 1.0, 1.0]);
        assert_eq!(centers[0], vec![0.5, 0.5]);
    }

    #[test]
    fn per_dimension_widths() {
        let spec = HistogramSpec {
            origin: vec![0.0, 0.0],
            width: vec![1.0, 10.0],
        };
        let pts = vec![vec![0.5, 5.0], vec![0.5, 9.0], vec![0.5, 15.0]];
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        let (flat_pts, dim) = flat(&pts);
        histogram_grid_with(
            &flat_pts,
            dim,
            &spec,
            &mut HistogramScratch::new(),
            &mut centers,
            &mut weights,
        );
        assert_eq!(weights, vec![2.0, 1.0]);
        assert_eq!(centers[0], vec![0.5, 5.0]);
        assert_eq!(centers[1], vec![0.5, 15.0]);
    }

    #[test]
    fn mass_conservation() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let (_, weights) = fresh(&scalars(&values), 0.0, 0.5);
        assert_eq!(weights.iter().sum::<f64>(), 1000.0);
        assert!(weights.iter().all(|&w| w >= 1.0 && w.fract() == 0.0));
    }

    #[test]
    fn dirty_scratch_matches_fresh_scratch_bit_for_bit() {
        let mut scratch = HistogramScratch::new();
        let mut centers = Vec::new();
        let mut weights = Vec::new();
        // Varying shapes through one dirty scratch: bin counts shrink and
        // grow, so slot reuse, pool draw, and surplus return all happen.
        for n in [40usize, 7, 120, 3, 64] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i as f64 * 0.61).sin() * 4.0, (i % 5) as f64])
                .collect();
            let spec = HistogramSpec {
                origin: vec![0.0; 2],
                width: vec![0.75; 2],
            };
            let (flat_pts, dim) = flat(&pts);
            histogram_grid_with(
                &flat_pts,
                dim,
                &spec,
                &mut scratch,
                &mut centers,
                &mut weights,
            );
            let (fresh_centers, fresh_weights) = fresh(&pts, 0.0, 0.75);
            assert_eq!(row_bits(&centers), row_bits(&fresh_centers), "n={n}");
            assert_eq!(weights, fresh_weights, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "widths must be > 0")]
    fn zero_width_panics() {
        fresh(&scalars(&[1.0]), 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty bag")]
    fn empty_bag_panics() {
        fresh(&[], 0.0, 1.0);
    }
}
