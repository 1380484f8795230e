//! Vector quantization — signature construction (§3.1 of the paper).
//!
//! A bag `B_t` is summarized as a *signature*
//! `S_t = {(u_k, w_k)}_{k=1..K}`: representative vectors `u_k` plus the
//! number of bag members `w_k` assigned to each. The paper lists k-means,
//! k-medoids and learning vector quantization as suitable quantizers, and
//! fixed-width histograms as the natural special case for low-dimensional
//! data. All four are implemented here.
//!
//! Every quantizer reads the bag as one row-major buffer (`points` plus
//! its dimension `dim`, member `i` at `points[i * dim..(i + 1) * dim]`)
//! and writes its non-empty centers and their member counts
//! (as `f64` weights) into caller-kept buffers, drawing its working state
//! from a reusable scratch ([`ClusterScratch`] or [`HistogramScratch`]);
//! once warm, a build performs no heap allocation. The `emd` crate wraps
//! the two buffers into its `Signature` type for distance computation.

pub mod histogram;
pub mod kmeans;
pub mod kmedoids;
pub mod lvq;

pub use histogram::{histogram_grid_with, HistogramScratch, HistogramSpec};
use kmeans::LANES;
pub use kmeans::{kmeans_with, KMeansConfig};
pub use kmedoids::{kmedoids_with, KMedoidsConfig};
pub use lvq::{lvq_quantize_with, LvqConfig};

/// Reusable working state for the scratch-backed quantizer builds
/// ([`kmeans_with`], [`kmedoids_with`], [`lvq_quantize_with`]):
/// assignment/count/index buffers plus a pool of recycled center-sized
/// rows. One scratch serves every build of a stream (or a whole worker
/// shard); once its buffers have grown to the workload's high-water mark
/// a build performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct ClusterScratch {
    /// Per-point cluster assignments.
    pub(crate) assignments: Vec<usize>,
    /// Per-cluster member counts.
    pub(crate) counts: Vec<u64>,
    /// Per-cluster coordinate sums (k-means update step).
    pub(crate) sums: Vec<Vec<f64>>,
    /// Free pool of recycled center-sized rows.
    pub(crate) pool: Vec<Vec<f64>>,
    /// Working center for the k-means movement computation.
    pub(crate) tmp: Vec<f64>,
    /// Index permutation (k-medoids/LVQ initialization).
    pub(crate) idx: Vec<usize>,
    /// LVQ per-epoch presentation order.
    pub(crate) order: Vec<usize>,
    /// k-medoids per-cluster member list.
    pub(crate) members: Vec<usize>,
    /// k-medoids medoid indices.
    pub(crate) medoids: Vec<usize>,
    /// k-means++ squared distances to the nearest chosen center.
    pub(crate) d2: Vec<f64>,
    /// k-means centers packed `LANES` to a block for the assignment
    /// kernel (one entry per block and dimension).
    pub(crate) blocks: Vec<[f64; LANES]>,
}

impl ClusterScratch {
    /// Empty scratch; buffers grow to the workload's shape on first use.
    pub fn new() -> Self {
        ClusterScratch::default()
    }
}

/// Write `values` into row `at` of `centers`, appending a recycled row
/// from `pool` when the buffer is short.
pub(crate) fn set_row(
    centers: &mut Vec<Vec<f64>>,
    pool: &mut Vec<Vec<f64>>,
    at: usize,
    values: &[f64],
) {
    if at == centers.len() {
        centers.push(pool.pop().unwrap_or_default());
    }
    let row = &mut centers[at];
    row.clear();
    row.extend_from_slice(values);
}

/// Shared tail of the clustering builds: keep the non-empty clusters of
/// `centers[..used]` in their original relative order, fill `weights`
/// with their counts as `f64`, and return surplus rows to `pool`.
pub(crate) fn compact_non_empty(
    centers: &mut Vec<Vec<f64>>,
    used: usize,
    counts: &[u64],
    pool: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    weights.clear();
    let mut kept = 0usize;
    for (k, &count) in counts.iter().enumerate().take(used) {
        if count == 0 {
            continue;
        }
        centers.swap(kept, k);
        weights.push(count as f64);
        kept += 1;
    }
    pool.extend(centers.drain(kept..));
}

/// Check a flat bag's shape and return its member count.
///
/// # Panics
/// Panics (messages prefixed by `who`) if `points` is empty or `dim`
/// does not divide it into whole members.
pub(crate) fn members(points: &[f64], dim: usize, who: &str) -> usize {
    assert!(!points.is_empty(), "{who}: empty bag");
    assert!(
        dim > 0 && points.len().is_multiple_of(dim),
        "{who}: inconsistent point dimensions"
    );
    points.len() / dim
}

/// Row `i` of a flat buffer of `dim`-long rows.
#[inline]
pub(crate) fn row(points: &[f64], dim: usize, i: usize) -> &[f64] {
    &points[i * dim..(i + 1) * dim]
}

/// Index of the center nearest to `point` (squared Euclidean).
///
/// # Panics
/// Panics if `centers` is empty.
pub(crate) fn nearest_center(point: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
    assert!(!centers.is_empty(), "nearest_center: no centers");
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (k, c) in centers.iter().enumerate() {
        let d = sq_dist(point, c);
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    (best, best_d)
}

/// Squared Euclidean distance (local copy to keep this crate
/// dependency-free).
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Helpers shared by the quantizers' unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use crate::nearest_center;

    /// A row list as the quantizers take it: row-major coordinates and
    /// the dimension (1 for an empty list).
    pub(crate) fn flat(rows: &[Vec<f64>]) -> (Vec<f64>, usize) {
        (rows.concat(), rows.first().map_or(1, Vec::len))
    }

    /// Bit patterns of a row list, for bit-for-bit comparisons.
    pub(crate) fn row_bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Within-cluster sum of squares, each point charged to its nearest
    /// center — the k-means objective.
    pub(crate) fn wcss(points: &[Vec<f64>], centers: &[Vec<f64>]) -> f64 {
        points.iter().map(|p| nearest_center(p, centers).1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_keeps_non_empty_clusters_in_order() {
        let mut centers = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let mut pool = Vec::new();
        let mut weights = vec![9.0];
        compact_non_empty(&mut centers, 3, &[3, 0, 2], &mut pool, &mut weights);
        assert_eq!(centers, vec![vec![0.0], vec![2.0]]);
        assert_eq!(weights, vec![3.0, 2.0]);
        assert_eq!(pool.len(), 2, "the empty cluster's row and the unused row");
    }

    #[test]
    fn nearest_center_picks_closest() {
        let centers = vec![vec![0.0, 0.0], vec![10.0, 0.0]];
        let (k, d) = nearest_center(&[9.0, 0.0], &centers);
        assert_eq!(k, 1);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_center_ties_take_first() {
        let centers = vec![vec![-1.0], vec![1.0]];
        let (k, _) = nearest_center(&[0.0], &centers);
        assert_eq!(k, 0);
    }
}
