//! Unsupervised learning vector quantization (competitive learning).
//!
//! The paper cites Kohonen's LVQ as one of the quantizers usable for
//! signature construction. Without class labels the appropriate variant
//! is plain competitive learning ("VQ"/"SOM without neighborhood"): for
//! each presented point the winning prototype moves toward the point by a
//! decaying learning rate.

use crate::{compact_non_empty, members, nearest_center, row, set_row, ClusterScratch};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`lvq_quantize_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LvqConfig {
    /// Number of prototypes.
    pub k: usize,
    /// Number of passes over the bag.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to zero over training.
    pub learning_rate: f64,
}

impl Default for LvqConfig {
    fn default() -> Self {
        LvqConfig {
            k: 8,
            epochs: 20,
            learning_rate: 0.3,
        }
    }
}

impl LvqConfig {
    /// Convenience constructor fixing only `k`.
    pub fn with_k(k: usize) -> Self {
        LvqConfig {
            k,
            ..LvqConfig::default()
        }
    }
}

/// Quantize a bag of `n` rows (`points`, row-major, `dim` values each)
/// with competitive-learning VQ, writing the non-empty prototypes and
/// their member counts (as `f64`) into `centers` and `weights`.
///
/// `min(k, n)` prototypes are seeded from random distinct bag members,
/// then trained for `cfg.epochs` passes: each presented point moves its
/// nearest prototype toward it by a learning rate decaying linearly from
/// `cfg.learning_rate` to zero, and the presentation order is reshuffled
/// every epoch. Each point is then counted at its nearest prototype, and
/// empty prototypes are dropped in stable order.
///
/// Prototypes are trained inside the caller-kept buffers through the
/// scratch's recycled rows; once warm, a build performs zero heap
/// allocations.
///
/// # Panics
/// Panics if `points` is empty, `cfg.k == 0`, or `dim` does not divide
/// `points` into whole rows.
pub fn lvq_quantize_with(
    points: &[f64],
    dim: usize,
    cfg: &LvqConfig,
    rng: &mut impl Rng,
    scratch: &mut ClusterScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    let n = members(points, dim, "lvq");
    assert!(cfg.k > 0, "lvq: k must be > 0");
    let k = cfg.k.min(n);

    // Seed prototypes from distinct random members.
    scratch.idx.clear();
    scratch.idx.extend(0..n);
    scratch.idx.shuffle(rng);
    for (at, &i) in scratch.idx[..k].iter().enumerate() {
        set_row(centers, &mut scratch.pool, at, row(points, dim, i));
    }
    scratch.pool.extend(centers.drain(k..));

    let total_steps = (cfg.epochs * n).max(1);
    let mut step = 0usize;
    scratch.order.clear();
    scratch.order.extend(0..n);
    for _ in 0..cfg.epochs {
        scratch.order.shuffle(rng);
        for &i in scratch.order.iter() {
            let rate = cfg.learning_rate * (1.0 - step as f64 / total_steps as f64);
            step += 1;
            let p = row(points, dim, i);
            let (w, _) = nearest_center(p, centers);
            let proto = &mut centers[w];
            for (pj, &xj) in proto.iter_mut().zip(p) {
                *pj += rate * (xj - *pj);
            }
        }
    }

    scratch.counts.clear();
    scratch.counts.resize(k, 0);
    for p in points.chunks_exact(dim) {
        scratch.counts[nearest_center(p, centers).0] += 1;
    }
    compact_non_empty(centers, k, &scratch.counts, &mut scratch.pool, weights);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{flat, row_bits, wcss};
    use crate::{kmeans_with, KMeansConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// One build through a fresh scratch and fresh output buffers.
    fn fresh(points: &[Vec<f64>], k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        let (points, dim) = flat(points);
        lvq_quantize_with(
            &points,
            dim,
            &LvqConfig::with_k(k),
            &mut rng(seed),
            &mut ClusterScratch::new(),
            &mut centers,
            &mut weights,
        );
        (centers, weights)
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..40 {
            let j = (i % 10) as f64 * 0.05;
            pts.push(vec![-3.0 + j, j]);
            pts.push(vec![3.0 - j, 5.0 - j]);
        }
        pts
    }

    #[test]
    fn prototypes_move_into_blobs() {
        let pts = two_blobs();
        let (centers, _) = fresh(&pts, 2, 1);
        assert_eq!(centers.len(), 2);
        let mut xs: Vec<f64> = centers.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 0.0, "left prototype at {}", xs[0]);
        assert!(xs[1] > 0.0, "right prototype at {}", xs[1]);
    }

    #[test]
    fn objective_comparable_to_kmeans() {
        // LVQ is stochastic but should land within 3x of the k-means WCSS
        // on an easy dataset.
        let pts = two_blobs();
        let (lvq_centers, _) = fresh(&pts, 4, 2);
        let (mut km_centers, mut km_weights) = (Vec::new(), Vec::new());
        let (flat_pts, dim) = flat(&pts);
        kmeans_with(
            &flat_pts,
            dim,
            &KMeansConfig::with_k(4),
            &mut rng(2),
            &mut ClusterScratch::new(),
            &mut km_centers,
            &mut km_weights,
        );
        assert!(wcss(&pts, &lvq_centers) < 3.0 * wcss(&pts, &km_centers) + 1e-9);
    }

    #[test]
    fn weights_count_each_point_at_its_nearest_prototype() {
        let pts = two_blobs();
        let (centers, weights) = fresh(&pts, 3, 3);
        let mut recount = vec![0.0; centers.len()];
        for p in &pts {
            recount[nearest_center(p, &centers).0] += 1.0;
        }
        assert_eq!(recount, weights);
        assert_eq!(weights.iter().sum::<f64>(), pts.len() as f64);
    }

    #[test]
    fn dirty_scratch_matches_fresh_scratch_bit_for_bit() {
        let mut scratch = ClusterScratch::new();
        let mut centers = Vec::new();
        let mut weights = Vec::new();
        let pts = two_blobs();
        let (flat_pts, dim) = flat(&pts);
        for (k, seed) in [(2usize, 1u64), (3, 2), (8, 3), (50, 4), (3, 2)] {
            lvq_quantize_with(
                &flat_pts,
                dim,
                &LvqConfig::with_k(k),
                &mut rng(seed),
                &mut scratch,
                &mut centers,
                &mut weights,
            );
            let (fresh_centers, fresh_weights) = fresh(&pts, k, seed);
            assert_eq!(row_bits(&centers), row_bits(&fresh_centers), "k={k}");
            assert_eq!(weights, fresh_weights, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "empty bag")]
    fn empty_bag_panics() {
        fresh(&[], 8, 5);
    }
}
