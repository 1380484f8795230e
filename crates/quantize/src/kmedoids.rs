//! k-medoids by Voronoi iteration (Park & Jun style).
//!
//! Medoids are actual bag members, which makes the signature robust to
//! outliers and meaningful for ground distances that are not Euclidean.
//! The paper lists k-medoids as an alternative quantizer for §3.1.

use crate::{compact_non_empty, members, row, set_row, sq_dist, ClusterScratch};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`kmedoids_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMedoidsConfig {
    /// Number of medoids requested.
    pub k: usize,
    /// Maximum swap iterations.
    pub max_iters: usize,
}

impl Default for KMedoidsConfig {
    fn default() -> Self {
        KMedoidsConfig {
            k: 8,
            max_iters: 50,
        }
    }
}

impl KMedoidsConfig {
    /// Convenience constructor fixing only `k`.
    pub fn with_k(k: usize) -> Self {
        KMedoidsConfig {
            k,
            ..KMedoidsConfig::default()
        }
    }
}

/// Run k-medoids on the `n` rows of `points` (row-major, `dim` values
/// each; squared-Euclidean dissimilarity), writing the non-empty medoids
/// and their member counts (as `f64`) into `centers` and `weights`.
///
/// Uses Voronoi iteration: `min(k, n)` distinct initial medoids are drawn
/// by shuffling the member indices; then each point is assigned to its
/// nearest medoid, and within each cluster the member minimizing the
/// total dissimilarity to the cluster becomes its medoid, until no
/// medoid changes or `cfg.max_iters` is reached. Medoids are bag
/// members, and empty clusters are dropped in stable order.
/// Deterministic given the RNG.
///
/// Output rows are drawn from the scratch's recycled rows; once warm, a
/// build performs zero heap allocations.
///
/// # Panics
/// Panics if `points` is empty, `cfg.k == 0`, or `dim` does not divide
/// `points` into whole rows.
pub fn kmedoids_with(
    points: &[f64],
    dim: usize,
    cfg: &KMedoidsConfig,
    rng: &mut impl Rng,
    scratch: &mut ClusterScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    let n = members(points, dim, "kmedoids");
    assert!(cfg.k > 0, "kmedoids: k must be > 0");
    let k = cfg.k.min(n);
    let point = |i: usize| row(points, dim, i);

    // Split borrows: each buffer is an independent field of the scratch.
    let ClusterScratch {
        assignments,
        counts,
        idx,
        members,
        medoids,
        pool,
        ..
    } = scratch;

    // Random distinct initial medoids.
    idx.clear();
    idx.extend(0..n);
    idx.shuffle(rng);
    medoids.clear();
    medoids.extend_from_slice(&idx[..k]);
    assignments.clear();
    assignments.resize(n, 0);

    for _ in 0..cfg.max_iters {
        // Assign points to nearest medoid.
        for (a, p) in assignments.iter_mut().zip(points.chunks_exact(dim)) {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (m, &mi) in medoids.iter().enumerate() {
                let dist = sq_dist(p, point(mi));
                if dist < best_d {
                    best_d = dist;
                    best = m;
                }
            }
            *a = best;
        }
        // Recompute each cluster's medoid.
        let mut changed = false;
        #[allow(clippy::needless_range_loop)] // m indexes both medoids and assignments
        for m in 0..medoids.len() {
            members.clear();
            members.extend((0..n).filter(|&i| assignments[i] == m));
            if members.is_empty() {
                continue;
            }
            let mut best = medoids[m];
            let mut best_cost = f64::INFINITY;
            for &cand in members.iter() {
                let cost: f64 = members
                    .iter()
                    .map(|&j| sq_dist(point(cand), point(j)))
                    .sum();
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
            if best != medoids[m] {
                medoids[m] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final counts, then materialize medoid points and compact the
    // non-empty clusters in stable order.
    counts.clear();
    counts.resize(medoids.len(), 0);
    for p in points.chunks_exact(dim) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (m, &mi) in medoids.iter().enumerate() {
            let dist = sq_dist(p, point(mi));
            if dist < best_d {
                best_d = dist;
                best = m;
            }
        }
        counts[best] += 1;
    }
    for (m, &mi) in medoids.iter().enumerate() {
        set_row(centers, pool, m, point(mi));
    }
    compact_non_empty(centers, medoids.len(), counts, pool, weights);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest_center;
    use crate::test_support::{flat, row_bits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// One build through a fresh scratch and fresh output buffers.
    fn fresh(points: &[Vec<f64>], k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        let (points, dim) = flat(points);
        kmedoids_with(
            &points,
            dim,
            &KMedoidsConfig::with_k(k),
            &mut rng(seed),
            &mut ClusterScratch::new(),
            &mut centers,
            &mut weights,
        );
        (centers, weights)
    }

    #[test]
    fn medoids_are_input_points() {
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let (centers, _) = fresh(&pts, 4, 1);
        for c in &centers {
            assert!(
                pts.iter().any(|p| p == c),
                "medoid {c:?} is not an input point"
            );
        }
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + i as f64 * 0.01]);
            pts.push(vec![100.0 - i as f64 * 0.01]);
        }
        let (centers, weights) = fresh(&pts, 2, 2);
        assert_eq!(centers.len(), 2);
        let mut xs: Vec<f64> = centers.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 1.0);
        assert!(xs[1] > 99.0);
        assert_eq!(weights, vec![20.0, 20.0]);
    }

    #[test]
    fn robust_to_outlier() {
        // One extreme outlier should not drag a medoid the way it drags a
        // k-means center.
        let mut pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
        pts.push(vec![1000.0]);
        let (centers, _) = fresh(&pts, 1, 3);
        assert!(centers[0][0] < 2.0, "medoid dragged to {}", centers[0][0]);
    }

    #[test]
    fn weights_count_each_point_at_its_nearest_medoid() {
        let pts: Vec<Vec<f64>> = (0..25).map(|i| vec![(i * i % 13) as f64]).collect();
        let (centers, weights) = fresh(&pts, 3, 4);
        let mut recount = vec![0.0; centers.len()];
        for p in &pts {
            recount[nearest_center(p, &centers).0] += 1.0;
        }
        assert_eq!(recount, weights);
    }

    #[test]
    fn k_clamped_to_n() {
        let pts = vec![vec![1.0], vec![2.0]];
        let (centers, weights) = fresh(&pts, 5, 5);
        assert!(centers.len() <= 2);
        assert_eq!(weights.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn dirty_scratch_matches_fresh_scratch_bit_for_bit() {
        let mut scratch = ClusterScratch::new();
        let mut centers = Vec::new();
        let mut weights = Vec::new();
        for (n, k, seed) in [(30, 4, 1u64), (9, 3, 2), (60, 6, 3), (2, 5, 4), (30, 4, 1)] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![((i * i) % 17) as f64, (i % 5) as f64 * 0.5])
                .collect();
            let (flat_pts, dim) = flat(&pts);
            kmedoids_with(
                &flat_pts,
                dim,
                &KMedoidsConfig::with_k(k),
                &mut rng(seed),
                &mut scratch,
                &mut centers,
                &mut weights,
            );
            let (fresh_centers, fresh_weights) = fresh(&pts, k, seed);
            assert_eq!(row_bits(&centers), row_bits(&fresh_centers), "n={n} k={k}");
            assert_eq!(weights, fresh_weights, "n={n} k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "empty bag")]
    fn empty_bag_panics() {
        fresh(&[], 8, 6);
    }
}
