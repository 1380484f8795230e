//! Lloyd's k-means with k-means++ initialization.
//!
//! This is the default signature builder of the detection pipeline: each
//! bag is clustered into `K` centers, and the per-center member counts
//! become the signature weights `w_k`.

use crate::{compact_non_empty, members, row, set_row, sq_dist, ClusterScratch};
use rand::Rng;

/// Configuration for [`kmeans_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters requested. If the bag has fewer distinct points
    /// the result simply has empty clusters dropped.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on total center movement (squared Euclidean).
    pub tol: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 100,
            tol: 1e-9,
        }
    }
}

impl KMeansConfig {
    /// Convenience constructor fixing only `k`.
    pub fn with_k(k: usize) -> Self {
        KMeansConfig {
            k,
            ..KMeansConfig::default()
        }
    }
}

/// Centers per block of the assignment kernel.
pub(crate) const LANES: usize = 4;

/// Run k-means++ seeding and Lloyd iterations on the `dim`-dimensional
/// rows of `points` (row-major), writing the non-empty centers and their
/// member counts (as `f64`) into `centers` and `weights`.
///
/// The first center is a uniformly drawn bag member; each further one is
/// drawn with probability proportional to the squared distance to the
/// nearest center chosen so far, and seeding stops early once every
/// point coincides with a center. Lloyd iterations then alternate
/// nearest-center assignment and centroid updates (an empty cluster
/// keeps its stale center) until the total squared center movement is
/// at most `cfg.tol` or `cfg.max_iters` is reached. Final counts are
/// taken against the converged centers, and empty clusters are dropped
/// in stable order, so `centers.len()` is at most `k` and at most the
/// number of rows.
///
/// The assignment step and the final count score four centers per pass
/// over a point; each distance is summed in dimension order and ties go
/// to the lower center index, so every assignment is the one a
/// center-by-center scan picks, and every center and weight keeps its
/// bits.
///
/// `centers`' existing inner vectors are reused in place, extras come
/// from (and return to) the scratch's row pool; once the scratch and
/// buffers are warm, a build performs zero heap allocations.
///
/// # Panics
/// Panics if `points` is empty, `cfg.k == 0`, or `dim` does not divide
/// `points` into whole rows.
pub fn kmeans_with(
    points: &[f64],
    dim: usize,
    cfg: &KMeansConfig,
    rng: &mut impl Rng,
    scratch: &mut ClusterScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    let n = members(points, dim, "kmeans");
    assert!(cfg.k > 0, "kmeans: k must be > 0");
    let k = cfg.k.min(n);
    let rows = || points.chunks_exact(dim);

    // k-means++ seeding into recycled rows.
    set_row(
        centers,
        &mut scratch.pool,
        0,
        row(points, dim, rng.gen_range(0..n)),
    );
    let mut used = 1usize;
    scratch.d2.clear();
    scratch.d2.extend(rows().map(|p| sq_dist(p, &centers[0])));
    while used < k {
        let total: f64 = scratch.d2.iter().sum();
        if total <= 0.0 {
            // Every point coincides with a chosen center; further
            // centers would be duplicates.
            break;
        }
        let mut u = rng.gen_range(0.0..total);
        let mut chosen = n - 1;
        for (i, &w) in scratch.d2.iter().enumerate() {
            if u < w {
                chosen = i;
                break;
            }
            u -= w;
        }
        set_row(centers, &mut scratch.pool, used, row(points, dim, chosen));
        used += 1;
        let c = &centers[used - 1];
        for (dist, p) in scratch.d2.iter_mut().zip(rows()) {
            let nd = sq_dist(p, c);
            if nd < *dist {
                *dist = nd;
            }
        }
    }

    scratch.assignments.clear();
    scratch.assignments.resize(n, 0);
    for _ in 0..cfg.max_iters {
        // Assignment step.
        pack_blocks(&centers[..used], dim, &mut scratch.blocks);
        for (a, p) in scratch.assignments.iter_mut().zip(rows()) {
            *a = nearest_in_blocks(p, &scratch.blocks, used);
        }
        // Update step, accumulating into recycled sum rows.
        while scratch.sums.len() < used {
            scratch.sums.push(scratch.pool.pop().unwrap_or_default());
        }
        for sum in scratch.sums[..used].iter_mut() {
            sum.clear();
            sum.resize(dim, 0.0);
        }
        scratch.counts.clear();
        scratch.counts.resize(used, 0);
        for (&a, p) in scratch.assignments.iter().zip(rows()) {
            scratch.counts[a] += 1;
            for (s, &x) in scratch.sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for (kc, (sum, &count)) in scratch.sums[..used].iter().zip(&scratch.counts).enumerate() {
            if count == 0 {
                continue; // keep the stale center; it may attract points later
            }
            scratch.tmp.clear();
            scratch.tmp.extend(sum.iter().map(|s| s / count as f64));
            movement += sq_dist(&scratch.tmp, &centers[kc]);
            centers[kc].clear();
            centers[kc].extend_from_slice(&scratch.tmp);
        }
        if movement <= cfg.tol {
            break;
        }
    }

    // Final counts against the converged centers, then stable compaction
    // of the non-empty clusters.
    pack_blocks(&centers[..used], dim, &mut scratch.blocks);
    scratch.counts.clear();
    scratch.counts.resize(used, 0);
    for p in rows() {
        scratch.counts[nearest_in_blocks(p, &scratch.blocks, used)] += 1;
    }
    compact_non_empty(centers, used, &scratch.counts, &mut scratch.pool, weights);
}

/// Pack `centers` ([`LANES`] to a block, dimension-major inside a block)
/// into `blocks`: entry `b * dim + j` holds coordinate `j` of centers
/// `LANES * b ..`, and lanes past the last center hold zeros. The buffer
/// keeps its capacity, so a warm pack allocates nothing.
fn pack_blocks(centers: &[Vec<f64>], dim: usize, blocks: &mut Vec<[f64; LANES]>) {
    blocks.clear();
    for group in centers.chunks(LANES) {
        for j in 0..dim {
            let mut lanes = [0.0; LANES];
            for (lane, c) in lanes.iter_mut().zip(group) {
                *lane = c[j];
            }
            blocks.push(lanes);
        }
    }
}

/// Index of the center nearest to `point` among the first `used` centers
/// packed by [`pack_blocks`].
///
/// Each lane sums `(x - c)²` over the dimensions in order, exactly as
/// `sq_dist` does, and the lanes are compared with a strict `<` in
/// center order, so the result is bit for bit what `nearest_center`
/// returns for the unpacked centers (ties to the lower index).
#[inline]
fn nearest_in_blocks(point: &[f64], blocks: &[[f64; LANES]], used: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (b, block) in blocks.chunks_exact(point.len()).enumerate() {
        let mut acc = [0.0; LANES];
        for (&x, c) in point.iter().zip(block) {
            for (a, &cl) in acc.iter_mut().zip(c) {
                let diff = x - cl;
                *a += diff * diff;
            }
        }
        for (lane, &dist) in acc.iter().enumerate().take(used - b * LANES) {
            // Selects, not a branch: which lane wins is data-dependent.
            let closer = dist < best_d;
            best_d = if closer { dist } else { best_d };
            best = if closer { b * LANES + lane } else { best };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest_center;
    use crate::test_support::{flat, row_bits, wcss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// One build through a fresh scratch and fresh output buffers.
    fn fresh(points: &[Vec<f64>], k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        let (points, dim) = flat(points);
        kmeans_with(
            &points,
            dim,
            &KMeansConfig::with_k(k),
            &mut rng(seed),
            &mut ClusterScratch::new(),
            &mut centers,
            &mut weights,
        );
        (centers, weights)
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..50 {
            let j = i as f64 * 0.01;
            pts.push(vec![-5.0 + j, 0.0 + j]);
            pts.push(vec![5.0 - j, 10.0 - j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let (centers, weights) = fresh(&pts, 2, 1);
        assert_eq!(centers.len(), 2);
        assert_eq!(weights.iter().sum::<f64>(), 100.0);
        // Centers should sit near (-4.75, 0.25) and (4.75, 9.75).
        let mut cs = centers.clone();
        cs.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((cs[0][0] + 4.75).abs() < 0.5, "center {:?}", cs[0]);
        assert!((cs[1][0] - 4.75).abs() < 0.5, "center {:?}", cs[1]);
        // Both clusters get half the mass.
        assert_eq!(weights, vec![50.0, 50.0]);
    }

    #[test]
    fn weights_count_each_point_at_its_nearest_center() {
        let pts = two_blobs();
        let (centers, weights) = fresh(&pts, 4, 2);
        let mut recount = vec![0.0; centers.len()];
        for p in &pts {
            recount[nearest_center(p, &centers).0] += 1.0;
        }
        assert_eq!(recount, weights);
    }

    #[test]
    fn k_larger_than_points() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let (centers, weights) = fresh(&pts, 10, 3);
        assert!(centers.len() <= 3);
        assert_eq!(weights.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn duplicate_points_collapse() {
        let pts = vec![vec![1.0, 1.0]; 20];
        let (centers, weights) = fresh(&pts, 5, 4);
        assert_eq!(centers.len(), 1, "identical points need one center");
        assert_eq!(weights, vec![20.0]);
    }

    #[test]
    fn single_point_bag() {
        let pts = vec![vec![3.0, -1.0]];
        let (centers, weights) = fresh(&pts, 3, 5);
        assert_eq!(centers, vec![vec![3.0, -1.0]]);
        assert_eq!(weights, vec![1.0]);
    }

    #[test]
    fn wcss_decreases_with_more_clusters() {
        let pts = two_blobs();
        let w1 = wcss(&pts, &fresh(&pts, 1, 6).0);
        let w2 = wcss(&pts, &fresh(&pts, 2, 6).0);
        let w8 = wcss(&pts, &fresh(&pts, 8, 6).0);
        assert!(w2 < w1);
        assert!(w8 <= w2 + 1e-9);
    }

    #[test]
    fn dirty_scratch_matches_fresh_scratch_bit_for_bit() {
        // One scratch and one pair of output buffers carried across
        // shapes whose cluster counts shrink and grow, so in-place reuse,
        // pool draws and surplus returns all happen: every build must
        // equal a fresh-scratch build, coordinates and weights to the bit.
        let mut scratch = ClusterScratch::new();
        let mut centers = Vec::new();
        let mut weights = Vec::new();
        for (n, k, seed) in [
            (50, 4, 1u64),
            (7, 3, 2),
            (100, 8, 3),
            (3, 10, 4),
            (64, 2, 5),
            (64, 2, 5),
        ] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i as f64 * 0.37).sin() * 4.0, (i % 9) as f64])
                .collect();
            let (flat_pts, dim) = flat(&pts);
            kmeans_with(
                &flat_pts,
                dim,
                &KMeansConfig::with_k(k),
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
        fresh(&[], 8, 8);
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        fresh(&[vec![0.0]], 0, 9);
    }
}
