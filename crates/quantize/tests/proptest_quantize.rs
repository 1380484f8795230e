#![allow(clippy::needless_range_loop)] // index-driven geometric checks
//! Property-based tests for the quantizers: every method must conserve
//! mass, count each point once, and summarize within the bag's bounding
//! box; and a scratch reused across bags and methods must give the same
//! bits as a fresh one.

use proptest::prelude::*;
use quantize::{
    histogram_grid_with, kmeans_with, kmedoids_with, lvq_quantize_with, ClusterScratch,
    HistogramScratch, HistogramSpec, KMeansConfig, KMedoidsConfig, LvqConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a bag of `dim`-dimensional points.
fn bag(dim: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0..50.0f64, dim), 1..=max_len)
}

/// A quantizer's output: centers and their weights.
type Quantized = (Vec<Vec<f64>>, Vec<f64>);

/// Same origin (0) and width in every dimension.
fn uniform_spec(dim: usize, width: f64) -> HistogramSpec {
    HistogramSpec {
        origin: vec![0.0; dim],
        width: vec![width; dim],
    }
}

/// The four quantizers behind one signature, as the signature builder
/// selects them.
#[derive(Debug, Clone, Copy)]
enum Method {
    KMeans(usize),
    KMedoids(usize),
    Lvq(usize),
    Histogram(f64),
}

/// Run `method` on `points` through the given scratches and output
/// buffers.
fn run(
    method: Method,
    points: &[Vec<f64>],
    seed: u64,
    cluster: &mut ClusterScratch,
    hist: &mut HistogramScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (dim, points) = (points[0].len(), points.concat());
    match method {
        Method::KMeans(k) => kmeans_with(
            &points,
            dim,
            &KMeansConfig::with_k(k),
            &mut rng,
            cluster,
            centers,
            weights,
        ),
        Method::KMedoids(k) => kmedoids_with(
            &points,
            dim,
            &KMedoidsConfig::with_k(k),
            &mut rng,
            cluster,
            centers,
            weights,
        ),
        Method::Lvq(k) => lvq_quantize_with(
            &points,
            dim,
            &LvqConfig::with_k(k),
            &mut rng,
            cluster,
            centers,
            weights,
        ),
        Method::Histogram(width) => {
            let spec = uniform_spec(dim, width);
            histogram_grid_with(&points, dim, &spec, hist, centers, weights)
        }
    }
}

/// `method` on `points` through a fresh scratch and fresh buffers.
fn fresh(method: Method, points: &[Vec<f64>], seed: u64) -> Quantized {
    let (mut centers, mut weights) = (Vec::new(), Vec::new());
    run(
        method,
        points,
        seed,
        &mut ClusterScratch::new(),
        &mut HistogramScratch::new(),
        &mut centers,
        &mut weights,
    );
    (centers, weights)
}

/// Index of the center nearest to `p` (squared Euclidean, first on ties).
fn nearest(p: &[f64], centers: &[Vec<f64>]) -> usize {
    let d2 = |c: &Vec<f64>| -> f64 { p.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum() };
    let mut best = 0;
    for k in 1..centers.len() {
        if d2(&centers[k]) < d2(&centers[best]) {
            best = k;
        }
    }
    best
}

/// Shared invariants of any quantization of `points`: one weight per
/// center, every weight a positive whole count, and the counts sum to
/// the bag size.
fn check_mass(points: &[Vec<f64>], (centers, weights): &Quantized) -> Result<(), TestCaseError> {
    prop_assert_eq!(centers.len(), weights.len());
    prop_assert!(weights.iter().all(|&w| w >= 1.0 && w.fract() == 0.0));
    prop_assert_eq!(weights.iter().sum::<f64>(), points.len() as f64);
    Ok(())
}

/// The clustering quantizers count each point at its nearest center.
fn check_nearest_counts(
    points: &[Vec<f64>],
    (centers, weights): &Quantized,
) -> Result<(), TestCaseError> {
    let mut recount = vec![0.0; centers.len()];
    for p in points {
        recount[nearest(p, centers)] += 1.0;
    }
    prop_assert_eq!(&recount, weights);
    Ok(())
}

/// Centers lie inside the bag's bounding box (true for k-means centroids
/// and k-medoids members; histograms use bin centers which may exceed
/// the box by half a bin).
fn check_bounding_box(
    points: &[Vec<f64>],
    (centers, _): &Quantized,
    slack: f64,
) -> Result<(), TestCaseError> {
    for d in 0..2 {
        let min = points.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
        let max = points
            .iter()
            .map(|p| p[d])
            .fold(f64::NEG_INFINITY, f64::max);
        for c in centers {
            prop_assert!(
                c[d] >= min - slack && c[d] <= max + slack,
                "center {c:?} outside [{min}, {max}] + {slack}"
            );
        }
    }
    Ok(())
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Strategy: one of the four methods with its parameter.
fn method() -> impl Strategy<Value = Method> {
    (0u8..4, 1usize..10, 0.5..10.0f64).prop_map(|(which, k, width)| match which {
        0 => Method::KMeans(k),
        1 => Method::KMedoids(k),
        2 => Method::Lvq(k),
        _ => Method::Histogram(width),
    })
}

/// Strategy: a run of bags of mixed dimension (as one worker's scratch
/// sees across its streams), each with the method and seed it is built
/// with.
fn bag_run() -> impl Strategy<Value = Vec<(Vec<Vec<f64>>, Method, u64)>> {
    prop::collection::vec(
        (
            (1usize..=3).prop_flat_map(|dim| bag(dim, 30)),
            method(),
            0u64..100,
        ),
        1..=12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kmeans_invariants(points in bag(2, 60), k in 1usize..10, seed in 0u64..100) {
        let q = fresh(Method::KMeans(k), &points, seed);
        check_mass(&points, &q)?;
        check_nearest_counts(&points, &q)?;
        check_bounding_box(&points, &q, 1e-9)?;
        prop_assert!(q.0.len() <= k.min(points.len()));
    }

    #[test]
    fn kmedoids_invariants(points in bag(2, 40), k in 1usize..8, seed in 0u64..100) {
        let q = fresh(Method::KMedoids(k), &points, seed);
        check_mass(&points, &q)?;
        check_nearest_counts(&points, &q)?;
        // Medoids are actual members.
        for c in &q.0 {
            prop_assert!(points.iter().any(|p| p == c));
        }
    }

    #[test]
    fn lvq_invariants(points in bag(2, 40), k in 1usize..8, seed in 0u64..100) {
        let q = fresh(Method::Lvq(k), &points, seed);
        check_mass(&points, &q)?;
        check_nearest_counts(&points, &q)?;
        // Prototypes are convex-ish combinations of members: inside the
        // bounding box.
        check_bounding_box(&points, &q, 1e-9)?;
    }

    #[test]
    fn histogram_invariants(points in bag(2, 60), width in 0.5..20.0f64) {
        let q = fresh(Method::Histogram(width), &points, 0);
        check_mass(&points, &q)?;
        // Bin centers are within half a bin of the box.
        check_bounding_box(&points, &q, width / 2.0 + 1e-9)?;
        // Every point falls inside an emitted bin.
        for p in &points {
            prop_assert!(q.0.iter().any(|c| {
                (0..2).all(|d| (p[d] - c[d]).abs() <= width / 2.0 + 1e-9)
            }), "point {p:?} in no bin");
        }
    }

    /// Histograms are deterministic and permutation-insensitive up to
    /// cluster relabeling: total mass per bin center matches.
    #[test]
    fn histogram_permutation_stable(mut points in bag(2, 30), width in 0.5..10.0f64) {
        let q1 = fresh(Method::Histogram(width), &points, 0);
        points.reverse();
        let q2 = fresh(Method::Histogram(width), &points, 0);
        let to_map = |(centers, weights): &Quantized| {
            let mut m: std::collections::HashMap<(i64, i64), u64> = std::collections::HashMap::new();
            for (c, &w) in centers.iter().zip(weights) {
                m.insert(((c[0] * 1e6) as i64, (c[1] * 1e6) as i64), w as u64);
            }
            m
        };
        prop_assert_eq!(to_map(&q1), to_map(&q2));
    }

    /// One pair of scratches and one pair of output buffers carried
    /// across a run of bags and all four methods — the way a worker
    /// reuses them across its streams — gives every build the bits of a
    /// fresh-scratch build.
    #[test]
    fn reused_scratch_matches_fresh_across_bags_and_methods(run_of_bags in bag_run()) {
        let mut cluster = ClusterScratch::new();
        let mut hist = HistogramScratch::new();
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        for (points, method, seed) in &run_of_bags {
            run(*method, points, *seed, &mut cluster, &mut hist, &mut centers, &mut weights);
            let (fresh_centers, fresh_weights) = fresh(*method, points, *seed);
            prop_assert_eq!(bits(&centers), bits(&fresh_centers), "{:?}", method);
            prop_assert_eq!(&weights, &fresh_weights, "{:?}", method);
        }
    }
}
