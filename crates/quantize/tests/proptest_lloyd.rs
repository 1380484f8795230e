//! Pins `kmeans_with`'s four-lane assignment kernel to the row-list
//! Lloyd loop it replaced, bit for bit.
//!
//! [`reference`] is a verbatim copy of that loop: k-means++ seeding,
//! assignment through a center-by-center `nearest_center` scan, the
//! update in point-index order, and the final count. Every build of the
//! kernel must give the same centers (compared by `to_bits`) and the
//! same weights, on shapes that exercise every lane case: `k` that is
//! not a multiple of four, `k > n`, duplicate points, equidistant ties
//! on integer grids, and constant columns.

use proptest::prelude::*;
use quantize::{kmeans_with, ClusterScratch, KMeansConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scratch of the reference loop (the fields it used).
#[derive(Default)]
struct RefScratch {
    assignments: Vec<usize>,
    counts: Vec<u64>,
    sums: Vec<Vec<f64>>,
    pool: Vec<Vec<f64>>,
    tmp: Vec<f64>,
    d2: Vec<f64>,
}

fn set_row(centers: &mut Vec<Vec<f64>>, pool: &mut Vec<Vec<f64>>, at: usize, values: &[f64]) {
    if at == centers.len() {
        centers.push(pool.pop().unwrap_or_default());
    }
    let row = &mut centers[at];
    row.clear();
    row.extend_from_slice(values);
}

fn compact_non_empty(
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

fn nearest_center(point: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
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

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The row-list Lloyd loop, as it was before the lane kernel.
fn reference(
    points: &[Vec<f64>],
    cfg: &KMeansConfig,
    rng: &mut impl Rng,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut scratch = RefScratch::default();
    let (mut centers, mut weights) = (Vec::new(), Vec::new());
    let centers = &mut centers;
    assert!(!points.is_empty(), "kmeans: empty bag");
    assert!(cfg.k > 0, "kmeans: k must be > 0");
    let d = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == d),
        "kmeans: inconsistent point dimensions"
    );
    let k = cfg.k.min(points.len());

    // k-means++ seeding into recycled rows.
    set_row(
        centers,
        &mut scratch.pool,
        0,
        &points[rng.gen_range(0..points.len())],
    );
    let mut used = 1usize;
    scratch.d2.clear();
    scratch
        .d2
        .extend(points.iter().map(|p| sq_dist(p, &centers[0])));
    while used < k {
        let total: f64 = scratch.d2.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut u = rng.gen_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, &w) in scratch.d2.iter().enumerate() {
            if u < w {
                chosen = i;
                break;
            }
            u -= w;
        }
        set_row(centers, &mut scratch.pool, used, &points[chosen]);
        used += 1;
        let c = &centers[used - 1];
        for (dist, p) in scratch.d2.iter_mut().zip(points) {
            let nd = sq_dist(p, c);
            if nd < *dist {
                *dist = nd;
            }
        }
    }

    scratch.assignments.clear();
    scratch.assignments.resize(points.len(), 0);
    for _ in 0..cfg.max_iters {
        for (a, p) in scratch.assignments.iter_mut().zip(points) {
            *a = nearest_center(p, &centers[..used]).0;
        }
        while scratch.sums.len() < used {
            scratch.sums.push(scratch.pool.pop().unwrap_or_default());
        }
        for sum in scratch.sums[..used].iter_mut() {
            sum.clear();
            sum.resize(d, 0.0);
        }
        scratch.counts.clear();
        scratch.counts.resize(used, 0);
        for (&a, p) in scratch.assignments.iter().zip(points) {
            scratch.counts[a] += 1;
            for (s, &x) in scratch.sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for (kc, (sum, &count)) in scratch.sums[..used].iter().zip(&scratch.counts).enumerate() {
            if count == 0 {
                continue;
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

    scratch.counts.clear();
    scratch.counts.resize(used, 0);
    for p in points {
        scratch.counts[nearest_center(p, &centers[..used]).0] += 1;
    }
    compact_non_empty(
        centers,
        used,
        &scratch.counts,
        &mut scratch.pool,
        &mut weights,
    );
    (std::mem::take(centers), weights)
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One k-means problem: rows, `k` and the quantizer seed.
type Case = (Vec<Vec<f64>>, usize, u64);

/// Strategy: `n` in 1..=300 rows of dimension 1..=9 and `k` in 1..=40.
/// The values are continuous draws, a small integer grid (equidistant
/// ties), copies of at most three distinct rows (duplicates) or a
/// half-integer grid; about one column in four is constant.
fn case() -> impl Strategy<Value = Case> {
    (1usize..=300, 1usize..=9, 0u8..4, 0u32..1 << 18).prop_flat_map(|(n, d, kind, mask)| {
        (
            prop::collection::vec(-50.0..50.0f64, n * d),
            1usize..=40,
            0u64..1000,
        )
            .prop_map(move |(raw, k, seed)| {
                let value = |i: usize, j: usize| {
                    let i = if kind == 2 { i % 3 } else { i };
                    let x = raw[(i % n) * d + j];
                    match kind {
                        1 => (x / 20.0).round(),
                        3 => (x / 10.0).round() * 0.5,
                        _ => x,
                    }
                };
                let rows = (0..n)
                    .map(|i| {
                        (0..d)
                            .map(|j| {
                                if mask >> (2 * j) & 3 == 3 {
                                    value(0, j)
                                } else {
                                    value(i, j)
                                }
                            })
                            .collect()
                    })
                    .collect();
                (rows, k, seed)
            })
    })
}

/// Build `case` with the kernel through the given scratch and buffers,
/// and with the reference; both must agree to the bit.
fn check(
    (rows, k, seed): &Case,
    scratch: &mut ClusterScratch,
    centers: &mut Vec<Vec<f64>>,
    weights: &mut Vec<f64>,
) -> Result<(), TestCaseError> {
    let cfg = KMeansConfig::with_k(*k);
    let flat = rows.concat();
    let dim = rows[0].len();
    let mut rng = StdRng::seed_from_u64(*seed);
    kmeans_with(&flat, dim, &cfg, &mut rng, scratch, centers, weights);
    let mut ref_rng = StdRng::seed_from_u64(*seed);
    let (want_centers, want_weights) = reference(rows, &cfg, &mut ref_rng);
    let shape = format!("n={} d={dim} k={k} seed={seed}", rows.len());
    prop_assert_eq!(bits(centers), bits(&want_centers), "{}", shape);
    prop_assert_eq!(&*weights, &want_weights, "{}", shape);
    prop_assert_eq!(
        rng.gen::<u64>(),
        ref_rng.gen::<u64>(),
        "{}: other draws",
        shape
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_kernel_matches_row_list_lloyd(c in case()) {
        check(&c, &mut ClusterScratch::new(), &mut Vec::new(), &mut Vec::new())?;
    }

    /// One dirty scratch and one pair of output buffers carried across
    /// a run of shapes, as a worker carries them across its streams.
    #[test]
    fn dirty_scratch_chain_matches_row_list_lloyd(run in prop::collection::vec(case(), 1..=8)) {
        let mut scratch = ClusterScratch::new();
        let (mut centers, mut weights) = (Vec::new(), Vec::new());
        for c in &run {
            check(c, &mut scratch, &mut centers, &mut weights)?;
        }
    }
}
