//! Bridging bags to EMD signatures (§3.1).

use crate::bag::Bag;
use emd::{Chebyshev, Euclidean, GroundDistance, Manhattan, Signature};
use quantize::{
    histogram_grid_with, kmeans_with, kmedoids_with, lvq_quantize_with, ClusterScratch,
    HistogramScratch, HistogramSpec, KMeansConfig, KMedoidsConfig, LvqConfig,
};
use rand::SeedableRng;

/// How to turn a bag into a signature.
#[derive(Debug, Clone, PartialEq)]
pub enum SignatureMethod {
    /// k-means clustering with `k` clusters (the paper's default choice).
    KMeans {
        /// Number of clusters.
        k: usize,
    },
    /// k-medoids clustering with `k` medoids.
    KMedoids {
        /// Number of medoids.
        k: usize,
    },
    /// Competitive-learning vector quantization with `k` prototypes.
    Lvq {
        /// Number of prototypes.
        k: usize,
    },
    /// Fixed-width histogram (bin width shared by all dimensions,
    /// origin 0). The natural choice for 1-D bags.
    Histogram {
        /// Bin width.
        width: f64,
    },
}

impl Default for SignatureMethod {
    fn default() -> Self {
        SignatureMethod::KMeans { k: 8 }
    }
}

/// Ground metric for the EMD (object-safe choice set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroundMetric {
    /// Euclidean (L2) — the conventional choice, making EMD the
    /// Wasserstein/Mallows distance.
    #[default]
    Euclidean,
    /// Manhattan (L1).
    Manhattan,
    /// Chebyshev (L∞).
    Chebyshev,
}

impl GroundMetric {
    /// Evaluate the chosen metric.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            GroundMetric::Euclidean => Euclidean.distance(a, b),
            GroundMetric::Manhattan => Manhattan.distance(a, b),
            GroundMetric::Chebyshev => Chebyshev.distance(a, b),
        }
    }
}

impl GroundDistance for GroundMetric {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        GroundMetric::distance(self, a, b)
    }
}

/// Derive the per-bag seed for position `index` of a sequence from a
/// master seed (SplitMix64-style finalizer).
///
/// Making each bag's quantizer stream a pure function of
/// `(master, index)` — rather than one RNG threaded across the whole
/// sequence — is what lets the online path (`crates/stream`) rebuild any
/// bag's signature without replaying the bags before it, and lets a
/// snapshot omit RNG state entirely.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Buffer-recycling state for [`signature_at_with`]: histogram working
/// tables plus pools of dismantled signatures ([`SignatureScratch::recycle`])
/// whose point lists and weight buffers seed the next build.
///
/// A warm scratch makes the whole signature build **zero-allocation**
/// for every method: the retiring signature's buffers become the new
/// signature's storage, the histogram tables are rebinned in place, and
/// the clustering quantizers run entirely inside [`ClusterScratch`].
#[derive(Debug, Clone, Default)]
pub struct SignatureScratch {
    hist: HistogramScratch,
    /// Reused binning spec (rewritten in place per build — its two
    /// per-dimension vectors are the only other per-build storage).
    spec: HistogramSpec,
    /// Working state for the scratch-backed clustering quantizers.
    cluster: ClusterScratch,
    /// Recycled point lists (outer vector plus its inner vectors).
    points: Vec<Vec<Vec<f64>>>,
    /// Recycled weight buffers.
    weights: Vec<Vec<f64>>,
}

/// Pools are capped so a caller that recycles more signatures than it
/// builds stays bounded.
const SIG_POOL_CAP: usize = 8;

impl SignatureScratch {
    /// Empty scratch; pools grow to the workload's shape on first use.
    pub fn new() -> Self {
        SignatureScratch::default()
    }

    /// Dismantle a retiring signature (e.g. the one just evicted from a
    /// stream's window) into the pools for the next build to reuse.
    pub fn recycle(&mut self, sig: Signature) {
        let (points, weights) = sig.into_parts();
        if self.points.len() < SIG_POOL_CAP {
            self.points.push(points);
        }
        if self.weights.len() < SIG_POOL_CAP {
            self.weights.push(weights);
        }
    }
}

/// Build the signature of the bag at sequence position `index`,
/// deterministically in `(master_seed, index)`, drawing its buffers from
/// a caller-kept [`SignatureScratch`].
///
/// This is the one signature builder: [`crate::Detector`], the online
/// detector in `crates/stream` and every serve worker call it, so all of
/// them produce identical signatures for the same bag at the same
/// position. The quantizer's RNG is seeded from
/// [`derive_seed`]`(master_seed, index)` (histograms ignore it). With a
/// warm scratch the build touches no heap for any method: the histogram
/// is rebinned into recycled tables, and the clustering quantizers run
/// on recycled center rows.
///
/// # Panics
/// Panics on invalid method parameters (zero `k`, non-positive width) —
/// these are caught earlier by `DetectorConfig::validate` when used
/// through the detector. Also panics if a quantizer emits a center that
/// is not finite; ingest rejects coordinates beyond
/// [`crate::MAX_ABS_COORD`], and below that bound no center can
/// overflow.
pub fn signature_at_with(
    bag: &Bag,
    method: &SignatureMethod,
    master_seed: u64,
    index: u64,
    scratch: &mut SignatureScratch,
) -> Signature {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(master_seed, index));
    let mut centers = scratch.points.pop().unwrap_or_default();
    let mut weights = scratch.weights.pop().unwrap_or_default();
    match method {
        SignatureMethod::KMeans { k } => kmeans_with(
            bag.coords(),
            bag.dim(),
            &KMeansConfig::with_k(*k),
            &mut rng,
            &mut scratch.cluster,
            &mut centers,
            &mut weights,
        ),
        SignatureMethod::KMedoids { k } => kmedoids_with(
            bag.coords(),
            bag.dim(),
            &KMedoidsConfig::with_k(*k),
            &mut rng,
            &mut scratch.cluster,
            &mut centers,
            &mut weights,
        ),
        SignatureMethod::Lvq { k } => lvq_quantize_with(
            bag.coords(),
            bag.dim(),
            &LvqConfig::with_k(*k),
            &mut rng,
            &mut scratch.cluster,
            &mut centers,
            &mut weights,
        ),
        SignatureMethod::Histogram { width } => {
            let spec = &mut scratch.spec;
            spec.origin.clear();
            spec.origin.resize(bag.dim(), 0.0);
            spec.width.clear();
            spec.width.resize(bag.dim(), *width);
            histogram_grid_with(
                bag.coords(),
                bag.dim(),
                spec,
                &mut scratch.hist,
                &mut centers,
                &mut weights,
            );
        }
    }
    Signature::new(centers, weights).expect("quantization always yields a valid signature")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One build through a fresh scratch.
    fn build(bag: &Bag, method: &SignatureMethod, index: u64) -> Signature {
        signature_at_with(bag, method, 99, index, &mut SignatureScratch::new())
    }

    fn bag() -> Bag {
        Bag::new(
            (0..60)
                .map(|i| vec![(i % 6) as f64, (i % 3) as f64])
                .collect(),
        )
    }

    #[test]
    fn kmeans_signature_mass_equals_bag_size() {
        let s = build(&bag(), &SignatureMethod::KMeans { k: 4 }, 0);
        assert_eq!(s.total_weight(), 60.0);
        assert!(s.len() <= 4);
    }

    #[test]
    fn kmedoids_signature() {
        let s = build(&bag(), &SignatureMethod::KMedoids { k: 3 }, 0);
        assert_eq!(s.total_weight(), 60.0);
        assert!(s.len() <= 3);
    }

    #[test]
    fn lvq_signature() {
        let s = build(&bag(), &SignatureMethod::Lvq { k: 5 }, 0);
        assert_eq!(s.total_weight(), 60.0);
    }

    #[test]
    fn histogram_signature_ignores_position() {
        let method = SignatureMethod::Histogram { width: 1.0 };
        let a = build(&bag(), &method, 0);
        let b = build(&bag(), &method, 1);
        assert_eq!(a, b);
        assert_eq!(a.total_weight(), 60.0);
    }

    #[test]
    fn dirty_recycling_scratch_matches_fresh_scratch() {
        let bits = |s: &Signature| -> (Vec<Vec<u64>>, Vec<u64>) {
            (
                s.points()
                    .iter()
                    .map(|p| p.iter().map(|x| x.to_bits()).collect())
                    .collect(),
                s.weights().iter().map(|w| w.to_bits()).collect(),
            )
        };
        let mut scratch = SignatureScratch::new();
        // Every method through one dirty, recycling scratch, with bag
        // shapes and dimensions that vary from build to build.
        let methods = [
            SignatureMethod::Histogram { width: 0.5 },
            SignatureMethod::KMeans { k: 4 },
            SignatureMethod::KMedoids { k: 3 },
            SignatureMethod::Lvq { k: 5 },
            SignatureMethod::KMeans { k: 9 },
        ];
        for t in 0..12u64 {
            let dim = 1 + (t % 3) as usize;
            let b = Bag::new(
                (0..30 + 7 * t as usize)
                    .map(|i| {
                        (0..dim)
                            .map(|j| ((i * (j + 1)) % (3 + t as usize)) as f64 * 0.4)
                            .collect()
                    })
                    .collect(),
            );
            let method = &methods[t as usize % methods.len()];
            let pooled = signature_at_with(&b, method, 7, t, &mut scratch);
            let fresh = signature_at_with(&b, method, 7, t, &mut SignatureScratch::new());
            assert_eq!(bits(&pooled), bits(&fresh), "{method:?} at t={t}");
            scratch.recycle(pooled);
        }
    }

    #[test]
    fn signature_scratch_pools_stay_bounded() {
        let mut scratch = SignatureScratch::new();
        for _ in 0..50 {
            scratch.recycle(Signature::new(vec![vec![1.0]], vec![1.0]).unwrap());
        }
        assert!(scratch.points.len() <= SIG_POOL_CAP);
        assert!(scratch.weights.len() <= SIG_POOL_CAP);
    }

    #[test]
    fn signature_is_position_deterministic() {
        let b = bag();
        let method = SignatureMethod::KMeans { k: 4 };
        let a1 = build(&b, &method, 3);
        let a2 = build(&b, &method, 3);
        assert_eq!(a1, a2, "same (seed, index) -> same signature");
        // Different positions draw different quantizer streams.
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn ground_metric_dispatch() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((GroundMetric::Euclidean.distance(&a, &b) - 5.0).abs() < 1e-12);
        assert!((GroundMetric::Manhattan.distance(&a, &b) - 7.0).abs() < 1e-12);
        assert!((GroundMetric::Chebyshev.distance(&a, &b) - 4.0).abs() < 1e-12);
    }
}
