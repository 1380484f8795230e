//! Change-point detection in a sequence of bags-of-data.
//!
//! This crate is the primary contribution of Koshijima, Hino & Murata,
//! *Change-Point Detection in a Sequence of Bags-of-Data* (IEEE TKDE
//! 27(10):2632–2644, 2015), implemented end to end:
//!
//! 1. each observation is a [`Bag`] of vectors (§2);
//! 2. bags are summarized into EMD signatures by a configurable
//!    quantizer ([`SignatureMethod`], §3.1);
//! 3. signatures are embedded in the EMD metric space (§3.2, the `emd`
//!    crate);
//! 4. fluctuation is scored with the weighted information estimators
//!    (§3.3; their constants and the log-distance matrix are in the
//!    `infoest` crate) — [`WindowScorer::score_with`], the LR score of
//!    Eq. 16 or the symmetrized KL score of Eq. 17, and
//!    [`WindowScorer::score_batch_into`], the same for a batch of
//!    bootstrap replicates;
//! 5. per-step confidence intervals come from the Bayesian bootstrap
//!    ([`bootstrap_ci_with`], §4.2), and alerts are raised adaptively when
//!    consecutive intervals stop overlapping (`xi_t > 0`, §4.1).
//!
//! Every call from signature to score point takes a caller-kept scratch
//! ([`SolverScratch`], [`ScoreScratch`], [`BootstrapScratch`],
//! [`EvalScratch`]), so a warm loop over inspection points allocates
//! nothing.
//!
//! # Quick example
//!
//! ```
//! use bagcpd::{Bag, Detector, DetectorConfig};
//!
//! // Twenty bags of 1-D data; the level jumps at t = 10.
//! let bags: Vec<Bag> = (0..20)
//!     .map(|t| {
//!         let level = if t < 10 { 0.0 } else { 8.0 };
//!         Bag::from_scalars((0..60).map(|i| level + (i % 7) as f64 * 0.1))
//!     })
//!     .collect();
//!
//! let detector = Detector::new(DetectorConfig {
//!     tau: 4,
//!     tau_prime: 4,
//!     ..DetectorConfig::default()
//! }).unwrap();
//! let detection = detector.analyze(&bags, 42).unwrap();
//! assert!(detection.points.iter().any(|p| p.alert), "change at t=10 is detected");
//! ```

pub mod bag;
pub mod bootstrap;
pub mod detector;
pub mod error;
pub mod feature_select;
pub mod parametric;
pub mod score;
pub mod signature_builder;
pub mod window;

pub use bag::{Bag, MAX_ABS_COORD};
pub use bootstrap::{bootstrap_ci_with, BootstrapConfig, BootstrapScratch, ConfidenceInterval};
pub use detector::{bootstrap_seed, Detection, Detector, DetectorConfig, EvalScratch, ScorePoint};
pub use error::DetectError;
pub use feature_select::{per_dimension_scores, OnlineFeatureSelector};
pub use parametric::{parametric_distance_matrix, GaussianFit};
pub use score::{EmdSolver, ScoreKind, ScoreScratch, SolverScratch, SolverStats, WindowScorer};
pub use signature_builder::{
    derive_seed, signature_at_with, GroundMetric, SignatureMethod, SignatureScratch,
};
pub use window::{discounted_weights_into, equal_weights_into, Weighting, WindowLayout};
