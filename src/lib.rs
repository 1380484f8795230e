//! # bags-cpd
//!
//! A complete Rust reproduction of Koshijima, Hino & Murata,
//! *Change-Point Detection in a Sequence of Bags-of-Data* (IEEE TKDE
//! 27(10):2632–2644, 2015).
//!
//! At each time step the observation is a **bag** — a collection of
//! vectors whose size varies over time. The method estimates the
//! distribution behind each bag as an EMD **signature**, embeds the
//! signatures in the Earth-Mover's-Distance metric space, scores the
//! fluctuation of the reference window against the test window with
//! distance-based information estimators, and raises alerts adaptively
//! by comparing Bayesian-bootstrap confidence intervals of consecutive
//! scores.
//!
//! This façade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | `bagcpd` | bags, signatures, scores, bootstrap, detector |
//! | [`stream`] | online engine: incremental detector, sharded multi-stream workers, snapshot/restore |
//! | [`emd`] | signatures, ground distances, transportation simplex, 1-D solver |
//! | [`infoest`] | weighted information estimators |
//! | [`quantize`] | k-means, k-medoids, LVQ, histograms |
//! | [`stats`] | distributions, quantiles, descriptive statistics |
//! | [`linalg`] | matrices, Cholesky, Jacobi eigen, classical MDS |
//! | [`baselines`] | ChangeFinder (SDAR), kernel change detection |
//! | [`bipartite`] | bipartite graphs, the 7 features of §5.3, generators |
//! | [`datasets`] | every experiment workload (Figs. 1, 6, 7, 10, 11) |
//!
//! ## Quickstart
//!
//! ```
//! use bags_cpd::{Bag, Detector, DetectorConfig};
//!
//! // Bags of scalars whose distribution changes shape at t = 12: the
//! // mean stays 0 but mass splits into two modes.
//! let bags: Vec<Bag> = (0..24)
//!     .map(|t| {
//!         Bag::from_scalars((0..80).map(move |i| {
//!             let u = (i as f64 + 0.5) / 80.0 - 0.5; // spread in [-.5, .5]
//!             if t < 12 { u } else { 6.0 * u.signum() + u }
//!         }))
//!     })
//!     .collect();
//!
//! let detector = Detector::new(DetectorConfig {
//!     tau: 5,
//!     tau_prime: 5,
//!     ..DetectorConfig::default()
//! }).unwrap();
//! let result = detector.analyze(&bags, 7).unwrap();
//! let peak = result.peak().unwrap();
//! assert!((peak.t as i64 - 12).abs() <= 1);
//! ```

pub use bagcpd::*;

pub use baselines;
pub use bipartite;
pub use datasets;
pub use emd;
pub use infoest;
pub use linalg;
pub use quantize;
pub use stats;
pub use stream;

/// Re-export of the core crate under its own name for explicit paths.
pub use bagcpd as detector;
