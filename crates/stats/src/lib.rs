//! Statistical substrate for the bags-cpd workspace.
//!
//! Every synthetic workload in Koshijima, Hino & Murata (TKDE 2015) is
//! built from a small set of distributions — Gaussians and Gaussian
//! mixtures for the bags, Poisson for bag sizes and edge weights, and the
//! flat Dirichlet for the Bayesian bootstrap of §4.2. This crate provides
//! those samplers from scratch (only the uniform source comes from
//! `rand`), plus descriptive statistics and the quantile routine used to
//! turn bootstrap replicates into confidence intervals.

pub mod categorical;
pub mod descriptive;
pub mod dirichlet;
pub mod gamma;
pub mod mixture;
pub mod mvn;
pub mod normal;
pub mod poisson;
pub mod rng;

pub use categorical::Categorical;
pub use descriptive::{mean, median, quantile, sample_std, sample_var, Summary};
pub use dirichlet::Dirichlet;
pub use gamma::GammaShape;
pub use mixture::{GaussianMixture1d, MixtureComponent, MvGaussianMixture};
pub use mvn::MultivariateNormal;
pub use normal::{sample_standard_normal, Normal};
pub use poisson::Poisson;
pub use rng::seeded_rng;
