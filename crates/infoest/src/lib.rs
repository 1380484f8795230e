//! Distance-based information estimators for weighted observations
//! (Hino & Murata, *Neural Networks* 2013), as used in §3.3 of the
//! paper.
//!
//! Given weighted sets `S = {(S_i, ψ_i)}` and `S' = {(S'_j, ψ'_j)}`
//! embedded in a metric space with pairwise distances available, the
//! three estimators are
//!
//! - information content `I(S; S') = c + d Σ_j ψ'_j log dist(S'_j, S)`,
//! - auto-entropy `H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) · log dist(S_i, S_j)`,
//! - cross-entropy `H(S, S') = c + d Σ_i Σ_j ψ_i ψ'_j log dist(S_i, S'_j)`.
//!
//! The constants `c` and `d` (the effective embedding dimension) cancel
//! in the change-point scores of Eqs. (16)–(17), which are differences of
//! these quantities; the defaults are therefore `c = 0`, `d = 1`. They
//! remain configurable for uses where absolute entropy estimates matter.
//!
//! The estimators use each distance only through its logarithm and each
//! weight only linearly, so they work in the log domain: a
//! [`DistanceMatrix`] is mapped once to a [`LogDistances`] matrix of
//! `ln(max(d, dist_floor))`, weights are divided by their sum once
//! ([`normalize_weights_into`]), and every estimate is then pure
//! multiply-adds over the two.
//!
//! This crate is deliberately metric-agnostic: the caller decides
//! whether the distances are EMDs between signatures (as in the paper)
//! or anything else.

pub mod estimators;
pub mod matrix;

pub use estimators::{
    auto_entropy, cross_entropy, information_content, normalize_weights_into, EstimatorConfig,
};
pub use matrix::{DistanceMatrix, LogDistances};
