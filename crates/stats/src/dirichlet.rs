//! Dirichlet sampling — the engine of the Bayesian bootstrap (§4.2).
//!
//! Rubin's Bayesian bootstrap draws posterior weights
//! `g ~ Dir(1, …, 1)`; the weighted variant of Appendix B draws
//! `g ~ Dir(n·pi_1, …, n·pi_n)`. Both reduce to normalizing independent
//! Gamma variates.

use crate::gamma::{sample_gamma_shape, GammaShape};
use rand::Rng;

/// Dirichlet sampling from a concentration vector the caller keeps, so
/// the bootstrap draws thousands of replicates with no allocation. A
/// field-less namespace: every function takes the concentrations as a
/// slice.
pub struct Dirichlet;

impl Dirichlet {
    /// Compute the weighted-bootstrap posterior of Appendix B,
    /// `Dir(n * pi)` where `pi` are the normalized weights, as its
    /// concentration vector, into a reused buffer. This matches the
    /// bootstrap moments `E[g_i] = pi_i`, `var[g_i] ≈ pi_i (1-pi_i)/n`;
    /// equal weights give the flat `Dir(1, …, 1)` of the plain Bayesian
    /// bootstrap (Appendix A).
    ///
    /// # Panics
    /// Panics if weights are empty, non-finite, negative, or sum to zero.
    pub fn alpha_from_weights(weights: &[f64], alpha: &mut Vec<f64>) {
        assert!(!weights.is_empty(), "Dirichlet: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "Dirichlet: weights must be >= 0 with positive sum"
        );
        let n = weights.len() as f64;
        // Clamp at a tiny positive floor so zero-weight entries stay valid
        // (they receive essentially-zero posterior mass).
        alpha.clear();
        alpha.extend(weights.iter().map(|&w| (n * w / total).max(1e-12)));
    }

    /// Draw one `Dir(alpha)` sample into `out`: the per-replicate
    /// reference that the batched form reproduces bit for bit.
    ///
    /// # Panics
    /// Panics if `out.len() != alpha.len()`.
    pub fn sample_alpha_into(alpha: &[f64], rng: &mut impl Rng, out: &mut [f64]) {
        assert_eq!(out.len(), alpha.len(), "sample_alpha_into: dim mismatch");
        let mut total = 0.0;
        for (o, &a) in out.iter_mut().zip(alpha) {
            let g = sample_gamma_shape(a, rng);
            *o = g;
            total += g;
        }
        if total <= 0.0 {
            // Numerically possible only with absurdly small alphas; fall
            // back to the uniform point of the simplex.
            let u = 1.0 / out.len() as f64;
            out.fill(u);
            return;
        }
        for o in out.iter_mut() {
            *o /= total;
        }
    }

    /// Replicates per lane group of
    /// [`Dirichlet::sample_alpha_batch_into`]'s layout.
    pub const LANES: usize = 4;

    /// Draw one `Dir(alpha)` sample per RNG in `rngs` — the batched form
    /// of [`Dirichlet::sample_alpha_into`] — stored component-major:
    /// replicate `r`'s component `c` goes to `out[c * stride + r]`, where
    /// `stride` is `rngs.len()` rounded up to a multiple of
    /// [`Dirichlet::LANES`], so the replicates of one component sit side
    /// by side as SIMD lanes.
    ///
    /// The draws run component outer, replicate inner, so the
    /// Marsaglia–Tsang constants ([`GammaShape`]) are computed once per
    /// component, and each RNG sees exactly the draw sequence of
    /// [`Dirichlet::sample_alpha_into`]. Each replicate's draws are then
    /// divided by their total, summed in component order, lane by lane:
    /// every weight is bit for bit the one a
    /// [`Dirichlet::sample_alpha_into`] call per RNG gives. The padding
    /// lanes hold the uniform point `1 / alpha.len()`, the fallback of an
    /// all-zero draw.
    ///
    /// # Panics
    /// Panics if `out.len() != alpha.len() * stride`.
    pub fn sample_alpha_batch_into(alpha: &[f64], rngs: &mut [impl Rng], out: &mut [f64]) {
        let n = alpha.len();
        let stride = rngs.len().next_multiple_of(Self::LANES);
        assert_eq!(
            out.len(),
            n * stride,
            "sample_alpha_batch_into: shape mismatch"
        );
        for (c, &a) in alpha.iter().enumerate() {
            let shape = GammaShape::new(a);
            let (live, padding) = out[c * stride..(c + 1) * stride].split_at_mut(rngs.len());
            for (o, rng) in live.iter_mut().zip(rngs.iter_mut()) {
                *o = shape.sample(rng);
            }
            padding.fill(0.0);
        }
        let groups = stride / Self::LANES;
        let (lanes, _) = out.as_chunks_mut::<{ Self::LANES }>();
        for g in 0..groups {
            let mut total = [0.0; Self::LANES];
            for draws in lanes[g..].iter().step_by(groups) {
                for (t, &x) in total.iter_mut().zip(draws) {
                    *t += x;
                }
            }
            for draws in lanes[g..].iter_mut().step_by(groups) {
                for (x, &t) in draws.iter_mut().zip(&total) {
                    // A select, not a branch: the uniform fallback of
                    // `sample_alpha_into`, lane by lane.
                    *x = if t <= 0.0 { 1.0 / n as f64 } else { *x / t };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    /// One draw from `Dir(alpha)` as a fresh vector.
    fn sample(alpha: &[f64], rng: &mut impl Rng) -> Vec<f64> {
        let mut out = vec![0.0; alpha.len()];
        Dirichlet::sample_alpha_into(alpha, rng, &mut out);
        out
    }

    /// The Appendix-B concentrations of `weights`.
    fn alpha_of(weights: &[f64]) -> Vec<f64> {
        let mut alpha = Vec::new();
        Dirichlet::alpha_from_weights(weights, &mut alpha);
        alpha
    }

    #[test]
    fn samples_lie_on_simplex() {
        let mut rng = seeded_rng(31);
        let d = [1.0; 5];
        for _ in 0..200 {
            let x = sample(&d, &mut rng);
            let s: f64 = x.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn flat_dirichlet_mean_is_uniform() {
        let mut rng = seeded_rng(32);
        let d = [1.0; 4];
        let n = 50_000;
        let mut acc = vec![0.0; 4];
        for _ in 0..n {
            for (a, v) in acc.iter_mut().zip(sample(&d, &mut rng)) {
                *a += v;
            }
        }
        for a in &acc {
            assert!((a / n as f64 - 0.25).abs() < 0.005);
        }
    }

    #[test]
    fn flat_dirichlet_variance_matches_rubin() {
        // Rubin (1981): for Dir(1,...,1) in n dims,
        // var[g_i] = (n-1)/(n^2 (n+1)).
        let mut rng = seeded_rng(33);
        let n_dim = 5;
        let d = vec![1.0; n_dim];
        let reps = 100_000;
        let mut first = Vec::with_capacity(reps);
        for _ in 0..reps {
            first.push(sample(&d, &mut rng)[0]);
        }
        let m: f64 = first.iter().sum::<f64>() / reps as f64;
        let v: f64 = first.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
        let nf = n_dim as f64;
        let expected = (nf - 1.0) / (nf * nf * (nf + 1.0));
        assert!((v - expected).abs() < 0.002, "var {v} vs {expected}");
    }

    #[test]
    fn weighted_posterior_mean_tracks_weights() {
        // Appendix B: E[g_i] = pi_i.
        let mut rng = seeded_rng(34);
        let w = [4.0, 2.0, 1.0, 1.0];
        let d = alpha_of(&w);
        let reps = 60_000;
        let mut acc = [0.0; 4];
        for _ in 0..reps {
            for (a, v) in acc.iter_mut().zip(sample(&d, &mut rng)) {
                *a += v;
            }
        }
        let pis = [0.5, 0.25, 0.125, 0.125];
        for (a, pi) in acc.iter().zip(pis) {
            assert!((a / reps as f64 - pi).abs() < 0.005);
        }
    }

    #[test]
    fn weighted_posterior_variance_matches_appendix_b() {
        // Appendix B with alpha_i = n pi_i gives
        // var[g_i] = pi_i (1 - pi_i) / (n + 1).
        let mut rng = seeded_rng(35);
        let w = [3.0, 1.0];
        let d = alpha_of(&w);
        let reps = 120_000;
        let mut xs = Vec::with_capacity(reps);
        for _ in 0..reps {
            xs.push(sample(&d, &mut rng)[0]);
        }
        let m: f64 = xs.iter().sum::<f64>() / reps as f64;
        let v: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
        let pi = 0.75;
        let expected = pi * (1.0 - pi) / 3.0; // n = 2 -> alpha0 = 2, var = pi(1-pi)/(alpha0+1)
        assert!((v - expected).abs() < 0.003, "var {v} vs {expected}");
    }

    #[test]
    fn zero_weight_entry_gets_negligible_mass() {
        let mut rng = seeded_rng(36);
        let d = alpha_of(&[1.0, 0.0, 1.0]);
        for _ in 0..100 {
            let x = sample(&d, &mut rng);
            assert!(x[1] < 1e-6, "zero-weight coordinate drew mass {}", x[1]);
        }
    }

    #[test]
    fn sample_into_avoids_allocation_and_matches_dims() {
        let mut rng = seeded_rng(37);
        let mut buf = [0.0; 3];
        Dirichlet::sample_alpha_into(&[1.0; 3], &mut rng, &mut buf);
        assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_rows_bit_identical_to_sequential_draws() {
        // Each batched replicate must reproduce a per-replicate
        // `sample_alpha_into` sequence exactly: same RNG stream, same
        // accumulation order. Five replicates leave three padding lanes.
        let alpha_ref = [1.0, 0.5, 2.0, 1.3];
        let alpha_test = [0.8, 1.7, 1.0];
        let seeds = [3u64, 99, 1234, 5, 42];
        let (nr, nt) = (alpha_ref.len(), alpha_test.len());
        let stride = 8;

        let mut rngs: Vec<_> = seeds.iter().map(|&s| seeded_rng(s)).collect();
        let mut ref_rows = vec![f64::NAN; stride * nr];
        let mut test_rows = vec![f64::NAN; stride * nt];
        // Two batches over the same RNGs, as the bootstrap issues them.
        Dirichlet::sample_alpha_batch_into(&alpha_ref, &mut rngs, &mut ref_rows);
        Dirichlet::sample_alpha_batch_into(&alpha_test, &mut rngs, &mut test_rows);

        for (r, &seed) in seeds.iter().enumerate() {
            let mut rng = seeded_rng(seed);
            let mut wr = vec![0.0; nr];
            let mut wt = vec![0.0; nt];
            Dirichlet::sample_alpha_into(&alpha_ref, &mut rng, &mut wr);
            Dirichlet::sample_alpha_into(&alpha_test, &mut rng, &mut wt);
            for (c, w) in wr.iter().enumerate() {
                assert_eq!(
                    w.to_bits(),
                    ref_rows[c * stride + r].to_bits(),
                    "ref ({r}, {c})"
                );
            }
            for (c, w) in wt.iter().enumerate() {
                assert_eq!(
                    w.to_bits(),
                    test_rows[c * stride + r].to_bits(),
                    "test ({r}, {c})"
                );
            }
        }
        for r in seeds.len()..stride {
            assert!((0..nr).all(|c| ref_rows[c * stride + r] == 1.0 / nr as f64));
            assert!((0..nt).all(|c| test_rows[c * stride + r] == 1.0 / nt as f64));
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batched_shape_mismatch_panics() {
        // Two replicates fill one group of four lanes: 2 * 4 entries.
        let mut rngs = vec![seeded_rng(1), seeded_rng(2)];
        let mut out = vec![0.0; 4];
        Dirichlet::sample_alpha_batch_into(&[1.0, 1.0], &mut rngs, &mut out);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn all_zero_weights_panic() {
        alpha_of(&[0.0, 0.0]);
    }
}
