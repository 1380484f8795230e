//! Community-structured random bipartite graphs (§5.3 workload model).
//!
//! Source nodes are split into two clusters (proportion ρ), destination
//! nodes into two clusters (proportion δ); the edge weight between a
//! source in cluster `k` and a destination in cluster `l` is Poisson with
//! rate `λ_{k,l}` (zero-weight draws produce no edge). Dataset 3 instead
//! fixes the *total* weight and multinomially allocates it to
//! communities, which this generator also supports.

use crate::graph::BipartiteGraph;
use rand::Rng;

/// Parameters of one time step's graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunitySpec {
    /// Number of source nodes.
    pub num_sources: usize,
    /// Number of destination nodes.
    pub num_dests: usize,
    /// Fraction ρ of sources in cluster 0.
    pub rho: f64,
    /// Fraction δ of destinations in cluster 0.
    pub delta: f64,
    /// Poisson rates `λ_{k,l}` for the four communities, indexed
    /// `[source cluster][dest cluster]`.
    pub lambda: [[f64; 2]; 2],
    /// If `Some(w)`, the total edge weight is fixed to `w` and allocated
    /// to communities proportionally to `λ_{k,l}` (Dataset 3), then
    /// spread uniformly over each community's pairs.
    pub fixed_total_weight: Option<u64>,
}

impl CommunitySpec {
    /// Check parameters.
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sources == 0 || self.num_dests == 0 {
            return Err("node counts must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.rho) || !(0.0..=1.0).contains(&self.delta) {
            return Err("rho and delta must lie in [0, 1]".into());
        }
        for row in &self.lambda {
            for &l in row {
                if !(l.is_finite() && l >= 0.0) {
                    return Err("lambda rates must be finite and >= 0".into());
                }
            }
        }
        Ok(())
    }

    /// Cluster of source node `s` (cluster 0 holds the first
    /// `round(rho * n_s)` nodes).
    pub fn source_cluster(&self, s: usize) -> usize {
        usize::from(s >= (self.rho * self.num_sources as f64).round() as usize)
    }

    /// Cluster of destination node `d`.
    pub fn dest_cluster(&self, d: usize) -> usize {
        usize::from(d >= (self.delta * self.num_dests as f64).round() as usize)
    }
}

/// Draw one bipartite graph from the community model.
///
/// # Panics
/// Panics on an invalid spec.
pub fn generate_community_graph(spec: &CommunitySpec, rng: &mut impl Rng) -> BipartiteGraph {
    spec.validate().expect("invalid CommunitySpec");
    match spec.fixed_total_weight {
        None => generate_poisson(spec, rng),
        Some(total) => generate_fixed_total(spec, total, rng),
    }
}

/// Independent Poisson weight per pair.
fn generate_poisson(spec: &CommunitySpec, rng: &mut impl Rng) -> BipartiteGraph {
    let mut edges = Vec::new();
    let samplers = [
        [
            stats::Poisson::new(spec.lambda[0][0]),
            stats::Poisson::new(spec.lambda[0][1]),
        ],
        [
            stats::Poisson::new(spec.lambda[1][0]),
            stats::Poisson::new(spec.lambda[1][1]),
        ],
    ];
    for s in 0..spec.num_sources {
        let sk = spec.source_cluster(s);
        for d in 0..spec.num_dests {
            let dl = spec.dest_cluster(d);
            let w = samplers[sk][dl].sample(rng);
            if w > 0 {
                edges.push((s as u32, d as u32, w as f64));
            }
        }
    }
    BipartiteGraph::new(spec.num_sources, spec.num_dests, edges)
}

/// Dataset-3 style: total weight fixed, allocated to communities by the
/// λ ratios, then uniformly at random over each community's pairs.
fn generate_fixed_total(spec: &CommunitySpec, total: u64, rng: &mut impl Rng) -> BipartiteGraph {
    // Community pair lists.
    let mut pairs: [[Vec<(u32, u32)>; 2]; 2] = Default::default();
    for s in 0..spec.num_sources {
        let sk = spec.source_cluster(s);
        for d in 0..spec.num_dests {
            let dl = spec.dest_cluster(d);
            pairs[sk][dl].push((s as u32, d as u32));
        }
    }
    // Allocate community totals by the lambda ratios.
    let weights: Vec<f64> = vec![
        spec.lambda[0][0],
        spec.lambda[0][1],
        spec.lambda[1][0],
        spec.lambda[1][1],
    ];
    let alloc = stats::Categorical::new(&weights).sample_counts(total, rng);

    // Ordered by (source, dest), so the edge list — and everything built
    // from it — is the same in every process.
    let mut acc: std::collections::BTreeMap<(u32, u32), u64> = std::collections::BTreeMap::new();
    for (c, &count) in alloc.iter().enumerate() {
        let plist = &pairs[c / 2][c % 2];
        if plist.is_empty() || count == 0 {
            continue;
        }
        for _ in 0..count {
            let &(s, d) = &plist[rng.gen_range(0..plist.len())];
            *acc.entry((s, d)).or_insert(0) += 1;
        }
    }
    let edges: Vec<(u32, u32, f64)> = acc
        .into_iter()
        .map(|((s, d), w)| (s, d, w as f64))
        .collect();
    BipartiteGraph::new(spec.num_sources, spec.num_dests, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn base_spec() -> CommunitySpec {
        CommunitySpec {
            num_sources: 40,
            num_dests: 30,
            rho: 0.5,
            delta: 0.5,
            lambda: [[10.0, 3.0], [1.0, 5.0]],
            fixed_total_weight: None,
        }
    }

    #[test]
    fn poisson_graph_has_expected_density() {
        let g = generate_community_graph(&base_spec(), &mut rng(1));
        assert_eq!(g.num_sources(), 40);
        assert_eq!(g.num_dests(), 30);
        // lambda >= 1 everywhere except one community: most pairs have an
        // edge. Expected present fraction ~ mean of (1 - e^-lambda).
        let frac = g.num_edges() as f64 / (40.0 * 30.0);
        assert!(frac > 0.7, "edge fraction {frac}");
    }

    #[test]
    fn community_weights_follow_lambda() {
        let spec = base_spec();
        let g = generate_community_graph(&spec, &mut rng(2));
        // Mean weight within community (0,0) should be near 10, (1,0)
        // near 1 (conditioned on presence; for lambda=10 truncation bias
        // is negligible).
        let mut w00 = Vec::new();
        let mut w11 = Vec::new();
        for &(s, d, w) in g.edges() {
            match (
                spec.source_cluster(s as usize),
                spec.dest_cluster(d as usize),
            ) {
                (0, 0) => w00.push(w),
                (1, 1) => w11.push(w),
                _ => {}
            }
        }
        let m00: f64 = w00.iter().sum::<f64>() / w00.len() as f64;
        let m11: f64 = w11.iter().sum::<f64>() / w11.len() as f64;
        assert!((m00 - 10.0).abs() < 1.0, "community(0,0) mean {m00}");
        assert!((m11 - 5.0).abs() < 1.0, "community(1,1) mean {m11}");
    }

    #[test]
    fn rho_controls_partition() {
        let spec = CommunitySpec {
            rho: 0.25,
            ..base_spec()
        };
        // 40 sources, rho 0.25 -> first 10 in cluster 0.
        assert_eq!(spec.source_cluster(9), 0);
        assert_eq!(spec.source_cluster(10), 1);
    }

    #[test]
    fn fixed_total_weight_is_exact() {
        let spec = CommunitySpec {
            fixed_total_weight: Some(5000),
            ..base_spec()
        };
        let g = generate_community_graph(&spec, &mut rng(3));
        assert!((g.total_weight() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_total_respects_lambda_ratios() {
        let spec = CommunitySpec {
            num_sources: 20,
            num_dests: 20,
            rho: 0.5,
            delta: 0.5,
            lambda: [[9.0, 1.0], [1.0, 9.0]],
            fixed_total_weight: Some(20_000),
        };
        let g = generate_community_graph(&spec, &mut rng(4));
        let mut comm = [[0.0; 2]; 2];
        for &(s, d, w) in g.edges() {
            comm[spec.source_cluster(s as usize)][spec.dest_cluster(d as usize)] += w;
        }
        let total = 20_000.0;
        assert!((comm[0][0] / total - 0.45).abs() < 0.02);
        assert!((comm[0][1] / total - 0.05).abs() < 0.02);
    }

    #[test]
    fn deterministic_given_seed() {
        for spec in [
            base_spec(),
            CommunitySpec {
                fixed_total_weight: Some(5000),
                ..base_spec()
            },
        ] {
            let a = generate_community_graph(&spec, &mut rng(5));
            let b = generate_community_graph(&spec, &mut rng(5));
            assert_eq!(a, b, "{spec:?}");
        }
    }

    #[test]
    fn zero_lambda_community_is_empty() {
        let spec = CommunitySpec {
            lambda: [[0.0, 0.0], [0.0, 4.0]],
            ..base_spec()
        };
        let g = generate_community_graph(&spec, &mut rng(6));
        for &(s, d, _) in g.edges() {
            assert_eq!(spec.source_cluster(s as usize), 1);
            assert_eq!(spec.dest_cluster(d as usize), 1);
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(CommunitySpec {
            num_sources: 0,
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(CommunitySpec {
            rho: 1.5,
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(CommunitySpec {
            lambda: [[-1.0, 0.0], [0.0, 0.0]],
            ..base_spec()
        }
        .validate()
        .is_err());
    }
}
