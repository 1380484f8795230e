//! Workload generators for every experiment in the paper.
//!
//! | Module | Paper exhibit | Contents |
//! |--------|---------------|----------|
//! | [`fig1`] | Fig. 1 | 1-D Gaussian-mixture bags, changes at t = 50, 100 |
//! | [`synthetic5`] | Fig. 6 | the five 2-D synthetic datasets of §5.1 |
//! | [`pamap`] | Table 1 + Fig. 7 | synthetic stand-in for the PAMAP2 activity dataset |
//! | [`bipartite_synth`] | Fig. 10 | the four §5.3 bipartite-graph datasets |
//! | [`enron`] | Fig. 11 | event-driven e-mail network simulator (Enron stand-in) |
//!
//! The PAMAP2 and Enron corpora are not redistributable/available
//! offline; the [`pamap`] and [`enron`] modules generate synthetic
//! equivalents that preserve the structural properties the method
//! exercises (bags of varying size whose underlying distribution shifts
//! at known ground-truth points; weekly bipartite graphs with varying
//! node sets and scripted events). See DESIGN.md §3 for the substitution
//! rationale.
//!
//! Every generator is deterministic given its seed and returns ground
//! truth alongside the data, so experiments can score precision/recall
//! of raised alerts.

pub mod bipartite_synth;
pub mod darknet;
pub mod enron;
pub mod fig1;
pub mod pamap;
pub mod questionnaire;
pub mod synthetic5;

use bagcpd::Bag;
use bipartite::{extract_feature, BipartiteGraph, Feature};

/// A bag sequence with ground-truth change points (bag indices at which
/// the new regime starts).
#[derive(Debug, Clone)]
pub struct LabeledBags {
    /// The observations.
    pub bags: Vec<Bag>,
    /// Indices where a new regime begins.
    pub change_points: Vec<usize>,
    /// Human-readable workload name.
    pub name: String,
}

/// A bipartite-graph sequence with ground-truth change points.
#[derive(Debug, Clone)]
pub struct LabeledGraphs {
    /// One graph per time window.
    pub graphs: Vec<BipartiteGraph>,
    /// Indices where a new regime begins.
    pub change_points: Vec<usize>,
    /// Human-readable workload name.
    pub name: String,
}

impl LabeledGraphs {
    /// Convert the sequence into bags of one scalar feature (§5.3).
    ///
    /// Graphs for which the feature yields no values (an edgeless window
    /// under [`Feature::EdgeWeight`]) contribute a single zero — the
    /// detector requires non-empty bags, and "no traffic" is itself a
    /// distributional statement.
    pub fn feature_bags(&self, feature: Feature) -> LabeledBags {
        let bags = self
            .graphs
            .iter()
            .map(|g| {
                let mut values = extract_feature(g, feature);
                if values.is_empty() {
                    values.push(0.0);
                }
                Bag::from_scalars(values)
            })
            .collect();
        LabeledBags {
            bags,
            change_points: self.change_points.clone(),
            name: format!("{} / feature {}", self.name, feature.number()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_bags_preserve_labels() {
        let graphs = vec![
            BipartiteGraph::new(2, 2, vec![(0, 0, 1.0)]),
            BipartiteGraph::new(3, 2, vec![(0, 1, 2.0), (2, 0, 1.0)]),
        ];
        let lg = LabeledGraphs {
            graphs,
            change_points: vec![1],
            name: "toy".into(),
        };
        let lb = lg.feature_bags(Feature::SourceDegree);
        assert_eq!(lb.bags.len(), 2);
        assert_eq!(lb.bags[0].len(), 2);
        assert_eq!(lb.bags[1].len(), 3);
        assert_eq!(lb.change_points, vec![1]);
        assert!(lb.name.contains("feature 1"));
    }

    #[test]
    fn edgeless_graph_yields_zero_bag() {
        let lg = LabeledGraphs {
            graphs: vec![BipartiteGraph::new(2, 2, vec![])],
            change_points: vec![],
            name: "empty".into(),
        };
        let lb = lg.feature_bags(Feature::EdgeWeight);
        assert_eq!(lb.bags[0].len(), 1);
        assert_eq!(lb.bags[0].coords(), [0.0]);
    }
}
