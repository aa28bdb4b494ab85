//! Edge-processing orders for sequential (streaming) partitioners.
//!
//! Section IV-C of the paper: "as a sequential graph partition algorithm,
//! the quality of results for EBV is naturally affected by the edge
//! processing order. For offline partition jobs, we sort edges in ascending
//! order by the sum of end-vertices' degrees before the execution of EBV."
//! This module provides that preprocessing step plus the orders used as
//! controls in the Section V-D sorting analysis.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ebv_graph::{Edge, Graph};

/// The order in which a streaming partitioner visits the edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeOrder {
    /// The order edges appear in the input graph (the paper's "EBV-unsort").
    Input,
    /// Ascending by the sum of the end-vertices' total degrees (the paper's
    /// "EBV-sort" preprocessing).
    #[default]
    DegreeSumAscending,
    /// Descending by the sum of the end-vertices' total degrees — the
    /// adversarial control: hubs first.
    DegreeSumDescending,
    /// A deterministic pseudo-random shuffle with the given seed.
    Random(u64),
}

impl EdgeOrder {
    /// A short label used in reports ("sort", "unsort", ...).
    pub fn label(&self) -> String {
        match self {
            EdgeOrder::Input => "unsort".to_string(),
            EdgeOrder::DegreeSumAscending => "sort".to_string(),
            EdgeOrder::DegreeSumDescending => "sort-desc".to_string(),
            EdgeOrder::Random(seed) => format!("random-{seed}"),
        }
    }

    /// Produces the edge list of `graph` in this order. The graph itself is
    /// not modified.
    pub fn arrange(&self, graph: &Graph) -> Vec<Edge> {
        self.arrange_indices(graph)
            .into_iter()
            .map(|i| graph.edges()[i])
            .collect()
    }

    /// Produces a permutation of edge *indices* (into [`Graph::edges`]) in
    /// this order. Streaming partitioners use the indices so that their
    /// output assignment stays aligned with the graph's edge list.
    pub fn arrange_indices(&self, graph: &Graph) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..graph.num_edges()).collect();
        match self {
            EdgeOrder::Input => {}
            EdgeOrder::DegreeSumAscending => {
                indices.sort_by_key(|&i| degree_sum(graph, &graph.edges()[i]));
            }
            EdgeOrder::DegreeSumDescending => {
                indices.sort_by_key(|&i| std::cmp::Reverse(degree_sum(graph, &graph.edges()[i])));
            }
            EdgeOrder::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                indices.shuffle(&mut rng);
            }
        }
        indices
    }
}

/// The sorting key of the paper's preprocessing: the sum of the end
/// vertices' total degrees.
pub fn degree_sum(graph: &Graph, edge: &Edge) -> usize {
    graph.degree(edge.src) + graph.degree(edge.dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::generators::named;
    use ebv_graph::VertexId;

    #[test]
    fn input_order_is_graph_order() {
        let g = named::figure1_graph();
        assert_eq!(EdgeOrder::Input.arrange(&g), g.edges().to_vec());
    }

    #[test]
    fn ascending_order_puts_low_degree_edges_first() {
        let g = named::figure1_graph();
        let edges = EdgeOrder::DegreeSumAscending.arrange(&g);
        let sums: Vec<usize> = edges.iter().map(|e| degree_sum(&g, e)).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        assert_eq!(sums, sorted);
        // The hub A (vertex 0) has degree 8; the first edge must not touch it.
        assert_ne!(edges[0].src, VertexId::new(0));
        assert_ne!(edges[0].dst, VertexId::new(0));
    }

    #[test]
    fn descending_order_is_reverse_sorted() {
        let g = named::figure1_graph();
        let edges = EdgeOrder::DegreeSumDescending.arrange(&g);
        let sums: Vec<usize> = edges.iter().map(|e| degree_sum(&g, e)).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sums, sorted);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let g = named::figure1_graph();
        let a = EdgeOrder::Random(5).arrange(&g);
        let b = EdgeOrder::Random(5).arrange(&g);
        let c = EdgeOrder::Random(6).arrange(&g);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same multiset of edges regardless of order.
        let mut a_sorted = a.clone();
        let mut input_sorted = g.edges().to_vec();
        a_sorted.sort();
        input_sorted.sort();
        assert_eq!(a_sorted, input_sorted);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EdgeOrder::Input.label(), "unsort");
        assert_eq!(EdgeOrder::DegreeSumAscending.label(), "sort");
        assert_eq!(EdgeOrder::DegreeSumDescending.label(), "sort-desc");
        assert_eq!(EdgeOrder::Random(3).label(), "random-3");
        assert_eq!(EdgeOrder::default(), EdgeOrder::DegreeSumAscending);
    }
}
