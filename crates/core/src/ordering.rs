//! Edge-processing orders for sequential (streaming) partitioners.
//!
//! Section IV-C of the paper: "as a sequential graph partition algorithm,
//! the quality of results for EBV is naturally affected by the edge
//! processing order. For offline partition jobs, we sort edges in ascending
//! order by the sum of end-vertices' degrees before the execution of EBV."
//! This module provides that preprocessing step plus the orders used as
//! controls in the Section V-D sorting analysis.
//!
//! # The degree-sum orders
//!
//! Both degree-sum orders are **stable**: edges with equal keys keep their
//! input order, in the ascending *and* in the descending direction (the
//! descending order is a stable sort on the reversed key, not the ascending
//! order read backwards). Callers rely on it — a batch EBV run under one of
//! these orders equals the online run fed the arranged edge list, and
//! the paper-claim tests pin the resulting metrics.
//!
//! The key of an edge is an integer no larger than `2Δ` (`Δ` the maximum
//! total degree), so the sort is a counting sort in `O(|E| + Δ)` time: one
//! pass computes every key once, one pass histograms them, a prefix sum
//! turns the histogram into bucket starts and one pass places the edge
//! indices. It allocates a `u32` degree per vertex, a `u32` key per edge,
//! `2Δ + 1` bucket cursors and the returned permutation; no two edges are
//! ever compared and [`Graph::degree`] is evaluated once per vertex.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ebv_graph::Graph;

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

    /// Produces a permutation of edge *indices* (into [`Graph::edges`]) in
    /// this order. Streaming partitioners use the indices so that their
    /// output assignment stays aligned with the graph's edge list.
    pub fn arrange_indices(&self, graph: &Graph) -> Vec<usize> {
        match self {
            EdgeOrder::Input => (0..graph.num_edges()).collect(),
            EdgeOrder::DegreeSumAscending => degree_sum_order(graph, false),
            EdgeOrder::DegreeSumDescending => degree_sum_order(graph, true),
            EdgeOrder::Random(seed) => {
                let mut indices: Vec<usize> = (0..graph.num_edges()).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                indices.shuffle(&mut rng);
                indices
            }
        }
    }
}

/// The edge indices of `graph` stably counting-sorted by the sum of the end
/// vertices' total degrees, ascending or descending (see the module documentation for the contract).
fn degree_sum_order(graph: &Graph, descending: bool) -> Vec<usize> {
    let edges = graph.edges();
    // A key is at most 2Δ ≤ 4|E|, so below this size every degree and key
    // fits the `u32` scratch.
    assert!(
        edges.len() <= (u32::MAX / 4) as usize,
        "degree-sum keys of {} edges do not fit u32",
        edges.len()
    );
    let degrees: Vec<u32> = graph.vertices().map(|v| graph.degree(v) as u32).collect();
    let keys: Vec<u32> = edges
        .iter()
        .map(|e| degrees[e.src.index()] + degrees[e.dst.index()])
        .collect();
    let max_degree = degrees.iter().copied().max().unwrap_or(0) as usize;

    // Histogram, then an exclusive prefix sum taken in the direction of the
    // order: `cursors[k]` becomes the output position of the first edge
    // with key `k`.
    let mut cursors = vec![0usize; 2 * max_degree + 1];
    for &key in &keys {
        cursors[key as usize] += 1;
    }
    let mut next = 0usize;
    let mut claim = |cursor: &mut usize| {
        let count = *cursor;
        *cursor = next;
        next += count;
    };
    if descending {
        cursors.iter_mut().rev().for_each(&mut claim);
    } else {
        cursors.iter_mut().for_each(&mut claim);
    }

    // Placing in input order is what makes the sort stable.
    let mut order = vec![0usize; edges.len()];
    for (index, &key) in keys.iter().enumerate() {
        let cursor = &mut cursors[key as usize];
        order[*cursor] = index;
        *cursor += 1;
    }
    order
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ebv_graph::generators::named;
    use ebv_graph::{Edge, GraphBuilder, VertexId};
    use rand::Rng;

    /// The sorting key of the paper's preprocessing: the sum of the end
    /// vertices' total degrees.
    fn degree_sum(graph: &Graph, edge: &Edge) -> usize {
        graph.degree(edge.src) + graph.degree(edge.dst)
    }

    /// The edge list of `graph` in `order`.
    fn arrange(order: EdgeOrder, graph: &Graph) -> Vec<Edge> {
        order
            .arrange_indices(graph)
            .into_iter()
            .map(|i| graph.edges()[i])
            .collect()
    }

    /// The comparison sort [`degree_sum_order`] replaced: a stable
    /// `sort_by_key` that looks both degrees up inside every comparison.
    /// Kept as the reference the counting sort is checked against.
    fn comparison_sorted_indices(graph: &Graph, descending: bool) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..graph.num_edges()).collect();
        if descending {
            indices.sort_by_key(|&i| std::cmp::Reverse(degree_sum(graph, &graph.edges()[i])));
        } else {
            indices.sort_by_key(|&i| degree_sum(graph, &graph.edges()[i]));
        }
        indices
    }

    fn assert_matches_comparison_sort(graph: &Graph, context: &str) {
        for (order, descending) in [
            (EdgeOrder::DegreeSumAscending, false),
            (EdgeOrder::DegreeSumDescending, true),
        ] {
            assert_eq!(
                order.arrange_indices(graph),
                comparison_sorted_indices(graph, descending),
                "{context}, {order:?}"
            );
        }
    }

    /// A small random directed multigraph: endpoints drawn from a universe
    /// skewed toward a few hubs so duplicate edges, self-loops and ties in
    /// the degree sum are frequent, plus a tail of isolated vertices.
    pub(crate) fn random_multigraph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let universe = rng.gen_range(1..40u64);
        let hubs = rng.gen_range(1..=universe.min(4));
        let isolated = rng.gen_range(0..6usize);
        let num_edges = rng.gen_range(0..240usize);
        let endpoint = |rng: &mut StdRng| {
            if rng.gen_bool(0.4) {
                rng.gen_range(0..hubs)
            } else {
                rng.gen_range(0..universe)
            }
        };
        let mut builder = GraphBuilder::directed();
        builder
            .allow_self_loops(true)
            .num_vertices(universe as usize + isolated);
        for _ in 0..num_edges {
            let (src, dst) = (endpoint(&mut rng), endpoint(&mut rng));
            builder.add_edge_ids(src, dst);
        }
        builder.build().expect("in-range endpoints")
    }

    #[test]
    fn counting_sort_matches_the_comparison_sort_on_random_multigraphs() {
        for seed in 0..400 {
            let graph = random_multigraph(seed);
            assert_matches_comparison_sort(&graph, &format!("seed {seed}"));
        }
    }

    #[test]
    fn counting_sort_matches_the_comparison_sort_on_edge_cases() {
        let mut empty = GraphBuilder::directed();
        empty.num_vertices(3);
        assert_matches_comparison_sort(&empty.build().unwrap(), "empty graph");
        assert_eq!(
            EdgeOrder::DegreeSumAscending.arrange_indices(&empty.build().unwrap()),
            Vec::<usize>::new()
        );
        let single = Graph::from_edges(vec![(0, 1)]).unwrap();
        assert_matches_comparison_sort(&single, "single edge");
        // Δ ≈ |E|: the histogram is as long as the edge list.
        let star = named::star_graph(50).unwrap();
        assert_matches_comparison_sort(&star, "star");
        let mut loops = GraphBuilder::directed();
        loops.allow_self_loops(true);
        for _ in 0..3 {
            loops
                .add_edge_ids(0, 0)
                .add_edge_ids(0, 1)
                .add_edge_ids(1, 0);
        }
        assert_matches_comparison_sort(&loops.build().unwrap(), "loops and duplicates");
    }

    #[test]
    fn descending_ties_keep_input_order() {
        // A directed cycle: every edge has degree sum 4, so both directions
        // must return the input order — descending is not ascending
        // reversed.
        let cycle = Graph::from_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let input: Vec<usize> = (0..4).collect();
        assert_eq!(EdgeOrder::DegreeSumAscending.arrange_indices(&cycle), input);
        assert_eq!(
            EdgeOrder::DegreeSumDescending.arrange_indices(&cycle),
            input
        );
    }

    #[test]
    fn input_order_is_graph_order() {
        let g = named::figure1_graph();
        assert_eq!(arrange(EdgeOrder::Input, &g), g.edges().to_vec());
    }

    #[test]
    fn ascending_order_puts_low_degree_edges_first() {
        let g = named::figure1_graph();
        let edges = arrange(EdgeOrder::DegreeSumAscending, &g);
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
        let edges = arrange(EdgeOrder::DegreeSumDescending, &g);
        let sums: Vec<usize> = edges.iter().map(|e| degree_sum(&g, e)).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sums, sorted);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let g = named::figure1_graph();
        let a = arrange(EdgeOrder::Random(5), &g);
        let b = arrange(EdgeOrder::Random(5), &g);
        let c = arrange(EdgeOrder::Random(6), &g);
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
