//! Small hand-written graphs used in tests, documentation and the Figure 1
//! walkthrough of the paper.

use crate::error::Result;
use crate::graph::Graph;
use crate::GraphBuilder;

/// The six-vertex undirected example graph from Figure 1 of the paper.
///
/// Vertices are labelled `A..F` as `0..5`. The raw graph is
/// `A-B, A-C, B-C, A-D, D-E, A-F`, an uneven degree distribution with `A` as
/// the hub. Partitioning it into two subgraphs with EBV illustrates why the
/// degree-sum edge ordering produces a more balanced result than alphabetical
/// order.
///
/// # Examples
///
/// ```
/// use ebv_graph::generators::named;
///
/// let g = named::figure1_graph();
/// assert_eq!(g.num_vertices(), 6);
/// assert_eq!(g.num_input_edges(), 6);
/// ```
pub fn figure1_graph() -> Graph {
    GraphBuilder::undirected()
        .extend_edges(vec![
            (FIG1_A, FIG1_B),
            (FIG1_A, FIG1_C),
            (FIG1_B, FIG1_C),
            (FIG1_A, FIG1_D),
            (FIG1_D, FIG1_E),
            (FIG1_A, FIG1_F),
        ])
        .build()
        .expect("figure 1 graph is statically valid")
}

/// Vertex `A` of [`figure1_graph`].
pub(crate) const FIG1_A: u64 = 0;
/// Vertex `B` of [`figure1_graph`].
pub(crate) const FIG1_B: u64 = 1;
/// Vertex `C` of [`figure1_graph`].
pub(crate) const FIG1_C: u64 = 2;
/// Vertex `D` of [`figure1_graph`].
pub(crate) const FIG1_D: u64 = 3;
/// Vertex `E` of [`figure1_graph`].
pub(crate) const FIG1_E: u64 = 4;
/// Vertex `F` of [`figure1_graph`].
pub(crate) const FIG1_F: u64 = 5;

/// A directed path `0 -> 1 -> … -> n-1`.
///
/// # Errors
///
/// Returns an error when `n < 2`.
pub fn path_graph(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(crate::GraphError::InvalidParameter {
            parameter: "n",
            message: format!("a path needs at least 2 vertices, got {n}"),
        });
    }
    GraphBuilder::directed()
        .extend_edges((0..n as u64 - 1).map(|i| (i, i + 1)))
        .num_vertices(n)
        .build()
}

/// An undirected cycle over `n` vertices.
///
/// # Errors
///
/// Returns an error when `n < 3`.
pub fn cycle_graph(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(crate::GraphError::InvalidParameter {
            parameter: "n",
            message: format!("a cycle needs at least 3 vertices, got {n}"),
        });
    }
    GraphBuilder::undirected()
        .extend_edges((0..n as u64).map(|i| (i, (i + 1) % n as u64)))
        .build()
}

/// An undirected star: vertex 0 connected to `leaves` leaf vertices.
///
/// # Errors
///
/// Returns an error when `leaves == 0`.
pub fn star_graph(leaves: usize) -> Result<Graph> {
    GraphBuilder::undirected()
        .extend_edges((1..=leaves as u64).map(|i| (0, i)))
        .build()
}

/// Two disjoint undirected triangles (`0,1,2` and `3,4,5`), useful for
/// connected-components tests.
pub fn two_triangles() -> Graph {
    GraphBuilder::undirected()
        .extend_edges(vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        .build()
        .expect("two triangles is statically valid")
}

/// A small weighted-free "social network" of 34 vertices shaped like the
/// classic karate-club graph: two hubs with overlapping communities. The
/// exact edge set is a fixed, hand-checked list (not the Zachary data), small
/// enough for exhaustive assertions in tests.
pub fn small_social_graph() -> Graph {
    let hub_a: u64 = 0;
    let hub_b: u64 = 33;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    // Hub A connects to vertices 1..=16, hub B to 17..=32.
    for v in 1..=16u64 {
        edges.push((hub_a, v));
    }
    for v in 17..=32u64 {
        edges.push((hub_b, v));
    }
    // A ring through the periphery ties the two communities together.
    for v in 1..32u64 {
        edges.push((v, v + 1));
    }
    edges.push((hub_a, hub_b));
    GraphBuilder::undirected()
        .extend_edges(edges)
        .build()
        .expect("small social graph is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexId;

    #[test]
    fn figure1_graph_matches_paper() {
        let g = figure1_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 12);
        // A is the hub with undirected degree 4 (total degree 8).
        assert_eq!(g.degree(VertexId::new(FIG1_A)), 8);
        assert_eq!(g.degree(VertexId::new(FIG1_E)), 2);
        assert_eq!(g.degree(VertexId::new(FIG1_F)), 2);
    }

    #[test]
    fn path_graph_shape() {
        let g = path_graph(5).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId::new(0)), 1);
        assert_eq!(g.out_degree(VertexId::new(4)), 0);
        assert!(path_graph(1).is_err());
    }

    #[test]
    fn cycle_graph_every_vertex_degree_four() {
        let g = cycle_graph(6).unwrap();
        assert_eq!(g.num_vertices(), 6);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn star_graph_hub_degree() {
        let g = star_graph(7).unwrap();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.degree(VertexId::new(0)), 14);
        assert!(star_graph(0).is_err());
    }

    #[test]
    fn two_triangles_are_disjoint() {
        let g = two_triangles();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 12);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn small_social_graph_has_two_hubs() {
        let g = small_social_graph();
        assert_eq!(g.num_vertices(), 34);
        let d0 = g.degree(VertexId::new(0));
        let d33 = g.degree(VertexId::new(33));
        let dmid = g.degree(VertexId::new(10));
        assert!(d0 > 3 * dmid);
        assert!(d33 > 3 * dmid);
    }
}
