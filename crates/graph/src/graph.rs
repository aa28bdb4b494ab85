//! The immutable [`Graph`] representation used across the workspace.

use crate::error::Result;
use crate::types::{Edge, GraphKind, VertexId};

/// An immutable directed graph with both an edge list and CSR adjacency.
///
/// The edge list preserves insertion order, which matters for the streaming
/// partitioners in [`ebv-partition`](https://docs.rs/ebv-partition): the EBV
/// algorithm's result quality depends on the order in which edges are
/// processed (Section IV-C of the paper). The CSR indices give O(1) access to
/// out- and in-neighbourhoods for the BSP applications.
///
/// # Examples
///
/// ```
/// use ebv_graph::{GraphBuilder, VertexId};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let g = GraphBuilder::directed()
///     .add_edge_ids(0, 1)
///     .add_edge_ids(0, 2)
///     .add_edge_ids(2, 1)
///     .build()?;
/// assert_eq!(g.out_degree(VertexId::new(0)), 2);
/// assert_eq!(g.in_degree(VertexId::new(1)), 2);
/// assert_eq!(g.degree(VertexId::new(2)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    kind: GraphKind,
    num_vertices: usize,
    edges: Vec<Edge>,
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph from already-expanded directed edges.
    ///
    /// This is the internal constructor used by
    /// [`GraphBuilder`](crate::GraphBuilder); prefer the builder in user code.
    pub(crate) fn from_parts(kind: GraphKind, num_vertices: usize, edges: Vec<Edge>) -> Self {
        let (out_offsets, out_targets) = build_csr(num_vertices, &edges, false);
        let (in_offsets, in_sources) = build_csr(num_vertices, &edges, true);
        Graph {
            kind,
            num_vertices,
            edges,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Convenience constructor for a directed graph given dense edge pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`](crate::GraphError::EmptyGraph) if `edges` is empty.
    pub fn from_edges<I>(edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut builder = crate::GraphBuilder::directed();
        builder.extend_edges(edges);
        builder.build()
    }

    /// Whether the graph was built as directed or undirected.
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Number of vertices, including isolated ones.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges (undirected inputs count twice).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of logical input edges: directed edges for directed graphs,
    /// edge pairs for undirected graphs.
    pub fn num_input_edges(&self) -> usize {
        match self.kind {
            GraphKind::Directed => self.edges.len(),
            GraphKind::Undirected => self.edges.len() / 2,
        }
    }

    /// The full edge list in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all vertex identifiers `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices as u64).map(VertexId::new)
    }

    /// Out-neighbours of `v` (targets of edges leaving `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (`v.index() >= num_vertices()`).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// In-neighbours of `v` (sources of edges entering `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (`v.index() >= num_vertices()`).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.out_offsets[i + 1] - self.out_offsets[i]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.in_offsets[i + 1] - self.in_offsets[i]
    }

    /// Total degree of `v` (in + out), the quantity used by the paper's
    /// edge-sorting preprocessing and by degree-based partitioners.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Vector of total degrees indexed by vertex.
    pub fn degrees(&self) -> Vec<usize> {
        self.vertices().map(|v| self.degree(v)).collect()
    }

    /// Average degree `|E| / |V|`, the definition used by Table I of the
    /// paper (directed edges divided by vertices).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.num_vertices as f64
    }

    /// The maximum total degree over all vertices, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of vertices with no incident edges.
    pub fn num_isolated_vertices(&self) -> usize {
        self.vertices().filter(|&v| self.degree(v) == 0).count()
    }

    /// Returns a new graph with every edge direction flipped.
    pub fn reversed(&self) -> Graph {
        let edges = self.edges.iter().map(|e| e.reversed()).collect();
        Graph::from_parts(self.kind, self.num_vertices, edges)
    }
}

/// Builds CSR offsets/targets. When `reverse` is true the CSR indexes
/// in-edges (grouped by destination) instead of out-edges.
fn build_csr(num_vertices: usize, edges: &[Edge], reverse: bool) -> (Vec<usize>, Vec<VertexId>) {
    let mut counts = vec![0usize; num_vertices + 1];
    for e in edges {
        let key = if reverse { e.dst } else { e.src };
        counts[key.index() + 1] += 1;
    }
    for i in 0..num_vertices {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut adjacency = vec![VertexId::default(); edges.len()];
    for e in edges {
        let (key, value) = if reverse {
            (e.dst, e.src)
        } else {
            (e.src, e.dst)
        };
        adjacency[cursor[key.index()]] = value;
        cursor[key.index()] += 1;
    }
    (offsets, adjacency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_out_and_in_neighbors() {
        let g = diamond();
        assert_eq!(
            g.out_neighbors(VertexId::new(0)),
            &[VertexId::new(1), VertexId::new(2)]
        );
        assert_eq!(
            g.in_neighbors(VertexId::new(3)),
            &[VertexId::new(1), VertexId::new(2)]
        );
        assert_eq!(g.out_neighbors(VertexId::new(3)), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(VertexId::new(0)), &[] as &[VertexId]);
    }

    #[test]
    fn degrees_match_definition() {
        let g = diamond();
        assert_eq!(g.out_degree(VertexId::new(0)), 2);
        assert_eq!(g.in_degree(VertexId::new(0)), 0);
        assert_eq!(g.degree(VertexId::new(0)), 2);
        assert_eq!(g.degree(VertexId::new(3)), 2);
        assert_eq!(g.degrees(), vec![2, 2, 2, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn num_input_edges_halves_for_undirected() {
        let g = GraphBuilder::undirected()
            .add_edge_ids(0, 1)
            .add_edge_ids(1, 2)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_input_edges(), 2);
    }

    #[test]
    fn reversed_flips_every_edge() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.out_degree(VertexId::new(3)), 2);
        assert_eq!(r.in_degree(VertexId::new(0)), 2);
    }

    #[test]
    fn vertices_iterator_covers_all_ids() {
        let g = diamond();
        let ids: Vec<u64> = g.vertices().map(|v| v.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = GraphBuilder::directed()
            .num_vertices(6)
            .add_edge_ids(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_isolated_vertices(), 4);
    }

    #[test]
    fn edge_list_preserves_insertion_order() {
        let g = Graph::from_edges(vec![(3, 1), (0, 2), (2, 1)]).unwrap();
        let srcs: Vec<u64> = g.edges().iter().map(|e| e.src.raw()).collect();
        assert_eq!(srcs, vec![3, 0, 2]);
    }
}
