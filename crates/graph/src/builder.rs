//! Incremental construction of [`Graph`] values.

use std::collections::HashMap;

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::types::{Edge, GraphKind, VertexId};

/// The most vertices a graph can have: one per 32-bit [`VertexId`].
pub(crate) const MAX_VERTICES: usize = VertexId::MAX_RAW as usize + 1;

/// Builder for [`Graph`] values.
///
/// The builder accepts edges with arbitrary (possibly sparse) vertex
/// identifiers, optionally remaps them to a dense `0..n` range, expands
/// undirected edges into two opposite directed edges, and finally produces an
/// immutable [`Graph`] with CSR adjacency.
///
/// # Examples
///
/// ```
/// use ebv_graph::GraphBuilder;
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let graph = GraphBuilder::undirected()
///     .add_edge_ids(0, 1)
///     .add_edge_ids(1, 2)
///     .build()?;
/// assert_eq!(graph.num_vertices(), 3);
/// // Undirected edges are stored as two opposite directed edges.
/// assert_eq!(graph.num_edges(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    kind: GraphKind,
    edges: Vec<(u64, u64)>,
    remap_ids: bool,
    dedup: bool,
    allow_self_loops: bool,
    num_vertices_hint: Option<usize>,
}

impl GraphBuilder {
    /// Creates a builder for a directed graph.
    pub fn directed() -> Self {
        Self::new(GraphKind::Directed)
    }

    /// Creates a builder for an undirected graph: every added edge is stored
    /// as a pair of opposite directed edges, matching the preprocessing used
    /// by the paper.
    pub fn undirected() -> Self {
        Self::new(GraphKind::Undirected)
    }

    /// Creates a builder for the given [`GraphKind`].
    pub fn new(kind: GraphKind) -> Self {
        GraphBuilder {
            kind,
            edges: Vec::new(),
            remap_ids: false,
            dedup: false,
            allow_self_loops: false,
            num_vertices_hint: None,
        }
    }

    /// Remap sparse external identifiers to a dense `0..n` range in first-seen
    /// order. When disabled (the default) the maximum identifier determines
    /// the vertex count.
    pub(crate) fn remap_ids(&mut self, remap: bool) -> &mut Self {
        self.remap_ids = remap;
        self
    }

    /// Remove duplicate directed edges before building.
    pub fn dedup(&mut self, dedup: bool) -> &mut Self {
        self.dedup = dedup;
        self
    }

    /// Keep self loops instead of silently dropping them (the default drops
    /// them, as the evaluation graphs in the paper are loop-free).
    pub fn allow_self_loops(&mut self, allow: bool) -> &mut Self {
        self.allow_self_loops = allow;
        self
    }

    /// Declare the number of vertices up front. Useful when isolated vertices
    /// beyond the largest endpoint must be preserved.
    pub fn num_vertices(&mut self, n: usize) -> &mut Self {
        self.num_vertices_hint = Some(n);
        self
    }

    /// Adds a single edge between raw vertex identifiers.
    pub fn add_edge_ids(&mut self, src: u64, dst: u64) -> &mut Self {
        self.edges.push((src, dst));
        self
    }

    /// Adds a single [`Edge`].
    pub fn add_edge(&mut self, edge: Edge) -> &mut Self {
        self.edges.push((edge.src.raw(), edge.dst.raw()));
        self
    }

    /// Adds every edge from an iterator of `(src, dst)` pairs.
    pub fn extend_edges<I>(&mut self, iter: I) -> &mut Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        self.edges.extend(iter);
        self
    }

    /// Consumes the staged edges and produces an immutable [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] when an endpoint (after the
    /// optional remap) exceeds [`VertexId::MAX_RAW`],
    /// [`GraphError::InvalidParameter`] when a declared vertex count
    /// is smaller than the largest endpoint identifier or larger than the
    /// id range, and
    /// [`GraphError::EmptyGraph`] when no edges were staged and no vertex
    /// count hint was given.
    pub fn build(&self) -> Result<Graph> {
        // One pass from the staged pairs to the edges: remap (every
        // endpoint is numbered, a dropped self-loop's included), drop
        // self-loops, check the range, expand undirected pairs.
        let pairs = if self.allow_self_loops {
            self.edges.len()
        } else {
            self.edges.iter().filter(|&&(s, d)| s != d).count()
        };
        let mut directed: Vec<Edge> = Vec::with_capacity(match self.kind {
            GraphKind::Directed => pairs,
            GraphKind::Undirected => pairs * 2,
        });
        let checked = |raw: u64| {
            VertexId::try_new(raw).ok_or(GraphError::VertexOutOfRange {
                vertex: raw,
                num_vertices: MAX_VERTICES,
            })
        };
        let mut mapping: HashMap<u64, u64> = HashMap::new();
        let mut remap = |raw: u64| {
            if !self.remap_ids {
                return raw;
            }
            let next = mapping.len() as u64;
            *mapping.entry(raw).or_insert(next)
        };
        for &(s, d) in &self.edges {
            let (s, d) = (remap(s), remap(d));
            if s == d && !self.allow_self_loops {
                continue;
            }
            let e = Edge::new(checked(s)?, checked(d)?);
            directed.push(e);
            if self.kind.is_undirected() {
                directed.push(e.reversed());
            }
        }

        if self.dedup {
            directed.sort_unstable();
            directed.dedup();
        }

        let max_endpoint = directed.iter().map(|e| e.src.raw().max(e.dst.raw())).max();

        let implied_vertices = max_endpoint.map(|m| m as usize + 1).unwrap_or(0);
        let num_vertices = match self.num_vertices_hint {
            Some(hint) => {
                if hint > MAX_VERTICES {
                    return Err(GraphError::InvalidParameter {
                        parameter: "num_vertices",
                        message: format!(
                            "declared {hint} vertices, past the {MAX_VERTICES} that 32-bit ids reach"
                        ),
                    });
                }
                if hint < implied_vertices {
                    return Err(GraphError::InvalidParameter {
                        parameter: "num_vertices",
                        message: format!(
                            "declared {hint} vertices but edges reference vertex {}",
                            implied_vertices - 1
                        ),
                    });
                }
                hint
            }
            None => implied_vertices,
        };

        if num_vertices == 0 {
            return Err(GraphError::EmptyGraph);
        }

        Ok(Graph::from_parts(self.kind, num_vertices, directed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_past_the_32_bit_range_are_errors_unless_remapped() {
        let mut builder = GraphBuilder::directed();
        builder.add_edge_ids(0, 1 << 32);
        match builder.build().unwrap_err() {
            GraphError::VertexOutOfRange { vertex, .. } => assert_eq!(vertex, 1 << 32),
            other => panic!("unexpected error {other:?}"),
        }
        let remapped = builder.remap_ids(true).build().unwrap();
        assert_eq!(remapped.num_vertices(), 2);
        let err = GraphBuilder::directed()
            .add_edge_ids(0, 1)
            .num_vertices(MAX_VERTICES + 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn build_is_pinned_across_every_option_combination() {
        // A parallel pair, a reversed pair and two self-loops, the second
        // on a vertex no other edge touches.
        let staged = [(10, 20), (20, 20), (20, 10), (10, 20), (30, 10), (5, 5)];
        let kinds = [GraphKind::Directed, GraphKind::Undirected];
        for (kind, bits) in kinds.into_iter().flat_map(|k| (0..8).map(move |b| (k, b))) {
            let (remap, loops, dedup) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let what = format!("{kind:?} remap={remap} loops={loops} dedup={dedup}");
            let graph = GraphBuilder::new(kind)
                .remap_ids(remap)
                .allow_self_loops(loops)
                .dedup(dedup)
                .extend_edges(staged)
                .build()
                .unwrap();
            // Remapping numbers every endpoint in first-seen order, that of
            // a dropped self-loop included.
            let id = |raw: u64| match (remap, raw) {
                (false, raw) => raw,
                (true, 10) => 0,
                (true, 20) => 1,
                (true, 30) => 2,
                (true, _) => 3,
            };
            let mut want = Vec::new();
            for (s, d) in staged.into_iter().filter(|&(s, d)| loops || s != d) {
                want.push((id(s), id(d)));
                if kind.is_undirected() {
                    want.push((id(d), id(s)));
                }
            }
            if dedup {
                want.sort_unstable();
                want.dedup();
            }
            let got: Vec<(u64, u64)> = graph
                .edges()
                .iter()
                .map(|e| (e.src.raw(), e.dst.raw()))
                .collect();
            assert_eq!(got, want, "{what}");
            let n = match (remap, loops) {
                (false, _) => 31,
                (true, false) => 3,
                (true, true) => 4,
            };
            assert_eq!(graph.num_vertices(), n, "{what}");
            assert_eq!(graph.kind(), kind, "{what}");
        }
        // Spelled out: directed, remapped, self-loops dropped.
        let graph = GraphBuilder::directed()
            .remap_ids(true)
            .extend_edges(staged)
            .build()
            .unwrap();
        let pairs: Vec<_> = graph
            .edges()
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        assert_eq!(pairs, [(0, 1), (1, 0), (0, 1), (2, 0)]);
        // A dropped self-loop still takes the first remapped id, which
        // leaves that vertex isolated.
        let graph = GraphBuilder::directed()
            .remap_ids(true)
            .extend_edges([(7, 7), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(graph.num_vertices(), 3);
        assert_eq!(graph.edges(), [Edge::from((1u64, 2u64))]);
    }

    #[test]
    fn directed_build_counts_vertices_from_max_id() {
        let g = GraphBuilder::directed()
            .add_edge_ids(0, 5)
            .add_edge_ids(5, 2)
            .build()
            .unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.kind(), GraphKind::Directed);
    }

    #[test]
    fn undirected_build_doubles_edges() {
        let g = GraphBuilder::undirected()
            .add_edge_ids(0, 1)
            .add_edge_ids(1, 2)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId::new(1)), 2);
        assert_eq!(g.in_degree(VertexId::new(1)), 2);
    }

    #[test]
    fn self_loops_dropped_by_default_and_kept_on_request() {
        let dropped = GraphBuilder::directed()
            .add_edge_ids(0, 0)
            .add_edge_ids(0, 1)
            .build()
            .unwrap();
        assert_eq!(dropped.num_edges(), 1);

        let kept = GraphBuilder::directed()
            .allow_self_loops(true)
            .add_edge_ids(0, 0)
            .add_edge_ids(0, 1)
            .build()
            .unwrap();
        assert_eq!(kept.num_edges(), 2);
    }

    #[test]
    fn remap_ids_densifies_sparse_identifiers() {
        let g = GraphBuilder::directed()
            .remap_ids(true)
            .add_edge_ids(1_000_000, 2_000_000)
            .add_edge_ids(2_000_000, 3_000_000)
            .build()
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn dedup_removes_duplicate_edges() {
        let g = GraphBuilder::directed()
            .dedup(true)
            .add_edge_ids(0, 1)
            .add_edge_ids(0, 1)
            .add_edge_ids(1, 0)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_errors() {
        let err = GraphBuilder::directed().build().unwrap_err();
        assert!(matches!(err, GraphError::EmptyGraph));
    }

    #[test]
    fn vertex_hint_preserves_isolated_vertices() {
        let g = GraphBuilder::directed()
            .num_vertices(10)
            .add_edge_ids(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn vertex_hint_too_small_is_rejected() {
        let err = GraphBuilder::directed()
            .num_vertices(2)
            .add_edge_ids(0, 5)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
    }

    #[test]
    fn extend_edges_adds_every_pair() {
        let mut b = GraphBuilder::directed();
        b.extend_edges(vec![(0, 1), (1, 2), (2, 3)]);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }
}
