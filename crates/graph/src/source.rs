//! The [`EdgeSource`] abstraction: anything that can deliver edges one at a
//! time.

use crate::builder::MAX_VERTICES;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::types::Edge;

/// A fallible, pull-based stream of edges.
///
/// Sources deliver edges in a fixed arrival order; the online partitioner
/// (`ebv-partition`'s `DynamicPartitioner::insert`) consumes them in that
/// order. Sources optionally know their cardinalities up front
/// ([`expected_edges`](EdgeSource::expected_edges) /
/// [`expected_vertices`](EdgeSource::expected_vertices)), which
/// `StreamConfig::for_source` turns into the hints EBV needs for exact
/// batch equivalence.
pub trait EdgeSource {
    /// Pulls the next edge: `None` at end of stream, `Some(Err(_))` when
    /// the underlying reader failed or the input is malformed.
    fn next_edge(&mut self) -> Option<Result<Edge>>;

    /// Total number of edges the stream will deliver, when known up front.
    fn expected_edges(&self) -> Option<usize> {
        None
    }

    /// Size of the dense vertex universe the stream references, when known
    /// up front.
    fn expected_vertices(&self) -> Option<usize> {
        None
    }
}

/// An [`EdgeSource`] over any infallible iterator of `(src, dst)` pairs.
/// A pair naming an id past the 32-bit [`VertexId`](crate::VertexId) range
/// yields [`GraphError::VertexOutOfRange`].
///
/// # Examples
///
/// ```
/// use ebv_graph::{pairs, EdgeSource};
///
/// let mut source = pairs(vec![(0, 1), (1, 2)]);
/// assert_eq!(source.next_edge().unwrap().unwrap().src.raw(), 0);
/// ```
pub fn pairs<I>(pairs: I) -> PairSource<I::IntoIter>
where
    I: IntoIterator<Item = (u64, u64)>,
{
    PairSource {
        inner: pairs.into_iter(),
    }
}

/// See [`pairs`].
#[derive(Debug, Clone)]
pub struct PairSource<I> {
    inner: I,
}

impl<I: Iterator<Item = (u64, u64)>> EdgeSource for PairSource<I> {
    fn next_edge(&mut self) -> Option<Result<Edge>> {
        self.inner.next().map(|(src, dst)| {
            Edge::try_from_raw(src, dst).ok_or(GraphError::VertexOutOfRange {
                vertex: src.max(dst),
                num_vertices: MAX_VERTICES,
            })
        })
    }

    fn expected_edges(&self) -> Option<usize> {
        match self.inner.size_hint() {
            (lo, Some(hi)) if lo == hi => Some(hi),
            _ => None,
        }
    }
}

/// An [`EdgeSource`] replaying the edge list of a materialized [`Graph`] in
/// insertion order. Useful for tests and for comparing streaming against
/// batch results; production pipelines should stream from a reader or
/// generator instead.
#[derive(Debug, Clone)]
pub struct GraphEdgeSource<'a> {
    graph: &'a Graph,
    next: usize,
}

impl<'a> GraphEdgeSource<'a> {
    /// Creates a source replaying `graph.edges()`.
    pub fn new(graph: &'a Graph) -> Self {
        GraphEdgeSource { graph, next: 0 }
    }
}

impl EdgeSource for GraphEdgeSource<'_> {
    fn next_edge(&mut self) -> Option<Result<Edge>> {
        let edge = self.graph.edges().get(self.next).copied()?;
        self.next += 1;
        Some(Ok(edge))
    }

    fn expected_edges(&self) -> Option<usize> {
        Some(self.graph.num_edges())
    }

    fn expected_vertices(&self) -> Option<usize> {
        Some(self.graph.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_source_delivers_in_order_with_exact_hint() {
        let mut source = pairs(vec![(0, 1), (2, 3), (1, 0)]);
        assert_eq!(source.expected_edges(), Some(3));
        let mut seen = Vec::new();
        while let Some(edge) = source.next_edge() {
            seen.push(edge.unwrap());
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[1], Edge::from((2u64, 3u64)));
    }

    #[test]
    fn pair_source_reports_ids_past_the_32_bit_range() {
        // An id past the range is an error, not a panic, and the source
        // keeps delivering the pairs after it.
        let mut source = pairs([(0, 1), (1 << 32, 0), (2, u64::MAX), (2, 3)]);
        assert_eq!(
            source.next_edge().unwrap().unwrap(),
            Edge::from((0u64, 1u64))
        );
        for past in [1 << 32, u64::MAX] {
            match source.next_edge().unwrap().unwrap_err() {
                GraphError::VertexOutOfRange { vertex, .. } => assert_eq!(vertex, past),
                other => panic!("expected VertexOutOfRange, got {other:?}"),
            }
        }
        assert_eq!(
            source.next_edge().unwrap().unwrap(),
            Edge::from((2u64, 3u64))
        );
        assert!(source.next_edge().is_none());
    }

    #[test]
    fn graph_source_replays_the_edge_list() {
        let graph = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        let mut source = GraphEdgeSource::new(&graph);
        assert_eq!(source.expected_edges(), Some(2));
        assert_eq!(source.expected_vertices(), Some(3));
        let mut count = 0;
        while source.next_edge().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
