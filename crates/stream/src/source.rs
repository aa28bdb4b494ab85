//! The [`EdgeSource`] abstraction: anything that can deliver edges one at a
//! time.

use ebv_graph::{Edge, Graph};
use ebv_partition::StreamConfig;

use crate::error::Result;

/// A fallible, pull-based stream of edges.
///
/// Sources deliver edges in a fixed arrival order; the online partitioner
/// ([`DynamicPartitioner::insert`](ebv_partition::DynamicPartitioner::insert))
/// consumes them in that order. Sources optionally know their
/// cardinalities up front ([`expected_edges`](EdgeSource::expected_edges) /
/// [`expected_vertices`](EdgeSource::expected_vertices)), which
/// [`stream_config`](EdgeSource::stream_config) turns into the hints EBV
/// needs for exact batch equivalence.
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

    /// Builds a [`StreamConfig`] for `num_partitions` partitions carrying
    /// whatever cardinality hints this source knows.
    fn stream_config(&self, num_partitions: usize) -> StreamConfig {
        let mut config = StreamConfig::new(num_partitions);
        if let Some(v) = self.expected_vertices() {
            config = config.with_expected_vertices(v);
        }
        if let Some(e) = self.expected_edges() {
            config = config.with_expected_edges(e);
        }
        config
    }
}

/// An [`EdgeSource`] over any infallible iterator of `(src, dst)` pairs.
/// The pairs come from the program itself, so an id past the 32-bit
/// [`VertexId`](ebv_graph::VertexId) range panics, as in `Edge::from`.
///
/// # Examples
///
/// ```
/// use ebv_stream::{pairs, EdgeSource};
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
        self.inner.next().map(|pair| Ok(Edge::from(pair)))
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
    fn graph_source_replays_the_edge_list() {
        let graph = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        let mut source = GraphEdgeSource::new(&graph);
        assert_eq!(source.expected_edges(), Some(2));
        assert_eq!(source.expected_vertices(), Some(3));
        let config = source.stream_config(2);
        assert_eq!(config.expected_edges(), Some(2));
        assert_eq!(config.expected_vertices(), Some(3));
        let mut count = 0;
        while source.next_edge().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
