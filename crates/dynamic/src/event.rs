//! Mutation events and the [`EventSource`] abstraction: anything that can
//! deliver a stream of graph mutations one at a time.

use ebv_graph::{Edge, EdgeSource};

use crate::error::Result;

/// One mutation of an evolving graph's edge multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphEvent {
    /// A new edge copy arrives.
    Insert(Edge),
    /// One live copy of the edge departs (the most recently inserted one,
    /// under the LIFO multiset semantics of
    /// [`DynamicPartitioner::delete`](ebv_partition::DynamicPartitioner::delete)).
    Delete(Edge),
}

/// The tag shares the 8-byte [`Edge`]'s 4-byte alignment.
const _: () = assert!(std::mem::size_of::<GraphEvent>() == 12);

impl GraphEvent {
    /// The edge this event concerns.
    pub fn edge(&self) -> Edge {
        match *self {
            GraphEvent::Insert(edge) | GraphEvent::Delete(edge) => edge,
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, GraphEvent::Insert(_))
    }
}

/// A fallible, pull-based stream of graph mutations — the evolving-graph
/// analogue of [`EdgeSource`].
pub trait EventSource {
    /// Pulls the next event: `None` at end of stream, `Some(Err(_))` when
    /// the underlying edge reader failed.
    fn next_event(&mut self) -> Option<Result<GraphEvent>>;
}

/// An [`EventSource`] over any infallible iterator of events.
///
/// # Examples
///
/// ```
/// use ebv_dynamic::{events, EventSource, GraphEvent};
/// use ebv_graph::Edge;
///
/// let e = Edge::from((0u64, 1u64));
/// let mut source = events(vec![GraphEvent::Insert(e), GraphEvent::Delete(e)]);
/// assert!(source.next_event().unwrap().unwrap().is_insert());
/// ```
pub fn events<I>(events: I) -> EventVec<I::IntoIter>
where
    I: IntoIterator<Item = GraphEvent>,
{
    EventVec {
        inner: events.into_iter(),
    }
}

/// See [`events`].
#[derive(Debug, Clone)]
pub struct EventVec<I> {
    inner: I,
}

impl<I: Iterator<Item = GraphEvent>> EventSource for EventVec<I> {
    fn next_event(&mut self) -> Option<Result<GraphEvent>> {
        self.inner.next().map(Ok)
    }
}

/// Adapts any [`EdgeSource`] into an insert-only [`EventSource`] — the
/// bridge from the PR 1 streaming readers and generators to the mutation
/// pipeline.
///
/// # Examples
///
/// ```
/// use ebv_dynamic::{EventSource, InsertEvents};
/// use ebv_graph::RmatEdgeStream;
///
/// let mut source = InsertEvents::new(RmatEdgeStream::new(8, 100).with_seed(1));
/// assert!(source.next_event().unwrap().unwrap().is_insert());
/// ```
#[derive(Debug, Clone)]
pub struct InsertEvents<S> {
    source: S,
}

impl<S: EdgeSource> InsertEvents<S> {
    /// Wraps an edge source; every edge becomes a [`GraphEvent::Insert`].
    pub fn new(source: S) -> Self {
        InsertEvents { source }
    }
}

impl<S: EdgeSource> EventSource for InsertEvents<S> {
    fn next_event(&mut self) -> Option<Result<GraphEvent>> {
        match self.source.next_edge()? {
            Ok(edge) => Some(Ok(GraphEvent::Insert(edge))),
            Err(err) => Some(Err(err.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::pairs;

    #[test]
    fn events_replay_in_order() {
        let a = Edge::from((0u64, 1u64));
        let b = Edge::from((1u64, 2u64));
        let mut source = events(vec![
            GraphEvent::Insert(a),
            GraphEvent::Insert(b),
            GraphEvent::Delete(a),
        ]);
        let mut seen = Vec::new();
        while let Some(event) = source.next_event() {
            seen.push(event.unwrap());
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], GraphEvent::Delete(a));
        assert_eq!(seen[2].edge(), a);
        assert!(!seen[2].is_insert());
    }

    #[test]
    fn insert_events_wrap_every_edge() {
        let mut source = InsertEvents::new(pairs(vec![(0, 1), (2, 3)]));
        let mut count = 0;
        while let Some(event) = source.next_event() {
            assert!(event.unwrap().is_insert());
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
