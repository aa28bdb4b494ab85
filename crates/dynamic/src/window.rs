//! The window source: turns a plain edge stream into a mutation stream
//! whose live edge set is bounded by a window.
//!
//! [`SlidingWindow`] keeps the most recent `capacity` edges: once full,
//! each arrival first evicts (deletes) the oldest live edge, then inserts
//! the new one. It preserves the underlying arrival order for insertions
//! and emits deletions oldest-first, so the surviving edge multiset after
//! draining the source is exactly the final window.

use std::collections::VecDeque;

use ebv_graph::{Edge, EdgeSource};

use crate::error::{DynamicError, Result};
use crate::event::{EventSource, GraphEvent};

/// A sliding window of the most recent `capacity` edges: once full, each
/// arrival first evicts (deletes) the oldest live edge, then inserts the
/// new one.
///
/// # Examples
///
/// ```
/// use ebv_dynamic::{EventSource, GraphEvent, SlidingWindow};
/// use ebv_graph::pairs;
///
/// # fn main() -> Result<(), ebv_dynamic::DynamicError> {
/// let mut window = SlidingWindow::new(pairs(vec![(0, 1), (1, 2), (2, 3)]), 2)?;
/// let mut kinds = Vec::new();
/// while let Some(event) = window.next_event() {
///     kinds.push(event?.is_insert());
/// }
/// // Insert, Insert, then Delete-oldest + Insert for the third arrival.
/// assert_eq!(kinds, vec![true, true, false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow<S> {
    source: S,
    capacity: usize,
    live: VecDeque<Edge>,
    pending_insert: Option<Edge>,
}

impl<S: EdgeSource> SlidingWindow<S> {
    /// Wraps `source` in a sliding window of `capacity` edges.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::InvalidParameter`] for a zero capacity.
    pub fn new(source: S, capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(DynamicError::InvalidParameter {
                parameter: "capacity",
                message: "a window must hold at least one edge".to_string(),
            });
        }
        Ok(SlidingWindow {
            source,
            capacity,
            live: VecDeque::with_capacity(capacity.min(1 << 16)),
            pending_insert: None,
        })
    }

    /// Number of edges currently live in the window.
    pub fn live_edges(&self) -> usize {
        self.live.len()
    }
}

impl<S: EdgeSource> EventSource for SlidingWindow<S> {
    fn next_event(&mut self) -> Option<Result<GraphEvent>> {
        if let Some(edge) = self.pending_insert.take() {
            self.live.push_back(edge);
            return Some(Ok(GraphEvent::Insert(edge)));
        }
        match self.source.next_edge()? {
            Err(err) => Some(Err(err.into())),
            Ok(edge) => {
                if self.live.len() == self.capacity {
                    let evicted = self.live.pop_front().expect("full window is non-empty");
                    self.pending_insert = Some(edge);
                    Some(Ok(GraphEvent::Delete(evicted)))
                } else {
                    self.live.push_back(edge);
                    Some(Ok(GraphEvent::Insert(edge)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::pairs;

    fn drain<S: EventSource>(mut source: S) -> Vec<GraphEvent> {
        let mut out = Vec::new();
        while let Some(event) = source.next_event() {
            out.push(event.unwrap());
        }
        out
    }

    fn survivors(events: &[GraphEvent]) -> Vec<Edge> {
        let mut live: Vec<Edge> = Vec::new();
        for event in events {
            match event {
                GraphEvent::Insert(e) => live.push(*e),
                GraphEvent::Delete(e) => {
                    let at = live
                        .iter()
                        .rposition(|x| x == e)
                        .expect("deletes reference live edges");
                    live.remove(at);
                }
            }
        }
        live
    }

    #[test]
    fn sliding_window_keeps_the_last_capacity_edges() {
        let input: Vec<(u64, u64)> = (0..10).map(|i| (i, i + 1)).collect();
        let window = SlidingWindow::new(pairs(input.clone()), 4).unwrap();
        let events = drain(window);
        assert_eq!(events.len(), 16);
        let expected: Vec<Edge> = input[6..]
            .iter()
            .map(|&(s, d)| Edge::from((s, d)))
            .collect();
        assert_eq!(survivors(&events), expected);
        // Evictions are oldest-first and interleave strictly: D I D I ...
        for pair in events[4..].chunks(2) {
            assert!(!pair[0].is_insert() && pair[1].is_insert());
        }
    }

    #[test]
    fn sliding_window_shorter_than_capacity_never_evicts() {
        let window = SlidingWindow::new(pairs(vec![(0, 1), (1, 2)]), 10).unwrap();
        let events = drain(window);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(GraphEvent::is_insert));
    }

    #[test]
    fn live_edges_track_window_occupancy() {
        let mut sliding = SlidingWindow::new(pairs((0..6).map(|i| (i, i + 1))), 3).unwrap();
        let mut peak = 0;
        while let Some(event) = sliding.next_event() {
            event.unwrap();
            peak = peak.max(sliding.live_edges());
        }
        assert_eq!(peak, 3);
        assert_eq!(sliding.live_edges(), 3);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(SlidingWindow::new(pairs(vec![(0, 1)]), 0).is_err());
    }
}
