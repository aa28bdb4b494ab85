//! Deterministic churn: interleave deletions of previously inserted edges
//! into a plain edge stream, modelling workloads whose edges both arrive
//! and depart (social unfollow, road closures).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ebv_graph::{Edge, EdgeSource};

use crate::error::{DynamicError, Result};
use crate::event::{EventSource, GraphEvent};

/// Wraps an [`EdgeSource`] into a mutation stream: every edge of the
/// underlying stream is inserted in arrival order, and after each insertion
/// a uniformly chosen *live* edge is deleted with probability
/// `delete_ratio`. Deterministic for a fixed seed.
///
/// The expected live size after `n` arrivals with delete ratio `r` is
/// `(1 - r) · n`; the churn never deletes an edge twice
/// (its live set mirrors the partitioner's LIFO multiset exactly), so a
/// [`ChurnStream`] composes safely with
/// [`DynamicPartitioner::delete`](ebv_partition::DynamicPartitioner::delete).
///
/// # Examples
///
/// ```
/// use ebv_dynamic::{ChurnStream, EventSource};
/// use ebv_graph::RmatEdgeStream;
///
/// # fn main() -> Result<(), ebv_dynamic::DynamicError> {
/// let mut churn = ChurnStream::new(RmatEdgeStream::new(8, 500).with_seed(3), 0.3)?
///     .with_seed(7);
/// let mut deletes = 0;
/// while let Some(event) = churn.next_event() {
///     if !event?.is_insert() {
///         deletes += 1;
///     }
/// }
/// assert!(deletes > 0 && deletes < 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChurnStream<S> {
    source: S,
    delete_ratio: f64,
    live: Vec<Edge>,
    pending_delete: Option<Edge>,
    rng: StdRng,
}

impl<S: EdgeSource> ChurnStream<S> {
    /// Wraps `source` with a per-insertion deletion probability of
    /// `delete_ratio`, seed 0.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::InvalidParameter`] unless
    /// `0 <= delete_ratio < 1` (a ratio of 1 would drain every insertion
    /// immediately and never grow a graph).
    pub fn new(source: S, delete_ratio: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&delete_ratio) {
            return Err(DynamicError::InvalidParameter {
                parameter: "delete_ratio",
                message: format!("the delete ratio must be in [0, 1), got {delete_ratio}"),
            });
        }
        Ok(ChurnStream {
            source,
            delete_ratio,
            live: Vec::new(),
            pending_delete: None,
            rng: StdRng::seed_from_u64(0),
        })
    }

    /// Reseeds the churn decisions (does not reseed the wrapped source).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl<S: EdgeSource> EventSource for ChurnStream<S> {
    fn next_event(&mut self) -> Option<Result<GraphEvent>> {
        if let Some(edge) = self.pending_delete.take() {
            return Some(Ok(GraphEvent::Delete(edge)));
        }
        match self.source.next_edge()? {
            Err(err) => Some(Err(err.into())),
            Ok(edge) => {
                self.live.push(edge);
                if self.rng.gen::<f64>() < self.delete_ratio {
                    let victim = self.rng.gen_range(0..self.live.len());
                    self.pending_delete = Some(self.live.swap_remove(victim));
                }
                Some(Ok(GraphEvent::Insert(edge)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::{pairs, RmatEdgeStream};

    fn drain<S: EventSource>(mut source: S) -> Vec<GraphEvent> {
        let mut out = Vec::new();
        while let Some(event) = source.next_event() {
            out.push(event.unwrap());
        }
        out
    }

    #[test]
    fn churn_is_deterministic_and_never_double_deletes() {
        let stream = || RmatEdgeStream::new(8, 2000).with_seed(5);
        let a = drain(ChurnStream::new(stream(), 0.4).unwrap().with_seed(9));
        let b = drain(ChurnStream::new(stream(), 0.4).unwrap().with_seed(9));
        assert_eq!(a, b);
        // Replay: every delete must hit a live copy.
        let mut live: Vec<Edge> = Vec::new();
        let mut deletes = 0;
        for event in &a {
            match event {
                GraphEvent::Insert(e) => live.push(*e),
                GraphEvent::Delete(e) => {
                    deletes += 1;
                    let at = live.iter().rposition(|x| x == e).expect("live copy");
                    live.remove(at);
                }
            }
        }
        assert!(deletes > 500, "ratio 0.4 over 2000 inserts, got {deletes}");
        assert_eq!(live.len(), 2000 - deletes);
    }

    #[test]
    fn zero_ratio_degenerates_to_inserts() {
        let events = drain(ChurnStream::new(pairs(vec![(0, 1), (1, 2)]), 0.0).unwrap());
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(GraphEvent::is_insert));
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        assert!(ChurnStream::new(pairs(vec![(0, 1)]), 1.0).is_err());
        assert!(ChurnStream::new(pairs(vec![(0, 1)]), -0.1).is_err());
        assert!(ChurnStream::new(pairs(vec![(0, 1)]), f64::NAN).is_err());
    }

    /// The live count, read off the events as inserts minus deletes, never
    /// goes negative at any prefix (a delete always has a live edge, the
    /// pending one included) and ends within the 50 edges inserted.
    #[test]
    fn live_edges_reflect_pending_state() {
        let churn = ChurnStream::new(pairs((0..50).map(|i| (i, i + 1))), 0.5)
            .unwrap()
            .with_seed(1);
        let mut live = 0i64;
        for event in drain(churn) {
            live += if event.is_insert() { 1 } else { -1 };
            assert!(live >= 0, "a delete without a live edge");
        }
        assert!((0..=50).contains(&live), "{live} live edges");
    }
}
