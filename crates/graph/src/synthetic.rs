//! A synthetic edge stream: a deterministic generator that delivers edges
//! one at a time with O(1) state, so arbitrarily large workloads can be
//! partitioned without ever materializing an edge list.
//!
//! It complements the batch generators of [`crate::generators`] (which
//! build a whole [`Graph`](crate::Graph)): the streaming R-MAT here draws
//! each edge independently from the recursive-matrix distribution, giving
//! the same power-law skew the paper's evaluation graphs have.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Result;
use crate::source::EdgeSource;
use crate::types::Edge;

/// The classic Graph500 quadrant probabilities `a`, `b` and `c` of
/// [`RmatEdgeStream`]; `d = 1 - a - b - c = 0.05`.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// A streaming R-MAT generator: `num_edges` directed edges over the dense
/// vertex universe `0..2^scale`, each drawn independently by recursive
/// quadrant descent with the Graph500 probabilities `(0.57, 0.19, 0.19,
/// 0.05)`. Self loops are
/// rejected and redrawn, matching the loop-free evaluation graphs.
///
/// Deterministic for a fixed seed, and O(1) memory: the stream can be
/// replayed by constructing it again with the same parameters.
///
/// # Examples
///
/// ```
/// use ebv_graph::{EdgeSource, RmatEdgeStream};
///
/// let mut stream = RmatEdgeStream::new(10, 5_000).with_seed(42);
/// assert_eq!(stream.expected_edges(), Some(5_000));
/// assert_eq!(stream.expected_vertices(), Some(1024));
/// let first = stream.next_edge().unwrap().unwrap();
/// assert!(first.src.raw() < 1024);
/// ```
#[derive(Debug, Clone)]
pub struct RmatEdgeStream {
    scale: u32,
    num_edges: usize,
    remaining: usize,
    rng: StdRng,
    seed: u64,
}

impl RmatEdgeStream {
    /// Creates a stream of `num_edges` edges over `2^scale` vertices with
    /// the classic Graph500 probabilities `(0.57, 0.19, 0.19, 0.05)` and
    /// seed 0.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= scale <= 30` (the same range the batch
    /// [`RmatGenerator`](crate::generators::RmatGenerator) accepts;
    /// scale 0 has no loop-free edge to draw).
    pub fn new(scale: u32, num_edges: usize) -> Self {
        assert!(
            (1..=30).contains(&scale),
            "R-MAT scale must be between 1 and 30, got {scale}"
        );
        RmatEdgeStream {
            scale,
            num_edges,
            remaining: num_edges,
            rng: StdRng::seed_from_u64(0),
            seed: 0,
        }
    }

    /// Reseeds the stream (and restarts it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self.remaining = self.num_edges;
        self
    }

    fn draw(&mut self) -> Edge {
        loop {
            let mut src: u64 = 0;
            let mut dst: u64 = 0;
            for _ in 0..self.scale {
                src <<= 1;
                dst <<= 1;
                let r: f64 = self.rng.gen();
                if r < A {
                    // top-left: both bits 0
                } else if r < A + B {
                    dst |= 1;
                } else if r < A + B + C {
                    src |= 1;
                } else {
                    src |= 1;
                    dst |= 1;
                }
            }
            if src != dst {
                return Edge::from((src, dst));
            }
        }
    }
}

impl EdgeSource for RmatEdgeStream {
    fn next_edge(&mut self) -> Option<Result<Edge>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(Ok(self.draw()))
    }

    fn expected_edges(&self) -> Option<usize> {
        Some(self.num_edges)
    }

    fn expected_vertices(&self) -> Option<usize> {
        Some(1usize << self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<S: EdgeSource>(mut source: S) -> Vec<Edge> {
        let mut edges = Vec::new();
        while let Some(edge) = source.next_edge() {
            edges.push(edge.unwrap());
        }
        edges
    }

    #[test]
    fn rmat_stream_is_deterministic_and_sized() {
        let a = drain(RmatEdgeStream::new(8, 2000).with_seed(3));
        let b = drain(RmatEdgeStream::new(8, 2000).with_seed(3));
        let c = drain(RmatEdgeStream::new(8, 2000).with_seed(4));
        assert_eq!(a.len(), 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|e| e.src.raw() < 256 && e.dst.raw() < 256));
        assert!(a.iter().all(|e| !e.is_self_loop()));
    }

    /// Word-wise FNV-1a over the edges' `(src, dst)` ids, in stream order.
    fn fingerprint(edges: &[Edge]) -> u64 {
        edges
            .iter()
            .flat_map(|edge| [edge.src.raw(), edge.dst.raw()])
            .fold(0xcbf2_9ce4_8422_2325_u64, |acc, value| {
                (acc ^ value).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn rmat_stream_golden_fingerprint() {
        // ebvbench's batch_rmat input and its churn arrivals are this
        // stream: a change to the draw moves every exact metric it reports.
        let edges = drain(RmatEdgeStream::new(16, 100_000).with_seed(9101));
        assert_eq!(edges.len(), 100_000);
        assert_eq!(fingerprint(&edges), 0xfe21_695f_3047_0dc7);
    }

    #[test]
    fn rmat_stream_is_skewed() {
        let edges = drain(RmatEdgeStream::new(9, 8000).with_seed(1));
        let mut degree = vec![0usize; 512];
        for e in &edges {
            degree[e.src.index()] += 1;
            degree[e.dst.index()] += 1;
        }
        let max = *degree.iter().max().unwrap();
        let mean = degree.iter().sum::<usize>() as f64 / 512.0;
        // Power-law-ish: the hub dominates the mean by a wide margin.
        assert!(max as f64 > 5.0 * mean, "max {max}, mean {mean}");
    }

    #[test]
    #[should_panic(expected = "R-MAT scale must be between 1 and 30")]
    fn rmat_scale_zero_is_rejected() {
        // Scale 0 has no loop-free edge: drawing would spin forever.
        let _ = RmatEdgeStream::new(0, 10);
    }
}
