//! The read block issued after every commit: point lookups, top-k and
//! neighbourhood reads on a `QueryHandle`, from the driver thread (a racing
//! reader thread on two shared vCPUs was the main noise source of the
//! rejected PR 11 benchmark). Every answer is compared with the values the
//! loop itself holds once the clock has stopped.

use std::time::Instant;

use ebv_bsp::DistributedGraph;
use ebv_graph::VertexId;
use ebv_serve::{QueryHandle, QueryValue};

use crate::trace::Tracer;

pub const LOOKUPS: usize = 16_384;
pub const TOPKS: usize = 8;
pub const TOPK_K: usize = 10;
pub const NEIGHBORS: usize = 1_024;
/// Reads per block.
pub const READS: usize = LOOKUPS + TOPKS + NEIGHBORS;

/// The values one published series must serve, as the loop holds them.
pub enum Expected<'a> {
    U64 {
        name: &'static str,
        values: &'a [u64],
        /// Values equal to this are served as `Null` and skipped by top-k.
        absent: Option<u64>,
    },
    F64 {
        name: &'static str,
        values: &'a [f64],
    },
}

impl Expected<'_> {
    fn name(&self) -> &'static str {
        match self {
            Expected::U64 { name, .. } | Expected::F64 { name, .. } => name,
        }
    }

    fn len(&self) -> usize {
        match self {
            Expected::U64 { values, .. } => values.len(),
            Expected::F64 { values, .. } => values.len(),
        }
    }

    fn value(&self, vertex: usize) -> QueryValue {
        match self {
            Expected::U64 { values, absent, .. } if Some(values[vertex]) == *absent => {
                QueryValue::Null
            }
            Expected::U64 { values, .. } => QueryValue::U64(values[vertex]),
            Expected::F64 { values, .. } => QueryValue::F64(values[vertex]),
        }
    }

    /// The `k` best `(vertex, value)` pairs by one linear scan: largest
    /// first when `descending`, ties to the lower vertex id, absent
    /// vertices skipped — the served contract, computed independently.
    fn topk(&self, k: usize, descending: bool) -> TopK {
        let key = |vertex: usize| match self.value(vertex) {
            QueryValue::U64(v) => Some(v as f64),
            QueryValue::F64(v) => Some(v),
            QueryValue::Null => None,
        };
        let better = |a: (f64, usize), b: (f64, usize)| {
            let by_value = if descending {
                b.0.total_cmp(&a.0)
            } else {
                a.0.total_cmp(&b.0)
            };
            by_value.then(a.1.cmp(&b.1)).is_lt()
        };
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for vertex in 0..self.len() {
            let Some(value) = key(vertex) else { continue };
            let candidate = (value, vertex);
            if best.len() == k && !better(candidate, best[k - 1]) {
                continue;
            }
            let at = best.partition_point(|&held| better(held, candidate));
            best.insert(at, candidate);
            best.truncate(k);
        }
        best.into_iter()
            .map(|(_, vertex)| (vertex as u64, self.value(vertex)))
            .collect()
    }
}

/// Sorted, deduplicated out-neighbours of `vertex`, read off the
/// per-worker subgraphs.
fn expected_neighbors(graph: &DistributedGraph, vertex: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for subgraph in graph.subgraphs() {
        if let Some(local) = subgraph.local_index_of(VertexId::new(vertex)) {
            out.extend(
                subgraph
                    .out_neighbors(local)
                    .iter()
                    .map(|&target| subgraph.vertex_at(target as usize).raw()),
            );
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Wall time of one block by kind, and how many answers were wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadTiming {
    pub lookup_ns: f64,
    pub topk_ns: f64,
    pub neighbors_ns: f64,
    pub failed: u64,
}

impl ReadTiming {
    pub fn total_ns(&self) -> f64 {
        self.lookup_ns + self.topk_ns + self.neighbors_ns
    }
}

type TopK = Vec<(u64, QueryValue)>;

/// Answer buffers sized once per pass, so the timed block itself only
/// allocates what the product allocates. An errored read keeps `None`.
pub struct ReadScratch {
    /// `(series, vertex, answer)`.
    lookups: Vec<(usize, u64, Option<QueryValue>)>,
    /// `(series, descending, answer)`.
    topks: Vec<(usize, bool, Option<TopK>)>,
    /// `(vertex, answer)`.
    neighbors: Vec<(u64, Option<Vec<u64>>)>,
}

impl ReadScratch {
    pub fn new() -> Self {
        ReadScratch {
            lookups: Vec::with_capacity(LOOKUPS),
            topks: Vec::with_capacity(TOPKS),
            neighbors: Vec::with_capacity(NEIGHBORS),
        }
    }
}

/// Knuth's 64-bit LCG; the high bits pick the vertex.
fn next_vertex(state: &mut u64, num_vertices: usize) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 33) % num_vertices as u64
}

/// Issues one read block against `handle` and verifies it against
/// `expected` and `graph`. `lcg` seeds the vertex choice, so the same step
/// of every pass reads the same vertices.
pub fn read_block(
    handle: &QueryHandle,
    expected: &[Expected<'_>],
    graph: &DistributedGraph,
    mut lcg: u64,
    scratch: &mut ReadScratch,
    tracer: &Tracer,
) -> ReadTiming {
    let num_vertices = graph.num_vertices();
    scratch.lookups.clear();
    scratch.topks.clear();
    scratch.neighbors.clear();
    let block = tracer.span("read");

    let started = Instant::now();
    {
        let _span = tracer.span("serve.lookup");
        for i in 0..LOOKUPS {
            let series = i % expected.len();
            let vertex = next_vertex(&mut lcg, num_vertices);
            let answer = handle.lookup(expected[series].name(), vertex).ok();
            scratch.lookups.push((series, vertex, answer));
        }
    }
    let lookup_ns = started.elapsed().as_nanos() as f64;

    let started = Instant::now();
    {
        let _span = tracer.span("serve.topk");
        for i in 0..TOPKS {
            let series = i % expected.len();
            let descending = (i / expected.len()).is_multiple_of(2);
            let answer = handle
                .topk(expected[series].name(), TOPK_K, descending)
                .ok();
            scratch.topks.push((series, descending, answer));
        }
    }
    let topk_ns = started.elapsed().as_nanos() as f64;

    let started = Instant::now();
    {
        let _span = tracer.span("serve.neighbors");
        for _ in 0..NEIGHBORS {
            let vertex = next_vertex(&mut lcg, num_vertices);
            scratch
                .neighbors
                .push((vertex, handle.neighbors(vertex).ok()));
        }
    }
    let neighbors_ns = started.elapsed().as_nanos() as f64;
    drop(block);

    let wrong_lookups = scratch
        .lookups
        .iter()
        .filter(|(series, vertex, answer)| {
            *answer != Some(expected[*series].value(*vertex as usize))
        })
        .count();
    let wrong_topks = scratch
        .topks
        .iter()
        .filter(|(series, descending, answer)| {
            *answer != Some(expected[*series].topk(TOPK_K, *descending))
        })
        .count();
    let wrong_neighbors = scratch
        .neighbors
        .iter()
        .filter(|(vertex, answer)| *answer != Some(expected_neighbors(graph, *vertex)))
        .count();
    ReadTiming {
        lookup_ns,
        topk_ns,
        neighbors_ns,
        failed: (wrong_lookups + wrong_topks + wrong_neighbors) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_topk_orders_ties_and_skips_absent() {
        let values = [5u64, 9, 9, u64::MAX, 1, 7];
        let series = Expected::U64 {
            name: "s",
            values: &values,
            absent: Some(u64::MAX),
        };
        let ids = |pairs: Vec<(u64, QueryValue)>| -> Vec<u64> {
            pairs.into_iter().map(|(vertex, _)| vertex).collect()
        };
        assert_eq!(ids(series.topk(3, true)), vec![1, 2, 5]);
        assert_eq!(ids(series.topk(2, false)), vec![4, 0]);
        assert_eq!(ids(series.topk(10, true)), vec![1, 2, 5, 0, 4]);
        assert_eq!(series.value(3), QueryValue::Null);
        assert_eq!(series.value(0), QueryValue::U64(5));
    }

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let (mut a, mut b) = (42u64, 42u64);
        for _ in 0..1000 {
            let v = next_vertex(&mut a, 97);
            assert_eq!(v, next_vertex(&mut b, 97));
            assert!(v < 97);
        }
    }
}
