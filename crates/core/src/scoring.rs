//! The online scoring formulas and maintained-metrics arithmetic of the
//! online partitioner ([`crate::dynamic`]).
//!
//! It keeps a per-partition vertex cover and edge load and scores each
//! arriving edge against them. Each formula is written once over
//! [`CoverLookup`], which the partitioner's dense refcounts and its test
//! oracle's maps both implement. The batch loops (`ebv.rs`,
//! `baselines/hdrf.rs`) and [`PartitionMetrics::compute`] deliberately stay
//! separate: they are the references the online suites compare against.
//! The batch EBV loop evaluates the same function in a different shape — it
//! knows `|E|` and `|V|` up front, so the two balance terms are cached per
//! partition and only the chosen partition's pair is refreshed — and is
//! itself pinned bit for bit to the term-recomputing form written here by
//! the reference loop in `ebv.rs`'s tests.

use ebv_graph::VertexId;

use crate::metrics::PartitionMetrics;
use crate::types::PartitionId;

/// The per-partition state an online scoring formula reads.
pub(crate) trait CoverLookup {
    /// Whether partition `i` already holds a replica of `v`.
    fn covers(&self, v: VertexId, i: usize) -> bool;
    /// `|V_i|`: the number of vertices partition `i` covers.
    fn vcount(&self, i: usize) -> usize;
    /// `|E_i|` for every partition.
    fn ecount(&self) -> &[usize];
}

/// EBV's evaluation function (Algorithm 1): the partition minimizing new
/// replicas plus the α/β-weighted edge and vertex loads, each load
/// normalized by the caller's per-partition share. Ties go to the lowest
/// partition index.
#[inline]
pub(crate) fn ebv_best_part(
    state: &impl CoverLookup,
    alpha: f64,
    beta: f64,
    edges_per_part: f64,
    vertices_per_part: f64,
    u: VertexId,
    v: VertexId,
) -> PartitionId {
    let mut best_part = 0usize;
    let mut best_score = f64::INFINITY;
    for (i, &edges) in state.ecount().iter().enumerate() {
        let mut score = 0.0;
        if !state.covers(u, i) {
            score += 1.0;
        }
        if !state.covers(v, i) {
            score += 1.0;
        }
        score += alpha * edges as f64 / edges_per_part;
        score += beta * state.vcount(i) as f64 / vertices_per_part;
        if score < best_score {
            best_score = score;
            best_part = i;
        }
    }
    PartitionId::from_index(best_part)
}

/// HDRF's score: the partition maximizing degree-weighted replica reuse
/// plus the load balance term at `λ = 1`. `du`/`dv` are the endpoints'
/// partial degrees *including* the edge being placed. Ties go to the lowest
/// partition index.
#[inline]
pub(crate) fn hdrf_best_part(
    state: &impl CoverLookup,
    du: f64,
    dv: f64,
    u: VertexId,
    v: VertexId,
) -> PartitionId {
    const EPSILON: f64 = 1.0;
    let theta_u = du / (du + dv);
    let theta_v = 1.0 - theta_u;
    let max_size = *state.ecount().iter().max().expect("non-empty") as f64;
    let min_size = *state.ecount().iter().min().expect("non-empty") as f64;

    let mut best_part = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, &edges) in state.ecount().iter().enumerate() {
        let mut replication = 0.0;
        if state.covers(u, i) {
            replication += 1.0 + (1.0 - theta_u);
        }
        if state.covers(v, i) {
            replication += 1.0 + (1.0 - theta_v);
        }
        let balance = (max_size - edges as f64) / (EPSILON + max_size - min_size);
        let score = replication + balance;
        if score > best_score {
            best_score = score;
            best_part = i;
        }
    }
    PartitionId::from_index(best_part)
}

/// The Table III metrics from maintained counters: per-partition edge
/// loads, per-partition cover sizes, the live edge total and the vertex
/// universe. Degenerate denominators report the neutral value `1.0`.
pub(crate) fn maintained_metrics(
    ecount: &[usize],
    vcounts: &[usize],
    edges: usize,
    universe: usize,
) -> PartitionMetrics {
    let p = ecount.len();
    let max_edges = ecount.iter().copied().max().unwrap_or(0) as f64;
    let max_vertices = vcounts.iter().copied().max().unwrap_or(0) as f64;
    let total_covered: usize = vcounts.iter().sum();
    let edge_imbalance = if edges == 0 {
        1.0
    } else {
        max_edges / (edges as f64 / p as f64)
    };
    let vertex_imbalance = if total_covered == 0 {
        1.0
    } else {
        max_vertices / (total_covered as f64 / p as f64)
    };
    let replication_factor = if universe == 0 {
        1.0
    } else {
        total_covered as f64 / universe as f64
    };
    PartitionMetrics {
        edge_imbalance,
        vertex_imbalance,
        replication_factor,
        num_partitions: p,
    }
}
