//! Ginger — the hybrid-cut of PowerLyra improved with a Fennel-style greedy
//! objective (Chen et al., TOPC 2019).

use ebv_graph::Graph;
#[cfg(test)]
use ebv_graph::VertexId;

use crate::assignment::{EdgePartition, PartitionResult};
use crate::baselines::mix64;
use crate::error::Result;
use crate::membership::MembershipMatrix;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// Weight of Ginger's balance penalty (the paper's Fennel-like γ).
const GAMMA: f64 = 1.5;

/// The Ginger vertex-cut partitioner.
///
/// Ginger differentiates vertices by in-degree, like PowerLyra's hybrid-cut:
///
/// * **low-degree target vertices** are placed greedily — the vertex (and all
///   of its in-edges) goes to the partition maximizing the Fennel-style score
///   `|N_in(v) ∩ V_i| − γ/2 · (vcount_i/(|V|/p) + ecount_i/(|E|/p))`, so that
///   neighbourhoods stay together while the balance penalty spreads load;
/// * **high-degree target vertices** — in-degree above `4 × average
///   in-degree`, PowerLyra's recommended ballpark — have their in-edges
///   scattered by hashing the *source* endpoint, accepting replication of
///   the hub itself.
///
/// This reproduces the behaviour the paper reports: good balance, lower
/// replication than plain hashing, but a higher replication factor than EBV
/// on power-law graphs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GingerPartitioner;

impl GingerPartitioner {
    /// Creates a Ginger partitioner with the high-degree threshold
    /// 4 × average in-degree and the balance weight γ = 1.5.
    pub fn new() -> Self {
        GingerPartitioner
    }

    /// In-degree above which a vertex is treated as high-degree.
    fn threshold(&self, graph: &Graph) -> usize {
        let avg_in = graph.num_edges() as f64 / graph.num_vertices().max(1) as f64;
        (4.0 * avg_in).ceil() as usize
    }
}

impl Partitioner for GingerPartitioner {
    fn name(&self) -> String {
        "Ginger".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let threshold = self.threshold(graph);
        let edges_per_part = graph.num_edges() as f64 / num_partitions as f64;
        let vertices_per_part = graph.num_vertices() as f64 / num_partitions as f64;

        let mut keep = MembershipMatrix::new(graph.num_vertices(), num_partitions);
        let mut ecount = vec![0usize; num_partitions];
        let mut vcount = vec![0usize; num_partitions];
        let mut assignment = vec![PartitionId::default(); graph.num_edges()];

        // Index edges by target vertex so a low-degree vertex's in-edges can
        // be assigned as a group.
        let mut edges_by_target: Vec<Vec<usize>> = vec![Vec::new(); graph.num_vertices()];
        for (i, e) in graph.edges().iter().enumerate() {
            edges_by_target[e.dst.index()].push(i);
        }

        let assign = |edge_index: usize,
                      part: PartitionId,
                      keep: &mut MembershipMatrix,
                      ecount: &mut Vec<usize>,
                      vcount: &mut Vec<usize>,
                      assignment: &mut Vec<PartitionId>| {
            let edge = graph.edges()[edge_index];
            assignment[edge_index] = part;
            ecount[part.index()] += 1;
            if keep.insert(edge.src, part) {
                vcount[part.index()] += 1;
            }
            if edge.dst != edge.src && keep.insert(edge.dst, part) {
                vcount[part.index()] += 1;
            }
        };

        for v in graph.vertices() {
            let in_edges = &edges_by_target[v.index()];
            if in_edges.is_empty() {
                continue;
            }
            if graph.in_degree(v) <= threshold {
                // Low-degree: place the whole in-neighbourhood greedily.
                // A hard capacity cap (10% slack over |E|/p, as in Fennel's
                // ν constraint) keeps the greedy locality term from piling
                // everything onto the first partitions.
                let capacity = (1.1 * edges_per_part).ceil() as usize;
                let group = in_edges.len();
                let mut best_part = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for i in 0..num_partitions {
                    let part = PartitionId::from_index(i);
                    let over_capacity = ecount[i] + group > capacity;
                    let locality = graph
                        .in_neighbors(v)
                        .iter()
                        .filter(|&&u| keep.contains(u, part))
                        .count() as f64
                        + if keep.contains(v, part) { 1.0 } else { 0.0 };
                    let balance = GAMMA / 2.0
                        * (vcount[i] as f64 / vertices_per_part
                            + ecount[i] as f64 / edges_per_part);
                    let mut score = locality - balance;
                    if over_capacity {
                        score -= 1e9;
                    }
                    if score > best_score {
                        best_score = score;
                        best_part = i;
                    }
                }
                let part = PartitionId::from_index(best_part);
                for &edge_index in in_edges {
                    assign(
                        edge_index,
                        part,
                        &mut keep,
                        &mut ecount,
                        &mut vcount,
                        &mut assignment,
                    );
                }
            } else {
                // High-degree: scatter in-edges by source hash, falling back
                // to the least-loaded partition when the hashed one is
                // already over its capacity.
                let capacity = (1.05 * edges_per_part).ceil() as usize;
                for &edge_index in in_edges {
                    let src = graph.edges()[edge_index].src;
                    let hashed = (mix64(src.raw()) % num_partitions as u64) as usize;
                    let chosen = if ecount[hashed] < capacity {
                        hashed
                    } else {
                        (0..num_partitions)
                            .min_by_key(|&i| ecount[i])
                            .expect("at least one partition")
                    };
                    let part = PartitionId::from_index(chosen);
                    assign(
                        edge_index,
                        part,
                        &mut keep,
                        &mut ecount,
                        &mut vcount,
                        &mut assignment,
                    );
                }
            }
        }

        Ok(EdgePartition::new(num_partitions, assignment)?.into())
    }
}

/// Helper used in tests: the number of distinct partitions holding the
/// in-edges of `v`.
#[cfg(test)]
fn distinct_parts_of_in_edges(graph: &Graph, result: &EdgePartition, v: VertexId) -> usize {
    use std::collections::HashSet;
    graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.dst == v)
        .map(|(i, _)| result.part_of(i))
        .collect::<HashSet<_>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};

    #[test]
    fn low_degree_in_edges_stay_together() {
        let g = RmatGenerator::new(9, 8).with_seed(3).generate().unwrap();
        let result = GingerPartitioner::new().partition(&g, 8).unwrap();
        let vc = result.as_vertex_cut().unwrap();
        let threshold = GingerPartitioner::new().threshold(&g);
        for v in g.vertices() {
            if g.in_degree(v) > 0 && g.in_degree(v) <= threshold {
                assert_eq!(
                    distinct_parts_of_in_edges(&g, vc, v),
                    1,
                    "vertex {v} (in-degree {})",
                    g.in_degree(v)
                );
            }
        }
    }

    #[test]
    fn balance_is_reasonable_on_power_law_graphs() {
        let g = RmatGenerator::new(10, 8).with_seed(5).generate().unwrap();
        let result = GingerPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.15,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(m.replication_factor >= 1.0);
    }

    #[test]
    fn deterministic() {
        let g = RmatGenerator::new(8, 4).with_seed(1).generate().unwrap();
        assert_eq!(
            GingerPartitioner::new().partition(&g, 4).unwrap(),
            GingerPartitioner::new().partition(&g, 4).unwrap()
        );
    }
}
