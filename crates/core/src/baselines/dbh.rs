//! Degree-Based Hashing (DBH) — Xie et al., NeurIPS 2014.

use ebv_graph::Graph;

use crate::assignment::{EdgePartition, PartitionResult};
use crate::baselines::mix64;
use crate::error::Result;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// The Degree-Based Hashing vertex-cut partitioner.
///
/// DBH exploits the skew of power-law graphs directly: each edge is assigned
/// by hashing the identifier of its *lower-degree* endpoint. Low-degree
/// vertices therefore stay whole (all their edges land together) while the
/// hubs — which would be replicated everywhere anyway — absorb the cuts.
/// The result is near-perfect edge balance but a high replication factor, as
/// Table III of the paper shows.
///
/// # Examples
///
/// ```
/// use ebv_graph::generators::{GraphGenerator, RmatGenerator};
/// use ebv_partition::{DbhPartitioner, Partitioner};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = RmatGenerator::new(8, 8).with_seed(0).generate()?;
/// let result = DbhPartitioner::new().partition(&graph, 4)?;
/// assert_eq!(result.num_partitions(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbhPartitioner;

impl DbhPartitioner {
    /// Creates a DBH partitioner.
    pub fn new() -> Self {
        DbhPartitioner
    }
}

impl Partitioner for DbhPartitioner {
    fn name(&self) -> String {
        "DBH".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let assignment = graph
            .edges()
            .iter()
            .map(|edge| {
                let du = graph.degree(edge.src);
                let dv = graph.degree(edge.dst);
                // Hash the endpoint with the lower degree; break ties toward
                // the source so the choice stays deterministic.
                let key = if du <= dv { edge.src } else { edge.dst };
                let part = mix64(key.raw()) % num_partitions as u64;
                PartitionId::new(part as u32)
            })
            .collect();
        Ok(EdgePartition::new(num_partitions, assignment)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};
    use ebv_graph::VertexId;

    #[test]
    fn low_degree_vertices_keep_all_their_edges_together() {
        let g = named::star_graph(32).unwrap();
        let result = DbhPartitioner::new().partition(&g, 4).unwrap();
        let vc = result.as_vertex_cut().unwrap();
        // Every leaf has degree 2 < hub degree, so both directed edges of a
        // leaf hash on the leaf and land in the same partition.
        for leaf in 1..=32u64 {
            let parts: Vec<PartitionId> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.src == VertexId::new(leaf) || e.dst == VertexId::new(leaf))
                .map(|(i, _)| vc.part_of(i))
                .collect();
            assert!(parts.windows(2).all(|w| w[0] == w[1]), "leaf {leaf}");
        }
    }

    #[test]
    fn edges_are_roughly_balanced_on_power_law_graphs() {
        let g = RmatGenerator::new(10, 8).with_seed(7).generate().unwrap();
        let result = DbhPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.3,
            "edge imbalance {}",
            m.edge_imbalance
        );
    }

    #[test]
    fn deterministic_per_salt() {
        // Each edge lands where its lower-degree endpoint's hash points.
        let g = RmatGenerator::new(8, 4).with_seed(1).generate().unwrap();
        let a = DbhPartitioner::new().partition(&g, 4).unwrap();
        assert_eq!(a, DbhPartitioner::new().partition(&g, 4).unwrap());
        let vc = a.as_vertex_cut().unwrap();
        for (i, edge) in g.edges().iter().enumerate() {
            let key = if g.degree(edge.src) <= g.degree(edge.dst) {
                edge.src
            } else {
                edge.dst
            };
            assert_eq!(vc.part_of(i).index() as u64, mix64(key.raw()) % 4);
        }
    }

    #[test]
    fn rejects_bad_partition_counts() {
        let g = named::figure1_graph();
        assert!(DbhPartitioner::new().partition(&g, 0).is_err());
        assert!(DbhPartitioner::new().partition(&g, 1_000).is_err());
    }
}
