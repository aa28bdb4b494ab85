//! Pure hash-based partitioners — the floor for structure awareness.

use ebv_graph::Graph;

use crate::assignment::{EdgePartition, PartitionResult, VertexPartition};
use crate::baselines::mix64;
use crate::error::Result;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// Random (hash) vertex-cut: every edge is hashed to a partition with no
/// regard for structure. Perfectly balanced edges, worst-case replication —
/// the natural lower bound every structure-aware vertex-cut must beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomVertexCutPartitioner;

impl RandomVertexCutPartitioner {
    /// Creates a random vertex-cut partitioner.
    pub fn new() -> Self {
        RandomVertexCutPartitioner
    }

    /// Creates the dynamic (evolving-graph) form of this partitioner. The
    /// assignment is a pure hash of the edge *endpoints* only — unlike the
    /// batch form it deliberately ignores the stream position, so after
    /// any insert/delete sequence the assignment equals a from-scratch run
    /// over the surviving edges; see [`crate::dynamic`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::PartitionError::InvalidPartitionCount`] for a zero
    /// partition count.
    pub fn dynamic(&self, config: crate::StreamConfig) -> crate::Result<crate::DynamicPartitioner> {
        crate::DynamicPartitioner::random(config)
    }
}

impl Partitioner for RandomVertexCutPartitioner {
    fn name(&self) -> String {
        "Random-VC".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let assignment = graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, &edge)| {
                let key =
                    mix64(edge.src.raw()) ^ mix64(edge.dst.raw().rotate_left(17)) ^ mix64(i as u64);
                PartitionId::new((mix64(key) % num_partitions as u64) as u32)
            })
            .collect();
        Ok(EdgePartition::new(num_partitions, assignment)?.into())
    }
}

/// Random (hash) edge-cut: every vertex is hashed to a partition, the
/// default placement of vertex-centric systems such as Giraph/Pregel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomEdgeCutPartitioner;

impl RandomEdgeCutPartitioner {
    /// Creates a random edge-cut partitioner.
    pub fn new() -> Self {
        RandomEdgeCutPartitioner
    }
}

impl Partitioner for RandomEdgeCutPartitioner {
    fn name(&self) -> String {
        "Random-EC".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let assignment = graph
            .vertices()
            .map(|v| PartitionId::new((mix64(v.raw()) % num_partitions as u64) as u32))
            .collect();
        Ok(VertexPartition::new(num_partitions, assignment)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_graph::GraphBuilder;

    #[test]
    fn random_vertex_cut_balances_edges_but_replicates_heavily() {
        let g = RmatGenerator::new(10, 8).with_seed(3).generate().unwrap();
        let result = RandomVertexCutPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(m.edge_imbalance < 1.1);
        assert!(m.replication_factor > 1.5);
    }

    #[test]
    fn random_edge_cut_balances_vertices() {
        let g = RmatGenerator::new(10, 8).with_seed(3).generate().unwrap();
        let result = RandomEdgeCutPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.vertex_imbalance < 1.2,
            "vertex imbalance {}",
            m.vertex_imbalance
        );
    }

    #[test]
    fn both_are_deterministic_and_position_sensitive() {
        let g = RmatGenerator::new(8, 4).with_seed(1).generate().unwrap();
        let forward = RandomVertexCutPartitioner::new().partition(&g, 4).unwrap();
        assert_eq!(
            forward,
            RandomVertexCutPartitioner::new().partition(&g, 4).unwrap()
        );
        // The vertex-cut hash mixes in each edge's stream position, so the
        // same edges in reverse order do not get the reversed assignment.
        let mut builder = GraphBuilder::directed();
        builder.num_vertices(g.num_vertices());
        for &edge in g.edges().iter().rev() {
            builder.add_edge(edge);
        }
        let backward = RandomVertexCutPartitioner::new()
            .partition(&builder.build().unwrap(), 4)
            .unwrap();
        let mut undone = backward.as_vertex_cut().unwrap().assignment().to_vec();
        undone.reverse();
        assert_ne!(forward.as_vertex_cut().unwrap().assignment(), undone);
        assert_eq!(
            RandomEdgeCutPartitioner::new().partition(&g, 4).unwrap(),
            RandomEdgeCutPartitioner::new().partition(&g, 4).unwrap()
        );
    }
}
