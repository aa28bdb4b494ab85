//! HDRF — High-Degree Replicated First streaming vertex-cut
//! (Petroni et al., CIKM 2015). Discussed in the paper's related-work
//! section; included here as an extra streaming baseline for the ablations.

use ebv_graph::Graph;

use crate::assignment::{EdgePartition, PartitionResult};
use crate::error::Result;
use crate::membership::MembershipMatrix;
use crate::ordering::EdgeOrder;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// The HDRF streaming vertex-cut partitioner.
///
/// For each edge `(u, v)` HDRF scores every partition with a replication
/// term that prefers partitions already holding `u` or `v` — weighted so
/// that the *lower-degree* endpoint counts more, pushing replication onto
/// hubs — plus a balance term `λ · (maxsize − |E_i|) / (ε + maxsize −
/// minsize)` at the original paper's `λ = 1`, so the term is written
/// without its factor. The edge goes to the highest-scoring partition.
#[derive(Debug, Clone, PartialEq)]
pub struct HdrfPartitioner {
    order: EdgeOrder,
}

impl Default for HdrfPartitioner {
    fn default() -> Self {
        Self::new()
    }
}

impl HdrfPartitioner {
    /// Creates an HDRF partitioner (balance weight `λ = 1`, input order).
    pub fn new() -> Self {
        HdrfPartitioner {
            order: EdgeOrder::Input,
        }
    }

    /// Sets the streaming order (default: input order, as HDRF is a one-pass
    /// streaming algorithm).
    pub fn with_order(mut self, order: EdgeOrder) -> Self {
        self.order = order;
        self
    }

    /// Creates the dynamic (evolving-graph) form of this partitioner, whose
    /// partial degrees and cover state are decremented exactly under edge
    /// deletions; see [`crate::dynamic`]. HDRF is one-pass by
    /// construction, so under the default input order an insert-only
    /// sequence is bit-identical to [`Partitioner::partition`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::PartitionError::InvalidPartitionCount`] for a zero
    /// partition count.
    pub fn dynamic(&self, config: crate::StreamConfig) -> Result<crate::DynamicPartitioner> {
        crate::DynamicPartitioner::hdrf(config)
    }
}

impl Partitioner for HdrfPartitioner {
    fn name(&self) -> String {
        "HDRF".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        const EPSILON: f64 = 1.0;

        let mut keep = MembershipMatrix::new(graph.num_vertices(), num_partitions);
        let mut ecount = vec![0usize; num_partitions];
        // Partial degrees observed so far in the stream, as in the original
        // single-pass algorithm.
        let mut partial_degree = vec![0usize; graph.num_vertices()];
        let mut assignment = vec![PartitionId::default(); graph.num_edges()];

        for edge_index in self.order.arrange_indices(graph) {
            let edge = graph.edges()[edge_index];
            let (u, v) = edge.endpoints();
            partial_degree[u.index()] += 1;
            partial_degree[v.index()] += 1;
            let du = partial_degree[u.index()] as f64;
            let dv = partial_degree[v.index()] as f64;
            let theta_u = du / (du + dv);
            let theta_v = 1.0 - theta_u;

            let max_size = *ecount.iter().max().expect("non-empty") as f64;
            let min_size = *ecount.iter().min().expect("non-empty") as f64;

            let mut best_part = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (i, &edges_here) in ecount.iter().enumerate() {
                let part = PartitionId::from_index(i);
                let mut replication = 0.0;
                if keep.contains(u, part) {
                    replication += 1.0 + (1.0 - theta_u);
                }
                if keep.contains(v, part) {
                    replication += 1.0 + (1.0 - theta_v);
                }
                let balance = (max_size - edges_here as f64) / (EPSILON + max_size - min_size);
                let score = replication + balance;
                if score > best_score {
                    best_score = score;
                    best_part = i;
                }
            }

            let part = PartitionId::from_index(best_part);
            assignment[edge_index] = part;
            ecount[best_part] += 1;
            keep.insert(u, part);
            if v != u {
                keep.insert(v, part);
            }
        }

        Ok(EdgePartition::new(num_partitions, assignment)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};

    #[test]
    fn produces_balanced_edges() {
        let g = RmatGenerator::new(10, 8).with_seed(2).generate().unwrap();
        let result = HdrfPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.2,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(m.replication_factor >= 1.0);
    }

    #[test]
    fn beats_random_hashing_on_replication() {
        use crate::baselines::RandomVertexCutPartitioner;
        let g = RmatGenerator::new(10, 8).with_seed(6).generate().unwrap();
        let hdrf = PartitionMetrics::compute(&g, &HdrfPartitioner::new().partition(&g, 8).unwrap())
            .unwrap();
        let random = PartitionMetrics::compute(
            &g,
            &RandomVertexCutPartitioner::new().partition(&g, 8).unwrap(),
        )
        .unwrap();
        assert!(hdrf.replication_factor < random.replication_factor);
    }

    #[test]
    fn deterministic() {
        let g = RmatGenerator::new(8, 4).with_seed(1).generate().unwrap();
        assert_eq!(
            HdrfPartitioner::new().partition(&g, 4).unwrap(),
            HdrfPartitioner::new().partition(&g, 4).unwrap()
        );
    }
}
