//! Cartesian (2-D) Vertex-Cut — Boman, Devine & Rajamanickam, SC 2013.

use ebv_graph::Graph;

use crate::assignment::{EdgePartition, PartitionResult};
use crate::baselines::mix64;
use crate::error::Result;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// The Cartesian Vertex-Cut (CVC) partitioner.
///
/// CVC arranges the `p` workers as an `r × c` process grid and splits the
/// adjacency matrix in 2-D: edge `(u, v)` goes to the worker at
/// `(row(u), col(v))`, where `row` and `col` hash the endpoints onto the grid
/// axes. Every vertex is then replicated across at most `r + c - 1` workers
/// regardless of its degree — good worst-case behaviour for hubs, but a high
/// replication factor overall (Table III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CvcPartitioner;

impl CvcPartitioner {
    /// Creates a CVC partitioner.
    pub fn new() -> Self {
        CvcPartitioner
    }

    /// Chooses the most square `r × c = p` grid for the given worker count.
    /// Prime worker counts degrade to a `1 × p` grid, exactly as a real 2-D
    /// partitioner would.
    pub(crate) fn grid_shape(num_partitions: usize) -> (usize, usize) {
        let mut best = (1, num_partitions);
        let mut r = 1;
        while r * r <= num_partitions {
            if num_partitions.is_multiple_of(r) {
                best = (r, num_partitions / r);
            }
            r += 1;
        }
        best
    }
}

impl Partitioner for CvcPartitioner {
    fn name(&self) -> String {
        "CVC".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let (rows, cols) = Self::grid_shape(num_partitions);
        let assignment = graph
            .edges()
            .iter()
            .map(|edge| {
                let row = mix64(edge.src.raw()) % rows as u64;
                let col = mix64(edge.dst.raw()) % cols as u64;
                PartitionId::new((row * cols as u64 + col) as u32)
            })
            .collect();
        Ok(EdgePartition::new(num_partitions, assignment)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_graph::VertexId;

    #[test]
    fn grid_shape_prefers_square_grids() {
        assert_eq!(CvcPartitioner::grid_shape(12), (3, 4));
        assert_eq!(CvcPartitioner::grid_shape(16), (4, 4));
        assert_eq!(CvcPartitioner::grid_shape(32), (4, 8));
        assert_eq!(CvcPartitioner::grid_shape(7), (1, 7));
        assert_eq!(CvcPartitioner::grid_shape(1), (1, 1));
    }

    #[test]
    fn replicas_per_vertex_are_bounded_by_grid_perimeter() {
        let g = RmatGenerator::new(10, 16).with_seed(2).generate().unwrap();
        let p = 16;
        let (rows, cols) = CvcPartitioner::grid_shape(p);
        let result = CvcPartitioner::new().partition(&g, p).unwrap();
        let membership = result.as_vertex_cut().unwrap().vertex_membership(&g);
        for v in g.vertices() {
            assert!(
                membership.replica_count(v) <= rows + cols,
                "vertex {v} has {} replicas",
                membership.replica_count(v)
            );
        }
        // Even the biggest hub stays below the grid perimeter bound.
        let hub = g
            .vertices()
            .max_by_key(|&v| g.degree(v))
            .unwrap_or(VertexId::new(0));
        assert!(membership.replica_count(hub) <= rows + cols);
    }

    #[test]
    fn edges_are_roughly_balanced() {
        let g = RmatGenerator::new(10, 8).with_seed(5).generate().unwrap();
        let result = CvcPartitioner::new().partition(&g, 16).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.6,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(m.replication_factor > 1.0);
    }

    #[test]
    fn deterministic_per_salt() {
        // p = 6 is a 2 × 3 grid: each edge lands on the cell its source's
        // hash picks the row of and its target's hash the column.
        let g = RmatGenerator::new(8, 4).with_seed(1).generate().unwrap();
        let result = CvcPartitioner::new().partition(&g, 6).unwrap();
        assert_eq!(result, CvcPartitioner::new().partition(&g, 6).unwrap());
        let vc = result.as_vertex_cut().unwrap();
        for (i, edge) in g.edges().iter().enumerate() {
            let cell = mix64(edge.src.raw()) % 2 * 3 + mix64(edge.dst.raw()) % 3;
            assert_eq!(vc.part_of(i).index() as u64, cell, "edge {i}");
        }
    }
}
