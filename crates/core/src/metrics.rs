//! Partition quality metrics (Section III-C of the paper).
//!
//! Three metrics characterize a partition result:
//!
//! * **edge imbalance factor** — `max_i |E_i| / (|E| / p)`,
//! * **vertex imbalance factor** — `max_i |V_i| / (Σ_i |V_i| / p)`,
//! * **replication factor** — `Σ_i |V_i| / |V|` for vertex-cut results and
//!   `Σ_i |E_i| / |E|` for edge-cut results.
//!
//! Table III of the paper reports exactly these three numbers per graph and
//! partitioner; Tables IV/V correlate them with measured communication.

use std::fmt;

use ebv_graph::Graph;

use crate::assignment::PartitionResult;
use crate::error::Result;

/// The partition-quality metrics of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionMetrics {
    /// `max_i |E_i| / (|E| / p)`.
    pub edge_imbalance: f64,
    /// `max_i |V_i| / (Σ_i |V_i| / p)`.
    pub vertex_imbalance: f64,
    /// `Σ_i |V_i| / |V|` (vertex-cut) or `Σ_i |E_i| / |E|` (edge-cut).
    ///
    /// In [`compute`](Self::compute), `|V|` is `graph.num_vertices()`:
    /// every vertex of the graph, declared isolated ones included, while
    /// `Σ_i |V_i|` counts only the vertices an edge covers. So a graph that
    /// declares isolated vertices can read below the paper's
    /// `Σ_i |V_i| / |V| ≥ 1` (ROADMAP item 25(a)). The two imbalance
    /// factors divide by `|E| / p` and `Σ_i |V_i| / p`, which isolated
    /// vertices do not enter.
    pub replication_factor: f64,
    /// Number of partitions the metrics were computed for.
    pub num_partitions: usize,
}

impl PartitionMetrics {
    /// Computes the metrics of `result` over `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PartitionError::InconsistentAssignment`] when the
    /// result does not describe `graph`.
    pub fn compute(graph: &Graph, result: &PartitionResult) -> Result<Self> {
        result.validate(graph)?;
        let p = result.num_partitions();
        let edge_counts = result.edge_counts(graph);
        let vertex_counts = result.vertex_counts(graph);

        let max_edges = edge_counts.iter().copied().max().unwrap_or(0) as f64;
        let max_vertices = vertex_counts.iter().copied().max().unwrap_or(0) as f64;
        let total_covered_vertices: usize = vertex_counts.iter().sum();
        let total_held_edges: usize = edge_counts.iter().sum();

        let edge_imbalance = if graph.num_edges() == 0 {
            1.0
        } else {
            max_edges / (graph.num_edges() as f64 / p as f64)
        };
        let vertex_imbalance = if total_covered_vertices == 0 {
            1.0
        } else {
            max_vertices / (total_covered_vertices as f64 / p as f64)
        };
        let replication_factor = match result {
            PartitionResult::VertexCut(_) => {
                total_covered_vertices as f64 / graph.num_vertices() as f64
            }
            PartitionResult::EdgeCut(_) => total_held_edges as f64 / graph.num_edges() as f64,
        };

        Ok(PartitionMetrics {
            edge_imbalance,
            vertex_imbalance,
            replication_factor,
            num_partitions: p,
        })
    }
}

impl fmt::Display for PartitionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "edge imbalance {:.3}, vertex imbalance {:.3}, replication factor {:.3} over {} partitions",
            self.edge_imbalance, self.vertex_imbalance, self.replication_factor, self.num_partitions
        )
    }
}

/// The max/mean ratio used by Table V to quantify per-worker message
/// imbalance: the maximum over workers divided by the mean over workers.
///
/// Returns 1.0 for empty input or an all-zero series so that perfectly idle
/// workers read as "balanced".
pub fn max_mean_ratio(values: &[usize]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let max = *values.iter().max().expect("non-empty") as f64;
    let sum: usize = values.iter().sum();
    if sum == 0 {
        return 1.0;
    }
    let mean = sum as f64 / values.len() as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{EdgePartition, VertexPartition};
    use crate::types::PartitionId;
    use ebv_graph::Graph;

    fn pid(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    fn square() -> Graph {
        Graph::from_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn balanced_vertex_cut_metrics() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        assert!((m.edge_imbalance - 1.0).abs() < 1e-12);
        assert!((m.vertex_imbalance - 1.0).abs() < 1e-12);
        // 6 covered vertices over 4 actual vertices.
        assert!((m.replication_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn skewed_vertex_cut_metrics() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(0), pid(1)]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        // Partition 0 has 3 of 4 edges: 3 / (4/2) = 1.5.
        assert!((m.edge_imbalance - 1.5).abs() < 1e-12);
        assert!(m.vertex_imbalance > 1.0);
    }

    #[test]
    fn edge_cut_metrics_use_edge_replication() {
        let g = square();
        let part = VertexPartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        // Each partition holds 3 of the 4 edges (2 internal views of its own
        // plus a replicated crossing edge): Σ|E_i| = 6, |E| = 4.
        assert!((m.replication_factor - 1.5).abs() < 1e-12);
        assert!((m.vertex_imbalance - 1.0).abs() < 1e-12);
        assert!((m.edge_imbalance - 1.5).abs() < 1e-12);
    }

    /// Declared isolated vertices count in the replication factor's `|V|`
    /// but in no `|V_i|`: four covered vertices and six isolated ones read
    /// `6 / 10`, where the covered vertices alone would read `6 / 4`.
    #[test]
    fn declared_isolated_vertices_count_in_the_replication_denominator() {
        let mut builder = ebv_graph::GraphBuilder::directed();
        builder.num_vertices(10);
        builder.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = builder.build().unwrap();
        assert_eq!((g.num_vertices(), g.num_isolated_vertices()), (10, 6));
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        // Partition 0 covers {0, 1, 2}, partition 1 {0, 2, 3}.
        assert_eq!(m.replication_factor, 0.6);
        assert_eq!(m.edge_imbalance, 1.0);
        assert_eq!(m.vertex_imbalance, 1.0);
    }

    #[test]
    fn mismatched_result_is_rejected() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0)]).unwrap();
        assert!(PartitionMetrics::compute(&g, &part.into()).is_err());
    }

    #[test]
    fn single_partition_has_unit_metrics() {
        let g = square();
        let part = EdgePartition::new(1, vec![pid(0); 4]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        assert!((m.edge_imbalance - 1.0).abs() < 1e-12);
        assert!((m.vertex_imbalance - 1.0).abs() < 1e-12);
        assert!((m.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_mean_ratio_basics() {
        assert!((max_mean_ratio(&[]) - 1.0).abs() < 1e-12);
        assert!((max_mean_ratio(&[0, 0]) - 1.0).abs() < 1e-12);
        assert!((max_mean_ratio(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((max_mean_ratio(&[9, 1, 2]) - 9.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_names_the_metrics() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        assert!(m.to_string().contains("replication factor"));
    }
}
