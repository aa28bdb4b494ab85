//! The common [`Partitioner`] interface and partition-count validation.

use ebv_graph::Graph;

use crate::assignment::PartitionResult;
use crate::error::{PartitionError, Result};

/// A graph partition algorithm.
///
/// Every algorithm evaluated in the paper — EBV itself plus the Ginger, DBH,
/// CVC, NE and METIS-like baselines — implements this trait, so the
/// experiment harness, the BSP engine and the metrics can treat them
/// uniformly. The trait is object safe: the harness iterates over
/// `Vec<Box<dyn Partitioner>>`.
pub trait Partitioner {
    /// A short, stable name used in reports and tables (e.g. `"EBV"`,
    /// `"DBH"`).
    fn name(&self) -> String;

    /// Partitions `graph` into `num_partitions` subgraphs.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidPartitionCount`] when
    /// `num_partitions` is zero or exceeds what the algorithm can fill, and
    /// algorithm-specific [`PartitionError`] values otherwise.
    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult>;
}

/// Validates the requested partition count against the graph, a check shared
/// by every partitioner in this crate.
///
/// # Errors
///
/// Returns [`PartitionError::InvalidPartitionCount`] when `num_partitions`
/// is zero or exceeds the number of edges in the graph (some partition would
/// necessarily stay empty).
pub(crate) fn check_partition_count(graph: &Graph, num_partitions: usize) -> Result<()> {
    if num_partitions == 0 {
        return Err(PartitionError::InvalidPartitionCount {
            requested: 0,
            message: "at least one partition is required".to_string(),
        });
    }
    if num_partitions > graph.num_edges() {
        return Err(PartitionError::InvalidPartitionCount {
            requested: num_partitions,
            message: format!(
                "cannot split {} edges into {num_partitions} non-empty partitions",
                graph.num_edges()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::Graph;

    #[test]
    fn zero_partitions_rejected() {
        let g = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        assert!(check_partition_count(&g, 0).is_err());
    }

    #[test]
    fn more_partitions_than_edges_rejected() {
        let g = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        assert!(check_partition_count(&g, 3).is_err());
        assert!(check_partition_count(&g, 2).is_ok());
        assert!(check_partition_count(&g, 1).is_ok());
    }
}
