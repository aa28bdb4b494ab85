//! Shared experiment runner: partition a graph, distribute it once, run the
//! paper's applications on that build and collect every statistic the
//! reports need.

use std::error::Error;

use ebv_algorithms::{ConnectedComponents, PageRank, SingleSourceShortestPath};
use ebv_bsp::{Breakdown, BspEngine, CostModel, DistributedGraph, ExecutionStats};
use ebv_graph::{Graph, VertexId};
use ebv_partition::{PartitionMetrics, Partitioner};

/// The applications used in the paper's evaluation (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Application {
    /// Connected Components.
    ConnectedComponents,
    /// Single-Source Shortest Path from vertex 0.
    Sssp,
    /// PageRank with the given number of iterations.
    PageRank {
        /// Number of PageRank iterations (the paper's PR runs a fixed
        /// iteration count).
        iterations: usize,
    },
}

impl Application {
    /// The name used in tables and figure captions.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Application::ConnectedComponents => "CC",
            Application::Sssp => "SSSP",
            Application::PageRank { .. } => "PR",
        }
    }

    /// The three applications of Figure 2, with the PageRank iteration count
    /// used throughout the harness.
    pub(crate) fn figure2_set() -> Vec<Application> {
        vec![
            Application::ConnectedComponents,
            Application::PageRank { iterations: 10 },
            Application::Sssp,
        ]
    }

    /// Runs this application over an already-distributed graph and returns
    /// the execution counters.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (non-convergence or invalid configuration).
    fn run(
        &self,
        graph: &Graph,
        distributed: &DistributedGraph,
    ) -> Result<ExecutionStats, Box<dyn Error>> {
        let engine = BspEngine::sequential();
        Ok(match self {
            Application::ConnectedComponents => {
                engine.run(distributed, &ConnectedComponents::new())?.stats
            }
            Application::Sssp => {
                let source = VertexId::new(0);
                engine
                    .run(distributed, &SingleSourceShortestPath::new(source))?
                    .stats
            }
            Application::PageRank { iterations } => {
                engine
                    .run(distributed, &PageRank::new(graph, *iterations))?
                    .stats
            }
        })
    }
}

/// What one application run of an experiment produces.
#[derive(Debug, Clone)]
pub(crate) struct ExperimentResult {
    /// Name of the partitioner that produced the distribution.
    pub partitioner: String,
    /// Partition quality metrics (Table III).
    pub metrics: PartitionMetrics,
    /// Raw execution counters (Tables IV/V).
    pub stats: ExecutionStats,
    /// Modeled time breakdown (Table II, Figures 2–4).
    pub breakdown: Breakdown,
}

/// Partitions `graph` into `workers` parts and distributes it once, then
/// runs every application on that build: one result per application, in
/// order, with the default [`CostModel`]'s time breakdown.
///
/// # Errors
///
/// Propagates partitioning, distribution and engine errors.
pub(crate) fn run_experiment(
    graph: &Graph,
    partitioner: &dyn Partitioner,
    workers: usize,
    applications: &[Application],
) -> Result<Vec<ExperimentResult>, Box<dyn Error>> {
    let partition = partitioner.partition(graph, workers)?;
    let metrics = PartitionMetrics::compute(graph, &partition)?;
    let distributed = DistributedGraph::build(graph, &partition)?;
    applications
        .iter()
        .map(|application| {
            let stats = application.run(graph, &distributed)?;
            Ok(ExperimentResult {
                partitioner: partitioner.name(),
                metrics,
                breakdown: CostModel::default().breakdown(&stats),
                stats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, Scale};
    use ebv_partition::{paper_partitioners, EbvPartitioner};

    #[test]
    fn application_names_and_figure2_set() {
        assert_eq!(Application::ConnectedComponents.name(), "CC");
        assert_eq!(Application::Sssp.name(), "SSSP");
        assert_eq!(Application::PageRank { iterations: 3 }.name(), "PR");
        assert_eq!(Application::figure2_set().len(), 3);
    }

    #[test]
    fn run_experiment_produces_consistent_statistics() {
        let graph = ebv_graph::generators::named::small_social_graph();
        let results = run_experiment(
            &graph,
            &EbvPartitioner::new(),
            4,
            &[Application::ConnectedComponents],
        )
        .unwrap();
        let [result] = results.as_slice() else {
            panic!("one application, one result: {results:?}");
        };
        assert_eq!(result.partitioner, "EBV");
        assert_eq!(result.metrics.num_partitions, 4);
        assert!(result.metrics.replication_factor >= 1.0);
        assert!(result.breakdown.execution_time > 0.0);
        assert!(result.stats.num_supersteps() > 0);
    }

    #[test]
    fn every_partitioner_runs_every_application_on_a_small_dataset() {
        let graph = Dataset::ROAD.generate(Scale::Small).unwrap();
        // Trim to something tiny for test speed: use the small social graph
        // shape of experiments but the real registry road graph for realism.
        let applications = [
            Application::ConnectedComponents,
            Application::Sssp,
            Application::PageRank { iterations: 3 },
        ];
        for partitioner in paper_partitioners() {
            let results = run_experiment(&graph, partitioner.as_ref(), 4, &applications).unwrap();
            assert_eq!(results.len(), applications.len());
            for (result, app) in results.iter().zip(applications) {
                let supersteps = result.stats.num_supersteps();
                assert!(supersteps > 0, "{} {:?}", partitioner.name(), app);
            }
        }
    }

    #[test]
    fn experiment_metrics_match_direct_computation() {
        let graph = Dataset::LIVEJOURNAL.generate(Scale::Small).unwrap();
        let partitioner = EbvPartitioner::new();
        let results = run_experiment(
            &graph,
            &partitioner,
            8,
            &[Application::ConnectedComponents, Application::Sssp],
        )
        .unwrap();
        let partition = partitioner.partition(&graph, 8).unwrap();
        let recomputed = PartitionMetrics::compute(&graph, &partition).unwrap();
        for result in results {
            assert_eq!(result.metrics, recomputed);
        }
    }
}
