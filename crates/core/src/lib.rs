//! # ebv-partition — the EBV partitioner and its baselines
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"An Efficient and Balanced Graph Partition Algorithm for the
//! Subgraph-Centric Programming Model on Large-scale Power-law Graphs"*
//! (ICDCS 2021):
//!
//! * [`EbvPartitioner`] — Algorithm 1: a sequential vertex-cut partitioner
//!   driven by an evaluation function that jointly penalizes vertex
//!   replication and edge/vertex imbalance, with the degree-sum edge-sorting
//!   preprocessing of Section IV-C.
//! * Every baseline the paper compares against: [`DbhPartitioner`],
//!   [`GingerPartitioner`], [`CvcPartitioner`], [`NePartitioner`] and the
//!   multilevel edge-cut [`MetisLikePartitioner`], plus
//!   [`HdrfPartitioner`] and pure random hashing for ablations.
//! * The quality metrics of Section III-C ([`PartitionMetrics`]) and the
//!   Theorem 1/2 imbalance bounds ([`bounds`]).
//!
//! ## Quick example
//!
//! ```
//! use ebv_graph::generators::{GraphGenerator, RmatGenerator};
//! use ebv_partition::{EbvPartitioner, Partitioner, PartitionMetrics};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = RmatGenerator::new(10, 8).with_seed(7).generate()?;
//! let result = EbvPartitioner::new().partition(&graph, 8)?;
//! let metrics = PartitionMetrics::compute(&graph, &result)?;
//! println!("replication factor = {:.2}", metrics.replication_factor);
//! assert!(metrics.edge_imbalance < 1.2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod assignment;
pub mod baselines;
pub mod bounds;
mod copy_log;
pub mod dynamic;
mod ebv;
mod error;
mod membership;
mod metrics;
mod ordering;
mod partitioner;
mod scoring;
mod streaming;
mod types;

pub use assignment::{EdgePartition, PartitionResult, VertexPartition};
pub use baselines::{
    CvcPartitioner, DbhPartitioner, GingerPartitioner, HdrfPartitioner, MetisLikePartitioner,
    NePartitioner, RandomEdgeCutPartitioner, RandomVertexCutPartitioner,
};
pub use copy_log::CopyLog;
pub use dynamic::{DynamicPartitioner, EdgeMove, MigrationPlan, RebalanceConfig};
pub use ebv::{EbvPartitioner, EbvTrace, TracePoint};
pub use error::{PartitionError, Result};
pub use metrics::{max_mean_ratio, PartitionMetrics};
pub use ordering::EdgeOrder;
pub use partitioner::Partitioner;
pub use streaming::StreamConfig;
pub use types::PartitionId;

/// Returns the full roster of partitioners the paper's evaluation section
/// compares (EBV, Ginger, DBH, CVC, NE, METIS-like), boxed behind the common
/// [`Partitioner`] interface — the list every experiment harness iterates
/// over.
pub fn paper_partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(EbvPartitioner::new()),
        Box::new(GingerPartitioner::new()),
        Box::new(DbhPartitioner::new()),
        Box::new(CvcPartitioner::new()),
        Box::new(NePartitioner::new()),
        Box::new(MetisLikePartitioner::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_partitioners_roster_matches_the_evaluation_section() {
        let names: Vec<String> = paper_partitioners().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["EBV", "Ginger", "DBH", "CVC", "NE", "METIS-like"]
        );
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use ebv_graph::GraphBuilder;

    use crate::bounds::{edge_imbalance_bound, vertex_imbalance_bound};
    use crate::{
        paper_partitioners, CvcPartitioner, DbhPartitioner, EbvPartitioner, EbvTrace,
        EdgePartition, HdrfPartitioner, NePartitioner, PartitionMetrics, PartitionResult,
        Partitioner,
    };

    /// Strategy: a random directed graph with 2..=60 vertices and 1..=300
    /// edges (self loops filtered by the builder).
    fn arbitrary_graph() -> impl Strategy<Value = ebv_graph::Graph> {
        proptest::collection::vec((0u64..60, 0u64..60), 1..300).prop_filter_map(
            "graphs need at least one non-loop edge",
            |edges| {
                let mut builder = GraphBuilder::directed();
                builder.extend_edges(edges);
                builder.build().ok()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every partitioner in the paper's roster produces a complete and
        /// valid assignment with sane metrics on arbitrary graphs.
        #[test]
        fn all_partitioners_produce_valid_results(graph in arbitrary_graph(), p in 1usize..6) {
            prop_assume!(p <= graph.num_edges());
            // Isolated vertices are never covered by a vertex-cut result, so
            // the replication-factor floor is the covered fraction, not 1.
            let non_isolated = graph.num_vertices() - graph.num_isolated_vertices();
            let vertex_cut_floor = non_isolated as f64 / graph.num_vertices() as f64;
            for partitioner in paper_partitioners() {
                let result = partitioner.partition(&graph, p).unwrap();
                result.validate(&graph).unwrap();
                let metrics = PartitionMetrics::compute(&graph, &result).unwrap();
                let floor = if result.is_vertex_cut() { vertex_cut_floor } else { 1.0 };
                prop_assert!(metrics.replication_factor >= floor - 1e-9, "{}", partitioner.name());
                prop_assert!(metrics.replication_factor <= p as f64 + 1e-9, "{}", partitioner.name());
                prop_assert!(metrics.edge_imbalance >= 1.0 - 1e-9, "{}", partitioner.name());
                prop_assert!(metrics.vertex_imbalance >= 1.0 - 1e-9, "{}", partitioner.name());
                prop_assert!(metrics.edge_imbalance <= p as f64 + 1e-9, "{}", partitioner.name());
            }
        }

        /// EBV always respects the Theorem 1 and Theorem 2 imbalance bounds.
        #[test]
        fn ebv_respects_theorem_bounds(
            graph in arbitrary_graph(),
            p in 1usize..6,
            alpha in 0.25f64..4.0,
            beta in 0.25f64..4.0,
        ) {
            prop_assume!(p <= graph.num_edges());
            let partitioner = EbvPartitioner::new().with_alpha(alpha).with_beta(beta);
            let result = partitioner.partition(&graph, p).unwrap();
            let metrics = PartitionMetrics::compute(&graph, &result).unwrap();
            let covered: usize = result.vertex_counts(&graph).iter().sum();
            let e_bound = edge_imbalance_bound(graph.num_edges(), p, alpha, beta).unwrap();
            let v_bound = vertex_imbalance_bound(graph.num_vertices(), covered, p, alpha, beta).unwrap();
            prop_assert!(metrics.edge_imbalance <= e_bound + 1e-9,
                "edge imbalance {} exceeds bound {e_bound}", metrics.edge_imbalance);
            prop_assert!(metrics.vertex_imbalance <= v_bound + 1e-9,
                "vertex imbalance {} exceeds bound {v_bound}", metrics.vertex_imbalance);
        }

        /// The EBV replication-factor trace is non-decreasing and consistent
        /// with the final metrics, regardless of the edge order used.
        #[test]
        fn ebv_trace_is_monotone(graph in arbitrary_graph(), p in 1usize..5, sorted in any::<bool>()) {
            prop_assume!(p <= graph.num_edges());
            let partitioner = if sorted {
                EbvPartitioner::new()
            } else {
                EbvPartitioner::new().unsorted()
            };
            let (partition, trace): (EdgePartition, EbvTrace) =
                partitioner.partition_with_trace(&graph, p).unwrap();
            for w in trace.points().windows(2) {
                prop_assert!(w[0].replication_factor <= w[1].replication_factor + 1e-12);
            }
            let metrics = PartitionMetrics::compute(&graph, &partition.into()).unwrap();
            prop_assert!((trace.final_replication_factor() - metrics.replication_factor).abs() < 1e-9);
        }

        /// Vertex-cut partitioners assign each edge to exactly one partition
        /// (disjoint cover), and the per-partition counts add up.
        #[test]
        fn vertex_cut_assignments_are_a_disjoint_cover(graph in arbitrary_graph(), p in 1usize..5) {
            prop_assume!(p <= graph.num_edges());
            for partitioner in [
                Box::new(EbvPartitioner::new()) as Box<dyn Partitioner>,
                Box::new(DbhPartitioner::new()),
                Box::new(CvcPartitioner::new()),
                Box::new(HdrfPartitioner::new()),
                Box::new(NePartitioner::new()),
            ] {
                let result = partitioner.partition(&graph, p).unwrap();
                if let PartitionResult::VertexCut(vc) = result {
                    prop_assert_eq!(vc.num_edges(), graph.num_edges());
                    prop_assert_eq!(vc.edge_counts().iter().sum::<usize>(), graph.num_edges());
                }
            }
        }
    }
}
