//! # ebv-bsp — the subgraph-centric BSP engine
//!
//! The paper evaluates its partitioner inside DRONE, a distributed
//! subgraph-centric framework following the bulk-synchronous-parallel model
//! of Section IV-B: the graph is split into subgraphs, each bound to one
//! worker, and every superstep consists of a computation stage (a sequential
//! algorithm run to the subgraph's local fixpoint), a communication stage (messages
//! between replicas of the same vertex) and a synchronization barrier.
//!
//! This crate is an in-process reimplementation of that execution model:
//!
//! * [`DistributedGraph`] turns any
//!   [`PartitionResult`](ebv_partition::PartitionResult) (vertex-cut or
//!   edge-cut) into per-worker [`Subgraph`]s with master/mirror replicas;
//! * [`SubgraphProgram`] is the "think like a graph" programming interface;
//! * [`BspEngine`] executes programs sequentially or on a crew of scoped
//!   lanes opened for each run (the calling thread first, one thread scope
//!   per run, each superstep one round in which lane `l` of `L` runs
//!   workers `l, l + L, …`), recording the per-worker work and message
//!   counters. The same crew builds every worker at assembly and in every
//!   epoch; a job owns what it writes and borrows the graph, so no thread
//!   outlives the call that started it. There is one run call,
//!   [`BspEngine::run_opts`]: telemetry, a warm-start seed and snapshot
//!   publication are optional stages of its [`RunOptions`] (`run` is the
//!   no-options shorthand), and the [`ExecutionMode`] belongs to the
//!   engine;
//! * [`CostModel`] converts the counters into the comp/comm/ΔC/execution
//!   breakdown of Table II and the timelines of Figure 4.
//!
//! The communication counters are exactly the platform-independent metric
//! the paper uses to compare partition algorithms (Tables IV and V).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod apply;
mod builder;
pub mod config;
mod distributed;
mod engine;
mod error;
mod exchange;
mod lanes;
mod mutation_batch;
mod program;
pub mod publish;
mod replica;
mod routing;
mod stats;
mod subgraph;

pub use config::EnvConfig;
pub use engine::{BspEngine, BspOutcome, ExecutionMode, RunOptions};
pub use error::{BspError, Result};
pub use exchange::WorklistScratch;
pub use program::{SubgraphContext, SubgraphProgram};
pub use publish::{run_epoch, DurabilityHook, EpochCommitter, ValueSink};
pub use stats::{
    Breakdown, CostModel, ExecutionStats, SuperstepStats, TimelineSpan, WorkerSuperstepStats,
};
pub use subgraph::{
    DistributedGraph, DistributedGraphBuilder, InEdges, Lineage, LocalComponents, MutationBatch,
    MutationStats, ReplicaTable, Subgraph,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use ebv_graph::GraphBuilder;
    use ebv_partition::{paper_partitioners, PartitionMetrics};

    use crate::subgraph::DistributedGraph;

    fn arbitrary_graph() -> impl Strategy<Value = ebv_graph::Graph> {
        proptest::collection::vec((0u64..40, 0u64..40), 1..200).prop_filter_map(
            "graphs need at least one non-loop edge",
            |edges| {
                let mut builder = GraphBuilder::directed();
                builder.extend_edges(edges);
                builder.build().ok()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Distributing a graph never loses edges, and for vertex-cut results
        /// the replication factor of the distributed graph matches the
        /// metrics computed by `ebv-partition`.
        #[test]
        fn distribution_preserves_edges_and_replication(graph in arbitrary_graph(), p in 1usize..5) {
            prop_assume!(p <= graph.num_edges());
            for partitioner in paper_partitioners() {
                let result = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &result).unwrap();
                let local_edges: usize = dg.subgraphs().iter().map(|s| s.num_edges()).sum();
                if result.is_vertex_cut() {
                    prop_assert_eq!(local_edges, graph.num_edges(), "{}", partitioner.name());
                    // The replica table covers the metric's Σ|V_i| plus one
                    // home replica for each isolated vertex.
                    let covered: usize = result.vertex_counts(&graph).iter().sum();
                    let metrics = PartitionMetrics::compute(&graph, &result).unwrap();
                    prop_assert!(metrics.replication_factor >= 0.0);
                    prop_assert_eq!(
                        dg.replicas().total_replicas(),
                        covered + graph.num_isolated_vertices(),
                        "{}", partitioner.name()
                    );
                } else {
                    prop_assert!(local_edges >= graph.num_edges(), "{}", partitioner.name());
                }
                // Every vertex with at least one incident edge has exactly one master.
                for v in graph.vertices() {
                    if graph.degree(v) > 0 {
                        let masters = dg.subgraphs().iter().filter(|s| {
                            s.local_index_of(v).map(|i| s.is_master(i)).unwrap_or(false)
                        }).count();
                        prop_assert_eq!(masters, 1, "{} vertex {}", partitioner.name(), v);
                    }
                }
            }
        }
    }
}
