//! # ebv-algorithms — the evaluation applications
//!
//! The paper evaluates partition algorithms by running three classic graph
//! applications on the subgraph-centric BSP framework: Connected Components,
//! PageRank and Single-Source Shortest Path (Section V-A). This crate
//! implements all three as [`SubgraphProgram`](ebv_bsp::SubgraphProgram)s,
//! with warm-start variants of CC and SSSP for mutation epochs (see
//! [`incremental`]), and provides sequential reference implementations
//! used to validate the distributed results for every partitioner. The
//! graphs are unweighted, so SSSP's hop distances are BFS depths: there is
//! no separate BFS program.
//!
//! ## Quick example
//!
//! ```
//! use ebv_algorithms::ConnectedComponents;
//! use ebv_bsp::{BspEngine, DistributedGraph};
//! use ebv_graph::generators::{GraphGenerator, RmatGenerator};
//! use ebv_partition::{EbvPartitioner, Partitioner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = RmatGenerator::new(9, 8).with_seed(1).generate()?;
//! let partition = EbvPartitioner::new().partition(&graph, 8)?;
//! let distributed = DistributedGraph::build(&graph, &partition)?;
//! let outcome = BspEngine::sequential().run(&distributed, &ConnectedComponents::new())?;
//! println!(
//!     "{} supersteps, {} replica messages",
//!     outcome.supersteps,
//!     outcome.stats.total_messages()
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod cc;
pub mod incremental;
mod kernel;
mod pagerank;
pub mod reference;
mod sssp;

pub use cc::ConnectedComponents;
pub use incremental::{IncrementalConnectedComponents, IncrementalSssp};
pub use pagerank::{ranks, PageRank, PageRankValue};
pub use sssp::{SingleSourceShortestPath, UNREACHABLE};

/// The old name of [`SingleSourceShortestPath`], kept only because the
/// `ebvbench` benchmark names it, until that drops its BFS run (ROADMAP
/// item 29(c)).
pub type BreadthFirstSearch = SingleSourceShortestPath;
/// The old name of [`IncrementalSssp`], kept only because the `ebvbench`
/// benchmark names it, until that drops its BFS run (ROADMAP item 29(c)).
pub type IncrementalBfs = IncrementalSssp;

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
mod tests;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use ebv_bsp::{BspEngine, DistributedGraph};
    use ebv_graph::{GraphBuilder, VertexId};
    use ebv_partition::paper_partitioners;

    use crate::reference::{cc_reference, pagerank_reference, sssp_reference};
    use crate::{ranks, ConnectedComponents, PageRank, SingleSourceShortestPath};

    fn arbitrary_graph() -> impl Strategy<Value = ebv_graph::Graph> {
        proptest::collection::vec((0u64..30, 0u64..30), 1..150).prop_filter_map(
            "graphs need at least one non-loop edge",
            |edges| {
                let mut builder = GraphBuilder::directed();
                builder.extend_edges(edges);
                builder.build().ok()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// CC on the BSP engine equals the union-find reference for every
        /// partitioner and arbitrary graphs.
        #[test]
        fn cc_equals_reference(graph in arbitrary_graph(), p in 1usize..5) {
            prop_assume!(p <= graph.num_edges());
            let expected = cc_reference(&graph);
            for partitioner in paper_partitioners() {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let outcome = BspEngine::sequential().run(&dg, &ConnectedComponents::new()).unwrap();
                prop_assert_eq!(&outcome.values, &expected, "{}", partitioner.name());
            }
        }

        /// SSSP on the BSP engine equals the BFS reference for every
        /// partitioner and arbitrary graphs.
        #[test]
        fn sssp_equals_reference(graph in arbitrary_graph(), p in 1usize..5, source in 0u64..30) {
            prop_assume!(p <= graph.num_edges());
            prop_assume!((source as usize) < graph.num_vertices());
            let expected = sssp_reference(&graph, VertexId::new(source));
            for partitioner in paper_partitioners() {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let outcome = BspEngine::sequential()
                    .run(&dg, &SingleSourceShortestPath::new(VertexId::new(source)))
                    .unwrap();
                prop_assert_eq!(&outcome.values, &expected, "{}", partitioner.name());
            }
        }

        /// PageRank on the BSP engine matches the power-iteration reference
        /// to floating-point tolerance for every partitioner.
        #[test]
        fn pagerank_equals_reference(graph in arbitrary_graph(), p in 1usize..4) {
            prop_assume!(p <= graph.num_edges());
            let expected = pagerank_reference(&graph, 6, 0.85);
            for partitioner in paper_partitioners() {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let program = PageRank::new(&graph, 6);
                let outcome = BspEngine::sequential().run(&dg, &program).unwrap();
                let got = ranks(&outcome.values);
                for (a, b) in got.iter().zip(&expected) {
                    prop_assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", partitioner.name());
                }
            }
        }
    }
}
