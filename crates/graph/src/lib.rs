//! # ebv-graph — graph substrate for the EBV reproduction
//!
//! This crate provides everything the partitioners
//! ([`ebv-partition`](https://docs.rs/ebv-partition)) and the
//! subgraph-centric BSP engine ([`ebv-bsp`](https://docs.rs/ebv-bsp)) need
//! from a graph library:
//!
//! * immutable [`Graph`] values with both an insertion-ordered edge list
//!   (online partitioners care about edge order) and CSR adjacency
//!   (applications care about neighbourhood access),
//! * a [`GraphBuilder`] that remaps sparse identifiers and expands undirected
//!   edges into opposite directed pairs, exactly as Section III-C of the
//!   paper prescribes,
//! * degree distributions ([`DegreeDistribution`]) and power-law exponent
//!   estimation ([`estimate_graph_eta`]) for characterizing graphs as in Table I,
//! * deterministic synthetic [`generators`] that substitute for the
//!   non-redistributable evaluation datasets (LiveJournal, Twitter,
//!   Friendster, USARoad),
//! * SNAP-compatible edge-list [`io`], and
//! * edge sources for the online scenario, which never hold the whole
//!   edge list: the pull-based [`EdgeSource`] trait, a compact varint
//!   binary format ([`BinaryEdgeReader`]/[`BinaryEdgeWriter`], over the
//!   strict LEB128 codec in [`varint`] that `ebv-state`'s WAL shares),
//!   the streaming R-MAT generator ([`RmatEdgeStream`]) and adapters
//!   ([`pairs`], [`GraphEdgeSource`]). A stream is an insert-only event
//!   sequence: it feeds `ebv-partition`'s one online partitioner,
//!   `DynamicPartitioner::insert`, configured by
//!   `StreamConfig::for_source`.
//!
//! ## Quick example
//!
//! ```
//! use ebv_graph::generators::{GraphGenerator, RmatGenerator};
//! use ebv_graph::GraphStats;
//!
//! # fn main() -> Result<(), ebv_graph::GraphError> {
//! let graph = RmatGenerator::new(10, 16).with_seed(42).generate()?;
//! let stats = GraphStats::compute("twitter-like", &graph)?;
//! assert!(stats.is_power_law);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod binary;
mod builder;
mod degree;
mod error;
pub mod generators;
mod graph;
mod hash;
pub mod io;
mod powerlaw;
mod source;
mod stats;
mod synthetic;
mod types;
pub mod varint;
mod vertex_set;

pub use binary::{BinaryEdgeReader, BinaryEdgeWriter, MAGIC};
pub use builder::GraphBuilder;
pub use degree::DegreeDistribution;
pub use error::{GraphError, Result};
pub use graph::Graph;
pub use hash::{IdHashMap, IdHasher};
pub use powerlaw::{estimate_eta_with_dmin, estimate_graph_eta, PowerLawFit};
pub use source::{pairs, EdgeSource, GraphEdgeSource, PairSource};
pub use stats::GraphStats;
pub use synthetic::RmatEdgeStream;
pub use types::{Edge, GraphKind, VertexId};
pub use vertex_set::VertexSet;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{DegreeDistribution, Edge, GraphBuilder};

    proptest! {
        /// Building a graph from arbitrary edge pairs never panics and the
        /// CSR degrees always sum to the edge count.
        #[test]
        fn csr_degrees_sum_to_edge_count(edges in proptest::collection::vec((0u64..200, 0u64..200), 1..400)) {
            let mut builder = GraphBuilder::directed();
            builder.extend_edges(edges.clone());
            // Graphs where all edges are self loops legitimately fail to build.
            if let Ok(graph) = builder.build() {
                let out_sum: usize = graph.vertices().map(|v| graph.out_degree(v)).sum();
                let in_sum: usize = graph.vertices().map(|v| graph.in_degree(v)).sum();
                prop_assert_eq!(out_sum, graph.num_edges());
                prop_assert_eq!(in_sum, graph.num_edges());
                let nonloop = edges.iter().filter(|(s, d)| s != d).count();
                prop_assert_eq!(graph.num_edges(), nonloop);
            }
        }

        /// Every neighbour returned by the CSR is a valid vertex and appears
        /// in the edge list.
        #[test]
        fn neighbors_are_consistent_with_edges(edges in proptest::collection::vec((0u64..50, 0u64..50), 1..200)) {
            let mut builder = GraphBuilder::directed();
            builder.extend_edges(edges);
            if let Ok(graph) = builder.build() {
                for v in graph.vertices() {
                    for &n in graph.out_neighbors(v) {
                        prop_assert!(n.index() < graph.num_vertices());
                        prop_assert!(graph.edges().contains(&Edge::new(v, n)));
                    }
                    for &n in graph.in_neighbors(v) {
                        prop_assert!(graph.edges().contains(&Edge::new(n, v)));
                    }
                }
            }
        }

        /// The undirected builder always yields symmetric adjacency.
        #[test]
        fn undirected_graphs_are_symmetric(edges in proptest::collection::vec((0u64..40, 0u64..40), 1..100)) {
            let mut builder = GraphBuilder::undirected();
            builder.extend_edges(edges);
            if let Ok(graph) = builder.build() {
                for v in graph.vertices() {
                    prop_assert_eq!(graph.out_degree(v), graph.in_degree(v));
                    for &n in graph.out_neighbors(v) {
                        prop_assert!(graph.out_neighbors(n).contains(&v));
                    }
                }
            }
        }

        /// Degree distribution totals match the vertex count and twice the
        /// edge count.
        #[test]
        fn degree_distribution_is_consistent(edges in proptest::collection::vec((0u64..60, 0u64..60), 1..200)) {
            let mut builder = GraphBuilder::directed();
            builder.extend_edges(edges);
            if let Ok(graph) = builder.build() {
                let dist = DegreeDistribution::of(&graph);
                prop_assert_eq!(dist.num_vertices(), graph.num_vertices());
                let total: usize = dist.iter().map(|(d, c)| d * c).sum();
                prop_assert_eq!(total, 2 * graph.num_edges());
            }
        }

        /// Edge-list round trips through the text format preserve the graph.
        #[test]
        fn io_roundtrip(edges in proptest::collection::vec((0u64..40, 0u64..40), 1..100)) {
            let mut builder = GraphBuilder::directed();
            builder.extend_edges(edges);
            if let Ok(graph) = builder.build() {
                let mut buf = Vec::new();
                crate::io::write_edge_list(&graph, &mut buf).unwrap();
                let reread = crate::io::read_edge_list(buf.as_slice(), crate::io::EdgeListOptions::default()).unwrap();
                prop_assert_eq!(reread.edges(), graph.edges());
            }
        }
    }
}
