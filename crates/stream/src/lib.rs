//! # ebv-stream — edge sources for streaming ingestion
//!
//! EBV (Algorithm 1 of the reproduced paper) is a *single-pass* vertex-cut
//! algorithm, yet the batch interface of
//! [`ebv-partition`](ebv_partition) only exposes it over fully materialized
//! graphs. This crate supplies the other end of the online scenario: edge
//! streams that never hold the whole edge list. A stream is an insert-only
//! event sequence, so it feeds the one online partitioner,
//! [`DynamicPartitioner`](ebv_partition::DynamicPartitioner), and the
//! `(edge, partition)` pairs it returns feed `ebv-bsp`'s
//! `DistributedGraphBuilder`.
//!
//! ```text
//! EdgeSource  ──►  DynamicPartitioner::insert  ──►  DistributedGraphBuilder
//!     │
//!     └─ TextEdgeReader · BinaryEdgeReader · RmatEdgeStream · UniformEdgeStream
//! ```
//!
//! * [`EdgeSource`] — pull-based, fallible edge streams: chunked readers
//!   for edge-list text ([`TextEdgeReader`]) and a compact varint binary
//!   format ([`BinaryEdgeReader`]/[`BinaryEdgeWriter`]), deterministic
//!   synthetic generators ([`RmatEdgeStream`], [`UniformEdgeStream`]) and
//!   adapters ([`pairs`], [`GraphEdgeSource`]).
//! * [`EdgeSource::stream_config`] turns a source's known cardinalities
//!   into the hints that make online EBV bit-identical to batch EBV under
//!   input order.
//!
//! ## Quick example
//!
//! Partition a synthetic stream and assemble the distributed graph without
//! ever holding the global edge vector:
//!
//! ```
//! use ebv_bsp::DistributedGraph;
//! use ebv_partition::EbvPartitioner;
//! use ebv_stream::{EdgeSource, RmatEdgeStream};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut stream = RmatEdgeStream::new(12, 50_000).with_seed(1);
//! let workers = 8;
//! let mut partitioner = EbvPartitioner::new().dynamic(stream.stream_config(workers))?;
//! let mut builder = DistributedGraph::builder(workers)?;
//! while let Some(edge) = stream.next_edge() {
//!     let edge = edge?;
//!     builder.add_edge(edge, partitioner.insert(edge))?;
//! }
//! let distributed = builder.finish()?;
//!
//! assert_eq!(distributed.num_edges(), 50_000);
//! assert!(partitioner.metrics().edge_imbalance < 1.2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod binary;
mod error;
mod source;
mod synthetic;
mod text;
pub mod varint;

pub use binary::{BinaryEdgeReader, BinaryEdgeWriter, MAGIC};
pub use error::{Result, StreamError};
pub use source::{pairs, EdgeSource, GraphEdgeSource, PairSource};
pub use synthetic::{RmatEdgeStream, UniformEdgeStream};
pub use text::TextEdgeReader;
