//! # ebv-stream — streaming edge ingestion and online partitioning
//!
//! EBV (Algorithm 1 of the reproduced paper) is a *single-pass* vertex-cut
//! algorithm, yet the batch interface of
//! [`ebv-partition`](ebv_partition) only exposes it over fully materialized
//! graphs. This crate opens the online-workload scenario family: edges flow
//! from a source through a streaming partitioner into an incrementally
//! assembled distributed graph, and the whole edge list is never resident.
//!
//! The subsystem layers as
//!
//! ```text
//! EdgeSource  ──►  StreamingPartitioner  ──►  sink (e.g. DistributedGraphBuilder)
//!     │                     │
//!     │                     └─ ebv_partition::streaming (EBV, HDRF, DBH, Random)
//!     └─ TextEdgeReader · BinaryEdgeReader · RmatEdgeStream · UniformEdgeStream
//!
//!            ChunkedPipeline drives the flow chunk-by-chunk and
//!            records delta-metrics after every chunk.
//! ```
//!
//! * [`EdgeSource`] — pull-based, fallible edge streams: chunked readers
//!   for edge-list text ([`TextEdgeReader`]) and a compact varint binary
//!   format ([`BinaryEdgeReader`]/[`BinaryEdgeWriter`]), deterministic
//!   synthetic generators ([`RmatEdgeStream`], [`UniformEdgeStream`]) and
//!   adapters ([`pairs`], [`GraphEdgeSource`]).
//! * [`ChunkedPipeline`] — configurable chunk size, per-chunk running
//!   metrics, optional parallel pre-hashing for hash-based partitioners.
//! * The sink side lives in
//!   [`ebv-bsp`](ebv_bsp): [`DistributedGraph::build_streaming`] /
//!   [`DistributedGraphBuilder`](ebv_bsp::DistributedGraphBuilder)
//!   assemble per-worker subgraphs directly from `(edge, partition)` pairs.
//!
//! ## Quick example
//!
//! Partition a synthetic stream and run a BSP application on it, without
//! ever holding the global edge vector:
//!
//! ```
//! use ebv_bsp::DistributedGraph;
//! use ebv_partition::{EbvPartitioner, StreamingPartitioner};
//! use ebv_stream::{ChunkedPipeline, EdgeSource, RmatEdgeStream};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stream = RmatEdgeStream::new(12, 50_000).with_seed(1);
//! let workers = 8;
//! let mut partitioner = EbvPartitioner::new().streaming(stream.stream_config(workers))?;
//! let mut builder = DistributedGraph::builder(workers)?;
//!
//! let run = ChunkedPipeline::new(8_192).run(stream, &mut partitioner, |edge, part| {
//!     builder.add_edge(edge, part).expect("partition ids are in range");
//! })?;
//! let distributed = builder.finish()?;
//!
//! assert_eq!(distributed.num_edges(), 50_000);
//! assert!(run.final_metrics().unwrap().edge_imbalance < 1.2);
//! # Ok(())
//! # }
//! ```
//!
//! [`DistributedGraph::build_streaming`]: ebv_bsp::DistributedGraph::build_streaming

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod binary;
mod error;
mod pipeline;
mod source;
mod synthetic;
mod text;
pub mod varint;

pub use binary::{BinaryEdgeReader, BinaryEdgeWriter, MAGIC};
pub use error::{Result, StreamError};
pub use pipeline::{ChunkReport, ChunkedPipeline, PipelineRun};
pub use source::{pairs, EdgeSource, GraphEdgeSource, PairSource};
pub use synthetic::{RmatEdgeStream, UniformEdgeStream};
pub use text::TextEdgeReader;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        pairs, BinaryEdgeReader, BinaryEdgeWriter, ChunkedPipeline, EdgeSource, GraphEdgeSource,
        PipelineRun, RmatEdgeStream, StreamError, TextEdgeReader, UniformEdgeStream,
    };
}
