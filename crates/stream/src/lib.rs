//! # ebv-stream — a re-export shim
//!
//! The edge sources live in [`ebv-graph`](ebv_graph). This crate only
//! re-exports the four names the `ebvbench` benchmark imports under this
//! crate name, so its manifest builds unchanged. New code imports them
//! from `ebv_graph`.
//!
//! ```
//! use ebv_stream::{BinaryEdgeReader, BinaryEdgeWriter, EdgeSource, RmatEdgeStream};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut stream = RmatEdgeStream::new(10, 1_000).with_seed(1);
//! let (mut buffer, mut written) = (Vec::new(), Vec::new());
//! let mut writer = BinaryEdgeWriter::new(&mut buffer)?;
//! while let Some(edge) = stream.next_edge() {
//!     let edge = edge?;
//!     writer.write_edge(edge)?;
//!     written.push(edge);
//! }
//! writer.finish()?;
//!
//! let mut reader = BinaryEdgeReader::new(buffer.as_slice())?;
//! let mut read = Vec::new();
//! while let Some(edge) = reader.next_edge() {
//!     read.push(edge?);
//! }
//! assert_eq!(read, written);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use ebv_graph::{BinaryEdgeReader, BinaryEdgeWriter, EdgeSource, RmatEdgeStream};
