//! # ebv-dynamic — evolving-graph support for the EBV reproduction
//!
//! The batch path partitions a frozen edge list; real workloads *mutate* —
//! social edges churn, road segments close. This crate is the online path:
//! mutation streams of
//! [`GraphEvent::Insert`]/[`GraphEvent::Delete`] flow through a
//! [`DynamicPartitioner`](ebv_partition::DynamicPartitioner) whose
//! reference-counted state stays *exactly* consistent under deletions, and
//! the resulting [`MutationBatch`](ebv_bsp::MutationBatch)es are absorbed by
//! [`DistributedGraph::apply_mutations`](ebv_bsp::DistributedGraph::apply_mutations)
//! so BSP applications re-run on the updated distribution.
//!
//! The subsystem layers as
//!
//! ```text
//! EventSource ──► DynamicPartitioner ──► MutationBatch ──► apply_mutations ──► BSP
//!     │                  │                                      (epoch += 1)
//!     │                  └─ ebv_partition::dynamic (EBV, HDRF, Random;
//!     │                     exact decremental metrics, rebalancer)
//!     ├─ InsertEvents(any ebv-graph EdgeSource)
//!     ├─ SlidingWindow                    (bounded live edge set)
//!     └─ ChurnStream                      (randomized insert/delete mix)
//!
//!        EventPipeline drives the flow batch-by-batch and hands each
//!        batch its delta-metrics; batch_from_plan() replays rebalance
//!        migrations downstream.
//! ```
//!
//! A plain stream is the insert-only case: [`InsertEvents`] wraps any
//! `ebv-graph` edge source, and with exact hints the online EBV and HDRF
//! assignments equal the batch ones under input order.
//!
//! There is one epoch loop, [`EventPipeline::run_applied_opts`]: telemetry,
//! the query plane's epoch commit and the write-ahead durability hook are
//! optional stages of its [`EpochOptions`]. `run_applied` (no stage) and
//! `run_applied_durable` (every stage) are its two shorthands.
//!
//! ## Quick example
//!
//! Maintain a partition under churn and absorb the mutations into a
//! distributed graph, one incremental epoch per batch — only the workers a
//! batch touches are re-assembled:
//!
//! ```
//! use ebv_bsp::DistributedGraph;
//! use ebv_dynamic::{ChurnStream, EpochOptions, EventPipeline};
//! use ebv_obs::Telemetry;
//! use ebv_partition::{EbvPartitioner, StreamConfig};
//! use ebv_graph::{EdgeSource, RmatEdgeStream};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let telemetry = Telemetry::new();
//! let stream = RmatEdgeStream::new(10, 10_000).with_seed(1);
//! let workers = 4;
//! let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::for_source(&stream, workers))?;
//! let mut distributed = DistributedGraph::build_streaming(workers, None, Vec::new())?;
//!
//! let churn = ChurnStream::new(stream, 0.25)?.with_seed(9);
//! EventPipeline::new(2_048).run_applied_opts(
//!     churn,
//!     &mut partitioner,
//!     &mut distributed,
//!     |distributed, _batch, metrics, stats| {
//!         assert!(metrics.edge_imbalance >= 1.0);
//!         assert!(stats.workers_touched <= workers);
//!         assert_eq!(distributed.num_workers(), workers);
//!         Ok(())
//!     },
//!     EpochOptions::new().recorder(&telemetry),
//! )?;
//!
//! assert_eq!(distributed.num_edges(), partitioner.live_edges());
//! assert!(distributed.epoch() >= 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod churn;
mod error;
mod event;
mod pipeline;
mod window;

pub use churn::ChurnStream;
pub use error::{DynamicError, Result};
pub use event::{events, EventSource, EventVec, GraphEvent, InsertEvents};
pub use pipeline::{
    batch_from_plan, confined_deletion_batch, EpochOptions, EventPipeline, EventReport,
};
pub use window::SlidingWindow;
