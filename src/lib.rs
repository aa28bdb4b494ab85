//! # ebv — umbrella crate for the EBV reproduction
//!
//! Re-exports the eight library crates of the workspace under short module
//! names so that examples and integration tests can use one import root:
//!
//! * [`graph`] — graph structures, generators, statistics, I/O and the
//!   edge sources for streaming ingestion: the binary reader and writer
//!   and the synthetic edge streams (`ebv-graph`)
//! * [`partition`] — the EBV partitioner, every baseline, the online
//!   (insert/delete) partitioner and the quality metrics (`ebv-partition`)
//! * [`dynamic`] — evolving-graph support: mutation events, window and
//!   churn sources, the batched event pipeline (`ebv-dynamic`)
//! * [`bsp`] — the subgraph-centric BSP engine and cost model (`ebv-bsp`)
//! * [`obs`] — the std-only telemetry plane: metrics registry, phase
//!   tracer and Chrome-trace export (`ebv-obs`)
//! * [`algorithms`] — CC, SSSP, PageRank, their warm-start variants and
//!   sequential references (`ebv-algorithms`)
//! * [`serve`] — the epoch-versioned query plane: snapshot-isolated
//!   store, in-process [`QueryHandle`](ebv_serve::QueryHandle) and the
//!   `GET /query/*` routes (`ebv-serve`)
//! * [`state`] — the durable state plane: write-ahead mutation log,
//!   epoch checkpoints and crash-at-any-point recovery (`ebv-state`)
//!
//! See the workspace README for the quickstart and the experiment index.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub use ebv_algorithms as algorithms;
pub use ebv_bsp as bsp;
pub use ebv_dynamic as dynamic;
pub use ebv_graph as graph;
pub use ebv_obs as obs;
pub use ebv_partition as partition;
pub use ebv_serve as serve;
pub use ebv_state as state;
