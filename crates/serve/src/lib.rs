//! # ebv-serve — the epoch-versioned query plane
//!
//! The serving leg of the reproduction's north star: the paper's EBV
//! partitioning plus the warm incremental epochs of PRs 3–8 produce fresh
//! answers on an evolving graph, and this crate is where those answers
//! become *readable* while the next epoch computes. Two layers:
//!
//! * [`SnapshotStore`] / [`QueryHandle`] — the store the epoch driver
//!   owns: engine runs *stage* named per-vertex series through
//!   [`ValueSink`](ebv_bsp::ValueSink) sinks
//!   ([`SnapshotStore::series_sink`]), and one commit per applied epoch
//!   flips them all into readers' view together — snapshot isolation at
//!   epoch granularity, never a torn or mixed-epoch read. The published
//!   snapshot sits behind a std `RwLock<Arc<_>>` held for one pointer
//!   operation per read or commit (PR 14 measured the hand-rolled
//!   lock-free cell it replaced against it: no difference outside noise on
//!   any `ebvbench` workload or under contended readers), beside a
//!   generation counter each commit bumps. A handle keeps its own pinned
//!   snapshot and re-pins only when the generation has moved, so between
//!   commits a read costs one load and one counter add on shared lines
//!   (the retention this buys is stated on [`SnapshotStore`]). Handles
//!   are cheap `Clone` and serve point lookups, top-k (a pass over only
//!   the chunks of the series its per-chunk min/max zone map cannot rule
//!   out, whatever `k`) and neighborhood reads from any thread, counting
//!   every read attempt in `ebv_query_reads_total` and timing a 1-in-64
//!   systematic sample of them into `ebv_query_read_seconds` (p50/p99) in
//!   the store's metrics registry — a clock read costs about twice the
//!   lookup itself, so timing every read would mostly measure the timer;
//! * [`register_query_routes`] — the HTTP face: `GET /query`,
//!   `/query/<series>/<vertex>`, `/topk` and `/neighbors/<vertex>`,
//!   mounted on the existing [`ObsServer`](ebv_obs::ObsServer) listener
//!   through the [`Router`](ebv_obs::Router) seam.
//!
//! The write path plugs into the rest of the stack at two seams defined
//! in `ebv-bsp`: the engine publishes values via
//! [`RunOptions::publish_to`](ebv_bsp::RunOptions::publish_to), and
//! the `ebv-dynamic` epoch loop (`EpochOptions::committer`) commits via
//! [`EpochCommitter`](ebv_bsp::EpochCommitter) after each applied epoch.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod adjacency;
mod handle;
mod http;
mod store;
mod topk;

pub use adjacency::Adjacency;
pub use handle::QueryHandle;
pub use http::register_query_routes;
pub use store::{
    GraphSnapshot, QueryError, QueryValue, Series, SeriesData, SeriesSink, SeriesValue,
    SnapshotStore,
};
