//! # ebv-obs — the std-only telemetry plane of the EBV reproduction
//!
//! The measurement substrate every runtime crate reports through, built
//! with nothing but `std` (the vendor constraint rules out external
//! telemetry crates):
//!
//! * [`Recorder`] — the instrumentation surface: timed phase spans plus
//!   counters, gauges and latency histograms. [`NoopRecorder`] is the
//!   zero-cost default: every hook is an empty `#[inline]` body and
//!   [`Recorder::start`] returns `None` without reading the clock, so
//!   uninstrumented runs monomorphize to the exact uninstrumented code.
//! * [`MetricsRegistry`] — process-wide named atomic
//!   counters/gauges/histograms (fixed 1-2-5 bucket ladder with p50/p99
//!   extraction), snapshot-able to the Prometheus text exposition
//!   format.
//! * [`Telemetry`] — the real recorder: spans (epoch → superstep →
//!   worker → phase) land in a bounded span ring with real `Instant`
//!   timings and export as Chrome trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto, with per-(worker, phase) wall-clock
//!   attribution and a per-superstep straggler gauge on top. The ring,
//!   the totals and the straggler window share one `Mutex`.
//! * [`EpochJournal`] — a bounded ring of per-epoch [`EpochSnapshot`]s
//!   (apply cost, partition quality, per-phase deltas) fed through
//!   [`Recorder::epoch_applied`] from the epoch driver — the process's
//!   time series, exportable as JSON.
//! * [`ObsServer`] — the live ops plane: a std-only HTTP/1.1 exporter
//!   (hand-rolled `TcpListener` + two accept threads, no async runtime)
//!   serving `GET /metrics`, `/healthz`, `/trace.json` and `/epochs.json` from a
//!   running [`Telemetry`] without stopping it.
//! * [`Router`] — the typed route-registration seam behind the server:
//!   `path → handler` trait objects, exact-then-longest-prefix matching,
//!   so other crates (the `ebv-serve` query plane) mount routes on the
//!   same listener via [`ObsServer::bind_with_router`] instead of editing
//!   the server.
//!
//! Instrumentation must not perturb determinism: program values and
//! `ExecutionStats` with tracing enabled — and with the server scraping
//! concurrently — are property-tested to be bit-identical to
//! no-op-recorder runs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod journal;
mod recorder;
mod registry;
mod router;
mod serve;
mod trace;

pub use journal::{EpochJournal, EpochMark, EpochSnapshot};
pub use recorder::{NoopRecorder, Phase, Recorder, SpanCtx};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use router::{Request, Response, RouteHandler, Router};
pub use serve::{telemetry_router, ObsServer, ObsServerConfig};
pub use trace::{SpanRecord, Telemetry};
