//! Durable state plane: write-ahead mutation log, epoch checkpoints and
//! crash-at-any-point recovery.
//!
//! The dynamic engine mutates a [`ebv_bsp::DistributedGraph`] one epoch at
//! a time. This crate makes that lineage survive process death:
//!
//! * [`wal`] — length-delimited, CRC-guarded frames of
//!   [`ebv_bsp::MutationBatch`]es, logged **before** each batch is
//!   applied. A torn tail (the signature of a crash) is discarded
//!   fail-safe; intact-but-inconsistent frames are hard errors.
//! * [`checkpoint`] — periodic full snapshots (distribution, partitioner,
//!   warm algorithm series, stream position) written atomically with an
//!   epoch-lineage manifest.
//! * [`store`] — [`DurableState`] glues both together: opening a
//!   directory loads the newest valid checkpoint and the WAL suffix past
//!   it; live operation plugs into the engine through
//!   [`ebv_bsp::DurabilityHook`].
//! * [`recover`] — [`RecoveredState::resume`] rebuilds, restores and
//!   replays that into the live world through the caller's epoch body.
//! * [`failpoint`] — byte-budget fault injection, so tests can crash the
//!   writer after *any* byte or rename and prove recovery is exact.
//!
//! Durability covers process crashes (every write is flushed), not power
//! loss (writes are not `fsync`ed); see the [`store`] docs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
mod crc;
pub mod error;
pub mod failpoint;
pub mod recover;
pub mod store;
pub mod wal;

pub use checkpoint::{Checkpoint, SeriesValues};
pub use error::{Result, ResumeError, StateError};
pub use failpoint::Failpoint;
pub use recover::RecoveredState;
pub use store::DurableState;
