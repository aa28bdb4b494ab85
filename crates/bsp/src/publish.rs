//! Publication seams: how computed epoch values leave the engine.
//!
//! A BSP run ends with a [`BspOutcome`](crate::BspOutcome) whose value
//! vector dies with the caller — nothing downstream can answer "what is
//! vertex v's component *right now*" while the next epoch computes. These
//! two traits are the engine-side half of the epoch-versioned query plane:
//!
//! * [`ValueSink`] receives a finished run's master-value array (the
//!   engine calls it from `run_opts` when
//!   [`RunOptions::publish_to`](crate::RunOptions::publish_to) is set), so
//!   a snapshot store can *stage* the values of the epoch being built;
//! * [`EpochCommitter`] is called by the epoch loops (through
//!   [`run_epoch`]) after an epoch's mutations are applied and its programs
//!   have run, to *flip* everything staged for that epoch into readers'
//!   view atomically — with a *prepare* step that derives the graph-only
//!   part of the commit beside the programs.
//!
//! The split is what gives snapshot isolation at epoch granularity: any
//! number of series (components, distances, ranks) are staged one by one,
//! and a single commit makes them all visible together, tagged with the
//! graph's epoch. The traits live here — in `ebv-bsp`, next to the engine —
//! so the dependency direction stays clean: the engine and pipeline know
//! only these seams, and the concrete store (`ebv-serve`) plugs in on top.

use crate::distributed::DistributedGraph;
use crate::stats::ExecutionStats;

/// A destination for a finished run's master values.
///
/// `values[i]` is vertex `i`'s converged value, exactly as returned in
/// [`BspOutcome::values`](crate::BspOutcome): the value of its master
/// replica, which every vertex of the universe has (an isolated one on its
/// home worker). The sink must not assume it is called from any
/// particular thread, but calls for a given store are not concurrent: the
/// engine publishes synchronously at the end of the run that computed the
/// values.
pub trait ValueSink<V>: Sync {
    /// Receives the run's values and the stats describing how they were
    /// computed (supersteps, messages, convergence).
    fn publish(&self, values: &[V], stats: &ExecutionStats);
}

/// An epoch-boundary commit hook: makes everything staged since the last
/// commit visible to readers atomically, tagged with the graph's epoch.
///
/// Epoch loops drive it through [`run_epoch`], once per *applied* epoch:
/// [`prepare_epoch`](Self::prepare_epoch) on a helper thread while the
/// caller's `on_epoch` hook runs every program it wants served (staging
/// values through [`ValueSink`]s), then
/// [`commit_epoch`](Self::commit_epoch) once the hook returned `Ok`.
/// Implementations must be safe to call while concurrent readers hold the
/// previous epoch's snapshot — that is the entire point. The post-apply
/// [`DistributedGraph`] is passed so a store can tag the snapshot (epoch,
/// vertex count) and optionally derive structural reads (adjacency) from
/// the same state the values were computed on.
pub trait EpochCommitter: Sync {
    /// Derives ahead of the commit whatever the commit of `distributed`
    /// needs from the graph alone (a store's adjacency), so the work runs
    /// beside the epoch's programs instead of after them. The default does
    /// nothing.
    ///
    /// It runs **concurrently with `on_epoch`**, and so with
    /// [`ValueSink::publish`] on the same store: it may read only
    /// `distributed` and what the previous commit published, never the
    /// values being staged. A [`commit_epoch`](Self::commit_epoch) that is
    /// not preceded by a prepare of the same state — a direct call, a
    /// commit after a failed `on_epoch`, a diverged clone — must still be
    /// correct on its own.
    fn prepare_epoch(&self, _distributed: &DistributedGraph) {}

    /// Flips the staged values into the readable snapshot for
    /// `distributed.epoch()`.
    ///
    /// An implementation that keeps something derived from the previous
    /// commit's graph may patch it with the batch instead of re-deriving
    /// it, but only on the evidence of
    /// [`lineage`](DistributedGraph::lineage): the epoch number does not
    /// identify a state (two clones of one graph reach the same epoch
    /// through different batches).
    fn commit_epoch(&self, distributed: &DistributedGraph);
}

/// Runs one applied epoch's programs and commits them: the one place an
/// epoch loop calls an [`EpochCommitter`].
///
/// With a committer, [`prepare_epoch`](EpochCommitter::prepare_epoch) runs
/// on a scoped helper thread while `on_epoch` runs on the calling thread;
/// the helper is joined (its panic re-raised here) before
/// [`commit_epoch`](EpochCommitter::commit_epoch), which runs only if
/// `on_epoch` returned `Ok` — a failed epoch leaves readers on the last
/// committed one. Without a committer this is `on_epoch()` and nothing is
/// spawned.
///
/// # Errors
///
/// `on_epoch`'s error, after the helper has finished.
pub fn run_epoch<E>(
    committer: Option<&dyn EpochCommitter>,
    distributed: &DistributedGraph,
    on_epoch: impl FnOnce() -> Result<(), E>,
) -> Result<(), E> {
    let Some(committer) = committer else {
        return on_epoch();
    };
    std::thread::scope(|scope| {
        let prepare = scope.spawn(|| committer.prepare_epoch(distributed));
        let programs = on_epoch();
        if let Err(panic) = prepare.join() {
            std::panic::resume_unwind(panic);
        }
        programs
    })?;
    committer.commit_epoch(distributed);
    Ok(())
}

/// The durability seam of the dynamic pipeline: a write-ahead log plus
/// periodic checkpoints, so a crash can be recovered to the exact epoch
/// lineage a never-crashed run would have produced.
///
/// The pipeline drives it with a strict ordering per applied epoch:
///
/// 1. [`log_batch`](Self::log_batch) **before** `apply_mutations` — the
///    WAL frame for epoch `e` is on disk before any in-memory state
///    reflects it (log-before-apply). A crash between the two leaves a
///    logged-but-unapplied frame, which recovery replays; that is
///    indistinguishable from having applied it and then crashed.
/// 2. [`epoch_durable`](Self::epoch_durable) **after** the epoch's
///    programs ran and the [`EpochCommitter`] (if any) flipped the
///    snapshot — the implementation decides whether this epoch is a
///    checkpoint boundary (fold the WAL suffix into a full snapshot of
///    the distribution) or a no-op.
///
/// Like the other publication seams, the trait lives here so the
/// dependency direction stays clean: the pipeline (`ebv-dynamic`) knows
/// only this interface and the durable store (`ebv-state`) plugs in on
/// top. Errors are surfaced as `std::io::Error` — durability failures are
/// environment failures, and the pipeline aborts the epoch rather than
/// continue un-logged.
pub trait DurabilityHook {
    /// Persists the mutation batch that is *about to become* epoch
    /// `epoch`, called strictly before the batch is applied.
    /// `events_seen` is the cumulative count of raw stream events
    /// (inserts plus deletes, before in-batch cancellation) consumed
    /// through the end of this batch — recovery uses it to fast-forward a
    /// deterministic event source past the replayed prefix.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the pipeline treats it as fatal for the run.
    fn log_batch(
        &self,
        epoch: u64,
        events_seen: u64,
        batch: &crate::mutation_batch::MutationBatch,
    ) -> std::io::Result<()>;

    /// Marks epoch `distributed.epoch()` fully applied, computed and
    /// committed. Implementations checkpoint here every N epochs: the
    /// passed graph and partitioner are exactly the state a restart must
    /// reproduce, and `events_seen` is the stream position to store with
    /// it.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the pipeline treats it as fatal for the run.
    fn epoch_durable(
        &self,
        distributed: &DistributedGraph,
        partitioner: &ebv_partition::DynamicPartitioner,
        events_seen: u64,
    ) -> std::io::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct CollectingSink {
        seen: Mutex<Vec<Vec<u64>>>,
    }

    impl ValueSink<u64> for CollectingSink {
        fn publish(&self, values: &[u64], _stats: &ExecutionStats) {
            self.seen.lock().unwrap().push(values.to_vec());
        }
    }

    #[test]
    fn sinks_are_object_safe_and_receive_values() {
        let sink = CollectingSink {
            seen: Mutex::new(Vec::new()),
        };
        let stats = ExecutionStats::default();
        let dyn_sink: &dyn ValueSink<u64> = &sink;
        dyn_sink.publish(&[3, 1, 4], &stats);
        assert_eq!(*sink.seen.lock().unwrap(), vec![vec![3, 1, 4]]);
    }
}
