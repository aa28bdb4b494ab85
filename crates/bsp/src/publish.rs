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
//!   [`run_epoch`]) after an epoch's mutations are applied: its *prepare*
//!   step derives the graph-only part of the commit beside the programs and
//!   returns the commit as a value, which *flips* everything staged for
//!   that epoch into readers' view atomically once the programs succeeded
//!   and is dropped uncalled when they failed.
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
/// [`prepare_epoch`](Self::prepare_epoch) runs on a helper thread while the
/// caller's `on_epoch` hook runs every program it wants served (staging
/// values through [`ValueSink`]s), and the commit it returns is called once
/// the hook returned `Ok` — or dropped uncalled. Implementations must be
/// safe to call while concurrent readers hold the previous epoch's
/// snapshot — that is the entire point. The post-apply
/// [`DistributedGraph`] is passed so a store can tag the snapshot (epoch,
/// vertex count) and optionally derive structural reads (adjacency) from
/// the same state the values were computed on.
pub trait EpochCommitter: Sync {
    /// Derives whatever the commit of `distributed` needs from the graph
    /// alone (a store's adjacency) and returns the commit: a closure that
    /// flips the staged values into the readable snapshot for
    /// `distributed.epoch()`. What it derived is bound to `distributed`, so
    /// it is only ever published for the graph it was derived from, and
    /// dropping the closure publishes nothing.
    ///
    /// The preparation runs **concurrently with `on_epoch`**, and so with
    /// [`ValueSink::publish`] on the same store: it may read only
    /// `distributed` and what the previous commit published, never the
    /// values being staged — those are read when the closure runs.
    ///
    /// An implementation that keeps something derived from the previous
    /// commit's graph may patch it with the batch instead of re-deriving
    /// it, but only on the evidence of
    /// [`lineage`](DistributedGraph::lineage): the epoch number does not
    /// identify a state (two clones of one graph reach the same epoch
    /// through different batches).
    fn prepare_epoch<'a>(
        &'a self,
        distributed: &'a DistributedGraph,
    ) -> Box<dyn FnOnce() + Send + 'a>;

    /// Prepares and commits `distributed` at once, outside an epoch loop.
    fn commit_epoch(&self, distributed: &DistributedGraph) {
        self.prepare_epoch(distributed)()
    }
}

/// Runs one applied epoch's programs and commits them: the one place an
/// epoch loop calls an [`EpochCommitter`].
///
/// With a committer, [`prepare_epoch`](EpochCommitter::prepare_epoch) runs
/// on a scoped helper thread while `on_epoch` runs on the calling thread;
/// the helper is joined (its panic re-raised here), and the commit it
/// returned runs only if `on_epoch` returned `Ok` — a failed epoch drops
/// it, leaving readers on the last committed epoch. Without a committer
/// this is `on_epoch()` and nothing is spawned.
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
    let commit = std::thread::scope(|scope| {
        let prepare = scope.spawn(|| committer.prepare_epoch(distributed));
        let programs = on_epoch();
        let commit = prepare
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        programs.map(|()| commit)
    })?;
    commit();
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
/// A logged batch belongs to the lineage whether or not its programs
/// succeed: when `on_epoch` fails, the epoch is neither committed nor
/// marked durable, but its frame stays in the WAL, and recovery applies it
/// and re-runs its programs like any other frame.
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

    /// Records the steps of one epoch in the order they happen.
    #[derive(Default)]
    struct Steps(Mutex<Vec<&'static str>>);

    impl Steps {
        fn push(&self, step: &'static str) {
            self.0.lock().unwrap().push(step);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    /// Moved into a commit: records `dropped` unless the commit ran.
    struct Uncalled<'a>(&'a Steps);

    impl Drop for Uncalled<'_> {
        fn drop(&mut self) {
            self.0.push("dropped");
        }
    }

    impl EpochCommitter for Steps {
        fn prepare_epoch<'a>(
            &'a self,
            _distributed: &'a DistributedGraph,
        ) -> Box<dyn FnOnce() + Send + 'a> {
            // Slow enough that a loop not joining the helper would return
            // before the prepare is recorded.
            std::thread::sleep(std::time::Duration::from_millis(20));
            self.push("prepare");
            let uncalled = Uncalled(self);
            Box::new(move || {
                self.push("commit");
                std::mem::forget(uncalled);
            })
        }
    }

    fn empty_graph() -> DistributedGraph {
        DistributedGraph::build_streaming(2, Some(4), Vec::new()).unwrap()
    }

    #[test]
    fn an_ok_epoch_prepares_once_then_commits_once_after_its_programs() {
        let (steps, graph) = (Steps::default(), empty_graph());
        let result = run_epoch(Some(&steps), &graph, || {
            steps.push("programs");
            Ok::<(), String>(())
        });
        assert_eq!(result, Ok(()));
        let mut order = steps.take();
        assert_eq!(order.pop(), Some("commit"), "the commit runs last");
        order.sort_unstable();
        // The prepare and the programs run side by side, in either order.
        assert_eq!(order, vec!["prepare", "programs"]);
    }

    #[test]
    fn a_failed_epoch_drops_its_commit_uncalled_after_the_helper_joined() {
        let (steps, graph) = (Steps::default(), empty_graph());
        let result = run_epoch(Some(&steps), &graph, || {
            steps.push("programs");
            Err("program failed".to_string())
        });
        assert_eq!(result, Err("program failed".to_string()));
        let mut order = steps.take();
        assert_eq!(order.pop(), Some("dropped"), "nothing is committed");
        order.sort_unstable();
        assert_eq!(order, vec!["prepare", "programs"], "the helper finished");
    }

    #[test]
    fn without_a_committer_only_the_programs_run() {
        let (steps, graph) = (Steps::default(), empty_graph());
        let result = run_epoch(None, &graph, || {
            steps.push("programs");
            Ok::<(), String>(())
        });
        assert_eq!(result, Ok(()));
        assert_eq!(steps.take(), vec!["programs"]);
    }
}
