//! The event pipeline: mutation stream → [`DynamicPartitioner`] → batched
//! [`MutationBatch`]es for the distribution layer.

use std::collections::HashMap;
use std::time::Instant;

use ebv_bsp::{
    run_epoch, DistributedGraph, DurabilityHook, EpochCommitter, MutationBatch, MutationStats,
};
use ebv_graph::Edge;
use ebv_obs::{EpochMark, NoopRecorder, Phase, Recorder, SpanCtx};
use ebv_partition::{DynamicPartitioner, MigrationPlan, PartitionId, PartitionMetrics};

use crate::error::{DynamicError, Result};
use crate::event::{EventSource, GraphEvent};

/// Drives an [`EventSource`] through a [`DynamicPartitioner`] in fixed-size
/// event batches.
///
/// Each insert is placed by the partitioner and each delete decrements its
/// state exactly; the resulting `(edge, partition)` mutations accumulate
/// into a [`MutationBatch`] (with same-batch insert/delete cancellation)
/// that is handed to `on_batch` together with the maintained delta-metrics
/// — ready to replay via
/// [`DistributedGraph::apply_mutations`](ebv_bsp::DistributedGraph::apply_mutations).
///
/// # Examples
///
/// ```
/// use ebv_dynamic::{ChurnStream, EventPipeline};
/// use ebv_partition::{EbvPartitioner, StreamConfig};
/// use ebv_graph::{EdgeSource, RmatEdgeStream};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stream = RmatEdgeStream::new(10, 5_000).with_seed(2);
/// let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::for_source(&stream, 4))?;
/// let churn = ChurnStream::new(stream, 0.2)?.with_seed(3);
/// let report = EventPipeline::new(1_000).run(churn, &mut partitioner, |batch, metrics| {
///     assert!(!batch.is_empty());
///     assert!(metrics.edge_imbalance >= 1.0);
///     Ok(())
/// })?;
/// assert_eq!(report.total_inserts(), 5_000);
/// assert_eq!(partitioner.live_edges(), 5_000 - report.total_deletes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventPipeline {
    batch_size: usize,
}

impl EventPipeline {
    /// Creates a pipeline emitting one batch every `batch_size` events (the
    /// final batch may be short).
    pub fn new(batch_size: usize) -> Self {
        EventPipeline { batch_size }
    }

    /// Streams every event of `source` through `partitioner`, invoking
    /// `on_batch(batch, metrics)` after every `batch_size` events and once
    /// more for a non-empty final remainder.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::InvalidParameter`] for a zero batch size,
    /// propagates source errors, deletion of non-live edges
    /// ([`ebv_partition::PartitionError::EdgeNotPresent`]) and any error
    /// returned by `on_batch`. Events applied before a failure remain in
    /// the partitioner.
    pub fn run<S, F>(
        &self,
        source: S,
        partitioner: &mut DynamicPartitioner,
        mut on_batch: F,
    ) -> Result<EventReport>
    where
        S: EventSource,
        F: FnMut(&MutationBatch, PartitionMetrics) -> Result<()>,
    {
        self.run_inner(
            source,
            partitioner,
            &NoopRecorder,
            |batch, metrics, _, _, _, _| on_batch(batch, metrics),
        )
    }

    /// The raw batching loop behind [`run`](Self::run). The callback
    /// additionally receives the batch's *raw* insert/delete counts (which
    /// exceed the recorded mutations whenever events cancelled in-batch)
    /// and a shared view of the partitioner — the durable path needs both
    /// to stamp WAL frames and capture checkpoints.
    ///
    /// The callback's last argument is `recorder.start()` sampled before the
    /// batch's first event was pulled, i.e. the start of the batch's
    /// [`Phase::PartitionDecide`] span: the clock is read once per batch,
    /// never per event, and not at all under [`NoopRecorder`].
    fn run_inner<S, F, R>(
        &self,
        mut source: S,
        partitioner: &mut DynamicPartitioner,
        recorder: &R,
        mut on_batch: F,
    ) -> Result<EventReport>
    where
        S: EventSource,
        F: FnMut(
            &MutationBatch,
            PartitionMetrics,
            usize,
            usize,
            &DynamicPartitioner,
            Option<Instant>,
        ) -> Result<()>,
        R: Recorder,
    {
        if self.batch_size == 0 {
            return Err(DynamicError::InvalidParameter {
                parameter: "batch_size",
                message: "the batch size must be at least 1".to_string(),
            });
        }
        let mut report = EventReport::default();
        let mut batch = MutationBatch::new();
        let mut batch_inserts = 0usize;
        let mut batch_deletes = 0usize;
        let mut decide_started = recorder.start();
        loop {
            let event = match source.next_event() {
                None => break,
                Some(Err(err)) => return Err(err),
                Some(Ok(event)) => event,
            };
            match event {
                GraphEvent::Insert(edge) => {
                    let part = partitioner.insert(edge);
                    batch.record_insert(edge, part);
                    batch_inserts += 1;
                }
                GraphEvent::Delete(edge) => {
                    let part = partitioner.delete(edge)?;
                    batch.record_delete(edge, part);
                    batch_deletes += 1;
                }
            }
            if batch_inserts + batch_deletes == self.batch_size {
                on_batch(
                    &batch,
                    partitioner.metrics(),
                    batch_inserts,
                    batch_deletes,
                    partitioner,
                    decide_started,
                )?;
                report.count(batch_inserts, batch_deletes);
                batch = MutationBatch::new();
                batch_inserts = 0;
                batch_deletes = 0;
                decide_started = recorder.start();
            }
        }
        if batch_inserts + batch_deletes > 0 {
            on_batch(
                &batch,
                partitioner.metrics(),
                batch_inserts,
                batch_deletes,
                partitioner,
                decide_started,
            )?;
            report.count(batch_inserts, batch_deletes);
        }
        Ok(report)
    }

    /// [`run_applied_opts`](Self::run_applied_opts) with no optional stage
    /// ([`EpochOptions::new`]); same errors.
    pub fn run_applied<S, F>(
        &self,
        source: S,
        partitioner: &mut DynamicPartitioner,
        distributed: &mut DistributedGraph,
        on_epoch: F,
    ) -> Result<EventReport>
    where
        S: EventSource,
        F: FnMut(&DistributedGraph, &MutationBatch, PartitionMetrics, MutationStats) -> Result<()>,
    {
        self.run_applied_opts(
            source,
            partitioner,
            distributed,
            on_epoch,
            EpochOptions::new(),
        )
    }

    /// [`run_applied_opts`](Self::run_applied_opts) with every stage set —
    /// recorder, committer and durability hook; same errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_applied_durable<S, F, R>(
        &self,
        source: S,
        partitioner: &mut DynamicPartitioner,
        distributed: &mut DistributedGraph,
        committer: &dyn EpochCommitter,
        durability: &dyn DurabilityHook,
        events_already_seen: u64,
        on_epoch: F,
        recorder: &R,
    ) -> Result<EventReport>
    where
        S: EventSource,
        F: FnMut(&DistributedGraph, &MutationBatch, PartitionMetrics, MutationStats) -> Result<()>,
        R: Recorder,
    {
        self.run_applied_opts(
            source,
            partitioner,
            distributed,
            on_epoch,
            EpochOptions::new()
                .recorder(recorder)
                .committer(committer)
                .durability(durability, events_already_seen),
        )
    }

    /// The one incremental epoch loop: like [`run`](Self::run), but every
    /// batch is additionally absorbed into `distributed` through the
    /// incremental [`DistributedGraph::apply_mutations`] path — only the
    /// workers a batch touches are re-assembled — before `on_epoch`
    /// observes the post-mutation distribution, the batch, the maintained
    /// metrics and the epoch's [`MutationStats`]. Per batch, in order: log
    /// (when durable), apply, record, `on_epoch` ∥ prepare, then commit
    /// (when publishing), mark the epoch durable (when durable) — the
    /// conditional stages are the ones [`EpochOptions`] switches on.
    /// "`on_epoch` ∥ prepare" is [`run_epoch`]: the committer's
    /// [`prepare_epoch`](EpochCommitter::prepare_epoch) runs on a scoped
    /// helper thread beside `on_epoch` and is joined before the commit it
    /// returned is called.
    ///
    /// The distribution handed to `on_epoch` is the one the batch was just
    /// applied to, so the callback can re-execute programs against it —
    /// typically warm-started via
    /// [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed) with an
    /// `ebv_algorithms::incremental` program fed the same batch (see the
    /// `evolving_graph` example for the CC/SSSP epoch loop).
    ///
    /// A batch whose events fully cancelled in-batch is a no-op at the
    /// distribution layer (`workers_touched == 0`, the epoch counter does
    /// not advance): `on_epoch` still sees it, so callers can count raw
    /// batches if they want to, but it is neither logged (a frame without
    /// an epoch would fork the WAL lineage) nor prepared nor committed —
    /// no helper thread is spawned for it. Its raw events still advance
    /// the cumulative counter stamped into the next frame.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) returns, plus
    /// [`ebv_bsp::BspError`]s from `apply_mutations` and
    /// [`DynamicError::Durability`] when the hook fails. Batches applied
    /// before a failure remain absorbed in both the partitioner and the
    /// distribution; a batch that failed to log is **not** applied, so the
    /// durable lineage never lags the in-memory state; a failed `on_epoch`
    /// drops the prepared commit, leaving readers on the last good epoch,
    /// and the epoch is not marked durable. Its batch was logged, though,
    /// and a logged batch belongs to the lineage whether or not its
    /// programs succeeded: recovery applies it and re-runs its programs.
    pub fn run_applied_opts<S, F, R>(
        &self,
        source: S,
        partitioner: &mut DynamicPartitioner,
        distributed: &mut DistributedGraph,
        mut on_epoch: F,
        options: EpochOptions<'_, R>,
    ) -> Result<EventReport>
    where
        S: EventSource,
        F: FnMut(&DistributedGraph, &MutationBatch, PartitionMetrics, MutationStats) -> Result<()>,
        R: Recorder,
    {
        let recorder = options.recorder;
        let committer = options.committer;
        let hook = options.durability.map(|(hook, _)| hook);
        let mut events_seen = options.durability.map_or(0, |(_, start)| start);
        let mut batch_index = 0u32;
        self.run_inner(
            source,
            partitioner,
            recorder,
            |batch, metrics, raw_inserts, raw_deletes, partitioner, decide_started| {
                let applied = !batch.is_empty();
                // Spans of one batch share the epoch the batch becomes.
                let ctx = SpanCtx {
                    epoch: (distributed.epoch() + usize::from(applied)) as u32,
                    superstep: batch_index,
                    worker: distributed.num_workers() as u32,
                };
                recorder.span(decide_started, ctx, Phase::PartitionDecide);
                if let Some(started) = decide_started {
                    recorder.gauge_set(
                        "ebv_dynamic_partition_events_per_second",
                        (raw_inserts + raw_deletes) as f64 / started.elapsed().as_secs_f64(),
                    );
                }
                events_seen += (raw_inserts + raw_deletes) as u64;
                if applied {
                    if let Some(hook) = hook {
                        // Write-ahead: the frame for the epoch this batch is
                        // about to become must be durable before the batch
                        // mutates anything.
                        hook.log_batch(distributed.epoch() as u64 + 1, events_seen, batch)
                            .map_err(DynamicError::Durability)?;
                    }
                }
                let started = recorder.start();
                let stats = distributed.apply_mutations_with(batch, recorder)?;
                recorder.span(started, ctx, Phase::EpochApply);
                recorder.counter_add("ebv_dynamic_inserts_total", batch.added().len() as u64);
                recorder.counter_add("ebv_dynamic_deletes_total", batch.removed().len() as u64);
                recorder.gauge_set("ebv_dynamic_live_edges", distributed.num_edges() as f64);
                recorder.gauge_set("ebv_dynamic_replication_factor", metrics.replication_factor);
                recorder.gauge_set("ebv_dynamic_edge_imbalance", metrics.edge_imbalance);
                if applied {
                    recorder.epoch_applied(&EpochMark {
                        epoch: distributed.epoch() as u64,
                        batch_index,
                        apply_seconds: stats.apply_seconds,
                        workers_touched: stats.workers_touched as u32,
                        edges_rebuilt: stats.edges_rebuilt as u64,
                        edges_added: stats.edges_added as u64,
                        edges_removed: stats.edges_removed as u64,
                        live_edges: distributed.num_edges() as u64,
                        replication_factor: metrics.replication_factor,
                        edge_imbalance: metrics.edge_imbalance,
                    });
                }
                batch_index += 1;
                let graph: &DistributedGraph = distributed;
                run_epoch(committer.filter(|_| applied), graph, || {
                    on_epoch(graph, batch, metrics, stats)
                })?;
                if applied {
                    if let Some(hook) = hook {
                        hook.epoch_durable(distributed, partitioner, events_seen)
                            .map_err(DynamicError::Durability)?;
                    }
                }
                Ok(())
            },
        )
    }
}

/// The optional stages of one
/// [`EventPipeline::run_applied_opts`] epoch loop, mirroring
/// [`RunOptions`](ebv_bsp::RunOptions): each is off until its builder
/// method sets it, and any combination is valid.
///
/// `R` is the recorder ([`NoopRecorder`] until
/// [`recorder`](EpochOptions::recorder) swaps it — statically, so an
/// untelemetered loop pays nothing).
pub struct EpochOptions<'a, R: Recorder = NoopRecorder> {
    recorder: &'a R,
    committer: Option<&'a dyn EpochCommitter>,
    /// The hook plus the cumulative raw-event count it starts from.
    durability: Option<(&'a dyn DurabilityHook, u64)>,
}

impl Default for EpochOptions<'_, NoopRecorder> {
    fn default() -> Self {
        EpochOptions::new()
    }
}

impl EpochOptions<'_, NoopRecorder> {
    /// A plain loop: no telemetry, no commit, no durability.
    pub fn new() -> Self {
        EpochOptions {
            recorder: &NoopRecorder,
            committer: None,
            durability: None,
        }
    }
}

impl<'a, R: Recorder> EpochOptions<'a, R> {
    /// Telemetry: every batch is recorded as a `partition_decide` span
    /// around its event loop (pulling events, placing inserts, retiring
    /// deletes, in-batch cancellation) followed by an `epoch_apply` span
    /// around the mutation application (both: superstep = batch index, on
    /// the engine-side track of the batch's post-apply epoch),
    /// insert/delete counters accumulate, and the maintained partition
    /// state is exported as gauges (`ebv_dynamic_live_edges`,
    /// `ebv_dynamic_replication_factor`, `ebv_dynamic_edge_imbalance`,
    /// and the decision throughput
    /// `ebv_dynamic_partition_events_per_second`).
    /// Every non-empty batch additionally reports an
    /// [`EpochMark`](ebv_obs::EpochMark) through
    /// [`Recorder::epoch_applied`], which a live
    /// [`Telemetry`](ebv_obs::Telemetry) turns into one `EpochSnapshot`
    /// per applied epoch in its journal.
    ///
    /// Instrumentation does not perturb the run: batches, metrics and every
    /// deterministic [`MutationStats`] field are bit-identical to an
    /// unrecorded loop.
    pub fn recorder<R2: Recorder>(self, recorder: &'a R2) -> EpochOptions<'a, R2> {
        EpochOptions {
            recorder,
            committer: self.committer,
            durability: self.durability,
        }
    }

    /// Feeds the query plane (see [`EpochCommitter`]): once per non-empty
    /// batch, `committer` prepares the epoch beside `on_epoch` and commits
    /// it strictly *after* `on_epoch` returned `Ok` — i.e. after the caller
    /// staged that epoch's values through
    /// [`ValueSink`](ebv_bsp::ValueSink)s — so concurrent readers see the
    /// previous epoch's complete snapshot or this one's, never a
    /// half-staged mix and never an epoch whose programs later failed.
    pub fn committer(mut self, committer: &'a dyn EpochCommitter) -> Self {
        self.committer = Some(committer);
        self
    }

    /// A durable lineage, in the [`DurabilityHook`] ordering: every
    /// non-empty batch is logged **before** it is applied, and
    /// `epoch_durable` observes the state after `on_epoch` and the
    /// committer (if any) — the hook's cue to take a cadenced checkpoint.
    ///
    /// `events_already_seen` seeds the cumulative raw-event counter
    /// stamped into WAL frames; a recovered process passes
    /// `RecoveredState::events_seen()` after fast-forwarding its event
    /// source by the same amount, so frame stamps stay exact across
    /// restarts. Fresh runs pass 0.
    pub fn durability(mut self, hook: &'a dyn DurabilityHook, events_already_seen: u64) -> Self {
        self.durability = Some((hook, events_already_seen));
        self
    }
}

/// Converts a rebalancer [`MigrationPlan`] into the [`MutationBatch`] that
/// replays the same migrations against a distributed graph.
pub fn batch_from_plan(plan: &MigrationPlan) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for m in plan.moves() {
        batch.record_move(m.edge, m.from, m.to);
    }
    batch
}

/// Builds a deletion-only [`MutationBatch`] confined to worker `target` —
/// the hot-shard mutation pattern: applying it through the incremental
/// [`DistributedGraph::apply_mutations`] re-assembles exactly that one
/// worker (`workers_touched == 1`).
///
/// Up to `max_len` edges of `target` are selected, restricted to
/// single-copy non-self-loop edges whose endpoints each keep at least one
/// other live incident edge: a duplicated edge's LIFO deletion could
/// remove a copy held by another worker, and a vertex losing its last
/// edge would re-home round-robin as an isolated vertex elsewhere —
/// either would widen the touched set. The selected edges are deleted
/// from `partitioner` as they are recorded, keeping both sides in sync.
///
/// Used by the `evolving_graph` example and the `bench_dynamic`
/// localized-epoch measurement.
///
/// # Errors
///
/// Propagates [`ebv_partition::PartitionError`] from the deletions
/// (unreachable for a consistent partitioner: every victim is live).
pub fn confined_deletion_batch(
    partitioner: &mut DynamicPartitioner,
    target: PartitionId,
    max_len: usize,
) -> Result<MutationBatch> {
    let mut endpoint_refs: HashMap<u64, usize> = HashMap::new();
    let mut copy_counts: HashMap<Edge, usize> = HashMap::new();
    for (edge, _) in partitioner.surviving() {
        *endpoint_refs.entry(edge.src.raw()).or_insert(0) += 1;
        *endpoint_refs.entry(edge.dst.raw()).or_insert(0) += 1;
        *copy_counts.entry(edge).or_insert(0) += 1;
    }
    let victims: Vec<Edge> = partitioner
        .surviving()
        .filter(|(edge, part)| {
            *part == target
                && edge.src != edge.dst
                && copy_counts[edge] == 1
                && endpoint_refs[&edge.src.raw()] >= 2
                && endpoint_refs[&edge.dst.raw()] >= 2
        })
        .map(|(edge, _)| edge)
        .collect();
    let mut batch = MutationBatch::new();
    for edge in victims {
        if batch.len() >= max_len {
            break;
        }
        let (src, dst) = (edge.src.raw(), edge.dst.raw());
        if endpoint_refs[&src] >= 2 && endpoint_refs[&dst] >= 2 {
            batch.record_delete(edge, partitioner.delete(edge)?);
            *endpoint_refs.get_mut(&src).unwrap() -= 1;
            *endpoint_refs.get_mut(&dst).unwrap() -= 1;
        }
    }
    Ok(batch)
}

/// The outcome of one pipeline run: how many events it carried. Each
/// batch's metrics go to the callback as the batch closes; the report
/// keeps no per-batch history, so it stays two counters on an unbounded
/// source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventReport {
    total_inserts: usize,
    total_deletes: usize,
}

impl EventReport {
    fn count(&mut self, inserts: usize, deletes: usize) {
        self.total_inserts += inserts;
        self.total_deletes += deletes;
    }

    /// Total insertions across the run.
    pub fn total_inserts(&self) -> usize {
        self.total_inserts
    }

    /// Total deletions across the run.
    pub fn total_deletes(&self) -> usize {
        self.total_deletes
    }
}

#[cfg(test)]
mod tests;
