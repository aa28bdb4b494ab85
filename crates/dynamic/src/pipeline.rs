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
/// use ebv_partition::EbvPartitioner;
/// use ebv_stream::{EdgeSource, RmatEdgeStream};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stream = RmatEdgeStream::new(10, 5_000).with_seed(2);
/// let mut partitioner = EbvPartitioner::new().dynamic(stream.stream_config(4))?;
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

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
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
                let metrics = partitioner.metrics();
                on_batch(
                    &batch,
                    metrics,
                    batch_inserts,
                    batch_deletes,
                    partitioner,
                    decide_started,
                )?;
                report.push(batch_inserts, batch_deletes, metrics);
                batch = MutationBatch::new();
                batch_inserts = 0;
                batch_deletes = 0;
                decide_started = recorder.start();
            }
        }
        if batch_inserts + batch_deletes > 0 {
            let metrics = partitioner.metrics();
            on_batch(
                &batch,
                metrics,
                batch_inserts,
                batch_deletes,
                partitioner,
                decide_started,
            )?;
            report.push(batch_inserts, batch_deletes, metrics);
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

/// The running metrics recorded after one event batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// 0-based index of the batch.
    pub batch_index: usize,
    /// Insertions the batch carried.
    pub inserts: usize,
    /// Deletions the batch carried.
    pub deletes: usize,
    /// Maintained delta-metrics after the batch.
    pub metrics: PartitionMetrics,
}

/// The outcome of one pipeline run: how much churned, batch by batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventReport {
    batches: Vec<BatchReport>,
    total_inserts: usize,
    total_deletes: usize,
}

impl EventReport {
    fn push(&mut self, inserts: usize, deletes: usize, metrics: PartitionMetrics) {
        self.batches.push(BatchReport {
            batch_index: self.batches.len(),
            inserts,
            deletes,
            metrics,
        });
        self.total_inserts += inserts;
        self.total_deletes += deletes;
    }

    /// Per-batch reports in stream order.
    pub fn batches(&self) -> &[BatchReport] {
        &self.batches
    }

    /// Total insertions across the run.
    pub fn total_inserts(&self) -> usize {
        self.total_inserts
    }

    /// Total deletions across the run.
    pub fn total_deletes(&self) -> usize {
        self.total_deletes
    }

    /// The metrics after the final batch, or `None` for an empty stream.
    pub fn final_metrics(&self) -> Option<PartitionMetrics> {
        self.batches.last().map(|b| b.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnStream;
    use crate::event::{events, GraphEvent, InsertEvents};
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_graph::Edge;
    use ebv_partition::{EbvPartitioner, PartitionError, RebalanceConfig, StreamConfig};
    use ebv_stream::{pairs, EdgeSource, GraphEdgeSource, RmatEdgeStream};

    #[test]
    fn batches_cover_every_event_and_cancel_within_batch() {
        let e = Edge::from((0u64, 1u64));
        let f = Edge::from((1u64, 2u64));
        let source = events(vec![
            GraphEvent::Insert(e),
            GraphEvent::Insert(f),
            GraphEvent::Delete(e),
        ]);
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        let mut seen = Vec::new();
        let report = EventPipeline::new(10)
            .run(source, &mut partitioner, |batch, _| {
                seen.push(batch.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(report.total_inserts(), 2);
        assert_eq!(report.total_deletes(), 1);
        assert_eq!(seen.len(), 1);
        // The insert of `e` cancelled against its same-batch delete.
        assert_eq!(seen[0].added().len(), 1);
        assert!(seen[0].removed().is_empty());
        assert_eq!(partitioner.live_edges(), 1);
    }

    #[test]
    fn batch_size_controls_emission() {
        let stream = RmatEdgeStream::new(8, 1000).with_seed(4);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let report = EventPipeline::new(256)
            .run(InsertEvents::new(stream), &mut partitioner, |_, _| Ok(()))
            .unwrap();
        // 1000 = 3 × 256 + 232: four batches, the last one short.
        assert_eq!(report.batches().len(), 4);
        assert_eq!(report.batches()[3].inserts, 1000 - 3 * 256);
        assert_eq!(report.final_metrics().unwrap(), partitioner.metrics());
        for w in report.batches().windows(2) {
            assert!(w[0].batch_index < w[1].batch_index);
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_result() {
        let graph = RmatGenerator::new(8, 8).with_seed(6).generate().unwrap();
        let run = |batch_size: usize| {
            let source = GraphEdgeSource::new(&graph);
            let mut partitioner = EbvPartitioner::new()
                .dynamic(source.stream_config(4))
                .unwrap();
            let report = EventPipeline::new(batch_size)
                .run(InsertEvents::new(source), &mut partitioner, |_, _| Ok(()))
                .unwrap();
            (partitioner.snapshot().unwrap(), report)
        };
        let (reference, _) = run(usize::MAX);
        // 1 exercises the degenerate batching, 7 a non-divisor, 64 an exact
        // divisor of 1024-edge scales, huge a single batch.
        for batch_size in [1usize, 7, 64, 1 << 20] {
            let (result, report) = run(batch_size);
            assert_eq!(result, reference, "batch size {batch_size}");
            assert_eq!(report.total_inserts(), graph.num_edges());
            let reported: usize = report.batches().iter().map(|b| b.inserts).sum();
            assert_eq!(reported, graph.num_edges());
        }
    }

    #[test]
    fn chunk_reports_cover_boundaries() {
        let source = RmatEdgeStream::new(7, 1000).with_seed(2);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(source.stream_config(4))
            .unwrap();
        let mut added_per_batch = Vec::new();
        let report = EventPipeline::new(256)
            .run(InsertEvents::new(source), &mut partitioner, |batch, _| {
                added_per_batch.push(batch.added().len());
                Ok(())
            })
            .unwrap();
        // 1000 = 3 × 256 + 232: four batches, the last one short.
        assert_eq!(added_per_batch, [256, 256, 256, 1000 - 3 * 256]);
        assert_eq!(report.batches()[2].inserts, 256);
        assert!(report.batches().iter().all(|b| b.deletes == 0));
        assert_eq!(partitioner.live_edges(), 1000);
        // Replication factor is non-decreasing batch over batch.
        for w in report.batches().windows(2) {
            assert!(w[0].metrics.replication_factor <= w[1].metrics.replication_factor + 1e-12);
            assert!(w[0].batch_index < w[1].batch_index);
        }
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        let err = EventPipeline::new(0)
            .run(
                InsertEvents::new(pairs(vec![(0, 1)])),
                &mut partitioner,
                |_, _| panic!("a rejected run emits no batch"),
            )
            .unwrap_err();
        assert!(matches!(err, DynamicError::InvalidParameter { .. }));
        assert_eq!(partitioner.live_edges(), 0);
    }

    #[test]
    fn sink_sees_every_assignment_in_stream_order() {
        let graph = RmatGenerator::new(7, 8).with_seed(4).generate().unwrap();
        let source = GraphEdgeSource::new(&graph);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(source.stream_config(3))
            .unwrap();
        let mut sunk = Vec::new();
        EventPipeline::new(100)
            .run(InsertEvents::new(source), &mut partitioner, |batch, _| {
                sunk.extend_from_slice(batch.added());
                Ok(())
            })
            .unwrap();
        let result = partitioner.snapshot().unwrap();
        let vc = result.as_vertex_cut().unwrap();
        assert_eq!(sunk.len(), graph.num_edges());
        for (i, ((edge, part), expected)) in sunk.iter().zip(graph.edges()).enumerate() {
            assert_eq!(edge, expected, "edge {i}");
            assert_eq!(*part, vc.part_of(i), "edge {i}");
        }
    }

    #[test]
    fn empty_stream_produces_an_empty_run() {
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(3)).unwrap();
        let report = EventPipeline::new(128)
            .run(events(Vec::new()), &mut partitioner, |_, _| {
                panic!("an empty stream emits no batch")
            })
            .unwrap();
        assert!(report.batches().is_empty());
        assert_eq!(report.total_inserts() + report.total_deletes(), 0);
        assert_eq!(report.final_metrics(), None);
        let result = partitioner.snapshot().unwrap();
        assert_eq!(result.num_partitions(), 3);
        assert_eq!(result.as_vertex_cut().unwrap().num_edges(), 0);
    }

    #[test]
    fn deleting_a_missing_edge_is_a_typed_error() {
        let source = events(vec![GraphEvent::Delete(Edge::from((5u64, 6u64)))]);
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        let err = EventPipeline::new(8)
            .run(source, &mut partitioner, |_, _| Ok(()))
            .unwrap_err();
        assert!(matches!(
            err,
            DynamicError::Partition(PartitionError::EdgeNotPresent { .. })
        ));
    }

    #[test]
    fn zero_batch_size_is_rejected_and_callback_errors_propagate() {
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        assert!(EventPipeline::new(0)
            .run(events(Vec::new()), &mut partitioner, |_, _| Ok(()))
            .is_err());
        let source = events(vec![GraphEvent::Insert(Edge::from((0u64, 1u64)))]);
        let err = EventPipeline::new(1)
            .run(source, &mut partitioner, |_, _| {
                Err(DynamicError::InvalidParameter {
                    parameter: "sink",
                    message: "boom".to_string(),
                })
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn run_applied_drives_incremental_epochs() {
        let stream = RmatEdgeStream::new(8, 1200).with_seed(11);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
        let mut epochs = 0usize;
        let report = EventPipeline::new(300)
            .run_applied(
                churn,
                &mut partitioner,
                &mut distributed,
                |dg, batch, metrics, stats| {
                    assert!(metrics.edge_imbalance >= 1.0);
                    assert_eq!(dg.num_workers(), 4);
                    if batch.is_empty() {
                        assert_eq!(stats.workers_touched, 0);
                    } else {
                        epochs += 1;
                        assert!(stats.workers_touched >= 1 && stats.workers_touched <= 4);
                        assert_eq!(stats.edges_added, batch.added().len());
                        assert_eq!(stats.edges_removed, batch.removed().len());
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert!(report.batches().len() >= epochs);
        assert_eq!(distributed.epoch(), epochs, "only non-empty batches count");
        assert_eq!(distributed.num_edges(), partitioner.live_edges());
    }

    #[test]
    fn every_batch_records_a_partition_decide_span_before_its_apply() {
        use ebv_obs::Telemetry;

        let stream = RmatEdgeStream::new(8, 1200).with_seed(11);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
        let telemetry = Telemetry::isolated();
        let report = EventPipeline::new(300)
            .run_applied_opts(
                churn,
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| Ok(()),
                EpochOptions::new().recorder(&telemetry),
            )
            .unwrap();

        let spans = telemetry.spans();
        let of = |phase: Phase| -> Vec<SpanCtx> {
            let matching = spans.iter().filter(|span| span.phase == phase);
            matching.map(|span| span.ctx).collect()
        };
        let decides = of(Phase::PartitionDecide);
        // One span per batch, on the same track and epoch as the apply it
        // precedes, in batch order.
        assert_eq!(decides.len(), report.batches().len());
        assert_eq!(decides, of(Phase::EpochApply));
        for (index, ctx) in decides.iter().enumerate() {
            assert_eq!(ctx.superstep, index as u32);
            assert_eq!(ctx.worker, 4);
        }
        for pair in spans.windows(2) {
            if pair[1].phase == Phase::EpochApply && pair[0].phase == Phase::PartitionDecide {
                assert!(pair[0].start_nanos + pair[0].duration_nanos <= pair[1].start_nanos);
            }
        }
        let decide_seconds = telemetry.phase_totals()[Phase::PartitionDecide.index()].1;
        assert!(decide_seconds > 0.0);
        let rate = telemetry
            .registry()
            .gauge("ebv_dynamic_partition_events_per_second")
            .get();
        assert!(rate > 0.0 && rate.is_finite(), "events/s gauge {rate}");
    }

    #[test]
    fn committer_stage_commits_after_each_applied_epoch() {
        use std::sync::Mutex;

        /// Records the graph epoch at each prepare, and at each commit with
        /// how many epochs `on_epoch` had completed by then.
        #[derive(Default)]
        struct RecordingCommitter {
            prepares: Mutex<Vec<usize>>,
            commits: Mutex<Vec<(usize, usize)>>,
        }

        impl EpochCommitter for RecordingCommitter {
            fn prepare_epoch<'a>(
                &'a self,
                distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                self.prepares.lock().unwrap().push(distributed.epoch());
                Box::new(move || {
                    let staged = STAGED.with(|s| *s.borrow());
                    self.commits
                        .lock()
                        .unwrap()
                        .push((distributed.epoch(), staged));
                })
            }
        }

        thread_local! {
            static STAGED: std::cell::RefCell<usize> = const { std::cell::RefCell::new(0) };
        }
        STAGED.with(|s| *s.borrow_mut() = 0);

        let stream = RmatEdgeStream::new(8, 1200).with_seed(11);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
        let committer = RecordingCommitter::default();
        EventPipeline::new(300)
            .run_applied_opts(
                churn,
                &mut partitioner,
                &mut distributed,
                |_, batch, _, _| {
                    if !batch.is_empty() {
                        STAGED.with(|s| *s.borrow_mut() += 1);
                    }
                    Ok(())
                },
                EpochOptions::new().committer(&committer),
            )
            .unwrap();
        let prepares = committer.prepares.into_inner().unwrap();
        let commits = committer.commits.into_inner().unwrap();
        assert_eq!(
            commits.len(),
            distributed.epoch(),
            "one commit per applied epoch"
        );
        for (i, &(epoch, staged)) in commits.iter().enumerate() {
            assert_eq!(epoch, i + 1, "commits tag consecutive epochs");
            assert_eq!(staged, i + 1, "commit runs after on_epoch staged the epoch");
        }
        let epochs: Vec<usize> = (1..=distributed.epoch()).collect();
        assert_eq!(
            prepares, epochs,
            "one prepare per applied epoch, post-apply"
        );

        // Batches of two: applied, fully cancelled, applied. The cancelled
        // batch reaches `on_epoch` but is neither prepared nor committed.
        let [a, b, c] = [(0u64, 1u64), (1, 2), (2, 3)].map(Edge::from);
        let source = events(vec![
            GraphEvent::Insert(a),
            GraphEvent::Insert(b),
            GraphEvent::Insert(c),
            GraphEvent::Delete(c),
            GraphEvent::Insert(c),
            GraphEvent::Delete(a),
        ]);
        let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(2, None, Vec::new()).unwrap();
        let committer = RecordingCommitter::default();
        let mut batches = 0;
        EventPipeline::new(2)
            .run_applied_opts(
                source,
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| {
                    batches += 1;
                    Ok(())
                },
                EpochOptions::new().committer(&committer),
            )
            .unwrap();
        assert_eq!(batches, 3);
        assert_eq!(committer.prepares.into_inner().unwrap(), vec![1, 2]);
        let committed = committer.commits.into_inner().unwrap();
        assert_eq!(
            committed.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn failed_on_epoch_skips_the_commit() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CountingCommitter {
            prepares: AtomicUsize,
            commits: AtomicUsize,
        }

        impl EpochCommitter for CountingCommitter {
            fn prepare_epoch<'a>(
                &'a self,
                _distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                self.prepares.fetch_add(1, Ordering::SeqCst);
                Box::new(|| {
                    self.commits.fetch_add(1, Ordering::SeqCst);
                })
            }
        }

        let stream = RmatEdgeStream::new(8, 600).with_seed(7);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let committer = CountingCommitter {
            prepares: AtomicUsize::new(0),
            commits: AtomicUsize::new(0),
        };
        let mut epochs = 0usize;
        let err = EventPipeline::new(200)
            .run_applied_opts(
                InsertEvents::new(stream),
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| {
                    epochs += 1;
                    if epochs == 2 {
                        return Err(DynamicError::InvalidParameter {
                            parameter: "sink",
                            message: "program failed".to_string(),
                        });
                    }
                    Ok(())
                },
                EpochOptions::new().committer(&committer),
            )
            .unwrap_err();
        assert!(err.to_string().contains("program failed"));
        // Both epochs were prepared beside their programs; epoch 1
        // committed, and epoch 2's failure left it unpublished.
        assert_eq!(committer.prepares.load(Ordering::SeqCst), 2);
        assert_eq!(committer.commits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_prepare_panics_the_loop_and_commits_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct PanickingPrepare {
            commits: AtomicUsize,
        }

        impl EpochCommitter for PanickingPrepare {
            fn prepare_epoch<'a>(
                &'a self,
                distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                // Only the first epoch's prepare fails: a loop that went on
                // past it would commit the next one.
                if distributed.epoch() == 1 {
                    panic!("prepare of epoch {} failed", distributed.epoch());
                }
                Box::new(|| {
                    self.commits.fetch_add(1, Ordering::SeqCst);
                })
            }
        }

        let stream = RmatEdgeStream::new(8, 600).with_seed(7);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let committer = PanickingPrepare {
            commits: AtomicUsize::new(0),
        };
        let mut programs = 0usize;
        let panic = catch_unwind(AssertUnwindSafe(|| {
            EventPipeline::new(200).run_applied_opts(
                InsertEvents::new(stream),
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| {
                    programs += 1;
                    Ok(())
                },
                EpochOptions::new().committer(&committer),
            )
        }))
        .expect_err("the helper's panic reaches the caller");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, "prepare of epoch 1 failed");
        // The first epoch's programs ran beside the prepare; the loop went
        // no further and committed nothing.
        assert_eq!(programs, 1);
        assert_eq!(committer.commits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn durable_runs_log_before_apply_and_mark_after_commit() {
        use std::sync::Mutex;

        /// Records the hook call sequence with enough context to check the
        /// write-ahead ordering contract.
        #[derive(Default)]
        struct RecordingHook {
            calls: Mutex<Vec<(String, u64, u64)>>,
        }

        impl DurabilityHook for RecordingHook {
            fn log_batch(
                &self,
                epoch: u64,
                events_seen: u64,
                _batch: &MutationBatch,
            ) -> std::io::Result<()> {
                self.calls
                    .lock()
                    .unwrap()
                    .push(("log".to_string(), epoch, events_seen));
                Ok(())
            }

            fn epoch_durable(
                &self,
                distributed: &DistributedGraph,
                partitioner: &DynamicPartitioner,
                events_seen: u64,
            ) -> std::io::Result<()> {
                assert_eq!(distributed.num_edges(), partitioner.live_edges());
                self.calls.lock().unwrap().push((
                    "durable".to_string(),
                    distributed.epoch() as u64,
                    events_seen,
                ));
                Ok(())
            }
        }

        struct NoopCommitter;
        impl EpochCommitter for NoopCommitter {
            fn prepare_epoch<'a>(
                &'a self,
                _distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                Box::new(|| {})
            }
        }

        let stream = RmatEdgeStream::new(8, 1200).with_seed(11);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
        let hook = RecordingHook::default();
        let offset = 40u64;
        let report = EventPipeline::new(300)
            .run_applied_durable(
                churn,
                &mut partitioner,
                &mut distributed,
                &NoopCommitter,
                &hook,
                offset,
                |_, _, _, _| Ok(()),
                &ebv_obs::NoopRecorder,
            )
            .unwrap();
        let calls = hook.calls.into_inner().unwrap();
        // Per applied epoch: one `log` (stamped with the epoch the batch
        // became) immediately followed by one `durable` at that epoch.
        assert_eq!(calls.len(), 2 * distributed.epoch());
        for (i, pair) in calls.chunks(2).enumerate() {
            let epoch = i as u64 + 1;
            assert_eq!(pair[0].0, "log");
            assert_eq!(pair[0].1, epoch, "WAL frame carries the post-apply epoch");
            assert_eq!(pair[1].0, "durable");
            assert_eq!(pair[1].1, epoch);
            assert_eq!(pair[0].2, pair[1].2, "both see the same event stamp");
        }
        // The cumulative stamp starts at the carried-over offset and ends
        // having counted every raw event of this run.
        let total_events = (report.total_inserts() + report.total_deletes()) as u64;
        assert_eq!(calls.last().unwrap().2, offset + total_events);
    }

    /// Durability is its own stage: the same write-ahead ordering holds
    /// with and without a committer, and a fully-cancelled batch reaches
    /// `on_epoch` but is neither logged, committed nor marked durable.
    #[test]
    fn durability_stage_orders_log_epoch_commit_durable_with_or_without_a_committer() {
        use std::sync::Mutex;

        struct Tracing<'a>(&'a Mutex<Vec<String>>);

        impl DurabilityHook for Tracing<'_> {
            fn log_batch(
                &self,
                epoch: u64,
                events_seen: u64,
                _batch: &MutationBatch,
            ) -> std::io::Result<()> {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("log {epoch} @{events_seen}"));
                Ok(())
            }

            fn epoch_durable(
                &self,
                distributed: &DistributedGraph,
                _partitioner: &DynamicPartitioner,
                events_seen: u64,
            ) -> std::io::Result<()> {
                let epoch = distributed.epoch();
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("durable {epoch} @{events_seen}"));
                Ok(())
            }
        }

        impl EpochCommitter for Tracing<'_> {
            fn prepare_epoch<'a>(
                &'a self,
                distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                Box::new(move || {
                    self.0
                        .lock()
                        .unwrap()
                        .push(format!("commit {}", distributed.epoch()));
                })
            }
        }

        let [a, b, c] = [(0u64, 1u64), (1, 2), (2, 3)].map(Edge::from);
        for with_committer in [false, true] {
            let trace = Mutex::new(Vec::new());
            let stages = Tracing(&trace);
            let mut options = EpochOptions::new().durability(&stages, 0);
            if with_committer {
                options = options.committer(&stages);
            }
            // Batches of two: applied, fully cancelled, applied.
            let source = events(vec![
                GraphEvent::Insert(a),
                GraphEvent::Insert(b),
                GraphEvent::Insert(c),
                GraphEvent::Delete(c),
                GraphEvent::Insert(c),
                GraphEvent::Delete(a),
            ]);
            let mut partitioner = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
            let mut distributed =
                ebv_bsp::DistributedGraph::build_streaming(2, None, Vec::new()).unwrap();
            EventPipeline::new(2)
                .run_applied_opts(
                    source,
                    &mut partitioner,
                    &mut distributed,
                    |dg, batch, _, _| {
                        let kind = if batch.is_empty() { "empty" } else { "epoch" };
                        trace.lock().unwrap().push(format!("{kind} {}", dg.epoch()));
                        Ok(())
                    },
                    options,
                )
                .unwrap();
            let mut expected = vec![
                "log 1 @2",
                "epoch 1",
                "commit 1",
                "durable 1 @2",
                "empty 1",
                // The cancelled batch's two raw events still count.
                "log 2 @6",
                "epoch 2",
                "commit 2",
                "durable 2 @6",
            ];
            if !with_committer {
                expected.retain(|entry| !entry.starts_with("commit"));
            }
            assert_eq!(
                trace.into_inner().unwrap(),
                expected,
                "committer: {with_committer}"
            );
        }
    }

    #[test]
    fn failed_log_batch_aborts_before_the_batch_is_applied() {
        struct FailingHook;
        impl DurabilityHook for FailingHook {
            fn log_batch(
                &self,
                _epoch: u64,
                _events_seen: u64,
                _batch: &MutationBatch,
            ) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }

            fn epoch_durable(
                &self,
                _distributed: &DistributedGraph,
                _partitioner: &DynamicPartitioner,
                _events_seen: u64,
            ) -> std::io::Result<()> {
                panic!("epoch_durable must not run when the log failed");
            }
        }

        struct NoopCommitter;
        impl EpochCommitter for NoopCommitter {
            fn prepare_epoch<'a>(
                &'a self,
                _distributed: &'a DistributedGraph,
            ) -> Box<dyn FnOnce() + Send + 'a> {
                panic!("neither prepare nor commit may run when the log failed");
            }
        }

        let stream = RmatEdgeStream::new(8, 600).with_seed(7);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        let err = EventPipeline::new(200)
            .run_applied_durable(
                InsertEvents::new(stream),
                &mut partitioner,
                &mut distributed,
                &NoopCommitter,
                &FailingHook,
                0,
                |_, _, _, _| panic!("on_epoch must not run when the log failed"),
                &ebv_obs::NoopRecorder,
            )
            .unwrap_err();
        assert!(matches!(err, DynamicError::Durability(_)), "{err}");
        assert!(err.to_string().contains("disk full"));
        // Write-ahead means the unlogged batch never mutated the graph.
        assert_eq!(distributed.epoch(), 0);
        assert_eq!(distributed.num_edges(), 0);
    }

    #[test]
    fn confined_batches_touch_exactly_one_worker() {
        let stream = RmatEdgeStream::new(9, 4_000).with_seed(21);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let mut distributed =
            ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        EventPipeline::new(500)
            .run_applied(
                InsertEvents::new(stream),
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| Ok(()),
            )
            .unwrap();
        let target = ebv_partition::PartitionId::new(2);
        let batch = confined_deletion_batch(&mut partitioner, target, 64).unwrap();
        assert!(!batch.is_empty() && batch.len() <= 64);
        assert!(batch.added().is_empty());
        assert!(batch.removed().iter().all(|&(_, part)| part == target));
        let stats = distributed.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1);
        assert_eq!(distributed.num_edges(), partitioner.live_edges());
    }

    #[test]
    fn plan_batches_replay_migrations() {
        let stream = RmatEdgeStream::new(8, 800).with_seed(6);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(stream.stream_config(4))
            .unwrap();
        let churn = ChurnStream::new(stream, 0.3).unwrap().with_seed(1);
        EventPipeline::new(200)
            .run(churn, &mut partitioner, |_, _| Ok(()))
            .unwrap();
        // Starve partitions 1..4 to force a skew, then rebalance.
        let victims: Vec<Edge> = partitioner
            .surviving()
            .filter(|(_, part)| part.index() != 0)
            .map(|(e, _)| e)
            .collect();
        for e in victims.iter().take(victims.len() * 4 / 5) {
            partitioner.delete(*e).unwrap();
        }
        let plan = partitioner
            .rebalance(&RebalanceConfig::new().with_max_edge_imbalance(1.2))
            .unwrap();
        assert!(!plan.is_empty());
        let batch = batch_from_plan(&plan);
        assert_eq!(batch.added().len(), plan.len());
        assert_eq!(batch.removed().len(), plan.len());
    }
}
