//! The event loop's own suite: batching and cancellation, the insert-only
//! stream, applied epochs and their stage order (telemetry, commit,
//! durability), and migration replay.

use super::*;
use crate::churn::ChurnStream;
use crate::event::{events, GraphEvent, InsertEvents};
use ebv_graph::generators::{GraphGenerator, RmatGenerator};
use ebv_graph::{pairs, Edge, GraphEdgeSource, RmatEdgeStream};
use ebv_partition::{EbvPartitioner, PartitionError, RebalanceConfig, StreamConfig};

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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut batches = Vec::new();
    EventPipeline::new(256)
        .run(
            InsertEvents::new(stream),
            &mut partitioner,
            |batch, metrics| {
                batches.push((batch.added().len(), metrics));
                Ok(())
            },
        )
        .unwrap();
    // 1000 = 3 × 256 + 232: four batches, the last one short.
    assert_eq!(batches.len(), 4);
    assert_eq!(batches[3].0, 1000 - 3 * 256);
    assert_eq!(batches[3].1, partitioner.metrics());
}

#[test]
fn chunk_size_does_not_change_the_result() {
    let graph = RmatGenerator::new(8, 8).with_seed(6).generate().unwrap();
    let run = |batch_size: usize| {
        let source = GraphEdgeSource::new(&graph);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&source, 4))
            .unwrap();
        let mut carried = 0;
        let report = EventPipeline::new(batch_size)
            .run(InsertEvents::new(source), &mut partitioner, |batch, _| {
                carried += batch.added().len();
                Ok(())
            })
            .unwrap();
        (partitioner.snapshot().unwrap(), report, carried)
    };
    let (reference, _, _) = run(usize::MAX);
    // 1 exercises the degenerate batching, 7 a non-divisor, 64 an exact
    // divisor of 1024-edge scales, huge a single batch.
    for batch_size in [1usize, 7, 64, 1 << 20] {
        let (result, report, carried) = run(batch_size);
        assert_eq!(result, reference, "batch size {batch_size}");
        assert_eq!(report.total_inserts(), graph.num_edges());
        assert_eq!(carried, graph.num_edges());
    }
}

#[test]
fn chunk_reports_cover_boundaries() {
    let source = RmatEdgeStream::new(7, 1000).with_seed(2);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&source, 4))
        .unwrap();
    let mut added_per_batch = Vec::new();
    let mut replication = Vec::new();
    let report = EventPipeline::new(256)
        .run(
            InsertEvents::new(source),
            &mut partitioner,
            |batch, metrics| {
                assert!(batch.removed().is_empty());
                added_per_batch.push(batch.added().len());
                replication.push(metrics.replication_factor);
                Ok(())
            },
        )
        .unwrap();
    // 1000 = 3 × 256 + 232: four batches, the last one short.
    assert_eq!(added_per_batch, [256, 256, 256, 1000 - 3 * 256]);
    assert_eq!(report.total_deletes(), 0);
    assert_eq!(partitioner.live_edges(), 1000);
    // Replication factor is non-decreasing batch over batch.
    for w in replication.windows(2) {
        assert!(w[0] <= w[1] + 1e-12);
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
        .dynamic(StreamConfig::for_source(&source, 3))
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
    assert_eq!(report, EventReport::default());
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
    let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
    let (mut batches, mut epochs) = (0usize, 0usize);
    EventPipeline::new(300)
        .run_applied(
            churn,
            &mut partitioner,
            &mut distributed,
            |dg, batch, metrics, stats| {
                batches += 1;
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
    assert!(batches >= epochs);
    assert_eq!(distributed.epoch(), epochs, "only non-empty batches count");
    assert_eq!(distributed.num_edges(), partitioner.live_edges());
}

#[test]
fn every_batch_records_a_partition_decide_span_before_its_apply() {
    use ebv_obs::Telemetry;

    let stream = RmatEdgeStream::new(8, 1200).with_seed(11);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
    let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(3);
    let telemetry = Telemetry::isolated();
    let mut batches = 0;
    EventPipeline::new(300)
        .run_applied_opts(
            churn,
            &mut partitioner,
            &mut distributed,
            |_, _, _, _| {
                batches += 1;
                Ok(())
            },
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
    assert_eq!(decides.len(), batches);
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(2, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = ebv_bsp::DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
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
        .dynamic(StreamConfig::for_source(&stream, 4))
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
