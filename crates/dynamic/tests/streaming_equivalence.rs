//! Property tests: a stream is an insert-only epoch.
//!
//! Partitioning a stream is *the same computation* as partitioning a
//! materialized graph: the graph's edges, fed as insert events through the
//! [`EventPipeline`] into the one online partitioner, reproduce batch EBV
//! under input order and batch HDRF — same assignments, same metrics —
//! whatever the graph family, partition count or batch size.

use proptest::prelude::*;

use ebv_dynamic::{EventPipeline, EventReport, InsertEvents};
use ebv_graph::generators::{ErdosRenyiGenerator, GraphGenerator, RmatGenerator};
use ebv_graph::{Edge, Graph, GraphEdgeSource};
use ebv_partition::{
    DynamicPartitioner, EbvPartitioner, HdrfPartitioner, PartitionId, PartitionMetrics,
    Partitioner, StreamConfig,
};

/// Strategy: a power-law (R-MAT) or uniform (Erdős–Rényi) graph of modest
/// size — the two families the paper's evaluation spans.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (0u8..2, 5u32..9, 2u64..9, 0u64..1000).prop_filter_map(
        "generator configurations are valid by construction",
        |(family, scale, avg_degree, seed)| {
            let graph = match family {
                0 => RmatGenerator::new(scale, avg_degree as usize)
                    .with_seed(seed)
                    .generate(),
                _ => {
                    let n = 1usize << scale;
                    ErdosRenyiGenerator::new(n, n * avg_degree as usize)
                        .with_seed(seed)
                        .generate()
                }
            };
            graph.ok()
        },
    )
}

/// What one pipeline run carried: the report, the `(edge, partition)` pairs
/// its batches carried in stream order, and the metrics handed over with
/// each batch.
struct Streamed {
    report: EventReport,
    carried: Vec<(Edge, PartitionId)>,
    metrics: Vec<PartitionMetrics>,
}

/// Streams `graph`'s edges in input order through an [`EventPipeline`] of
/// `batch_size` events into `partitioner`.
fn stream_through(
    graph: &Graph,
    partitioner: &mut DynamicPartitioner,
    batch_size: usize,
) -> Streamed {
    let (mut carried, mut metrics) = (Vec::new(), Vec::new());
    let report = EventPipeline::new(batch_size)
        .run(
            InsertEvents::new(GraphEdgeSource::new(graph)),
            partitioner,
            |batch, batch_metrics| {
                assert!(batch.removed().is_empty());
                carried.extend_from_slice(batch.added());
                metrics.push(batch_metrics);
                Ok(())
            },
        )
        .unwrap();
    Streamed {
        report,
        carried,
        metrics,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Online EBV with the source's exact hints produces the identical
    /// assignment — and therefore identical metrics — as batch EBV under
    /// `EdgeOrder::Input`, for any batch size; the batches carry every
    /// assignment in stream order.
    #[test]
    fn streaming_ebv_equals_batch_ebv(
        graph in arbitrary_graph(),
        p in 1usize..9,
        batch_size in 1usize..5000,
    ) {
        prop_assume!(p <= graph.num_edges());
        let batch = EbvPartitioner::new().unsorted().partition(&graph, p).unwrap();

        let config = StreamConfig::for_source(&GraphEdgeSource::new(&graph), p);
        let mut online = EbvPartitioner::new().unsorted().dynamic(config).unwrap();
        let run = stream_through(&graph, &mut online, batch_size);

        // Same assignments...
        let streamed = online.snapshot().unwrap();
        prop_assert_eq!(&streamed, &batch);
        let assignment = batch.as_vertex_cut().unwrap().assignment();
        let expected: Vec<(Edge, PartitionId)> =
            graph.edges().iter().copied().zip(assignment.iter().copied()).collect();
        prop_assert_eq!(run.carried, expected);
        // ...and exactly equal metrics, both through the batch metric
        // computation and through the pipeline's maintained metrics.
        let batch_metrics = PartitionMetrics::compute(&graph, &batch).unwrap();
        prop_assert_eq!(PartitionMetrics::compute(&graph, &streamed).unwrap(), batch_metrics);
        prop_assert_eq!(run.metrics.last(), Some(&batch_metrics));
        prop_assert_eq!(online.metrics(), batch_metrics);
    }

    /// HDRF is a one-pass algorithm: its online form equals its batch form
    /// edge for edge.
    #[test]
    fn streaming_hdrf_equals_batch(graph in arbitrary_graph(), p in 1usize..7) {
        prop_assume!(p <= graph.num_edges());
        let batch = HdrfPartitioner::new().partition(&graph, p).unwrap();
        let config = StreamConfig::for_source(&GraphEdgeSource::new(&graph), p);
        let mut online = HdrfPartitioner::new().dynamic(config).unwrap();
        stream_through(&graph, &mut online, 1024);
        prop_assert_eq!(online.snapshot().unwrap(), batch);
    }

    /// The event pipeline's batch size is invisible to an insert-only
    /// stream: any two batch sizes give the same partition.
    #[test]
    fn chunking_is_invisible(graph in arbitrary_graph(), p in 1usize..7, batch_size in 1usize..600) {
        prop_assume!(p <= graph.num_edges());
        let config = StreamConfig::for_source(&GraphEdgeSource::new(&graph), p);
        let mut single = EbvPartitioner::new().dynamic(config).unwrap();
        let one_batch = stream_through(&graph, &mut single, usize::MAX);
        let mut batched = EbvPartitioner::new().dynamic(config).unwrap();
        let run = stream_through(&graph, &mut batched, batch_size);
        prop_assert_eq!(single.snapshot().unwrap(), batched.snapshot().unwrap());
        prop_assert_eq!(one_batch.metrics.len(), 1);
        prop_assert_eq!(run.report.total_inserts(), graph.num_edges());
        prop_assert_eq!(run.metrics.len(), graph.num_edges().div_ceil(batch_size));
        prop_assert_eq!(run.metrics.last(), one_batch.metrics.last());
    }
}
