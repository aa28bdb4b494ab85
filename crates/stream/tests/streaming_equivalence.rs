//! Property tests: the streaming subsystem reproduces the batch results.
//!
//! The central claim of the `ebv-stream` subsystem is that partitioning a
//! stream is *the same computation* as partitioning a materialized graph:
//! streaming EBV equals batch EBV (same assignments, same metrics) under
//! input order, regardless of graph family, partition count or chunking.

use proptest::prelude::*;

use ebv_graph::generators::{ErdosRenyiGenerator, GraphGenerator, RmatGenerator};
use ebv_graph::Graph;
use ebv_partition::{
    EbvPartitioner, HdrfPartitioner, PartitionMetrics, Partitioner, RandomVertexCutPartitioner,
};
use ebv_stream::{ChunkedPipeline, EdgeSource, GraphEdgeSource};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming EBV produces the identical assignment — and therefore
    /// identical metrics — as batch EBV under `EdgeOrder::Input`, for any
    /// chunk size.
    #[test]
    fn streaming_ebv_equals_batch_ebv(
        graph in arbitrary_graph(),
        p in 1usize..9,
        chunk_size in 1usize..5000,
    ) {
        prop_assume!(p <= graph.num_edges());
        let batch = EbvPartitioner::new().unsorted().partition(&graph, p).unwrap();

        let source = GraphEdgeSource::new(&graph);
        let mut streaming = EbvPartitioner::new()
            .unsorted()
            .streaming(source.stream_config(p))
            .unwrap();
        let (streamed, run) = ChunkedPipeline::new(chunk_size)
            .partition_stream(source, &mut streaming)
            .unwrap();

        // Same assignments...
        prop_assert_eq!(&streamed, &batch);
        // ...and exactly equal metrics, both through the batch metric
        // computation and through the pipeline's running delta-metrics.
        let batch_metrics = PartitionMetrics::compute(&graph, &batch).unwrap();
        let streamed_metrics = PartitionMetrics::compute(&graph, &streamed).unwrap();
        prop_assert_eq!(batch_metrics, streamed_metrics);
        let delta = run.final_metrics().unwrap();
        prop_assert_eq!(delta.replication_factor, batch_metrics.replication_factor);
        prop_assert_eq!(delta.edge_imbalance, batch_metrics.edge_imbalance);
        prop_assert_eq!(delta.vertex_imbalance, batch_metrics.vertex_imbalance);
    }

    /// HDRF and Random are one-pass algorithms: their streaming forms equal
    /// their batch forms edge for edge.
    #[test]
    fn streaming_hdrf_and_random_equal_batch(graph in arbitrary_graph(), p in 1usize..7) {
        prop_assume!(p <= graph.num_edges());
        let source = GraphEdgeSource::new(&graph);

        let batch = HdrfPartitioner::new().partition(&graph, p).unwrap();
        let mut streaming = HdrfPartitioner::new()
            .streaming(source.stream_config(p))
            .unwrap();
        let (streamed, _) = ChunkedPipeline::new(1024)
            .partition_stream(source.clone(), &mut streaming)
            .unwrap();
        prop_assert_eq!(streamed, batch);

        let batch = RandomVertexCutPartitioner::new().partition(&graph, p).unwrap();
        let mut streaming = RandomVertexCutPartitioner::new()
            .streaming(source.stream_config(p))
            .unwrap();
        let (streamed, _) = ChunkedPipeline::new(1024)
            .partition_stream(source, &mut streaming)
            .unwrap();
        prop_assert_eq!(streamed, batch);
    }

    /// The chunked pipeline is chunking-invariant: any two chunk sizes give
    /// the same partition for the same stream.
    #[test]
    fn chunking_is_invisible(graph in arbitrary_graph(), p in 1usize..7, chunk_size in 1usize..600) {
        prop_assume!(p <= graph.num_edges());
        let source = GraphEdgeSource::new(&graph);
        let mut single = EbvPartitioner::new()
            .streaming(source.stream_config(p))
            .unwrap();
        let (one_chunk, _) = ChunkedPipeline::new(usize::MAX)
            .partition_stream(source.clone(), &mut single)
            .unwrap();
        let mut chunked = EbvPartitioner::new()
            .streaming(source.stream_config(p))
            .unwrap();
        let (many_chunks, run) = ChunkedPipeline::new(chunk_size)
            .partition_stream(source, &mut chunked)
            .unwrap();
        prop_assert_eq!(one_chunk, many_chunks);
        prop_assert_eq!(run.total_edges(), graph.num_edges());
        prop_assert_eq!(
            run.chunks().len(),
            graph.num_edges().div_ceil(chunk_size)
        );
    }
}
