//! The chunked streaming pipeline: reader → streaming partitioner → sink.

use ebv_graph::Edge;
use ebv_obs::{NoopRecorder, Phase, Recorder, SpanCtx};
use ebv_partition::{PartitionId, PartitionResult, StreamingMetrics, StreamingPartitioner};

use crate::error::{Result, StreamError};
use crate::source::EdgeSource;

/// Drives an [`EdgeSource`] through a
/// [`StreamingPartitioner`] in fixed-size chunks.
///
/// The pipeline buffers at most `chunk_size` edges at a time — peak memory
/// is O(chunk + partitioner state), independent of the stream length — and
/// records the running delta-metrics (replication factor, edge/vertex
/// imbalance) after every chunk, giving the replication-growth view of the
/// paper's Figure 5 for free.
///
/// # Examples
///
/// ```
/// use ebv_partition::{EbvPartitioner, StreamingPartitioner};
/// use ebv_stream::{ChunkedPipeline, EdgeSource, RmatEdgeStream};
///
/// # fn main() -> Result<(), ebv_stream::StreamError> {
/// let stream = RmatEdgeStream::new(10, 20_000).with_seed(7);
/// let mut partitioner = EbvPartitioner::new().streaming(stream.stream_config(8))?;
/// let (result, run) = ChunkedPipeline::new(4096).partition_stream(stream, &mut partitioner)?;
/// assert_eq!(result.num_partitions(), 8);
/// assert_eq!(run.total_edges(), 20_000);
/// assert!(run.final_metrics().unwrap().edge_imbalance < 1.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedPipeline {
    chunk_size: usize,
}

impl ChunkedPipeline {
    /// Creates a pipeline processing `chunk_size` edges per chunk.
    pub fn new(chunk_size: usize) -> Self {
        ChunkedPipeline { chunk_size }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Streams every edge of `source` through `partitioner`, invoking
    /// `sink(edge, partition)` for each assignment in stream order. Returns
    /// the per-chunk report; call
    /// [`partitioner.finish()`](StreamingPartitioner::finish) afterwards
    /// for the [`PartitionResult`] (or use
    /// [`partition_stream`](Self::partition_stream)).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidParameter`] for a zero chunk size and
    /// propagates source errors; edges ingested before the failure remain
    /// in the partitioner.
    pub fn run<S, F>(
        &self,
        source: S,
        partitioner: &mut dyn StreamingPartitioner,
        sink: F,
    ) -> Result<PipelineRun>
    where
        S: EdgeSource,
        F: FnMut(Edge, PartitionId),
    {
        self.run_with(source, partitioner, sink, &NoopRecorder)
    }

    /// [`run`](Self::run) with telemetry: every chunk's ingest is recorded
    /// as a `chunk_ingest` span (superstep = chunk index), the total
    /// ingested-edge counter accumulates, and the running replication
    /// factor is exported as the `ebv_stream_replication_factor` gauge.
    ///
    /// Instrumentation does not perturb the run: assignments, reports and
    /// the final partition are bit-identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Exactly as [`run`](Self::run).
    pub fn run_with<S, F, R>(
        &self,
        mut source: S,
        partitioner: &mut dyn StreamingPartitioner,
        mut sink: F,
        recorder: &R,
    ) -> Result<PipelineRun>
    where
        S: EdgeSource,
        F: FnMut(Edge, PartitionId),
        R: Recorder,
    {
        if self.chunk_size == 0 {
            return Err(StreamError::InvalidParameter {
                parameter: "chunk_size",
                message: "the chunk size must be at least 1".to_string(),
            });
        }
        // Cap the pre-allocation: a huge chunk size is a valid way to ask
        // for "one chunk", not a promise about the stream length.
        let mut chunk: Vec<Edge> = Vec::with_capacity(self.chunk_size.min(1 << 16));
        let mut chunks: Vec<ChunkReport> = Vec::new();
        let mut total_edges = 0usize;
        loop {
            chunk.clear();
            while chunk.len() < self.chunk_size {
                match source.next_edge() {
                    Some(Ok(edge)) => chunk.push(edge),
                    Some(Err(err)) => return Err(err),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }

            let started = recorder.start();
            for edge in &chunk {
                let part = partitioner.ingest(*edge);
                sink(*edge, part);
            }

            recorder.span(
                started,
                SpanCtx {
                    epoch: 0,
                    superstep: chunks.len() as u32,
                    worker: 0,
                },
                Phase::ChunkIngest,
            );
            total_edges += chunk.len();
            let metrics = partitioner.delta_metrics();
            recorder.counter_add("ebv_stream_edges_ingested_total", chunk.len() as u64);
            recorder.gauge_set("ebv_stream_replication_factor", metrics.replication_factor);
            chunks.push(ChunkReport {
                chunk_index: chunks.len(),
                edges_in_chunk: chunk.len(),
                metrics,
            });
        }
        Ok(PipelineRun {
            chunks,
            total_edges,
        })
    }

    /// Convenience form of [`run`](Self::run) for callers that only need the
    /// final partition: streams everything with a no-op sink and finishes
    /// the partitioner.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn partition_stream<S: EdgeSource>(
        &self,
        source: S,
        partitioner: &mut dyn StreamingPartitioner,
    ) -> Result<(PartitionResult, PipelineRun)> {
        let run = self.run(source, partitioner, |_, _| {})?;
        Ok((partitioner.finish()?, run))
    }
}

/// The running metrics recorded after one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkReport {
    /// 0-based index of the chunk.
    pub chunk_index: usize,
    /// Number of edges the chunk carried (only the final chunk may be
    /// short).
    pub edges_in_chunk: usize,
    /// Delta-metrics over the whole stream prefix after this chunk.
    pub metrics: StreamingMetrics,
}

/// The outcome of one pipeline run: how much was streamed, and the
/// delta-metrics trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    chunks: Vec<ChunkReport>,
    total_edges: usize,
}

impl PipelineRun {
    /// Per-chunk reports in stream order.
    pub fn chunks(&self) -> &[ChunkReport] {
        &self.chunks
    }

    /// Total number of edges streamed.
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// The metrics after the final chunk, or `None` for an empty stream.
    pub fn final_metrics(&self) -> Option<StreamingMetrics> {
        self.chunks.last().map(|c| c.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{pairs, GraphEdgeSource};
    use crate::synthetic::RmatEdgeStream;
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_partition::{EbvPartitioner, StreamConfig};

    #[test]
    fn chunk_size_does_not_change_the_result() {
        let graph = RmatGenerator::new(8, 8).with_seed(6).generate().unwrap();
        let reference = {
            let source = GraphEdgeSource::new(&graph);
            let mut partitioner = EbvPartitioner::new()
                .streaming(source.stream_config(4))
                .unwrap();
            ChunkedPipeline::new(usize::MAX)
                .partition_stream(source, &mut partitioner)
                .unwrap()
                .0
        };
        // 1 exercises the degenerate chunking, 7 a non-divisor, 64 an exact
        // divisor of 1024-edge scales, huge a single chunk.
        for chunk_size in [1usize, 7, 64, 1 << 20] {
            let source = GraphEdgeSource::new(&graph);
            let mut partitioner = EbvPartitioner::new()
                .streaming(source.stream_config(4))
                .unwrap();
            let (result, run) = ChunkedPipeline::new(chunk_size)
                .partition_stream(source, &mut partitioner)
                .unwrap();
            assert_eq!(result, reference, "chunk size {chunk_size}");
            assert_eq!(run.total_edges(), graph.num_edges());
            let reported: usize = run.chunks().iter().map(|c| c.edges_in_chunk).sum();
            assert_eq!(reported, graph.num_edges());
        }
    }

    #[test]
    fn chunk_reports_cover_boundaries() {
        let source = RmatEdgeStream::new(7, 1000).with_seed(2);
        let mut partitioner = EbvPartitioner::new()
            .streaming(source.stream_config(4))
            .unwrap();
        let (_, run) = ChunkedPipeline::new(256)
            .partition_stream(source, &mut partitioner)
            .unwrap();
        // 1000 = 3 × 256 + 232: four chunks, the last one short.
        assert_eq!(run.chunks().len(), 4);
        assert_eq!(run.chunks()[2].edges_in_chunk, 256);
        assert_eq!(run.chunks()[3].edges_in_chunk, 1000 - 3 * 256);
        assert_eq!(run.chunks()[3].metrics.edges_ingested, 1000);
        // Replication factor is non-decreasing chunk over chunk.
        for w in run.chunks().windows(2) {
            assert!(w[0].metrics.replication_factor <= w[1].metrics.replication_factor + 1e-12);
            assert!(w[0].chunk_index < w[1].chunk_index);
        }
    }

    #[test]
    fn empty_stream_produces_an_empty_run() {
        let mut partitioner = EbvPartitioner::new()
            .streaming(StreamConfig::new(3))
            .unwrap();
        let (result, run) = ChunkedPipeline::new(128)
            .partition_stream(pairs(Vec::new()), &mut partitioner)
            .unwrap();
        assert_eq!(run.total_edges(), 0);
        assert!(run.chunks().is_empty());
        assert_eq!(run.final_metrics(), None);
        assert_eq!(result.num_partitions(), 3);
        assert_eq!(result.as_vertex_cut().unwrap().num_edges(), 0);
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        let mut partitioner = EbvPartitioner::new()
            .streaming(StreamConfig::new(2))
            .unwrap();
        let err = ChunkedPipeline::new(0)
            .partition_stream(pairs(vec![(0, 1)]), &mut partitioner)
            .unwrap_err();
        assert!(matches!(err, StreamError::InvalidParameter { .. }));
    }

    #[test]
    fn sink_sees_every_assignment_in_stream_order() {
        let graph = RmatGenerator::new(7, 8).with_seed(4).generate().unwrap();
        let source = GraphEdgeSource::new(&graph);
        let mut partitioner = EbvPartitioner::new()
            .streaming(source.stream_config(3))
            .unwrap();
        let mut sunk = Vec::new();
        ChunkedPipeline::new(100)
            .run(source, &mut partitioner, |edge, part| {
                sunk.push((edge, part))
            })
            .unwrap();
        let result = partitioner.finish().unwrap();
        let vc = result.as_vertex_cut().unwrap();
        assert_eq!(sunk.len(), graph.num_edges());
        for (i, ((edge, part), expected)) in sunk.iter().zip(graph.edges()).enumerate() {
            assert_eq!(edge, expected, "edge {i}");
            assert_eq!(*part, vc.part_of(i), "edge {i}");
        }
    }
}
