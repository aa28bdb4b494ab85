//! `batch_rmat` and `batch_road`: the paper's scenario. One step is the
//! whole batch path — EBV-sort partition, partition metrics, distribution,
//! cold CC, SSSP and PageRank published to a fresh snapshot store, commit,
//! read block — on a power-law R-MAT graph and on a road-like grid.
//!
//! The two graphs use the same code differently: R-MAT at scale 16 moves
//! millions of replica messages in a few dozen supersteps (per-message cost
//! dominates), the 160x150 grid runs a hundred nearly empty supersteps
//! (per-superstep overhead dominates), so a message-plane gain that taxes
//! every superstep shows as a regression on the grid.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ebv_algorithms::reference::{cc_reference, pagerank_reference, sssp_reference};
use ebv_algorithms::{ranks, ConnectedComponents, PageRank, SingleSourceShortestPath, UNREACHABLE};
use ebv_bsp::{DistributedGraph, EpochCommitter, RunOptions};
use ebv_graph::generators::{GraphGenerator, GridGenerator};
use ebv_graph::{Edge, Graph, GraphBuilder, VertexId};
use ebv_obs::{NoopRecorder, Recorder};
use ebv_partition::{EbvPartitioner, EdgeOrder, PartitionMetrics, Partitioner};
use ebv_serve::SnapshotStore;
use ebv_stream::{BinaryEdgeReader, BinaryEdgeWriter, EdgeSource, RmatEdgeStream};

use crate::estimator::median;
use crate::harness::{
    engine, Check, Counters, Fingerprint, Meter, PassRecord, Result, Workload, WORKERS,
};
use crate::machine::Machine;
use crate::reads::{read_block, Expected, ReadScratch};
use crate::trace::Tracer;

/// ROADMAP's unit of account: scale-16 R-MAT, 500k edges.
const RMAT_SCALE: u32 = 16;
const RMAT_EDGES: usize = 500_000;
/// The repository's `usaroad-like` grid (paper Fig. 3) at half its full-scale
/// side: at 320x300 one step takes 2.6 s, too long to repeat within a run.
const ROAD_ROWS: usize = 160;
const ROAD_COLS: usize = 150;
const ROAD_DELETIONS: f64 = 0.05;
const PAGERANK_ITERATIONS: usize = 10;
const PAGERANK_DAMPING: f64 = 0.85;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchGraph {
    Rmat,
    Road,
}

pub struct Batch {
    pub graph: BatchGraph,
}

/// A binary edge file plus what a user would pass alongside it.
pub struct BatchInput {
    path: PathBuf,
    num_vertices: usize,
    /// SSSP source: the smallest vertex of the largest component, so no
    /// seed can park the source in a corner the grid's deletions cut off.
    source: VertexId,
    /// Seeds the read block's vertex choice.
    lcg: u64,
}

pub struct BatchEnd {
    distributed: DistributedGraph,
    cc: Vec<u64>,
    sssp: Vec<u64>,
    pagerank: Vec<f64>,
}

fn load_graph(input: &BatchInput, tracer: &Tracer) -> Result<Graph> {
    let mut builder = GraphBuilder::directed();
    {
        let _span = tracer.span("stream.read");
        let mut reader = BinaryEdgeReader::open(&input.path)?;
        while let Some(edge) = reader.next_edge() {
            builder.add_edge(edge?);
        }
    }
    let _span = tracer.span("graph.build");
    builder.num_vertices(input.num_vertices);
    Ok(builder.build()?)
}

impl Batch {
    fn step<R: Recorder>(
        &self,
        input: &BatchInput,
        graph: &Graph,
        recorder: &R,
        tracer: &Tracer,
    ) -> Result<(PassRecord, BatchEnd)> {
        let mut counters = Counters::default();
        let mut scratch = ReadScratch::new();
        let engine = engine();
        tracer.set_step(0);

        let meter = Meter::start();
        let step = tracer.span("step");
        let partition = tracer.time("partition.batch", || {
            EbvPartitioner::new().partition(graph, WORKERS)
        })?;
        let quality = tracer.time("partition.metrics", || {
            PartitionMetrics::compute(graph, &partition)
        })?;
        let distributed =
            tracer.time("bsp.build", || DistributedGraph::build(graph, &partition))?;
        let store = SnapshotStore::new();
        store.serve_adjacency(true);
        let cc = tracer.time("algorithms.cc", || {
            engine.run_opts(
                &distributed,
                &ConnectedComponents::new(),
                RunOptions::new()
                    .recorder(recorder)
                    .publish_to(&store.series_sink::<u64>("cc")),
            )
        })?;
        let sssp = tracer.time("algorithms.sssp", || {
            engine.run_opts(
                &distributed,
                &SingleSourceShortestPath::new(input.source),
                RunOptions::new()
                    .recorder(recorder)
                    .publish_to(&store.series_sink::<u64>("sssp").with_absent(UNREACHABLE)),
            )
        })?;
        let pagerank = tracer.time("algorithms.pr", || {
            engine.run_opts(
                &distributed,
                &PageRank::new(graph, PAGERANK_ITERATIONS),
                RunOptions::new()
                    .recorder(recorder)
                    .publish_to(&store.series_sink("pagerank")),
            )
        })?;
        tracer.time("serve.commit", || store.commit_epoch(&distributed));
        drop(step);
        let (step_ms, step_bytes) = meter.stop();

        for stats in [&cc.stats, &sssp.stats, &pagerank.stats] {
            counters.absorb_run(stats);
        }
        let pagerank = ranks(&pagerank.values);
        let expected = [
            Expected::U64 {
                name: "cc",
                values: &cc.values,
                absent: None,
            },
            Expected::U64 {
                name: "sssp",
                values: &sssp.values,
                absent: Some(UNREACHABLE),
            },
            Expected::F64 {
                name: "pagerank",
                values: &pagerank,
            },
        ];
        let handle = store.handle();
        let meter = Meter::start();
        let read = read_block(
            &handle,
            &expected,
            &distributed,
            input.lcg,
            &mut scratch,
            tracer,
        );
        let (_, read_bytes) = meter.stop();

        let mut fingerprint = Fingerprint::new();
        fingerprint.words(&cc.values);
        fingerprint.words(&sssp.values);
        pagerank
            .iter()
            .for_each(|rank| fingerprint.word(rank.to_bits()));
        fingerprint.quality(&quality);
        fingerprint.word(counters.messages);
        fingerprint.word(distributed.num_edges() as u64);
        let record = PassRecord {
            step_ms: vec![step_ms],
            reads: vec![read],
            alloc_bytes: step_bytes + read_bytes,
            quality,
            fingerprint: fingerprint.finish(),
            counters,
        };
        let end = BatchEnd {
            distributed,
            cc: cc.values,
            sssp: sssp.values,
            pagerank,
        };
        Ok((record, end))
    }
}

impl Workload for Batch {
    type Input = BatchInput;
    type State = Graph;
    type End = BatchEnd;

    fn steps(&self) -> usize {
        1
    }

    fn setup_reps(&self) -> usize {
        5
    }

    fn generate(&self, seed: u64, dir: &Path) -> Result<BatchInput> {
        let (edges, num_vertices): (Vec<Edge>, usize) = match self.graph {
            BatchGraph::Rmat => {
                let mut stream = RmatEdgeStream::new(RMAT_SCALE, RMAT_EDGES).with_seed(seed);
                let mut edges = Vec::with_capacity(RMAT_EDGES);
                while let Some(edge) = stream.next_edge() {
                    edges.push(edge?);
                }
                (edges, 1 << RMAT_SCALE)
            }
            BatchGraph::Road => {
                let grid = GridGenerator::new(ROAD_ROWS, ROAD_COLS)
                    .with_deletion_probability(ROAD_DELETIONS)
                    .with_seed(seed)
                    .generate()?;
                (grid.edges().to_vec(), grid.num_vertices())
            }
        };
        let path = dir.join("input.bin");
        let mut writer = BinaryEdgeWriter::create(&path)?;
        for &edge in &edges {
            writer.write_edge(edge)?;
        }
        writer.finish()?;

        let mut builder = GraphBuilder::directed();
        builder.num_vertices(num_vertices);
        edges.iter().for_each(|&edge| {
            builder.add_edge(edge);
        });
        let labels = cc_reference(&builder.build()?);
        let mut sizes = vec![0usize; num_vertices];
        labels.iter().for_each(|&label| sizes[label as usize] += 1);
        // A component's label is its smallest vertex.
        let largest = (0..num_vertices)
            .max_by_key(|&label| (sizes[label], std::cmp::Reverse(label)))
            .expect("the graph has vertices");
        Ok(BatchInput {
            path,
            num_vertices,
            source: VertexId::new(largest as u64),
            lcg: seed,
        })
    }

    fn setup(&self, input: &BatchInput, _dir: &Path, tracer: &Tracer) -> Result<Graph> {
        let graph = load_graph(input, tracer)?;
        self.step(input, &graph, &NoopRecorder, &Tracer::disabled())?;
        Ok(graph)
    }

    fn pass<R: Recorder>(
        &self,
        input: &BatchInput,
        graph: &Graph,
        _dir: &Path,
        recorder: &R,
        tracer: &Tracer,
        machine: &Machine,
    ) -> Result<(PassRecord, BatchEnd)> {
        machine.sample();
        self.step(input, graph, recorder, tracer)
    }

    fn verify(&self, input: &BatchInput, graph: &Graph, end: &BatchEnd) -> Result<Vec<Check>> {
        let reference = pagerank_reference(graph, PAGERANK_ITERATIONS, PAGERANK_DAMPING);
        let pagerank_close = end.pagerank.len() == reference.len()
            && end
                .pagerank
                .iter()
                .zip(&reference)
                .all(|(got, want)| (got - want).abs() < 1e-9);
        Ok(vec![
            Check {
                name: "cc == cc_reference",
                ok: end.cc == cc_reference(graph),
            },
            Check {
                name: "sssp == sssp_reference",
                ok: end.sssp == sssp_reference(graph, input.source),
            },
            Check {
                name: "pagerank ~ pagerank_reference",
                ok: pagerank_close,
            },
            Check {
                name: "distribution holds every edge",
                ok: end.distributed.num_edges() == graph.num_edges(),
            },
        ])
    }

    fn end_graph<'a>(&self, end: &'a BatchEnd) -> &'a DistributedGraph {
        &end.distributed
    }

    /// The paper's degree-sum sort runs inside `partition`, out of a span's
    /// reach, so it is timed on its own.
    fn partition_order_ms(&self, graph: &Graph) -> f64 {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(EdgeOrder::DegreeSumAscending.arrange_indices(graph));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    }
}
