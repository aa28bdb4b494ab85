//! End-to-end streaming pipeline: generator stream → online EBV →
//! incremental distributed graph → Connected Components, without ever
//! materializing the global edge vector on the streaming path.
//!
//! A stream is an insert-only event sequence, so the online partitioner is
//! the `DynamicPartitioner` fed nothing but inserts. The example also
//! replays the same deterministic stream into a batch graph to demonstrate
//! the central guarantee: with exact hints, online EBV is *bit-identical* to
//! batch EBV under input order — same assignments, same replication factor,
//! same imbalance factors.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```

use std::time::Instant;

use ebv::algorithms::ConnectedComponents;
use ebv::bsp::{BspEngine, DistributedGraph};
use ebv::graph::{EdgeSource, GraphBuilder, RmatEdgeStream};
use ebv::partition::{EbvPartitioner, PartitionMetrics, Partitioner, StreamConfig};

const SCALE: u32 = 18; // 262 144 vertices
const NUM_EDGES: usize = 1_100_000;
const WORKERS: usize = 8;
const CHUNK_SIZE: usize = 1 << 16;
const SEED: u64 = 20_210_707;

fn stream() -> RmatEdgeStream {
    RmatEdgeStream::new(SCALE, NUM_EDGES).with_seed(SEED)
}

fn print_metrics(chunk: usize, edges: usize, metrics: PartitionMetrics) {
    println!(
        "{chunk:>5}  {edges:>9}  {:.4}  {:.4}  {:.4}",
        metrics.replication_factor, metrics.edge_imbalance, metrics.vertex_imbalance,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "streaming pipeline: {NUM_EDGES} R-MAT edges over 2^{SCALE} vertices, \
         {WORKERS} workers, metrics every {CHUNK_SIZE} edges\n"
    );

    // ── Streaming path ────────────────────────────────────────────────────
    // generator → DynamicPartitioner::insert → DistributedGraphBuilder, one
    // edge at a time. Peak memory: partitioner state + the per-worker
    // subgraphs under construction.
    let mut source = stream();
    let mut partitioner =
        EbvPartitioner::new().dynamic(StreamConfig::for_source(&source, WORKERS))?;
    let mut builder = DistributedGraph::builder(WORKERS)?.with_num_vertices(1 << SCALE);

    println!("chunk  edges      rf      e-imb   v-imb");
    let started = Instant::now();
    let mut edges = 0;
    while let Some(edge) = source.next_edge() {
        let edge = edge?;
        builder.add_edge(edge, partitioner.insert(edge))?;
        edges += 1;
        if edges % CHUNK_SIZE == 0 {
            print_metrics(edges / CHUNK_SIZE - 1, edges, partitioner.metrics());
        }
    }
    let online_metrics = partitioner.metrics();
    if edges % CHUNK_SIZE != 0 {
        print_metrics(edges / CHUNK_SIZE, edges, online_metrics);
    }
    let online_result = partitioner.snapshot()?;
    let distributed = builder.finish()?;
    let streaming_elapsed = started.elapsed();
    println!(
        "\nstreamed {edges} edges in {streaming_elapsed:.2?} ({:.2e} edges/s)\n",
        edges as f64 / streaming_elapsed.as_secs_f64(),
    );

    // ── Batch reference ───────────────────────────────────────────────────
    // Replay the identical deterministic stream into a materialized graph
    // and run batch EBV under input order.
    let mut graph_builder = GraphBuilder::directed();
    let mut source = stream();
    while let Some(edge) = source.next_edge() {
        graph_builder.add_edge(edge?);
    }
    graph_builder.num_vertices(1 << SCALE);
    let graph = graph_builder.build()?;
    let batch_result = EbvPartitioner::new()
        .unsorted()
        .partition(&graph, WORKERS)?;
    let batch_metrics = PartitionMetrics::compute(&graph, &batch_result)?;

    // ── Exactness check ───────────────────────────────────────────────────
    assert_eq!(
        online_result, batch_result,
        "online EBV must be bit-identical to batch EBV under input order"
    );
    assert_eq!(online_metrics, batch_metrics);
    println!("online == batch: identical assignments and exactly equal metrics");
    println!(
        "  replication factor {:.4}, edge imbalance {:.4}, vertex imbalance {:.4}\n",
        batch_metrics.replication_factor,
        batch_metrics.edge_imbalance,
        batch_metrics.vertex_imbalance,
    );

    // ── BSP application on the streamed distribution ──────────────────────
    let started = Instant::now();
    let outcome = BspEngine::threaded().run(&distributed, &ConnectedComponents::new())?;
    let cc_elapsed = started.elapsed();
    let mut roots: Vec<u64> = outcome.values.clone();
    roots.sort_unstable();
    roots.dedup();
    println!(
        "CC over the streamed distribution: {} components in {} supersteps ({cc_elapsed:.2?})",
        roots.len(),
        outcome.supersteps,
    );
    Ok(())
}
