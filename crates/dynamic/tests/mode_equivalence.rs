//! Property tests for the message plane and the lane crew: every parallel
//! engine — `threaded()` (as many lanes as the host's parallelism) and
//! `pooled(n)` swept over lane counts `{1, 2, p, p + 3}` — must be
//! **bit-identical** to `Sequential`: same per-vertex values *and* the same
//! [`ExecutionStats`] (work, updates, messages sent and received per worker
//! per superstep) — for CC, SSSP and PageRank, cold and warm, over churned
//! R-MAT distributions.
//!
//! The parallel path is a two-phase partitioned exchange over the
//! precomputed routing table, run by a scoped lane crew that places worker
//! `i` on lane `i mod L` in every round; any divergence in message routing,
//! merge order, lane placement leaking into results, or routing-table
//! staleness after `apply_mutations` (the warm re-runs mutate the
//! distribution between executions) shows up here as a value or counter
//! mismatch. One lane runs every worker on the calling thread (the
//! serialization extreme); `p + 3` asks for more lanes than there are
//! workers, and the crew opens only `p` (the oversubscribed extreme). Each
//! engine is built once per case and reused across every program and epoch
//! of it, the way a driver keeps its engine.

use proptest::prelude::*;

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, PageRank,
    SingleSourceShortestPath,
};
use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph, RunOptions, SubgraphProgram};
use ebv_dynamic::{ChurnStream, EventPipeline};
use ebv_graph::{Graph, GraphBuilder, RmatEdgeStream, VertexId};
use ebv_partition::{EbvPartitioner, StreamConfig};

/// The parallel engines every assertion compares against the sequential
/// reference: `threaded()` plus pooled engines of `{1, 2, p, p + 3}` lanes.
fn parallel_engines(p: usize) -> Vec<BspEngine> {
    let mut sizes = vec![1, 2, p, p + 3];
    sizes.dedup();
    let mut engines = vec![BspEngine::threaded()];
    engines.extend(sizes.into_iter().map(BspEngine::pooled));
    engines
}

/// The graph `distributed` holds: each owned local edge once, parallel
/// copies and self-loops kept, over its universe. A churned distribution
/// has no global graph, and PageRank reads this one's out-degrees.
fn graph_of(distributed: &DistributedGraph) -> Graph {
    let mut builder = GraphBuilder::directed();
    builder
        .allow_self_loops(true)
        .num_vertices(distributed.num_vertices());
    for sg in distributed.subgraphs() {
        for (edge_index, edge) in sg.edges().iter().enumerate() {
            if sg.owns_edge(edge_index) {
                builder.add_edge(*edge);
            }
        }
    }
    builder.build().unwrap()
}

/// Runs `program` (named `what` in failures) cold under every mode and
/// asserts bit-equality of values and of the whole counter structure
/// against the sequential reference.
fn assert_modes_agree<P>(
    engines: &[BspEngine],
    distributed: &DistributedGraph,
    what: &str,
    program: &P,
) -> BspOutcome<P::Value>
where
    P: SubgraphProgram,
    P::Value: PartialEq,
{
    let seq = BspEngine::sequential().run(distributed, program).unwrap();
    for engine in engines {
        let other = engine.run(distributed, program).unwrap();
        assert!(
            seq.values == other.values,
            "{what}: values diverged under {:?}",
            engine.mode()
        );
        assert_eq!(
            seq.stats,
            other.stats,
            "{what}: stats diverged under {:?}",
            engine.mode()
        );
        assert_eq!(seq.supersteps, other.supersteps);
    }
    seq
}

/// Same for a warm start from `prior`.
fn assert_modes_agree_warm<P>(
    engines: &[BspEngine],
    distributed: &DistributedGraph,
    what: &str,
    program: &P,
    prior: &[P::Value],
) -> BspOutcome<P::Value>
where
    P: SubgraphProgram,
    P::Value: PartialEq,
{
    let seq = BspEngine::sequential()
        .run_opts(distributed, program, RunOptions::new().warm_seed(prior))
        .unwrap();
    for engine in engines {
        let other = engine
            .run_opts(distributed, program, RunOptions::new().warm_seed(prior))
            .unwrap();
        assert!(
            seq.values == other.values,
            "{what}: warm values diverged under {:?}",
            engine.mode()
        );
        assert_eq!(
            seq.stats,
            other.stats,
            "{what}: warm stats diverged under {:?}",
            engine.mode()
        );
        assert_eq!(seq.supersteps, other.supersteps);
    }
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold and warm runs of CC, SSSP and PageRank produce
    /// bit-identical values and per-worker message counters under every
    /// execution mode — `threaded()` and {1, 2, p, p + 3} lanes,
    /// each reused for the whole case — across churned mutation epochs (the
    /// warm re-runs exercise the routing table each epoch re-derives).
    #[test]
    fn parallel_modes_are_bit_identical_to_sequential_cold_and_warm(
        scale in 5u32..8,
        num_edges in 80usize..400,
        seed in 0u64..500,
        churn in 1u32..6,
        p in 2usize..6,
        batch_size in 32usize..160,
    ) {
        let source = VertexId::new(0);
        let engines = parallel_engines(p);
        let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream, p))
            .unwrap();
        let mut distributed =
            DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();

        // Prior outcomes carried warm across the churned epochs.
        let mut labels =
            assert_modes_agree(&engines, &distributed, "CC", &ConnectedComponents::new()).values;
        let sssp = SingleSourceShortestPath::new(source);
        let mut distances = assert_modes_agree(&engines, &distributed, "SSSP", &sssp).values;

        let churned = ChurnStream::new(stream, churn as f64 / 10.0)
            .unwrap()
            .with_seed(seed + 1);
        let mut epochs = 0usize;
        EventPipeline::new(batch_size)
            .run_applied(
                churned,
                &mut partitioner,
                &mut distributed,
                |dg, batch, _, _| {
                    // Cold equivalence on the mutated distribution (the
                    // epoch re-derived the routing table).
                    assert_modes_agree(&engines, dg, "CC", &ConnectedComponents::new());
                    // Warm equivalence for every warm-capable program.
                    let cc = IncrementalConnectedComponents::from_batch(&labels, batch);
                    labels = assert_modes_agree_warm(&engines, dg, "CC", &cc, &labels).values;
                    let cone = IncrementalSssp::from_distributed(source, dg, &distances, batch);
                    distances =
                        assert_modes_agree_warm(&engines, dg, "SSSP cone", &cone, &distances)
                            .values;
                    epochs += 1;
                    Ok(())
                },
            )
            .unwrap();
        prop_assert!(epochs >= 1, "the churned stream produced no epoch");

        // PageRank exercises Master/Mirrors targets and f64 message
        // folding, where even a reordered merge would change the bits.
        let pr = PageRank::new(&graph_of(&distributed), 8);
        let cold = assert_modes_agree(&engines, &distributed, "PageRank", &pr);
        assert_modes_agree_warm(&engines, &distributed, "PageRank", &pr, &cold.values);
    }
}
