//! Every program, end to end, on the message plane whose sends queue a
//! message only where a replica waits for it, with PageRank reading its
//! per-run local degree table.
//!
//! The unfiltered send itself is `ebv-bsp`'s oracle: its suite checks,
//! send by send, that the filtered send and its scatter deliver what the
//! unfiltered one did. This suite checks what a program sees of that, over
//! R-MAT, grid and self-loop/parallel-edge multigraphs, every paper
//! partitioner, `p ∈ {1, 2, 3, 8}` and the sequential and `Pooled(2)`
//! engines: cold CC and SSSP against the sweeps they replaced and the
//! sequential references, PageRank (cold, and warm from the cold ranks)
//! against the edge scan, warm CC against its sweep and warm CC and SSSP
//! against cold runs on the mutated graph — values bit for bit,
//! `ExecutionStats` (sent, received, work and updates per worker and per
//! superstep) equal, and the two engines equal to each other. PageRank's
//! message counts, cold and warm, are also checked against the closed form
//! of the master/mirror protocol, which no send filter can change: a
//! gather sends one partial per mirror, an apply one rank per mirror of
//! each master.

use proptest::prelude::*;

use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph, ExecutionStats, MutationBatch};
use ebv_bsp::{RunOptions, SubgraphProgram};
use ebv_graph::generators::{GraphGenerator, GridGenerator, RmatGenerator};
use ebv_graph::{Edge, Graph, GraphBuilder, VertexId};
use ebv_partition::{paper_partitioners, PartitionId};

use crate::cc::oracle::{SweepConnectedComponents, WarmSweepConnectedComponents};
use crate::oracle::{assert_equals_oracle, Work};
use crate::pagerank::{assert_same_outcome, EdgeScanPageRank, DAMPING};
use crate::reference::{cc_reference, sssp_reference};
use crate::sssp::oracle::SweepShortestPath;
use crate::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, PageRank,
    SingleSourceShortestPath,
};

/// PageRank iterations of every run here.
const ITERATIONS: usize = 4;

/// A graph of `kind`: R-MAT (parallel edges, isolated vertices), a grid
/// with holes, or a small multigraph of self-loops and parallel edges.
fn sample_graph(kind: usize, seed: u64) -> Graph {
    match kind {
        0 => RmatGenerator::new(7, 5).with_seed(seed).generate().unwrap(),
        1 => GridGenerator::new(6 + seed as usize % 5, 9)
            .with_deletion_probability(0.1)
            .with_seed(seed)
            .generate()
            .unwrap(),
        _ => {
            let mut builder = GraphBuilder::directed();
            builder.allow_self_loops(true);
            let mut x = seed | 1;
            for _ in 0..120 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let (src, dst) = ((x >> 33) % 24, (x >> 45) % 24);
                // Every seventh draw loops, every fifth doubles its edge.
                builder.add_edge_ids(src, if x.is_multiple_of(7) { src } else { dst });
                if x.is_multiple_of(5) {
                    builder.add_edge_ids(src, dst);
                }
            }
            builder.build().unwrap()
        }
    }
}

/// Runs `program` — warm from `prior` when given — on the sequential
/// engine and on `Pooled(2)`, asserts that the two agree in every value
/// and counter, and returns the sequential outcome.
fn assert_modes_agree<P>(
    dg: &DistributedGraph,
    program: &P,
    prior: Option<&[P::Value]>,
    what: &str,
) -> BspOutcome<P::Value>
where
    P: SubgraphProgram,
    P::Value: PartialEq,
{
    let run = |engine: BspEngine| match prior {
        Some(prior) => engine.run_opts(dg, program, RunOptions::new().warm_seed(prior)),
        None => engine.run(dg, program),
    };
    let (sequential, pooled) = (run(BspEngine::sequential()), run(BspEngine::pooled(2)));
    let (sequential, pooled) = (sequential.unwrap(), pooled.unwrap());
    assert!(sequential.values == pooled.values, "{what}: values");
    assert_eq!(sequential.stats, pooled.stats, "{what}: stats");
    sequential
}

/// PageRank's traffic, worker by worker: a gather superstep sends one
/// partial per mirror and receives one per mirror of the worker's masters;
/// an apply superstep the other way round.
fn assert_pagerank_traffic(dg: &DistributedGraph, stats: &ExecutionStats, what: &str) {
    let replicas = dg.replicas();
    for (superstep, step) in stats.supersteps.iter().enumerate() {
        for (w, (sg, counts)) in dg.subgraphs().iter().zip(&step.per_worker).enumerate() {
            let mirrors = sg.mirrors().len();
            let masters = sg.masters().iter().map(|&m| sg.vertex_at(m as usize));
            let their_mirrors: usize = masters.map(|v| replicas.replica_count(v) - 1).sum();
            let (sent, received) = match superstep % 2 {
                0 => (mirrors, their_mirrors),
                _ => (their_mirrors, mirrors),
            };
            let at = format!("{what}: superstep {superstep} worker {w}");
            assert_eq!(counts.messages_sent, sent, "{at}: sent");
            assert_eq!(counts.messages_received, received, "{at}: received");
        }
    }
}

/// PageRank, cold and warm-seeded from the cold ranks, against the edge
/// scan on both engines. The warm run goes through the engine's default
/// `warm_value`, which carries each prior value over whole; the oracle's
/// keeps only the rank.
fn assert_pagerank_family(dg: &DistributedGraph, graph: &Graph, what: &str) {
    let n = graph.num_vertices();
    let out_degrees: Vec<f64> = graph
        .vertices()
        .map(|v| graph.out_degree(v) as f64)
        .collect();
    let scan = EdgeScanPageRank::of(DAMPING, ITERATIONS, n, &out_degrees);
    let program = PageRank::new(graph, ITERATIONS);
    let mut sequential: Option<BspOutcome<_>> = None;
    for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
        let at = |run: &str| format!("{what}, {run}, {:?}", engine.mode());
        let got = engine.run(dg, &program).unwrap();
        assert_same_outcome(&got, &engine.run(dg, &scan).unwrap(), &at("cold"));
        assert_pagerank_traffic(dg, &got.stats, &at("cold"));
        let options = RunOptions::new().warm_seed(&got.values);
        let warm = engine.run_opts(dg, &program, options).unwrap();
        let want = engine.run_opts(dg, &scan, options).unwrap();
        assert_same_outcome(&warm, &want, &at("warm"));
        assert_pagerank_traffic(dg, &warm.stats, &at("warm"));
        match &sequential {
            Some(sequential) => assert_same_outcome(&got, sequential, &at("modes")),
            None => sequential = Some(got),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The suite the module header describes, one graph per case.
    #[test]
    fn every_program_keeps_its_values_and_counters(kind in 0usize..3, seed in 0u64..1_000) {
        let graph = sample_graph(kind, seed);
        let n = graph.num_vertices() as u64;
        let source = VertexId::new(seed % n);
        let cc_expected = cc_reference(&graph);
        let sssp_expected = sssp_reference(&graph, source);
        for partitioner in paper_partitioners() {
            for p in [1usize, 2, 3, 8] {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let what = |program: &str| {
                    format!("{program}, {} p={p}, kind {kind} seed {seed}", partitioner.name())
                };

                let cc_program = ConnectedComponents::new();
                let pair = (cc_program, SweepConnectedComponents);
                let cc = assert_equals_oracle(&dg, pair, None, Work::Components, &what("CC"));
                prop_assert_eq!(&cc.values, &cc_expected, "{}", what("CC"));
                assert_modes_agree(&dg, &cc_program, None, &what("CC"));

                let sssp_program = SingleSourceShortestPath::new(source);
                let pair = (sssp_program, SweepShortestPath(source));
                let sssp = assert_equals_oracle(&dg, pair, None, Work::AtMostTheSweep, &what("SSSP"));
                prop_assert_eq!(&sssp.values, &sssp_expected, "{}", what("SSSP"));
                assert_modes_agree(&dg, &sssp_program, None, &what("SSSP"));

                assert_pagerank_family(&dg, &graph, &what("PageRank"));

                // Warm CC and SSSP after a batch that deletes every fifth
                // edge and grows the universe by three vertices (a batch
                // needs a vertex-cut).
                let Some(cut) = partition.as_vertex_cut() else { continue };
                let mut batch = MutationBatch::new();
                let assigned = graph.edges().iter().zip(cut.assignment());
                for (&edge, &part) in assigned.step_by(5) {
                    batch.record_delete(edge, part);
                }
                for k in 0..3u64 {
                    let edge = Edge::from((n + k, (seed + 7 * k) % n));
                    batch.record_insert(edge, PartitionId::from_index(k as usize % p));
                }
                let mut mutated = dg.clone();
                mutated.apply_mutations(&batch).unwrap();

                let warm_cc = IncrementalConnectedComponents::from_batch(&cc.values, &batch);
                let pair = (warm_cc.clone(), WarmSweepConnectedComponents(&warm_cc));
                let prior = Some(cc.values.as_slice());
                let warm = assert_equals_oracle(&mutated, pair, prior, Work::Components, &what("warm CC"));
                assert_modes_agree(&mutated, &warm_cc, prior, &what("warm CC"));
                let cold = BspEngine::sequential().run(&mutated, &cc_program).unwrap();
                prop_assert_eq!(&warm.values, &cold.values, "{}", what("warm CC"));

                let warm_sssp = IncrementalSssp::from_distributed(source, &mutated, &sssp.values, &batch);
                let prior = Some(sssp.values.as_slice());
                let warm = assert_modes_agree(&mutated, &warm_sssp, prior, &what("warm SSSP"));
                let cold = BspEngine::sequential().run(&mutated, &sssp_program).unwrap();
                prop_assert_eq!(&warm.values, &cold.values, "{}", what("warm SSSP"));
            }
        }
    }
}
