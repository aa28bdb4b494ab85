//! A warm run starts from the message plane the graph's last warm run
//! kept. Whatever that run was, and however the graph changed since, the
//! next warm CC run equals the same run on a fresh clone of the graph,
//! which holds no plane, in values and `ExecutionStats`.

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, PageRank,
    SingleSourceShortestPath,
};
use ebv_bsp::{
    BspEngine, BspError, BspOutcome, DistributedGraph, MutationBatch, RunOptions, Subgraph,
    SubgraphContext, SubgraphProgram,
};
use ebv_graph::generators::{GraphGenerator, RmatGenerator};
use ebv_graph::{Edge, Graph, GraphBuilder, VertexId};
use ebv_partition::{EbvPartitioner, PartitionId, Partitioner};

const P: usize = 4;

/// An R-MAT graph distributed by EBV over [`P`] workers, built from its
/// assigned edge list so that epochs can delete what it holds.
fn distributed() -> (DistributedGraph, Vec<(Edge, PartitionId)>) {
    let graph = RmatGenerator::new(9, 8).with_seed(11).generate().unwrap();
    let partition = EbvPartitioner::new().partition(&graph, P).unwrap();
    let assignment = partition.as_vertex_cut().unwrap().assignment();
    let assigned: Vec<(Edge, PartitionId)> = graph
        .edges()
        .iter()
        .copied()
        .zip(assignment.iter().copied())
        .collect();
    let dg = DistributedGraph::build_streaming(P, None, assigned.clone()).unwrap();
    (dg, assigned)
}

/// The graph `dg` holds: each owned local edge once, parallel copies and
/// self-loops kept, over `dg`'s universe.
fn graph_of(dg: &DistributedGraph) -> Graph {
    let mut builder = GraphBuilder::directed();
    builder
        .allow_self_loops(true)
        .num_vertices(dg.num_vertices());
    for sg in dg.subgraphs() {
        for (edge_index, edge) in sg.edges().iter().enumerate() {
            if sg.owns_edge(edge_index) {
                builder.add_edge(*edge);
            }
        }
    }
    builder.build().unwrap()
}

/// Every vertex its own prior label: the warm run relabels the whole graph
/// and moves every message a cold CC would.
fn own_labels(dg: &DistributedGraph) -> Vec<u64> {
    (0..dg.num_vertices() as u64).collect()
}

/// Warm CC from `prior` on `dg`.
fn warm_cc(engine: &BspEngine, dg: &DistributedGraph, prior: &[u64]) -> BspOutcome<u64> {
    let program = IncrementalConnectedComponents::new();
    let options = RunOptions::new().warm_seed(prior);
    engine.run_opts(dg, &program, options).unwrap()
}

/// Warm CC on `dg`, whatever plane it holds, equals warm CC on a fresh
/// clone of it.
fn assert_warm_cc_as_on_a_clone(engine: &BspEngine, dg: &DistributedGraph, prior: &[u64]) {
    let reference = warm_cc(&BspEngine::sequential(), &dg.clone(), prior);
    let reused = warm_cc(engine, dg, prior);
    assert_eq!(reused.values, reference.values);
    assert_eq!(reused.stats, reference.stats);
    assert_eq!(reused.supersteps, reference.supersteps);
}

/// Warm CC after a warm PageRank (other value and message types, so its
/// plane is dropped) and after a warm SSSP (the same types, so CC starts
/// from SSSP's plane: flags sized to local vertices, not components).
/// PageRank runs a fixed number of supersteps and sends in its last one,
/// so the plane it keeps held mail; a second warm PageRank on it equals
/// one on a fresh clone.
#[test]
fn warm_cc_after_a_warm_run_of_another_program() {
    let (dg, _) = distributed();
    let engine = BspEngine::sequential();

    let pagerank = PageRank::new(&graph_of(&dg), 5);
    let ranks = engine.run(&dg, &pagerank).unwrap().values;
    let options = RunOptions::new().warm_seed(&ranks);
    let first = engine.run_opts(&dg, &pagerank, options).unwrap();
    assert!(first.stats.supersteps.last().unwrap().messages() > 0);
    let again = engine.run_opts(&dg, &pagerank, options).unwrap();
    let reference = engine.run_opts(&dg.clone(), &pagerank, options).unwrap();
    assert_eq!(again.values, reference.values);
    assert_eq!(again.stats, reference.stats);
    assert_eq!(first.values, reference.values);
    assert_warm_cc_as_on_a_clone(&engine, &dg, &own_labels(&dg));

    let source = VertexId::new(0);
    // The cold run starts from the plane CC just left, and drops it.
    let cold = SingleSourceShortestPath::new(source);
    let distances = engine.run(&dg, &cold).unwrap().values;
    let sssp = IncrementalSssp::from_distributed(source, &dg, &distances, &MutationBatch::new());
    let warm = engine
        .run_opts(&dg, &sssp, RunOptions::new().warm_seed(&distances))
        .unwrap();
    assert_eq!(warm.values, distances);
    assert_warm_cc_as_on_a_clone(&engine, &dg, &own_labels(&dg));
}

/// Warm CC that gives up after one superstep, or whose worker 1 panics.
struct Failing {
    panic: bool,
}

impl SubgraphProgram for Failing {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, subgraph: &Subgraph) -> u64 {
        IncrementalConnectedComponents::new().initial_value(vertex, subgraph)
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        let updates = IncrementalConnectedComponents::new().run_superstep(ctx, superstep);
        if self.panic && ctx.subgraph().part().index() == 1 {
            panic!("worker 1 gives up");
        }
        updates
    }

    fn max_supersteps(&self) -> usize {
        1
    }
}

/// A warm run that returns `DidNotConverge`, or loses a worker to a panic,
/// takes the plane and drops it: the next warm CC starts from nothing it
/// left half-used.
#[test]
fn warm_cc_after_a_run_that_failed() {
    let (dg, _) = distributed();
    let engine = BspEngine::sequential();
    let prior = own_labels(&dg);
    for panic in [false, true] {
        // A successful warm run leaves a plane for the failing one to take.
        warm_cc(&engine, &dg, &prior);
        let failing = Failing { panic };
        let result = engine.run_opts(&dg, &failing, RunOptions::new().warm_seed(&prior));
        match result {
            Err(BspError::DidNotConverge { max_supersteps: 1 }) => assert!(!panic),
            Err(BspError::WorkerPanicked { worker: 1, .. }) => assert!(panic),
            other => panic!("expected a failed run, got {other:?}"),
        }
        assert_warm_cc_as_on_a_clone(&engine, &dg, &prior);
    }
}

/// An epoch that shrinks a worker's vertex table: the plane the previous
/// epoch's warm run kept is sized for more local vertices than the worker
/// now has.
#[test]
fn warm_cc_after_an_epoch_that_shrank_a_worker() {
    let (mut dg, assigned) = distributed();
    let engine = BspEngine::sequential();
    let labels = warm_cc(&engine, &dg, &own_labels(&dg)).values;
    assert_eq!(
        labels,
        engine.run(&dg, &ConnectedComponents::new()).unwrap().values
    );
    // The cold run dropped the plane; this one leaves it again.
    warm_cc(&engine, &dg, &labels);

    // Delete half of worker 0's edges.
    let mut batch = MutationBatch::new();
    let held = assigned.iter().filter(|(_, part)| part.index() == 0);
    for &(edge, part) in held.step_by(2) {
        batch.record_delete(edge, part);
    }
    let before = dg.subgraphs()[0].num_vertices();
    dg.apply_mutations(&batch).unwrap();
    assert!(
        dg.subgraphs()[0].num_vertices() < before,
        "worker 0 did not shrink"
    );

    let program = IncrementalConnectedComponents::from_batch(&labels, &batch);
    let options = RunOptions::new().warm_seed(&labels);
    let reference = engine.run_opts(&dg.clone(), &program, options).unwrap();
    let reused = engine.run_opts(&dg, &program, options).unwrap();
    assert_eq!(reused.values, reference.values);
    assert_eq!(reused.stats, reference.stats);
    let cold = engine.run(&dg, &ConnectedComponents::new()).unwrap();
    assert_eq!(reused.values, cold.values);
}

/// Three lanes run on the plane a sequential warm run kept, and on the one
/// they kept themselves, as the sequential engine runs on fresh buffers.
#[test]
fn pooled_warm_cc_on_reused_buffers() {
    let (dg, _) = distributed();
    let prior = own_labels(&dg);
    warm_cc(&BspEngine::sequential(), &dg, &prior);
    let pooled = BspEngine::pooled(3);
    assert_warm_cc_as_on_a_clone(&pooled, &dg, &prior);
    assert_warm_cc_as_on_a_clone(&pooled, &dg, &prior);
}
