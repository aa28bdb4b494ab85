//! Warm CC, SSSP and BFS over churned epochs, differential against the
//! paths a warm run no longer takes: the scan of every local that
//! superstep 0 ran before it started from the program's start set, the
//! walk of every master that extraction ran before it patched the prior
//! (every warm run of a debug build checks its patch against that walk
//! inside the engine), and cold runs.

use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph, MutationBatch, RunOptions};
use ebv_graph::generators::{GraphGenerator, GridGenerator, RmatGenerator};
use ebv_graph::{Edge, VertexId};
use ebv_partition::PartitionId;

use crate::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
    UNREACHABLE,
};

/// A small deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// R-MAT (parallel edges, isolated vertices), a grid with holes, and a
/// multigraph of self-loops and parallel edges.
fn shapes() -> [(&'static str, Vec<Edge>); 3] {
    let rmat = RmatGenerator::new(7, 5).with_seed(58).generate().unwrap();
    let grid = GridGenerator::new(9, 10)
        .with_deletion_probability(0.1)
        .with_seed(58)
        .generate()
        .unwrap();
    let mut rng = Lcg(58);
    let multigraph = (0..150)
        .flat_map(|i| {
            let src = rng.below(30) as u64;
            let dst = if i % 7 == 0 {
                src
            } else {
                rng.below(30) as u64
            };
            let copies = if i % 5 == 0 { 2 } else { 1 };
            std::iter::repeat_n(Edge::from((src, dst)), copies)
        })
        .collect();
    [
        ("rmat", rmat.edges().to_vec()),
        ("grid", grid.edges().to_vec()),
        ("multigraph", multigraph),
    ]
}

/// One epoch's batch over the live copies: a few deletions, a few
/// insertions between live vertices, and a short chain of new vertices
/// past the universe, hung off vertex 0.
fn churn(
    live: &mut Vec<(Edge, PartitionId)>,
    universe: u64,
    p: usize,
    rng: &mut Lcg,
) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for _ in 0..4 {
        if live.is_empty() {
            break;
        }
        let pick = live[rng.below(live.len())];
        let latest = live.iter().rposition(|&pair| pair == pick).unwrap();
        live.remove(latest);
        batch.record_delete(pick.0, pick.1);
    }
    let mut any = || rng.below(universe as usize) as u64;
    let random = [(any(), any()), (any(), any()), (any(), any())];
    let grown = [(0, universe), (universe, universe + 1), (universe + 1, 3)];
    for (src, dst) in random.into_iter().chain(grown) {
        let pair = (
            Edge::from((src, dst)),
            PartitionId::from_index(rng.below(p)),
        );
        batch.record_insert(pair.0, pair.1);
        live.push(pair);
    }
    batch
}

/// The run of `program` from `prior`, which every engine must return with
/// the same values and counters.
fn warm<P: ebv_bsp::SubgraphProgram<Value = u64>>(
    dg: &DistributedGraph,
    program: &P,
    prior: &[u64],
    what: &str,
) -> BspOutcome<u64> {
    let options = RunOptions::new().warm_seed(prior);
    let sequential = BspEngine::sequential()
        .run_opts(dg, program, options)
        .unwrap();
    let pooled = BspEngine::pooled(2).run_opts(dg, program, options).unwrap();
    assert_eq!(pooled.values, sequential.values, "{what}: pooled values");
    assert_eq!(pooled.stats, sequential.stats, "{what}: pooled stats");
    sequential
}

#[test]
fn warm_runs_equal_the_scan_the_walk_and_cold_runs() {
    let mut reset = 0;
    for (name, edges) in shapes() {
        for p in [1usize, 2, 3, 8] {
            let mut rng = Lcg(0x5eed ^ p as u64);
            let mut live: Vec<(Edge, PartitionId)> = (edges.iter())
                .map(|&edge| (edge, PartitionId::from_index(rng.below(p))))
                .collect();
            let mut dg = DistributedGraph::build_streaming(p, None, live.iter().copied()).unwrap();
            let engine = BspEngine::sequential();
            let sources = [VertexId::new(0), VertexId::new(5)];
            let mut labels = engine.run(&dg, &ConnectedComponents::new()).unwrap().values;
            let mut depths = sources.map(|source| {
                let cold = engine.run(&dg, &SingleSourceShortestPath::new(source));
                cold.unwrap().values
            });
            for epoch in 0..3 {
                let at = format!("{name} p={p} epoch {epoch}");
                let batch = churn(&mut live, dg.num_vertices() as u64, p, &mut rng);
                dg.apply_mutations(&batch).unwrap();

                let program = IncrementalConnectedComponents::from_batch(&labels, &batch);
                let outcome = warm(&dg, &program, &labels, &format!("CC {at}"));
                let cold = engine.run(&dg, &ConnectedComponents::new()).unwrap();
                assert_eq!(outcome.values, cold.values, "CC {at}");
                labels = outcome.values;

                // SSSP from vertex 0, BFS from vertex 5: the same program.
                for (source, prior) in sources.into_iter().zip(&mut depths) {
                    let what = format!("source {} {at}", source.raw());
                    let program = IncrementalSssp::from_distributed(source, &dg, prior, &batch);
                    let outcome = warm(&dg, &program, prior, &what);
                    let scanned = warm(&dg, &program.scanning(), prior, &what);
                    assert_eq!(outcome.values, scanned.values, "{what}: scan values");
                    assert_eq!(outcome.stats, scanned.stats, "{what}: scan stats");
                    let cold = engine.run(&dg, &SingleSourceShortestPath::new(source));
                    assert_eq!(outcome.values, cold.unwrap().values, "{what}: cold");
                    reset += program.cone_vertices();
                    *prior = outcome.values;
                }
            }
        }
    }
    assert!(reset > 0, "no deletion ever reset a distance");
}

/// A prior shorter than the universe: the batch grows it, and the second
/// source is past the prior altogether, so its whole finite prior resets
/// and the source starts from its cold value.
#[test]
fn a_short_prior_warms_sssp_as_the_scan_and_a_cold_run_do() {
    let path = (0u64..6).map(|i| (Edge::from((i, i + 1)), PartitionId::new((i % 2) as u32)));
    let mut dg = DistributedGraph::build_streaming(2, None, path).unwrap();
    let source = VertexId::new(0);
    let prior = BspEngine::sequential()
        .run(&dg, &SingleSourceShortestPath::new(source))
        .unwrap()
        .values;
    assert_eq!(prior.len(), 7);

    let mut batch = MutationBatch::new();
    batch.record_delete(Edge::from((2u64, 3u64)), PartitionId::new(0));
    for (src, dst) in [(1u64, 7u64), (7, 8), (8, 4), (9, 8)] {
        batch.record_insert(Edge::from((src, dst)), PartitionId::new((src % 2) as u32));
    }
    dg.apply_mutations(&batch).unwrap();
    assert_eq!(dg.num_vertices(), 10);

    for source in [source, VertexId::new(9)] {
        let what = format!("source {}", source.raw());
        let program = IncrementalSssp::from_distributed(source, &dg, &prior, &batch);
        let outcome = warm(&dg, &program, &prior, &what);
        let scanned = warm(&dg, &program.scanning(), &prior, &what);
        assert_eq!(outcome.values, scanned.values, "{what}");
        assert_eq!(outcome.stats, scanned.stats, "{what}");
        let cold = BspEngine::sequential().run(&dg, &SingleSourceShortestPath::new(source));
        assert_eq!(outcome.values, cold.unwrap().values, "{what}");
    }
    let program = IncrementalSssp::from_distributed(source, &dg, &prior, &batch);
    let outcome = warm(&dg, &program, &prior, "source 0");
    assert_eq!(
        outcome.values,
        [0, 1, 2, UNREACHABLE, 4, 5, 6, 2, 3, UNREACHABLE]
    );
}
