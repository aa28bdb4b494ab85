//! Warm-start PageRank (see the module-level discussion in
//! [`crate::incremental`] for the full design).

use ebv_bsp::{DistributedGraph, Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::VertexId;

use crate::pagerank::{pagerank_superstep, PageRankValue};

/// Warm-start PageRank (see the module-level discussion in
/// [`crate::incremental`] for the full design).
///
/// Unlike [`crate::PageRank`] the program is constructed from the (possibly
/// mutated) [`DistributedGraph`] itself — the dynamic path never
/// materializes a global [`ebv_graph::Graph`] — by counting owned local
/// edges, which cover every edge exactly once. Seed it from the previous
/// epoch's ranks via
/// [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed); a handful of warm
/// iterations reaches the tolerance a cold uniform start needs several times
/// as many iterations for, and the bit-exact message gating of the shared
/// kernel suppresses replica traffic wherever ranks have stopped moving.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalPageRank {
    iterations: usize,
    num_vertices: usize,
    out_degrees: Vec<f64>,
}

impl IncrementalPageRank {
    /// Creates the program for `distributed` with the given number of warm
    /// iterations and the conventional damping factor 0.85.
    pub fn from_distributed(distributed: &DistributedGraph, iterations: usize) -> Self {
        // Counted in `f64` (exact below 2^53), the table the kernel reads.
        let mut out_degrees = vec![0.0f64; distributed.num_vertices()];
        for sg in distributed.subgraphs() {
            for (edge_index, edge) in sg.edges().iter().enumerate() {
                if sg.owns_edge(edge_index) {
                    out_degrees[edge.src.index()] += 1.0;
                }
            }
        }
        IncrementalPageRank {
            iterations,
            num_vertices: distributed.num_vertices(),
            out_degrees,
        }
    }

    /// The configured number of warm iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl SubgraphProgram for IncrementalPageRank {
    type Value = PageRankValue;
    type Message = f64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> PageRankValue {
        PageRankValue {
            rank: 1.0 / self.num_vertices as f64,
            partial: 0.0,
        }
    }

    fn warm_value(
        &self,
        _vertex: VertexId,
        prior: &PageRankValue,
        _subgraph: &Subgraph,
    ) -> PageRankValue {
        PageRankValue {
            rank: prior.rank,
            partial: 0.0,
        }
    }

    fn run_superstep(
        &self,
        ctx: &mut SubgraphContext<'_, PageRankValue, f64>,
        superstep: usize,
    ) -> usize {
        pagerank_superstep(self.num_vertices, &self.out_degrees, ctx, superstep, true)
    }

    fn max_supersteps(&self) -> usize {
        2 * self.iterations
    }

    fn halt_on_quiescence(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{assert_same_outcome, EdgeScanPageRank, DAMPING};
    use crate::{ranks, PageRank};
    use ebv_bsp::{BspEngine, MutationBatch, RunOptions};
    use ebv_graph::{Edge, GraphBuilder};
    use ebv_partition::{EbvPartitioner, PartitionId, Partitioner};

    /// The edge-scan oracle of `program`'s parameters, gated or not.
    fn edge_scan(program: &IncrementalPageRank, gate_stable_messages: bool) -> EdgeScanPageRank {
        EdgeScanPageRank::of(
            DAMPING,
            program.iterations,
            program.num_vertices,
            &program.out_degrees,
            gate_stable_messages,
        )
    }

    #[test]
    fn warm_pagerank_matches_cold_to_tolerance_and_gates_messages() {
        let graph = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&graph, 3).unwrap();
        let mut distributed = DistributedGraph::build(&graph, &partition).unwrap();
        let engine = BspEngine::sequential();
        let cold = engine
            .run(&distributed, &PageRank::new(&graph, 40))
            .unwrap();

        // Mutate lightly, then warm-start from the stale ranks.
        let mut batch = MutationBatch::new();
        batch.record_insert(Edge::from((0u64, 12u64)), PartitionId::new(1));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalPageRank::from_distributed(&distributed, 40);
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();

        // Cold reference on the mutated distribution with the same kernel
        // and iteration count (`run` seeds the uniform initial value).
        let cold_after = engine.run(&distributed, &program).unwrap();
        for (a, b) in ranks(&warm.values).iter().zip(ranks(&cold_after.values)) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // Near the fixpoint the bit-exact gating suppresses traffic: the
        // warm run cannot send more than the cold run of the same kernel.
        assert!(warm.stats.total_messages() <= cold_after.stats.total_messages());
    }

    #[test]
    fn gated_pull_gather_matches_the_edge_scan_warm_and_cold() {
        use ebv_graph::generators::{GraphGenerator, RmatGenerator};

        let engines = [BspEngine::sequential(), BspEngine::pooled(2)];
        for seed in 0..12u64 {
            let graph = RmatGenerator::new(6, 4).with_seed(seed).generate().unwrap();
            let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
            let mut distributed = DistributedGraph::build(&graph, &partition).unwrap();
            let prior = BspEngine::sequential()
                .run(&distributed, &PageRank::new(&graph, 30))
                .unwrap();
            // Churn one worker so the warm run starts from stale ranks on a
            // rebuilt subgraph.
            let mut batch = MutationBatch::new();
            batch.record_delete(
                graph.edges()[0],
                partition.as_vertex_cut().unwrap().part_of(0),
            );
            batch.record_insert(Edge::from((seed % 60, 63u64)), PartitionId::new(2));
            distributed.apply_mutations(&batch).unwrap();

            let program = IncrementalPageRank::from_distributed(&distributed, 30);
            let reference = edge_scan(&program, true);
            for engine in &engines {
                let context = format!("seed {seed}, {engine:?}");
                let cold = engine.run(&distributed, &program).unwrap();
                let cold_reference = engine.run(&distributed, &reference).unwrap();
                assert_same_outcome(&cold, &cold_reference, &format!("{context}, cold"));
                let warm = engine
                    .run_opts(
                        &distributed,
                        &program,
                        RunOptions::new().warm_seed(&prior.values),
                    )
                    .unwrap();
                let warm_reference = engine
                    .run_opts(
                        &distributed,
                        &reference,
                        RunOptions::new().warm_seed(&prior.values),
                    )
                    .unwrap();
                assert_same_outcome(&warm, &warm_reference, &format!("{context}, warm"));
            }
        }
    }

    /// The master and mirror lists PageRank walks are cached on the
    /// subgraph, so a batch that moves a vertex's master off a worker it
    /// keeps must drop them there: a stale list would keep the vertex that
    /// worker's master, and its partial would never reach the new master.
    #[test]
    fn a_master_flip_on_a_kept_worker_refreshes_the_cached_role_lists() {
        let part = PartitionId::new;
        let assigned = |edges: &[((u64, u64), u32)]| -> Vec<(Edge, PartitionId)> {
            edges
                .iter()
                .map(|&(edge, worker)| (Edge::from(edge), part(worker)))
                .collect()
        };
        // Vertex 1 is held by worker 0 (two incident edges, its master)
        // and worker 1 (one); worker 2 holds a cycle of its own.
        let initial = assigned(&[
            ((0, 1), 0),
            ((1, 2), 0),
            ((2, 0), 0),
            ((1, 3), 1),
            ((3, 4), 1),
            ((4, 5), 2),
            ((5, 6), 2),
            ((6, 4), 2),
        ]);
        let additions = assigned(&[((1, 7), 1), ((7, 1), 1)]);
        let mut distributed = DistributedGraph::build_streaming(3, None, initial.clone()).unwrap();
        let v1 = VertexId::new(1);
        assert_eq!(distributed.replicas().master_of(v1), part(0));
        // A run fills every worker's role lists.
        let prior = BspEngine::sequential()
            .run(
                &distributed,
                &IncrementalPageRank::from_distributed(&distributed, 10),
            )
            .unwrap();

        let mut batch = MutationBatch::new();
        for &(edge, worker) in &additions {
            batch.record_insert(edge, worker);
        }
        let stats = distributed.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1, "worker 0 is kept");
        assert_eq!(distributed.replicas().master_of(v1), part(1));
        let kept = distributed.subgraph(part(0));
        let local = kept.local_index_of(v1).unwrap();
        assert!(
            !kept.is_master(local),
            "the batch flips a kept worker's flag"
        );

        let mut builder = GraphBuilder::directed();
        builder.num_vertices(distributed.num_vertices());
        builder.extend_edges(
            initial
                .iter()
                .chain(&additions)
                .map(|(edge, _)| (edge.src.raw(), edge.dst.raw())),
        );
        let graph = builder.build().unwrap();
        let cold = PageRank::new(&graph, 10);
        let warm = IncrementalPageRank::from_distributed(&distributed, 10);
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let context = format!("{:?}", engine.mode());
            let got = engine.run(&distributed, &cold).unwrap();
            let want = engine.run(&distributed, &edge_scan(&warm, false)).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, cold"));

            let options = RunOptions::new().warm_seed(&prior.values);
            let got = engine.run_opts(&distributed, &warm, options).unwrap();
            let want = engine
                .run_opts(&distributed, &edge_scan(&warm, true), options)
                .unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, gated warm"));
        }
    }

    /// A batch that grows the universe and rebuilds one worker: the warm
    /// run starts from a prior shorter than the universe, the rebuilt
    /// worker fills its local degree table afresh from the grown global
    /// table, and the gated runs, cold and warm, equal the gated edge scan
    /// in every rank bit and every counter.
    #[test]
    fn a_batch_that_grows_the_universe_and_rebuilds_a_worker_matches_the_edge_scan() {
        use ebv_graph::generators::{GraphGenerator, RmatGenerator};

        let graph = RmatGenerator::new(6, 4).with_seed(3).generate().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
        let mut distributed = DistributedGraph::build(&graph, &partition).unwrap();
        let before = IncrementalPageRank::from_distributed(&distributed, 20);
        let prior = BspEngine::sequential().run(&distributed, &before).unwrap();

        // Two new vertices, a path through them from vertex 0 back to 3,
        // all on worker 2.
        let n = distributed.num_vertices() as u64;
        let mut batch = MutationBatch::new();
        for edge in [(0, n), (n, n + 1), (n + 1, 3)] {
            batch.record_insert(Edge::from(edge), PartitionId::new(2));
        }
        let stats = distributed.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1);
        assert_eq!(distributed.num_vertices(), n as usize + 2);
        assert_eq!(prior.values.len(), n as usize);

        let program = IncrementalPageRank::from_distributed(&distributed, 20);
        assert_eq!(program.out_degrees[0], before.out_degrees[0] + 1.0);
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let context = format!("{:?}", engine.mode());
            let got = engine.run(&distributed, &program).unwrap();
            let want = engine
                .run(&distributed, &edge_scan(&program, true))
                .unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, gated cold"));
            let options = RunOptions::new().warm_seed(&prior.values);
            let got = engine.run_opts(&distributed, &program, options).unwrap();
            let want = engine
                .run_opts(&distributed, &edge_scan(&program, true), options)
                .unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, gated warm"));
            assert!(got.values[n as usize + 1].rank > 0.0);
        }
    }

    #[test]
    fn incremental_pagerank_accessors() {
        let distributed = DistributedGraph::build_streaming(
            2,
            None,
            vec![(Edge::from((0u64, 1u64)), PartitionId::new(0))],
        )
        .unwrap();
        let program = IncrementalPageRank::from_distributed(&distributed, 4);
        assert_eq!(program.iterations(), 4);
        assert_eq!(program.max_supersteps(), 8);
        assert!(!program.halt_on_quiescence());
    }
}
