//! Single-Source Shortest Path in the subgraph-centric model.

use ebv_bsp::{Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::VertexId;

use crate::kernel::{gated_min_superstep, Activation};

/// Distance value used by [`SingleSourceShortestPath`]: unreachable vertices
/// keep [`u64::MAX`].
pub const UNREACHABLE: u64 = u64::MAX;

/// Subgraph-centric Single-Source Shortest Path (SSSP), one of the three
/// evaluation applications of the paper.
///
/// The evaluation graphs are unweighted, so every directed edge has length 1
/// and the result is the directed hop distance from the source — the BFS
/// depth, which is why the crate has no separate BFS program. Each
/// superstep folds the distances received from other replicas, relaxes to
/// the subgraph's local fixpoint and ships improved boundary distances to
/// the other replicas. The relaxation is the crate's one worklist kernel:
/// it starts from the source in the first superstep and from the vertices a
/// message improved afterwards, first in first out, so it visits the edges
/// behind the advancing frontier instead of sweeping the subgraph.
///
/// # Examples
///
/// ```
/// use ebv_algorithms::{SingleSourceShortestPath, UNREACHABLE};
/// use ebv_bsp::{BspEngine, DistributedGraph};
/// use ebv_graph::generators::named;
/// use ebv_graph::VertexId;
/// use ebv_partition::{EbvPartitioner, Partitioner};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = named::path_graph(5)?;
/// let partition = EbvPartitioner::new().partition(&graph, 2)?;
/// let distributed = DistributedGraph::build(&graph, &partition)?;
/// let sssp = SingleSourceShortestPath::new(VertexId::new(0));
/// let outcome = BspEngine::sequential().run(&distributed, &sssp)?;
/// assert_eq!(outcome.values, vec![0, 1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleSourceShortestPath {
    source: VertexId,
}

impl SingleSourceShortestPath {
    /// Creates an SSSP program rooted at `source`.
    pub fn new(source: VertexId) -> Self {
        SingleSourceShortestPath { source }
    }

    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }
}

impl SubgraphProgram for SingleSourceShortestPath {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        if vertex == self.source {
            0
        } else {
            UNREACHABLE
        }
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        gated_min_superstep(ctx, superstep, |_| false, Activation::Propagating, None)
    }
}

/// The full-subgraph sweep the worklist kernel replaced, kept as the oracle
/// the kernel is checked against superstep by superstep.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Cold SSSP that re-relaxes the whole local CSR until a pass changes
    /// nothing, every superstep.
    pub(crate) struct SweepShortestPath(pub(crate) VertexId);

    impl SubgraphProgram for SweepShortestPath {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, vertex: VertexId, subgraph: &Subgraph) -> u64 {
            SingleSourceShortestPath::new(self.0).initial_value(vertex, subgraph)
        }

        fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _: usize) -> usize {
            let sg = ctx.subgraph();
            let n = sg.num_vertices();
            let mut changed = vec![false; n];
            let mailboxes = crate::oracle::mailboxes(ctx);

            for (local, was_changed) in changed.iter_mut().enumerate() {
                if let Some(min) = mailboxes[local].iter().copied().min() {
                    if min < *ctx.value(local) {
                        ctx.set_value(local, min);
                        *was_changed = true;
                    }
                }
            }

            // Bellman–Ford relaxation over the local CSR adjacency to a fixpoint.
            loop {
                let mut any = false;
                for local in 0..n {
                    let distance = *ctx.value(local);
                    if distance == UNREACHABLE {
                        continue;
                    }
                    for &neighbor in sg.out_neighbors(local) {
                        let neighbor = neighbor as usize;
                        ctx.add_work(1);
                        let candidate = distance + 1;
                        if candidate < *ctx.value(neighbor) {
                            ctx.set_value(neighbor, candidate);
                            changed[neighbor] = true;
                            any = true;
                        }
                    }
                }
                if !any {
                    break;
                }
            }

            let mut updates = 0usize;
            for (local, &was_changed) in changed.iter().enumerate() {
                if was_changed {
                    updates += 1;
                    let distance = *ctx.value(local);
                    ctx.send_to_replicas(local, distance);
                }
            }
            updates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sssp_reference;
    use ebv_bsp::{BspEngine, DistributedGraph};
    use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
    use ebv_graph::Graph;
    use ebv_partition::{paper_partitioners, Partitioner};

    fn run_sssp(graph: &Graph, partitioner: &dyn Partitioner, p: usize, source: u64) -> Vec<u64> {
        let partition = partitioner.partition(graph, p).unwrap();
        let dg = DistributedGraph::build(graph, &partition).unwrap();
        BspEngine::sequential()
            .run(&dg, &SingleSourceShortestPath::new(VertexId::new(source)))
            .unwrap()
            .values
    }

    #[test]
    fn matches_reference_on_small_graphs() {
        for graph in [named::figure1_graph(), named::small_social_graph()] {
            let expected = sssp_reference(&graph, VertexId::new(0));
            for partitioner in paper_partitioners() {
                let got = run_sssp(&graph, partitioner.as_ref(), 3, 0);
                assert_eq!(got, expected, "{}", partitioner.name());
            }
        }
    }

    #[test]
    fn matches_reference_on_power_law_and_grid_graphs() {
        let power_law = RmatGenerator::new(8, 6).with_seed(5).generate().unwrap();
        let grid = GridGenerator::new(12, 12).generate().unwrap();
        for graph in [power_law, grid] {
            let expected = sssp_reference(&graph, VertexId::new(0));
            for partitioner in paper_partitioners() {
                let got = run_sssp(&graph, partitioner.as_ref(), 4, 0);
                assert_eq!(got, expected, "{}", partitioner.name());
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_at_infinity() {
        let graph = named::two_triangles();
        let distances = run_sssp(&graph, &ebv_partition::EbvPartitioner::new(), 2, 0);
        assert_eq!(distances[0], 0);
        assert!(distances[1] <= 2 && distances[2] <= 2);
        assert_eq!(distances[3], UNREACHABLE);
        assert_eq!(distances[4], UNREACHABLE);
    }

    #[test]
    fn source_accessor() {
        let p = SingleSourceShortestPath::new(VertexId::new(7));
        assert_eq!(p.source(), VertexId::new(7));
    }

    #[test]
    fn distances_equal_sequential_bfs_depths() {
        let graph = RmatGenerator::new(8, 6).with_seed(11).generate().unwrap();
        let expected = sssp_reference(&graph, VertexId::new(0));
        let got = run_sssp(&graph, &ebv_partition::EbvPartitioner::new(), 4, 0);
        assert_eq!(got, expected);
    }

    #[test]
    fn path_graph_distances_are_positions() {
        let graph = named::path_graph(6).unwrap();
        let distances = run_sssp(&graph, &ebv_partition::EbvPartitioner::new(), 2, 0);
        assert_eq!(distances, vec![0, 1, 2, 3, 4, 5]);
    }
}
