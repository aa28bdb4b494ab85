//! Breadth-First Search in the subgraph-centric model.
//!
//! BFS is not part of the paper's evaluation triple (CC, PR, SSSP) but is the
//! canonical fourth workload of distributed graph benchmarks; it is included
//! to widen the application coverage of the reproduction.

use ebv_bsp::{Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::VertexId;

/// Depth value used by [`BreadthFirstSearch`] for unvisited vertices.
pub const UNVISITED: u64 = u64::MAX;

/// Subgraph-centric BFS over directed edges: computes the hop depth of every
/// vertex reachable from the root. Treats the graph exactly like
/// [`SingleSourceShortestPath`](crate::SingleSourceShortestPath) with unit
/// weights — the same first-in-first-out worklist kernel, started from the
/// root — so within a subgraph it expands level by level, and its superstep
/// count equals the number of BFS frontiers crossing subgraph boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreadthFirstSearch {
    root: VertexId,
}

impl BreadthFirstSearch {
    /// Creates a BFS program rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        BreadthFirstSearch { root }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl SubgraphProgram for BreadthFirstSearch {
    type Value = u64;
    type Message = u64;

    fn name(&self) -> String {
        "BFS".to_string()
    }

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        if vertex == self.root {
            0
        } else {
            UNVISITED
        }
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        crate::sssp::relax_superstep(ctx, superstep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sssp_reference;
    use ebv_bsp::{BspEngine, DistributedGraph};
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};
    use ebv_partition::{EbvPartitioner, Partitioner};

    #[test]
    fn bfs_depth_equals_unit_weight_shortest_path() {
        let graph = RmatGenerator::new(8, 6).with_seed(11).generate().unwrap();
        let expected = sssp_reference(&graph, VertexId::new(0));
        let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let outcome = BspEngine::sequential()
            .run(&dg, &BreadthFirstSearch::new(VertexId::new(0)))
            .unwrap();
        assert_eq!(outcome.values, expected);
    }

    #[test]
    fn path_graph_depths_are_positions() {
        let graph = named::path_graph(6).unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 2).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let outcome = BspEngine::sequential()
            .run(&dg, &BreadthFirstSearch::new(VertexId::new(0)))
            .unwrap();
        assert_eq!(outcome.values, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(
            BreadthFirstSearch::new(VertexId::new(0)).root(),
            VertexId::new(0)
        );
    }
}
