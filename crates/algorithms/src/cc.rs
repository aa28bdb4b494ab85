//! Connected Components in the subgraph-centric model.

use ebv_bsp::{Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::VertexId;

use crate::kernel::{gated_min_superstep, Activation, Flow};

/// Subgraph-centric Connected Components (CC), one of the three evaluation
/// applications of the paper.
///
/// Each vertex carries a component label initialized to its own identifier.
/// In every superstep each worker first folds the labels received from other
/// replicas, then runs sequential label propagation to the subgraph's local
/// fixpoint (this is the "think like a graph" advantage: all intra-subgraph
/// convergence happens without any network traffic), and finally sends the
/// labels of boundary vertices that changed to their other replicas. The
/// propagation is the crate's one worklist kernel: the first superstep
/// starts from every vertex, a later one only from the vertices whose label
/// a message lowered, so a superstep costs its frontier, not the subgraph.
/// Edge direction is ignored, as is conventional for CC.
///
/// # Examples
///
/// ```
/// use ebv_algorithms::ConnectedComponents;
/// use ebv_bsp::{BspEngine, DistributedGraph};
/// use ebv_graph::generators::named;
/// use ebv_partition::{EbvPartitioner, Partitioner};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = named::two_triangles();
/// let partition = EbvPartitioner::new().partition(&graph, 2)?;
/// let distributed = DistributedGraph::build(&graph, &partition)?;
/// let outcome = BspEngine::sequential().run(&distributed, &ConnectedComponents::new())?;
/// assert_eq!(outcome.values, vec![0, 0, 0, 3, 3, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectedComponents {
    _private: (),
}

impl ConnectedComponents {
    /// Creates the CC program.
    pub fn new() -> Self {
        ConnectedComponents { _private: () }
    }
}

impl SubgraphProgram for ConnectedComponents {
    type Value = u64;
    type Message = u64;

    fn name(&self) -> String {
        "CC".to_string()
    }

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        gated_min_superstep(
            ctx,
            superstep,
            Flow::Labels,
            |_| false,
            Activation::Propagating,
        )
    }
}

/// The full-subgraph sweep the worklist kernel replaced, kept as the oracle
/// the kernel is checked against superstep by superstep.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Cold CC that re-sweeps the whole local CSR until a pass changes
    /// nothing, every superstep.
    pub(crate) struct SweepConnectedComponents;

    impl SubgraphProgram for SweepConnectedComponents {
        type Value = u64;
        type Message = u64;

        fn name(&self) -> String {
            "CC-sweep".to_string()
        }

        fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
            vertex.raw()
        }

        fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _: usize) -> usize {
            let sg = ctx.subgraph();
            let n = sg.num_vertices();
            let mut changed = vec![false; n];
            let mailboxes = crate::oracle::mailboxes(ctx);

            // Fold replica labels received during the previous communication
            // stage.
            for (local, was_changed) in changed.iter_mut().enumerate() {
                if let Some(min) = mailboxes[local].iter().copied().min() {
                    if min < *ctx.value(local) {
                        ctx.set_value(local, min);
                        *was_changed = true;
                    }
                }
            }

            // Sequential label propagation over the whole subgraph until a local
            // fixpoint (undirected: labels flow both ways along each edge),
            // streaming each vertex's CSR neighbour slice.
            loop {
                let mut any = false;
                for local in 0..n {
                    for &neighbor in sg.out_neighbors(local) {
                        let neighbor = neighbor as usize;
                        ctx.add_work(1);
                        let a = *ctx.value(local);
                        let b = *ctx.value(neighbor);
                        if a < b {
                            ctx.set_value(neighbor, a);
                            changed[neighbor] = true;
                            any = true;
                        } else if b < a {
                            ctx.set_value(local, b);
                            changed[local] = true;
                            any = true;
                        }
                    }
                }
                if !any {
                    break;
                }
            }

            // Ship changed boundary labels to the other replicas.
            let mut updates = 0usize;
            for (local, &was_changed) in changed.iter().enumerate() {
                if was_changed {
                    updates += 1;
                    let label = *ctx.value(local);
                    ctx.send_to_replicas(local, label);
                }
            }
            updates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::cc_reference;
    use ebv_bsp::{BspEngine, DistributedGraph};
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};
    use ebv_graph::Graph;
    use ebv_partition::{paper_partitioners, Partitioner};

    fn run_cc(graph: &Graph, partitioner: &dyn Partitioner, p: usize) -> Vec<u64> {
        let partition = partitioner.partition(graph, p).unwrap();
        let dg = DistributedGraph::build(graph, &partition).unwrap();
        BspEngine::sequential()
            .run(&dg, &ConnectedComponents::new())
            .unwrap()
            .values
    }

    #[test]
    fn matches_reference_on_small_graphs() {
        for graph in [
            named::two_triangles(),
            named::figure1_graph(),
            named::small_social_graph(),
        ] {
            let expected = cc_reference(&graph);
            for partitioner in paper_partitioners() {
                let got = run_cc(&graph, partitioner.as_ref(), 2);
                assert_eq!(got, expected, "{}", partitioner.name());
            }
        }
    }

    #[test]
    fn matches_reference_on_power_law_graph_with_every_partitioner() {
        let graph = RmatGenerator::new(8, 6).with_seed(3).generate().unwrap();
        let expected = cc_reference(&graph);
        for partitioner in paper_partitioners() {
            let got = run_cc(&graph, partitioner.as_ref(), 4);
            assert_eq!(got, expected, "{}", partitioner.name());
        }
    }

    #[test]
    fn disconnected_components_get_distinct_labels() {
        let graph = named::two_triangles();
        let labels = run_cc(&graph, &ebv_partition::EbvPartitioner::new(), 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }
}
