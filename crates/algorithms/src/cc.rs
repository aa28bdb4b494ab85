//! Connected Components in the subgraph-centric model: the component
//! superstep shared by cold and warm CC.
//!
//! A CC superstep's local fixpoint has a closed form: every vertex takes
//! the minimum, over its *local connected component*, of the starting
//! labels and the labels the mail brought. So a worker never propagates a
//! label along an edge: it relabels whole components of
//! [`Subgraph::local_components`] (computed once per subgraph and cached),
//! and only boundary labels move between workers — the way Giraph++ (Tian
//! et al., "From 'Think Like a Vertex' to 'Think Like a Graph'", VLDB 2013)
//! computes connected components.
//!
//! # Contract
//!
//! * **The same fixpoint as propagation.** Within a superstep labels only
//!   fall and the local fixpoint over undirected edges is unique, so values,
//!   the changed set, per-worker messages and superstep counts equal those
//!   of a full-subgraph sweep to the fixpoint (the `#[cfg(test)]` oracles
//!   below); only `work` and `updates` differ.
//! * **Components are uniform after every superstep.** Superstep 0 lowers
//!   every member to its component's minimum starting value, whatever the
//!   starting values were (cold ids or warm priors). A later superstep
//!   folds the mail into the component's label, held on its first member,
//!   queues a component whose label fell once, then relabels every member
//!   of every queued component — all of them changed, since they all stood
//!   at the label the mail undercut. No edge is visited after superstep 0.
//! * **`work`** is local edges + local vertices at superstep 0 (the union
//!   pass and the relabel pass), counted whether or not the components were
//!   already cached, so `ExecutionStats` never depend on the cache; after
//!   superstep 0 it is the number of members relabelled. **`updates`**
//!   (`set_value` calls) is one per relabelled vertex at superstep 0;
//!   afterwards one per message that lowered a component's label plus one
//!   per relabelled member after the first.
//! * **The scratch is borrowed clean and returned clean.** In this
//!   superstep [`WorklistScratch`](ebv_bsp::WorklistScratch)'s `flags` and
//!   `queue` index *components*, not vertices; they are sized to the
//!   component count the first time mail is folded and never grow after.
//! * **One message per changed vertex per replica**, as in the distance
//!   kernel, shipped component by component.

use ebv_bsp::{Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::VertexId;

/// [`WorklistScratch::flags`](ebv_bsp::WorklistScratch::flags) bit: the
/// component is queued for relabelling.
const QUEUED: u8 = 1;

/// Runs one component-min superstep (see the module documentation) and
/// returns the number of local vertices whose label changed.
pub(crate) fn component_min_superstep(
    ctx: &mut SubgraphContext<'_, u64, u64>,
    superstep: usize,
) -> usize {
    let sg = ctx.subgraph();
    let components = sg.local_components();
    let mut relabelled = 0usize;

    if superstep == 0 {
        debug_assert!(ctx.mail().next().is_none(), "superstep 0 has no mail");
        ctx.add_work((sg.num_edges() + sg.num_vertices()) as u64);
        for c in 0..components.len() {
            let members = components.members(c);
            let label = members
                .iter()
                .map(|&m| *ctx.value(m as usize))
                .min()
                .expect("a component has a member");
            for &m in members {
                let m = m as usize;
                if label < *ctx.value(m) {
                    ctx.set_value(m, label);
                    ctx.send_to_replicas(m, label);
                    relabelled += 1;
                }
            }
        }
        return relabelled;
    }

    // Taken so the context stays usable below; put back before returning.
    let mut scratch = std::mem::take(ctx.scratch());
    debug_assert!(scratch.queue.is_empty());
    scratch.flags.resize(components.len(), 0);
    scratch.queue.reserve(components.len());

    // Fold the mail into the labels, held on each component's first member.
    for (local, &message) in ctx.mail() {
        let c = components.component_of(local);
        let head = components.members(c)[0] as usize;
        if message < *ctx.value(head) {
            ctx.set_value(head, message);
            if scratch.flags[c] & QUEUED == 0 {
                scratch.flags[c] |= QUEUED;
                scratch.queue.push_back(c as u32);
            }
        }
    }

    // Relabel every member of a component whose label fell, and ship it.
    while let Some(c) = scratch.queue.pop_front() {
        let c = c as usize;
        scratch.flags[c] = 0;
        let members = components.members(c);
        let label = *ctx.value(members[0] as usize);
        ctx.add_work(members.len() as u64);
        for (i, &m) in members.iter().enumerate() {
            let m = m as usize;
            if i > 0 {
                debug_assert!(label < *ctx.value(m), "components are uniform");
                ctx.set_value(m, label);
            }
            ctx.send_to_replicas(m, label);
        }
        relabelled += members.len();
    }
    *ctx.scratch() = scratch;
    relabelled
}

/// Subgraph-centric Connected Components (CC), one of the three evaluation
/// applications of the paper.
///
/// Each vertex carries a component label initialized to its own identifier.
/// In every superstep each worker first folds the labels received from other
/// replicas, then brings the subgraph to its local fixpoint (this is the
/// "think like a graph" advantage: all intra-subgraph convergence happens
/// without any network traffic), and finally sends the labels of boundary
/// vertices that changed to their other replicas. The local fixpoint is
/// the component superstep of this module: the first superstep lowers each
/// local connected component to its minimum label, a later one relabels
/// only the components whose label a message lowered, so a superstep costs
/// the components it relabels, not the subgraph's edges. Edge direction is
/// ignored, as is conventional for CC.
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

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        component_min_superstep(ctx, superstep)
    }
}

/// The full-subgraph sweeps, cold and warm, kept as the oracles the
/// component superstep is checked against superstep by superstep.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::IncrementalConnectedComponents;

    /// Cold CC that re-sweeps the whole local CSR until a pass changes
    /// nothing, every superstep.
    pub(crate) struct SweepConnectedComponents;

    impl SubgraphProgram for SweepConnectedComponents {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
            vertex.raw()
        }

        fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _: usize) -> usize {
            sweep_superstep(ctx)
        }
    }

    /// Warm CC on the sweep: the warm start of the wrapped
    /// [`IncrementalConnectedComponents`] (its `warm_value`), then the
    /// sweep from every vertex.
    pub(crate) struct WarmSweepConnectedComponents<'a>(
        pub(crate) &'a IncrementalConnectedComponents,
    );

    impl SubgraphProgram for WarmSweepConnectedComponents<'_> {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, vertex: VertexId, subgraph: &Subgraph) -> u64 {
            self.0.initial_value(vertex, subgraph)
        }

        fn warm_value(&self, vertex: VertexId, prior: &u64, subgraph: &Subgraph) -> u64 {
            self.0.warm_value(vertex, prior, subgraph)
        }

        fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _: usize) -> usize {
            sweep_superstep(ctx)
        }
    }

    /// Folds the mail, propagates labels over the whole subgraph until a
    /// pass changes nothing and ships the changed labels.
    fn sweep_superstep(ctx: &mut SubgraphContext<'_, u64, u64>) -> usize {
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

    /// `work` counts superstep 0's union pass whether or not it ran, so a
    /// run that fills the component cache, a run that reads it and every
    /// executor report the same statistics — cold and warm alike.
    #[test]
    fn execution_stats_do_not_depend_on_the_component_cache_or_the_executor() {
        use crate::IncrementalConnectedComponents;
        use ebv_bsp::{MutationBatch, RunOptions};
        use ebv_graph::Edge;
        use ebv_partition::{EbvPartitioner, PartitionId};

        let graph = RmatGenerator::new(8, 6).with_seed(25).generate().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
        let assignment = partition.as_vertex_cut().unwrap().assignment().to_vec();
        let fresh = || DistributedGraph::build(&graph, &partition).unwrap();
        let engines = [
            BspEngine::sequential(),
            BspEngine::pooled(1),
            BspEngine::pooled(2),
            BspEngine::pooled(3),
        ];

        let dg = fresh();
        let filling = engines[0].run(&dg, &ConnectedComponents::new()).unwrap();
        assert!(dg
            .subgraphs()
            .iter()
            .all(|sg| !sg.local_components().is_empty()));
        for engine in &engines {
            let cached = engine.run(&dg, &ConnectedComponents::new()).unwrap();
            assert_eq!(cached.values, filling.values, "{:?}", engine.mode());
            assert_eq!(cached.stats, filling.stats, "{:?}", engine.mode());
        }

        // One epoch that splits and merges: every eighth edge goes, two
        // edges join what is left.
        let mut batch = MutationBatch::new();
        for (index, (&edge, &part)) in graph.edges().iter().zip(&assignment).enumerate() {
            if index % 8 == 0 {
                batch.record_delete(edge, part);
            }
        }
        batch.record_insert(Edge::from((1u64, 200u64)), PartitionId::new(2));
        batch.record_insert(Edge::from((3u64, 255u64)), PartitionId::new(0));
        let program = IncrementalConnectedComponents::from_batch(&filling.values, &batch);
        let warm = |dg: &DistributedGraph, engine: &BspEngine| {
            let options = RunOptions::new().warm_seed(&filling.values);
            engine.run_opts(dg, &program, options).unwrap()
        };
        // The worker the batch rebuilt starts without components; a fresh
        // distribution has none anywhere.
        let mut kept = dg;
        kept.apply_mutations(&batch).unwrap();
        let mut empty = fresh();
        empty.apply_mutations(&batch).unwrap();
        let filling = warm(&empty, &engines[0]);
        let cold = engines[0].run(&empty, &ConnectedComponents::new()).unwrap();
        assert_eq!(filling.values, cold.values);
        for engine in &engines {
            for dg in [&empty, &kept] {
                let cached = warm(dg, engine);
                assert_eq!(cached.values, filling.values, "{:?}", engine.mode());
                assert_eq!(cached.stats, filling.stats, "{:?}", engine.mode());
            }
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
