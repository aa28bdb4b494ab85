//! Warm-start Connected Components (see the module-level discussion in
//! [`crate::incremental`] for the full design).

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use ebv_bsp::{
    InvalidationPolicy, MutationBatch, Subgraph, SubgraphContext, SubgraphProgram, WarmFrontier,
};
use ebv_graph::{Edge, IdHasher, VertexId};

use crate::kernel::{gated_min_superstep, Activation, Flow};

/// The CC [`InvalidationPolicy`]: a deletion may split the components of its
/// endpoints, and min-label propagation cannot *raise* stale labels, so the
/// endpoints' whole prior components are conservatively reset.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComponentInvalidation {
    /// Prior labels whose components must be recomputed from scratch
    /// (membership only: `warm_value` probes it once per local vertex).
    dirty: HashSet<u64, BuildHasherDefault<IdHasher>>,
}

impl InvalidationPolicy for ComponentInvalidation {
    type Value = u64;

    fn on_removed_edge(&mut self, _edge: Edge, src_prior: Option<&u64>, dst_prior: Option<&u64>) {
        for &label in [src_prior, dst_prior].into_iter().flatten() {
            self.dirty.insert(label);
        }
    }

    fn is_dirty(&self, _vertex: VertexId, prior: &u64) -> bool {
        self.dirty.contains(prior)
    }
}

/// Warm-start Connected Components (see the module-level discussion in
/// [`crate::incremental`] for the full design).
///
/// Build one per epoch from the previous epoch's labels and the applied
/// [`MutationBatch`] (or [`absorb`](Self::absorb) several batches applied
/// since those labels were produced), then execute with
/// [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed) passing the same
/// prior labels.
///
/// # Examples
///
/// ```
/// use ebv_algorithms::{ConnectedComponents, IncrementalConnectedComponents};
/// use ebv_bsp::{BspEngine, DistributedGraph, MutationBatch, RunOptions};
/// use ebv_graph::Edge;
/// use ebv_partition::PartitionId;
///
/// # fn main() -> Result<(), ebv_bsp::BspError> {
/// let mut distributed = DistributedGraph::build_streaming(
///     2,
///     None,
///     vec![
///         (Edge::from((0u64, 1u64)), PartitionId::new(0)),
///         (Edge::from((2u64, 3u64)), PartitionId::new(1)),
///     ],
/// )?;
/// let engine = BspEngine::sequential();
/// let cold = engine.run(&distributed, &ConnectedComponents::new())?;
///
/// let mut batch = MutationBatch::new();
/// batch.record_insert(Edge::from((1u64, 2u64)), PartitionId::new(0));
/// distributed.apply_mutations(&batch)?;
///
/// let program = IncrementalConnectedComponents::from_batch(&cold.values, &batch);
/// let warm = engine.run_opts(&distributed, &program, RunOptions::new().warm_seed(&cold.values))?;
/// assert_eq!(warm.values, vec![0, 0, 0, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalConnectedComponents {
    frontier: WarmFrontier<ComponentInvalidation>,
}

impl IncrementalConnectedComponents {
    /// Creates a pure warm restart: nothing is dirty, nothing is seeded, so
    /// the run converges immediately when the prior labels are still valid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the program for one mutation batch applied on top of the
    /// graph that produced `prior`.
    pub fn from_batch(prior: &[u64], batch: &MutationBatch) -> Self {
        let mut program = Self::new();
        program.absorb(prior, batch);
        program
    }

    /// Folds one more mutation batch into the dirty/seed sets. Every batch
    /// applied since `prior` was computed must be absorbed (in any order)
    /// before the warm run.
    pub fn absorb(&mut self, prior: &[u64], batch: &MutationBatch) {
        self.frontier.absorb(prior, batch);
    }

    /// Number of prior component labels scheduled for recomputation.
    pub fn dirty_components(&self) -> usize {
        self.frontier.policy().dirty.len()
    }

    /// Number of seed vertices activated in the first superstep.
    pub fn seed_vertices(&self) -> usize {
        self.frontier.seed_vertices()
    }
}

impl SubgraphProgram for IncrementalConnectedComponents {
    type Value = u64;
    type Message = u64;

    fn name(&self) -> String {
        "CC-warm".to_string()
    }

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn warm_value(&self, vertex: VertexId, prior: &u64, _subgraph: &Subgraph) -> u64 {
        self.frontier
            .retain(vertex, prior)
            .copied()
            .unwrap_or_else(|| vertex.raw())
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        gated_min_superstep(
            ctx,
            superstep,
            Flow::Labels,
            |raw| self.frontier.is_seed(raw),
            Activation::SelfLabeled,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::cc_reference;
    use crate::ConnectedComponents;
    use ebv_bsp::{BspEngine, DistributedGraph, RunOptions};
    use ebv_graph::Graph;
    use ebv_partition::{EbvPartitioner, PartitionId, Partitioner};

    fn distribute(graph: &Graph, p: usize) -> (DistributedGraph, Vec<(Edge, PartitionId)>) {
        let partition = EbvPartitioner::new().partition(graph, p).unwrap();
        let vc = partition.as_vertex_cut().unwrap();
        let assigned: Vec<(Edge, PartitionId)> = graph
            .edges()
            .iter()
            .copied()
            .zip(vc.assignment().iter().copied())
            .collect();
        (
            DistributedGraph::build(graph, &partition).unwrap(),
            assigned,
        )
    }

    #[test]
    fn warm_cc_handles_inserts_deletes_and_splits() {
        let graph = ebv_graph::generators::named::small_social_graph();
        let (mut distributed, assigned) = distribute(&graph, 3);
        let engine = BspEngine::sequential();
        let mut labels = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap()
            .values;
        assert_eq!(labels, cc_reference(&graph));

        // Three epochs: deletions that may split, insertions that merge,
        // and a mixed batch growing the universe.
        let mut survivors = assigned.clone();
        let batches: Vec<Vec<(bool, Edge, PartitionId)>> = vec![
            survivors
                .iter()
                .step_by(4)
                .map(|&(e, p)| (false, e, p))
                .collect(),
            vec![
                (true, Edge::from((0u64, 13u64)), PartitionId::new(1)),
                (true, Edge::from((2u64, 7u64)), PartitionId::new(2)),
            ],
            vec![
                (false, survivors[1].0, survivors[1].1),
                (true, Edge::from((5u64, 20u64)), PartitionId::new(0)),
            ],
        ];
        for ops in batches {
            let mut batch = MutationBatch::new();
            for &(is_insert, e, p) in &ops {
                if is_insert {
                    batch.record_insert(e, p);
                    survivors.push((e, p));
                } else {
                    batch.record_delete(e, p);
                    let pos = survivors.iter().rposition(|&pair| pair == (e, p)).unwrap();
                    survivors.remove(pos);
                }
            }
            let program = IncrementalConnectedComponents::from_batch(&labels, &batch);
            distributed.apply_mutations(&batch).unwrap();
            let warm = engine
                .run_opts(&distributed, &program, RunOptions::new().warm_seed(&labels))
                .unwrap();
            let cold = engine
                .run(&distributed, &ConnectedComponents::new())
                .unwrap();
            assert_eq!(warm.values, cold.values, "warm CC must be bit-identical");
            labels = warm.values;
        }
    }

    #[test]
    fn warm_cc_on_an_untouched_graph_converges_immediately() {
        let graph = ebv_graph::generators::named::two_triangles();
        let (distributed, _) = distribute(&graph, 2);
        let engine = BspEngine::sequential();
        let cold = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap();
        let program = IncrementalConnectedComponents::new();
        assert_eq!(program.dirty_components(), 0);
        assert_eq!(program.seed_vertices(), 0);
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.supersteps, 1, "nothing to do: one quiescent superstep");
        assert_eq!(warm.stats.total_messages(), 0);
    }
}
