//! Warm-start Connected Components (see the module-level discussion in
//! [`crate::incremental`] for the full design).

use ebv_bsp::{MutationBatch, Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::{VertexId, VertexSet};

use crate::cc::component_min_superstep;

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
    /// Prior labels whose components must be recomputed from scratch: a
    /// deletion may split the components of its endpoints, and min-label
    /// propagation cannot *raise* stale labels, so the endpoints' whole
    /// prior components reset. Membership only (`warm_value` probes it once
    /// per replica), sized to the prior's universe on every absorb, since a
    /// label is the smallest id of its component; a larger label the caller
    /// handed in spills.
    dirty: VertexSet,
}

impl IncrementalConnectedComponents {
    /// Creates a pure warm restart: nothing is dirty, so the run converges
    /// in one superstep, sending nothing, when the prior labels are still
    /// valid.
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

    /// Folds one more mutation batch into the dirty labels: the prior labels
    /// of every removed edge's endpoints (an endpoint newer than `prior` has
    /// none). Insertions dirty nothing, since the first superstep lowers
    /// every local component to its minimum anyway. Every batch applied
    /// since `prior` was computed must be absorbed (in any order) before
    /// the warm run.
    pub fn absorb(&mut self, prior: &[u64], batch: &MutationBatch) {
        self.dirty.grow_universe(prior.len());
        for &(edge, _) in batch.removed() {
            for v in [edge.src, edge.dst] {
                if let Some(&label) = prior.get(v.index()) {
                    self.dirty.insert(label);
                }
            }
        }
    }
}

impl SubgraphProgram for IncrementalConnectedComponents {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn warm_value(&self, vertex: VertexId, prior: &u64, _subgraph: &Subgraph) -> u64 {
        if self.dirty.contains(*prior) {
            vertex.raw()
        } else {
            *prior
        }
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        component_min_superstep(ctx, superstep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::cc_reference;
    use crate::ConnectedComponents;
    use ebv_bsp::{BspEngine, DistributedGraph, RunOptions};
    use ebv_graph::{Edge, Graph};
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

    /// The distinct labels of `labels`, ascending: one representative (the
    /// smallest member) per component.
    fn representatives(labels: &[u64]) -> Vec<u64> {
        let mut reps: Vec<u64> = labels.to_vec();
        reps.sort_unstable();
        reps.dedup();
        reps
    }

    /// Warm CC's component superstep equals the warm sweep — the same warm
    /// start, then label propagation over every edge — superstep by
    /// superstep and worker by worker over churned epochs: deletions that
    /// split, insertions that merge, a mixed batch growing the universe
    /// and a pure restart. This turns "the FIFO kernel's warm superstep 0
    /// already reached the full fixpoint" into a checked fact.
    #[test]
    fn warm_component_superstep_equals_the_warm_sweep() {
        use crate::cc::oracle::WarmSweepConnectedComponents;
        use crate::oracle::{assert_equals_oracle, Work};
        use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};

        let graphs = [
            (
                "rmat",
                RmatGenerator::new(7, 5).with_seed(25).generate().unwrap(),
            ),
            (
                "road",
                GridGenerator::new(12, 11)
                    .with_deletion_probability(0.1)
                    .with_seed(25)
                    .generate()
                    .unwrap(),
            ),
            ("path", named::path_graph(40).unwrap()),
        ];
        for (name, graph) in &graphs {
            for p in [1usize, 2, 4, 7] {
                let (mut distributed, mut survivors) = distribute(graph, p);
                let engine = BspEngine::sequential();
                let mut labels = engine
                    .run(&distributed, &ConnectedComponents::new())
                    .unwrap()
                    .values;
                let part = |i: usize| PartitionId::from_index(i % p);
                let n = graph.num_vertices() as u64;
                for shape in ["deletions", "insertions", "mixed"] {
                    let reps = representatives(&labels);
                    let mut batch = MutationBatch::new();
                    let mut removed = Vec::new();
                    match shape {
                        "deletions" => removed.extend((0..survivors.len()).filter(|i| i % 3 != 0)),
                        "insertions" => {
                            for (i, pair) in reps.windows(2).take(6).enumerate() {
                                let edge = Edge::from((pair[0], pair[1]));
                                batch.record_insert(edge, part(i));
                                survivors.push((edge, part(i)));
                            }
                        }
                        _ => {
                            removed.extend((0..survivors.len()).step_by(4));
                            for k in 0..3 {
                                for edge in
                                    [(n + k, reps[k as usize % reps.len()]), (n + k, n + k + 1)]
                                {
                                    let edge = Edge::from(edge);
                                    batch.record_insert(edge, part(k as usize));
                                    survivors.push((edge, part(k as usize)));
                                }
                            }
                        }
                    }
                    for &index in removed.iter().rev() {
                        let (edge, part) = survivors.remove(index);
                        batch.record_delete(edge, part);
                    }
                    let what = format!("{name} p={p} {shape}");
                    let program = IncrementalConnectedComponents::from_batch(&labels, &batch);
                    distributed.apply_mutations(&batch).unwrap();
                    let warm = assert_equals_oracle(
                        &distributed,
                        (program.clone(), WarmSweepConnectedComponents(&program)),
                        Some(&labels),
                        Work::Components,
                        &what,
                    );
                    let cold = engine
                        .run(&distributed, &ConnectedComponents::new())
                        .unwrap();
                    assert_eq!(warm.values, cold.values, "{what}: warm == cold");
                    let components = representatives(&warm.values).len();
                    match shape {
                        "deletions" if *name == "path" => {
                            assert!(components > reps.len(), "{what}: nothing split")
                        }
                        "insertions" => assert!(components < reps.len(), "{what}: nothing merged"),
                        _ => {}
                    }
                    labels = warm.values;
                }

                let restart = IncrementalConnectedComponents::new();
                let warm = assert_equals_oracle(
                    &distributed,
                    (restart.clone(), WarmSweepConnectedComponents(&restart)),
                    Some(&labels),
                    Work::Components,
                    &format!("{name} p={p} restart"),
                );
                assert_eq!(warm.values, labels);
                assert_eq!(warm.supersteps, 1, "{name} p={p}: one quiescent superstep");
                assert_eq!(warm.stats.total_messages(), 0, "{name} p={p}");
            }
        }
    }

    /// A prior is caller data: a label far past the vertex universe must
    /// still reset every vertex carrying it, without sizing the dirty set to
    /// the label's magnitude (a bit per id up to `u64::MAX - 1` would abort).
    #[test]
    fn a_label_past_the_universe_resets_its_component_without_sizing_the_set() {
        let graph = ebv_graph::generators::named::two_triangles();
        let (mut distributed, assigned) = distribute(&graph, 2);
        let engine = BspEngine::sequential();
        let cold = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap()
            .values;
        let (removed, part) = assigned[0];
        let stale = u64::MAX - 1;
        let relabelled = cold[removed.src.index()];
        let prior: Vec<u64> = cold
            .iter()
            .map(|&label| if label == relabelled { stale } else { label })
            .collect();
        assert!(prior.contains(&stale) && prior.iter().any(|&label| label != stale));

        let mut batch = MutationBatch::new();
        batch.record_delete(removed, part);
        let program = IncrementalConnectedComponents::from_batch(&prior, &batch);
        assert_eq!(program.dirty.len(), 1);
        for (v, label) in prior.iter().enumerate() {
            let reset = program.dirty.contains(*label);
            assert_eq!(reset, *label == stale, "vertex {v}");
        }

        distributed.apply_mutations(&batch).unwrap();
        let warm = engine
            .run_opts(&distributed, &program, RunOptions::new().warm_seed(&prior))
            .unwrap();
        let cold = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap();
        assert_eq!(warm.values, cold.values, "warm CC must be bit-identical");
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
        assert_eq!(program.dirty.len(), 0);
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
