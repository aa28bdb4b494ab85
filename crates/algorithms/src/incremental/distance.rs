//! Warm-start SSSP: delta-stepping-style re-activation of hop distances
//! across mutation epochs (see the module-level discussion in
//! [`crate::incremental`] for the full design). [`IncrementalSssp`] owns its
//! invalidation, derived once per batch by
//! [`from_distributed`](IncrementalSssp::from_distributed):
//!
//! * **Insertions** only shorten paths, so every prior distance remains a
//!   valid upper bound; the inserted endpoints are seeded and relax
//!   downward from there.
//! * **Deletions** may lengthen or sever paths. A deleted edge `u→v` can
//!   only have carried shortest paths if it was *tight* in the prior
//!   outcome (`prior[u] + 1 == prior[v]`). The **cone** is every vertex
//!   whose every tight certificate chain crossed such an edge, walked
//!   outward from the deleted tight edges' heads over the post-mutation
//!   graph: its distances reset to unreachable, everything outside it
//!   provably kept its exact distance. The surviving settled rim re-relaxes
//!   into the reset cone.
//!
//! Every warm seed is therefore an upper bound of the new true distance
//! with the source at 0, so the monotone relaxation fixpoint *is* the cold
//! answer — warm SSSP is bit-identical to cold runs, it just starts next to
//! the fixpoint instead of at infinity.

use ebv_bsp::{DistributedGraph, MutationBatch, Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::{VertexId, VertexSet};

use crate::kernel::{gated_min_superstep, Activation};
use crate::UNREACHABLE;

/// A set of raw vertex ids, membership only. Every member has a finite
/// prior distance, so a cone sized for `0..prior.len()` never spills: a bit
/// per id, probed once per replica at warm seeding.
type Cone = VertexSet;

/// The precise invalidation cone of one batch, over the **post-mutation**
/// distribution: every vertex with a finite prior distance that no longer
/// has a *tight certificate chain* — a path of present edges `u→v` with
/// `prior[u] + 1 == prior[v]` all the way from the source.
///
/// `prior` is the outcome on the graph `batch` was applied to, so before
/// the batch every finite vertex had such a chain, and inserted edges only
/// add support: a vertex can lose its chain only by being the head of a
/// removed tight edge or a tight out-neighbour of a vertex that lost its
/// own. The walk therefore starts at the removed tight edges' heads and
/// decides candidates level by level in ascending `prior` — when `v` is
/// decided, every vertex one level down is final, so `v` keeps its chain
/// iff some present tight in-edge comes from outside the cone (a surviving
/// parallel copy of a removed edge, or a coincidentally tight inserted one,
/// counts) — and a vertex that joins the cone nominates its tight
/// out-neighbours for the next level. Within a level the order does not
/// matter, since a decision reads only the level below. The cost follows
/// the cone and its in-edges, not the graph.
///
/// A prior whose source is not at 0 certifies nothing: its cone is every
/// finite non-source vertex, returned directly.
fn walked_cone(
    source: VertexId,
    distributed: &DistributedGraph,
    prior: &[u64],
    batch: &MutationBatch,
) -> Cone {
    let finite = |v: VertexId| prior.get(v.index()).copied().filter(|&d| d != UNREACHABLE);
    if prior.get(source.index()) != Some(&0) {
        return (0..prior.len() as u64)
            .filter(|&raw| raw != source.raw() && prior[raw as usize] != UNREACHABLE)
            .collect();
    }

    let mut heads = Vec::new();
    let mut nominated = Cone::new(prior.len());
    for &(edge, _) in batch.removed() {
        if let (Some(du), Some(dv)) = (finite(edge.src), finite(edge.dst)) {
            if du + 1 == dv && nominated.insert(edge.dst.raw()) {
                heads.push((dv, edge.dst.raw()));
            }
        }
    }
    heads.sort_unstable();
    let mut heads = heads.into_iter().peekable();
    let mut cone = Cone::new(prior.len());
    // `level` holds the candidates at distance `dv`, `next` the ones they
    // nominate at `dv + 1`.
    let (mut level, mut next) = (Vec::new(), Vec::new());
    let mut dv = 0;
    loop {
        if level.is_empty() {
            // Nothing was nominated into this level: go to the next head's.
            match heads.peek() {
                Some(&(head_level, _)) => dv = head_level,
                None => break,
            }
        }
        while let Some((_, raw)) = heads.next_if(|&(head_level, _)| head_level == dv) {
            level.push(raw);
        }
        for &raw in &level {
            let v = VertexId::new(raw);
            let certified = distributed.holders_of(v).any(|(sg, local)| {
                sg.in_neighbors(local).iter().any(|&w_local| {
                    let w = sg.vertex_at(w_local as usize);
                    finite(w).is_some_and(|dw| dw + 1 == dv) && !cone.contains(w.raw())
                })
            });
            if certified {
                continue;
            }
            cone.insert(raw);
            for (sg, local) in distributed.holders_of(v) {
                for &x_local in sg.out_neighbors(local) {
                    let x = sg.vertex_at(x_local as usize);
                    if finite(x) == Some(dv + 1) && nominated.insert(x.raw()) {
                        next.push(x.raw());
                    }
                }
            }
        }
        level.clear();
        std::mem::swap(&mut level, &mut next);
        dv += 1;
    }
    cone
}

/// The cone by exhaustive scan — the oracle [`walked_cone`] is checked
/// against (inside `from_distributed` in debug builds, so every suite that
/// warms SSSP is a differential test of the walk). It reads only the
/// post-mutation graph and `prior`: every finite vertex without a tight
/// chain, whatever the batch was.
///
/// One O(E + V + D) vector sweep.
#[cfg(any(test, debug_assertions))]
fn unsupported_cone(source: VertexId, distributed: &DistributedGraph, prior: &[u64]) -> Cone {
    // Bucket the tight edges by head distance, streaming each subgraph's
    // CSR adjacency (tails grouped, one offset lookup per tail). A tight
    // edge's head distance is itself a finite prior, so one bucket per
    // level up to the largest finite prior holds them all — about ten
    // levels on a power-law graph, not |V|. Hop distances are < |V|, so
    // anything larger cannot come from a real outcome; such an edge simply
    // certifies nothing. Within a level the sweep below is
    // order-independent (every tail sits one level down), so the CSR visit
    // order is as good as edge order.
    let levels = prior
        .iter()
        .filter(|&&distance| distance != UNREACHABLE)
        .max()
        .map_or(0, |&deepest| deepest.min(prior.len() as u64) as usize + 1);
    let mut tight_by_level: Vec<Vec<(usize, usize)>> = vec![Vec::new(); levels];
    for sg in distributed.subgraphs() {
        for (u_local, &u) in sg.vertices().iter().enumerate() {
            let Some(&du) = prior.get(u.index()) else {
                continue;
            };
            if du == UNREACHABLE {
                continue;
            }
            for &v_local in sg.out_neighbors(u_local) {
                let v = sg.vertex_at(v_local as usize);
                let Some(&dv) = prior.get(v.index()) else {
                    continue;
                };
                if du + 1 == dv && dv < levels as u64 {
                    tight_by_level[dv as usize].push((u.index(), v.index()));
                }
            }
        }
    }

    // Walk the levels upward: a vertex is supported when any tight
    // in-neighbor one level below is (tails of a level-d edge sit at d-1,
    // so they are already settled when their level is processed).
    let mut supported = vec![false; prior.len()];
    if prior.get(source.index()) == Some(&0) {
        supported[source.index()] = true;
    }
    for level in tight_by_level {
        for (u, v) in level {
            if supported[u] {
                supported[v] = true;
            }
        }
    }
    prior
        .iter()
        .enumerate()
        .filter(|&(index, &distance)| {
            distance != UNREACHABLE && index as u64 != source.raw() && !supported[index]
        })
        .map(|(index, _)| index as u64)
        .collect()
}

/// The per-worker start bitmaps of [`IncrementalSssp::start`], set through
/// each vertex's holders in the replica table.
fn start_bitmaps(
    source: VertexId,
    distributed: &DistributedGraph,
    prior: &[u64],
    seeds: &VertexSet,
    cone: &Cone,
) -> Vec<Vec<u64>> {
    let subgraphs = distributed.subgraphs();
    let mut start: Vec<Vec<u64>> = (subgraphs.iter())
        .map(|sg| vec![0; sg.num_vertices().div_ceil(64)])
        .collect();
    let grown = prior.len() as u64..distributed.num_vertices() as u64;
    let firsts = seeds.iter().chain(cone.iter()).chain(grown);
    for raw in firsts.chain([source.raw()]) {
        for (sg, local) in distributed.holders_of(VertexId::new(raw)) {
            start[sg.part().index()][local / 64] |= 1 << (local % 64);
        }
    }
    start
}

/// Warm-start Single-Source Shortest Path: distance-equal (in fact
/// bit-identical — hop distances are integers) to a cold
/// [`crate::SingleSourceShortestPath`] run on the mutated graph. See the
/// module-level discussion in [`crate::incremental`] for the invalidation
/// design.
///
/// # Examples
///
/// ```
/// use ebv_algorithms::{IncrementalSssp, SingleSourceShortestPath};
/// use ebv_bsp::{BspEngine, DistributedGraph, MutationBatch, RunOptions};
/// use ebv_graph::{Edge, VertexId};
/// use ebv_partition::PartitionId;
///
/// # fn main() -> Result<(), ebv_bsp::BspError> {
/// let mut distributed = DistributedGraph::build_streaming(
///     2,
///     None,
///     vec![
///         (Edge::from((0u64, 1u64)), PartitionId::new(0)),
///         (Edge::from((1u64, 2u64)), PartitionId::new(1)),
///     ],
/// )?;
/// let engine = BspEngine::sequential();
/// let source = VertexId::new(0);
/// let cold = engine.run(&distributed, &SingleSourceShortestPath::new(source))?;
/// assert_eq!(cold.values, vec![0, 1, 2]);
///
/// // A shortcut 0→2 arrives: only its endpoints re-activate.
/// let mut batch = MutationBatch::new();
/// batch.record_insert(Edge::from((0u64, 2u64)), PartitionId::new(0));
/// distributed.apply_mutations(&batch)?;
///
/// let program = IncrementalSssp::from_distributed(source, &distributed, &cold.values, &batch);
/// assert_eq!(program.cone_vertices(), 0, "insertions invalidate nothing");
/// let warm =
///     engine.run_opts(&distributed, &program, RunOptions::new().warm_seed(&cold.values))?;
/// assert_eq!(warm.values, vec![0, 1, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSssp {
    source: VertexId,
    /// Raw ids the first superstep activates: the endpoints of inserted
    /// edges, and removed-edge endpoints newer than the prior (they start
    /// unreachable and may still need to propagate it). The kernel probes it
    /// once per local vertex, so it is a bit per id, sized to the prior's
    /// universe; endpoints the universe has since grown by spill beside the
    /// bits.
    seeds: VertexSet,
    /// Raw ids whose prior distance lost every deletion-free certificate
    /// (the downstream cones of the deleted tight edges). Never holds the
    /// source.
    cone: Cone,
    /// Per worker, a bit per local vertex: the replicas of the seeds, the
    /// cone, every id at or past `prior.len()` and the source. These are
    /// the only locals whose first-superstep activations can be non-empty
    /// (a settled vertex that is no seed activates nothing, and an
    /// unreached one outside them has no settled in-neighbour, since its
    /// in-edges are the prior graph's or inserted), so the kernel's first
    /// superstep visits them alone. `Σ|V_i| / 8` bytes per program.
    start: Vec<Vec<u64>>,
}

impl IncrementalSssp {
    /// Creates the program for one mutation batch applied on top of the
    /// graph that produced `prior`, walking the **post-mutation**
    /// `distributed` (the batch already applied, exactly what
    /// `EventPipeline::run_applied` hands its epoch callback) outward from
    /// the batch's removed tight edges to compute the invalidation cone —
    /// only vertices whose every tight shortest-path certificate crossed a
    /// deleted edge are reset — at a cost that follows the cone, not the
    /// graph. `batch` also contributes the seeds. A `prior` from further
    /// back (several batches since) is outside the contract: run SSSP cold
    /// instead.
    pub fn from_distributed(
        source: VertexId,
        distributed: &DistributedGraph,
        prior: &[u64],
        batch: &MutationBatch,
    ) -> Self {
        let mut seeds = VertexSet::new(prior.len());
        for &(edge, _) in batch.removed() {
            for v in [edge.src, edge.dst] {
                if prior.get(v.index()).is_none() {
                    seeds.insert(v.raw());
                }
            }
        }
        for &(edge, _) in batch.added() {
            seeds.insert(edge.src.raw());
            seeds.insert(edge.dst.raw());
        }
        let cone = walked_cone(source, distributed, prior, batch);
        #[cfg(debug_assertions)]
        assert_eq!(
            cone,
            unsupported_cone(source, distributed, prior),
            "the walked cone differs from the scanned one: is `prior` the outcome on the \
             graph this batch was applied to?"
        );
        let start = start_bitmaps(source, distributed, prior, &seeds, &cone);
        IncrementalSssp {
            source,
            seeds,
            cone,
            start,
        }
    }

    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of seed vertices activated in the first superstep.
    pub fn seed_vertices(&self) -> usize {
        self.seeds.len()
    }

    /// Number of vertices in the invalidation cone.
    pub fn cone_vertices(&self) -> usize {
        self.cone.len()
    }
}

#[cfg(test)]
impl IncrementalSssp {
    /// The same program without a start set: its first superstep scans
    /// every local, as it did before the start set.
    pub(super) fn scanning(&self) -> Self {
        IncrementalSssp {
            start: Vec::new(),
            ..self.clone()
        }
    }
}

impl SubgraphProgram for IncrementalSssp {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        if vertex == self.source {
            0
        } else {
            UNREACHABLE
        }
    }

    fn warm_value(&self, vertex: VertexId, prior: &u64, _subgraph: &Subgraph) -> u64 {
        // A reset vertex restarts from its cold value: unreachable for
        // every vertex but the source, which the cone never holds.
        if self.cone.contains(vertex.raw()) {
            UNREACHABLE
        } else {
            *prior
        }
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        let start = self.start.get(ctx.subgraph().part().index());
        gated_min_superstep(
            ctx,
            superstep,
            |raw| self.seeds.contains(raw),
            Activation::DistanceFrontier,
            start.map(Vec::as_slice),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SingleSourceShortestPath;
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
    fn warm_sssp_handles_inserts_deletes_and_severed_paths() {
        let graph = ebv_graph::generators::named::small_social_graph();
        let (mut distributed, assigned) = distribute(&graph, 3);
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let mut distances = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap()
            .values;

        // Epoch 1: delete every fourth edge (may sever shortest paths);
        // epoch 2: insert shortcuts; epoch 3: mixed batch growing the
        // universe.
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
            distributed.apply_mutations(&batch).unwrap();
            let program =
                IncrementalSssp::from_distributed(source, &distributed, &distances, &batch);
            let warm = engine
                .run_opts(
                    &distributed,
                    &program,
                    RunOptions::new().warm_seed(&distances),
                )
                .unwrap();
            let cold = engine
                .run(&distributed, &SingleSourceShortestPath::new(source))
                .unwrap();
            assert_eq!(warm.values, cold.values, "warm SSSP must be distance-equal");
            distances = warm.values;
        }
    }

    #[test]
    fn warm_sssp_on_an_untouched_graph_converges_immediately() {
        let graph = ebv_graph::generators::named::two_triangles();
        let (distributed, _) = distribute(&graph, 2);
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        let program = IncrementalSssp::from_distributed(
            source,
            &distributed,
            &cold.values,
            &MutationBatch::new(),
        );
        assert_eq!(program.source(), source);
        assert_eq!(program.cone_vertices(), 0);
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

    #[test]
    fn deleting_a_tight_edge_resets_its_cone() {
        // Path 0→1→2→3 distributed over two workers; deleting 1→2 severs
        // the tail, which must re-settle to unreachable.
        let edges = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((1u64, 2u64)), PartitionId::new(0)),
            (Edge::from((2u64, 3u64)), PartitionId::new(1)),
        ];
        let mut distributed = DistributedGraph::build_streaming(2, None, edges).unwrap();
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        assert_eq!(cold.values, vec![0, 1, 2, 3]);

        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((1u64, 2u64)), PartitionId::new(0));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &cold.values, &batch);
        // The deleted edge was tight: vertices 2 and 3 lost their only
        // certificate and reset, vertices 0 and 1 keep exact distances.
        assert_eq!(program.cone.iter().collect::<Vec<_>>(), vec![2, 3]);
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();
        assert_eq!(warm.values, vec![0, 1, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn deleting_a_slack_edge_invalidates_nothing() {
        // 0→1, 0→2, 1→2: the edge 1→2 is slack (prior 0+... 1+1 > 1), so
        // deleting it must keep every settled distance.
        let edges = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((0u64, 2u64)), PartitionId::new(1)),
            (Edge::from((1u64, 2u64)), PartitionId::new(0)),
        ];
        let mut distributed = DistributedGraph::build_streaming(2, None, edges).unwrap();
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        assert_eq!(cold.values, vec![0, 1, 1]);

        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((1u64, 2u64)), PartitionId::new(0));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &cold.values, &batch);
        assert_eq!(
            program.cone_vertices(),
            0,
            "slack edges carry no shortest path"
        );
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();
        assert_eq!(warm.values, vec![0, 1, 1]);
        assert_eq!(warm.supersteps, 1, "no invalidation, no seeds: quiescent");
    }

    #[test]
    fn the_precise_cone_spares_vertices_with_surviving_certificates() {
        // Diamond 0→1, 0→2, 1→3, 2→3: deleting 0→1 leaves only vertex 1
        // without a certificate — 2 keeps 0→2 and 3 keeps 2→3.
        let edges = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((0u64, 2u64)), PartitionId::new(1)),
            (Edge::from((1u64, 3u64)), PartitionId::new(0)),
            (Edge::from((2u64, 3u64)), PartitionId::new(1)),
        ];
        let mut distributed = DistributedGraph::build_streaming(2, None, edges).unwrap();
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        assert_eq!(cold.values, vec![0, 1, 1, 2]);

        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((0u64, 1u64)), PartitionId::new(0));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &cold.values, &batch);
        assert_eq!(
            program.cone_vertices(),
            1,
            "only vertex 1 lost its certificate"
        );
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();
        assert_eq!(warm.values, vec![0, UNREACHABLE, 1, 2]);
    }

    #[test]
    fn from_distributed_certifies_via_surviving_parallel_copies() {
        // Two parallel copies of 0→1 on different workers: deleting one
        // leaves a surviving certificate, so nothing is invalidated.
        let edges = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((0u64, 1u64)), PartitionId::new(1)),
            (Edge::from((1u64, 2u64)), PartitionId::new(1)),
        ];
        let mut distributed = DistributedGraph::build_streaming(2, None, edges).unwrap();
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((0u64, 1u64)), PartitionId::new(0));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &cold.values, &batch);
        assert_eq!(program.cone_vertices(), 0, "a parallel copy survives");
        let warm = engine
            .run_opts(
                &distributed,
                &program,
                RunOptions::new().warm_seed(&cold.values),
            )
            .unwrap();
        assert_eq!(warm.values, vec![0, 1, 2]);
        assert_eq!(warm.supersteps, 1, "no invalidation, no seeds: quiescent");
    }

    #[test]
    fn a_prior_no_run_produced_certifies_nothing_and_sizes_nothing() {
        // Path 0→1→2→3 with "distances" beyond |V| on its tail: the level
        // table stays bounded by |V| (not by the absurd value) and the
        // tight-looking edge 2→3 certifies nothing.
        let edges = (0u64..3).map(|i| (Edge::from((i, i + 1)), PartitionId::new(0)));
        let distributed = DistributedGraph::build_streaming(1, None, edges).unwrap();
        let prior = [0, 1, u64::MAX - 2, u64::MAX - 1];
        let cone = unsupported_cone(VertexId::new(0), &distributed, &prior);
        assert_eq!(cone.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn seeds_are_inserted_and_post_prior_removed_endpoints() {
        // Cycle 0→1→2→0 plus 3→1; the prior predates vertex 3.
        let edges = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((1u64, 2u64)), PartitionId::new(0)),
            (Edge::from((2u64, 0u64)), PartitionId::new(1)),
            (Edge::from((3u64, 1u64)), PartitionId::new(0)),
        ];
        let mut distributed = DistributedGraph::build_streaming(2, None, edges).unwrap();
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let prior = [0, 1, 2];

        let mut batch = MutationBatch::new();
        batch.record_insert(Edge::from((0u64, 1u64)), PartitionId::new(1));
        batch.record_delete(Edge::from((2u64, 0u64)), PartitionId::new(1));
        batch.record_delete(Edge::from((3u64, 1u64)), PartitionId::new(0));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &prior, &batch);

        // Inserted endpoints 0 and 1 and removed endpoint 3 (newer than the
        // prior) are seeds; removed endpoint 2 is not, and 2→0 was slack.
        assert_eq!(program.seeds.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(program.seed_vertices(), 3);
        assert_eq!(program.cone_vertices(), 0);
        let warm = engine
            .run_opts(&distributed, &program, RunOptions::new().warm_seed(&prior))
            .unwrap();
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.values, vec![0, 1, 2, UNREACHABLE]);
    }

    /// A small deterministic generator for the differential test below.
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

    /// Takes up to `count` random live copies satisfying `wanted` out of
    /// `live` and records their deletion (LIFO: the latest equal copy goes).
    fn delete_some(
        live: &mut Vec<(Edge, PartitionId)>,
        batch: &mut MutationBatch,
        rng: &mut Lcg,
        count: usize,
        wanted: impl Fn(&(Edge, PartitionId)) -> bool,
    ) -> Vec<Edge> {
        let mut gone = Vec::new();
        for _ in 0..count {
            let candidates: Vec<usize> = (0..live.len()).filter(|&i| wanted(&live[i])).collect();
            if candidates.is_empty() {
                break;
            }
            let pick = live[candidates[rng.below(candidates.len())]];
            let latest = live.iter().rposition(|&pair| pair == pick).unwrap();
            live.remove(latest);
            batch.record_delete(pick.0, pick.1);
            gone.push(pick.0);
        }
        gone
    }

    #[test]
    fn the_walked_cone_equals_the_scanned_cone_under_random_churn() {
        use ebv_graph::generators::{GraphGenerator, GridGenerator, RmatGenerator};

        let rmat = RmatGenerator::new(7, 4).with_seed(11).generate().unwrap();
        let grid = GridGenerator::new(8, 9)
            .with_seed(5)
            .with_deletion_probability(0.1)
            .generate()
            .unwrap();
        let path: Vec<Edge> = (0u64..40).map(|i| Edge::from((i, i + 1))).collect();
        let graphs = [
            ("rmat", rmat.edges().to_vec()),
            ("grid", grid.edges().to_vec()),
            ("path", path),
        ];
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let tight = |prior: &[u64], e: Edge| {
            let (du, dv) = (prior.get(e.src.index()), prior.get(e.dst.index()));
            matches!((du, dv), (Some(&du), Some(&dv)) if du != UNREACHABLE && du + 1 == dv)
        };
        for (name, edges) in &graphs {
            let (mut cone_total, mut rescues, mut spared_copies) = (0, 0, 0);
            for p in [1usize, 2, 4, 7] {
                let mut rng = Lcg(0x9E37_79B9 ^ (p as u64) << 8 ^ edges.len() as u64);
                // Random placement, and a second copy of every tenth edge
                // on a random worker: a multigraph across workers.
                let mut live: Vec<(Edge, PartitionId)> = Vec::new();
                for (i, &edge) in edges.iter().enumerate() {
                    live.push((edge, PartitionId::from_index(rng.below(p))));
                    if i.is_multiple_of(10) {
                        live.push((edge, PartitionId::from_index(rng.below(p))));
                    }
                }
                let mut distributed =
                    DistributedGraph::build_streaming(p, None, live.iter().copied()).unwrap();
                let mut distances = engine
                    .run(&distributed, &SingleSourceShortestPath::new(source))
                    .unwrap()
                    .values;
                for epoch in 0..3 {
                    let prior = distances.clone();
                    let mut batch = MutationBatch::new();
                    let cut = delete_some(&mut live, &mut batch, &mut rng, 3, |&(e, _)| {
                        tight(&prior, e)
                    });
                    delete_some(&mut live, &mut batch, &mut rng, 3, |&(e, _)| {
                        !tight(&prior, e)
                    });
                    // One copy of a tight edge that has another live copy.
                    let doubled = |pair: &(Edge, PartitionId)| {
                        tight(&prior, pair.0)
                            && live.iter().filter(|other| other.0 == pair.0).count() > 1
                    };
                    let doubled: Vec<(Edge, PartitionId)> =
                        live.iter().copied().filter(doubled).collect();
                    if let Some(&pick) = doubled.first() {
                        let latest = live.iter().rposition(|&pair| pair == pick).unwrap();
                        live.remove(latest);
                        batch.record_delete(pick.0, pick.1);
                        spared_copies += 1;
                    }
                    // The source's only out-edge, where it has just one.
                    if epoch == 2 {
                        let out: Vec<(Edge, PartitionId)> = live
                            .iter()
                            .copied()
                            .filter(|pair| pair.0.src == source)
                            .collect();
                        if let [only] = out[..] {
                            live.retain(|&pair| pair != only);
                            batch.record_delete(only.0, only.1);
                        }
                    }
                    // A coincidentally tight insert into the head of a cut
                    // edge, from another vertex at the tail's level.
                    if let Some(&gone) = cut.first() {
                        let level = prior[gone.src.index()];
                        let other =
                            (0..prior.len()).find(|&w| prior[w] == level && w != gone.src.index());
                        if let Some(w) = other {
                            let edge = Edge::from((w as u64, gone.dst.raw()));
                            let part = PartitionId::from_index(rng.below(p));
                            batch.record_insert(edge, part);
                            live.push((edge, part));
                            rescues += 1;
                        }
                    }
                    // Universe growth past `prior.len()`, hung off a
                    // reachable vertex so the new vertices get distances.
                    let fresh = distributed.num_vertices() as u64 + epoch as u64;
                    let anchor = (0..prior.len()).rev().find(|&v| prior[v] != UNREACHABLE);
                    let growth = Edge::from((anchor.unwrap() as u64, fresh));
                    let part = PartitionId::from_index(rng.below(p));
                    batch.record_insert(growth, part);
                    live.push((growth, part));

                    distributed.apply_mutations(&batch).unwrap();
                    let program =
                        IncrementalSssp::from_distributed(source, &distributed, &prior, &batch);
                    let scanned = unsupported_cone(source, &distributed, &prior);
                    let context = format!("{name} p={p} epoch {epoch}");
                    assert_eq!(program.cone, scanned, "{context}");
                    assert_eq!(program.cone_vertices(), scanned.len(), "{context}");
                    cone_total += scanned.len();

                    let warm = engine
                        .run_opts(&distributed, &program, RunOptions::new().warm_seed(&prior))
                        .unwrap();
                    let cold = engine
                        .run(&distributed, &SingleSourceShortestPath::new(source))
                        .unwrap();
                    assert_eq!(warm.values, cold.values, "{context}");
                    let fresh_build = DistributedGraph::build_streaming(
                        p,
                        Some(distributed.num_vertices()),
                        live.iter().copied(),
                    )
                    .unwrap();
                    assert!(distributed.same_structure(&fresh_build), "{context}");
                    distances = warm.values;
                }
            }
            // The scenarios the walk has to get right all occurred.
            assert!(
                cone_total > 0,
                "{name}: no deletion ever cost a certificate"
            );
            // (A path has one vertex per level, so nothing to rescue from.)
            assert!(
                rescues > 0 || *name == "path",
                "{name}: no tight insert tried"
            );
            assert!(
                spared_copies > 0,
                "{name}: no parallel copy was ever spared"
            );
        }
    }

    #[test]
    fn a_prior_without_its_source_at_zero_puts_every_finite_vertex_in_the_cone() {
        let edges = (0u64..3).map(|i| (Edge::from((i, i + 1)), PartitionId::new(0)));
        let distributed = DistributedGraph::build_streaming(1, None, edges).unwrap();
        let batch = MutationBatch::new();
        for prior in [vec![1, 2, 3, UNREACHABLE], vec![], vec![UNREACHABLE, 5]] {
            let source = VertexId::new(0);
            let walked = walked_cone(source, &distributed, &prior, &batch);
            assert_eq!(walked, unsupported_cone(source, &distributed, &prior));
        }
    }

    #[test]
    fn warm_sssp_is_bit_identical_across_a_mixed_batch() {
        let graph = ebv_graph::generators::named::small_social_graph();
        let (mut distributed, assigned) = distribute(&graph, 3);
        let engine = BspEngine::sequential();
        let source = VertexId::new(0);
        let prior = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap()
            .values;

        let mut batch = MutationBatch::new();
        for &(e, p) in assigned.iter().step_by(3) {
            batch.record_delete(e, p);
        }
        batch.record_insert(Edge::from((0u64, 11u64)), PartitionId::new(1));
        distributed.apply_mutations(&batch).unwrap();
        let program = IncrementalSssp::from_distributed(source, &distributed, &prior, &batch);
        let warm = engine
            .run_opts(&distributed, &program, RunOptions::new().warm_seed(&prior))
            .unwrap();
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        assert_eq!(warm.values, cold.values, "warm SSSP must be bit-identical");
        assert_eq!(warm.values[11], 1, "inserted edge re-activated vertex 11");
    }
}
