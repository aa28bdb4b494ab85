//! The distributed graph: per-worker subgraphs, the replica table and the
//! election state, assembled from per-partition edge lists.
//!
//! Invariant owned here: every construction path — batch
//! [`DistributedGraph::build`], the streaming builder, and a mutation epoch
//! over the survivors — ends in the same [`assemble`]d state, which
//! [`DistributedGraph::same_structure`] compares. Which partitions hold each
//! vertex, how many of its edges and at which local index, and which
//! vertices are isolated, is derived from the workers into the
//! [`ReplicaTable`] (see [`crate::replica`]).

use std::sync::atomic::{AtomicU64, Ordering};

use ebv_graph::{Edge, Graph, VertexId};
use ebv_partition::{PartitionId, PartitionResult};

use crate::error::{BspError, Result};
use crate::exchange::RetainedPlane;
use crate::lanes::{Job, Lanes};
use crate::mutation_batch::MutationStats;
use crate::replica::{MasterRule, ReplicaTable};
use crate::routing::RoutingTable;
use crate::subgraph::Subgraph;

/// Source of [`Lineage::state`] ids; 0 is never minted and means "no state".
static NEXT_STATE: AtomicU64 = AtomicU64::new(1);

/// A process-unique id for a distribution state nobody has seen before.
/// `Relaxed`: the id publishes nothing but its own uniqueness.
pub(crate) fn mint_state() -> u64 {
    NEXT_STATE.fetch_add(1, Ordering::Relaxed)
}

/// Which state a [`DistributedGraph`] is in and how it got there — what a
/// consumer that derived something from the previous state (a served
/// adjacency, say) needs in order to *know*, rather than assume from
/// `epoch + 1`, that its copy describes this state's parent, and to patch
/// it instead of re-deriving it.
#[derive(Debug, Clone, Copy)]
pub struct Lineage<'a> {
    /// Process-unique id of this state: minted by every assembly and every
    /// non-empty [`apply_mutations`](DistributedGraph::apply_mutations),
    /// copied by `Clone` (a clone *is* the same state until it is mutated).
    /// Never 0.
    pub state: u64,
    /// The `state` the most recent non-empty batch was applied to; 0 for a
    /// freshly assembled distribution.
    pub parent: u64,
    /// The vertices that batch could have changed — endpoints of its edges
    /// plus the vertices it created — ascending. Every other vertex has the
    /// neighbours, replicas and master it had in `parent`. Empty for a
    /// freshly assembled distribution.
    pub affected: &'a [usize],
}

/// A graph distributed over `p` workers: the per-worker subgraphs plus the
/// replica table used for routing messages.
#[derive(Debug, Clone)]
pub struct DistributedGraph {
    // Crate-visible for `apply`, which mutates this state in place; every
    // other module goes through the methods.
    pub(crate) subgraphs: Vec<Subgraph>,
    pub(crate) replicas: ReplicaTable,
    pub(crate) num_vertices: usize,
    pub(crate) num_edges: usize,
    /// Number of mutation epochs absorbed since the initial build.
    pub(crate) epoch: usize,
    /// Counters of the most recent mutation epoch (zeroed on fresh builds).
    pub(crate) last_mutation: MutationStats,
    /// Precomputed message routes, maintained in lockstep with the
    /// subgraphs (epoch-versioned; see [`crate::routing`]).
    pub(crate) routing: RoutingTable,
    /// This state's id, its parent's and the last batch's affected list:
    /// see [`Lineage`]. Not structure — [`same_structure`](Self::same_structure)
    /// ignores all three.
    pub(crate) state: u64,
    pub(crate) parent_state: u64,
    pub(crate) affected: Vec<usize>,
    /// The lanes workers are (re)built on, with their scratches. Not
    /// structure either: a clone gets fresh ones.
    pub(crate) lanes: Lanes,
    /// The message plane the last warm run on this graph handed back,
    /// emptied, for the next run to start from (see
    /// [`BspEngine::run_opts`](crate::BspEngine::run_opts)). Working memory
    /// like `lanes`: a clone gets an empty one, and `same_structure`
    /// ignores it.
    pub(crate) plane: RetainedPlane,
}

impl DistributedGraph {
    /// Distributes `graph` according to `partition`.
    ///
    /// For vertex-cut results each partition receives exactly the edges
    /// assigned to it; the master replica of a vertex is the partition
    /// holding the most of its incident edges (ties toward the lower
    /// partition id). For edge-cut results each partition owns its assigned
    /// vertices (which become masters) and holds every edge incident to
    /// them, so crossing edges appear in both endpoint partitions.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::PartitionMismatch`] when `partition` does not
    /// describe `graph`.
    pub fn build(graph: &Graph, partition: &PartitionResult) -> Result<Self> {
        partition
            .validate(graph)
            .map_err(|e| BspError::PartitionMismatch {
                message: e.to_string(),
            })?;
        let p = partition.num_partitions();
        let n = graph.num_vertices();

        // Edge lists per partition, sized exactly up front, with the
        // ownership flags used by sum-style programs (left empty by a
        // vertex-cut, which owns every copy).
        let copies = partition.edge_counts(graph);
        let mut edges_per_part: Vec<Vec<Edge>> =
            copies.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut owned_per_part: Vec<Vec<bool>> = vec![Vec::new(); p];
        let master_rule = match partition {
            PartitionResult::VertexCut(vc) => {
                for (edge, part) in graph.edges().iter().zip(vc.assignment()) {
                    edges_per_part[part.index()].push(*edge);
                }
                MasterRule::IncidentMajority
            }
            PartitionResult::EdgeCut(ec) => {
                for (owned, &c) in owned_per_part.iter_mut().zip(&copies) {
                    owned.reserve_exact(c);
                }
                for edge in graph.edges() {
                    let ps = ec.part_of(edge.src);
                    let pd = ec.part_of(edge.dst);
                    edges_per_part[ps.index()].push(*edge);
                    owned_per_part[ps.index()].push(true);
                    if pd != ps {
                        edges_per_part[pd.index()].push(*edge);
                        owned_per_part[pd.index()].push(false);
                    }
                }
                MasterRule::Owner(ec)
            }
        };
        Ok(assemble(
            Lanes::host(),
            n,
            graph.num_edges(),
            edges_per_part,
            owned_per_part,
            master_rule,
            0,
        ))
    }

    /// Number of workers (subgraphs).
    pub fn num_workers(&self) -> usize {
        self.subgraphs.len()
    }

    /// Number of vertices in the global graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in the global graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The per-worker subgraphs, indexed by partition.
    pub fn subgraphs(&self) -> &[Subgraph] {
        &self.subgraphs
    }

    /// The subgraph of worker `part`.
    pub fn subgraph(&self, part: PartitionId) -> &Subgraph {
        &self.subgraphs[part.index()]
    }

    /// The replica table.
    pub fn replicas(&self) -> &ReplicaTable {
        &self.replicas
    }

    /// Every replica of `v` as `(subgraph, local index)`: the master's
    /// first, then the mirrors in ascending worker order. Empty for a
    /// vertex past the universe.
    ///
    /// Read off the replica table, which records each replica's local
    /// index, so it costs no hash probe and does not make any worker build
    /// its [`local_index_of`](Subgraph::local_index_of) index; it is what
    /// snapshot commit and warm-program construction walk.
    pub fn holders_of(&self, v: VertexId) -> impl Iterator<Item = (&Subgraph, usize)> + '_ {
        let master = self.replicas.master_at(v);
        let mirrors = self
            .replicas
            .locations(v)
            .filter(move |&at| Some(at) != master);
        let holders = master.into_iter().chain(mirrors);
        holders.map(|(worker, local)| (&self.subgraphs[worker], local))
    }

    /// The replication factor `Σ_i |V_i| / |V|` of this distribution; the
    /// neutral `1.0` over an empty universe.
    pub fn replication_factor(&self) -> f64 {
        if self.num_vertices == 0 {
            return 1.0;
        }
        self.replicas.total_replicas() as f64 / self.num_vertices as f64
    }

    /// Number of mutation epochs this distribution has absorbed: 0 for a
    /// fresh build, incremented by every non-empty
    /// [`apply_mutations`](Self::apply_mutations) batch.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// This state's identity and its derivation from the previous one.
    pub fn lineage(&self) -> Lineage<'_> {
        Lineage {
            state: self.state,
            parent: self.parent_state,
            affected: &self.affected,
        }
    }

    /// Whether every local edge is owned (the vertex-cut invariant). Only
    /// such distributions support [`apply_mutations`](Self::apply_mutations).
    pub fn is_vertex_cut(&self) -> bool {
        self.subgraphs.iter().all(Subgraph::owns_every_edge)
    }

    /// Counters of the most recent mutation epoch: how many workers were
    /// re-assembled and how many local edges that re-indexing covered.
    /// Zeroed for fresh builds and after an empty (no-op) batch.
    pub(crate) fn last_mutation(&self) -> MutationStats {
        self.last_mutation
    }

    /// The precomputed routing table the engine's communication stage runs
    /// on.
    pub(crate) fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Whether two distributions are structurally identical: same
    /// per-worker edge lists (content, ownership and order), same local
    /// vertex tables and master flags, same replica table, and same
    /// routing tables.
    ///
    /// This is the recovery-equivalence predicate: a distribution rebuilt
    /// from a checkpoint plus a WAL replay must satisfy it against the
    /// never-crashed original. The *epoch counter* is compared separately
    /// by callers ([`epoch`](Self::epoch) is lineage, not structure), and
    /// the last mutation epoch's counters are excluded because their
    /// `apply_seconds` field is wall-clock.
    pub fn same_structure(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && self.subgraphs.len() == other.subgraphs.len()
            && self
                .subgraphs
                .iter()
                .zip(&other.subgraphs)
                .all(|(a, b)| a.same_structure(b))
            && self.replicas.same_structure(&other.replicas)
            && self.routing == other.routing
    }
}

/// Shared final assembly step, stamped with the mutation `epoch` the result
/// continues: the per-worker subgraphs are built from their edge lists on
/// `lanes`, which the result keeps, the replica table is derived from them
/// (placing the isolated vertices, electing every vertex and writing every
/// worker's master flags), and the routes are written last — the one
/// derivation every epoch runs too. Both [`DistributedGraph::build`] and
/// [`DistributedGraphBuilder::finish`](crate::DistributedGraphBuilder::finish)
/// end here, which is what keeps the streaming and batch paths structurally
/// identical.
pub(crate) fn assemble(
    mut lanes: Lanes,
    n: usize,
    num_edges: usize,
    edges_per_part: Vec<Vec<Edge>>,
    owned_per_part: Vec<Vec<bool>>,
    master_rule: MasterRule<'_>,
    epoch: usize,
) -> DistributedGraph {
    let p = edges_per_part.len();
    let parts = (0..p).map(PartitionId::from_index);
    let mut subgraphs: Vec<Subgraph> = parts.map(Subgraph::empty).collect();
    let jobs = subgraphs
        .iter_mut()
        .zip(edges_per_part.into_iter().zip(owned_per_part));
    let jobs = jobs.map(|(worker, (edges, owned))| Job {
        worker,
        edges,
        owned,
    });
    lanes.rebuild(n, jobs.collect());
    let mut replicas = ReplicaTable::new();
    replicas.derive(&mut subgraphs, n, &mut vec![true; p], master_rule);
    let routing = RoutingTable::build(&subgraphs, &replicas, n, epoch);
    DistributedGraph {
        subgraphs,
        replicas,
        num_vertices: n,
        num_edges,
        epoch,
        last_mutation: MutationStats::default(),
        routing,
        state: mint_state(),
        parent_state: 0,
        affected: Vec::new(),
        lanes,
        plane: RetainedPlane::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation_batch::MutationBatch;
    use crate::subgraph::LocalComponents;

    #[test]
    fn replication_factor_of_the_empty_seed_is_neutral() {
        // The state every churn run starts from: no vertices, no edges.
        let mut dg = DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
        assert_eq!(dg.num_vertices(), 0);
        assert_eq!(dg.replication_factor(), 1.0);

        // After the first applied batch it is the real ratio again: vertex 1
        // is held by both partitions, vertices 0 and 2 by one each.
        let mut batch = MutationBatch::new();
        batch.record_insert(Edge::from((0u64, 1u64)), PartitionId::new(0));
        batch.record_insert(Edge::from((1u64, 2u64)), PartitionId::new(1));
        dg.apply_mutations(&batch).unwrap();
        assert_eq!(dg.replication_factor(), 4.0 / 3.0);
    }

    #[test]
    fn an_epoch_builds_no_hash_index() {
        // Four workers, each holding a piece of the path 0 – 1 – … – 8.
        let part = PartitionId::new;
        let stream = (0..8u64).map(|i| (Edge::from((i, i + 1)), part(i as u32 % 4)));
        let mut dg = DistributedGraph::build_streaming(4, None, stream).unwrap();
        let built = |dg: &DistributedGraph| -> Vec<bool> {
            dg.subgraphs()
                .iter()
                .map(Subgraph::index_is_built)
                .collect()
        };
        assert_eq!(built(&dg), [false; 4], "assembly indexes nothing");

        // A batch naming one worker whose endpoints the kept workers 3 and 1
        // hold too: their master flags are re-written without a probe.
        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((4u64, 5u64)), part(0));
        assert_eq!(dg.apply_mutations(&batch).unwrap().workers_touched, 1);
        assert_eq!(built(&dg), [false; 4], "kept workers index nothing");

        // A batch naming every worker, one insert growing the universe, and
        // then what commit and warm construction do: walk the holders of
        // the affected vertices.
        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((0u64, 1u64)), part(0));
        batch.record_insert(Edge::from((2u64, 9u64)), part(1));
        batch.record_insert(Edge::from((0u64, 5u64)), part(2));
        batch.record_delete(Edge::from((3u64, 4u64)), part(3));
        let stats = dg.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 4);
        let mut replicas_walked = 0;
        for &vertex in dg.lineage().affected {
            for (sg, local) in dg.holders_of(VertexId::from(vertex)) {
                assert_eq!(sg.vertex_at(local), VertexId::from(vertex));
                replicas_walked += 1;
            }
        }
        assert!(replicas_walked > dg.lineage().affected.len());
        assert_eq!(built(&dg), [false; 4], "the epoch path indexes nothing");

        // The first probe builds that worker's index and no other's, and a
        // clone taken afterwards carries it.
        let probed = dg.subgraph(part(2));
        assert_eq!(
            probed
                .local_index_of(VertexId::new(5))
                .map(|l| probed.vertex_at(l).raw()),
            Some(5)
        );
        assert_eq!(probed.local_index_of(VertexId::new(4)), None);
        assert_eq!(built(&dg), [false, false, true, false]);
        assert_eq!(built(&dg.clone()), [false, false, true, false]);
    }

    #[test]
    fn local_components_are_cached_until_their_worker_is_rebuilt() {
        // Four workers, each holding a piece of the path 0 – 1 – … – 8.
        let part = PartitionId::new;
        let stream = (0..8u64).map(|i| (Edge::from((i, i + 1)), part(i as u32 % 4)));
        let mut dg = DistributedGraph::build_streaming(4, None, stream).unwrap();
        let fresh = |dg: &DistributedGraph| -> Vec<LocalComponents> {
            dg.subgraphs().iter().map(LocalComponents::build).collect()
        };
        let held = |dg: &DistributedGraph| -> Vec<LocalComponents> {
            let held = dg.subgraphs().iter().map(Subgraph::local_components);
            held.cloned().collect()
        };
        // Where each worker's member list lives, to tell components that
        // were kept from equal ones built again.
        let buffers = |dg: &DistributedGraph| -> Vec<*const u32> {
            let members = dg
                .subgraphs()
                .iter()
                .map(|sg| sg.local_components().members(0));
            members.map(<[u32]>::as_ptr).collect()
        };
        let before = held(&dg);
        assert_eq!(
            before,
            fresh(&dg),
            "assembly builds every worker's components"
        );
        // Worker 1 holds (1, 2) and (5, 6): two components of two vertices.
        assert_eq!(before[1].len(), 2);
        assert_eq!(held(&dg.clone()), before, "a clone carries them");

        // A batch naming worker 0 only: it is rebuilt, and its components
        // describe its new edges; the kept workers keep what they had, in
        // the buffers they had.
        let kept = buffers(&dg);
        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((4u64, 5u64)), part(0));
        assert_eq!(dg.apply_mutations(&batch).unwrap().workers_touched, 1);
        let after = held(&dg);
        assert_eq!(after[1..], before[1..]);
        assert_eq!(buffers(&dg)[1..], kept[1..]);
        // Worker 0 now holds (0, 1) alone.
        assert_eq!((after[0].len(), before[0].len()), (1, 2));
        assert_eq!(after, fresh(&dg));
    }
}
