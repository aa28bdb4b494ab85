//! Distributed-graph construction: turning a partition result into the
//! per-worker subgraphs (with master/mirror vertex replicas) that the BSP
//! engine executes on.

use std::time::Instant;

use ebv_graph::{Edge, Graph, IdHashMap, VertexId};
use ebv_obs::{NoopRecorder, Phase, Recorder, SpanCtx};
use ebv_partition::{PartitionId, PartitionResult};

use crate::error::{BspError, Result};
use crate::routing::RoutingTable;

/// "Not a local vertex" in the universe-sized scratch [`Subgraph::build`]
/// resolves endpoints through.
const ABSENT: u32 = u32::MAX;

/// The local graph held by one worker.
///
/// A subgraph contains the edges assigned to its partition plus every vertex
/// those edges touch. Vertices present in several subgraphs are *replicated*;
/// exactly one replica is the **master** (owner) and the others are
/// **mirrors**. Communication in the subgraph-centric BSP model happens only
/// between replicas of the same vertex (Section IV-B of the paper).
#[derive(Debug, Clone)]
pub struct Subgraph {
    part: PartitionId,
    edges: Vec<Edge>,
    /// Whether this worker *owns* the corresponding local edge. Vertex-cut
    /// distributions own every local edge; edge-cut distributions replicate
    /// crossing edges in both endpoint partitions but only the source
    /// owner's copy is owned, so that sum-style programs (PageRank) count
    /// each edge exactly once. Empty when every local edge is owned (every
    /// vertex-cut worker): nothing to skip, nothing to store.
    owns_edge: Vec<bool>,
    vertices: Vec<VertexId>,
    /// Global vertex → local index (`u32`, like the CSR targets).
    local_index: IdHashMap<VertexId, u32>,
    is_master: Vec<bool>,
    /// CSR out-adjacency: the out-neighbours of local vertex `l` are
    /// `out_targets[out_offsets[l]..out_offsets[l + 1]]`, in local-edge
    /// order. One offset array + one flat index array instead of a `Vec`
    /// per vertex keeps the kernels' inner loops on contiguous memory.
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    /// CSR in-adjacency (same layout).
    in_offsets: Vec<u32>,
    in_targets: Vec<u32>,
    /// `owns_edge` permuted into in-CSR order (empty when it is), so a pull
    /// over [`in_neighbors`](Self::in_neighbors) can skip unowned copies
    /// without going back to the edge list.
    in_owned: Vec<bool>,
}

impl Subgraph {
    /// Indexes one worker's edge list: local vertex table (first-appearance
    /// order, then `isolated`), master flags and both CSRs. `owns_edge` is
    /// either empty (every edge owned) or one flag per edge.
    ///
    /// `scratch` maps a global vertex to its local index while the worker is
    /// being built. It covers the whole universe (`masters.len()` entries),
    /// holds [`ABSENT`] everywhere on entry and is handed back in that
    /// state, so one allocation serves every worker a caller rebuilds and
    /// each endpoint costs an array read instead of a hash probe.
    fn build(
        part: PartitionId,
        edges: Vec<Edge>,
        owns_edge: Vec<bool>,
        isolated: &[VertexId],
        masters: &[PartitionId],
        scratch: &mut [u32],
    ) -> Self {
        debug_assert!(owns_edge.is_empty() || owns_edge.len() == edges.len());
        let owns_edge = if owns_edge.iter().all(|&owned| owned) {
            Vec::new()
        } else {
            owns_edge
        };
        let mut vertices: Vec<VertexId> = Vec::new();
        let endpoints = edges.iter().flat_map(|e| [e.src, e.dst]);
        for v in endpoints.chain(isolated.iter().copied()) {
            let slot = &mut scratch[v.index()];
            if *slot == ABSENT {
                *slot = vertices.len() as u32;
                vertices.push(v);
            }
        }
        let n = vertices.len();
        debug_assert!(
            (n as u64) < u64::from(ABSENT),
            "local vertex count fits u32"
        );
        let is_master = vertices
            .iter()
            .map(|v| masters[v.index()] == part)
            .collect();
        // CSR assembly: degree histogram, prefix sums, cursor fill in
        // local-edge order (preserving the per-vertex neighbour order of
        // the former Vec-of-Vecs layout).
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for e in &edges {
            out_offsets[scratch[e.src.index()] as usize + 1] += 1;
            in_offsets[scratch[e.dst.index()] as usize + 1] += 1;
        }
        for i in 1..=n {
            out_offsets[i] += out_offsets[i - 1];
            in_offsets[i] += in_offsets[i - 1];
        }
        let mut out_targets = vec![0u32; edges.len()];
        let mut in_targets = vec![0u32; edges.len()];
        let mut in_owned = vec![true; owns_edge.len()];
        let mut out_cursor = out_offsets[..n].to_vec();
        let mut in_cursor = in_offsets[..n].to_vec();
        for (i, e) in edges.iter().enumerate() {
            let s = scratch[e.src.index()];
            let d = scratch[e.dst.index()];
            out_targets[out_cursor[s as usize] as usize] = d;
            out_cursor[s as usize] += 1;
            let slot = in_cursor[d as usize] as usize;
            in_targets[slot] = s;
            if owns_edge.get(i) == Some(&false) {
                in_owned[slot] = false;
            }
            in_cursor[d as usize] += 1;
        }
        // The only hashing: one insert per local vertex, into a table sized
        // once. Resetting the scratch rides the same walk.
        let mut local_index: IdHashMap<VertexId, u32> =
            IdHashMap::with_capacity_and_hasher(n, Default::default());
        for &v in &vertices {
            local_index.insert(v, std::mem::replace(&mut scratch[v.index()], ABSENT));
        }
        Subgraph {
            part,
            edges,
            owns_edge,
            vertices,
            local_index,
            is_master,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            in_owned,
        }
    }

    /// The partition (worker) this subgraph belongs to.
    pub fn part(&self) -> PartitionId {
        self.part
    }

    /// The edges local to this subgraph.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether this worker owns the local edge at `edge_index` (see the
    /// field documentation: always `true` for vertex-cut distributions,
    /// `true` only in the source owner's partition for replicated edge-cut
    /// edges). Programs that aggregate per-edge quantities (e.g. PageRank
    /// contributions) must restrict themselves to owned edges.
    pub fn owns_edge(&self, edge_index: usize) -> bool {
        self.owns_edge.is_empty() || self.owns_edge[edge_index]
    }

    /// Number of local edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All local vertices (masters and mirrors), in local-index order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// The local index of a vertex, if it is present in this subgraph.
    pub fn local_index_of(&self, v: VertexId) -> Option<usize> {
        self.local_index.get(&v).map(|&local| local as usize)
    }

    /// The global identifier of the vertex at `local_index`.
    pub fn vertex_at(&self, local_index: usize) -> VertexId {
        self.vertices[local_index]
    }

    /// Whether the vertex at `local_index` is mastered by this subgraph.
    pub fn is_master(&self, local_index: usize) -> bool {
        self.is_master[local_index]
    }

    /// Local indices of the out-neighbours of the vertex at `local_index`,
    /// as a contiguous CSR slice in local-edge order.
    #[inline]
    pub fn out_neighbors(&self, local_index: usize) -> &[u32] {
        &self.out_targets
            [self.out_offsets[local_index] as usize..self.out_offsets[local_index + 1] as usize]
    }

    /// Local indices of the in-neighbours of the vertex at `local_index`,
    /// as a contiguous CSR slice in local-edge order.
    #[inline]
    pub fn in_neighbors(&self, local_index: usize) -> &[u32] {
        &self.in_targets
            [self.in_offsets[local_index] as usize..self.in_offsets[local_index + 1] as usize]
    }

    /// Ownership of the in-edges of the vertex at `local_index`, aligned
    /// with [`in_neighbors`](Self::in_neighbors): entry `k` is
    /// [`owns_edge`](Self::owns_edge) of the local edge that contributed
    /// in-neighbour `k`. **Empty when this worker owns every local edge**
    /// (always, for vertex-cut distributions), so a pull loop reads a
    /// missing entry as "owned".
    #[inline]
    pub fn in_neighbor_ownership(&self, local_index: usize) -> &[bool] {
        if self.in_owned.is_empty() {
            return &[];
        }
        &self.in_owned
            [self.in_offsets[local_index] as usize..self.in_offsets[local_index + 1] as usize]
    }

    /// Iterator over the local indices of master vertices.
    pub fn master_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_vertices()).filter(|&i| self.is_master[i])
    }
}

/// Replica bookkeeping shared by all workers: which partitions hold each
/// vertex and which one is the master.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    master: Vec<PartitionId>,
    replicas: Vec<Vec<PartitionId>>,
}

impl ReplicaTable {
    /// The master partition of vertex `v`.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master[v.index()]
    }

    /// Every partition holding a replica of `v` (including the master), in
    /// increasing partition order.
    pub fn replicas_of(&self, v: VertexId) -> &[PartitionId] {
        &self.replicas[v.index()]
    }

    /// Number of replicas of `v`.
    pub fn replica_count(&self, v: VertexId) -> usize {
        self.replicas[v.index()].len()
    }

    /// Total number of replicas across all vertices (`Σ_i |V_i|`).
    pub fn total_replicas(&self) -> usize {
        self.replicas.iter().map(|r| r.len()).sum()
    }
}

/// A batch of edge-level mutations to replay against a [`DistributedGraph`]
/// via [`DistributedGraph::apply_mutations`]: additions and removals of
/// already-assigned edge copies, with migrations expressed as a removal plus
/// an addition.
///
/// The batch performs *cancellation*: deleting an `(edge, partition)` pair
/// that was added earlier in the same batch removes the pending addition
/// instead of recording a removal, so a batch built by replaying an
/// insert/delete event stream always references only pre-batch edges in its
/// removal list.
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    added: Vec<(Edge, PartitionId)>,
    removed: Vec<(Edge, PartitionId)>,
    /// `added` as a multiset: how many pending additions each pair has.
    /// Almost every deletion names a copy that predates the batch, and this
    /// answers "nothing to cancel" without scanning `added`.
    pending: IdHashMap<(Edge, PartitionId), u32>,
}

/// Two batches are equal when they replay the same mutations; `pending` is
/// derived from `added`.
impl PartialEq for MutationBatch {
    fn eq(&self, other: &Self) -> bool {
        self.added == other.added && self.removed == other.removed
    }
}

impl Eq for MutationBatch {}

impl MutationBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the insertion of one edge copy assigned to `part`.
    pub fn record_insert(&mut self, edge: Edge, part: PartitionId) {
        self.added.push((edge, part));
        *self.pending.entry((edge, part)).or_insert(0) += 1;
    }

    /// Records the deletion of one edge copy that lived in `part`. Cancels
    /// against the most recent matching pending addition, if any.
    pub fn record_delete(&mut self, edge: Edge, part: PartitionId) {
        let pair = (edge, part);
        let Some(count) = self.pending.get_mut(&pair) else {
            self.removed.push(pair);
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.pending.remove(&pair);
        }
        let index = self
            .added
            .iter()
            .rposition(|&added| added == pair)
            .expect("a pending count implies a pending addition");
        self.added.remove(index);
    }

    /// Records the migration of one edge copy from `from` to `to`.
    pub fn record_move(&mut self, edge: Edge, from: PartitionId, to: PartitionId) {
        self.record_delete(edge, from);
        self.record_insert(edge, to);
    }

    /// Reconstructs a batch from already-cancelled parts, exactly as read
    /// back by [`added`](Self::added) / [`removed`](Self::removed).
    ///
    /// This is the deserialization entry point: a serialized batch has
    /// *already* had cancellation applied when it was recorded, so its
    /// parts must be restored verbatim. Replaying them through
    /// [`record_insert`](Self::record_insert) /
    /// [`record_delete`](Self::record_delete) would be wrong — a batch
    /// that legitimately deletes a pre-batch copy and re-inserts the same
    /// `(edge, partition)` pair holds that pair in *both* lists, and
    /// re-recording would cancel the pair out of existence.
    pub fn from_parts(added: Vec<(Edge, PartitionId)>, removed: Vec<(Edge, PartitionId)>) -> Self {
        let mut pending = IdHashMap::with_capacity_and_hasher(added.len(), Default::default());
        for &pair in &added {
            *pending.entry(pair).or_insert(0) += 1;
        }
        MutationBatch {
            added,
            removed,
            pending,
        }
    }

    /// The pending additions, in record order.
    ///
    /// Invariant (cancellation): a pair deleted after being added *in the
    /// same batch* appears in neither slice — `record_delete` removes the
    /// pending addition instead of recording a removal. Serializing these
    /// two slices therefore captures the batch exactly; rebuild it with
    /// [`from_parts`](Self::from_parts), never by replaying `record_*`.
    pub fn added(&self) -> &[(Edge, PartitionId)] {
        &self.added
    }

    /// The pending removals, in record order. Every entry references an
    /// edge copy that existed before the batch (see
    /// [`added`](Self::added) for the cancellation invariant).
    pub fn removed(&self) -> &[(Edge, PartitionId)] {
        &self.removed
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of recorded mutations (additions plus removals).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Assembly-cost counters of one [`DistributedGraph::apply_mutations`]
/// epoch: how much of the distribution actually had to be rebuilt.
///
/// An incremental epoch re-assembles only the workers the batch touches
/// (plus any worker whose isolated-vertex list changed); everything else is
/// kept as-is. `workers_touched == 0` therefore identifies a no-op epoch
/// and `workers_touched < p` quantifies the locality win over the
/// full-reassembly path that rebuilds every worker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MutationStats {
    /// Workers whose subgraph was re-built this epoch.
    pub workers_touched: usize,
    /// Total local edges of the re-built workers (the re-indexing cost).
    pub edges_rebuilt: usize,
    /// Edge copies the batch added.
    pub edges_added: usize,
    /// Edge copies the batch removed.
    pub edges_removed: usize,
    /// Wall-clock seconds the epoch took to apply (0.0 for no-op epochs).
    /// The only non-deterministic field: everything a program execution can
    /// observe stays bit-identical run to run.
    pub apply_seconds: f64,
}

impl std::fmt::Display for MutationStats {
    /// One-line epoch summary, the mutation-side counterpart of
    /// [`ExecutionStats`](crate::ExecutionStats)' Display.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.workers_touched == 0 {
            return write!(f, "no-op epoch (0 workers touched)");
        }
        write!(
            f,
            "{} workers touched, {} edges rebuilt (+{}/-{} edge copies) in {:.2}ms",
            self.workers_touched,
            self.edges_rebuilt,
            self.edges_added,
            self.edges_removed,
            self.apply_seconds * 1e3,
        )
    }
}

/// A graph distributed over `p` workers: the per-worker subgraphs plus the
/// replica table used for routing messages.
#[derive(Debug, Clone)]
pub struct DistributedGraph {
    subgraphs: Vec<Subgraph>,
    replicas: ReplicaTable,
    num_vertices: usize,
    num_edges: usize,
    /// Number of mutation epochs absorbed since the initial build.
    epoch: usize,
    /// Per-vertex live-incidence counts per holding partition, kept sorted
    /// by partition — the master-election state of [`assemble`], kept
    /// resident and delta-updated so a mutation epoch re-elects only the
    /// vertices it actually touches. A sorted inline list beats a hash map
    /// here: almost every vertex has one or two holders, lookups are a
    /// short binary search, and the resident/clone cost is a fraction of a
    /// `HashMap` per vertex.
    incident_count: Vec<Vec<(PartitionId, u32)>>,
    /// Per-partition isolated vertices, in increasing id order (the order
    /// [`assemble`] feeds them to [`Subgraph::build`]).
    isolated_per_part: Vec<Vec<VertexId>>,
    /// Counters of the most recent mutation epoch (zeroed on fresh builds).
    last_mutation: MutationStats,
    /// Precomputed message routes and master locations, maintained in
    /// lockstep with the subgraphs (epoch-versioned; see
    /// [`crate::routing`]).
    routing: RoutingTable,
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
        match partition {
            PartitionResult::VertexCut(vc) => {
                for (edge, part) in graph.edges().iter().zip(vc.assignment()) {
                    edges_per_part[part.index()].push(*edge);
                }
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
            }
        }

        let master_rule = match partition {
            // Edge-cut: the owner of the vertex is its master.
            PartitionResult::EdgeCut(ec) => MasterRule::Owner(ec),
            // Vertex-cut: the replica with the most incident edges.
            PartitionResult::VertexCut(_) => MasterRule::IncidentMajority,
        };
        Ok(assemble(
            p,
            n,
            graph.num_edges(),
            edges_per_part,
            owned_per_part,
            master_rule,
        ))
    }

    /// Assembles a distributed graph directly from a stream of already
    /// assigned edges — the vertex-cut path of [`DistributedGraph::build`]
    /// without ever materializing a global [`Graph`] or edge vector.
    ///
    /// `num_vertices` optionally declares the vertex universe so that
    /// isolated vertices (never mentioned by the stream) still get a home
    /// worker; when `None` the universe is implied by the largest endpoint
    /// streamed. Feed it from `ebv-stream`'s chunked pipeline, whose sink
    /// yields exactly `(Edge, PartitionId)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidParameter`] for a zero partition count and
    /// [`BspError::PartitionMismatch`] when the stream references a
    /// partition `>= num_partitions`.
    pub fn build_streaming<I>(
        num_partitions: usize,
        num_vertices: Option<usize>,
        assigned_edges: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (Edge, PartitionId)>,
    {
        let mut builder = DistributedGraphBuilder::new(num_partitions)?;
        if let Some(n) = num_vertices {
            builder = builder.with_num_vertices(n);
        }
        for (edge, part) in assigned_edges {
            builder.add_edge(edge, part)?;
        }
        builder.finish()
    }

    /// Incrementally assembles a distributed graph; see
    /// [`DistributedGraphBuilder`].
    pub fn builder(num_partitions: usize) -> Result<DistributedGraphBuilder> {
        DistributedGraphBuilder::new(num_partitions)
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

    /// The replication factor `Σ_i |V_i| / |V|` of this distribution.
    pub fn replication_factor(&self) -> f64 {
        self.replicas.total_replicas() as f64 / self.num_vertices as f64
    }

    /// Number of mutation epochs this distribution has absorbed: 0 for a
    /// fresh build, incremented by every non-empty
    /// [`apply_mutations`](Self::apply_mutations) batch.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Whether every local edge is owned (the vertex-cut invariant). Only
    /// such distributions support [`apply_mutations`](Self::apply_mutations).
    pub fn is_vertex_cut(&self) -> bool {
        // A worker keeps ownership flags only while it holds an unowned copy.
        self.subgraphs.iter().all(|sg| sg.owns_edge.is_empty())
    }

    /// Counters of the most recent mutation epoch: how many workers were
    /// re-assembled and how many local edges that re-indexing covered.
    /// Zeroed for fresh builds and after an empty (no-op) batch.
    pub fn last_mutation(&self) -> MutationStats {
        self.last_mutation
    }

    /// The precomputed routing table the engine's communication stage and
    /// final value extraction run on.
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
    /// [`last_mutation`](Self::last_mutation) is excluded because its
    /// `apply_seconds` field is wall-clock.
    pub fn same_structure(&self, other: &Self) -> bool {
        let subgraph_eq = |a: &Subgraph, b: &Subgraph| {
            a.part == b.part
                && a.edges == b.edges
                && a.owns_edge == b.owns_edge
                && a.vertices == b.vertices
                && a.is_master == b.is_master
        };
        self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && self.subgraphs.len() == other.subgraphs.len()
            && self
                .subgraphs
                .iter()
                .zip(&other.subgraphs)
                .all(|(a, b)| subgraph_eq(a, b))
            && self.replicas.master == other.replicas.master
            && self.replicas.replicas == other.replicas.replicas
            && self.incident_count == other.incident_count
            && self.isolated_per_part == other.isolated_per_part
            && self.routing == other.routing
    }

    /// Absorbs one batch of edge mutations in place, incrementally:
    /// only the workers the batch references (plus any worker whose
    /// isolated-vertex placement changed) are re-assembled, and master
    /// election re-runs only for the vertices incident to mutated edges.
    /// Untouched workers are kept as-is. Returns the [`MutationStats`] of
    /// the epoch.
    ///
    /// Removals delete the *most recent* matching copy from the named
    /// worker's edge list (matching the LIFO multiset semantics of
    /// `ebv_partition::DynamicPartitioner::delete`) while preserving the
    /// relative order of the surviving edges; additions append in record
    /// order. The incremental result is structurally identical to
    /// rebuilding from scratch over the surviving `(edge, partition)`
    /// stream.
    ///
    /// An **empty batch** (including one whose inserts and deletes fully
    /// cancelled in-batch) is a cheap no-op: nothing is cloned or rebuilt
    /// and [`epoch`](Self::epoch) does **not** advance — epochs count
    /// absorbed mutations, not calls.
    ///
    /// Only vertex-cut style distributions (every local edge owned) can be
    /// mutated this way; edge-cut distributions replicate crossing edges
    /// and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidMutation`] when a removal references an
    /// edge copy the named worker does not hold (reporting the smallest
    /// such edge of the lowest-numbered failing partition, so the message
    /// is deterministic) or the distribution is not vertex-cut, and
    /// [`BspError::PartitionMismatch`] when a mutation names a partition
    /// out of range. On error the distribution is left unchanged.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) -> Result<MutationStats> {
        self.apply_mutations_with(batch, &NoopRecorder)
    }

    /// [`apply_mutations`](Self::apply_mutations) with telemetry: the whole
    /// epoch is recorded as a `mutation_apply` span and the incremental
    /// routing-table maintenance inside it as a `routing_patch` span (both
    /// on the engine-side track, `worker == p`), plus mutation counters.
    ///
    /// Instrumentation does not perturb the result: every deterministic
    /// field of the returned [`MutationStats`] and the distribution itself
    /// are bit-identical to an uninstrumented call.
    ///
    /// # Errors
    ///
    /// Exactly as [`apply_mutations`](Self::apply_mutations).
    pub fn apply_mutations_with<R: Recorder>(
        &mut self,
        batch: &MutationBatch,
        recorder: &R,
    ) -> Result<MutationStats> {
        if batch.is_empty() {
            self.last_mutation = MutationStats::default();
            return Ok(self.last_mutation);
        }
        if !self.is_vertex_cut() {
            return Err(BspError::InvalidMutation {
                message: "only vertex-cut distributions (every local edge owned) support \
                          edge-level mutations"
                    .to_string(),
            });
        }
        // `apply_seconds` is always measured (one clock pair per epoch);
        // the span is only timed when a real recorder is attached.
        let wall_started = Instant::now();
        let span_started = recorder.start();
        let p = self.num_workers();
        for &(_, part) in batch.removed().iter().chain(batch.added()) {
            if part.index() >= p {
                return Err(BspError::PartitionMismatch {
                    message: format!(
                        "mutation references partition {part} but only {p} partitions exist"
                    ),
                });
            }
        }

        // Group removals per partition, then resolve the last occurrences in
        // one reverse sweep per partition so survivor order is preserved.
        // All removals are validated here, before any state is mutated, so a
        // rejected batch leaves the distribution intact.
        let mut to_remove: Vec<IdHashMap<Edge, usize>> = vec![IdHashMap::default(); p];
        for &(edge, part) in batch.removed() {
            *to_remove[part.index()].entry(edge).or_insert(0) += 1;
        }
        let mut keep_masks: Vec<Option<Vec<bool>>> = vec![None; p];
        for (i, pending) in to_remove.iter_mut().enumerate() {
            if pending.is_empty() {
                continue;
            }
            let edges = &self.subgraphs[i].edges;
            let mut keep = vec![true; edges.len()];
            for index in (0..edges.len()).rev() {
                if let Some(count) = pending.get_mut(&edges[index]) {
                    if *count > 0 {
                        *count -= 1;
                        keep[index] = false;
                    }
                }
            }
            // Deterministic error: the smallest unmatched edge (partitions
            // are scanned in ascending order).
            if let Some(&edge) = pending
                .iter()
                .filter(|&(_, &count)| count > 0)
                .map(|(edge, _)| edge)
                .min()
            {
                return Err(BspError::InvalidMutation {
                    message: format!("partition {i} holds no copy of edge {edge} to remove"),
                });
            }
            keep_masks[i] = Some(keep);
        }

        // The workers whose edge lists change.
        let mut touched = vec![false; p];
        for &(_, part) in batch.removed().iter().chain(batch.added()) {
            touched[part.index()] = true;
        }

        // Grow the vertex universe for additions past the current maximum.
        let old_n = self.num_vertices;
        let mut n = old_n;
        for &(edge, _) in batch.added() {
            n = n.max(edge.src.index().max(edge.dst.index()) + 1);
        }
        if n > old_n {
            self.incident_count.resize_with(n, Vec::new);
            self.replicas.master.resize(n, PartitionId::default());
            self.replicas.replicas.resize_with(n, Vec::new);
        }

        // Delta-update the per-vertex incidence counts; only the endpoints
        // of mutated edges (plus any newly created vertices) can change
        // masters, replica sets or isolated status.
        let mut affected: Vec<usize> = Vec::with_capacity(2 * batch.len() + (n - old_n));
        for &(edge, part) in batch.removed() {
            for v in [edge.src, edge.dst] {
                let counts = &mut self.incident_count[v.index()];
                let slot = counts
                    .binary_search_by_key(&part, |&(holder, _)| holder)
                    .expect("validated removal implies live incidence");
                counts[slot].1 -= 1;
                if counts[slot].1 == 0 {
                    counts.remove(slot);
                }
                affected.push(v.index());
            }
        }
        for &(edge, part) in batch.added() {
            for v in [edge.src, edge.dst] {
                bump_incidence(&mut self.incident_count[v.index()], part);
                affected.push(v.index());
            }
        }
        affected.extend(old_n..n);
        affected.sort_unstable();
        affected.dedup();

        // New edge lists for the batch-touched workers: survivors in
        // original order, then additions in record order — the same stream a
        // fresh streamed build of the survivors would consume.
        let mut new_edges: Vec<Option<Vec<Edge>>> = vec![None; p];
        for i in 0..p {
            if !touched[i] {
                continue;
            }
            let mut edges = std::mem::take(&mut self.subgraphs[i].edges);
            if let Some(keep) = keep_masks[i].take() {
                let mut it = keep.iter();
                edges.retain(|_| *it.next().expect("keep mask covers every edge"));
            }
            new_edges[i] = Some(edges);
        }
        for &(edge, part) in batch.added() {
            new_edges[part.index()]
                .as_mut()
                .expect("addition partitions are touched")
                .push(edge);
        }

        // Re-elect masters and replica lists for the affected vertices,
        // maintaining the round-robin isolated placement of `assemble`. A
        // worker whose isolated list changes must be re-assembled even when
        // its edges did not. The holder lists are already sorted by
        // partition, exactly the replica order `assemble` produces.
        for &vi in &affected {
            let v = VertexId::from(vi);
            let home = vi % p;
            let was_isolated = vi < old_n && self.isolated_per_part[home].binary_search(&v).is_ok();
            let holders = &self.incident_count[vi];
            if holders.is_empty() {
                let home_part = PartitionId::from_index(home);
                self.replicas.master[vi] = home_part;
                self.replicas.replicas[vi].clear();
                self.replicas.replicas[vi].push(home_part);
                if !was_isolated {
                    let list = &mut self.isolated_per_part[home];
                    if let Err(pos) = list.binary_search(&v) {
                        list.insert(pos, v);
                    }
                    touched[home] = true;
                }
            } else {
                self.replicas.master[vi] = holders
                    .iter()
                    .max_by_key(|&&(part, count)| (count, std::cmp::Reverse(part)))
                    .map(|&(part, _)| part)
                    .expect("non-empty holders");
                self.replicas.replicas[vi].clear();
                self.replicas.replicas[vi].extend(holders.iter().map(|&(part, _)| part));
                if was_isolated {
                    let list = &mut self.isolated_per_part[home];
                    if let Ok(pos) = list.binary_search(&v) {
                        list.remove(pos);
                    }
                    touched[home] = true;
                }
            }
        }

        // Patch the master flag of affected vertices inside workers that are
        // *not* being re-assembled (a worker can keep its edges yet lose or
        // gain the master replica of a boundary vertex). Workers that stop
        // or start holding a vertex always had their edge list touched, so
        // only flag patches are ever needed here.
        for &vi in &affected {
            let v = VertexId::from(vi);
            let master = self.replicas.master[vi];
            for &holder in &self.replicas.replicas[vi] {
                if touched[holder.index()] {
                    continue;
                }
                let sg = &mut self.subgraphs[holder.index()];
                let local = sg.local_index[&v] as usize;
                sg.is_master[local] = holder == master;
            }
        }

        // Re-assemble exactly the touched workers.
        let mut workers_touched = 0usize;
        let mut edges_rebuilt = 0usize;
        let mut scratch = vec![ABSENT; n];
        for i in 0..p {
            if !touched[i] {
                continue;
            }
            workers_touched += 1;
            let edges = match new_edges[i].take() {
                Some(edges) => edges,
                // Touched only through an isolated-placement change.
                None => std::mem::take(&mut self.subgraphs[i].edges),
            };
            edges_rebuilt += edges.len();
            self.subgraphs[i] = Subgraph::build(
                PartitionId::from_index(i),
                edges,
                Vec::new(),
                &self.isolated_per_part[i],
                &self.replicas.master,
                &mut scratch,
            );
        }

        self.num_vertices = n;
        self.num_edges = self.subgraphs.iter().map(|sg| sg.edges.len()).sum();
        self.epoch += 1;
        // Bring the routing table in line: rebuilt workers get fresh route
        // tables, affected vertices are re-routed inside untouched holders.
        let span_ctx = SpanCtx {
            epoch: self.epoch as u32,
            superstep: 0,
            worker: p as u32,
        };
        let patch_started = recorder.start();
        self.routing.apply_update(
            &self.subgraphs,
            &self.replicas,
            &touched,
            &affected,
            n,
            self.epoch,
        );
        recorder.span(patch_started, span_ctx, Phase::RoutingPatch);
        self.last_mutation = MutationStats {
            workers_touched,
            edges_rebuilt,
            edges_added: batch.added().len(),
            edges_removed: batch.removed().len(),
            apply_seconds: wall_started.elapsed().as_secs_f64(),
        };
        recorder.span(span_started, span_ctx, Phase::MutationApply);
        recorder.counter_add("ebv_mutation_epochs_total", 1);
        recorder.counter_add("ebv_mutation_edges_added_total", batch.added().len() as u64);
        recorder.counter_add(
            "ebv_mutation_edges_removed_total",
            batch.removed().len() as u64,
        );
        recorder.counter_add("ebv_mutation_edges_rebuilt_total", edges_rebuilt as u64);
        Ok(self.last_mutation)
    }
}

/// How the master replica of a vertex is elected during assembly.
enum MasterRule<'a> {
    /// Vertex-cut: the replica holding the most incident edges (ties toward
    /// the lower partition id).
    IncidentMajority,
    /// Edge-cut: the partition owning the vertex.
    Owner(&'a ebv_partition::VertexPartition),
}

/// Shared final assembly step: replica sets, master election, isolated
/// vertex placement and per-worker subgraph construction. Both
/// [`DistributedGraph::build`] and [`DistributedGraphBuilder::finish`] end
/// here, which is what keeps the streaming and batch paths structurally
/// identical.
fn assemble(
    p: usize,
    n: usize,
    num_edges: usize,
    edges_per_part: Vec<Vec<Edge>>,
    owned_per_part: Vec<Vec<bool>>,
    master_rule: MasterRule<'_>,
) -> DistributedGraph {
    // Partitions are visited in ascending order, so a vertex's entry for
    // the current partition, if it has one, is the last of its list: bump
    // it or append — the lists come out sorted without a search, which is
    // the order `apply_mutations` (through `bump_incidence`) relies on.
    let mut incident_count: Vec<Vec<(PartitionId, u32)>> = vec![Vec::new(); n];
    for (i, edges) in edges_per_part.iter().enumerate() {
        let part = PartitionId::from_index(i);
        for v in edges.iter().flat_map(|e| [e.src, e.dst]) {
            match incident_count[v.index()].last_mut() {
                Some((holder, count)) if *holder == part => *count += 1,
                _ => incident_count[v.index()].push((part, 1)),
            }
        }
    }
    debug_assert!(
        incident_count
            .iter()
            .all(|holders| holders.windows(2).all(|w| w[0].0 < w[1].0)),
        "holder lists are strictly ascending by partition"
    );
    let mut master = vec![PartitionId::default(); n];
    let mut replicas: Vec<Vec<PartitionId>> = vec![Vec::new(); n];
    let mut isolated_per_part: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    for v in 0..n {
        // Holder lists are kept sorted by partition — the replica order.
        let holders = &incident_count[v];
        replicas[v] = holders.iter().map(|&(p, _)| p).collect();
        master[v] = match master_rule {
            MasterRule::Owner(ec) => ec.part_of(VertexId::from(v)),
            MasterRule::IncidentMajority => holders
                .iter()
                .max_by_key(|&&(p, c)| (c, std::cmp::Reverse(p)))
                .map(|&(p, _)| p)
                .unwrap_or_default(),
        };
        // Isolated vertices appear in no edge list; place them (single
        // replica, master) in a partition chosen round-robin so that
        // every vertex is processed by exactly one worker.
        if replicas[v].is_empty() {
            let home = PartitionId::from_index(v % p);
            master[v] = home;
            replicas[v] = vec![home];
            isolated_per_part[home.index()].push(VertexId::from(v));
        }
    }

    let mut scratch = vec![ABSENT; n];
    let subgraphs: Vec<Subgraph> = edges_per_part
        .into_iter()
        .zip(owned_per_part)
        .enumerate()
        .map(|(i, (edges, owned))| {
            Subgraph::build(
                PartitionId::from_index(i),
                edges,
                owned,
                &isolated_per_part[i],
                &master,
                &mut scratch,
            )
        })
        .collect();

    let replicas = ReplicaTable { master, replicas };
    let routing = RoutingTable::build(&subgraphs, &replicas, n, 0);
    DistributedGraph {
        subgraphs,
        replicas,
        num_vertices: n,
        num_edges,
        epoch: 0,
        incident_count,
        isolated_per_part,
        last_mutation: MutationStats::default(),
        routing,
    }
}

/// Increments the live-incidence count of `part` in a per-vertex holder
/// list kept sorted by partition id.
fn bump_incidence(counts: &mut Vec<(PartitionId, u32)>, part: PartitionId) {
    match counts.binary_search_by_key(&part, |&(holder, _)| holder) {
        Ok(slot) => counts[slot].1 += 1,
        Err(slot) => counts.insert(slot, (part, 1)),
    }
}

/// Incremental, streaming-friendly construction of a [`DistributedGraph`].
///
/// Edges arrive one at a time, already assigned to their partition (for
/// example by an
/// [`ebv_partition::StreamingPartitioner`]); the builder routes each edge
/// to its worker's edge list immediately, so peak memory is the final
/// per-worker state — no global edge vector is ever held. Master election
/// and replica bookkeeping happen once, in [`finish`](Self::finish), through
/// the same assembly step as the batch [`DistributedGraph::build`], so a
/// streamed distribution is structurally identical to the batch
/// distribution of the same assignment.
///
/// # Examples
///
/// ```
/// use ebv_bsp::DistributedGraph;
/// use ebv_graph::Edge;
/// use ebv_partition::PartitionId;
///
/// # fn main() -> Result<(), ebv_bsp::BspError> {
/// let mut builder = DistributedGraph::builder(2)?;
/// builder.add_edge(Edge::from((0u64, 1u64)), PartitionId::new(0))?;
/// builder.add_edge(Edge::from((1u64, 2u64)), PartitionId::new(1))?;
/// let distributed = builder.finish()?;
/// assert_eq!(distributed.num_workers(), 2);
/// assert_eq!(distributed.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DistributedGraphBuilder {
    num_partitions: usize,
    num_vertices_hint: Option<usize>,
    edges_per_part: Vec<Vec<Edge>>,
    max_vertex_exclusive: usize,
    num_edges: usize,
    epoch: usize,
}

impl DistributedGraphBuilder {
    /// Creates a builder for `num_partitions` workers.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidParameter`] when `num_partitions` is zero.
    pub fn new(num_partitions: usize) -> Result<Self> {
        if num_partitions == 0 {
            return Err(BspError::InvalidParameter {
                parameter: "num_partitions",
                message: "at least one partition is required".to_string(),
            });
        }
        Ok(DistributedGraphBuilder {
            num_partitions,
            num_vertices_hint: None,
            edges_per_part: vec![Vec::new(); num_partitions],
            max_vertex_exclusive: 0,
            num_edges: 0,
            epoch: 0,
        })
    }

    /// Declares the vertex universe `0..n` up front, so vertices never
    /// mentioned by the stream are still placed as isolated masters.
    pub fn with_num_vertices(mut self, n: usize) -> Self {
        self.num_vertices_hint = Some(n);
        self
    }

    /// Stamps the finished distribution with `epoch` instead of 0.
    ///
    /// The mutation epoch is the one field of a [`DistributedGraph`] that
    /// is *not* derivable from the edge assignment — it counts applied
    /// batches. Checkpoint recovery rebuilds the graph through this
    /// builder and must resume the lineage at the checkpointed epoch, not
    /// restart it at zero.
    pub fn with_epoch(mut self, epoch: usize) -> Self {
        self.epoch = epoch;
        self
    }

    /// Routes one assigned edge to its worker.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::PartitionMismatch`] when `part` is out of range.
    pub fn add_edge(&mut self, edge: Edge, part: PartitionId) -> Result<()> {
        if part.index() >= self.num_partitions {
            return Err(BspError::PartitionMismatch {
                message: format!(
                    "edge assigned to partition {part} but only {} partitions exist",
                    self.num_partitions
                ),
            });
        }
        let needed = edge.src.index().max(edge.dst.index()) + 1;
        if needed > self.max_vertex_exclusive {
            self.max_vertex_exclusive = needed;
        }
        self.edges_per_part[part.index()].push(edge);
        self.num_edges += 1;
        Ok(())
    }

    /// Number of edges routed so far.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Elects masters, fills the replica table and produces the
    /// [`DistributedGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`BspError::PartitionMismatch`] when a declared vertex count
    /// is smaller than the largest streamed endpoint.
    pub fn finish(self) -> Result<DistributedGraph> {
        let n = match self.num_vertices_hint {
            Some(hint) => {
                if hint < self.max_vertex_exclusive {
                    return Err(BspError::PartitionMismatch {
                        message: format!(
                            "declared {hint} vertices but the stream references vertex {}",
                            self.max_vertex_exclusive - 1
                        ),
                    });
                }
                hint
            }
            None => self.max_vertex_exclusive,
        };
        let owned_per_part = vec![Vec::new(); self.num_partitions];
        let mut distributed = assemble(
            self.num_partitions,
            n,
            self.num_edges,
            self.edges_per_part,
            owned_per_part,
            MasterRule::IncidentMajority,
        );
        distributed.epoch = self.epoch;
        distributed.routing.set_epoch(self.epoch);
        Ok(distributed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_partition::{EbvPartitioner, MetisLikePartitioner, Partitioner};

    fn square() -> Graph {
        Graph::from_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn vertex_cut_distribution_covers_all_edges_once() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        assert_eq!(dg.num_workers(), 2);
        let total_edges: usize = dg.subgraphs().iter().map(|s| s.num_edges()).sum();
        assert_eq!(total_edges, g.num_edges());
    }

    #[test]
    fn every_vertex_has_exactly_one_master() {
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        for v in g.vertices() {
            let master = dg.replicas().master_of(v);
            let master_count = dg
                .subgraphs()
                .iter()
                .filter(|s| s.local_index_of(v).map(|i| s.is_master(i)).unwrap_or(false))
                .count();
            if dg.replicas().replica_count(v) > 0 {
                assert_eq!(master_count, 1, "vertex {v}");
                assert!(dg.replicas().replicas_of(v).contains(&master));
            }
        }
    }

    #[test]
    fn replica_table_matches_subgraph_contents() {
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        for v in g.vertices() {
            let holders: Vec<PartitionId> = dg
                .subgraphs()
                .iter()
                .filter(|s| s.local_index_of(v).is_some())
                .map(|s| s.part())
                .collect();
            assert_eq!(holders, dg.replicas().replicas_of(v), "vertex {v}");
        }
        let rf = dg.replication_factor();
        assert!(rf >= 1.0 - 1e-9);
    }

    #[test]
    fn edge_cut_distribution_replicates_crossing_edges() {
        let g = square();
        let partition = MetisLikePartitioner::new().partition(&g, 2).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        let total_edges: usize = dg.subgraphs().iter().map(|s| s.num_edges()).sum();
        assert!(total_edges >= g.num_edges());
        // Masters come from the edge-cut ownership.
        let ec = partition.as_edge_cut().unwrap();
        for v in g.vertices() {
            assert_eq!(dg.replicas().master_of(v), ec.part_of(v));
        }
        // Each original edge is owned by exactly one subgraph copy.
        let owned_edges: usize = dg
            .subgraphs()
            .iter()
            .map(|s| (0..s.num_edges()).filter(|&i| s.owns_edge(i)).count())
            .sum();
        assert_eq!(owned_edges, g.num_edges());
    }

    #[test]
    fn vertex_cut_subgraphs_own_every_local_edge() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        for s in dg.subgraphs() {
            assert!((0..s.num_edges()).all(|i| s.owns_edge(i)));
        }
    }

    #[test]
    fn local_adjacency_is_consistent() {
        let g = ebv_graph::generators::named::two_triangles();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        for s in dg.subgraphs() {
            for (li, v) in s.vertices().iter().enumerate() {
                assert_eq!(s.local_index_of(*v), Some(li));
                assert_eq!(s.vertex_at(li), *v);
                let out_edges = s.edges().iter().filter(|e| e.src == *v).count();
                assert_eq!(s.out_neighbors(li).len(), out_edges);
                let in_edges = s.edges().iter().filter(|e| e.dst == *v).count();
                assert_eq!(s.in_neighbors(li).len(), in_edges);
            }
            assert!(s.master_indices().count() <= s.num_vertices());
        }
    }

    #[test]
    fn streaming_builder_matches_batch_build() {
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
        let batch = DistributedGraph::build(&g, &partition).unwrap();
        let vc = partition.as_vertex_cut().unwrap();
        let streamed = DistributedGraph::build_streaming(
            3,
            Some(g.num_vertices()),
            g.edges()
                .iter()
                .copied()
                .zip(vc.assignment().iter().copied()),
        )
        .unwrap();
        assert_eq!(streamed.num_workers(), batch.num_workers());
        assert_eq!(streamed.num_vertices(), batch.num_vertices());
        assert_eq!(streamed.num_edges(), batch.num_edges());
        for v in g.vertices() {
            assert_eq!(
                streamed.replicas().master_of(v),
                batch.replicas().master_of(v),
                "vertex {v}"
            );
            assert_eq!(
                streamed.replicas().replicas_of(v),
                batch.replicas().replicas_of(v),
                "vertex {v}"
            );
        }
        for (s, b) in streamed.subgraphs().iter().zip(batch.subgraphs()) {
            assert_eq!(s.edges(), b.edges());
            assert_eq!(s.vertices(), b.vertices());
        }
        assert_same_holder_lists(&streamed, &batch);
    }

    /// The per-vertex holder lists (partition, live incidence) themselves,
    /// not only the masters elected from them: `apply_mutations` binary
    /// searches these, so they must come out of every construction path
    /// identical and strictly ascending by partition.
    fn assert_same_holder_lists(a: &DistributedGraph, b: &DistributedGraph) {
        assert_eq!(a.incident_count, b.incident_count, "holder lists diverged");
        for (v, holders) in a.incident_count.iter().enumerate() {
            assert!(
                holders.windows(2).all(|w| w[0].0 < w[1].0),
                "holders of vertex {v} are not strictly ascending: {holders:?}"
            );
            assert!(holders.iter().all(|&(_, count)| count > 0), "vertex {v}");
        }
    }

    #[test]
    fn in_neighbor_ownership_is_empty_for_vertex_cut_and_aligned_for_edge_cut() {
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        let all_empty = |dg: &DistributedGraph| {
            dg.subgraphs().iter().all(|sg| {
                sg.in_owned.is_empty()
                    && (0..sg.num_vertices()).all(|l| sg.in_neighbor_ownership(l).is_empty())
            })
        };
        assert!(all_empty(&dg));
        // A re-assembled (touched) worker still owns every edge.
        let mut batch = MutationBatch::new();
        batch.record_delete(g.edges()[0], partition.as_vertex_cut().unwrap().part_of(0));
        batch.record_insert(Edge::from((2u64, 11u64)), PartitionId::new(1));
        let stats = dg.apply_mutations(&batch).unwrap();
        assert!(stats.workers_touched >= 1);
        assert!(all_empty(&dg));

        // Edge-cut: the slice is `owns_edge` in in-CSR order. In-neighbours
        // of a target are listed in local-edge order, so walking the edge
        // list with one cursor per target visits the same slots.
        let ec = MetisLikePartitioner::new().partition(&g, 3).unwrap();
        let ec_dg = DistributedGraph::build(&g, &ec).unwrap();
        let mut unowned = 0usize;
        for sg in ec_dg.subgraphs() {
            let mut cursor = vec![0usize; sg.num_vertices()];
            for (edge_index, edge) in sg.edges().iter().enumerate() {
                let target = sg.local_index_of(edge.dst).unwrap();
                let k = cursor[target];
                cursor[target] += 1;
                assert_eq!(
                    sg.in_neighbors(target)[k] as usize,
                    sg.local_index_of(edge.src).unwrap()
                );
                let owned = sg.in_neighbor_ownership(target).get(k).copied();
                assert_eq!(owned.unwrap_or(true), sg.owns_edge(edge_index));
                unowned += usize::from(!sg.owns_edge(edge_index));
            }
        }
        assert!(
            unowned > 0,
            "the edge-cut build replicated no crossing edge"
        );
    }

    #[test]
    fn streaming_builder_places_isolated_vertices() {
        let streamed = DistributedGraph::build_streaming(
            2,
            Some(5),
            vec![(Edge::from((0u64, 1u64)), PartitionId::new(0))],
        )
        .unwrap();
        assert_eq!(streamed.num_vertices(), 5);
        // Vertices 2..5 are isolated; each still has exactly one master.
        for v in 2..5u64 {
            assert_eq!(streamed.replicas().replica_count(VertexId::new(v)), 1);
        }
    }

    #[test]
    fn streaming_builder_rejects_bad_input() {
        assert!(DistributedGraphBuilder::new(0).is_err());
        let mut builder = DistributedGraphBuilder::new(2).unwrap();
        assert!(builder
            .add_edge(Edge::from((0u64, 1u64)), PartitionId::new(5))
            .is_err());
        builder
            .add_edge(Edge::from((0u64, 9u64)), PartitionId::new(1))
            .unwrap();
        assert_eq!(builder.num_edges(), 1);
        // Hint smaller than the largest streamed endpoint.
        let too_small = builder.clone().with_num_vertices(3);
        assert!(too_small.finish().is_err());
    }

    #[test]
    fn empty_stream_with_hint_yields_isolated_only_workers() {
        let streamed = DistributedGraph::build_streaming(3, Some(4), Vec::new()).unwrap();
        assert_eq!(streamed.num_workers(), 3);
        assert_eq!(streamed.num_edges(), 0);
        assert_eq!(streamed.num_vertices(), 4);
        let total_vertices: usize = streamed.subgraphs().iter().map(|s| s.num_vertices()).sum();
        assert_eq!(total_vertices, 4);
    }

    #[test]
    fn mismatched_partition_is_rejected() {
        let g = square();
        let other = Graph::from_edges(vec![(0, 1)]).unwrap();
        let partition = EbvPartitioner::new().partition(&other, 1).unwrap();
        assert!(DistributedGraph::build(&g, &partition).is_err());
    }

    fn assert_same_distribution(a: &DistributedGraph, b: &DistributedGraph) {
        assert_eq!(a.num_workers(), b.num_workers());
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices() {
            let v = VertexId::from(v);
            assert_eq!(a.replicas().master_of(v), b.replicas().master_of(v));
            assert_eq!(a.replicas().replicas_of(v), b.replicas().replicas_of(v));
        }
        for (sa, sb) in a.subgraphs().iter().zip(b.subgraphs()) {
            assert_eq!(sa.edges(), sb.edges());
            assert_eq!(sa.vertices(), sb.vertices());
        }
        // The incrementally maintained routing table must be structurally
        // identical to the from-scratch rebuild (routing staleness after
        // `apply_mutations` would surface here).
        assert_eq!(a.routing(), b.routing(), "routing tables diverged");
        assert_same_holder_lists(a, b);
    }

    #[test]
    fn mutation_batch_cancels_same_batch_deletions() {
        let mut batch = MutationBatch::new();
        let e = Edge::from((0u64, 1u64));
        batch.record_insert(e, PartitionId::new(0));
        batch.record_insert(e, PartitionId::new(1));
        batch.record_delete(e, PartitionId::new(1));
        assert_eq!(batch.added(), &[(e, PartitionId::new(0))]);
        assert!(batch.removed().is_empty());
        batch.record_delete(e, PartitionId::new(1));
        assert_eq!(batch.removed(), &[(e, PartitionId::new(1))]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        batch.record_move(
            Edge::from((2u64, 3u64)),
            PartitionId::new(0),
            PartitionId::new(1),
        );
        assert_eq!(batch.len(), 4);
    }

    /// The in-batch cancellation [`MutationBatch`] had before its pending
    /// multiset: every deletion scans the additions. Kept as the reference
    /// the O(1)-miss implementation is checked against.
    #[derive(Default)]
    struct ScanBatch {
        added: Vec<(Edge, PartitionId)>,
        removed: Vec<(Edge, PartitionId)>,
    }

    impl ScanBatch {
        fn record_insert(&mut self, edge: Edge, part: PartitionId) {
            self.added.push((edge, part));
        }

        fn record_delete(&mut self, edge: Edge, part: PartitionId) {
            match self.added.iter().rposition(|&pair| pair == (edge, part)) {
                Some(index) => {
                    self.added.remove(index);
                }
                None => self.removed.push((edge, part)),
            }
        }

        fn record_move(&mut self, edge: Edge, from: PartitionId, to: PartitionId) {
            self.record_delete(edge, from);
            self.record_insert(edge, to);
        }
    }

    fn assert_same_batch(batch: &MutationBatch, oracle: &ScanBatch) {
        assert_eq!(batch.added(), oracle.added.as_slice());
        assert_eq!(batch.removed(), oracle.removed.as_slice());
        assert_eq!(batch.len(), oracle.added.len() + oracle.removed.len());
        assert_eq!(
            batch.is_empty(),
            oracle.added.is_empty() && oracle.removed.is_empty()
        );
    }

    #[test]
    fn delete_then_reinsert_of_a_pre_batch_pair_sits_in_both_lists() {
        let pair = (Edge::from((4u64, 2u64)), PartitionId::new(1));
        let mut batch = MutationBatch::new();
        batch.record_delete(pair.0, pair.1);
        batch.record_insert(pair.0, pair.1);
        assert_eq!(batch.added(), &[pair]);
        assert_eq!(batch.removed(), &[pair]);

        // The round trip keeps both, and a further delete cancels the
        // re-insert rather than the pre-batch removal.
        let mut decoded =
            MutationBatch::from_parts(batch.added().to_vec(), batch.removed().to_vec());
        assert_eq!(decoded, batch);
        decoded.record_delete(pair.0, pair.1);
        assert!(decoded.added().is_empty());
        assert_eq!(decoded.removed(), &[pair]);
        // Nothing pending any more: the next delete is a plain removal.
        decoded.record_delete(pair.0, pair.1);
        assert_eq!(decoded.removed(), &[pair, pair]);
    }

    #[test]
    fn rebalance_plans_replay_through_record_move_like_the_scan() {
        use ebv_partition::{RandomVertexCutPartitioner, RebalanceConfig, StreamConfig};

        // Duplicate copies hash to one partition, so a rebalance migrates
        // several copies of the same edge: moves whose `from` matches an
        // earlier move's `to` cancel in-batch.
        let mut partitioner = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(4))
            .unwrap();
        for round in 0..6u64 {
            for v in 0..5u64 {
                partitioner.insert(Edge::from((v, (v + round) % 5)));
            }
        }
        let aggressive = RebalanceConfig::new()
            .with_max_edge_imbalance(1.0)
            .with_target_edge_imbalance(1.0)
            .with_max_replication_factor(1.0);
        let (mut batch, mut oracle) = (MutationBatch::new(), ScanBatch::default());
        for _ in 0..3 {
            let plan = partitioner.rebalance(&aggressive).unwrap();
            for m in plan.moves() {
                batch.record_move(m.edge, m.from, m.to);
                oracle.record_move(m.edge, m.from, m.to);
            }
        }
        assert!(!batch.is_empty(), "the skewed setup migrates something");
        assert_same_batch(&batch, &oracle);
    }

    mod batch_differential {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random insert/delete/move sequences over a universe small
            /// enough that duplicate copies, same-batch cancellations and
            /// delete-then-reinsert of a pre-batch pair are all frequent,
            /// with a `from_parts` round trip at a random point: the
            /// multiset-backed batch and the scanning oracle agree on both
            /// lists after every operation.
            #[test]
            fn multiset_cancellation_matches_the_scan(
                ops in proptest::collection::vec(
                    (0u8..4, 0u64..4, 0u64..4, 0u32..3, 0u32..3),
                    1..160,
                ),
                round_trip_at in 0usize..160,
            ) {
                let (mut batch, mut oracle) = (MutationBatch::new(), ScanBatch::default());
                for (step, (kind, src, dst, part, other)) in ops.into_iter().enumerate() {
                    if step == round_trip_at {
                        batch = MutationBatch::from_parts(
                            batch.added().to_vec(),
                            batch.removed().to_vec(),
                        );
                    }
                    let edge = Edge::from((src, dst));
                    let (part, other) = (PartitionId::new(part), PartitionId::new(other));
                    match kind {
                        0 => {
                            batch.record_insert(edge, part);
                            oracle.record_insert(edge, part);
                        }
                        1 => {
                            batch.record_delete(edge, part);
                            oracle.record_delete(edge, part);
                        }
                        2 => {
                            batch.record_move(edge, part, other);
                            oracle.record_move(edge, part, other);
                        }
                        _ => {
                            // Retire a copy and put the same pair back.
                            batch.record_delete(edge, part);
                            batch.record_insert(edge, part);
                            oracle.record_delete(edge, part);
                            oracle.record_insert(edge, part);
                        }
                    }
                    assert_same_batch(&batch, &oracle);
                }
            }
        }
    }

    #[test]
    fn apply_mutations_equals_fresh_build_of_survivors() {
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
        let vc = partition.as_vertex_cut().unwrap();
        let initial = DistributedGraph::build(&g, &partition).unwrap();
        assert_eq!(initial.epoch(), 0);

        // Remove every third edge and add two new ones.
        let assigned: Vec<(Edge, PartitionId)> = g
            .edges()
            .iter()
            .copied()
            .zip(vc.assignment().iter().copied())
            .collect();
        let mut batch = MutationBatch::new();
        for (edge, part) in assigned.iter().step_by(3) {
            batch.record_delete(*edge, *part);
        }
        let additions = [
            (Edge::from((0u64, 9u64)), PartitionId::new(2)),
            (Edge::from((4u64, 12u64)), PartitionId::new(1)),
        ];
        for (edge, part) in additions {
            batch.record_insert(edge, part);
        }
        let mut mutated = initial.clone();
        let stats = mutated.apply_mutations(&batch).unwrap();
        assert_eq!(mutated.epoch(), 1);
        assert_eq!(stats, mutated.last_mutation());
        assert_eq!(stats.edges_added, 2);
        assert!(stats.workers_touched >= 1 && stats.workers_touched <= 3);

        // The surviving stream in order: the undeleted originals, then the
        // batch additions.
        let survivors = assigned
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &pair)| pair)
            .chain(additions);
        let fresh =
            DistributedGraph::build_streaming(3, Some(mutated.num_vertices()), survivors).unwrap();
        assert_same_distribution(&mutated, &fresh);
    }

    #[test]
    fn apply_mutations_removes_the_latest_duplicate_copy() {
        let e = Edge::from((0u64, 1u64));
        let stream = vec![
            (e, PartitionId::new(0)),
            (Edge::from((1u64, 2u64)), PartitionId::new(1)),
            (e, PartitionId::new(0)),
        ];
        let mut mutated = DistributedGraph::build_streaming(2, None, stream).unwrap();
        let mut batch = MutationBatch::new();
        batch.record_delete(e, PartitionId::new(0));
        mutated.apply_mutations(&batch).unwrap();
        assert_eq!(mutated.num_edges(), 2);
        assert_eq!(mutated.subgraph(PartitionId::new(0)).edges(), &[e]);
    }

    #[test]
    fn apply_mutations_rejects_bad_batches() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        let pristine = dg.clone();

        let mut missing = MutationBatch::new();
        missing.record_delete(Edge::from((7u64, 8u64)), PartitionId::new(0));
        assert!(matches!(
            dg.apply_mutations(&missing),
            Err(BspError::InvalidMutation { .. })
        ));

        let mut out_of_range = MutationBatch::new();
        out_of_range.record_insert(Edge::from((0u64, 1u64)), PartitionId::new(9));
        assert!(matches!(
            dg.apply_mutations(&out_of_range),
            Err(BspError::PartitionMismatch { .. })
        ));

        // Rejected batches leave the distribution untouched.
        assert_eq!(dg.epoch(), 0);
        assert_same_distribution(&dg, &pristine);

        // Edge-cut distributions replicate crossing edges and cannot absorb
        // edge-level mutations.
        let ec = MetisLikePartitioner::new().partition(&g, 2).unwrap();
        let mut ec_dg = DistributedGraph::build(&g, &ec).unwrap();
        assert!(!ec_dg.is_vertex_cut());
        let mut non_empty = MutationBatch::new();
        non_empty.record_insert(Edge::from((0u64, 2u64)), PartitionId::new(0));
        assert!(matches!(
            ec_dg.apply_mutations(&non_empty),
            Err(BspError::InvalidMutation { .. })
        ));
    }

    #[test]
    fn missing_edge_error_is_deterministic() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        // Several missing edges in the same partition: the message must name
        // the smallest one, independent of HashMap iteration order.
        let mut batch = MutationBatch::new();
        for (s, d) in [(9u64, 9u64), (7u64, 8u64), (8u64, 7u64)] {
            batch.record_delete(Edge::from((s, d)), PartitionId::new(1));
        }
        let err = dg.apply_mutations(&batch).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid mutation: partition 1 holds no copy of edge (7 -> 8) to remove"
        );
        // The lowest-numbered failing partition wins when several fail.
        let mut multi = MutationBatch::new();
        multi.record_delete(Edge::from((9u64, 9u64)), PartitionId::new(1));
        multi.record_delete(Edge::from((5u64, 5u64)), PartitionId::new(0));
        let err = dg.apply_mutations(&multi).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid mutation: partition 0 holds no copy of edge (5 -> 5) to remove"
        );
    }

    #[test]
    fn mutation_stats_display_is_one_line() {
        assert_eq!(
            MutationStats::default().to_string(),
            "no-op epoch (0 workers touched)"
        );
        let stats = MutationStats {
            workers_touched: 3,
            edges_rebuilt: 1200,
            edges_added: 45,
            edges_removed: 12,
            apply_seconds: 0.00525,
        };
        let line = stats.to_string();
        assert_eq!(
            line,
            "3 workers touched, 1200 edges rebuilt (+45/-12 edge copies) in 5.25ms"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn empty_batch_is_a_no_op_and_does_not_advance_the_epoch() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        let pristine = dg.clone();
        let edges_buffer = dg.subgraph(PartitionId::new(0)).edges().as_ptr();

        // Literally empty.
        let stats = dg.apply_mutations(&MutationBatch::new()).unwrap();
        assert_eq!(stats, MutationStats::default());

        // Fully cancelled in-batch: insert then delete of the same copy.
        let mut cancelled = MutationBatch::new();
        let e = Edge::from((0u64, 3u64));
        cancelled.record_insert(e, PartitionId::new(1));
        cancelled.record_delete(e, PartitionId::new(1));
        assert!(cancelled.is_empty());
        let stats = dg.apply_mutations(&cancelled).unwrap();
        assert_eq!(stats.workers_touched, 0);
        assert_eq!(stats.edges_rebuilt, 0);

        assert_eq!(dg.epoch(), 0, "no-op batches do not advance the epoch");
        assert_same_distribution(&dg, &pristine);
        // The subgraphs were not even re-allocated.
        assert_eq!(
            dg.subgraph(PartitionId::new(0)).edges().as_ptr(),
            edges_buffer
        );
    }

    #[test]
    fn apply_mutations_rebuilds_only_touched_workers() {
        // Four chain components, one per partition, so a batch naming two
        // partitions cannot affect the other two.
        let stream: Vec<(Edge, PartitionId)> = (0..4u64)
            .flat_map(|part| {
                let base = 10 * part;
                [
                    (Edge::from((base, base + 1)), PartitionId::new(part as u32)),
                    (
                        Edge::from((base + 1, base + 2)),
                        PartitionId::new(part as u32),
                    ),
                ]
            })
            .collect();
        let mut dg = DistributedGraph::build_streaming(4, None, stream.clone()).unwrap();
        let untouched_buffers: Vec<*const Edge> = [2usize, 3]
            .iter()
            .map(|&i| dg.subgraphs()[i].edges().as_ptr())
            .collect();

        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((0u64, 1u64)), PartitionId::new(0));
        batch.record_insert(Edge::from((11u64, 13u64)), PartitionId::new(1));
        let stats = dg.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 2, "only partitions 0 and 1 rebuild");
        assert_eq!(dg.epoch(), 1);

        // The untouched workers kept their exact allocations.
        for (&i, &buffer) in [2usize, 3].iter().zip(&untouched_buffers) {
            assert_eq!(dg.subgraphs()[i].edges().as_ptr(), buffer, "worker {i}");
        }

        // And the whole distribution still equals a fresh build of the
        // survivors.
        let survivors: Vec<(Edge, PartitionId)> = stream
            .into_iter()
            .filter(|&(e, part)| !(e == Edge::from((0u64, 1u64)) && part == PartitionId::new(0)))
            .chain([(Edge::from((11u64, 13u64)), PartitionId::new(1))])
            .collect();
        let fresh =
            DistributedGraph::build_streaming(4, Some(dg.num_vertices()), survivors).unwrap();
        assert_same_distribution(&dg, &fresh);
    }

    #[test]
    fn isolation_changes_touch_the_home_worker() {
        // Vertex 5's home partition is 5 % 2 = 1. Removing its only edge
        // (held by partition 0) must re-home it as an isolated vertex in
        // partition 1, so both workers are touched.
        let stream = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((0u64, 5u64)), PartitionId::new(0)),
            (Edge::from((2u64, 3u64)), PartitionId::new(1)),
        ];
        let mut dg = DistributedGraph::build_streaming(2, None, stream.clone()).unwrap();
        let mut batch = MutationBatch::new();
        batch.record_delete(Edge::from((0u64, 5u64)), PartitionId::new(0));
        let stats = dg.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 2);
        let fresh = DistributedGraph::build_streaming(
            2,
            Some(dg.num_vertices()),
            vec![
                (Edge::from((0u64, 1u64)), PartitionId::new(0)),
                (Edge::from((2u64, 3u64)), PartitionId::new(1)),
            ],
        )
        .unwrap();
        assert_same_distribution(&dg, &fresh);
        // And re-adding an edge to vertex 5 un-isolates it again.
        let mut back = MutationBatch::new();
        back.record_insert(Edge::from((4u64, 5u64)), PartitionId::new(1));
        dg.apply_mutations(&back).unwrap();
        let fresh = DistributedGraph::build_streaming(
            2,
            Some(dg.num_vertices()),
            vec![
                (Edge::from((0u64, 1u64)), PartitionId::new(0)),
                (Edge::from((2u64, 3u64)), PartitionId::new(1)),
                (Edge::from((4u64, 5u64)), PartitionId::new(1)),
            ],
        )
        .unwrap();
        assert_same_distribution(&dg, &fresh);
    }

    #[test]
    fn master_flags_are_patched_in_untouched_workers() {
        // Vertex 1 is replicated in partitions 0 (two incident edges) and 1
        // (one incident edge): partition 0 masters it. Adding two more
        // incident edges to partition 1 flips the master to partition 1
        // while partition 0's edge list never changes.
        let stream = vec![
            (Edge::from((0u64, 1u64)), PartitionId::new(0)),
            (Edge::from((1u64, 2u64)), PartitionId::new(0)),
            (Edge::from((1u64, 3u64)), PartitionId::new(1)),
        ];
        let mut dg = DistributedGraph::build_streaming(2, None, stream.clone()).unwrap();
        let v1 = VertexId::new(1);
        assert_eq!(dg.replicas().master_of(v1), PartitionId::new(0));

        let additions = [
            (Edge::from((1u64, 4u64)), PartitionId::new(1)),
            (Edge::from((1u64, 5u64)), PartitionId::new(1)),
        ];
        let mut batch = MutationBatch::new();
        for (e, part) in additions {
            batch.record_insert(e, part);
        }
        let stats = dg.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1, "only partition 1 rebuilds");
        assert_eq!(dg.replicas().master_of(v1), PartitionId::new(1));
        // The untouched worker's replica flag was patched in place.
        let sg0 = dg.subgraph(PartitionId::new(0));
        let local = sg0.local_index_of(v1).unwrap();
        assert!(!sg0.is_master(local));
        let fresh = DistributedGraph::build_streaming(
            2,
            Some(dg.num_vertices()),
            stream.into_iter().chain(additions),
        )
        .unwrap();
        assert_same_distribution(&dg, &fresh);
    }

    #[test]
    fn incremental_masters_match_fresh_build_under_random_churn() {
        // A randomized cross-check on a denser graph: several mutation
        // epochs, then full structural equality including masters.
        let g = ebv_graph::generators::named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
        let vc = partition.as_vertex_cut().unwrap();
        let mut assigned: Vec<(Edge, PartitionId)> = g
            .edges()
            .iter()
            .copied()
            .zip(vc.assignment().iter().copied())
            .collect();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        let mut next_vertex = g.num_vertices() as u64;
        for round in 0..5 {
            let mut batch = MutationBatch::new();
            // Delete a deterministic third of the survivors.
            let victims: Vec<(Edge, PartitionId)> = assigned
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % 3 == round % 3)
                .map(|(_, pair)| pair)
                .collect();
            for &(e, part) in &victims {
                batch.record_delete(e, part);
            }
            assigned.retain(|pair| !victims.contains(pair));
            // Add edges, including ones growing the universe.
            let additions = [
                (
                    Edge::from((round as u64, next_vertex)),
                    PartitionId::new((round % 4) as u32),
                ),
                (
                    Edge::from((next_vertex, next_vertex + 1)),
                    PartitionId::new(((round + 1) % 4) as u32),
                ),
            ];
            next_vertex += 2;
            for (e, part) in additions {
                batch.record_insert(e, part);
                assigned.push((e, part));
            }
            dg.apply_mutations(&batch).unwrap();
            let fresh = DistributedGraph::build_streaming(
                4,
                Some(dg.num_vertices()),
                assigned.iter().copied(),
            )
            .unwrap();
            assert_same_distribution(&dg, &fresh);
            for v in 0..dg.num_vertices() {
                let v = VertexId::from(v);
                for sg in dg.subgraphs() {
                    if let Some(local) = sg.local_index_of(v) {
                        assert_eq!(
                            sg.is_master(local),
                            dg.replicas().master_of(v) == sg.part(),
                            "round {round} vertex {v} worker {}",
                            sg.part()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epochs_accumulate_across_batches() {
        let g = square();
        let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
        let mut dg = DistributedGraph::build(&g, &partition).unwrap();
        for expected in 1..=3 {
            let mut batch = MutationBatch::new();
            batch.record_insert(Edge::from((0u64, 2u64)), PartitionId::new(0));
            dg.apply_mutations(&batch).unwrap();
            assert_eq!(dg.epoch(), expected);
        }
        assert_eq!(dg.num_edges(), g.num_edges() + 3);
    }
}
