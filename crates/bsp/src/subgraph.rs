//! One worker's local graph: the edges of its partition indexed as CSR, and
//! the master/mirror flag of every vertex they touch.
//!
//! Invariant owned here: a [`Subgraph`] is a pure function of its inputs —
//! the edge list in arrival order, the isolated vertices homed here and the
//! master table — so rebuilding a worker from the same edge list reproduces
//! its local vertex numbering (first appearance, then isolated vertices)
//! bit for bit. Nothing outside this file reads or writes a field; the
//! distribution layer goes through the `pub(crate)` methods below. The
//! universe-sized `scratch` [`Subgraph::build`] resolves endpoints through
//! is all-`ABSENT` on entry and on exit.

use ebv_graph::{Edge, IdHashMap, VertexId};
use ebv_partition::PartitionId;

// The distribution layer's public types, re-exported from the modules that
// own them so `lib.rs` names them in one list.
pub use crate::builder::DistributedGraphBuilder;
pub use crate::distributed::{DistributedGraph, Lineage};
pub use crate::mutation_batch::{MutationBatch, MutationStats};
pub use crate::replica::ReplicaTable;

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
    /// being built. It covers the whole universe `replicas` elects over,
    /// holds [`ABSENT`] everywhere on entry and is handed back in that
    /// state, so one allocation serves every worker a caller rebuilds and
    /// each endpoint costs an array read instead of a hash probe.
    pub(crate) fn build(
        part: PartitionId,
        edges: Vec<Edge>,
        owns_edge: Vec<bool>,
        isolated: &[VertexId],
        replicas: &ReplicaTable,
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
            .map(|&v| replicas.master_of(v) == part)
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

    /// A scratch for [`build`](Self::build) over the universe `0..n`.
    pub(crate) fn build_scratch(n: usize) -> Vec<u32> {
        vec![ABSENT; n]
    }

    /// Moves the edge list out, ahead of a rebuild that replaces `self`.
    pub(crate) fn take_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.edges)
    }

    /// Sets the master flag of local vertex `v`, for a worker that keeps
    /// its edges while a boundary vertex's master moves.
    pub(crate) fn set_master(&mut self, v: VertexId, is_master: bool) {
        let local = self.local_index[&v] as usize;
        self.is_master[local] = is_master;
    }

    /// Whether this worker owns every local edge (always, in a vertex-cut).
    pub(crate) fn owns_every_edge(&self) -> bool {
        // Ownership flags are kept only while an unowned copy is held.
        self.owns_edge.is_empty()
    }

    /// Structural equality: same partition, edge list (content, ownership
    /// and order), local vertex table and master flags. The CSRs and the
    /// local index are functions of those.
    pub(crate) fn same_structure(&self, other: &Self) -> bool {
        self.part == other.part
            && self.edges == other.edges
            && self.owns_edge == other.owns_edge
            && self.vertices == other.vertices
            && self.is_master == other.is_master
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

#[cfg(test)]
mod tests;
