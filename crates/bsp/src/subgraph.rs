//! One worker's local graph: the edges of its partition indexed as CSR, and
//! the master/mirror flag of every vertex they touch.
//!
//! Invariant owned here: a [`Subgraph`] is a pure function of its inputs —
//! the edge list in arrival order, the isolated vertices homed here and the
//! elected masters, which arrive in that order ([`Subgraph::rebuild`],
//! then [`Subgraph::put_isolated`] up to [`Subgraph::end_isolated`], then
//! [`Subgraph::write_masters`]) — so rebuilding a worker from the same edge
//! list reproduces its local vertex numbering (first appearance, then
//! isolated vertices) bit for bit.
//! Nothing outside this file reads or writes a field; the distribution
//! layer goes through the `pub(crate)` methods below. What
//! [`Subgraph::rebuild`] needs only while it runs is a [`BuildScratch`],
//! which owns the hand-back invariant (resolver all-`ABSENT`, buffers
//! empty). The [`LocalComponents`] are part of the worker: a build fills
//! them right after the CSRs, in the buffers the last build left, and a new
//! isolated tail re-tails them. No hash map is built on that path: the
//! global → local index behind [`Subgraph::local_index_of`] is built by its
//! first caller, and so are the row index behind [`Subgraph::in_edges`] and
//! the role lists behind [`Subgraph::masters`] / [`Subgraph::mirrors`].

use std::sync::OnceLock;

use ebv_graph::{Edge, IdHashMap, VertexId};
use ebv_partition::PartitionId;

// The distribution layer's public types, re-exported from the modules that
// own them so `lib.rs` names them in one list.
pub use crate::builder::DistributedGraphBuilder;
pub use crate::distributed::{DistributedGraph, Lineage};
pub use crate::mutation_batch::{MutationBatch, MutationStats};
pub use crate::replica::ReplicaTable;

/// "Not a local vertex" in [`BuildScratch`]'s resolver.
const ABSENT: u32 = u32::MAX;

/// Everything [`Subgraph::rebuild`] needs only while it runs, shared by every
/// worker one lane (re)builds so that the per-worker allocations are the
/// finished arrays alone.
///
/// Invariant: between builds `local_of` — global vertex → local index, one
/// slot per vertex of the universe the replica table elects over — holds
/// [`ABSENT`] everywhere and the other buffers are empty (their capacity is
/// what the next worker reuses). A build resolves each endpoint through
/// `local_of` exactly once and resets the slots it wrote on its way out.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    local_of: Vec<u32>,
    /// The worker's edges as local `[src, dst]` pairs, in edge order.
    staged: Vec<[u32; 2]>,
    /// The vertex table as it grows.
    vertices: Vec<VertexId>,
    /// Per local vertex: out/in degree while the edges are walked, then the
    /// CSR fill cursors.
    out_cursor: Vec<u32>,
    in_cursor: Vec<u32>,
}

impl BuildScratch {
    /// Readies the scratch for workers over the universe `0..n` of at most
    /// `max_edges` edges each; the buffers only ever grow, to the exact
    /// size asked.
    pub(crate) fn cover(&mut self, n: usize, max_edges: usize) {
        if self.local_of.len() < n {
            resize_exact(&mut self.local_of, n, ABSENT);
        }
        self.staged.reserve_exact(max_edges);
    }

    /// The local index of `v`, numbering it on first appearance.
    #[inline]
    fn resolve(&mut self, v: VertexId) -> u32 {
        let slot = &mut self.local_of[v.index()];
        if *slot == ABSENT {
            *slot = self.vertices.len() as u32;
            self.vertices.push(v);
            self.out_cursor.push(0);
            self.in_cursor.push(0);
        }
        *slot
    }
}

/// Writes per-vertex degrees into `offsets` as CSR offsets (one entry
/// longer), leaving each range start behind in `degrees` as its cursor.
fn offsets_from_degrees(degrees: &mut [u32], offsets: &mut Vec<u32>) {
    offsets.clear();
    offsets.reserve_exact(degrees.len() + 1);
    let mut end = 0u32;
    for slot in degrees {
        offsets.push(end);
        end += std::mem::replace(slot, end);
    }
    offsets.push(end);
}

/// Makes room for `len` elements in `buf`; it grows to exactly `len` if it
/// must.
fn reserve_len<T>(buf: &mut Vec<T>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
}

/// Makes room for `len` elements in `buf`, growing it by at least a
/// quarter when it must grow: a tail assembled in one go is sized near its
/// exact length, while one that grows a little every epoch reallocates
/// rarely.
fn grow_to<T>(buf: &mut Vec<T>, len: usize) {
    if len > buf.capacity() {
        reserve_len(buf, len.max(buf.capacity() + buf.capacity() / 4));
    }
}

/// Resizes `buf` to `len`, filling with `value`; it grows to exactly `len`
/// if it must.
fn resize_exact<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    reserve_len(buf, len);
    buf.resize(len, value);
}

/// The connected components of one worker's local edges, direction
/// ignored: what a subgraph-centric CC superstep relabels as a whole
/// instead of propagating labels along edges (see
/// [`Subgraph::local_components`]).
///
/// Components are numbered densely in ascending order of their smallest
/// member, and each lists its members ascending, so a component's first
/// member is its smallest local index. Every local vertex is in exactly one
/// component; a vertex with no local edge is a singleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalComponents {
    /// Component id per local vertex.
    component_of: Vec<u32>,
    /// Per-component ranges into `members` (one entry longer than the
    /// component count).
    offsets: Vec<u32>,
    /// Local indices grouped by component, ascending within each.
    members: Vec<u32>,
}

impl LocalComponents {
    /// Components over no vertex, for a first [`refill`](Self::refill).
    fn new() -> Self {
        LocalComponents {
            component_of: Vec::new(),
            offsets: vec![0],
            members: Vec::new(),
        }
    }

    /// The components of the out-CSR `out_offsets` / `out_targets`, written
    /// over the buffers held, each reserving room for `room` local vertices
    /// (the vertex table's length once its isolated tail is expected back),
    /// so a re-tail that fits allocates nothing. `sizes` is a scratch,
    /// handed back empty.
    ///
    /// One union-find pass over the out-CSR. A union hangs the larger root
    /// under the smaller, so every parent index is below its child's and a
    /// root is its component's smallest local index; one ascending pass
    /// then rewrites the parent array in place into dense ids (a root takes
    /// the next one, any other vertex its parent's, rewritten already), and
    /// one counting sort lists the members.
    fn refill(
        &mut self,
        out_offsets: &[u32],
        out_targets: &[u32],
        room: usize,
        sizes: &mut Vec<u32>,
    ) {
        let n = out_offsets.len() - 1;
        let parent = &mut self.component_of;
        parent.clear();
        parent.reserve_exact(room.max(n));
        parent.extend(0..n as u32);
        for (u, row) in (0u32..).zip(out_offsets.windows(2)) {
            // `u`'s root, found once per row and followed through unions.
            let mut root = find_root(parent, u);
            for &v in &out_targets[row[0] as usize..row[1] as usize] {
                let other = find_root(parent, v);
                if root < other {
                    parent[other as usize] = root;
                } else if other < root {
                    parent[root as usize] = other;
                    root = other;
                }
            }
        }
        let mut len = 0u32;
        for local in 0..n {
            parent[local] = if parent[local] == local as u32 {
                len += 1;
                len - 1
            } else {
                parent[parent[local] as usize]
            };
        }
        sizes.clear();
        sizes.resize(len as usize, 0);
        for &c in &self.component_of {
            sizes[c as usize] += 1;
        }
        self.offsets.clear();
        self.offsets
            .reserve_exact(len as usize + 1 + room.saturating_sub(n));
        offsets_from_degrees(sizes, &mut self.offsets);
        self.members.clear();
        self.members.reserve_exact(room.max(n));
        self.members.resize(n, 0);
        for (local, &c) in (0u32..).zip(&self.component_of) {
            let slot = &mut sizes[c as usize];
            self.members[*slot as usize] = local;
            *slot += 1;
        }
        sizes.clear();
    }

    /// Makes room for [`retail`](Self::retail)`(held, held + singletons)`.
    fn reserve_tail(&mut self, held: usize, singletons: usize) {
        let components = self.len() - (self.component_of.len() - held);
        grow_to(&mut self.component_of, held + singletons);
        grow_to(&mut self.members, held + singletons);
        grow_to(&mut self.offsets, components + 1 + singletons);
    }

    /// Keeps the components of the first `held` local vertices — every one
    /// of which touches a local edge — and lists each vertex of `held..len`
    /// as a singleton after them. The vertices past `held` so far were
    /// singletons too, numbered after every component of the held prefix
    /// (ascending smallest member), so cutting them off leaves that prefix
    /// numbered as it was and the appended ones keep the order.
    fn retail(&mut self, held: usize, len: usize) {
        let components = self.len() - (self.component_of.len() - held);
        self.component_of.truncate(held);
        self.members.truncate(held);
        self.offsets.truncate(components + 1);
        let singletons = len - held;
        self.component_of.reserve_exact(singletons);
        self.members.reserve_exact(singletons);
        self.offsets.reserve_exact(singletons);
        self.component_of
            .extend((components as u32..).take(singletons));
        self.members.extend(held as u32..len as u32);
        self.offsets.extend(held as u32 + 1..=len as u32);
    }

    /// The components of `subgraph` from nothing: what every worker's
    /// built-in and re-tailed components must equal.
    #[cfg(test)]
    pub(crate) fn build(subgraph: &Subgraph) -> Self {
        let n = subgraph.num_vertices();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for u in 0..n {
            for &v in subgraph.out_neighbors(u) {
                let (a, b) = (find_root(&mut parent, u as u32), find_root(&mut parent, v));
                if a < b {
                    parent[b as usize] = a;
                } else if b < a {
                    parent[a as usize] = b;
                }
            }
        }
        let mut len = 0u32;
        for local in 0..n {
            parent[local] = if parent[local] == local as u32 {
                len += 1;
                len - 1
            } else {
                parent[parent[local] as usize]
            };
        }
        let component_of = parent;
        let mut sizes = vec![0u32; len as usize];
        for &c in &component_of {
            sizes[c as usize] += 1;
        }
        let mut offsets = Vec::new();
        offsets_from_degrees(&mut sizes, &mut offsets);
        let mut members = vec![0u32; n];
        for (local, &c) in component_of.iter().enumerate() {
            let slot = &mut sizes[c as usize];
            members[*slot as usize] = local as u32;
            *slot += 1;
        }
        LocalComponents {
            component_of,
            offsets,
            members,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there is no component (the subgraph has no vertex).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The component of the local vertex at `local_index`.
    #[inline]
    pub fn component_of(&self, local_index: usize) -> usize {
        self.component_of[local_index] as usize
    }

    /// The local indices of the members of `component`, ascending.
    #[inline]
    pub fn members(&self, component: usize) -> &[u32] {
        &self.members[self.offsets[component] as usize..self.offsets[component + 1] as usize]
    }
}

/// A worker's in-CSR as one flat list of positions, the shape a pull that
/// streams edges instead of walking vertex rows reads (see
/// [`Subgraph::in_edges`]).
///
/// Position `k` is one local edge, `sources[k] → rows[k]`. Positions are
/// grouped by row (target) ascending, and within a row they follow
/// local-edge order, so position order is the order a row-by-row walk of
/// [`Subgraph::in_neighbors`] visits.
#[derive(Debug, Clone, Copy)]
pub struct InEdges<'a> {
    /// The source (local index) of every position: row `t` of this array
    /// is [`Subgraph::in_neighbors`]`(t)`.
    pub sources: &'a [u32],
    /// The row (target local index) of every position, ascending.
    pub rows: &'a [u32],
    /// Whether this worker owns the local edge behind each position (see
    /// [`Subgraph::owns_edge`]). **Empty when it owns every local edge**
    /// (always, in a vertex-cut), so only an edge-cut worker has anything
    /// to skip.
    pub owned: &'a [bool],
}

/// A worker's local vertices split by role, each list ascending.
#[derive(Debug, Clone)]
struct Roles {
    masters: Vec<u32>,
    mirrors: Vec<u32>,
}

impl Roles {
    /// Two exact-size lists from the master flags.
    fn build(is_master: &[bool]) -> Self {
        let num_masters = is_master.iter().filter(|&&master| master).count();
        let mut masters = Vec::with_capacity(num_masters);
        let mut mirrors = Vec::with_capacity(is_master.len() - num_masters);
        for (local, &master) in (0u32..).zip(is_master) {
            if master {
                masters.push(local);
            } else {
                mirrors.push(local);
            }
        }
        Roles { masters, mirrors }
    }
}

/// The root of `x`'s set, halving the path on the way (each visited vertex
/// is re-pointed at its grandparent, which keeps parents below children).
#[inline]
fn find_root(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grandparent = parent[parent[x as usize] as usize];
        parent[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

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
    /// Where the isolated tail of `vertices` starts: every vertex before it
    /// touches a local edge, none from it on does.
    tail: usize,
    /// Global vertex → local index (`u32`, like the CSR targets), built by
    /// the first [`local_index_of`](Self::local_index_of) call.
    local_index: OnceLock<IdHashMap<VertexId, u32>>,
    /// The local connected components, filled by every build right after
    /// the CSRs and re-tailed with the vertex table.
    components: LocalComponents,
    is_master: Vec<bool>,
    /// `is_master` as two ascending lists, built by the first
    /// [`masters`](Self::masters) / [`mirrors`](Self::mirrors) call and
    /// dropped by a [`write_masters`](Self::write_masters) that flips a
    /// flag.
    roles: OnceLock<Roles>,
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
    /// over [`in_edges`](Self::in_edges) can skip unowned copies without
    /// going back to the edge list.
    in_owned: Vec<bool>,
    /// The row (target) of every in-CSR position, built by the first
    /// [`in_edges`](Self::in_edges) call.
    in_rows: OnceLock<Vec<u32>>,
}

impl Subgraph {
    /// Indexes one worker's edge list; see [`rebuild`](Self::rebuild).
    #[cfg(test)]
    pub(crate) fn build(
        part: PartitionId,
        edges: Vec<Edge>,
        owns_edge: Vec<bool>,
        scratch: &mut BuildScratch,
    ) -> Self {
        let mut sg = Subgraph::empty(part);
        sg.rebuild(edges, owns_edge, scratch);
        sg
    }

    /// Worker `part` before its first [`rebuild`](Self::rebuild): no
    /// vertex, no edge, nothing allocated.
    pub(crate) fn empty(part: PartitionId) -> Self {
        Subgraph {
            part,
            edges: Vec::new(),
            owns_edge: Vec::new(),
            vertices: Vec::new(),
            tail: 0,
            local_index: OnceLock::new(),
            components: LocalComponents::new(),
            is_master: Vec::new(),
            roles: OnceLock::new(),
            out_offsets: Vec::new(),
            out_targets: Vec::new(),
            in_offsets: Vec::new(),
            in_targets: Vec::new(),
            in_owned: Vec::new(),
            in_rows: OnceLock::new(),
        }
    }

    /// Re-indexes this worker from `edges`: local vertex table
    /// (first-appearance order, no isolated tail yet), both CSRs and the
    /// local components; the master flags wait for
    /// [`write_masters`](Self::write_masters). `owns_edge` is either empty
    /// (every edge owned) or one flag per edge. The arrays are refilled in
    /// place, so a rebuild allocates only where it outgrows them, to the
    /// exact size — but for the vertex table, which keeps room for an
    /// isolated tail as long as the one the worker had (the derivation
    /// that follows lists about as many) and grows by at least a quarter.
    ///
    /// Each endpoint is resolved once: one walk over the edge list numbers
    /// a vertex on first appearance, counts its out/in degree and stages
    /// the local `[src, dst]` pair; the fill reads the staged pairs and
    /// never goes back to the universe-sized array. The components follow
    /// while the out-CSR is still in cache. Everything transient lives in
    /// `scratch` (see [`BuildScratch`]).
    pub(crate) fn rebuild(
        &mut self,
        edges: Vec<Edge>,
        owns_edge: Vec<bool>,
        scratch: &mut BuildScratch,
    ) {
        debug_assert!(owns_edge.is_empty() || owns_edge.len() == edges.len());
        let old_tail = self.isolated().len();
        let owns_edge = if owns_edge.iter().all(|&owned| owned) {
            Vec::new()
        } else {
            owns_edge
        };
        debug_assert!(scratch.staged.is_empty() && scratch.vertices.is_empty());
        for e in &edges {
            let s = scratch.resolve(e.src);
            let d = scratch.resolve(e.dst);
            scratch.out_cursor[s as usize] += 1;
            scratch.in_cursor[d as usize] += 1;
            scratch.staged.push([s, d]);
        }
        debug_assert!(
            (scratch.vertices.len() as u64) < u64::from(ABSENT),
            "local vertex count fits u32"
        );
        for v in &scratch.vertices {
            scratch.local_of[v.index()] = ABSENT;
        }
        let room = scratch.vertices.len() + old_tail;
        self.vertices.clear();
        grow_to(&mut self.vertices, room);
        self.vertices.append(&mut scratch.vertices);
        self.tail = self.vertices.len();
        // CSR assembly: the degrees become offsets and, in place, the fill
        // cursors; the fill runs in local-edge order, which is the
        // per-vertex neighbour order the kernels rely on.
        offsets_from_degrees(&mut scratch.out_cursor, &mut self.out_offsets);
        offsets_from_degrees(&mut scratch.in_cursor, &mut self.in_offsets);
        for targets in [&mut self.out_targets, &mut self.in_targets] {
            targets.clear();
            resize_exact(targets, edges.len(), 0);
        }
        self.in_owned.clear();
        resize_exact(&mut self.in_owned, owns_edge.len(), true);
        for (i, &[s, d]) in scratch.staged.iter().enumerate() {
            let out_slot = &mut scratch.out_cursor[s as usize];
            self.out_targets[*out_slot as usize] = d;
            *out_slot += 1;
            let in_slot = &mut scratch.in_cursor[d as usize];
            self.in_targets[*in_slot as usize] = s;
            if owns_edge.get(i) == Some(&false) {
                self.in_owned[*in_slot as usize] = false;
            }
            *in_slot += 1;
        }
        scratch.staged.clear();
        scratch.out_cursor.clear();
        scratch.in_cursor.clear();
        let (offsets, targets) = (&self.out_offsets, &self.out_targets);
        let sizes = &mut scratch.out_cursor;
        self.components.refill(offsets, targets, room, sizes);
        self.edges = edges;
        self.owns_edge = owns_edge;
        // No isolated tail yet, and no cache over the local vertices.
        self.in_rows.take();
        self.local_index.take();
        self.roles.take();
    }

    /// A scratch for [`build`](Self::build) over the universe `0..n`, for
    /// workers of at most `max_edges` edges (a longer list still builds; it
    /// regrows the staging buffer).
    #[cfg(test)]
    pub(crate) fn build_scratch(n: usize, max_edges: usize) -> BuildScratch {
        let mut scratch = BuildScratch::default();
        scratch.cover(n, max_edges);
        scratch
    }

    /// Moves the edge list out, ahead of a rebuild that replaces `self`.
    pub(crate) fn take_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.edges)
    }

    /// The vertices some local edge touches, in local order.
    pub(crate) fn held(&self) -> &[VertexId] {
        &self.vertices[..self.tail]
    }

    /// The isolated vertices homed here, ascending: the tail of the vertex
    /// table.
    pub(crate) fn isolated(&self) -> &[VertexId] {
        &self.vertices[self.tail..]
    }

    /// Replaces the isolated tail of the vertex table by `isolated`
    /// (ascending): [`put_isolated`](Self::put_isolated) at every position,
    /// then [`end_isolated`](Self::end_isolated).
    #[cfg(test)]
    pub(crate) fn set_isolated(&mut self, isolated: impl IntoIterator<Item = VertexId>) {
        let mut len = 0;
        for (at, v) in isolated.into_iter().enumerate() {
            self.put_isolated(at, v);
            len = at + 1;
        }
        self.end_isolated(len);
    }

    /// Makes room for an isolated tail of `len` vertices, so writing it
    /// ([`put_isolated`](Self::put_isolated) up to
    /// [`end_isolated`](Self::end_isolated)) allocates at most once per
    /// array.
    pub(crate) fn reserve_isolated(&mut self, len: usize) {
        grow_to(&mut self.vertices, self.tail + len);
        self.components.reserve_tail(self.tail, len);
    }

    /// Writes `v` at position `at` of the isolated tail, which holds at
    /// least `at` vertices: a tail is rewritten front to back, each
    /// position once, and is not a valid tail again until
    /// [`end_isolated`](Self::end_isolated).
    #[inline]
    pub(crate) fn put_isolated(&mut self, at: usize, v: VertexId) {
        match self.vertices.get_mut(self.tail + at) {
            Some(slot) => *slot = v,
            None => {
                debug_assert_eq!(self.vertices.len(), self.tail + at);
                self.vertices.push(v);
            }
        }
    }

    /// Ends a tail rewrite at `len` vertices: the tail is cut there and
    /// gets empty CSR rows, and the local components list its vertices as
    /// singletons after the components of the vertices the edges touch,
    /// which keep their local indices and components. The caches over
    /// every local vertex are dropped; the master flags are stale until
    /// [`write_masters`](Self::write_masters).
    pub(crate) fn end_isolated(&mut self, len: usize) {
        self.vertices.truncate(self.tail + len);
        for offsets in [&mut self.out_offsets, &mut self.in_offsets] {
            offsets.truncate(self.tail + 1);
            resize_exact(offsets, self.vertices.len() + 1, self.edges.len() as u32);
        }
        self.components.retail(self.tail, self.vertices.len());
        self.local_index.take();
        self.roles.take();
    }

    /// Every local vertex with its local degree (out + in, so a self-loop
    /// counts twice), in local order.
    pub(crate) fn local_degrees(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let out = self.out_offsets.windows(2).map(|row| row[1] - row[0]);
        let inn = self.in_offsets.windows(2).map(|row| row[1] - row[0]);
        let degrees = out.zip(inn).map(|(out, inn)| out + inn);
        self.vertices.iter().copied().zip(degrees)
    }

    /// Writes every master flag from the elected masters: the one writer
    /// of the flags. The cached role lists are dropped only when the
    /// vertex table's length changed or a flag flipped, so a kept worker
    /// whose masters all stayed keeps them.
    pub(crate) fn write_masters(&mut self, replicas: &ReplicaTable) {
        let mut changed = self.is_master.len() != self.vertices.len();
        self.is_master.resize(self.vertices.len(), false);
        for (flag, &v) in self.is_master.iter_mut().zip(&self.vertices) {
            let master = replicas.master_of(v) == self.part;
            changed |= std::mem::replace(flag, master) != master;
        }
        if changed {
            self.roles.take();
        }
    }

    /// Whether this worker owns every local edge (always, in a vertex-cut).
    pub(crate) fn owns_every_edge(&self) -> bool {
        // Ownership flags are kept only while an unowned copy is held.
        self.owns_edge.is_empty()
    }

    /// Structural equality: same partition, edge list (content, ownership
    /// and order), local vertex table and master flags. The CSRs, the local
    /// index, the local components, the in-CSR row index and the role lists
    /// are functions of those.
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
    ///
    /// The first call builds the index (one hash insert per local vertex);
    /// later calls, and calls on a clone taken afterwards, are one probe.
    /// The engine, the routing table, snapshot commit and warm-program
    /// construction never call it — they read replica positions off the
    /// replica table ([`DistributedGraph::holders_of`]) — so a worker that
    /// is rebuilt every epoch pays for an index only if somebody asks.
    pub fn local_index_of(&self, v: VertexId) -> Option<usize> {
        let index = self.local_index.get_or_init(|| {
            let mut index =
                IdHashMap::with_capacity_and_hasher(self.vertices.len(), Default::default());
            for (local, &v) in self.vertices.iter().enumerate() {
                index.insert(v, local as u32);
            }
            index
        });
        index.get(&v).map(|&local| local as usize)
    }

    /// Whether the global → local index has been built (by a
    /// [`local_index_of`](Self::local_index_of) call on this subgraph or
    /// on the one it was cloned from).
    #[cfg(test)]
    pub(crate) fn index_is_built(&self) -> bool {
        self.local_index.get().is_some()
    }

    /// The connected components of the local edges, direction ignored
    /// (see [`LocalComponents`]).
    ///
    /// They are part of the worker, like its CSRs: every build fills them,
    /// on the lane that builds the worker, so a clone carries them, a
    /// worker an epoch keeps keeps them, and one it rebuilds describes its
    /// new edges. A new isolated tail re-tails them.
    pub fn local_components(&self) -> &LocalComponents {
        &self.components
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

    /// The in-CSR as one flat list of `(source, row)` positions with their
    /// ownership flags (see [`InEdges`]), for a pull that streams positions
    /// instead of walking rows.
    ///
    /// The sources and flags are the build's own arrays. The row of every
    /// position (one `u32` each) is built by the first call and cached: a
    /// pure function of the edge list, so a clone taken afterwards carries
    /// it, a worker an epoch keeps keeps it and a worker it rebuilds starts
    /// without.
    pub fn in_edges(&self) -> InEdges<'_> {
        let rows = self.in_rows.get_or_init(|| {
            let mut rows = Vec::with_capacity(self.in_targets.len());
            for (row, range) in (0u32..).zip(self.in_offsets.windows(2)) {
                rows.resize(range[1] as usize, row);
            }
            rows
        });
        InEdges {
            sources: &self.in_targets,
            rows,
            owned: &self.in_owned,
        }
    }

    /// The local indices of the vertices this worker masters, ascending.
    ///
    /// Built together with [`mirrors`](Self::mirrors) by the first call of
    /// either and cached; a clone taken afterwards carries both, a worker
    /// an epoch rebuilds starts without, and a worker it keeps keeps them
    /// until an epoch's election flips one of its flags.
    pub fn masters(&self) -> &[u32] {
        &self.roles().masters
    }

    /// The local indices of the vertices this worker holds as mirrors,
    /// ascending: the complement of [`masters`](Self::masters) in
    /// `0..num_vertices()`, cached with it.
    pub fn mirrors(&self) -> &[u32] {
        &self.roles().mirrors
    }

    fn roles(&self) -> &Roles {
        self.roles.get_or_init(|| Roles::build(&self.is_master))
    }
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod views;
