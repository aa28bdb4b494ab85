//! Precomputed message routing: the zero-allocation delivery plan of the
//! communication stage.
//!
//! The engine used to route every outgoing message by probing the replica
//! table (`replicas_of` scan) and the destination subgraph's local-index
//! hash map — per message, per superstep. The [`RoutingTable`] hoists all
//! of that work to assembly time: for every `(worker, local vertex)` it
//! stores a flat slice of [`Route`]s (destination worker + destination
//! local index), laid out so that the three [`MessageTarget`] fan-outs are
//! contiguous sub-slices, plus a per-vertex master-location array that
//! replaces the `master_of` + `local_index_of` probes of final value
//! extraction.
//!
//! The table is **epoch-versioned**: `DistributedGraph::apply_mutations`
//! updates it incrementally in lockstep with the subgraphs (rebuilding
//! routes only for rebuilt workers and batch-affected vertices), so a
//! stale table can be caught by comparing [`RoutingTable::epoch`] with the
//! distribution's epoch.
//!
//! Both [`RoutingTable::build`] and [`RoutingTable::apply_update`] derive
//! routes from arrays, not hash probes: each first lays out a transient
//! [`ReplicaLocations`] — every replica of every vertex as a
//! `(worker, local index)` pair, its per-vertex slices sized from the
//! [`ReplicaTable`]'s replica counts and filled by one pass over the
//! subgraphs' vertex tables — and reads route destinations and patch
//! targets off it.
//! A rebuilt worker is re-indexed from scratch (first-appearance local
//! numbering), so every route into it changes; what the arrays remove is
//! the `local_index_of` probe per route, not the re-index.
//!
//! The route tables are derived **in vertex order** ([`derive_routes`], the
//! one derivation both entry points share): the universe is walked front to
//! back, so the locations, the elected masters and the master-location
//! array are read sequentially, a vertex with a single replica — four in
//! five on a power-law graph — costs its master location and nothing else,
//! and the only scattered accesses are the route slices of the replicated
//! rest. A worker's local numbering is first-appearance order, so deriving
//! worker by worker would read all three arrays at random instead.
//!
//! Because the master's own slice lists every mirror, the table also
//! answers "where is every replica of `v`" ([`RoutingTable::holders`]) —
//! which is why nothing on the epoch path keeps a per-worker hash index.
//!
//! [`MessageTarget`]: crate::program::MessageTarget

use ebv_graph::VertexId;

use crate::replica::ReplicaTable;
use crate::subgraph::Subgraph;

/// One delivery destination: the worker holding the replica and the
/// replica's local index inside that worker's subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    /// Destination worker (partition index).
    pub(crate) worker: u32,
    /// Local index of the vertex inside the destination subgraph.
    pub(crate) local: u32,
}

/// Sentinel for vertices absent from every subgraph.
const ABSENT: Route = Route {
    worker: u32::MAX,
    local: u32::MAX,
};

/// The per-worker half of the routing table: for every local vertex, the
/// flat slice of routes to its *other* replicas.
///
/// Layout invariant: when this worker is **not** the vertex's master, the
/// route to the master comes first and the mirror routes follow in
/// ascending worker order; when this worker **is** the master, the slice
/// holds only mirror routes (ascending). Combined with the subgraph's
/// `is_master` flag this makes all three [`MessageTarget`] fan-outs
/// contiguous sub-slices:
///
/// * `AllReplicas` — the whole slice;
/// * `Master` — the first element (empty if this worker is the master);
/// * `Mirrors` — everything after the master route (the whole slice if
///   this worker is the master).
///
/// [`MessageTarget`]: crate::program::MessageTarget
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WorkerRoutes {
    /// Route-range offsets per local vertex (length `num_vertices + 1`).
    offsets: Vec<u32>,
    /// Flat route storage.
    routes: Vec<Route>,
}

impl WorkerRoutes {
    /// The routes of the local vertex at `local` (all other replicas).
    #[inline]
    pub(crate) fn all(&self, local: usize) -> &[Route] {
        &self.routes[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// Re-points the route to `dest_worker` (whose subgraph was rebuilt and
    /// re-indexed) at the vertex's new local index there.
    fn patch_dest(&mut self, local: usize, dest_worker: u32, dest_local: u32) {
        let range = self.offsets[local] as usize..self.offsets[local + 1] as usize;
        for route in &mut self.routes[range] {
            if route.worker == dest_worker {
                route.local = dest_local;
                return;
            }
        }
        debug_assert!(false, "no route to rebuilt worker {dest_worker}");
    }

    /// Replaces the route lists of the given locals (sorted ascending) in
    /// one linear splice pass; all other vertices keep their routes.
    fn splice(&mut self, changes: &[(usize, Vec<Route>)]) {
        debug_assert!(changes.windows(2).all(|w| w[0].0 < w[1].0));
        let n = self.offsets.len() - 1;
        let old_routes = std::mem::take(&mut self.routes);
        let old_offsets = std::mem::take(&mut self.offsets);
        let mut routes = Vec::with_capacity(old_routes.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut pending = changes.iter().peekable();
        for local in 0..n {
            match pending.peek() {
                Some((changed, replacement)) if *changed == local => {
                    routes.extend_from_slice(replacement);
                    pending.next();
                }
                _ => routes.extend_from_slice(
                    &old_routes[old_offsets[local] as usize..old_offsets[local + 1] as usize],
                ),
            }
            offsets.push(u32::try_from(routes.len()).expect("route count fits u32"));
        }
        self.routes = routes;
        self.offsets = offsets;
    }
}

/// Every replica of every vertex as a `(worker, local index)` pair, flat:
/// vertex `v`'s replicas are `replicas[offsets[v]..offsets[v + 1]]`, in
/// ascending worker order. Transient — sized from the replica table's
/// counts and filled by one pass over the subgraphs' vertex tables at the
/// top of a table build or update, so that deriving a route or a patch
/// target is an array read where it used to be a `replicas_of` pointer
/// chase plus a `local_index_of` hash probe.
struct ReplicaLocations {
    offsets: Vec<u32>,
    replicas: Vec<Route>,
}

impl ReplicaLocations {
    fn build(subgraphs: &[Subgraph], table: &ReplicaTable, num_vertices: usize) -> Self {
        let mut offsets = vec![0u32; num_vertices + 1];
        for v in 0..num_vertices {
            offsets[v + 1] = offsets[v] + table.replica_count(VertexId::from(v)) as u32;
        }
        // Workers are visited in ascending order, so each vertex's slice
        // fills in ascending worker order.
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut replicas = vec![ABSENT; offsets[num_vertices] as usize];
        for (worker, sg) in subgraphs.iter().enumerate() {
            let worker = u32::try_from(worker).expect("worker fits u32");
            for (local, &v) in sg.vertices().iter().enumerate() {
                let slot = &mut cursor[v.index()];
                replicas[*slot as usize] = Route {
                    worker,
                    local: u32::try_from(local).expect("local index fits u32"),
                };
                *slot += 1;
            }
        }
        debug_assert!(
            cursor == offsets[1..],
            "the subgraphs hold exactly the replicas the table counts"
        );
        ReplicaLocations { offsets, replicas }
    }

    /// The replicas of vertex `v`, ascending by worker.
    #[inline]
    fn of(&self, v: VertexId) -> &[Route] {
        &self.replicas[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }
}

/// The routes of a vertex as seen from `worker`, given the vertex's
/// replicas `held` (ascending by worker) and its `master`: the master's
/// replica first when `worker` is not the master, then the mirrors in
/// ascending worker order — the layout invariant, written once.
fn routes_from(worker: u32, master: u32, held: &[Route]) -> impl Iterator<Item = Route> + '_ {
    let at_master = (master != worker).then(|| {
        let at_master = held.iter().find(|replica| replica.worker == master);
        *at_master.expect("the master holds a replica")
    });
    let mirrors = held
        .iter()
        .filter(move |replica| replica.worker != worker && replica.worker != master);
    at_master.into_iter().chain(mirrors.copied())
}

/// The one route derivation, in vertex order: fresh [`WorkerRoutes`] for
/// every worker flagged in `rebuilt` and the master location of every
/// vertex mastered there; nothing of a kept worker is read or written.
///
/// Two walks over the universe. The first sizes the slices — a replicated
/// vertex needs one route per *other* replica in each rebuilt holder, a
/// vertex with one replica none — and records master locations; after a
/// prefix sum per rebuilt worker, the second visits the replicated vertices
/// again and writes each rebuilt holder's slice in the layout
/// [`WorkerRoutes`] documents ([`routes_from`]).
fn derive_routes(
    subgraphs: &[Subgraph],
    replicas: &ReplicaTable,
    locations: &ReplicaLocations,
    rebuilt: &[bool],
    workers: &mut [WorkerRoutes],
    master_location: &mut [Route],
) {
    let num_vertices = master_location.len();
    for (w, sg) in subgraphs.iter().enumerate() {
        if rebuilt[w] {
            workers[w].offsets = vec![0u32; sg.num_vertices() + 1];
        }
    }
    for (vi, at_master) in master_location.iter_mut().enumerate() {
        let v = VertexId::from(vi);
        let held = locations.of(v);
        let master = replicas.master_of(v).raw();
        for replica in held {
            if !rebuilt[replica.worker as usize] {
                continue;
            }
            if replica.worker == master {
                *at_master = *replica;
            }
            if held.len() > 1 {
                workers[replica.worker as usize].offsets[replica.local as usize + 1] =
                    (held.len() - 1) as u32;
            }
        }
    }
    for (w, table) in workers.iter_mut().enumerate() {
        if !rebuilt[w] {
            continue;
        }
        let mut end = 0u32;
        for slot in &mut table.offsets {
            end = end.checked_add(*slot).expect("route count fits u32");
            *slot = end;
        }
        table.routes = vec![ABSENT; end as usize];
    }
    for vi in 0..num_vertices {
        let v = VertexId::from(vi);
        let held = locations.of(v);
        if held.len() < 2 {
            continue;
        }
        let master = replicas.master_of(v).raw();
        for replica in held {
            if !rebuilt[replica.worker as usize] {
                continue;
            }
            let table = &mut workers[replica.worker as usize];
            let start = table.offsets[replica.local as usize] as usize;
            let slice = &mut table.routes[start..start + held.len() - 1];
            for (slot, route) in slice
                .iter_mut()
                .zip(routes_from(replica.worker, master, held))
            {
                *slot = route;
            }
        }
    }
}

/// The distribution-wide routing table: per-worker route slices plus the
/// master-location array used by final value extraction. See the module
/// docs for the layout and the incremental-maintenance contract.
#[derive(Debug, Clone)]
pub(crate) struct RoutingTable {
    workers: Vec<WorkerRoutes>,
    /// `(worker, local)` of every vertex's master replica, indexed by
    /// vertex id; [`ABSENT`] for vertices held by no subgraph.
    master_location: Vec<Route>,
    /// Mutation epoch this table describes (kept in lockstep with
    /// `DistributedGraph::epoch`).
    epoch: usize,
}

/// Structural equality ignores the epoch: an incrementally maintained
/// table must equal the from-scratch rebuild of the same distribution even
/// though the two disagree on how many epochs produced it.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers && self.master_location == other.master_location
    }
}

impl RoutingTable {
    /// Builds the table from scratch for the given distribution state.
    pub(crate) fn build(
        subgraphs: &[Subgraph],
        replicas: &ReplicaTable,
        num_vertices: usize,
        epoch: usize,
    ) -> Self {
        let locations = ReplicaLocations::build(subgraphs, replicas, num_vertices);
        let mut workers = vec![WorkerRoutes::default(); subgraphs.len()];
        let mut master_location = vec![ABSENT; num_vertices];
        derive_routes(
            subgraphs,
            replicas,
            &locations,
            &vec![true; subgraphs.len()],
            &mut workers,
            &mut master_location,
        );
        RoutingTable {
            workers,
            master_location,
            epoch,
        }
    }

    /// The epoch this table was built (or last updated) for.
    pub(crate) fn epoch(&self) -> usize {
        self.epoch
    }

    /// The per-worker route tables, indexed by worker.
    pub(crate) fn worker_tables(&self) -> &[WorkerRoutes] {
        &self.workers
    }

    /// The `(worker, local)` location of vertex `raw`'s master replica, or
    /// `None` when the vertex is absent from every subgraph (or lies past
    /// the universe).
    #[inline]
    pub(crate) fn master_location(&self, raw: usize) -> Option<(usize, usize)> {
        let route = self.master_route(raw)?;
        Some((route.worker as usize, route.local as usize))
    }

    #[inline]
    fn master_route(&self, raw: usize) -> Option<Route> {
        self.master_location
            .get(raw)
            .copied()
            .filter(|&route| route != ABSENT)
    }

    /// Every replica of vertex `raw` as `(worker, local)`: the master's,
    /// then — off the master's own route slice, which by the layout
    /// invariant is exactly the mirrors — the others in ascending worker
    /// order. Empty for a vertex no subgraph holds or one past the universe
    /// (which is what a mutation epoch's re-election finds for a vertex its
    /// batch created: the table still describes the state before it).
    pub(crate) fn holders(&self, raw: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let master = self.master_route(raw);
        let mirrors = master.map_or(&[][..], |at| {
            self.workers[at.worker as usize].all(at.local as usize)
        });
        let replicas = master.into_iter().chain(mirrors.iter().copied());
        replicas.map(|at| (at.worker as usize, at.local as usize))
    }

    /// Incrementally brings the table in line with a mutation epoch:
    /// `rebuilt` flags the workers whose subgraphs were re-assembled (their
    /// route tables rebuild wholesale and their new local indices are
    /// patched into every untouched holder), `affected` lists (ascending)
    /// the vertices whose replica set or master may have changed (their
    /// route lists are recomputed in every untouched holder and spliced
    /// in). Everything else is untouched — the incremental counterpart of
    /// [`RoutingTable::build`].
    pub(crate) fn apply_update(
        &mut self,
        subgraphs: &[Subgraph],
        replicas: &ReplicaTable,
        rebuilt: &[bool],
        affected: &[usize],
        num_vertices: usize,
        epoch: usize,
    ) {
        self.epoch = epoch;
        self.master_location.resize(num_vertices, ABSENT);
        let locations = ReplicaLocations::build(subgraphs, replicas, num_vertices);
        // Rebuilt workers get fresh route tables and fresh master locations
        // for the vertices they master.
        derive_routes(
            subgraphs,
            replicas,
            &locations,
            rebuilt,
            &mut self.workers,
            &mut self.master_location,
        );
        if rebuilt.iter().all(|&rebuilt| rebuilt) {
            // No kept worker holds a route to re-point or a slice to splice.
            return;
        }
        let mut is_affected = vec![false; num_vertices];
        for &vi in affected {
            is_affected[vi] = true;
        }

        // The vertices of a rebuilt worker moved to new local indices:
        // re-point the routes of every untouched holder. Affected vertices
        // are skipped — their route lists are recomputed from scratch below.
        for (d, sg) in subgraphs.iter().enumerate() {
            if !rebuilt[d] {
                continue;
            }
            let dest = u32::try_from(d).expect("worker fits u32");
            for (local, &v) in sg.vertices().iter().enumerate() {
                if is_affected[v.index()] {
                    continue;
                }
                let local = u32::try_from(local).expect("local index fits u32");
                for holder in locations.of(v) {
                    if !rebuilt[holder.worker as usize] {
                        self.workers[holder.worker as usize].patch_dest(
                            holder.local as usize,
                            dest,
                            local,
                        );
                    }
                }
            }
        }

        // Affected vertices: recompute the master location (a master that
        // sits in a rebuilt holder was recorded above) and the route lists
        // inside untouched holders (rebuilt holders already have theirs
        // from the wholesale rebuild).
        let mut changes: Vec<Vec<(usize, Vec<Route>)>> = vec![Vec::new(); subgraphs.len()];
        for &vi in affected {
            let v = VertexId::from(vi);
            for holder in locations.of(v) {
                let h = holder.worker as usize;
                if rebuilt[h] {
                    continue;
                }
                let master = replicas.master_of(v).raw();
                if holder.worker == master {
                    self.master_location[vi] = *holder;
                }
                let routes = routes_from(holder.worker, master, locations.of(v)).collect();
                changes[h].push((holder.local as usize, routes));
            }
        }
        for (w, mut changed) in changes.into_iter().enumerate() {
            if changed.is_empty() {
                continue;
            }
            changed.sort_unstable_by_key(|&(local, _)| local);
            self.workers[w].splice(&changed);
        }
    }
}

#[cfg(test)]
mod oracle;
