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
//! `(worker, local index)` pair, filled by one pass over the subgraphs'
//! vertex tables — and reads route destinations and patch targets off it.
//! A rebuilt worker is re-indexed from scratch (first-appearance local
//! numbering), so every route into it changes; what the arrays remove is
//! the `local_index_of` probe per route, not the re-index.
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
    /// Builds the full route set of one worker from the replica locations.
    fn build(
        worker: u32,
        sg: &Subgraph,
        replicas: &ReplicaTable,
        locations: &ReplicaLocations,
    ) -> Self {
        let mut offsets = Vec::with_capacity(sg.num_vertices() + 1);
        offsets.push(0u32);
        // One route to each *other* replica of each local vertex.
        let others = |&v: &VertexId| locations.of(v).len() - 1;
        let mut routes = Vec::with_capacity(sg.vertices().iter().map(others).sum());
        for &v in sg.vertices() {
            push_routes(worker, v, replicas, locations, &mut routes);
            offsets.push(u32::try_from(routes.len()).expect("route count fits u32"));
        }
        WorkerRoutes { offsets, routes }
    }

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
/// ascending worker order. Transient — laid out by one pass over the
/// subgraphs' vertex tables at the top of a table build or update, so that
/// deriving a route or a patch target is an array read where it used to be
/// a `replicas_of` pointer chase plus a `local_index_of` hash probe.
struct ReplicaLocations {
    offsets: Vec<u32>,
    replicas: Vec<Route>,
}

impl ReplicaLocations {
    fn build(subgraphs: &[Subgraph], num_vertices: usize) -> Self {
        let mut offsets = vec![0u32; num_vertices + 1];
        for sg in subgraphs {
            for &v in sg.vertices() {
                offsets[v.index() + 1] += 1;
            }
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
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
        ReplicaLocations { offsets, replicas }
    }

    /// The replicas of vertex `v`, ascending by worker.
    #[inline]
    fn of(&self, v: VertexId) -> &[Route] {
        &self.replicas[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }
}

/// Appends the routes of vertex `v` as seen from `worker` (master first
/// when `worker` is not the master, then mirrors in ascending worker
/// order).
fn push_routes(
    worker: u32,
    v: VertexId,
    replicas: &ReplicaTable,
    locations: &ReplicaLocations,
    out: &mut Vec<Route>,
) {
    let master = replicas.master_of(v).raw();
    let held = locations.of(v);
    if master != worker {
        let at_master = held.iter().find(|replica| replica.worker == master);
        out.push(*at_master.expect("the master holds a replica"));
    }
    out.extend(
        held.iter()
            .filter(|replica| replica.worker != worker && replica.worker != master),
    );
}

/// The one derivation of a master location: worker `worker` holds `v` at
/// `local`, which is `v`'s master location exactly when that worker is its
/// elected master. Every vertex has exactly one master replica, so offering
/// all of a vertex's (re-indexed) replicas settles its entry.
fn record_if_master(
    master_location: &mut [Route],
    replicas: &ReplicaTable,
    v: VertexId,
    worker: u32,
    local: usize,
) {
    if replicas.master_of(v).raw() == worker {
        master_location[v.index()] = Route {
            worker,
            local: u32::try_from(local).expect("local index fits u32"),
        };
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
        let locations = ReplicaLocations::build(subgraphs, num_vertices);
        let mut workers = Vec::with_capacity(subgraphs.len());
        let mut master_location = vec![ABSENT; num_vertices];
        for (d, sg) in subgraphs.iter().enumerate() {
            let d = u32::try_from(d).expect("worker fits u32");
            workers.push(WorkerRoutes::build(d, sg, replicas, &locations));
            for (local, &v) in sg.vertices().iter().enumerate() {
                record_if_master(&mut master_location, replicas, v, d, local);
            }
        }
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
    /// `None` when the vertex is absent from every subgraph.
    #[inline]
    pub(crate) fn master_location(&self, raw: usize) -> Option<(usize, usize)> {
        let route = self.master_location[raw];
        if route == ABSENT {
            None
        } else {
            Some((route.worker as usize, route.local as usize))
        }
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
        let locations = ReplicaLocations::build(subgraphs, num_vertices);
        let mut is_affected = vec![false; num_vertices];
        for &vi in affected {
            is_affected[vi] = true;
        }
        let any_kept = rebuilt.iter().any(|&rebuilt| !rebuilt);

        // Rebuilt workers get fresh route tables. Their vertices moved to
        // new local indices: refresh the master locations they host and
        // re-point the routes of every untouched holder. Affected vertices
        // are skipped — their route lists are recomputed from scratch below.
        for (d, sg) in subgraphs.iter().enumerate() {
            if !rebuilt[d] {
                continue;
            }
            let dest = u32::try_from(d).expect("worker fits u32");
            self.workers[d] = WorkerRoutes::build(dest, sg, replicas, &locations);
            for (local, &v) in sg.vertices().iter().enumerate() {
                record_if_master(&mut self.master_location, replicas, v, dest, local);
                if !any_kept || is_affected[v.index()] {
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
                let hl = holder.local as usize;
                record_if_master(&mut self.master_location, replicas, v, holder.worker, hl);
                let mut routes = Vec::new();
                push_routes(holder.worker, v, replicas, &locations, &mut routes);
                changes[h].push((hl, routes));
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
