//! Precomputed message routing: the zero-allocation delivery plan of the
//! communication stage.
//!
//! The engine used to route every outgoing message by probing the replica
//! table (`replicas_of` scan) and the destination subgraph's local-index
//! hash map — per message, per superstep. The [`RoutingTable`] hoists all
//! of that work to assembly time: for every `(worker, local vertex)` it
//! stores a flat slice of [`Route`]s (destination worker + destination
//! local index), laid out so that the three [`MessageTarget`] fan-outs are
//! contiguous sub-slices.
//!
//! The table is **epoch-versioned**: `DistributedGraph::apply_mutations`
//! updates it incrementally in lockstep with the subgraphs (rebuilding
//! routes only for rebuilt workers and batch-affected vertices), so a
//! stale table can be caught by comparing [`RoutingTable::epoch`] with the
//! distribution's epoch.
//!
//! Both [`RoutingTable::build`] and [`RoutingTable::apply_update`] read
//! route destinations and patch targets off the [`ReplicaTable`], which
//! records every replica's `(worker, local index)` — an array read, not a
//! `local_index_of` hash probe. A rebuilt worker is re-indexed from scratch
//! (first-appearance local numbering), so every route into it changes;
//! what the table's locations remove is the probe per route, not the
//! re-index.
//!
//! The route tables are derived **in vertex order** ([`derive_routes`], the
//! one derivation both entry points share): the universe is walked front to
//! back, so the replica table is read sequentially, a vertex with a single
//! replica — four in five on a power-law graph — costs nothing, and the
//! only scattered accesses are the route slices of the replicated rest. A
//! worker's local numbering is first-appearance order, so deriving worker
//! by worker would read the replica table at random instead.
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

/// Placeholder of a route slot the derivation has yet to write.
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

/// The routes of a vertex as seen from `worker`, given the vertex's
/// replicas `held` as `(worker, local)` ascending by worker and its
/// `master`: the master's replica first when `worker` is not the master,
/// then the mirrors in ascending worker order — the layout invariant,
/// written once.
fn routes_from<I>(worker: usize, master: usize, held: I) -> impl Iterator<Item = Route>
where
    I: Iterator<Item = (usize, usize)> + Clone,
{
    let at_master = (master != worker).then(|| {
        let at_master = held.clone().find(|&(holder, _)| holder == master);
        at_master.expect("the master holds a replica")
    });
    let mirrors = held.filter(move |&(holder, _)| holder != worker && holder != master);
    at_master
        .into_iter()
        .chain(mirrors)
        .map(|(worker, local)| Route {
            worker: worker as u32,
            local: local as u32,
        })
}

/// The one route derivation, in vertex order: fresh [`WorkerRoutes`] for
/// every worker flagged in `rebuilt`; nothing of a kept worker is read or
/// written.
///
/// Two walks over the universe. The first sizes the slices — a replicated
/// vertex needs one route per *other* replica in each rebuilt holder, a
/// vertex with one replica none; after a prefix sum per rebuilt worker, the
/// second visits the replicated vertices again and writes each rebuilt
/// holder's slice in the layout [`WorkerRoutes`] documents
/// ([`routes_from`]).
fn derive_routes(
    subgraphs: &[Subgraph],
    replicas: &ReplicaTable,
    num_vertices: usize,
    rebuilt: &[bool],
    workers: &mut [WorkerRoutes],
) {
    for (w, sg) in subgraphs.iter().enumerate() {
        if rebuilt[w] {
            workers[w].offsets = vec![0u32; sg.num_vertices() + 1];
        }
    }
    let replicated = (0..num_vertices)
        .map(VertexId::from)
        .map(|v| (v, replicas.locations(v)))
        .filter(|(_, held)| held.len() > 1);
    for (_, held) in replicated.clone() {
        let others = (held.len() - 1) as u32;
        for (worker, local) in held.filter(|&(worker, _)| rebuilt[worker]) {
            workers[worker].offsets[local + 1] = others;
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
    for (v, held) in replicated {
        let master = replicas.master_of(v).index();
        for (worker, local) in held.clone().filter(|&(worker, _)| rebuilt[worker]) {
            let table = &mut workers[worker];
            let start = table.offsets[local] as usize;
            let slice = &mut table.routes[start..start + held.len() - 1];
            for (slot, route) in slice
                .iter_mut()
                .zip(routes_from(worker, master, held.clone()))
            {
                *slot = route;
            }
        }
    }
}

/// The distribution-wide routing table: per-worker route slices. See the
/// module docs for the layout and the incremental-maintenance contract.
#[derive(Debug, Clone)]
pub(crate) struct RoutingTable {
    workers: Vec<WorkerRoutes>,
    /// Mutation epoch this table describes (kept in lockstep with
    /// `DistributedGraph::epoch`).
    epoch: usize,
}

/// Structural equality ignores the epoch: an incrementally maintained
/// table must equal the from-scratch rebuild of the same distribution even
/// though the two disagree on how many epochs produced it.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
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
        let mut workers = vec![WorkerRoutes::default(); subgraphs.len()];
        let rebuilt = vec![true; subgraphs.len()];
        derive_routes(subgraphs, replicas, num_vertices, &rebuilt, &mut workers);
        RoutingTable { workers, epoch }
    }

    /// The epoch this table was built (or last updated) for.
    pub(crate) fn epoch(&self) -> usize {
        self.epoch
    }

    /// The per-worker route tables, indexed by worker.
    pub(crate) fn worker_tables(&self) -> &[WorkerRoutes] {
        &self.workers
    }

    /// Incrementally brings the table in line with a mutation epoch:
    /// `rebuilt` flags the workers whose subgraphs were re-assembled (their
    /// route tables rebuild wholesale and their new local indices are
    /// patched into every untouched holder), `affected` lists (ascending)
    /// the vertices whose replica set or master may have changed (their
    /// route lists are recomputed in every untouched holder and spliced
    /// in). Everything else is untouched — the incremental counterpart of
    /// [`RoutingTable::build`]. `replicas` has the rebuilt workers placed
    /// already ([`ReplicaTable::place`]).
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
        // Rebuilt workers get fresh route tables.
        derive_routes(
            subgraphs,
            replicas,
            num_vertices,
            rebuilt,
            &mut self.workers,
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
            for (local, &v) in (0u32..).zip(sg.vertices()) {
                if is_affected[v.index()] {
                    continue;
                }
                for (holder, at) in replicas.locations(v) {
                    if !rebuilt[holder] {
                        self.workers[holder].patch_dest(at, dest, local);
                    }
                }
            }
        }

        // Affected vertices: recompute the route lists inside untouched
        // holders (rebuilt holders already have theirs from the wholesale
        // rebuild).
        let mut changes: Vec<Vec<(usize, Vec<Route>)>> = vec![Vec::new(); subgraphs.len()];
        for v in affected.iter().copied().map(VertexId::from) {
            let master = replicas.master_of(v).index();
            let held = replicas.locations(v);
            for (holder, at) in held.clone().filter(|&(holder, _)| !rebuilt[holder]) {
                let routes = routes_from(holder, master, held.clone()).collect();
                changes[holder].push((at, routes));
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
