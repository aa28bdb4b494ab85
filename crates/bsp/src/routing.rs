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
//! The table is **epoch-versioned** and has **one derivation**,
//! [`RoutingTable::derive_routes`]: assembly runs it on an empty table and
//! every `DistributedGraph::apply_mutations` epoch re-runs it over every
//! worker, refilling the buffers the previous epoch left, so a stale table
//! can be caught by comparing [`RoutingTable::epoch`] with the
//! distribution's epoch. It reads each replica's `(worker, local index)`
//! off the [`ReplicaTable`] — an array read, not a `local_index_of` hash
//! probe. A worker the epoch keeps keeps its recorded local indices, so
//! re-deriving its routes only picks up the new indices of the rebuilt
//! workers and the changed replica sets.
//!
//! Re-deriving everything is the faster of the two ways to do that. A
//! rebuilt worker is re-indexed from scratch (first-appearance local
//! numbering), so every route into it changes: patching the kept holders
//! instead meant a scattered re-point per such route plus a splice that
//! copied each kept worker's routes anyway. On `bench_dynamic`'s localized
//! epochs (one of eight workers touched, scale 16, a shared 2-vCPU host)
//! patching took 0.088 s for eight epochs and re-deriving takes 0.054 s
//! (medians of seven alternating runs).
//!
//! The routes are derived **in vertex order**: the universe is walked front
//! to back, so the replica table is read sequentially, a vertex with a
//! single replica — four in five on a power-law graph — costs nothing, and
//! the only scattered accesses are the route slices of the replicated rest.
//! A worker's local numbering is first-appearance order, so deriving worker
//! by worker would read the replica table at random instead.
//!
//! [`MessageTarget`]: crate::program::MessageTarget

use std::ops::Range;

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
/// `exchange::fan_out` is that rule's one implementation; a send keeps the
/// range it resolved, so the scatter reads the flat storage directly.
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
    /// Where the routes of the local vertex at `local` (all other
    /// replicas) sit in the flat storage.
    #[inline]
    pub(crate) fn range(&self, local: usize) -> Range<u32> {
        self.offsets[local]..self.offsets[local + 1]
    }

    /// The routes in `range` of the flat storage.
    #[inline]
    pub(crate) fn slice(&self, range: Range<u32>) -> &[Route] {
        &self.routes[range.start as usize..range.end as usize]
    }

    /// The routes of the local vertex at `local` (all other replicas).
    #[cfg(test)]
    pub(crate) fn all(&self, local: usize) -> &[Route] {
        self.slice(self.range(local))
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

/// The distribution-wide routing table: per-worker route slices. See the
/// module docs for the layout and the one derivation.
#[derive(Debug, Clone)]
pub(crate) struct RoutingTable {
    workers: Vec<WorkerRoutes>,
    /// Mutation epoch this table describes (kept in lockstep with
    /// `DistributedGraph::epoch`).
    epoch: usize,
}

/// Structural equality ignores the epoch: the table an epoch re-derived
/// must equal the from-scratch build of the same distribution even though
/// the two disagree on how many epochs produced it.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
    }
}

impl RoutingTable {
    /// Builds the table from scratch for the given distribution state: an
    /// empty table, then [`RoutingTable::derive_routes`].
    pub(crate) fn build(
        subgraphs: &[Subgraph],
        replicas: &ReplicaTable,
        num_vertices: usize,
        epoch: usize,
    ) -> Self {
        let mut table = RoutingTable {
            workers: vec![WorkerRoutes::default(); subgraphs.len()],
            epoch,
        };
        table.derive_routes(subgraphs, replicas, num_vertices, epoch);
        table
    }

    /// The epoch this table was built (or last re-derived) for.
    pub(crate) fn epoch(&self) -> usize {
        self.epoch
    }

    /// The per-worker route tables, indexed by worker.
    pub(crate) fn worker_tables(&self) -> &[WorkerRoutes] {
        &self.workers
    }

    /// The one route derivation, in vertex order: every worker's routes,
    /// written into the buffers the table already holds. `replicas` is
    /// derived from `subgraphs` ([`ReplicaTable::derive`]).
    ///
    /// Two walks over the universe. The first sizes the slices — a
    /// replicated vertex needs one route per *other* replica in each
    /// holder, a vertex with one replica none; after a prefix sum per
    /// worker, the second visits the replicated vertices again and writes
    /// each holder's slice in the layout [`WorkerRoutes`] documents
    /// ([`routes_from`]).
    pub(crate) fn derive_routes(
        &mut self,
        subgraphs: &[Subgraph],
        replicas: &ReplicaTable,
        num_vertices: usize,
        epoch: usize,
    ) {
        self.epoch = epoch;
        for (table, sg) in self.workers.iter_mut().zip(subgraphs) {
            table.offsets.clear();
            table.offsets.resize(sg.num_vertices() + 1, 0);
        }
        let replicated = (0..num_vertices)
            .map(VertexId::from)
            .map(|v| (v, replicas.locations(v)))
            .filter(|(_, held)| held.len() > 1);
        for (_, held) in replicated.clone() {
            let others = (held.len() - 1) as u32;
            for (worker, local) in held {
                self.workers[worker].offsets[local + 1] = others;
            }
        }
        for table in &mut self.workers {
            let mut end = 0u32;
            for slot in &mut table.offsets {
                end = end.checked_add(*slot).expect("route count fits u32");
                *slot = end;
            }
            table.routes.clear();
            table.routes.resize(end as usize, ABSENT);
        }
        for (v, held) in replicated {
            let master = replicas.master_of(v).index();
            for (worker, local) in held.clone() {
                let table = &mut self.workers[worker];
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
}

#[cfg(test)]
pub(crate) mod oracle;
