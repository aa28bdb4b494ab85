//! The subgraph-centric programming interface ("think like a graph").

use ebv_graph::VertexId;

use crate::exchange::{self, OutboxEntry, Shard, WorklistScratch};
use crate::routing::WorkerRoutes;
use crate::subgraph::Subgraph;

/// Where a replica message should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageTarget {
    /// Every other replica of the vertex (mirror-to-mirror broadcast).
    AllReplicas,
    /// Only the master replica of the vertex (the gather direction of a
    /// master/mirror protocol, e.g. PageRank partial sums).
    Master,
    /// Every mirror of the vertex (the scatter direction of a master/mirror
    /// protocol, e.g. broadcasting the new rank).
    Mirrors,
}

/// Per-superstep execution context handed to a [`SubgraphProgram`] for one
/// worker.
///
/// The context exposes the worker's local [`Subgraph`], the mutable local
/// vertex values, the [`mail`](Self::mail) received from other replicas at
/// the end of the previous superstep — one flat list in arrival order, not
/// a mailbox per vertex — and an outbox for messages to be delivered to the
/// other replicas of local vertices. It also accumulates the *work units*
/// (edge traversals) the program performs, which feed the deterministic cost
/// model used to reproduce the paper's execution-time figures.
#[derive(Debug)]
pub struct SubgraphContext<'a, V, M> {
    subgraph: &'a Subgraph,
    /// The worker's routes, which tell a send whether it has a destination.
    routes: &'a WorkerRoutes,
    values: &'a mut [V],
    /// This worker's row of inbound shards, one per source worker.
    mail: &'a [Shard<M>],
    /// Engine-owned outbox buffer, reused across supersteps so queueing a
    /// message performs no allocation in the steady state.
    outbox: &'a mut Vec<OutboxEntry<M>>,
    /// Engine-owned worklist scratch of this worker, reused likewise.
    scratch: &'a mut WorklistScratch,
    /// A warm run's dirty bitmap (see `WorkerMail::dirty`), which
    /// [`set_value`](Self::set_value) marks; empty in a cold run, which
    /// tracks nothing.
    dirty: &'a mut [u64],
    work: u64,
    changes: usize,
}

impl<'a, V, M> SubgraphContext<'a, V, M> {
    pub(crate) fn new(
        subgraph: &'a Subgraph,
        routes: &'a WorkerRoutes,
        values: &'a mut [V],
        mail: &'a [Shard<M>],
        outbox: &'a mut Vec<OutboxEntry<M>>,
        scratch: &'a mut WorklistScratch,
        dirty: &'a mut [u64],
    ) -> Self {
        debug_assert!(outbox.is_empty());
        SubgraphContext {
            subgraph,
            routes,
            values,
            mail,
            outbox,
            scratch,
            dirty,
            work: 0,
            changes: 0,
        }
    }

    /// The worker's local subgraph.
    ///
    /// The returned reference borrows the subgraph itself (lifetime `'a`),
    /// not the context, so kernels can hold it across mutating context
    /// calls — e.g. iterate a CSR neighbour slice while calling
    /// [`set_value`](Self::set_value).
    pub fn subgraph(&self) -> &'a Subgraph {
        self.subgraph
    }

    /// The value of the local vertex at `local_index`.
    pub fn value(&self, local_index: usize) -> &V {
        &self.values[local_index]
    }

    /// All local values, indexed by local vertex index.
    pub fn values(&self) -> &[V] {
        self.values
    }

    /// Overwrites the value of the local vertex at `local_index` and counts
    /// it as a change for convergence detection. In a warm run it also
    /// marks the vertex dirty, so extraction writes it over the prior.
    pub fn set_value(&mut self, local_index: usize, value: V) {
        self.values[local_index] = value;
        self.changes += 1;
        if let Some(word) = self.dirty.get_mut(local_index / 64) {
            *word |= 1 << (local_index % 64);
        }
    }

    /// Every message delivered to this worker during the previous
    /// communication stage, each with the local index of the vertex it is
    /// addressed to, in **arrival order**: source worker ascending, outbox
    /// order within a source. The messages of any one vertex therefore
    /// arrive in that same fixed order, whichever executor ran the
    /// senders, and a program folds them as they come (a `min`, a sum into
    /// [`WorklistScratch::sums`], the last one wins) instead of asking for
    /// a mailbox per vertex. The mail is there for this superstep only,
    /// read or not.
    ///
    /// Borrows the mail, not the context, like
    /// [`subgraph`](Self::subgraph), so the fold may call
    /// [`set_value`](Self::set_value) as it goes.
    pub fn mail(&self) -> impl Iterator<Item = (usize, &'a M)> + 'a {
        exchange::arrivals(self.mail)
    }

    /// This worker's [`WorklistScratch`], kept by the engine across
    /// supersteps. A kernel that needs the context while it works
    /// `std::mem::take`s the scratch and puts it back before returning.
    pub fn scratch(&mut self) -> &mut WorklistScratch {
        self.scratch
    }

    /// Queues a message for delivery to every *other* replica of the local
    /// vertex at `local_index` during the communication stage. A vertex
    /// with no other replica queues nothing and counts nowhere: the send
    /// has no destination.
    pub fn send_to_replicas(&mut self, local_index: usize, message: M) {
        self.send(local_index, message, MessageTarget::AllReplicas);
    }

    /// Queues a message for the *master* replica of the local vertex at
    /// `local_index`. On the master itself it queues nothing and counts
    /// nowhere: the send has no destination.
    pub fn send_to_master(&mut self, local_index: usize, message: M) {
        self.send(local_index, message, MessageTarget::Master);
    }

    /// Queues a message for every *mirror* replica of the local vertex at
    /// `local_index`. A vertex without mirrors queues nothing and counts
    /// nowhere: the send has no destination.
    pub fn send_to_mirrors(&mut self, local_index: usize, message: M) {
        self.send(local_index, message, MessageTarget::Mirrors);
    }

    /// Queues the message with the route range of its fan-out (see
    /// [`exchange::fan_out`]), and only where that range holds a route, so
    /// the scatter drains no entry into an empty fan-out.
    #[inline]
    fn send(&mut self, local_index: usize, message: M, target: MessageTarget) {
        let routes = exchange::fan_out(self.routes, self.subgraph, local_index, target);
        if !routes.is_empty() {
            self.outbox.push((routes.start, routes.end, message));
        }
    }

    /// Records `units` of computational work (typically edge traversals);
    /// used by the cost model for the comp/comm breakdown of Table II.
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Number of changes recorded so far via [`SubgraphContext::set_value`].
    pub fn changes(&self) -> usize {
        self.changes
    }

    /// Releases the context, leaving the queued messages in the
    /// engine-owned outbox; returns the work and change counters.
    pub(crate) fn finish(self) -> (u64, usize) {
        (self.work, self.changes)
    }
}

/// A subgraph-centric BSP program.
///
/// In every superstep each worker runs [`SubgraphProgram::run_superstep`]
/// on its subgraph (the computation stage: a sequential algorithm to the
/// local fixpoint — for SSSP a worklist over the vertices the last
/// exchange or the seed activated, for CC a relabel of the local
/// components whose label the mail lowered; never a sweep of every edge),
/// then the engine routes
/// the queued replica messages (the communication stage) and waits for all
/// workers (the synchronization stage). What was routed to a worker is its
/// [`mail`](SubgraphContext::mail) in the next superstep and in that one
/// only: a flat list in a fixed arrival order, which the program folds
/// itself — the engine keeps no per-vertex mailbox. The program is generic
/// over the vertex value type and the replica-message type, both
/// `'static` so that a warm run's buffers can wait in the graph for the
/// next run of the same types.
pub trait SubgraphProgram: Sync {
    /// Per-vertex state.
    ///
    /// `PartialEq` serves warm runs: a replica whose
    /// [`warm_value`](Self::warm_value) equals its prior counts as
    /// unchanged, and a run's output keeps the prior's value for a vertex
    /// whose master stays unchanged through the run (see
    /// `RunOptions::warm_seed`). Equal values must therefore be
    /// interchangeable: a type whose `==` holds between values that differ
    /// (`0.0 == -0.0`) keeps the prior's, even where its seed was the other.
    type Value: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static;
    /// Message exchanged between replicas of the same vertex.
    type Message: Clone + Send + Sync + std::fmt::Debug + 'static;

    /// The initial value of `vertex` (called once per local replica).
    fn initial_value(&self, vertex: VertexId, subgraph: &Subgraph) -> Self::Value;

    /// The value a replica of `vertex` starts from when the engine is
    /// warm-started from a previous epoch's outcome (see
    /// `RunOptions::warm_seed`): `prior` is the vertex's value in that
    /// outcome. The default carries the prior value over unchanged;
    /// incremental programs override this to reset state invalidated by
    /// the mutations (e.g. component labels of split components). Called
    /// once per local replica, with the same `prior` for every replica, so
    /// all replicas of a vertex start in agreement. A seed equal to `prior`
    /// counts as unchanged: unless the run later sets the vertex, its
    /// output is the prior, which the engine does not write again.
    fn warm_value(
        &self,
        vertex: VertexId,
        prior: &Self::Value,
        subgraph: &Subgraph,
    ) -> Self::Value {
        let _ = (vertex, subgraph);
        prior.clone()
    }

    /// Runs the sequential algorithm over one subgraph for one superstep and
    /// returns the number of local vertex updates it performed.
    fn run_superstep(
        &self,
        ctx: &mut SubgraphContext<'_, Self::Value, Self::Message>,
        superstep: usize,
    ) -> usize;

    /// Upper bound on the number of supersteps (default 10 000).
    fn max_supersteps(&self) -> usize {
        10_000
    }

    /// Whether the engine should stop as soon as a superstep produces no
    /// messages and no value changes (default `true`; fixed-iteration
    /// programs such as PageRank return `false`).
    fn halt_on_quiescence(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedGraph;
    use ebv_graph::Graph;
    use ebv_partition::{EbvPartitioner, Partitioner};

    #[test]
    fn context_tracks_values_messages_work_and_outbox() {
        let g = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        let partition = EbvPartitioner::new().partition(&g, 1).unwrap();
        let dg = DistributedGraph::build(&g, &partition).unwrap();
        let sg = dg.subgraph(ebv_partition::PartitionId::new(0));

        let mut values = vec![10u64; sg.num_vertices()];
        // Two source shards: vertex 0 hears from both workers, vertex 2
        // from the second; mail arrives shard by shard.
        let mail = [vec![(0u32, 7u64)], vec![(2, 5), (0, 9)]];
        let mut outbox = Vec::new();
        let mut scratch = WorklistScratch::default();
        let routes = &dg.routing().worker_tables()[0];
        let mut ctx: SubgraphContext<'_, u64, u64> = SubgraphContext::new(
            sg,
            routes,
            &mut values,
            &mail,
            &mut outbox,
            &mut scratch,
            &mut [],
        );

        assert_eq!(*ctx.value(0), 10);
        let arrived: Vec<(usize, u64)> = ctx.mail().map(|(local, &m)| (local, m)).collect();
        assert_eq!(arrived, vec![(0, 7), (2, 5), (0, 9)]);
        // The mail outlives a mutable use of the context.
        for (local, &message) in ctx.mail() {
            if message < *ctx.value(local) {
                ctx.set_value(local, message);
            }
        }
        assert_eq!(ctx.values(), &[7, 10, 5]);
        assert_eq!(ctx.changes(), 2);
        ctx.scratch().changed.push(2);
        ctx.set_value(1, 42);
        assert_eq!(ctx.values()[1], 42);
        assert_eq!(ctx.changes(), 3);
        ctx.add_work(5);
        // One worker holds every vertex alone: no send has a destination.
        ctx.send_to_replicas(0, 99);
        ctx.send_to_master(1, 7);
        ctx.send_to_mirrors(2, 3);

        let (work, changes) = ctx.finish();
        assert!(outbox.is_empty(), "{outbox:?}");
        assert_eq!(work, 5);
        assert_eq!(changes, 3);
        assert_eq!(scratch.changed, vec![2], "the scratch outlives the context");
    }

    /// A send queues its message only where a replica waits for it. Vertex
    /// 1 is held by both workers; 0 lives on worker 0 alone, 2 on worker 1.
    #[test]
    fn sends_queue_only_where_a_replica_waits() {
        use crate::routing::Route;
        use ebv_graph::{Edge, VertexId};
        use ebv_partition::PartitionId;

        let assigned = [((0u64, 1u64), 0u32), ((1, 2), 1), ((2, 1), 1)]
            .map(|(edge, worker)| (Edge::from(edge), PartitionId::new(worker)));
        let dg = DistributedGraph::build_streaming(2, None, assigned).unwrap();
        let master = dg.replicas().master_of(VertexId::new(1)).index();
        assert_eq!(master, 1, "worker 1 holds two of vertex 1's edges");
        for (worker, sg) in dg.subgraphs().iter().enumerate() {
            let routes = &dg.routing().worker_tables()[worker];
            let shared = sg.local_index_of(VertexId::new(1)).unwrap();
            let alone = sg.local_index_of(VertexId::new(2 * worker as u64)).unwrap();
            let mut values = vec![0u64; sg.num_vertices()];
            let (mut outbox, mut scratch) = (Vec::new(), WorklistScratch::default());
            let mut ctx: SubgraphContext<'_, u64, u64> = SubgraphContext::new(
                sg,
                routes,
                &mut values,
                &[],
                &mut outbox,
                &mut scratch,
                &mut [],
            );
            for local in [alone, shared] {
                ctx.send_to_replicas(local, 1);
                ctx.send_to_master(local, 2);
                ctx.send_to_mirrors(local, 3);
            }
            ctx.finish();
            // The shared vertex's one other replica is the master's mirror
            // and the mirror's master: each send that has it queues one
            // entry, routed there.
            let other = 1 - worker;
            let there = dg.subgraphs()[other].local_index_of(VertexId::new(1));
            let to_other = vec![Route {
                worker: other as u32,
                local: there.unwrap() as u32,
            }];
            let role_message = if worker == master { 3 } else { 2 };
            let queued: Vec<(u64, Vec<Route>)> = (outbox.iter())
                .map(|&(start, end, message)| (message, routes.slice(start..end).to_vec()))
                .collect();
            let want = vec![(1, to_other.clone()), (role_message, to_other)];
            assert_eq!(queued, want, "worker {worker}");
        }
    }
}
