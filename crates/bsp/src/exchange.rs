//! The zero-allocation message plane: the double-buffered shard matrix of
//! the partitioned exchange, whose rows are the workers' mailboxes.
//!
//! A worker's [`WorkerMail`] holds every buffer a BSP run needs to move its
//! replica messages — its outbox, its rows of the two `p × p` shard
//! matrices of the partitioned exchange and its [`WorklistScratch`] — and
//! the run reuses all of them across supersteps, so steady-state
//! supersteps perform no per-message heap allocation. The mail is part of
//! the worker's superstep job, which moves to the lane that runs it and
//! back, so the matrices are whole again between supersteps.
//!
//! A warm run reuses them across runs as well: it hands the plane back,
//! emptied, to the [`RetainedPlane`] of the graph it ran on, and the next
//! run on that graph with the same value and message types starts from
//! it. A cold run, or one that fails, keeps nothing (see
//! [`BspEngine::run_opts`](crate::BspEngine::run_opts)).
//!
//! A send resolves its fan-out when the program calls it: [`fan_out`] is
//! the one [`MessageTarget`] → route-range rule, and the send queues the
//! message with that range of the worker's [`WorkerRoutes`], or nothing at
//! all when the range is empty — a vertex with no other replica, a
//! master's message to its master, a master without mirrors. Such a send
//! has no destination, so skipping it changes no message, counter or
//! value; the outbox holds only what has one.
//!
//! One communication stage is a scatter and a transpose; nothing is copied
//! or sorted on the receiving side:
//!
//! 1. **scatter** — each source worker drains its outbox along the route
//!    ranges its sends resolved into its own row of destination shards
//!    (its `outbound[dst]`), with no shared state between workers;
//! 2. **transpose** — the two matrices swap cell for cell (a `Vec` swap, no
//!    message moves), after which worker `dst`'s `inbound` row holds
//!    everything routed to it, one shard per source worker.
//!
//! That row *is* worker `dst`'s mailbox for the next superstep: the program
//! reads it through [`SubgraphContext::mail`](crate::SubgraphContext::mail)
//! in **arrival order** — source worker ascending, outbox order within a
//! source ([`arrivals`]) — and the engine clears it once the program has
//! run, so the cost of delivery is the cost of the messages and a worker
//! that received nothing pays nothing.
//!
//! The scatter is data-parallel over workers and the arrival order is fixed
//! by the matrix layout, so the sequence of messages each vertex sees — and
//! therefore every program value and every counter in `ExecutionStats` —
//! is bit-identical whether the workers run sequentially or pooled.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::program::MessageTarget;
use crate::routing::WorkerRoutes;
use crate::subgraph::Subgraph;

/// One worker's worklist scratch, owned by the engine and handed to the
/// program through
/// [`SubgraphContext::scratch`](crate::SubgraphContext::scratch), so a
/// frontier kernel allocates when its subgraph is first seen, not once per
/// superstep.
///
/// The engine never reads it. A run starts from a fresh one or from the
/// one the last warm run on the same graph handed back (see
/// [`BspEngine::run_opts`](crate::BspEngine::run_opts)): every capacity
/// kept, `flags` and `sums` all zero but of whatever length that run left,
/// every other vector empty and `degree_work` zero. A kernel therefore
/// sizes `flags` and `sums` itself, and must leave the scratch the way it
/// found it — `flags` and `sums` all zero, `queue`, `changed` and
/// `weights` empty — by clearing only the entries it touched; the
/// capacities are what survives a superstep. `degrees` and `degree_work`
/// are the exception: a kernel fills them once per run and reads them in
/// every later superstep. What the entries index is the kernel's business:
/// local vertices in the SSSP worklist kernel and in PageRank, local
/// *components* (see [`Subgraph::local_components`]) in the CC component
/// superstep.
#[derive(Debug, Default)]
pub struct WorklistScratch {
    /// Flag bits per local vertex (per local component, in the CC
    /// superstep).
    pub flags: Vec<u8>,
    /// The first-in-first-out worklist of local vertex indices (of
    /// component ids, in the CC superstep).
    pub queue: VecDeque<u32>,
    /// Local indices of the vertices whose value changed this superstep,
    /// in discovery order.
    pub changed: Vec<u32>,
    /// One accumulator per local vertex, for folding the mail of a vertex
    /// that receives several messages (PageRank's masters sum their
    /// mirrors' partials here, and its gather sums every row's in-edges).
    pub sums: Vec<f64>,
    /// One value per local vertex, written in full and read back within a
    /// superstep, then cleared (PageRank's gather keeps each source's
    /// `rank / out_degree` here, so the pull reads one weight per edge).
    pub weights: Vec<f64>,
    /// One value per local vertex, written on a run's first superstep and
    /// kept for the rest of it (PageRank's global out-degrees in local
    /// order, so its gather reads them in sequence).
    pub degrees: Vec<f64>,
    /// A count that goes with `degrees`, written and kept the same way
    /// (PageRank's gather work, which depends on the degrees alone).
    pub degree_work: u64,
}

/// A queued outgoing message: the range of the sending worker's routes it
/// fans out along — resolved by the send, never empty — and its payload.
pub(crate) type OutboxEntry<M> = (u32, u32, M);

/// One source→destination shard of the partitioned exchange.
pub(crate) type Shard<M> = Vec<(u32, M)>;

/// The messages of one worker's row of inbound shards in arrival order —
/// source worker ascending, outbox order within a source — each with the
/// local index of the vertex it is addressed to.
pub(crate) fn arrivals<M>(row: &[Shard<M>]) -> impl Iterator<Item = (usize, &M)> {
    row.iter()
        .flatten()
        .map(|(local, message)| (*local as usize, message))
}

/// The per-vertex mailbox view the plane built every superstep before
/// programs folded their mail in arrival order: the arrivals grouped by
/// local vertex with a stable counting sort. Kept as the oracle the
/// arrival-order folds are checked against.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct GroupedMail<M> {
    /// Messages grouped by local vertex (stable within a vertex: arrival
    /// order).
    msgs: Vec<M>,
    /// Per-vertex ranges into `msgs` (length `num_vertices + 1`).
    offsets: Vec<u32>,
}

#[cfg(test)]
impl<M: Clone> GroupedMail<M> {
    /// Groups `mail` (a worker's arrivals) over `num_vertices` local
    /// vertices: histogram → prefix sums → stable placement.
    pub(crate) fn group<'m>(mail: impl Iterator<Item = (usize, &'m M)>, num_vertices: usize) -> Self
    where
        M: 'm,
    {
        let staged: Vec<(usize, &M)> = mail.collect();
        let mut offsets = vec![0u32; num_vertices + 1];
        for &(local, _) in &staged {
            offsets[local + 1] += 1;
        }
        for i in 1..=num_vertices {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut slots = vec![0usize; staged.len()];
        for (arrival, &(local, _)) in staged.iter().enumerate() {
            slots[cursor[local] as usize] = arrival;
            cursor[local] += 1;
        }
        let msgs = slots
            .iter()
            .map(|&arrival| staged[arrival].1.clone())
            .collect();
        GroupedMail { msgs, offsets }
    }

    /// The messages delivered to the vertex at `local`, in arrival order.
    pub(crate) fn messages(&self, local: usize) -> &[M] {
        &self.msgs[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

/// The routes a message from the local vertex `local` to `target` fans out
/// along, as a range of the worker's flat route storage: the one
/// [`MessageTarget`] → route-range rule. The send reads it, queues nothing
/// when it is empty and otherwise queues the range, so [`scatter`] reads
/// neither the route offsets nor the master flags again.
#[inline]
pub(crate) fn fan_out(
    routes: &WorkerRoutes,
    subgraph: &Subgraph,
    local: usize,
    target: MessageTarget,
) -> Range<u32> {
    let Range { start, end } = routes.range(local);
    // Layout invariant (see `WorkerRoutes`): for a non-master replica the
    // first route points at the master, the rest at the mirrors; for the
    // master the whole slice is mirrors.
    match target {
        MessageTarget::AllReplicas => start..end,
        MessageTarget::Master if subgraph.is_master(local) => start..start,
        MessageTarget::Master => start..start + 1,
        MessageTarget::Mirrors if subgraph.is_master(local) => start..end,
        MessageTarget::Mirrors => start + 1..end,
    }
}

/// Fans one worker's outbox out into its destination shards along the
/// route ranges its sends resolved. Returns the number of messages sent
/// (deliveries).
pub(crate) fn scatter<M: Clone>(
    routes: &WorkerRoutes,
    outbox: &mut Vec<OutboxEntry<M>>,
    shards: &mut [Shard<M>],
) -> usize {
    let mut sent = 0usize;
    for (start, end, msg) in outbox.drain(..) {
        let fan_out = routes.slice(start..end);
        debug_assert!(!fan_out.is_empty(), "a queued message has no destination");
        for route in fan_out {
            shards[route.worker as usize].push((route.local, msg.clone()));
        }
        sent += fan_out.len();
    }
    sent
}

/// An outbox entry of the send that queued every message, a destination or
/// not: local vertex index, payload, fan-out.
#[cfg(test)]
pub(crate) type UnfilteredEntry<M> = (u32, M, MessageTarget);

/// The scatter of the send that queued every message: it resolved each
/// entry's fan-out itself and skipped the empty ones. Kept as the oracle
/// the filtered send and [`scatter`] are checked against.
#[cfg(test)]
pub(crate) fn scatter_unfiltered<M: Clone>(
    routes: &WorkerRoutes,
    subgraph: &Subgraph,
    outbox: &mut Vec<UnfilteredEntry<M>>,
    shards: &mut [Shard<M>],
) -> usize {
    let mut sent = 0usize;
    for (local, msg, target) in outbox.drain(..) {
        let local = local as usize;
        let all = routes.all(local);
        let fan_out = match target {
            MessageTarget::AllReplicas => all,
            MessageTarget::Master if subgraph.is_master(local) => &[],
            MessageTarget::Master => &all[..1],
            MessageTarget::Mirrors if subgraph.is_master(local) => all,
            MessageTarget::Mirrors => &all[1..],
        };
        for route in fan_out {
            shards[route.worker as usize].push((route.local, msg.clone()));
        }
        sent += fan_out.len();
    }
    sent
}

/// One worker's buffers of the exchange, held by its superstep job.
#[derive(Debug)]
pub(crate) struct WorkerMail<M> {
    /// Filled by the computation stage, drained by the scatter phase.
    pub(crate) outbox: Vec<OutboxEntry<M>>,
    /// The worklist scratch (used only by the program).
    pub(crate) scratch: WorklistScratch,
    /// The scatter-side row: shards by destination worker.
    pub(crate) outbound: Vec<Shard<M>>,
    /// The receive-side row, shards by source worker: this worker's
    /// mailbox (see [`arrivals`]).
    pub(crate) inbound: Vec<Shard<M>>,
    /// A warm run's dirty bitmap, one bit per local vertex: set where the
    /// seed differs from the prior and by every
    /// [`set_value`](crate::SubgraphContext::set_value). Extraction writes
    /// the set bits' masters over the prior and clears each word as it
    /// goes, so it is all zero between runs. A cold run leaves it empty
    /// and tracks nothing.
    pub(crate) dirty: Vec<u64>,
}

impl<M> WorkerMail<M> {
    /// The empty buffers of one of `p` workers.
    pub(crate) fn new(p: usize) -> Self {
        let row = || (0..p).map(|_| Vec::new()).collect();
        WorkerMail {
            outbox: Vec::new(),
            scratch: WorklistScratch::default(),
            outbound: row(),
            inbound: row(),
            dirty: Vec::new(),
        }
    }

    /// Empties every buffer a finished run may have left filled, keeping
    /// its capacity, so the next run starts as if from [`new`](Self::new).
    /// `flags` and `sums` keep their length: the kernels return them all
    /// zero, which is all a kernel asks of them. So does `dirty`, which the
    /// run's extraction cleared.
    pub(crate) fn empty(&mut self) {
        self.outbox.clear();
        self.outbound.iter_mut().for_each(Vec::clear);
        self.inbound.iter_mut().for_each(Vec::clear);
        let scratch = &mut self.scratch;
        debug_assert!(scratch.flags.iter().all(|&flags| flags == 0));
        debug_assert!(scratch.sums.iter().all(|&sum| sum == 0.0));
        debug_assert!(self.dirty.iter().all(|&word| word == 0));
        scratch.queue.clear();
        scratch.changed.clear();
        scratch.weights.clear();
        scratch.degrees.clear();
        scratch.degree_work = 0;
    }
}

/// The message plane of a run: each worker's mail and value vector.
pub(crate) type Plane<M, V> = (Vec<WorkerMail<M>>, Vec<Vec<V>>);

/// The plane a graph's last warm run handed back, for the next run on the
/// same graph to start from: its buffers are emptied but keep their
/// capacity, so that run regrows nothing it needed before. Held by the
/// [`DistributedGraph`](crate::DistributedGraph) between runs, which is
/// what it costs: one warm run's buffers at their high-water capacity
/// until a later run takes them.
///
/// It is working memory, not state: a clone starts empty, and neither
/// `same_structure` nor `Debug` looks at it.
#[derive(Default)]
pub(crate) struct RetainedPlane {
    /// A [`Plane`] of whichever types its run had.
    slot: Mutex<Option<Box<dyn Any + Send>>>,
}

impl RetainedPlane {
    /// Takes what the slot holds, leaving it empty, and returns it if it
    /// is a plane of these types over `p` workers.
    pub(crate) fn take<M: Send + 'static, V: Send + 'static>(
        &self,
        p: usize,
    ) -> Option<Plane<M, V>> {
        let held = self.lock().take()?;
        let plane = *held.downcast::<Plane<M, V>>().ok()?;
        (plane.0.len() == p && plane.1.len() == p).then_some(plane)
    }

    /// Puts `plane` in the slot, in place of whatever it holds.
    pub(crate) fn put<M: Send + 'static, V: Send + 'static>(&self, plane: Plane<M, V>) {
        *self.lock() = Some(Box::new(plane));
    }

    /// Nothing panics while the lock is held, but a poisoned slot holds a
    /// whole plane or none anyway.
    fn lock(&self) -> MutexGuard<'_, Option<Box<dyn Any + Send>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A clone runs on fresh buffers: its first run requests exactly the bytes
/// the original's first run did.
impl Clone for RetainedPlane {
    fn clone(&self) -> Self {
        RetainedPlane::default()
    }
}

impl std::fmt::Debug for RetainedPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetainedPlane").finish_non_exhaustive()
    }
}

/// A bare plane of mails, as this module's tests transpose it.
#[cfg(test)]
impl<M> AsMut<WorkerMail<M>> for WorkerMail<M> {
    fn as_mut(&mut self) -> &mut WorkerMail<M> {
        self
    }
}

/// Hands the filled scatter shards of every worker to the receiving side
/// (and the cleared mailbox shards back for reuse) by swapping
/// `outbound[dst]` of worker `src` with `inbound[src]` of worker `dst` —
/// `Vec` moves only, no message is copied — and writes the per-destination
/// delivery counts into `received` (resized to `p`), folding the counting
/// pass into the same matrix walk so steady-state supersteps allocate
/// nothing for it.
pub(crate) fn transpose_into<M, W: AsMut<WorkerMail<M>>>(
    workers: &mut [W],
    received: &mut Vec<usize>,
) {
    received.clear();
    received.resize(workers.len(), 0);
    for src in 0..workers.len() {
        for (dst, count) in received.iter_mut().enumerate() {
            let sent = std::mem::take(&mut workers[src].as_mut().outbound[dst]);
            let inbound = &mut workers[dst].as_mut().inbound[src];
            let drained = std::mem::replace(inbound, sent);
            *count += inbound.len();
            workers[src].as_mut().outbound[dst] = drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedGraph;
    use crate::program::SubgraphContext;
    use crate::routing::Route;
    use ebv_graph::generators::{GraphGenerator, GridGenerator, RmatGenerator};
    use ebv_graph::{Graph, GraphBuilder};
    use ebv_partition::{paper_partitioners, EbvPartitioner, Partitioner};
    use proptest::prelude::*;

    /// A graph of `kind`: R-MAT (parallel edges, isolated vertices), a grid
    /// with holes, or a small multigraph of self-loops and parallel edges.
    fn sample_graph(kind: usize, seed: u64) -> Graph {
        match kind {
            0 => RmatGenerator::new(7, 5).with_seed(seed).generate().unwrap(),
            1 => GridGenerator::new(6 + seed as usize % 5, 9)
                .with_deletion_probability(0.1)
                .with_seed(seed)
                .generate()
                .unwrap(),
            _ => {
                let mut builder = GraphBuilder::directed();
                builder.allow_self_loops(true);
                let mut x = seed | 1;
                for _ in 0..120 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let (src, dst) = ((x >> 33) % 24, (x >> 45) % 24);
                    // Every fifth draw doubles its edge, every seventh loops.
                    builder.add_edge_ids(src, if x.is_multiple_of(7) { src } else { dst });
                    if x.is_multiple_of(5) {
                        builder.add_edge_ids(src, dst);
                    }
                }
                builder.build().unwrap()
            }
        }
    }

    const TARGETS: [MessageTarget; 3] = [
        MessageTarget::AllReplicas,
        MessageTarget::Master,
        MessageTarget::Mirrors,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(9))]

        /// Every local vertex of every worker sends to each target once:
        /// what the filtered sends queue, `scatter` delivers shard for
        /// shard and counts as the unfiltered send and its scatter did,
        /// and only the sends with no destination are missing from the
        /// outbox.
        #[test]
        fn filtered_sends_deliver_what_the_unfiltered_send_did(
            kind in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let graph = sample_graph(kind, seed);
            for partitioner in paper_partitioners() {
                for p in [1usize, 2, 3, 8] {
                    let partition = partitioner.partition(&graph, p).unwrap();
                    let dg = DistributedGraph::build(&graph, &partition).unwrap();
                    for (w, sg) in dg.subgraphs().iter().enumerate() {
                        let at = format!("{} p={p} worker {w}, kind {kind} seed {seed}", partitioner.name());
                        let routes = &dg.routing().worker_tables()[w];
                        let (mut unfiltered, mut filtered) = (Vec::new(), Vec::new());
                        let mut values = vec![0u64; sg.num_vertices()];
                        let mut scratch = WorklistScratch::default();
                        let mut ctx = SubgraphContext::new(
                            sg, routes, &mut values, &[], &mut filtered, &mut scratch, &mut [],
                        );
                        for local in 0..sg.num_vertices() {
                            for (i, target) in TARGETS.into_iter().enumerate() {
                                let message = 3 * local as u64 + i as u64;
                                unfiltered.push((local as u32, message, target));
                                match target {
                                    MessageTarget::AllReplicas => ctx.send_to_replicas(local, message),
                                    MessageTarget::Master => ctx.send_to_master(local, message),
                                    MessageTarget::Mirrors => ctx.send_to_mirrors(local, message),
                                }
                            }
                        }
                        ctx.finish();
                        // The entries the unfiltered send queued for nothing.
                        let silent = unfiltered
                            .iter()
                            .filter(|&&(local, _, target)| {
                                let mut shards = vec![Vec::new(); p];
                                scatter_unfiltered(routes, sg, &mut vec![(local, 0, target)], &mut shards) == 0
                            })
                            .count();
                        prop_assert_eq!(filtered.len() + silent, unfiltered.len(), "{}", at);
                        let (mut want, mut got) = (vec![Vec::new(); p], vec![Vec::new(); p]);
                        let want_sent = scatter_unfiltered(routes, sg, &mut unfiltered, &mut want);
                        let got_sent = scatter(routes, &mut filtered, &mut got);
                        prop_assert_eq!(got_sent, want_sent, "{}", at);
                        prop_assert_eq!(got, want, "{}", at);
                    }
                }
            }
        }
    }

    /// PageRank's apply superstep sends every master's new rank to its
    /// mirrors, and its gather every mirror's partial to the master. On a
    /// power-law graph most masters have no mirror: the apply queues one
    /// entry per master that has one and nothing for the rest, the gather
    /// one entry per mirror.
    #[test]
    fn an_apply_superstep_queues_one_entry_per_master_with_a_mirror() {
        let graph = RmatGenerator::new(10, 8).with_seed(7).generate().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 8).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let (mut masters, mut mirrored_masters) = (0, 0);
        for (w, sg) in dg.subgraphs().iter().enumerate() {
            let routes = &dg.routing().worker_tables()[w];
            let mut values = vec![0.0f64; sg.num_vertices()];
            let (mut outbox, mut scratch) = (Vec::new(), WorklistScratch::default());
            let mut ctx = SubgraphContext::new(
                sg,
                routes,
                &mut values,
                &[],
                &mut outbox,
                &mut scratch,
                &mut [],
            );
            for &master in sg.masters() {
                ctx.send_to_mirrors(master as usize, 0.5);
            }
            ctx.finish();
            let queued = |outbox: &[OutboxEntry<f64>]| -> Vec<Vec<Route>> {
                let ranges = outbox.iter().map(|&(start, end, _)| start..end);
                ranges.map(|range| routes.slice(range).to_vec()).collect()
            };
            // One entry per master with a mirror, routed to all of them.
            let mirrored = (sg.masters().iter())
                .filter(|&&master| dg.replicas().replica_count(sg.vertex_at(master as usize)) > 1);
            let apply: Vec<Vec<Route>> =
                mirrored.map(|&m| routes.all(m as usize).to_vec()).collect();
            assert_eq!(queued(&outbox), apply, "worker {w}");
            masters += sg.masters().len();
            mirrored_masters += apply.len();

            outbox.clear();
            let mut ctx = SubgraphContext::new(
                sg,
                routes,
                &mut values,
                &[],
                &mut outbox,
                &mut scratch,
                &mut [],
            );
            for &mirror in sg.mirrors() {
                ctx.send_to_master(mirror as usize, 0.5);
            }
            ctx.finish();
            // One entry per mirror, routed to its master (the first route).
            let gather = sg
                .mirrors()
                .iter()
                .map(|&m| routes.all(m as usize)[..1].to_vec());
            assert_eq!(queued(&outbox), gather.collect::<Vec<_>>(), "worker {w}");
        }
        assert_eq!(masters, dg.num_vertices());
        assert!(
            2 * mirrored_masters < masters,
            "{mirrored_masters} of {masters} masters have a mirror"
        );
    }

    #[test]
    fn fill_counting_sort_is_stable_and_grouped() {
        // Two source shards; vertex 1 receives from both sources and must
        // see source 0's messages (in order) before source 1's.
        let row = vec![
            vec![(1u32, 10u64), (0, 20), (1, 11)],
            vec![(2, 30), (1, 12)],
        ];
        let arrived: Vec<(usize, u64)> = arrivals(&row).map(|(local, &m)| (local, m)).collect();
        assert_eq!(
            arrived,
            vec![(1, 10), (0, 20), (1, 11), (2, 30), (1, 12)],
            "arrival order"
        );
        let grouped = GroupedMail::group(arrivals(&row), 3);
        assert_eq!(grouped.messages(0), &[20]);
        assert_eq!(grouped.messages(1), &[10, 11, 12]);
        assert_eq!(grouped.messages(2), &[30]);

        // An empty row leaves every mailbox empty.
        let row: Vec<Shard<u64>> = vec![Vec::new(), Vec::new()];
        assert_eq!(arrivals(&row).count(), 0);
        let grouped = GroupedMail::group(arrivals(&row), 3);
        for local in 0..3 {
            assert_eq!(grouped.messages(local), &[] as &[u64]);
        }
    }

    /// The zero-allocation guarantee: supersteps that move the same
    /// messages reuse every buffer — no capacity changes, no reallocation —
    /// once each side of the double-buffered matrix has been sized (a cell
    /// alternates between the two sides, so that takes two supersteps).
    #[test]
    fn steady_state_refills_do_not_reallocate() {
        use ebv_graph::generators::named;

        let graph = named::small_social_graph();
        let partition = EbvPartitioner::new().partition(&graph, 3).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let p = dg.num_workers();
        let mut plane: Vec<WorkerMail<u64>> = (0..p).map(|_| WorkerMail::new(p)).collect();
        let mut received = Vec::new();

        // What `run_worker` does to the plane, for a program that sends
        // every local value to the other replicas every superstep.
        let mut superstep = |plane: &mut Vec<WorkerMail<u64>>| {
            for (w, sg) in dg.subgraphs().iter().enumerate() {
                let mail = &mut plane[w];
                let read = arrivals(&mail.inbound).count();
                mail.inbound.iter_mut().for_each(Vec::clear);
                let routes = &dg.routing().worker_tables()[w];
                for local in 0..sg.num_vertices() {
                    let range = fan_out(routes, sg, local, MessageTarget::AllReplicas);
                    if !range.is_empty() {
                        mail.outbox.push((range.start, range.end, 7));
                    }
                }
                scatter(routes, &mut mail.outbox, &mut mail.outbound);
                assert!(mail.outbox.is_empty(), "scatter drains the outbox");
                assert_eq!(read, received.get(w).copied().unwrap_or(0));
            }
            transpose_into(plane, &mut received);
            received.iter().sum::<usize>()
        };
        // Pointer and capacity of every buffer a superstep writes to.
        let buffers = |plane: &Vec<WorkerMail<u64>>| -> Vec<(usize, usize)> {
            let mails = plane.iter();
            let shards = mails
                .clone()
                .flat_map(|mail| mail.outbound.iter().chain(&mail.inbound));
            shards
                .map(|shard| (shard.as_ptr() as usize, shard.capacity()))
                .chain(mails.map(|mail| (mail.outbox.as_ptr() as usize, mail.outbox.capacity())))
                .collect()
        };

        let delivered = superstep(&mut plane);
        assert!(delivered > 0, "the partition replicates no vertex");
        assert_eq!(superstep(&mut plane), delivered);
        let sized = buffers(&plane);
        for step in 2..8 {
            assert_eq!(superstep(&mut plane), delivered);
            // Two transposes bring every cell back to where it was.
            if step % 2 == 1 {
                assert_eq!(buffers(&plane), sized, "a buffer moved or grew");
            }
        }
    }

    #[test]
    fn transpose_swaps_rows_for_columns_and_counts_deliveries() {
        let mut plane: Vec<WorkerMail<u64>> = (0..2).map(|_| WorkerMail::new(2)).collect();
        plane[0].outbound[1].push((0, 7));
        plane[1].outbound[0].push((0, 8));
        plane[1].outbound[0].push((0, 9));
        let mut received = Vec::new();
        transpose_into(&mut plane, &mut received);
        assert_eq!(plane[1].inbound[0], vec![(0, 7)]);
        assert_eq!(plane[0].inbound[1], vec![(0, 8), (0, 9)]);
        assert!(plane[0].outbound[1].is_empty());
        // The delivery counts fall out of the same pass: worker 0 received
        // two messages (from worker 1), worker 1 received one.
        assert_eq!(received, vec![2, 1]);
        // Swapping back restores the (drained) buffers for reuse and
        // recounts from scratch into the reused buffer.
        transpose_into(&mut plane, &mut received);
        assert_eq!(plane[0].outbound[1], vec![(0, 7)]);
        assert_eq!(received, vec![0, 0]);
    }
}
