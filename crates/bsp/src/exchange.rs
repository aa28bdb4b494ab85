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
//! One communication stage is a scatter and a transpose; nothing is copied
//! or sorted on the receiving side:
//!
//! 1. **scatter** — each source worker drains its outbox through the
//!    precomputed [`WorkerRoutes`] into its own row of destination shards
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

use std::collections::VecDeque;

use crate::program::MessageTarget;
use crate::routing::WorkerRoutes;
use crate::subgraph::Subgraph;

/// One worker's worklist scratch, owned by the engine and handed to the
/// program through
/// [`SubgraphContext::scratch`](crate::SubgraphContext::scratch), so a
/// frontier kernel allocates when its subgraph is first seen, not once per
/// superstep.
///
/// The engine never reads it. A kernel must leave it the way it found it —
/// `flags` and `sums` all zero, `queue`, `changed` and `weights` empty — by
/// clearing only the entries it touched; the capacities are what survives a
/// superstep. What the entries index is the kernel's business: local
/// vertices in the SSSP worklist kernel and in PageRank, local
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
}

/// A queued outgoing message: local vertex index, payload, fan-out.
pub(crate) type OutboxEntry<M> = (u32, M, MessageTarget);

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

/// Fans one worker's outbox out into its destination shards along the
/// precomputed routes. Returns the number of messages sent (deliveries).
pub(crate) fn scatter<M: Clone>(
    routes: &WorkerRoutes,
    subgraph: &Subgraph,
    outbox: &mut Vec<OutboxEntry<M>>,
    shards: &mut [Shard<M>],
) -> usize {
    let mut sent = 0usize;
    for (local, msg, target) in outbox.drain(..) {
        let local = local as usize;
        let all = routes.all(local);
        // Layout invariant (see `WorkerRoutes`): for a non-master replica
        // the first route points at the master, the rest at the mirrors;
        // for the master the whole slice is mirrors.
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
        }
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
        use crate::distributed::DistributedGraph;
        use ebv_graph::generators::named;
        use ebv_partition::{EbvPartitioner, Partitioner};

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
                for local in 0..sg.num_vertices() {
                    mail.outbox
                        .push((local as u32, 7, MessageTarget::AllReplicas));
                }
                let routes = &dg.routing().worker_tables()[w];
                scatter(routes, sg, &mut mail.outbox, &mut mail.outbound);
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
