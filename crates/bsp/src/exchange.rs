//! The zero-allocation message plane: double-buffered flat mailboxes and
//! the two-phase partitioned exchange of the communication stage.
//!
//! A [`MessagePlane`] owns every buffer a BSP run needs to move replica
//! messages — per-worker outboxes, the `p × p` shard matrix of the
//! partitioned exchange, and per-worker flat inboxes — plus each worker's
//! [`WorklistScratch`], and reuses all of them across supersteps, so
//! steady-state supersteps perform no per-message heap allocation.
//!
//! One communication stage is two phases with a transpose in between:
//!
//! 1. **scatter** — each source worker drains its outbox through the
//!    precomputed [`WorkerRoutes`] into its own row of destination shards
//!    (`out_shards[src][dst]`), with no shared state between workers;
//! 2. **gather** — after the shard matrix is transposed (a `Vec` swap, no
//!    message moves), each destination worker merges its inbound shards in
//!    ascending source-worker order and counting-sorts them into a flat
//!    per-vertex mailbox (`msgs` + `offsets`).
//!
//! Both phases are data-parallel over workers and, because the merge order
//! is fixed (source worker ascending, outbox order within a source), the
//! per-vertex message sequences — and therefore every program value and
//! every counter in `ExecutionStats` — are bit-identical whether the
//! phases run sequentially or threaded.

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
/// `flags` all zero, `queue` and `changed` empty — by clearing only the
/// entries it touched; the capacities are what survives a superstep.
#[derive(Debug, Default)]
pub struct WorklistScratch {
    /// Flag bits per local vertex.
    pub flags: Vec<u8>,
    /// The first-in-first-out worklist of local vertex indices.
    pub queue: VecDeque<u32>,
    /// Local indices of the vertices whose value changed this superstep,
    /// in discovery order.
    pub changed: Vec<u32>,
}

/// A queued outgoing message: local vertex index, payload, fan-out.
pub(crate) type OutboxEntry<M> = (u32, M, MessageTarget);

/// One source→destination shard of the partitioned exchange.
type Shard<M> = Vec<(u32, M)>;

/// One worker's inbox: messages grouped by local vertex index in a flat
/// buffer, plus the counting-sort scratch that keeps refills
/// allocation-free.
#[derive(Debug)]
pub(crate) struct Inbox<M> {
    /// Messages grouped by local vertex (stable within a vertex: source
    /// worker ascending, outbox order within a source).
    msgs: Vec<M>,
    /// Per-vertex ranges into `msgs` (length `num_vertices + 1`). Doubles
    /// as the counting-sort histogram while refilling.
    offsets: Vec<u32>,
    /// Arrival-order scratch: local indices and payloads.
    staging_local: Vec<u32>,
    staging_msgs: Vec<M>,
    /// Arrival index of each sorted slot.
    slots: Vec<u32>,
    /// Per-vertex placement cursors.
    cursor: Vec<u32>,
}

/// Read-only view of one worker's inbox for the duration of a superstep.
#[derive(Debug)]
pub(crate) struct InboxView<'a, M> {
    pub(crate) msgs: &'a [M],
    pub(crate) offsets: &'a [u32],
    /// Local index of every message in arrival order (a vertex that
    /// received `k` messages appears `k` times).
    pub(crate) receivers: &'a [u32],
}

// Manual impls: `#[derive(Clone, Copy)]` would bound `M`.
impl<M> Clone for InboxView<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for InboxView<'_, M> {}

impl<M> InboxView<'_, M> {
    /// The messages delivered to the vertex at `local`.
    #[inline]
    pub(crate) fn messages(&self, local: usize) -> &[M] {
        &self.msgs[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl<M> Inbox<M> {
    fn new(num_vertices: usize) -> Self {
        Inbox {
            msgs: Vec::new(),
            offsets: vec![0; num_vertices + 1],
            staging_local: Vec::new(),
            staging_msgs: Vec::new(),
            slots: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// The read view handed to the computation stage.
    pub(crate) fn view(&self) -> InboxView<'_, M> {
        InboxView {
            msgs: &self.msgs,
            offsets: &self.offsets,
            receivers: &self.staging_local,
        }
    }

    /// Replaces the inbox contents with the inbound shards, merged in
    /// ascending source-worker order and grouped by local vertex with a
    /// stable counting sort. Returns the number of messages received.
    pub(crate) fn fill(&mut self, inbound: &mut [Shard<M>]) -> usize
    where
        M: Clone,
    {
        let Inbox {
            msgs,
            offsets,
            staging_local,
            staging_msgs,
            slots,
            cursor,
        } = self;
        let n = offsets.len() - 1;

        // Merge the shards in source order into arrival-order staging.
        staging_local.clear();
        staging_msgs.clear();
        for shard in inbound.iter_mut() {
            for (local, msg) in shard.drain(..) {
                staging_local.push(local);
                staging_msgs.push(msg);
            }
        }
        let total = staging_msgs.len();

        // Histogram → prefix sums (offsets) → stable placement permutation.
        offsets.fill(0);
        for &local in staging_local.iter() {
            offsets[local as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        slots.clear();
        slots.resize(total, 0);
        for (arrival, &local) in staging_local.iter().enumerate() {
            let slot = &mut cursor[local as usize];
            slots[*slot as usize] = u32::try_from(arrival).expect("arrival index fits u32");
            *slot += 1;
        }
        msgs.clear();
        msgs.extend(
            slots
                .iter()
                .map(|&arrival| staging_msgs[arrival as usize].clone()),
        );
        total
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

/// All the communication-stage buffers of one run, reused across
/// supersteps.
#[derive(Debug)]
pub(crate) struct MessagePlane<M> {
    /// Per-worker flat inboxes.
    pub(crate) inboxes: Vec<Inbox<M>>,
    /// Per-worker outbox buffers (filled by the computation stage, drained
    /// by the scatter phase).
    pub(crate) outboxes: Vec<Vec<OutboxEntry<M>>>,
    /// Per-worker worklist scratch (used only by the program).
    pub(crate) scratch: Vec<WorklistScratch>,
    /// Scatter-side shards, indexed `[source][destination]`.
    pub(crate) out_shards: Vec<Vec<Shard<M>>>,
    /// Gather-side shards, indexed `[destination][source]`.
    pub(crate) in_shards: Vec<Vec<Shard<M>>>,
}

impl<M> MessagePlane<M> {
    /// Creates the plane for `p` workers with the given per-worker vertex
    /// counts.
    pub(crate) fn new(vertices_per_worker: impl ExactSizeIterator<Item = usize>) -> Self {
        let p = vertices_per_worker.len();
        MessagePlane {
            inboxes: vertices_per_worker.map(Inbox::new).collect(),
            outboxes: (0..p).map(|_| Vec::new()).collect(),
            scratch: (0..p).map(|_| WorklistScratch::default()).collect(),
            out_shards: (0..p)
                .map(|_| (0..p).map(|_| Vec::new()).collect())
                .collect(),
            in_shards: (0..p)
                .map(|_| (0..p).map(|_| Vec::new()).collect())
                .collect(),
        }
    }

    /// Hands the filled scatter shards to the gather side (and the drained
    /// gather shards back for reuse) by swapping the two matrices — `Vec`
    /// moves only, no message is copied — and writes the per-destination
    /// delivery counts into `received` (resized to `p`), folding the
    /// counting pass into the same matrix walk so steady-state supersteps
    /// allocate nothing for it.
    pub(crate) fn transpose_into(&mut self, received: &mut Vec<usize>) {
        let p = self.out_shards.len();
        received.clear();
        received.resize(p, 0);
        for src in 0..p {
            for (dst, count) in received.iter_mut().enumerate() {
                std::mem::swap(
                    &mut self.out_shards[src][dst],
                    &mut self.in_shards[dst][src],
                );
                *count += self.in_shards[dst][src].len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_counting_sort_is_stable_and_grouped() {
        let mut inbox: Inbox<u64> = Inbox::new(3);
        // Two source shards; vertex 1 receives from both sources and must
        // see source 0's messages (in order) before source 1's.
        let mut shards = vec![
            vec![(1u32, 10u64), (0, 20), (1, 11)],
            vec![(2, 30), (1, 12)],
        ];
        let received = inbox.fill(&mut shards);
        assert_eq!(received, 5);
        let view = inbox.view();
        assert_eq!(view.messages(0), &[20]);
        assert_eq!(view.messages(1), &[10, 11, 12]);
        assert_eq!(view.messages(2), &[30]);
        assert_eq!(view.receivers, &[1, 0, 1, 2, 1], "arrival order");
        assert!(shards.iter().all(|s| s.is_empty()), "shards are drained");

        // An empty refill leaves every mailbox empty.
        let received = inbox.fill(&mut shards);
        assert_eq!(received, 0);
        for local in 0..3 {
            assert_eq!(inbox.view().messages(local), &[] as &[u64]);
        }
        assert!(inbox.view().receivers.is_empty());
    }

    /// The zero-allocation guarantee: refilling the same shapes reuses
    /// every buffer — no capacity changes, no reallocation — once the
    /// first superstep has sized them.
    #[test]
    fn steady_state_refills_do_not_reallocate() {
        let mut inbox: Inbox<u64> = Inbox::new(4);
        let refill = |inbox: &mut Inbox<u64>| {
            let mut shards = vec![
                vec![(0u32, 1u64), (3, 2), (0, 3)],
                vec![(2, 4), (2, 5), (1, 6)],
            ];
            inbox.fill(&mut shards)
        };
        refill(&mut inbox);
        let msgs_ptr = inbox.msgs.as_ptr();
        let capacities = (
            inbox.msgs.capacity(),
            inbox.staging_msgs.capacity(),
            inbox.staging_local.capacity(),
            inbox.slots.capacity(),
            inbox.cursor.capacity(),
        );
        for _ in 0..5 {
            assert_eq!(refill(&mut inbox), 6);
            assert_eq!(inbox.msgs.as_ptr(), msgs_ptr, "message buffer moved");
            assert_eq!(
                (
                    inbox.msgs.capacity(),
                    inbox.staging_msgs.capacity(),
                    inbox.staging_local.capacity(),
                    inbox.slots.capacity(),
                    inbox.cursor.capacity(),
                ),
                capacities,
                "scratch buffers reallocated"
            );
        }
    }

    #[test]
    fn transpose_swaps_rows_for_columns_and_counts_deliveries() {
        let mut plane: MessagePlane<u64> = MessagePlane::new([1usize, 1].into_iter());
        plane.out_shards[0][1].push((0, 7));
        plane.out_shards[1][0].push((0, 8));
        plane.out_shards[1][0].push((0, 9));
        let mut received = Vec::new();
        plane.transpose_into(&mut received);
        assert_eq!(plane.in_shards[1][0], vec![(0, 7)]);
        assert_eq!(plane.in_shards[0][1], vec![(0, 8), (0, 9)]);
        assert!(plane.out_shards[0][1].is_empty());
        // The delivery counts fall out of the same pass: worker 0 received
        // two messages (from worker 1), worker 1 received one.
        assert_eq!(received, vec![2, 1]);
        // Swapping back restores the (drained) buffers for reuse and
        // recounts from scratch into the reused buffer.
        plane.transpose_into(&mut received);
        assert_eq!(plane.out_shards[0][1], vec![(0, 7)]);
        assert_eq!(received, vec![0, 0]);
    }
}
