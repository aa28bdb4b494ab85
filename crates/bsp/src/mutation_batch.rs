//! Mutation batches: the unit a [`DistributedGraph`] absorbs per epoch, and
//! the counters one absorbed batch leaves behind.
//!
//! Invariant owned here (in-batch cancellation): a pair deleted after being
//! added *in the same batch* appears in neither list, so `removed` only ever
//! names edge copies that predate the batch, and `pending` is always exactly
//! `added` as a multiset.
//!
//! [`DistributedGraph`]: crate::DistributedGraph

use ebv_graph::{Edge, IdHashMap};
use ebv_partition::PartitionId;

/// A batch of edge-level mutations to replay against a [`DistributedGraph`]
/// via [`DistributedGraph::apply_mutations`]: additions and removals of
/// already-assigned edge copies, with migrations expressed as a removal plus
/// an addition.
///
/// The batch performs *cancellation*: deleting an `(edge, partition)` pair
/// that was added earlier in the same batch removes the pending addition
/// instead of recording a removal, so a batch built by replaying an
/// insert/delete event stream always references only pre-batch edges in its
/// removal list.
///
/// [`DistributedGraph`]: crate::DistributedGraph
/// [`DistributedGraph::apply_mutations`]: crate::DistributedGraph::apply_mutations
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    added: Vec<(Edge, PartitionId)>,
    removed: Vec<(Edge, PartitionId)>,
    /// `added` as a multiset: how many pending additions each pair has.
    /// Almost every deletion names a copy that predates the batch, and this
    /// answers "nothing to cancel" without scanning `added`.
    pending: IdHashMap<(Edge, PartitionId), u32>,
}

/// Two batches are equal when they replay the same mutations; `pending` is
/// derived from `added`.
impl PartialEq for MutationBatch {
    fn eq(&self, other: &Self) -> bool {
        self.added == other.added && self.removed == other.removed
    }
}

impl Eq for MutationBatch {}

impl MutationBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the insertion of one edge copy assigned to `part`.
    pub fn record_insert(&mut self, edge: Edge, part: PartitionId) {
        self.added.push((edge, part));
        *self.pending.entry((edge, part)).or_insert(0) += 1;
    }

    /// Records the deletion of one edge copy that lived in `part`. Cancels
    /// against the most recent matching pending addition, if any.
    pub fn record_delete(&mut self, edge: Edge, part: PartitionId) {
        let pair = (edge, part);
        let Some(count) = self.pending.get_mut(&pair) else {
            self.removed.push(pair);
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.pending.remove(&pair);
        }
        let index = self
            .added
            .iter()
            .rposition(|&added| added == pair)
            .expect("a pending count implies a pending addition");
        self.added.remove(index);
    }

    /// Records the migration of one edge copy from `from` to `to` as a
    /// delete plus an insert: the newest copy of `edge` on `from` goes
    /// (cancelling a pending addition there, if any) and `edge` is
    /// appended on `to`. That is the one move rule
    /// `ebv_partition::DynamicPartitioner::rebalance` and WAL replay follow
    /// too, so replaying a plan keeps every worker's edge list in the
    /// partitioner's survivor order.
    pub fn record_move(&mut self, edge: Edge, from: PartitionId, to: PartitionId) {
        self.record_delete(edge, from);
        self.record_insert(edge, to);
    }

    /// Reconstructs a batch from already-cancelled parts, exactly as read
    /// back by [`added`](Self::added) / [`removed`](Self::removed).
    ///
    /// This is the deserialization entry point: a serialized batch has
    /// *already* had cancellation applied when it was recorded, so its
    /// parts must be restored verbatim. Replaying them through
    /// [`record_insert`](Self::record_insert) /
    /// [`record_delete`](Self::record_delete) would be wrong — a batch
    /// that legitimately deletes a pre-batch copy and re-inserts the same
    /// `(edge, partition)` pair holds that pair in *both* lists, and
    /// re-recording would cancel the pair out of existence.
    pub fn from_parts(added: Vec<(Edge, PartitionId)>, removed: Vec<(Edge, PartitionId)>) -> Self {
        let mut pending = IdHashMap::with_capacity_and_hasher(added.len(), Default::default());
        for &pair in &added {
            *pending.entry(pair).or_insert(0) += 1;
        }
        MutationBatch {
            added,
            removed,
            pending,
        }
    }

    /// The pending additions, in record order.
    ///
    /// Invariant (cancellation): a pair deleted after being added *in the
    /// same batch* appears in neither slice — `record_delete` removes the
    /// pending addition instead of recording a removal. Serializing these
    /// two slices therefore captures the batch exactly; rebuild it with
    /// [`from_parts`](Self::from_parts), never by replaying `record_*`.
    pub fn added(&self) -> &[(Edge, PartitionId)] {
        &self.added
    }

    /// The pending removals, in record order. Every entry references an
    /// edge copy that existed before the batch (see
    /// [`added`](Self::added) for the cancellation invariant).
    pub fn removed(&self) -> &[(Edge, PartitionId)] {
        &self.removed
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of recorded mutations (additions plus removals).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Assembly-cost counters of one [`DistributedGraph::apply_mutations`]
/// epoch: how much of the distribution actually had to be rebuilt.
///
/// An incremental epoch re-assembles only the workers the batch touches
/// and rewrites the isolated tail of any worker whose isolated vertices
/// changed; everything else is kept as-is. `workers_touched == 0`
/// therefore identifies a no-op epoch and `workers_touched < p` quantifies
/// the locality win over the full-reassembly path that rebuilds every
/// worker.
///
/// [`DistributedGraph::apply_mutations`]: crate::DistributedGraph::apply_mutations
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MutationStats {
    /// Workers whose vertex table changed this epoch: those re-built and
    /// those whose isolated tail was rewritten.
    pub workers_touched: usize,
    /// Total local edges of the re-built workers (the re-indexing cost). A
    /// worker whose only change is its isolated tail re-indexes no edge and
    /// adds nothing.
    pub edges_rebuilt: usize,
    /// Edge copies the batch added.
    pub edges_added: usize,
    /// Edge copies the batch removed.
    pub edges_removed: usize,
    /// Wall-clock seconds the epoch took to apply (0.0 for no-op epochs).
    /// The only non-deterministic field: everything a program execution can
    /// observe stays bit-identical run to run.
    pub apply_seconds: f64,
}

impl std::fmt::Display for MutationStats {
    /// One-line epoch summary, the mutation-side counterpart of
    /// [`ExecutionStats`](crate::ExecutionStats)' Display.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.workers_touched == 0 {
            return write!(f, "no-op epoch (0 workers touched)");
        }
        write!(
            f,
            "{} workers touched, {} edges rebuilt (+{}/-{} edge copies) in {:.2}ms",
            self.workers_touched,
            self.edges_rebuilt,
            self.edges_added,
            self.edges_removed,
            self.apply_seconds * 1e3,
        )
    }
}

#[cfg(test)]
mod tests;
