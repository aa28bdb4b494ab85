//! Incremental mutation epochs: absorbing a [`MutationBatch`] in place.
//!
//! Invariant owned here: removals are LIFO (the most recent matching copy
//! goes, survivors keep their order) and additions append in record order,
//! so a mutated distribution is structurally identical to a fresh
//! `build_streaming` of the surviving `(edge, partition)` stream — edge
//! lists, vertex tables, the replica table (holder counts and elected
//! masters) and routing table alike. An epoch runs the steps of assembly
//! over the workers the batch names: validate removals → grow universe →
//! list the affected vertices → new edge lists → rebuild the named workers
//! → re-derive the replica table from every worker (rewriting the isolated
//! tails that changed), elect every vertex and write every worker's master
//! flags → re-derive every worker's routes from the table. Only the first
//! can fail, and it mutates nothing, so a rejected batch leaves the
//! distribution unchanged, its [`Lineage`](crate::Lineage) state id
//! included; a batch that lands mints a new one and keeps its affected
//! list beside it.

use std::time::Instant;

use ebv_graph::{Edge, IdHashMap, VertexSet};
use ebv_obs::{NoopRecorder, Phase, Recorder, SpanCtx};

use crate::distributed::{mint_state, DistributedGraph};
use crate::error::{BspError, Result};
use crate::lanes::Job;
use crate::mutation_batch::{MutationBatch, MutationStats};
use crate::replica::MasterRule;
use crate::subgraph::Subgraph;

impl DistributedGraph {
    /// Absorbs one batch of edge mutations in place, incrementally:
    /// only the workers the batch references are re-assembled (a worker
    /// whose isolated vertices changed has its vertex table's tail
    /// rewritten). Every vertex is re-elected, as at assembly, and a kept
    /// worker's master flags change only where its vertices' masters moved;
    /// untouched workers keep their edge lists, vertex tables and CSRs.
    /// Returns the [`MutationStats`] of the epoch.
    ///
    /// Removals delete the *most recent* matching copy from the named
    /// worker's edge list (the copy rule of `ebv_partition::CopyLog`, which
    /// the partitioner's deletes and moves follow) while preserving the
    /// relative order of the surviving edges; additions append in record
    /// order. The incremental result is structurally identical to
    /// rebuilding from scratch over the surviving `(edge, partition)`
    /// stream.
    ///
    /// An **empty batch** (including one whose inserts and deletes fully
    /// cancelled in-batch) is a cheap no-op: nothing is cloned or rebuilt
    /// and [`epoch`](Self::epoch) does **not** advance — epochs count
    /// absorbed mutations, not calls.
    ///
    /// Only vertex-cut style distributions (every local edge owned) can be
    /// mutated this way; edge-cut distributions replicate crossing edges
    /// and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidMutation`] when a removal references an
    /// edge copy the named worker does not hold (reporting the smallest
    /// such edge of the lowest-numbered failing partition, so the message
    /// is deterministic) or the distribution is not vertex-cut, and
    /// [`BspError::PartitionMismatch`] when a mutation names a partition
    /// out of range. On error the distribution is left unchanged.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) -> Result<MutationStats> {
        self.apply_mutations_with(batch, &NoopRecorder)
    }

    /// [`apply_mutations`](Self::apply_mutations) with telemetry: the whole
    /// epoch is recorded as a `mutation_apply` span and the route
    /// derivation inside it (step 7, every worker's routes) as a
    /// `routing_patch` span (both on the engine-side track, `worker == p`),
    /// plus mutation counters.
    ///
    /// Instrumentation does not perturb the result: every deterministic
    /// field of the returned [`MutationStats`] and the distribution itself
    /// are bit-identical to an uninstrumented call.
    ///
    /// # Errors
    ///
    /// Exactly as [`apply_mutations`](Self::apply_mutations).
    pub fn apply_mutations_with<R: Recorder>(
        &mut self,
        batch: &MutationBatch,
        recorder: &R,
    ) -> Result<MutationStats> {
        if batch.is_empty() {
            self.last_mutation = MutationStats::default();
            return Ok(self.last_mutation);
        }
        if !self.is_vertex_cut() {
            return Err(BspError::InvalidMutation {
                message: "only vertex-cut distributions (every local edge owned) support \
                          edge-level mutations"
                    .to_string(),
            });
        }
        // `apply_seconds` is always measured (one clock pair per epoch);
        // the span is only timed when a real recorder is attached.
        let wall_started = Instant::now();
        let span_started = recorder.start();
        let p = self.num_workers();

        let keep_masks = self.validate_removals(batch)?;
        // The workers whose edge lists change; the derivation adds those
        // whose isolated tail it rewrites.
        let mut touched = vec![false; p];
        for &(_, part) in batch.removed().iter().chain(batch.added()) {
            touched[part.index()] = true;
        }
        let old_n = self.grow_universe(batch);
        let affected = affected_vertices(batch, old_n, self.num_vertices);
        let new_edges = self.new_edge_lists(batch, &touched, keep_masks);
        let edges_rebuilt = self.rebuild_touched(new_edges);
        // Step 6 — the replica table from every worker's vertex table, every
        // vertex's master and every worker's master flags.
        let (n, rule) = (self.num_vertices, MasterRule::IncidentMajority);
        let replicas = &mut self.replicas;
        replicas.derive(&mut self.subgraphs, n, &mut touched, rule);
        let workers_touched = touched.iter().filter(|&&touched| touched).count();

        self.num_edges = self.subgraphs.iter().map(Subgraph::num_edges).sum();
        self.epoch += 1;
        // Step 7 — re-derive every worker's routes from the replica table.
        let span_ctx = SpanCtx {
            epoch: self.epoch as u32,
            superstep: 0,
            worker: p as u32,
        };
        let routes_started = recorder.start();
        self.routing.derive_routes(
            &self.subgraphs,
            &self.replicas,
            self.num_vertices,
            self.epoch,
        );
        recorder.span(routes_started, span_ctx, Phase::RoutingPatch);
        // A new state, derived from the one this batch found.
        self.parent_state = std::mem::replace(&mut self.state, mint_state());
        self.affected = affected;
        self.last_mutation = MutationStats {
            workers_touched,
            edges_rebuilt,
            edges_added: batch.added().len(),
            edges_removed: batch.removed().len(),
            apply_seconds: wall_started.elapsed().as_secs_f64(),
        };
        recorder.span(span_started, span_ctx, Phase::MutationApply);
        recorder.counter_add("ebv_mutation_epochs_total", 1);
        recorder.counter_add("ebv_mutation_edges_added_total", batch.added().len() as u64);
        recorder.counter_add(
            "ebv_mutation_edges_removed_total",
            batch.removed().len() as u64,
        );
        recorder.counter_add("ebv_mutation_edges_rebuilt_total", edges_rebuilt as u64);
        Ok(self.last_mutation)
    }

    /// Step 1 — checks every partition the batch names and resolves every
    /// removal to the *last* matching copy of its worker's edge list,
    /// returning one keep-mask per worker that loses edges. Nothing is
    /// mutated: this is the only step that can reject the batch.
    fn validate_removals(&self, batch: &MutationBatch) -> Result<Vec<Option<Vec<bool>>>> {
        let p = self.num_workers();
        for &(_, part) in batch.removed().iter().chain(batch.added()) {
            if part.index() >= p {
                return Err(BspError::PartitionMismatch {
                    message: format!(
                        "mutation references partition {part} but only {p} partitions exist"
                    ),
                });
            }
        }
        // Group removals per partition, then resolve the last occurrences in
        // one reverse sweep per partition so survivor order is preserved.
        let mut to_remove: Vec<IdHashMap<Edge, usize>> = vec![IdHashMap::default(); p];
        let mut removals = vec![0usize; p];
        for &(edge, part) in batch.removed() {
            *to_remove[part.index()].entry(edge).or_insert(0) += 1;
            removals[part.index()] += 1;
        }
        let mut keep_masks: Vec<Option<Vec<bool>>> = vec![None; p];
        let mut filter = EdgeFilter::default();
        for (i, pending) in to_remove.iter_mut().enumerate() {
            if pending.is_empty() {
                continue;
            }
            filter.fill(pending.keys().copied(), removals[i]);
            let keep = sweep(self.subgraphs[i].edges(), pending, &filter);
            // Deterministic error: the smallest unmatched edge (partitions
            // are scanned in ascending order).
            if let Some(&edge) = pending
                .iter()
                .filter(|&(_, &count)| count > 0)
                .map(|(edge, _)| edge)
                .min()
            {
                return Err(BspError::InvalidMutation {
                    message: format!("partition {i} holds no copy of edge {edge} to remove"),
                });
            }
            keep_masks[i] = Some(keep);
        }
        Ok(keep_masks)
    }

    /// Step 2 — grows the vertex universe to cover additions past the
    /// current maximum. Returns the previous universe size.
    fn grow_universe(&mut self, batch: &MutationBatch) -> usize {
        let old_n = self.num_vertices;
        for &(edge, _) in batch.added() {
            let n = edge.src.index().max(edge.dst.index()) + 1;
            self.num_vertices = self.num_vertices.max(n);
        }
        old_n
    }

    /// Step 4 — the new edge lists of the batch-touched workers: survivors
    /// in original order, then additions in record order — the same stream
    /// a fresh streamed build of the survivors would consume.
    fn new_edge_lists(
        &mut self,
        batch: &MutationBatch,
        touched: &[bool],
        mut keep_masks: Vec<Option<Vec<bool>>>,
    ) -> Vec<Option<Vec<Edge>>> {
        let mut new_edges: Vec<Option<Vec<Edge>>> = vec![None; touched.len()];
        for (i, sg) in self.subgraphs.iter_mut().enumerate() {
            if !touched[i] {
                continue;
            }
            let mut edges = sg.take_edges();
            if let Some(keep) = keep_masks[i].take() {
                let mut it = keep.iter();
                edges.retain(|_| *it.next().expect("keep mask covers every edge"));
            }
            new_edges[i] = Some(edges);
        }
        for &(edge, part) in batch.added() {
            new_edges[part.index()]
                .as_mut()
                .expect("addition partitions are touched")
                .push(edge);
        }
        new_edges
    }

    /// Step 5 — re-assembles exactly the workers with a new edge list, in
    /// the buffers they hold, on the graph's lanes: CSRs and local
    /// components, with no isolated tail or master flag yet. Returns the
    /// edges re-indexed.
    fn rebuild_touched(&mut self, new_edges: Vec<Option<Vec<Edge>>>) -> usize {
        let edges_rebuilt = new_edges.iter().flatten().map(Vec::len).sum();
        let jobs = self.subgraphs.iter_mut().zip(new_edges);
        let jobs = jobs.filter_map(|(worker, edges)| {
            let (edges, owned) = (edges?, Vec::new());
            Some(Job {
                worker,
                edges,
                owned,
            })
        });
        self.lanes.rebuild(self.num_vertices, jobs.collect());
        edges_rebuilt
    }
}

/// A hashed bit filter over one worker's pending removals, keyed by the
/// whole edge: a clear bit proves an edge is not pending, so the reverse
/// sweep probes the hash map only for the few edges whose bit is set. At
/// least 16 bits per removal, a power of two, so a small batch's filter
/// stays in L1 and a false positive costs one probe in sixteen edges or
/// fewer.
#[derive(Debug, Default)]
struct EdgeFilter {
    words: Vec<u64>,
    /// `64 - log2(bits)`: the hash's top bits pick the bit.
    shift: u32,
}

impl EdgeFilter {
    /// Refills the filter with `pending`, sized for `removals` removals.
    fn fill(&mut self, pending: impl Iterator<Item = Edge>, removals: usize) {
        let bits = (16 * removals).next_power_of_two().max(64);
        self.shift = 64 - bits.trailing_zeros();
        self.words.clear();
        self.words.resize(bits / 64, 0);
        for edge in pending {
            let bit = self.bit(edge);
            self.words[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// The bit of `edge`: the top bits of its packed ids times a
    /// Fibonacci-hashing multiplier.
    #[inline]
    fn bit(&self, edge: Edge) -> usize {
        let key = (edge.src.raw() << 32) | edge.dst.raw();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Whether `edge` may be pending; `false` is exact.
    #[inline]
    fn may_contain(&self, edge: Edge) -> bool {
        let bit = self.bit(edge);
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// The reverse sweep of one worker's `edges`: each pending removal takes
/// the last copy not yet taken, and its count goes down. Returns the keep
/// mask; a count left above zero names an edge the worker does not hold.
/// `filter` holds every pending edge.
fn sweep(edges: &[Edge], pending: &mut IdHashMap<Edge, usize>, filter: &EdgeFilter) -> Vec<bool> {
    let mut keep = vec![true; edges.len()];
    for (index, &edge) in edges.iter().enumerate().rev() {
        if !filter.may_contain(edge) {
            continue;
        }
        if let Some(count) = pending.get_mut(&edge) {
            if *count > 0 {
                *count -= 1;
                keep[index] = false;
            }
        }
    }
    keep
}

/// The sweep [`sweep`] replaced: a probe for every edge.
#[cfg(test)]
fn sweep_probing_every_edge(edges: &[Edge], pending: &mut IdHashMap<Edge, usize>) -> Vec<bool> {
    let mut keep = vec![true; edges.len()];
    for index in (0..edges.len()).rev() {
        if let Some(count) = pending.get_mut(&edges[index]) {
            if *count > 0 {
                *count -= 1;
                keep[index] = false;
            }
        }
    }
    keep
}

/// Step 3 — the *affected* vertices, ascending: the endpoints of mutated
/// edges plus the vertices the batch created (`old_n..n`). Only these can
/// change masters, replica sets or isolated status, which is what a
/// consumer that patches its copy reads off [`Lineage`](crate::Lineage).
/// Marked in a bitmap over the universe and read out in order.
fn affected_vertices(batch: &MutationBatch, old_n: usize, n: usize) -> Vec<usize> {
    let mut marked = VertexSet::new(n);
    for &(edge, _) in batch.removed().iter().chain(batch.added()) {
        marked.insert(edge.src.raw());
        marked.insert(edge.dst.raw());
    }
    for v in old_n..n {
        marked.insert(v as u64);
    }
    let mut affected = Vec::with_capacity(marked.len());
    affected.extend(marked.iter().map(|v| v as usize));
    affected
}

/// The list [`affected_vertices`] replaced: every endpoint collected,
/// sorted and deduplicated.
#[cfg(test)]
fn affected_by_sorting(batch: &MutationBatch, old_n: usize, n: usize) -> Vec<usize> {
    let mut affected: Vec<usize> = Vec::with_capacity(2 * batch.len() + (n - old_n));
    for &(edge, _) in batch.removed().iter().chain(batch.added()) {
        affected.extend([edge.src.index(), edge.dst.index()]);
    }
    affected.extend(old_n..n);
    affected.sort_unstable();
    affected.dedup();
    affected
}

#[cfg(test)]
mod tests;
