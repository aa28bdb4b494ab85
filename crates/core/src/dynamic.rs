//! Dynamic (evolving-graph) forms of the vertex-cut partitioners: exact
//! partition maintenance under edge **deletions** and imbalance-triggered
//! **rebalancing**.
//!
//! This is the one online partitioner: a stream is an insert-only event
//! sequence (configured by [`StreamConfig`]), and full mutation streams add
//! deletions and rebalancing. A [`DynamicPartitioner`] accepts
//! [`insert`](DynamicPartitioner::insert) and
//! [`delete`](DynamicPartitioner::delete) calls and keeps three pieces of
//! state *exactly* consistent with the surviving edge multiset:
//!
//! * per-partition edge loads (`ecount[i]`, decrementable),
//! * per-partition vertex cover sets (`V_i`), maintained as **reference
//!   counts** of live incident edges so that removing the last incident
//!   edge of a vertex removes the replica — a plain membership bitset
//!   cannot decrement,
//! * the edge→partition assignment log of every live copy, a [`CopyLog`]
//!   (duplicate edges form a multiset; deletion removes the most recently
//!   inserted copy, and a migration removes the newest copy on its donor
//!   and appends the edge on its receiver).
//!
//! ## Exactness guarantees
//!
//! * **Metrics**: after *any* event sequence,
//!   [`DynamicPartitioner::metrics`] is bit-identical to materializing the
//!   surviving edges into a graph and recomputing
//!   [`PartitionMetrics::compute`] from scratch over the maintained
//!   assignment — the decrement path never drifts.
//! * **Insert-only equivalence**: with exact [`StreamConfig`] hints, a
//!   sequence with no deletions reproduces the batch EBV
//!   ([`EdgeOrder::Input`](crate::EdgeOrder::Input)) and HDRF algorithms
//!   bit for bit, assignments and metrics alike.
//! * **History-obliviousness (Random)**: the dynamic Random variant hashes
//!   only the edge endpoints (not the stream position), so after any event
//!   sequence its assignment — not just its metrics — equals a from-scratch
//!   run over the surviving edges in insertion order.
//!
//! EBV and HDRF are *online* algorithms: each insertion is scored against
//! the live state at insertion time, so a deletion does not retroactively
//! re-place edges that were scored while the deleted edge was present.
//! Quality is restored instead by the explicit
//! [`rebalance`](DynamicPartitioner::rebalance) epoch, which migrates edges
//! out of overloaded partitions (and consolidates replicas) when the
//! maintained metrics drift past the [`RebalanceConfig`] thresholds,
//! emitting a [`MigrationPlan`] that the distribution layer
//! (`ebv_bsp::DistributedGraph::apply_mutations`) can replay.

use ebv_graph::{Edge, VertexId};

use crate::baselines::mix64;
use crate::copy_log::CopyLog;
use crate::error::{PartitionError, Result};
use crate::metrics::PartitionMetrics;
use crate::scoring::{ebv_best_part, hdrf_best_part, maintained_metrics, CoverLookup};
use crate::streaming::StreamConfig;
use crate::types::PartitionId;

/// One migrated edge copy: the newest live copy of `edge` on partition
/// `from` goes, and a new copy of `edge` is appended on partition `to` —
/// a delete plus an insert, in the partitioner's log and downstream alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMove {
    /// The migrated edge.
    pub edge: Edge,
    /// The partition the copy is leaving.
    pub from: PartitionId,
    /// The partition the copy is joining.
    pub to: PartitionId,
}

/// The outcome of one rebalance epoch: the ordered list of edge migrations
/// the partitioner performed on its own state. Each move is a removal of
/// the newest copy on the donor plus an append on the receiver (the one
/// rule of [`CopyLog`]), so replaying the moves in order against the
/// distribution layer — or logging them as a WAL frame — keeps every
/// worker's edge list equal to [`DynamicPartitioner::surviving`] filtered
/// to that worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    moves: Vec<EdgeMove>,
}

impl MigrationPlan {
    /// The migrations in execution order.
    pub fn moves(&self) -> &[EdgeMove] {
        &self.moves
    }

    /// Number of migrated edge copies.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the epoch migrated nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Thresholds and targets for [`DynamicPartitioner::rebalance`].
///
/// A rebalance epoch triggers when the maintained edge imbalance exceeds
/// [`max_edge_imbalance`](Self::with_max_edge_imbalance) or the maintained
/// replication factor exceeds
/// [`max_replication_factor`](Self::with_max_replication_factor); it then
/// migrates edges until every partition load is at most
/// `target_edge_imbalance × |E| / p` (rounded up to the feasible floor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    max_edge_imbalance: f64,
    max_replication_factor: f64,
    target_edge_imbalance: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            max_edge_imbalance: 1.10,
            max_replication_factor: f64::INFINITY,
            target_edge_imbalance: 1.02,
        }
    }
}

impl RebalanceConfig {
    /// Creates the default configuration: trigger above an edge imbalance of
    /// 1.10, never trigger on the replication factor, rebalance toward 1.02.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the edge-imbalance trigger threshold (≥ 1).
    pub fn with_max_edge_imbalance(mut self, threshold: f64) -> Self {
        self.max_edge_imbalance = threshold;
        self
    }

    /// Sets the replication-factor trigger threshold (≥ 1). A triggered
    /// epoch always includes the replica-consolidation sweep.
    pub fn with_max_replication_factor(mut self, threshold: f64) -> Self {
        self.max_replication_factor = threshold;
        self
    }

    /// Sets the post-rebalance edge-imbalance target (≥ 1, at most the
    /// trigger threshold).
    pub fn with_target_edge_imbalance(mut self, target: f64) -> Self {
        self.target_edge_imbalance = target;
        self
    }

    /// The configured edge-imbalance trigger.
    pub fn max_edge_imbalance(&self) -> f64 {
        self.max_edge_imbalance
    }

    fn validate(&self) -> Result<()> {
        let ok = |x: f64| x >= 1.0 && !x.is_nan();
        if !ok(self.max_edge_imbalance)
            || !ok(self.max_replication_factor)
            || !ok(self.target_edge_imbalance)
            || self.target_edge_imbalance > self.max_edge_imbalance
        {
            return Err(PartitionError::InvalidParameter {
                parameter: "rebalance_config",
                message: format!(
                    "thresholds must be >= 1 with target <= max_edge_imbalance, got \
                     max_edge_imbalance {}, max_replication_factor {}, target {}",
                    self.max_edge_imbalance,
                    self.max_replication_factor,
                    self.target_edge_imbalance
                ),
            });
        }
        Ok(())
    }
}

/// The placement policy of a [`DynamicPartitioner`].
#[derive(Debug, Clone)]
enum Policy {
    /// EBV's evaluation function over the live state (Algorithm 1 scoring).
    Ebv { alpha: f64, beta: f64 },
    /// HDRF scoring with *live* partial degrees (decremented on delete),
    /// one per vertex of the observed universe.
    Hdrf { degree: Vec<usize> },
    /// Position-independent hash of the edge endpoints.
    Random,
}

impl CoverLookup for DynamicPartitioner {
    #[inline]
    fn covers(&self, v: VertexId, i: usize) -> bool {
        self.refs
            .get(v.index() * self.num_partitions + i)
            .is_some_and(|&count| count != 0)
    }

    #[inline]
    fn vcount(&self, i: usize) -> usize {
        self.vcount[i]
    }

    fn ecount(&self) -> &[usize] {
        &self.ecount
    }
}

/// The deletion-oblivious Random-VC assignment: a pure hash of the edge
/// endpoints. Unlike the batch form it deliberately does **not** mix in
/// the stream position, so deleting unrelated edges never changes where an
/// edge hashes — the assignment after any event sequence equals a
/// from-scratch run over the survivors. The `mix64(0)` term is the salt
/// this hash was first defined with; it stays so placements do not move.
fn dynamic_random_part(num_partitions: usize, edge: Edge) -> PartitionId {
    let key = mix64(edge.src.raw()) ^ mix64(edge.dst.raw().rotate_left(17)) ^ mix64(0);
    PartitionId::new((mix64(key) % num_partitions as u64) as u32)
}

/// A vertex-cut partitioner for evolving graphs; see the [module
/// documentation](self) for the maintained invariants.
///
/// Construct via [`EbvPartitioner::dynamic`](crate::EbvPartitioner::dynamic),
/// [`HdrfPartitioner::dynamic`](crate::HdrfPartitioner::dynamic) or
/// [`RandomVertexCutPartitioner::dynamic`](crate::RandomVertexCutPartitioner::dynamic).
///
/// # Examples
///
/// ```
/// use ebv_graph::Edge;
/// use ebv_partition::{EbvPartitioner, StreamConfig};
///
/// # fn main() -> Result<(), ebv_partition::PartitionError> {
/// let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(2))?;
/// dynamic.insert(Edge::from((0u64, 1u64)));
/// dynamic.insert(Edge::from((1u64, 2u64)));
/// let part = dynamic.insert(Edge::from((2u64, 0u64)));
/// dynamic.delete(Edge::from((2u64, 0u64)))?;
/// assert_eq!(dynamic.live_edges(), 2);
/// let _ = part;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicPartitioner {
    policy: Policy,
    num_partitions: usize,
    /// Every live copy in insertion order, with its partition.
    log: CopyLog,
    ecount: Vec<usize>,
    /// Per-partition vertex cover as live-incidence reference counts over
    /// the dense vertex universe: `refs[v·p + i]` is the number of live edge
    /// copies in partition `i` incident to `v`, so `V_i` is the set of `v`
    /// whose cell is non-zero.
    refs: Vec<u32>,
    /// `|V_i|`: the non-zero cells of partition `i`'s column of `refs`.
    vcount: Vec<usize>,
    max_vertex_exclusive: usize,
    expected_vertices: Option<usize>,
    expected_edges: Option<usize>,
}

impl DynamicPartitioner {
    fn new(policy: Policy, config: StreamConfig) -> Result<Self> {
        config.validate()?;
        let mut partitioner = DynamicPartitioner {
            policy,
            num_partitions: config.num_partitions(),
            log: CopyLog::default(),
            ecount: vec![0; config.num_partitions()],
            refs: Vec::new(),
            vcount: vec![0; config.num_partitions()],
            max_vertex_exclusive: 0,
            expected_vertices: config.expected_vertices(),
            expected_edges: config.expected_edges(),
        };
        partitioner.grow_universe(config.expected_vertices().unwrap_or(0));
        Ok(partitioner)
    }

    pub(crate) fn ebv(alpha: f64, beta: f64, config: StreamConfig) -> Result<Self> {
        Self::new(Policy::Ebv { alpha, beta }, config)
    }

    pub(crate) fn hdrf(config: StreamConfig) -> Result<Self> {
        Self::new(Policy::Hdrf { degree: Vec::new() }, config)
    }

    pub(crate) fn random(config: StreamConfig) -> Result<Self> {
        Self::new(Policy::Random, config)
    }

    /// A short, stable name used in reports (e.g. `"EBV-dynamic"`).
    pub fn name(&self) -> String {
        match self.policy {
            Policy::Ebv { .. } => "EBV-dynamic".to_string(),
            Policy::Hdrf { .. } => "HDRF-dynamic".to_string(),
            Policy::Random => "Random-VC-dynamic".to_string(),
        }
    }

    /// The configured partition count.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of live (surviving) edge copies.
    pub fn live_edges(&self) -> usize {
        self.log.len()
    }

    /// Whether no edge copy is currently live.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Size of the vertex universe: the configured
    /// [`StreamConfig::with_expected_vertices`] hint, or the densely
    /// numbered universe implied by the largest endpoint ever inserted.
    /// Deletions never shrink the universe.
    pub fn num_vertices(&self) -> usize {
        self.expected_vertices
            .unwrap_or(0)
            .max(self.max_vertex_exclusive)
    }

    /// Number of live edges held by each partition.
    pub fn edge_counts(&self) -> &[usize] {
        &self.ecount
    }

    /// Number of covered vertices (`|V_i|`) per partition.
    pub fn vertex_counts(&self) -> Vec<usize> {
        self.vcount.clone()
    }

    /// Whether partition `part` currently covers vertex `v`.
    pub fn covers(&self, v: VertexId, part: PartitionId) -> bool {
        part.index() < self.num_partitions && CoverLookup::covers(self, v, part.index())
    }

    /// Bytes of resident state, from the capacities of the structures
    /// actually held: the assignment log with its copy-stack heads, the
    /// dense incidence refcounts, the per-partition counters and (HDRF) the
    /// degrees. A memory figure for benchmarks; excludes allocator and
    /// hash-table control overhead.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let degrees = match &self.policy {
            Policy::Hdrf { degree } => degree.capacity(),
            _ => 0,
        };
        self.log.state_bytes()
            + self.refs.capacity() * size_of::<u32>()
            + (self.ecount.capacity() + self.vcount.capacity() + degrees) * size_of::<usize>()
    }

    fn observe(&mut self, edge: Edge) {
        let needed = edge.src.index().max(edge.dst.index()) + 1;
        if needed > self.max_vertex_exclusive {
            self.max_vertex_exclusive = needed;
            self.grow_universe(needed);
        }
    }

    /// Extends the dense per-vertex state to cover `vertices` vertices
    /// (amortized: `Vec::resize` grows geometrically). Never shrinks.
    fn grow_universe(&mut self, vertices: usize) {
        let cells = vertices * self.num_partitions;
        if cells > self.refs.len() {
            self.refs.resize(cells, 0);
        }
        if let Policy::Hdrf { degree } = &mut self.policy {
            if vertices > degree.len() {
                degree.resize(vertices, 0);
            }
        }
    }

    fn add_incidence(&mut self, v: VertexId, part: PartitionId) {
        let count = &mut self.refs[v.index() * self.num_partitions + part.index()];
        if *count == 0 {
            self.vcount[part.index()] += 1;
        }
        *count += 1;
    }

    fn remove_incidence(&mut self, v: VertexId, part: PartitionId) {
        let count = &mut self.refs[v.index() * self.num_partitions + part.index()];
        *count = count
            .checked_sub(1)
            .expect("every live endpoint holds a refcount");
        if *count == 0 {
            self.vcount[part.index()] -= 1;
        }
    }

    /// Scores the partitions for `edge` with the configured policy against
    /// the live state, through the scoring functions of [`crate::scoring`].
    fn place(&mut self, edge: Edge) -> PartitionId {
        let p = self.num_partitions;
        let (u, v) = edge.endpoints();
        match &mut self.policy {
            Policy::Ebv { alpha, beta } => {
                let (alpha, beta) = (*alpha, *beta);
                let edges_per_part = match self.expected_edges {
                    Some(e) => e as f64 / p as f64,
                    None => (self.log.len() + 1) as f64 / p as f64,
                };
                let vertices_per_part = self.num_vertices() as f64 / p as f64;
                ebv_best_part(self, alpha, beta, edges_per_part, vertices_per_part, u, v)
            }
            Policy::Hdrf { degree } => {
                degree[u.index()] += 1;
                degree[v.index()] += 1;
                let du = degree[u.index()] as f64;
                let dv = degree[v.index()] as f64;
                hdrf_best_part(self, du, dv, u, v)
            }
            Policy::Random => dynamic_random_part(p, edge),
        }
    }

    /// Inserts one edge copy, scoring it against the live state, and returns
    /// the partition it was assigned to.
    pub fn insert(&mut self, edge: Edge) -> PartitionId {
        self.observe(edge);
        let part = self.place(edge);
        self.record(edge, part);
        part
    }

    /// Logs a live copy of `edge` in `part` and bumps the load and cover
    /// refcounts — everything an insertion does after scoring.
    fn record(&mut self, edge: Edge, part: PartitionId) {
        self.log.push(edge, part);
        self.ecount[part.index()] += 1;
        self.add_incidence(edge.src, part);
        if edge.dst != edge.src {
            self.add_incidence(edge.dst, part);
        }
    }

    /// Drops the load and cover refcounts of a copy of `edge` in `part`
    /// that was just removed from the log — the inverse of
    /// [`record`](Self::record) after the log removal.
    fn unrecord(&mut self, edge: Edge, part: PartitionId) {
        self.ecount[part.index()] -= 1;
        self.remove_incidence(edge.src, part);
        if edge.dst != edge.src {
            self.remove_incidence(edge.dst, part);
        }
    }

    /// Deletes the most recently inserted live copy of `edge` and returns
    /// the partition that copy was assigned to. Partition load, vertex
    /// cover refcounts (and HDRF degrees) are decremented exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EdgeNotPresent`] when no live copy of
    /// `edge` exists.
    pub fn delete(&mut self, edge: Edge) -> Result<PartitionId> {
        let Some(part) = self.log.remove(edge, None) else {
            return Err(PartitionError::EdgeNotPresent {
                message: format!("no live copy of edge {edge} to delete"),
            });
        };
        self.unrecord(edge, part);
        if let Policy::Hdrf { degree } = &mut self.policy {
            for v in [edge.src, edge.dst] {
                degree[v.index()] = degree[v.index()]
                    .checked_sub(1)
                    .expect("every live endpoint holds an HDRF degree");
            }
        }
        Ok(part)
    }

    /// Restores a freshly constructed partitioner from a checkpoint: the
    /// surviving `(edge, partition)` pairs in insertion order (exactly
    /// what [`surviving`](Self::surviving) yielded when the checkpoint was
    /// taken) and the vertex universe the original had observed.
    ///
    /// Every placement-relevant piece of state — incidence refcounts, the
    /// copy stacks' LIFO order, partition loads, HDRF degrees — is a pure
    /// function of the surviving pairs, so replaying them with their
    /// *recorded* partitions (never re-scored) reproduces a partitioner
    /// whose future placements are bit-identical to the original's. The
    /// one exception is the universe: deleted edges may have observed
    /// larger vertices than any survivor, and the universe feeds the EBV
    /// balance denominators, so it is restored from the stored
    /// `universe` (the original's [`num_vertices`](Self::num_vertices))
    /// rather than re-derived.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] when `self` already
    /// holds state, and [`PartitionError::InconsistentAssignment`] when a
    /// pair names an out-of-range partition or a vertex outside
    /// `universe`.
    pub fn restore(
        &mut self,
        universe: usize,
        pairs: impl IntoIterator<Item = (Edge, PartitionId)>,
    ) -> Result<()> {
        if !self.log.is_empty() || self.max_vertex_exclusive != 0 {
            return Err(PartitionError::InvalidParameter {
                parameter: "restore",
                message: "restore requires a freshly constructed partitioner".to_string(),
            });
        }
        let pairs = pairs.into_iter();
        let expected = pairs.size_hint().0;
        self.log.reserve(expected, expected);
        self.grow_universe(universe);
        for (edge, part) in pairs {
            if part.index() >= self.num_partitions {
                return Err(PartitionError::InconsistentAssignment {
                    message: format!(
                        "checkpoint assigns edge {edge} to partition {part} but only {} \
                         partitions exist",
                        self.num_partitions
                    ),
                });
            }
            let needed = edge.src.index().max(edge.dst.index()) + 1;
            if needed > universe {
                return Err(PartitionError::InconsistentAssignment {
                    message: format!(
                        "checkpoint universe is {universe} vertices but edge {edge} \
                         references vertex {}",
                        needed - 1
                    ),
                });
            }
            // The insert path minus scoring.
            self.record(edge, part);
            if let Policy::Hdrf { degree } = &mut self.policy {
                // `place` bumps both endpoints per insertion (a self-loop
                // counts twice), and `delete` undoes it symmetrically, so
                // live-copy replay lands on the original live degrees.
                degree[edge.src.index()] += 1;
                degree[edge.dst.index()] += 1;
            }
        }
        self.max_vertex_exclusive = universe;
        Ok(())
    }

    /// The surviving `(edge, partition)` pairs in insertion order (a
    /// migrated copy counts as inserted when it moved) — the stream a
    /// from-scratch rebuild would consume, and filtered to one partition
    /// the order that partition's worker holds its edges in.
    pub fn surviving(&self) -> impl Iterator<Item = (Edge, PartitionId)> + '_ {
        self.log.iter()
    }

    /// The maintained assignment of the surviving edges as an
    /// [`EdgePartition`](crate::EdgePartition)-backed
    /// [`PartitionResult`](crate::PartitionResult), aligned with
    /// [`surviving`](Self::surviving) order.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from result construction.
    pub fn snapshot(&self) -> Result<crate::PartitionResult> {
        let assignment: Vec<PartitionId> = self.surviving().map(|(_, part)| part).collect();
        Ok(crate::EdgePartition::new(self.num_partitions, assignment)?.into())
    }

    /// The maintained quality metrics of the surviving assignment —
    /// bit-identical to [`PartitionMetrics::compute`] over a graph holding
    /// exactly the surviving edges (in any order) with
    /// [`num_vertices`](Self::num_vertices) declared vertices.
    ///
    /// So they divide by what `compute` divides by: the replication factor
    /// by the id universe ([`num_vertices`](Self::num_vertices), declared or
    /// grown, never shrunk), which counts vertices with no live copy; the
    /// edge imbalance by live copies / `p`; the vertex imbalance by
    /// `Σ_i |V_i| / p`. The replication factor can therefore read below 1
    /// (ROADMAP item 25(a)).
    pub fn metrics(&self) -> PartitionMetrics {
        maintained_metrics(
            &self.ecount,
            &self.vcount,
            self.log.len(),
            self.num_vertices(),
        )
    }

    /// Whether the maintained metrics have drifted past the `config`
    /// thresholds.
    pub fn needs_rebalance(&self, config: &RebalanceConfig) -> bool {
        let m = self.metrics();
        m.edge_imbalance > config.max_edge_imbalance
            || m.replication_factor > config.max_replication_factor
    }

    /// The per-move replication-factor delta of migrating `edge` from
    /// `from` to `to`: new replicas created in `to` minus replicas freed in
    /// `from`.
    fn move_delta(&self, edge: Edge, from: PartitionId, to: PartitionId) -> i64 {
        let mut delta = 0i64;
        let (u, v) = edge.endpoints();
        for (i, w) in [u, v].into_iter().enumerate() {
            if i == 1 && v == u {
                break;
            }
            let row = w.index() * self.num_partitions;
            if self.refs[row + to.index()] == 0 {
                delta += 1;
            }
            if self.refs[row + from.index()] == 1 {
                delta -= 1;
            }
        }
        delta
    }

    /// Applies one migration to the maintained state: the newest copy of
    /// `edge` on `from` goes, a copy on `to` is appended.
    fn apply_move(&mut self, edge: Edge, from: PartitionId, to: PartitionId) {
        let removed = self.log.remove(edge, Some(from));
        debug_assert_eq!(removed, Some(from), "only live copies migrate");
        self.unrecord(edge, from);
        self.record(edge, to);
    }

    /// Runs one rebalance epoch if the maintained metrics exceed the
    /// `config` thresholds, migrating edge copies on the partitioner's own
    /// state and returning the [`MigrationPlan`] to replay downstream
    /// (e.g. via `ebv_bsp::MutationBatch::record_move`).
    ///
    /// Every move is a delete plus an insert: the newest live copy of the
    /// edge on the donor leaves the log and a copy on the receiver is
    /// appended — the rule `record_move` and WAL replay follow too — so
    /// [`surviving`](Self::surviving) order after the epoch is the order
    /// the downstream workers hold their edges in.
    ///
    /// The epoch is greedy and deterministic:
    ///
    /// 1. **Load phase** — while some partition holds more than
    ///    `target_edge_imbalance × |E| / p` edges (rounded up to the
    ///    feasible floor `⌈|E| / p⌉`), move the copy with the smallest
    ///    replication delta from the most loaded partition to the least
    ///    loaded one.
    /// 2. **Consolidation sweep** — when the replication factor triggered
    ///    the epoch, additionally migrate copies whose move strictly frees
    ///    replicas without pushing any partition over the load cap.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for thresholds below 1
    /// or a target above the trigger threshold.
    pub fn rebalance(&mut self, config: &RebalanceConfig) -> Result<MigrationPlan> {
        config.validate()?;
        let mut plan = MigrationPlan::default();
        if !self.needs_rebalance(config) {
            return Ok(plan);
        }
        let p = self.num_partitions;
        let average = self.log.len() as f64 / p as f64;
        // Clamp to at least one live edge of headroom: on tiny or
        // near-empty graphs (`average < 1`) the scaled target floors to 0,
        // which would forbid every receiver (`load + 1 > cap`) and stall
        // the epoch with the trigger still firing.
        let cap = (average.ceil() as usize)
            .max((average * config.target_edge_imbalance).floor() as usize)
            .max(1);

        // The live copies in pre-epoch log order, each with its current
        // partition: a move appends the copy at the end of the log, but the
        // epoch keeps visiting (and tie-breaking on) the pre-epoch order.
        let mut copies: Vec<(Edge, PartitionId)> = self.log.iter().collect();
        // Positions in `copies` per partition, in insertion order.
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (position, &(_, part)) in copies.iter().enumerate() {
            positions[part.index()].push(position);
        }

        // Load phase: drain each overloaded partition in turn. The donor's
        // copies are scored *once* (against the least-loaded partition at
        // scan time — the replica-freeing component of the delta dominates
        // and is receiver-independent), sorted, and migrated cheapest
        // first; each individual move still goes to the least-loaded
        // partition at that moment.
        let mut stop = false;
        while !stop {
            let donor = (0..p).max_by_key(|&i| self.ecount[i]).expect("p >= 1");
            if self.ecount[donor] <= cap {
                break;
            }
            let from = PartitionId::from_index(donor);
            let hint_receiver =
                PartitionId::from_index((0..p).min_by_key(|&i| self.ecount[i]).expect("p >= 1"));
            let mut candidates: Vec<(i64, usize)> = positions[donor]
                .iter()
                .map(|&position| {
                    (
                        self.move_delta(copies[position].0, from, hint_receiver),
                        position,
                    )
                })
                .collect();
            candidates.sort_unstable();
            let mut iter = candidates.into_iter();
            while self.ecount[donor] > cap {
                let receiver = (0..p).min_by_key(|&i| self.ecount[i]).expect("p >= 1");
                if receiver == donor || self.ecount[receiver] + 1 > cap {
                    stop = true;
                    break;
                }
                let Some((_, position)) = iter.next() else {
                    stop = true;
                    break;
                };
                let to = PartitionId::from_index(receiver);
                let edge = copies[position].0;
                self.apply_move(edge, from, to);
                copies[position].1 = to;
                positions[receiver].push(position);
                plan.moves.push(EdgeMove { edge, from, to });
            }
            positions[donor] = iter.map(|(_, position)| position).collect();
        }

        // Consolidation sweep: only when replication triggered the epoch.
        if self.metrics().replication_factor > config.max_replication_factor {
            for (edge, from) in copies {
                let mut best: Option<(i64, usize)> = None;
                for i in 0..p {
                    let to = PartitionId::from_index(i);
                    if to == from || self.ecount[i] + 1 > cap {
                        continue;
                    }
                    let delta = self.move_delta(edge, from, to);
                    if delta < 0 && best.is_none_or(|(d, _)| delta < d) {
                        best = Some((delta, i));
                    }
                }
                if let Some((_, i)) = best {
                    let to = PartitionId::from_index(i);
                    self.apply_move(edge, from, to);
                    plan.moves.push(EdgeMove { edge, from, to });
                }
            }
        }

        Ok(plan)
    }
}

#[cfg(test)]
mod tests;
