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
    Hdrf { lambda: f64, degree: Vec<usize> },
    /// Position-independent hash of the edge endpoints.
    Random { salt: u64 },
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
/// endpoints and the salt. Unlike the batch form it deliberately does
/// **not** mix in the stream position, so deleting unrelated edges never
/// changes where an edge hashes — the assignment after any event sequence
/// equals a from-scratch run over the survivors.
fn dynamic_random_part(salt: u64, num_partitions: usize, edge: Edge) -> PartitionId {
    let key = mix64(edge.src.raw()) ^ mix64(edge.dst.raw().rotate_left(17)) ^ mix64(salt);
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

    pub(crate) fn hdrf(lambda: f64, config: StreamConfig) -> Result<Self> {
        Self::new(
            Policy::Hdrf {
                lambda,
                degree: Vec::new(),
            },
            config,
        )
    }

    pub(crate) fn random(salt: u64, config: StreamConfig) -> Result<Self> {
        Self::new(Policy::Random { salt }, config)
    }

    /// A short, stable name used in reports (e.g. `"EBV-dynamic"`).
    pub fn name(&self) -> String {
        match self.policy {
            Policy::Ebv { .. } => "EBV-dynamic".to_string(),
            Policy::Hdrf { .. } => "HDRF-dynamic".to_string(),
            Policy::Random { .. } => "Random-VC-dynamic".to_string(),
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
            Policy::Hdrf { degree, .. } => degree.capacity(),
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
        if let Policy::Hdrf { degree, .. } = &mut self.policy {
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
            Policy::Hdrf { lambda, degree } => {
                let lambda = *lambda;
                degree[u.index()] += 1;
                degree[v.index()] += 1;
                let du = degree[u.index()] as f64;
                let dv = degree[v.index()] as f64;
                hdrf_best_part(self, lambda, du, dv, u, v)
            }
            Policy::Random { salt } => dynamic_random_part(*salt, p, edge),
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
        if let Policy::Hdrf { degree, .. } = &mut self.policy {
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
            if let Policy::Hdrf { degree, .. } = &mut self.policy {
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
mod tests {
    use super::*;
    use crate::{EbvPartitioner, HdrfPartitioner, Partitioner, RandomVertexCutPartitioner};
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_graph::GraphBuilder;
    use std::collections::HashMap;

    fn edge(s: u64, d: u64) -> Edge {
        Edge::from((s, d))
    }

    /// Recomputes the maintained metrics from scratch over the survivors.
    fn reference_metrics(partitioner: &DynamicPartitioner) -> PartitionMetrics {
        let mut builder = GraphBuilder::directed();
        for (e, _) in partitioner.surviving() {
            builder.add_edge(e);
        }
        builder.num_vertices(partitioner.num_vertices());
        let graph = builder.build().unwrap();
        let result = partitioner.snapshot().unwrap();
        PartitionMetrics::compute(&graph, &result).unwrap()
    }

    fn assert_bit_identical(a: PartitionMetrics, b: PartitionMetrics) {
        assert!(
            a.edge_imbalance == b.edge_imbalance
                && a.vertex_imbalance == b.vertex_imbalance
                && a.replication_factor == b.replication_factor,
            "maintained {a:?} != recomputed {b:?}"
        );
    }

    /// An insert-only stream reproduces the single pass of batch EBV (input
    /// order) and batch HDRF: every insert's partition, the snapshot and
    /// the maintained metrics.
    #[test]
    fn insert_only_matches_streaming_bit_for_bit() {
        let g = RmatGenerator::new(8, 8).with_seed(21).generate().unwrap();
        let config = StreamConfig::new(5)
            .with_expected_vertices(g.num_vertices())
            .with_expected_edges(g.num_edges());
        let batch_ebv = EbvPartitioner::new().unsorted().partition(&g, 5).unwrap();
        let batch_hdrf = HdrfPartitioner::new().partition(&g, 5).unwrap();
        for (mut dynamic, batch) in [
            (EbvPartitioner::new().dynamic(config).unwrap(), batch_ebv),
            (HdrfPartitioner::new().dynamic(config).unwrap(), batch_hdrf),
        ] {
            let name = dynamic.name();
            let assignment = batch.as_vertex_cut().unwrap().assignment();
            for (&e, &expected) in g.edges().iter().zip(assignment) {
                assert_eq!(dynamic.insert(e), expected, "{name} edge {e}");
            }
            assert_eq!(dynamic.snapshot().unwrap(), batch, "{name}");
            let metrics = PartitionMetrics::compute(&g, &batch).unwrap();
            assert_bit_identical(dynamic.metrics(), metrics);
        }
    }

    #[test]
    fn deletion_reverts_state_exactly() {
        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(3)).unwrap();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            dynamic.insert(edge(s, d));
        }
        let before = dynamic.metrics();
        let part = dynamic.insert(edge(4, 5));
        assert_eq!(dynamic.delete(edge(4, 5)).unwrap(), part);
        let after = dynamic.metrics();
        assert_eq!(dynamic.live_edges(), 5);
        // The universe grew (vertices 4 and 5 were observed), so the
        // replication factor denominator changed; load and cover state are
        // identical.
        assert_eq!(before.edge_imbalance, after.edge_imbalance);
        assert_eq!(before.vertex_imbalance, after.vertex_imbalance);
        assert_bit_identical(after, reference_metrics(&dynamic));
    }

    #[test]
    fn duplicate_copies_form_a_multiset_with_lifo_deletion() {
        let mut dynamic = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(4))
            .unwrap();
        let e = edge(7, 9);
        let p1 = dynamic.insert(e);
        let p2 = dynamic.insert(e);
        assert_eq!(p1, p2, "edge-hash placement is copy-independent");
        assert_eq!(dynamic.live_edges(), 2);
        dynamic.delete(e).unwrap();
        assert_eq!(dynamic.live_edges(), 1);
        assert!(dynamic.covers(VertexId::new(7), p1));
        dynamic.delete(e).unwrap();
        assert!(!dynamic.covers(VertexId::new(7), p1));
        assert!(matches!(
            dynamic.delete(e),
            Err(PartitionError::EdgeNotPresent { .. })
        ));
    }

    #[test]
    fn metrics_stay_exact_under_interleaved_churn() {
        let g = RmatGenerator::new(7, 8).with_seed(3).generate().unwrap();
        let mut dynamic = HdrfPartitioner::new()
            .dynamic(StreamConfig::new(4))
            .unwrap();
        let mut live: Vec<Edge> = Vec::new();
        for (i, &e) in g.edges().iter().enumerate() {
            dynamic.insert(e);
            live.push(e);
            if i % 3 == 2 {
                let victim = live.swap_remove((i * 7) % live.len());
                dynamic.delete(victim).unwrap();
            }
        }
        assert_eq!(dynamic.live_edges(), live.len());
        assert_bit_identical(dynamic.metrics(), reference_metrics(&dynamic));
    }

    #[test]
    fn dynamic_random_is_history_oblivious() {
        let g = RmatGenerator::new(7, 6).with_seed(5).generate().unwrap();
        let mut dynamic = RandomVertexCutPartitioner::new()
            .with_salt(11)
            .dynamic(StreamConfig::new(6))
            .unwrap();
        for &e in g.edges() {
            dynamic.insert(e);
        }
        for &e in g.edges().iter().step_by(2) {
            dynamic.delete(e).unwrap();
        }
        let survivors: Vec<(Edge, PartitionId)> = dynamic.surviving().collect();
        let mut fresh = RandomVertexCutPartitioner::new()
            .with_salt(11)
            .dynamic(StreamConfig::new(6))
            .unwrap();
        for &(e, expected) in &survivors {
            assert_eq!(fresh.insert(e), expected, "edge {e}");
        }
        assert_eq!(fresh.snapshot().unwrap(), dynamic.snapshot().unwrap());
    }

    /// Churns a partitioner and returns the edges that are still live (in
    /// an arbitrary but deterministic order usable for further deletes).
    fn churn(dynamic: &mut DynamicPartitioner, graph_seed: u64) -> Vec<Edge> {
        let g = RmatGenerator::new(7, 8)
            .with_seed(graph_seed)
            .generate()
            .unwrap();
        let mut live: Vec<Edge> = Vec::new();
        for (i, &e) in g.edges().iter().enumerate() {
            dynamic.insert(e);
            live.push(e);
            if i % 4 == 3 {
                let victim = live.swap_remove((i * 13) % live.len());
                dynamic.delete(victim).unwrap();
            }
        }
        live
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn restored_partitioner_continues_bit_identically() {
        let cases: [(fn() -> DynamicPartitioner, &str); 3] = [
            (
                || {
                    EbvPartitioner::new()
                        .dynamic(StreamConfig::new(4).with_expected_edges(200))
                        .unwrap()
                },
                "ebv",
            ),
            (
                || {
                    HdrfPartitioner::new()
                        .dynamic(StreamConfig::new(4))
                        .unwrap()
                },
                "hdrf",
            ),
            (
                || {
                    RandomVertexCutPartitioner::new()
                        .dynamic(StreamConfig::new(4))
                        .unwrap()
                },
                "random",
            ),
        ];
        for (make, name) in cases {
            let mut original = make();
            let mut live = churn(&mut original, 17);

            let survivors: Vec<(Edge, PartitionId)> = original.surviving().collect();
            let mut restored = make();
            restored
                .restore(original.num_vertices(), survivors.iter().copied())
                .unwrap();
            assert_eq!(restored.live_edges(), original.live_edges(), "{name}");
            assert_eq!(restored.num_vertices(), original.num_vertices(), "{name}");
            assert_eq!(
                restored.snapshot().unwrap(),
                original.snapshot().unwrap(),
                "{name}"
            );

            // Future churn must place and delete bit-identically.
            let extra = RmatGenerator::new(6, 8).with_seed(23).generate().unwrap();
            for (i, &e) in extra.edges().iter().enumerate() {
                assert_eq!(original.insert(e), restored.insert(e), "{name} edge {e}");
                live.push(e);
                if i % 3 == 1 {
                    let victim = live.swap_remove((i * 11) % live.len());
                    assert_eq!(
                        original.delete(victim).unwrap(),
                        restored.delete(victim).unwrap(),
                        "{name} delete {victim}"
                    );
                }
            }
            assert_eq!(
                original.snapshot().unwrap(),
                restored.snapshot().unwrap(),
                "{name} final"
            );
            assert_bit_identical(original.metrics(), restored.metrics());
            assert_bit_identical(restored.metrics(), reference_metrics(&restored));
        }
    }

    #[test]
    fn restore_rejects_non_fresh_state_and_bad_pairs() {
        let mut used = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        used.insert(edge(0, 1));
        assert!(matches!(
            used.restore(4, [(edge(1, 2), PartitionId::new(0))]),
            Err(PartitionError::InvalidParameter { .. })
        ));

        let mut fresh = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        assert!(matches!(
            fresh.restore(4, [(edge(0, 1), PartitionId::new(7))]),
            Err(PartitionError::InconsistentAssignment { .. })
        ));
        let mut fresh = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        assert!(matches!(
            fresh.restore(2, [(edge(0, 5), PartitionId::new(0))]),
            Err(PartitionError::InconsistentAssignment { .. })
        ));
    }

    #[test]
    fn rebalancer_restores_edge_balance() {
        let g = RmatGenerator::new(8, 8).with_seed(13).generate().unwrap();
        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        for &e in g.edges() {
            dynamic.insert(e);
        }
        // Starve three partitions: delete most of their edges so the
        // remaining load concentrates on partition 0.
        let victims: Vec<Edge> = dynamic
            .surviving()
            .filter(|(_, part)| part.index() != 0)
            .map(|(e, _)| e)
            .collect();
        for e in victims.iter().take(victims.len() * 9 / 10) {
            dynamic.delete(*e).unwrap();
        }
        let config = RebalanceConfig::new()
            .with_max_edge_imbalance(1.2)
            .with_target_edge_imbalance(1.05);
        let before = dynamic.metrics();
        assert!(before.edge_imbalance > 1.2, "setup is skewed: {before:?}");
        assert!(dynamic.needs_rebalance(&config));
        let plan = dynamic.rebalance(&config).unwrap();
        assert!(!plan.is_empty());
        let after = dynamic.metrics();
        assert!(
            after.edge_imbalance < before.edge_imbalance,
            "rebalance must reduce imbalance: {} -> {}",
            before.edge_imbalance,
            after.edge_imbalance
        );
        assert!(!dynamic.needs_rebalance(&config), "after {after:?}");
        // The migrated state is still exactly consistent.
        assert_bit_identical(after, reference_metrics(&dynamic));
        // And the plan replays: every move names a partition in range.
        for m in plan.moves() {
            assert!(m.from.index() < 4 && m.to.index() < 4 && m.from != m.to);
        }
    }

    #[test]
    fn consolidation_sweep_reduces_replication() {
        // Spread copies of a small clique across partitions with the
        // position-dependent streaming-style churn, then ask the rebalancer
        // to consolidate.
        let mut dynamic = HdrfPartitioner::new()
            .with_lambda(50.0)
            .dynamic(StreamConfig::new(4))
            .unwrap();
        for s in 0..6u64 {
            for d in 0..6u64 {
                if s != d {
                    dynamic.insert(edge(s, d));
                }
            }
        }
        let before = dynamic.metrics();
        let config = RebalanceConfig::new()
            .with_max_edge_imbalance(4.0)
            .with_target_edge_imbalance(1.4)
            .with_max_replication_factor(1.0);
        let plan = dynamic.rebalance(&config).unwrap();
        let after = dynamic.metrics();
        assert!(!plan.is_empty());
        assert!(
            after.replication_factor < before.replication_factor,
            "consolidation must free replicas: {} -> {}",
            before.replication_factor,
            after.replication_factor
        );
        assert_bit_identical(after, reference_metrics(&dynamic));
    }

    #[test]
    fn rebalance_handles_tiny_and_near_empty_graphs() {
        let aggressive = RebalanceConfig::new()
            .with_max_edge_imbalance(1.0)
            .with_target_edge_imbalance(1.0);

        // Empty graph: nothing to migrate, nothing to panic over.
        let mut empty = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        assert!(!empty.needs_rebalance(&aggressive));
        assert!(empty.rebalance(&aggressive).unwrap().is_empty());

        // One-edge graph: the single copy cannot be split; the epoch must
        // terminate with the copy intact.
        let mut single = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        single.insert(edge(0, 1));
        let plan = single.rebalance(&aggressive).unwrap();
        assert!(plan.is_empty(), "one edge in one partition is feasible");
        assert_eq!(single.live_edges(), 1);
        assert_bit_identical(single.metrics(), reference_metrics(&single));

        // More partitions than edges (`average < 1`): without the clamp the
        // scaled target floors to a zero cap that blocks every receiver.
        // Three copies of one edge hash to the same partition (the Random
        // policy is copy-independent), giving a deterministic skew; the
        // epoch must spread them to one copy per partition.
        let mut sparse = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(8))
            .unwrap();
        for _ in 0..3 {
            sparse.insert(edge(0, 1));
        }
        assert_eq!(*sparse.edge_counts().iter().max().unwrap(), 3);
        assert!(sparse.needs_rebalance(&aggressive));
        let plan = sparse.rebalance(&aggressive).unwrap();
        assert_eq!(plan.len(), 2, "two copies migrate to empty partitions");
        assert_eq!(*sparse.edge_counts().iter().max().unwrap(), 1);
        assert_bit_identical(sparse.metrics(), reference_metrics(&sparse));
    }

    #[test]
    fn below_threshold_epoch_is_a_no_op() {
        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            dynamic.insert(edge(s, d));
        }
        let plan = dynamic
            .rebalance(&RebalanceConfig::new().with_max_edge_imbalance(8.0))
            .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(EbvPartitioner::new().dynamic(StreamConfig::new(0)).is_err());
        assert!(EbvPartitioner::new()
            .with_alpha(-1.0)
            .dynamic(StreamConfig::new(2))
            .is_err());
        assert!(HdrfPartitioner::new()
            .with_lambda(f64::NAN)
            .dynamic(StreamConfig::new(2))
            .is_err());
        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
        dynamic.insert(edge(0, 1));
        let bad = RebalanceConfig::new()
            .with_max_edge_imbalance(1.1)
            .with_target_edge_imbalance(2.0);
        assert!(dynamic.rebalance(&bad).is_err());
        assert!(RebalanceConfig::new()
            .with_max_edge_imbalance(0.5)
            .validate()
            .is_err());
    }

    #[test]
    fn empty_partitioner_reports_unit_metrics() {
        let dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(3)).unwrap();
        let m = dynamic.metrics();
        assert_eq!(m.edge_imbalance, 1.0);
        assert_eq!(m.vertex_imbalance, 1.0);
        assert_eq!(m.replication_factor, 1.0);
        assert!(dynamic.is_empty());
        assert_eq!(dynamic.name(), "EBV-dynamic");
        assert!(dynamic.state_bytes() >= 3 * std::mem::size_of::<usize>());
    }

    #[test]
    fn compaction_bounds_state_by_live_edges() {
        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        // A window-like workload: 50k arrivals, live set capped at 100 by
        // deleting the oldest edge on every arrival past the cap.
        let mut live: std::collections::VecDeque<Edge> = std::collections::VecDeque::new();
        for i in 0..50_000u64 {
            let e = edge(i % 997, (i * 7 + 1) % 997);
            dynamic.insert(e);
            live.push_back(e);
            if live.len() > 100 {
                dynamic.delete(live.pop_front().unwrap()).unwrap();
            }
        }
        assert_eq!(dynamic.live_edges(), 100);
        // Without compaction the log alone would hold 50k entries
        // (~1.7 MB); compaction keeps resident state proportional to the
        // live set.
        assert!(
            dynamic.state_bytes() < 100_000,
            "state not compacted: {} bytes",
            dynamic.state_bytes()
        );
        // The compacted state is still exactly consistent and usable.
        assert_bit_identical(dynamic.metrics(), reference_metrics(&dynamic));
        let (expected_edge, expected_part) = dynamic.surviving().next().unwrap();
        assert_eq!(dynamic.delete(expected_edge).unwrap(), expected_part);
    }

    /// The state layout [`DynamicPartitioner`] had before its dense
    /// refcounts and intrusive copy stacks: one incidence map per
    /// partition, one position stack per edge, HDRF degrees in a map. Kept
    /// as the reference the dense layout is checked against; it scores
    /// through the same [`CoverLookup`] formulas, so any divergence in
    /// `covers`/`vcount` shows up as a different placement.
    struct MapOracle {
        policy: OraclePolicy,
        num_partitions: usize,
        log: Vec<(Edge, PartitionId, bool)>,
        copies: HashMap<Edge, Vec<usize>>,
        ecount: Vec<usize>,
        live_edges: usize,
        incidence: Vec<HashMap<VertexId, usize>>,
        max_vertex_exclusive: usize,
        expected_vertices: Option<usize>,
        expected_edges: Option<usize>,
    }

    enum OraclePolicy {
        Ebv {
            alpha: f64,
            beta: f64,
        },
        Hdrf {
            lambda: f64,
            degree: HashMap<VertexId, usize>,
        },
        Random {
            salt: u64,
        },
    }

    impl CoverLookup for MapOracle {
        fn covers(&self, v: VertexId, i: usize) -> bool {
            self.incidence[i].contains_key(&v)
        }

        fn vcount(&self, i: usize) -> usize {
            self.incidence[i].len()
        }

        fn ecount(&self) -> &[usize] {
            &self.ecount
        }
    }

    impl MapOracle {
        /// An empty oracle with the policy and hints of `like`.
        fn like(like: &DynamicPartitioner) -> Self {
            let policy = match &like.policy {
                Policy::Ebv { alpha, beta } => OraclePolicy::Ebv {
                    alpha: *alpha,
                    beta: *beta,
                },
                Policy::Hdrf { lambda, .. } => OraclePolicy::Hdrf {
                    lambda: *lambda,
                    degree: HashMap::new(),
                },
                Policy::Random { salt } => OraclePolicy::Random { salt: *salt },
            };
            MapOracle {
                policy,
                num_partitions: like.num_partitions,
                log: Vec::new(),
                copies: HashMap::new(),
                ecount: vec![0; like.num_partitions],
                live_edges: 0,
                incidence: vec![HashMap::new(); like.num_partitions],
                max_vertex_exclusive: 0,
                expected_vertices: like.expected_vertices,
                expected_edges: like.expected_edges,
            }
        }

        fn num_vertices(&self) -> usize {
            self.expected_vertices
                .unwrap_or(0)
                .max(self.max_vertex_exclusive)
        }

        fn bump_degrees(&mut self, edge: Edge) {
            if let OraclePolicy::Hdrf { degree, .. } = &mut self.policy {
                *degree.entry(edge.src).or_insert(0) += 1;
                *degree.entry(edge.dst).or_insert(0) += 1;
            }
        }

        fn insert(&mut self, edge: Edge) -> PartitionId {
            let needed = edge.src.index().max(edge.dst.index()) + 1;
            self.max_vertex_exclusive = self.max_vertex_exclusive.max(needed);
            let p = self.num_partitions;
            let (u, v) = edge.endpoints();
            self.bump_degrees(edge);
            let part = match &self.policy {
                OraclePolicy::Ebv { alpha, beta } => {
                    let edges_per_part = match self.expected_edges {
                        Some(e) => e as f64 / p as f64,
                        None => (self.live_edges + 1) as f64 / p as f64,
                    };
                    let vertices_per_part = self.num_vertices() as f64 / p as f64;
                    ebv_best_part(self, *alpha, *beta, edges_per_part, vertices_per_part, u, v)
                }
                OraclePolicy::Hdrf { lambda, degree } => {
                    hdrf_best_part(self, *lambda, degree[&u] as f64, degree[&v] as f64, u, v)
                }
                OraclePolicy::Random { salt } => dynamic_random_part(*salt, p, edge),
            };
            self.record(edge, part);
            part
        }

        fn record(&mut self, edge: Edge, part: PartitionId) {
            self.copies.entry(edge).or_default().push(self.log.len());
            self.log.push((edge, part, true));
            self.ecount[part.index()] += 1;
            self.live_edges += 1;
            *self.incidence[part.index()].entry(edge.src).or_insert(0) += 1;
            if edge.dst != edge.src {
                *self.incidence[part.index()].entry(edge.dst).or_insert(0) += 1;
            }
        }

        fn delete(&mut self, edge: Edge) -> Option<PartitionId> {
            let stack = self.copies.get_mut(&edge)?;
            let position = stack.pop()?;
            if stack.is_empty() {
                self.copies.remove(&edge);
            }
            self.log[position].2 = false;
            let part = self.log[position].1;
            self.ecount[part.index()] -= 1;
            self.live_edges -= 1;
            let endpoints = if edge.dst == edge.src {
                vec![edge.src]
            } else {
                vec![edge.src, edge.dst]
            };
            for v in endpoints {
                let map = &mut self.incidence[part.index()];
                *map.get_mut(&v).unwrap() -= 1;
                if map[&v] == 0 {
                    map.remove(&v);
                }
            }
            if let OraclePolicy::Hdrf { degree, .. } = &mut self.policy {
                for v in [edge.src, edge.dst] {
                    *degree.get_mut(&v).unwrap() -= 1;
                    if degree[&v] == 0 {
                        degree.remove(&v);
                    }
                }
            }
            Some(part)
        }

        /// `DynamicPartitioner::restore` over the map layout.
        fn restored(
            like: &DynamicPartitioner,
            universe: usize,
            pairs: impl IntoIterator<Item = (Edge, PartitionId)>,
        ) -> Self {
            let mut oracle = MapOracle::like(like);
            for (edge, part) in pairs {
                oracle.record(edge, part);
                oracle.bump_degrees(edge);
            }
            oracle.max_vertex_exclusive = universe;
            oracle
        }

        fn surviving(&self) -> Vec<(Edge, PartitionId)> {
            let live = self.log.iter().filter(|entry| entry.2);
            live.map(|&(edge, part, _)| (edge, part)).collect()
        }

        fn vertex_counts(&self) -> Vec<usize> {
            self.incidence.iter().map(|m| m.len()).collect()
        }

        fn metrics(&self) -> PartitionMetrics {
            maintained_metrics(
                &self.ecount,
                &self.vertex_counts(),
                self.live_edges,
                self.num_vertices(),
            )
        }
    }

    /// Every observable of the dense layout equals the map oracle's.
    fn assert_matches_oracle(dynamic: &DynamicPartitioner, oracle: &MapOracle, context: &str) {
        assert_eq!(
            dynamic.surviving().collect::<Vec<_>>(),
            oracle.surviving(),
            "{context}"
        );
        assert_eq!(dynamic.live_edges(), oracle.live_edges, "{context}");
        assert_eq!(dynamic.num_vertices(), oracle.num_vertices(), "{context}");
        assert_eq!(dynamic.edge_counts(), oracle.ecount.as_slice(), "{context}");
        assert_eq!(dynamic.vertex_counts(), oracle.vertex_counts(), "{context}");
        // One vertex past the universe too: an unobserved vertex is covered
        // nowhere.
        for v in 0..=dynamic.num_vertices() {
            let v = VertexId::from(v);
            for i in 0..dynamic.num_partitions() {
                assert_eq!(
                    dynamic.covers(v, PartitionId::from_index(i)),
                    CoverLookup::covers(oracle, v, i),
                    "{context}: vertex {v} partition {i}"
                );
            }
        }
        assert_bit_identical(dynamic.metrics(), oracle.metrics());
        if let (Policy::Hdrf { degree: dense, .. }, OraclePolicy::Hdrf { degree: map, .. }) =
            (&dynamic.policy, &oracle.policy)
        {
            for (v, &d) in dense.iter().enumerate() {
                let expected = map.get(&VertexId::from(v)).copied().unwrap_or(0);
                assert_eq!(d, expected, "{context}: HDRF degree of vertex {v}");
            }
            assert!(map.keys().all(|v| v.index() < dense.len()), "{context}");
        }
    }

    mod layout_differential {
        use proptest::prelude::*;

        use super::*;

        fn make(policy: u8, hinted: bool) -> DynamicPartitioner {
            // An exact-looking hint that the stream then outgrows, or none.
            let mut config = StreamConfig::new(3);
            if hinted {
                config = config.with_expected_vertices(4).with_expected_edges(24);
            }
            match policy {
                0 => EbvPartitioner::new().dynamic(config).unwrap(),
                1 => HdrfPartitioner::new().dynamic(config).unwrap(),
                _ => RandomVertexCutPartitioner::new().dynamic(config).unwrap(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Random insert/delete/rebalance/restore sequences — duplicate
            /// copies, self-loops, deletes of dead edges, universes that
            /// grow mid-stream past (or without) a hint, all three policies
            /// — leave the dense layout and the map oracle with identical
            /// placements, survivors, covers, counts, metric bits and HDRF
            /// degrees.
            #[test]
            fn dense_state_matches_the_map_oracle(
                policy in 0u8..3,
                hinted in any::<bool>(),
                ops in proptest::collection::vec((0u8..10, 0u64..7, 0u64..7), 1..120),
            ) {
                let mut dynamic = make(policy, hinted);
                let mut oracle = MapOracle::like(&dynamic);
                for (step, (kind, a, b)) in ops.into_iter().enumerate() {
                    // The universe widens as the sequence advances.
                    let widen = (step / 24) as u64;
                    let edge = edge(a + widen, if kind == 9 { a + widen } else { b });
                    let context = format!("policy {policy} hinted {hinted} step {step}");
                    match kind {
                        0..=4 | 9 => {
                            prop_assert_eq!(dynamic.insert(edge), oracle.insert(edge), "{}", context);
                        }
                        5..=6 => {
                            prop_assert_eq!(
                                dynamic.delete(edge).ok(),
                                oracle.delete(edge),
                                "{}", context
                            );
                        }
                        7 => {
                            // Migrations happen on the dense state; the
                            // oracle re-derives everything from the migrated
                            // survivors, so the maintained refcounts must
                            // equal a from-scratch recount.
                            let aggressive = RebalanceConfig::new()
                                .with_max_edge_imbalance(1.0)
                                .with_target_edge_imbalance(1.0)
                                .with_max_replication_factor(1.0);
                            dynamic.rebalance(&aggressive).unwrap();
                            oracle = MapOracle::restored(
                                &dynamic,
                                dynamic.num_vertices(),
                                dynamic.surviving(),
                            );
                        }
                        _ => {
                            // Checkpoint-style restore of both sides.
                            let survivors: Vec<_> = dynamic.surviving().collect();
                            let universe = dynamic.num_vertices();
                            let mut restored = make(policy, hinted);
                            restored.restore(universe, survivors.iter().copied()).unwrap();
                            dynamic = restored;
                            oracle = MapOracle::restored(&dynamic, universe, survivors);
                        }
                    }
                    assert_matches_oracle(&dynamic, &oracle, &context);
                }
            }
        }
    }

    /// Long enough to compact the log several times while duplicate copies
    /// are stacked: the rebuilt `prev` chains must keep deleting copies in
    /// the oracle's LIFO order.
    #[test]
    fn copy_stacks_survive_compaction_like_the_oracle() {
        for policy in 0u8..3 {
            let mut dynamic = match policy {
                0 => EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap(),
                1 => HdrfPartitioner::new()
                    .dynamic(StreamConfig::new(4))
                    .unwrap(),
                _ => RandomVertexCutPartitioner::new()
                    .dynamic(StreamConfig::new(4))
                    .unwrap(),
            };
            let mut oracle = MapOracle::like(&dynamic);
            let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(policy);
            let mut compactions = 0;
            for step in 0..6_000 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let e = edge((lcg >> 33) % 12, (lcg >> 45) % 12);
                // Insert-heavy until ~300 live copies, then delete-heavy.
                let insert = (lcg >> 20) % 100 < if dynamic.live_edges() < 300 { 70 } else { 30 };
                if insert {
                    assert_eq!(dynamic.insert(e), oracle.insert(e), "step {step}");
                } else {
                    let before = dynamic.log.entries();
                    assert_eq!(dynamic.delete(e).ok(), oracle.delete(e), "step {step}");
                    compactions += usize::from(dynamic.log.entries() < before);
                }
            }
            assert!(
                compactions >= 2,
                "policy {policy}: {compactions} compactions"
            );
            assert_matches_oracle(&dynamic, &oracle, &format!("policy {policy}"));
        }
    }

    #[test]
    fn self_loops_count_one_replica() {
        let mut dynamic = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(2))
            .unwrap();
        let part = dynamic.insert(edge(3, 3));
        assert_eq!(dynamic.vertex_counts()[part.index()], 1);
        dynamic.delete(edge(3, 3)).unwrap();
        assert_eq!(dynamic.vertex_counts()[part.index()], 0);
    }
}
