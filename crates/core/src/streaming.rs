//! Streaming (online) forms of the vertex-cut partitioners.
//!
//! EBV is defined by the paper as a *single-pass* algorithm: Algorithm 1
//! walks the edge list once and keeps only O(|V| · p) bits of state. The
//! batch [`Partitioner`](crate::Partitioner) interface hides that property
//! behind a fully materialized [`Graph`](ebv_graph::Graph); this module
//! exposes it directly. A [`StreamingPartitioner`] consumes edges one at a
//! time — [`StreamingPartitioner::ingest`] returns the partition of each
//! edge in O(state) — and [`StreamingPartitioner::finish`] produces the same
//! [`PartitionResult`] the batch interface would.
//!
//! Guarantees:
//!
//! * **EBV** ([`StreamingEbv`]): with exact
//!   [`StreamConfig::with_expected_vertices`]/[`StreamConfig::with_expected_edges`]
//!   hints, the output is *bit-identical* to
//!   [`EbvPartitioner`](crate::EbvPartitioner) under
//!   [`EdgeOrder::Input`](crate::EdgeOrder::Input). Without hints it runs in
//!   a self-normalizing online mode (balance terms normalized by the stream
//!   seen so far).
//! * **HDRF** ([`StreamingHdrf`]): bit-identical to
//!   [`HdrfPartitioner`](crate::HdrfPartitioner) in its default input order
//!   — HDRF was a one-pass algorithm all along.
//! * **Random** ([`StreamingRandom`]): bit-identical to
//!   [`RandomVertexCutPartitioner`](crate::RandomVertexCutPartitioner); the
//!   assignment is a pure hash of the edge and its stream position.
//! * **DBH** ([`StreamingDbh`]): a greedy one-pass variant that hashes the
//!   endpoint with the lower *partial* degree (the degree observed in the
//!   stream so far, as in the original streaming formulation), since full
//!   degrees are unavailable online. It intentionally differs from the
//!   batch [`DbhPartitioner`](crate::DbhPartitioner), which uses final
//!   degrees.

use std::fmt;

use ebv_graph::{Edge, VertexId};

use crate::assignment::{EdgePartition, PartitionResult};
use crate::baselines::mix64;
use crate::error::{PartitionError, Result};
use crate::membership::MembershipMatrix;
use crate::scoring::{ebv_best_part, hdrf_best_part, maintained_metrics, CoverLookup};
use crate::types::PartitionId;

/// Configuration shared by every streaming partitioner: the partition count
/// plus optional cardinality hints.
///
/// The hints matter for EBV: Algorithm 1 normalizes its balance terms by
/// `|E| / p` and `|V| / p`, which a one-pass algorithm cannot know mid
/// stream. Supplying the exact totals reproduces the batch output exactly;
/// omitting them switches to running normalizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    num_partitions: usize,
    expected_vertices: Option<usize>,
    expected_edges: Option<usize>,
}

impl StreamConfig {
    /// Creates a configuration for `num_partitions` partitions and no
    /// cardinality hints.
    pub fn new(num_partitions: usize) -> Self {
        StreamConfig {
            num_partitions,
            expected_vertices: None,
            expected_edges: None,
        }
    }

    /// Declares the number of vertices the stream will reference. A zero
    /// hint carries no information and is treated as "no hint".
    pub fn with_expected_vertices(mut self, num_vertices: usize) -> Self {
        self.expected_vertices = (num_vertices > 0).then_some(num_vertices);
        self
    }

    /// Declares the number of edges the stream will deliver. A zero hint
    /// carries no information and is treated as "no hint", so a wrong zero
    /// can never poison EBV's balance normalizers.
    pub fn with_expected_edges(mut self, num_edges: usize) -> Self {
        self.expected_edges = (num_edges > 0).then_some(num_edges);
        self
    }

    /// The configured partition count.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The declared vertex count, if any.
    pub fn expected_vertices(&self) -> Option<usize> {
        self.expected_vertices
    }

    /// The declared edge count, if any.
    pub fn expected_edges(&self) -> Option<usize> {
        self.expected_edges
    }

    fn validate(&self) -> Result<()> {
        if self.num_partitions == 0 {
            return Err(PartitionError::InvalidPartitionCount {
                requested: 0,
                message: "at least one partition is required".to_string(),
            });
        }
        Ok(())
    }
}

/// Running partition-quality metrics over the prefix of the stream ingested
/// so far — the same three quantities as
/// [`PartitionMetrics`](crate::PartitionMetrics), computed incrementally.
///
/// When the stream is exhausted (and exact cardinality hints were given for
/// the vertex universe) these equal the batch metrics of the final
/// partition exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingMetrics {
    /// Number of edges ingested so far.
    pub edges_ingested: usize,
    /// Size of the vertex universe: the configured
    /// [`StreamConfig::with_expected_vertices`] hint, or the densely
    /// numbered universe implied by the largest endpoint seen so far.
    pub observed_vertices: usize,
    /// `max_i |E_i| / (edges_ingested / p)`.
    pub edge_imbalance: f64,
    /// `max_i |V_i| / (Σ_i |V_i| / p)`.
    pub vertex_imbalance: f64,
    /// `Σ_i |V_i| / observed_vertices`.
    pub replication_factor: f64,
}

impl fmt::Display for StreamingMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} edges: edge imbalance {:.3}, vertex imbalance {:.3}, replication factor {:.3}",
            self.edges_ingested,
            self.edge_imbalance,
            self.vertex_imbalance,
            self.replication_factor
        )
    }
}

/// A one-pass vertex-cut partitioner: edges go in, partition assignments
/// come out, and only O(state) work happens per edge.
///
/// Obtain implementations from the batch configurations via
/// [`EbvPartitioner::streaming`](crate::EbvPartitioner::streaming),
/// [`HdrfPartitioner::streaming`](crate::HdrfPartitioner::streaming),
/// [`DbhPartitioner::streaming`](crate::DbhPartitioner::streaming) and
/// [`RandomVertexCutPartitioner::streaming`](crate::RandomVertexCutPartitioner::streaming).
/// The trait is object safe; pipelines drive `Box<dyn
/// StreamingPartitioner>` values.
pub trait StreamingPartitioner {
    /// A short, stable name used in reports (e.g. `"EBV-stream"`).
    fn name(&self) -> String;

    /// The configured partition count.
    fn num_partitions(&self) -> usize;

    /// Assigns the next edge of the stream to a partition and updates the
    /// internal state. O(p) for score-based partitioners, O(1) for
    /// hash-based ones.
    fn ingest(&mut self, edge: Edge) -> PartitionId;

    /// Number of edges ingested so far.
    fn edges_ingested(&self) -> usize;

    /// Running quality metrics over the prefix ingested so far.
    fn delta_metrics(&self) -> StreamingMetrics;

    /// Approximate bytes of partitioner state currently resident (the
    /// membership bitset, per-partition counters, degree tables and the
    /// assignment log). A memory proxy for benchmarks; excludes allocator
    /// overhead.
    fn state_bytes(&self) -> usize;

    /// Consumes the accumulated assignment and returns the final
    /// [`PartitionResult`]. The partitioner is empty afterwards: a second
    /// call observes a partitioner that has ingested nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from result construction.
    fn finish(&mut self) -> Result<PartitionResult>;
}

/// State shared by every streaming implementation: the membership bitset,
/// per-partition edge counters and the assignment log.
#[derive(Debug, Clone)]
struct StreamState {
    num_partitions: usize,
    keep: MembershipMatrix,
    ecount: Vec<usize>,
    assignment: Vec<PartitionId>,
    max_vertex_exclusive: usize,
    expected_vertices: Option<usize>,
    expected_edges: Option<usize>,
}

impl StreamState {
    fn new(config: StreamConfig) -> Result<Self> {
        config.validate()?;
        let initial_vertices = config.expected_vertices.unwrap_or(0);
        Ok(StreamState {
            num_partitions: config.num_partitions,
            keep: MembershipMatrix::new(initial_vertices, config.num_partitions),
            ecount: vec![0; config.num_partitions],
            assignment: Vec::new(),
            max_vertex_exclusive: 0,
            expected_vertices: config.expected_vertices,
            expected_edges: config.expected_edges,
        })
    }

    /// Grows the vertex universe to cover both endpoints.
    fn observe(&mut self, edge: Edge) {
        let needed = edge.src.index().max(edge.dst.index()) + 1;
        if needed > self.max_vertex_exclusive {
            self.max_vertex_exclusive = needed;
        }
        self.keep.grow_to(needed);
    }

    /// Records the chosen partition for an edge: bumps the edge counter,
    /// inserts both endpoints into the membership set and logs the
    /// assignment.
    fn record(&mut self, edge: Edge, part: PartitionId) {
        self.assignment.push(part);
        self.ecount[part.index()] += 1;
        self.keep.insert(edge.src, part);
        if edge.dst != edge.src {
            self.keep.insert(edge.dst, part);
        }
    }

    fn observed_vertices(&self) -> usize {
        self.expected_vertices
            .unwrap_or(0)
            .max(self.max_vertex_exclusive)
    }

    fn metrics(&self) -> StreamingMetrics {
        let edges = self.assignment.len();
        let vcounts: Vec<usize> = (0..self.num_partitions).map(|i| self.vcount(i)).collect();
        let observed = self.observed_vertices();
        let metrics = maintained_metrics(&self.ecount, &vcounts, edges, observed);
        StreamingMetrics {
            edges_ingested: edges,
            observed_vertices: observed,
            edge_imbalance: metrics.edge_imbalance,
            vertex_imbalance: metrics.vertex_imbalance,
            replication_factor: metrics.replication_factor,
        }
    }

    fn state_bytes(&self) -> usize {
        let words_per_row = self.num_partitions.div_ceil(64).max(1);
        self.keep.num_vertices() * words_per_row * 8
            + self.num_partitions * 2 * std::mem::size_of::<usize>()
            + self.assignment.len() * std::mem::size_of::<PartitionId>()
    }

    fn take_result(&mut self) -> Result<PartitionResult> {
        let assignment = std::mem::take(&mut self.assignment);
        let reset_vertices = self.expected_vertices.unwrap_or(0);
        self.keep = MembershipMatrix::new(reset_vertices, self.num_partitions);
        self.ecount = vec![0; self.num_partitions];
        self.max_vertex_exclusive = 0;
        Ok(EdgePartition::new(self.num_partitions, assignment)?.into())
    }
}

impl CoverLookup for StreamState {
    fn covers(&self, v: VertexId, i: usize) -> bool {
        self.keep.contains(v, PartitionId::from_index(i))
    }

    fn vcount(&self, i: usize) -> usize {
        self.keep.partition_size(PartitionId::from_index(i))
    }

    fn ecount(&self) -> &[usize] {
        &self.ecount
    }
}

/// The streaming form of [`EbvPartitioner`](crate::EbvPartitioner) — see the
/// [module documentation](self) for the exactness guarantee.
#[derive(Debug, Clone)]
pub struct StreamingEbv {
    alpha: f64,
    beta: f64,
    state: StreamState,
}

impl StreamingEbv {
    pub(crate) fn from_parts(alpha: f64, beta: f64, config: StreamConfig) -> Result<Self> {
        Ok(StreamingEbv {
            alpha,
            beta,
            state: StreamState::new(config)?,
        })
    }
}

impl StreamingPartitioner for StreamingEbv {
    fn name(&self) -> String {
        "EBV-stream".to_string()
    }

    fn num_partitions(&self) -> usize {
        self.state.num_partitions
    }

    fn ingest(&mut self, edge: Edge) -> PartitionId {
        self.state.observe(edge);
        let p = self.state.num_partitions;
        let (u, v) = edge.endpoints();

        // The batch algorithm normalizes by |E| / p and |V| / p of the full
        // graph; the online fallback normalizes by the stream seen so far
        // (including the edge being placed).
        let edges_per_part = match self.state.expected_edges {
            Some(e) => e as f64 / p as f64,
            None => (self.state.assignment.len() + 1) as f64 / p as f64,
        };
        let vertices_per_part = self.state.observed_vertices() as f64 / p as f64;

        let part = ebv_best_part(
            &self.state,
            self.alpha,
            self.beta,
            edges_per_part,
            vertices_per_part,
            u,
            v,
        );
        self.state.record(edge, part);
        part
    }

    fn edges_ingested(&self) -> usize {
        self.state.assignment.len()
    }

    fn delta_metrics(&self) -> StreamingMetrics {
        self.state.metrics()
    }

    fn state_bytes(&self) -> usize {
        self.state.state_bytes()
    }

    fn finish(&mut self) -> Result<PartitionResult> {
        self.state.take_result()
    }
}

/// The streaming form of [`HdrfPartitioner`](crate::HdrfPartitioner) —
/// bit-identical to the batch form, which is itself one-pass.
#[derive(Debug, Clone)]
pub struct StreamingHdrf {
    lambda: f64,
    partial_degree: Vec<usize>,
    state: StreamState,
}

impl StreamingHdrf {
    pub(crate) fn from_parts(lambda: f64, config: StreamConfig) -> Result<Self> {
        Ok(StreamingHdrf {
            lambda,
            partial_degree: vec![0; config.expected_vertices().unwrap_or(0)],
            state: StreamState::new(config)?,
        })
    }
}

impl StreamingPartitioner for StreamingHdrf {
    fn name(&self) -> String {
        "HDRF-stream".to_string()
    }

    fn num_partitions(&self) -> usize {
        self.state.num_partitions
    }

    fn ingest(&mut self, edge: Edge) -> PartitionId {
        self.state.observe(edge);
        if self.partial_degree.len() < self.state.max_vertex_exclusive {
            self.partial_degree
                .resize(self.state.max_vertex_exclusive, 0);
        }
        let (u, v) = edge.endpoints();

        self.partial_degree[u.index()] += 1;
        self.partial_degree[v.index()] += 1;
        let du = self.partial_degree[u.index()] as f64;
        let dv = self.partial_degree[v.index()] as f64;

        let part = hdrf_best_part(&self.state, self.lambda, du, dv, u, v);
        self.state.record(edge, part);
        part
    }

    fn edges_ingested(&self) -> usize {
        self.state.assignment.len()
    }

    fn delta_metrics(&self) -> StreamingMetrics {
        self.state.metrics()
    }

    fn state_bytes(&self) -> usize {
        self.state.state_bytes() + self.partial_degree.len() * std::mem::size_of::<usize>()
    }

    fn finish(&mut self) -> Result<PartitionResult> {
        self.partial_degree.clear();
        self.state.take_result()
    }
}

/// The streaming (greedy one-pass) form of
/// [`DbhPartitioner`](crate::DbhPartitioner): hashes the endpoint with the
/// lower degree *observed so far* in the stream.
#[derive(Debug, Clone)]
pub struct StreamingDbh {
    salt: u64,
    partial_degree: Vec<usize>,
    state: StreamState,
}

impl StreamingDbh {
    pub(crate) fn from_parts(salt: u64, config: StreamConfig) -> Result<Self> {
        Ok(StreamingDbh {
            salt,
            partial_degree: vec![0; config.expected_vertices().unwrap_or(0)],
            state: StreamState::new(config)?,
        })
    }
}

impl StreamingPartitioner for StreamingDbh {
    fn name(&self) -> String {
        "DBH-stream".to_string()
    }

    fn num_partitions(&self) -> usize {
        self.state.num_partitions
    }

    fn ingest(&mut self, edge: Edge) -> PartitionId {
        self.state.observe(edge);
        if self.partial_degree.len() < self.state.max_vertex_exclusive {
            self.partial_degree
                .resize(self.state.max_vertex_exclusive, 0);
        }
        self.partial_degree[edge.src.index()] += 1;
        self.partial_degree[edge.dst.index()] += 1;
        let du = self.partial_degree[edge.src.index()];
        let dv = self.partial_degree[edge.dst.index()];
        // Hash the endpoint with the lower partial degree; ties toward the
        // source, matching the batch tie-breaking rule.
        let key: VertexId = if du <= dv { edge.src } else { edge.dst };
        let part = PartitionId::new(
            (mix64(key.raw() ^ self.salt) % self.state.num_partitions as u64) as u32,
        );
        self.state.record(edge, part);
        part
    }

    fn edges_ingested(&self) -> usize {
        self.state.assignment.len()
    }

    fn delta_metrics(&self) -> StreamingMetrics {
        self.state.metrics()
    }

    fn state_bytes(&self) -> usize {
        self.state.state_bytes() + self.partial_degree.len() * std::mem::size_of::<usize>()
    }

    fn finish(&mut self) -> Result<PartitionResult> {
        self.partial_degree.clear();
        self.state.take_result()
    }
}

/// The streaming form of
/// [`RandomVertexCutPartitioner`](crate::RandomVertexCutPartitioner) —
/// bit-identical to the batch form, and a pure hash of `(edge, position)`.
#[derive(Debug, Clone)]
pub struct StreamingRandom {
    salt: u64,
    state: StreamState,
}

/// The Random-VC assignment: a pure hash of the edge and its stream
/// position. The single source of truth shared by the batch
/// [`RandomVertexCutPartitioner`](crate::RandomVertexCutPartitioner) and the
/// streaming [`StreamingRandom`] — their agreement *is* the bit-identical
/// guarantee, so never fork this formula.
pub(crate) fn random_vertex_cut_part(
    salt: u64,
    num_partitions: usize,
    edge: Edge,
    index: usize,
) -> PartitionId {
    let key =
        mix64(edge.src.raw()) ^ mix64(edge.dst.raw().rotate_left(17)) ^ mix64(index as u64 ^ salt);
    PartitionId::new((mix64(key) % num_partitions as u64) as u32)
}

impl StreamingRandom {
    pub(crate) fn from_parts(salt: u64, config: StreamConfig) -> Result<Self> {
        Ok(StreamingRandom {
            salt,
            state: StreamState::new(config)?,
        })
    }

    fn hash(&self, edge: Edge, index: usize) -> PartitionId {
        random_vertex_cut_part(self.salt, self.state.num_partitions, edge, index)
    }
}

impl StreamingPartitioner for StreamingRandom {
    fn name(&self) -> String {
        "Random-VC-stream".to_string()
    }

    fn num_partitions(&self) -> usize {
        self.state.num_partitions
    }

    fn ingest(&mut self, edge: Edge) -> PartitionId {
        let part = self.hash(edge, self.state.assignment.len());
        self.state.observe(edge);
        self.state.record(edge, part);
        part
    }

    fn edges_ingested(&self) -> usize {
        self.state.assignment.len()
    }

    fn delta_metrics(&self) -> StreamingMetrics {
        self.state.metrics()
    }

    fn state_bytes(&self) -> usize {
        self.state.state_bytes()
    }

    fn finish(&mut self) -> Result<PartitionResult> {
        self.state.take_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::partitioner::Partitioner;
    use crate::prelude::*;
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};
    use ebv_graph::Graph;

    fn stream_all(partitioner: &mut dyn StreamingPartitioner, graph: &Graph) -> PartitionResult {
        for &edge in graph.edges() {
            partitioner.ingest(edge);
        }
        partitioner.finish().unwrap()
    }

    fn exact_config(graph: &Graph, p: usize) -> StreamConfig {
        StreamConfig::new(p)
            .with_expected_vertices(graph.num_vertices())
            .with_expected_edges(graph.num_edges())
    }

    #[test]
    fn streaming_ebv_matches_batch_under_input_order() {
        let g = RmatGenerator::new(9, 8).with_seed(13).generate().unwrap();
        for p in [1, 2, 5, 8] {
            let batch = EbvPartitioner::new().unsorted().partition(&g, p).unwrap();
            let mut streaming = EbvPartitioner::new()
                .unsorted()
                .streaming(exact_config(&g, p))
                .unwrap();
            let streamed = stream_all(&mut streaming, &g);
            assert_eq!(batch, streamed, "p = {p}");
        }
    }

    #[test]
    fn streaming_hdrf_and_random_match_batch() {
        let g = RmatGenerator::new(8, 8).with_seed(5).generate().unwrap();
        let batch_hdrf = HdrfPartitioner::new().partition(&g, 4).unwrap();
        let mut s_hdrf = HdrfPartitioner::new()
            .streaming(exact_config(&g, 4))
            .unwrap();
        assert_eq!(batch_hdrf, stream_all(&mut s_hdrf, &g));

        let batch_random = RandomVertexCutPartitioner::new().partition(&g, 4).unwrap();
        let mut s_random = RandomVertexCutPartitioner::new()
            .streaming(StreamConfig::new(4))
            .unwrap();
        assert_eq!(batch_random, stream_all(&mut s_random, &g));
    }

    #[test]
    fn delta_metrics_match_batch_metrics_at_end_of_stream() {
        let g = RmatGenerator::new(8, 8).with_seed(3).generate().unwrap();
        let mut streaming = EbvPartitioner::new()
            .streaming(exact_config(&g, 6))
            .unwrap();
        for &edge in g.edges() {
            streaming.ingest(edge);
        }
        let delta = streaming.delta_metrics();
        let result = streaming.finish().unwrap();
        let batch = PartitionMetrics::compute(&g, &result).unwrap();
        assert_eq!(delta.edge_imbalance, batch.edge_imbalance);
        assert_eq!(delta.vertex_imbalance, batch.vertex_imbalance);
        assert_eq!(delta.replication_factor, batch.replication_factor);
        assert_eq!(delta.edges_ingested, g.num_edges());
    }

    #[test]
    fn streaming_dbh_is_a_reasonable_online_variant() {
        let g = RmatGenerator::new(9, 8).with_seed(2).generate().unwrap();
        let mut streaming = DbhPartitioner::new()
            .streaming(StreamConfig::new(8))
            .unwrap();
        let result = stream_all(&mut streaming, &g);
        result.validate(&g).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.5,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(m.replication_factor >= 1.0);
    }

    #[test]
    fn online_mode_without_hints_still_balances() {
        let g = RmatGenerator::new(9, 8).with_seed(17).generate().unwrap();
        let mut streaming = EbvPartitioner::new()
            .streaming(StreamConfig::new(8))
            .unwrap();
        let result = stream_all(&mut streaming, &g);
        result.validate(&g).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.3,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(
            m.vertex_imbalance < 1.3,
            "vertex imbalance {}",
            m.vertex_imbalance
        );
    }

    #[test]
    fn empty_stream_finishes_with_an_empty_partition() {
        let mut streaming = EbvPartitioner::new()
            .streaming(StreamConfig::new(4))
            .unwrap();
        assert_eq!(streaming.edges_ingested(), 0);
        let metrics = streaming.delta_metrics();
        assert_eq!(metrics.edges_ingested, 0);
        assert_eq!(metrics.edge_imbalance, 1.0);
        assert_eq!(metrics.replication_factor, 1.0);
        let result = streaming.finish().unwrap();
        assert_eq!(result.num_partitions(), 4);
        assert_eq!(result.as_vertex_cut().unwrap().num_edges(), 0);
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(EbvPartitioner::new()
            .streaming(StreamConfig::new(0))
            .is_err());
        assert!(HdrfPartitioner::new()
            .streaming(StreamConfig::new(0))
            .is_err());
        assert!(DbhPartitioner::new()
            .streaming(StreamConfig::new(0))
            .is_err());
        assert!(RandomVertexCutPartitioner::new()
            .streaming(StreamConfig::new(0))
            .is_err());
    }

    #[test]
    fn zero_cardinality_hints_are_ignored() {
        // A wrong zero hint must not poison EBV's normalizers (0/0 = NaN
        // would silently route every edge to partition 0).
        let config = StreamConfig::new(8)
            .with_expected_edges(0)
            .with_expected_vertices(0);
        assert_eq!(config.expected_edges(), None);
        assert_eq!(config.expected_vertices(), None);
        let g = RmatGenerator::new(8, 8).with_seed(11).generate().unwrap();
        let mut streaming = EbvPartitioner::new().streaming(config).unwrap();
        let result = stream_all(&mut streaming, &g);
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 2.0,
            "edge imbalance {}",
            m.edge_imbalance
        );
        let counts = result.as_vertex_cut().unwrap().edge_counts();
        assert!(
            counts.iter().all(|&c| c > 0),
            "empty partition in {counts:?}"
        );
    }

    #[test]
    fn state_bytes_grow_with_the_stream() {
        let g = RmatGenerator::new(8, 8).with_seed(1).generate().unwrap();
        let mut streaming = EbvPartitioner::new()
            .streaming(StreamConfig::new(4))
            .unwrap();
        let before = streaming.state_bytes();
        for &edge in g.edges() {
            streaming.ingest(edge);
        }
        assert!(streaming.state_bytes() > before);
    }

    #[test]
    fn finish_resets_the_partitioner() {
        let g = named::two_triangles();
        let mut streaming = EbvPartitioner::new()
            .streaming(StreamConfig::new(2))
            .unwrap();
        for &edge in g.edges() {
            streaming.ingest(edge);
        }
        let first = streaming.finish().unwrap();
        assert_eq!(first.as_vertex_cut().unwrap().num_edges(), g.num_edges());
        assert_eq!(streaming.edges_ingested(), 0);
        // Re-ingesting reproduces the same result from the fresh state.
        for &edge in g.edges() {
            streaming.ingest(edge);
        }
        assert_eq!(streaming.finish().unwrap(), first);
    }
}
