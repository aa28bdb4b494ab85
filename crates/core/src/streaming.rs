//! The configuration of the online (single-pass) partitioner.
//!
//! EBV is defined by the paper as a *single-pass* algorithm: Algorithm 1
//! walks the edge list once and keeps only O(|V| · p) state. Its online
//! form is the [`DynamicPartitioner`](crate::DynamicPartitioner) fed
//! nothing but [`insert`](crate::DynamicPartitioner::insert)s: a stream is
//! an insert-only event sequence. [`StreamConfig`] carries the partition
//! count and the cardinality hints that decide how close that online pass
//! comes to the batch result:
//!
//! * **EBV**: with exact [`StreamConfig::with_expected_vertices`] /
//!   [`StreamConfig::with_expected_edges`] hints, an insert-only stream is
//!   *bit-identical* to [`EbvPartitioner`](crate::EbvPartitioner) under
//!   [`EdgeOrder::Input`](crate::EdgeOrder::Input), assignments and
//!   metrics alike. Without hints it runs in a self-normalizing online mode
//!   (balance terms normalized by the stream seen so far).
//! * **HDRF**: bit-identical to [`HdrfPartitioner`](crate::HdrfPartitioner)
//!   in its default input order: both forms score with partial degrees
//!   and the live loads at the same fixed `λ = 1`. HDRF was a one-pass
//!   algorithm all along.

use ebv_graph::EdgeSource;

use crate::error::{PartitionError, Result};

/// Configuration of an online partitioner: the partition count plus
/// optional cardinality hints.
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

    /// Creates a configuration for `num_partitions` partitions carrying
    /// whatever cardinality hints `source` knows
    /// ([`EdgeSource::expected_vertices`] / [`EdgeSource::expected_edges`]).
    pub fn for_source<S: EdgeSource + ?Sized>(source: &S, num_partitions: usize) -> Self {
        let mut config = StreamConfig::new(num_partitions);
        if let Some(v) = source.expected_vertices() {
            config = config.with_expected_vertices(v);
        }
        if let Some(e) = source.expected_edges() {
            config = config.with_expected_edges(e);
        }
        config
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

    pub(crate) fn validate(&self) -> Result<()> {
        if self.num_partitions == 0 {
            return Err(PartitionError::InvalidPartitionCount {
                requested: 0,
                message: "at least one partition is required".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicPartitioner;
    use crate::{
        EbvPartitioner, HdrfPartitioner, PartitionMetrics, PartitionResult, Partitioner,
        RandomVertexCutPartitioner,
    };
    use ebv_graph::generators::{GraphGenerator, RmatGenerator};
    use ebv_graph::{pairs, Graph, GraphEdgeSource};

    /// Inserts every edge of `graph` in input order and returns the
    /// maintained assignment.
    fn stream_all(partitioner: &mut DynamicPartitioner, graph: &Graph) -> PartitionResult {
        for &edge in graph.edges() {
            partitioner.insert(edge);
        }
        partitioner.snapshot().unwrap()
    }

    fn exact_config(graph: &Graph, p: usize) -> StreamConfig {
        StreamConfig::new(p)
            .with_expected_vertices(graph.num_vertices())
            .with_expected_edges(graph.num_edges())
    }

    #[test]
    fn for_source_carries_the_source_hints() {
        let graph = Graph::from_edges(vec![(0, 1), (1, 2)]).unwrap();
        let config = StreamConfig::for_source(&GraphEdgeSource::new(&graph), 2);
        assert_eq!(config, exact_config(&graph, 2));
        // A filter hides the pairs' count, so this source knows nothing and
        // yields the bare configuration.
        let unknown = pairs((0..3).map(|i| (i, i + 1)).filter(|_| true));
        assert_eq!(StreamConfig::for_source(&unknown, 2), StreamConfig::new(2));
    }

    #[test]
    fn streaming_ebv_matches_batch_under_input_order() {
        let g = RmatGenerator::new(9, 8).with_seed(13).generate().unwrap();
        for p in [1, 2, 5, 8] {
            let batch = EbvPartitioner::new().unsorted().partition(&g, p).unwrap();
            let mut online = EbvPartitioner::new()
                .unsorted()
                .dynamic(exact_config(&g, p))
                .unwrap();
            assert_eq!(batch, stream_all(&mut online, &g), "p = {p}");
        }
    }

    /// HDRF's online pass equals its batch form. Online Random hashes the
    /// endpoints only (not the stream position, unlike batch Random), so
    /// its assignment differs from batch by design; what must match is the
    /// batch metric computation over its result, and hints must not move
    /// an edge.
    #[test]
    fn streaming_hdrf_and_random_match_batch() {
        let g = RmatGenerator::new(8, 8).with_seed(5).generate().unwrap();
        let batch_hdrf = HdrfPartitioner::new().partition(&g, 4).unwrap();
        let mut online_hdrf = HdrfPartitioner::new().dynamic(exact_config(&g, 4)).unwrap();
        assert_eq!(batch_hdrf, stream_all(&mut online_hdrf, &g));

        // The exact vertex hint counts the graph's isolated vertices into the
        // replication denominator, as the batch computation does.
        let mut online_random = RandomVertexCutPartitioner::new()
            .dynamic(exact_config(&g, 4))
            .unwrap();
        let random = stream_all(&mut online_random, &g);
        random.validate(&g).unwrap();
        assert_eq!(
            online_random.metrics(),
            PartitionMetrics::compute(&g, &random).unwrap()
        );
        let mut unhinted_random = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(4))
            .unwrap();
        assert_eq!(random, stream_all(&mut unhinted_random, &g));
    }

    #[test]
    fn delta_metrics_match_batch_metrics_at_end_of_stream() {
        let g = RmatGenerator::new(8, 8).with_seed(3).generate().unwrap();
        let mut online = EbvPartitioner::new().dynamic(exact_config(&g, 6)).unwrap();
        let result = stream_all(&mut online, &g);
        let batch = PartitionMetrics::compute(&g, &result).unwrap();
        assert_eq!(online.metrics(), batch);
        assert_eq!(online.live_edges(), g.num_edges());
    }

    #[test]
    fn online_mode_without_hints_still_balances() {
        let g = RmatGenerator::new(9, 8).with_seed(17).generate().unwrap();
        let mut online = EbvPartitioner::new().dynamic(StreamConfig::new(8)).unwrap();
        let result = stream_all(&mut online, &g);
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
        let online = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        assert_eq!(online.live_edges(), 0);
        let metrics = online.metrics();
        assert_eq!(metrics.edge_imbalance, 1.0);
        assert_eq!(metrics.replication_factor, 1.0);
        let result = online.snapshot().unwrap();
        assert_eq!(result.num_partitions(), 4);
        assert_eq!(result.as_vertex_cut().unwrap().num_edges(), 0);
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(EbvPartitioner::new().dynamic(StreamConfig::new(0)).is_err());
        assert!(HdrfPartitioner::new()
            .dynamic(StreamConfig::new(0))
            .is_err());
        assert!(RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(0))
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
        let mut online = EbvPartitioner::new().dynamic(config).unwrap();
        let result = stream_all(&mut online, &g);
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
        let mut online = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
        let before = online.state_bytes();
        for &edge in g.edges() {
            online.insert(edge);
        }
        assert!(online.state_bytes() > before);
    }
}
