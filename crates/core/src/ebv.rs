//! The Efficient and Balanced Vertex-cut partitioner (Algorithm 1 of the
//! paper) — the primary contribution this workspace reproduces.
//!
//! EBV is a sequential, self-based vertex-cut algorithm. It walks the edge
//! list once (optionally after the degree-sum sorting preprocessing) and
//! assigns each edge `(u, v)` to the subgraph `i` minimizing the evaluation
//! function
//!
//! ```text
//! Eva_(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
//!              + α · ecount[i] / (|E| / p)
//!              + β · vcount[i] / (|V| / p)
//! ```
//!
//! The indicator terms penalize creating new vertex replicas (driving the
//! replication factor down); the `α`/`β` terms penalize partitions that are
//! already ahead in edges or vertices (driving the imbalance factors toward
//! 1). Theorems 1 and 2 of the paper bound the resulting imbalance; those
//! bounds are exported by [`crate::bounds`] and enforced by property tests.

use ebv_graph::Graph;

use crate::assignment::{EdgePartition, PartitionResult};
use crate::error::{PartitionError, Result};
use crate::membership::MembershipMatrix;
use crate::ordering::EdgeOrder;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// Configuration and entry point for the EBV algorithm.
///
/// # Examples
///
/// ```
/// use ebv_graph::generators::{GraphGenerator, RmatGenerator};
/// use ebv_partition::{EbvPartitioner, Partitioner, PartitionMetrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = RmatGenerator::new(9, 8).with_seed(1).generate()?;
/// let result = EbvPartitioner::new().partition(&graph, 8)?;
/// let metrics = PartitionMetrics::compute(&graph, &result)?;
/// assert!(metrics.edge_imbalance < 1.2);
/// assert!(metrics.vertex_imbalance < 1.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EbvPartitioner {
    alpha: f64,
    beta: f64,
    order: EdgeOrder,
    trace_samples: usize,
}

impl Default for EbvPartitioner {
    fn default() -> Self {
        Self::new()
    }
}

impl EbvPartitioner {
    /// Creates an EBV partitioner with the paper's default hyper-parameters
    /// (`α = β = 1`) and the degree-sum sorting preprocessing enabled.
    pub fn new() -> Self {
        EbvPartitioner {
            alpha: 1.0,
            beta: 1.0,
            order: EdgeOrder::DegreeSumAscending,
            trace_samples: 200,
        }
    }

    /// Sets the edge-balance weight `α` (default 1). Larger values tighten
    /// the edge imbalance bound of Theorem 1 at the cost of more replicas.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the vertex-balance weight `β` (default 1). Larger values tighten
    /// the vertex imbalance bound of Theorem 2 at the cost of more replicas.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the edge-processing order (default
    /// [`EdgeOrder::DegreeSumAscending`], the paper's "EBV-sort").
    pub fn with_order(mut self, order: EdgeOrder) -> Self {
        self.order = order;
        self
    }

    /// Convenience: disables the sorting preprocessing (the paper's
    /// "EBV-unsort" control).
    pub fn unsorted(self) -> Self {
        self.with_order(EdgeOrder::Input)
    }

    /// Sets how many points the replication-factor growth trace records
    /// (default 200). The trace always contains the final state.
    pub fn with_trace_samples(mut self, samples: usize) -> Self {
        self.trace_samples = samples.max(1);
        self
    }

    /// The configured `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The configured edge order.
    pub fn order(&self) -> EdgeOrder {
        self.order
    }

    fn validate(&self) -> Result<()> {
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(PartitionError::InvalidParameter {
                parameter: "alpha",
                message: format!(
                    "alpha must be a non-negative finite number, got {}",
                    self.alpha
                ),
            });
        }
        if !self.beta.is_finite() || self.beta < 0.0 {
            return Err(PartitionError::InvalidParameter {
                parameter: "beta",
                message: format!(
                    "beta must be a non-negative finite number, got {}",
                    self.beta
                ),
            });
        }
        Ok(())
    }

    /// Creates the streaming (online) form of this partitioner: an
    /// [`ingest`](crate::StreamingPartitioner::ingest)-driven partitioner
    /// with the same `α`/`β` configuration.
    ///
    /// With exact cardinality hints in `config`, the streaming output is
    /// bit-identical to [`Partitioner::partition`] under
    /// [`EdgeOrder::Input`]; see [`crate::streaming`]. The configured edge
    /// order is ignored — a stream is consumed in arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for invalid `α`/`β` and
    /// [`PartitionError::InvalidPartitionCount`] for a zero partition count.
    pub fn streaming(&self, config: crate::StreamConfig) -> Result<crate::StreamingEbv> {
        self.validate()?;
        crate::StreamingEbv::from_parts(self.alpha, self.beta, config)
    }

    /// Creates the dynamic (evolving-graph) form of this partitioner: an
    /// insert/delete-driven partitioner with the same `α`/`β` configuration
    /// whose maintained state stays exact under deletions; see
    /// [`crate::dynamic`]. Insert-only sequences are bit-identical to
    /// [`EbvPartitioner::streaming`].
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for invalid `α`/`β` and
    /// [`PartitionError::InvalidPartitionCount`] for a zero partition count.
    pub fn dynamic(&self, config: crate::StreamConfig) -> Result<crate::DynamicPartitioner> {
        self.validate()?;
        crate::DynamicPartitioner::ebv(self.alpha, self.beta, config)
    }

    /// Runs Algorithm 1 and additionally records the replication-factor
    /// growth curve plotted in Figure 5 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for invalid `α`/`β` and
    /// [`PartitionError::InvalidPartitionCount`] for an unusable partition
    /// count.
    pub fn partition_with_trace(
        &self,
        graph: &Graph,
        num_partitions: usize,
    ) -> Result<(EdgePartition, EbvTrace)> {
        self.validate()?;
        check_partition_count(graph, num_partitions)?;

        let num_edges = graph.num_edges();
        let num_vertices = graph.num_vertices();
        let edges_per_part = num_edges as f64 / num_partitions as f64;
        let vertices_per_part = num_vertices as f64 / num_partitions as f64;

        let mut keep = MembershipMatrix::new(num_vertices, num_partitions);
        let mut ecount = vec![0usize; num_partitions];
        let mut vcount = vec![0usize; num_partitions];
        let mut assignment = vec![PartitionId::default(); num_edges];

        let sample_every = (num_edges / self.trace_samples).max(1);
        let mut trace = EbvTrace::with_capacity(self.trace_samples + 2, self.order.label());

        let order = self.order.arrange_indices(graph);
        for (processed, &edge_index) in order.iter().enumerate() {
            let edge = graph.edges()[edge_index];
            let (u, v) = edge.endpoints();

            let mut best_part = 0usize;
            let mut best_score = f64::INFINITY;
            for i in 0..num_partitions {
                let part = PartitionId::from_index(i);
                let mut score = 0.0;
                if !keep.contains(u, part) {
                    score += 1.0;
                }
                if !keep.contains(v, part) {
                    score += 1.0;
                }
                score += self.alpha * ecount[i] as f64 / edges_per_part;
                score += self.beta * vcount[i] as f64 / vertices_per_part;
                if score < best_score {
                    best_score = score;
                    best_part = i;
                }
            }

            let part = PartitionId::from_index(best_part);
            assignment[edge_index] = part;
            ecount[best_part] += 1;
            if keep.insert(u, part) {
                vcount[best_part] += 1;
            }
            if v != u && keep.insert(v, part) {
                vcount[best_part] += 1;
            }

            if (processed + 1) % sample_every == 0 || processed + 1 == num_edges {
                trace.push(
                    processed + 1,
                    keep.total_replicas() as f64 / num_vertices as f64,
                );
            }
        }

        let partition = EdgePartition::new(num_partitions, assignment)?;
        Ok((partition, trace))
    }
}

impl Partitioner for EbvPartitioner {
    fn name(&self) -> String {
        match self.order {
            EdgeOrder::DegreeSumAscending => "EBV".to_string(),
            EdgeOrder::Input => "EBV-unsort".to_string(),
            other => format!("EBV-{}", other.label()),
        }
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        let (partition, _) = self.partition_with_trace(graph, num_partitions)?;
        Ok(partition.into())
    }
}

/// One sample of the replication-factor growth curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Number of edges assigned so far.
    pub edges_processed: usize,
    /// Replication factor `Σ|V_i| / |V|` of the partial result.
    pub replication_factor: f64,
}

/// The replication-factor growth curve recorded while EBV runs — the data
/// behind Figure 5 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct EbvTrace {
    label: String,
    points: Vec<TracePoint>,
}

impl EbvTrace {
    fn with_capacity(capacity: usize, label: String) -> Self {
        EbvTrace {
            label,
            points: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, edges_processed: usize, replication_factor: f64) {
        self.points.push(TracePoint {
            edges_processed,
            replication_factor,
        });
    }

    /// Label of the edge order that produced this trace (`"sort"`,
    /// `"unsort"`, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The recorded samples in processing order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The final replication factor, or 1.0 if no point was recorded.
    pub fn final_replication_factor(&self) -> f64 {
        self.points
            .last()
            .map(|p| p.replication_factor)
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};

    #[test]
    fn partitions_every_edge_exactly_once() {
        let g = named::figure1_graph();
        let (part, _) = EbvPartitioner::new().partition_with_trace(&g, 2).unwrap();
        assert_eq!(part.num_edges(), g.num_edges());
        assert_eq!(part.edge_counts().iter().sum::<usize>(), g.num_edges());
    }

    #[test]
    fn figure1_graph_is_balanced_into_two_subgraphs() {
        let g = named::figure1_graph();
        let (part, _) = EbvPartitioner::new().partition_with_trace(&g, 2).unwrap();
        let counts = part.edge_counts();
        // 12 directed edges split 6/6 — the balanced outcome Figure 1 shows
        // for the sorting preprocessing.
        assert_eq!(counts.iter().max(), counts.iter().min());
    }

    #[test]
    fn sorted_replication_factor_never_worse_on_figure1() {
        let g = named::figure1_graph();
        let sorted = EbvPartitioner::new();
        let unsorted = EbvPartitioner::new().unsorted();
        let m_sorted = PartitionMetrics::compute(&g, &sorted.partition(&g, 2).unwrap()).unwrap();
        let m_unsorted =
            PartitionMetrics::compute(&g, &unsorted.partition(&g, 2).unwrap()).unwrap();
        assert!(m_sorted.replication_factor <= m_unsorted.replication_factor + 1e-12);
    }

    #[test]
    fn power_law_graph_is_nearly_balanced() {
        let g = RmatGenerator::new(10, 8).with_seed(3).generate().unwrap();
        let result = EbvPartitioner::new().partition(&g, 8).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!(
            m.edge_imbalance < 1.15,
            "edge imbalance {}",
            m.edge_imbalance
        );
        assert!(
            m.vertex_imbalance < 1.15,
            "vertex imbalance {}",
            m.vertex_imbalance
        );
        assert!(m.replication_factor >= 1.0);
        assert!(m.replication_factor <= 8.0);
    }

    #[test]
    fn sorting_reduces_replication_on_power_law_graphs() {
        let g = RmatGenerator::new(11, 8).with_seed(9).generate().unwrap();
        let sorted = EbvPartitioner::new().partition(&g, 16).unwrap();
        let unsorted = EbvPartitioner::new().unsorted().partition(&g, 16).unwrap();
        let m_sorted = PartitionMetrics::compute(&g, &sorted).unwrap();
        let m_unsorted = PartitionMetrics::compute(&g, &unsorted).unwrap();
        assert!(
            m_sorted.replication_factor < m_unsorted.replication_factor,
            "sorted {} vs unsorted {}",
            m_sorted.replication_factor,
            m_unsorted.replication_factor
        );
    }

    #[test]
    fn trace_is_monotone_and_ends_at_final_replication_factor() {
        let g = RmatGenerator::new(9, 8).with_seed(2).generate().unwrap();
        let (part, trace) = EbvPartitioner::new()
            .with_trace_samples(50)
            .partition_with_trace(&g, 4)
            .unwrap();
        assert!(!trace.points().is_empty());
        for w in trace.points().windows(2) {
            assert!(w[0].edges_processed < w[1].edges_processed);
            assert!(w[0].replication_factor <= w[1].replication_factor + 1e-12);
        }
        let m = PartitionMetrics::compute(&g, &part.into()).unwrap();
        assert!((trace.final_replication_factor() - m.replication_factor).abs() < 1e-9);
        assert_eq!(trace.label(), "sort");
    }

    #[test]
    fn balance_terms_control_the_imbalance() {
        let g = RmatGenerator::new(9, 8).with_seed(4).generate().unwrap();
        // With α = β = 0 the evaluation function degenerates to the
        // replication terms only and ties collapse onto partition 0: the
        // result is badly imbalanced.
        let degenerate = EbvPartitioner::new().with_alpha(0.0).with_beta(0.0);
        let m_degenerate =
            PartitionMetrics::compute(&g, &degenerate.partition(&g, 8).unwrap()).unwrap();
        assert!(
            m_degenerate.edge_imbalance > 2.0,
            "expected a degenerate imbalance, got {}",
            m_degenerate.edge_imbalance
        );
        // The paper's default α = β = 1 keeps both factors near 1, and
        // larger weights keep them there too.
        let m_default =
            PartitionMetrics::compute(&g, &EbvPartitioner::new().partition(&g, 8).unwrap())
                .unwrap();
        let tight = EbvPartitioner::new().with_alpha(10.0).with_beta(10.0);
        let m_tight = PartitionMetrics::compute(&g, &tight.partition(&g, 8).unwrap()).unwrap();
        assert!(m_default.edge_imbalance < 1.15);
        assert!(m_tight.edge_imbalance < 1.15);
        // The degenerate run replicates the least: it never cuts a vertex
        // unless it has to.
        assert!(m_degenerate.replication_factor <= m_default.replication_factor + 1e-9);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let g = named::figure1_graph();
        assert!(EbvPartitioner::new()
            .with_alpha(-1.0)
            .partition(&g, 2)
            .is_err());
        assert!(EbvPartitioner::new()
            .with_beta(f64::NAN)
            .partition(&g, 2)
            .is_err());
        assert!(EbvPartitioner::new().partition(&g, 0).is_err());
        assert!(EbvPartitioner::new().partition(&g, 1_000).is_err());
    }

    #[test]
    fn partitioner_names_reflect_order() {
        assert_eq!(EbvPartitioner::new().name(), "EBV");
        assert_eq!(EbvPartitioner::new().unsorted().name(), "EBV-unsort");
        assert_eq!(
            EbvPartitioner::new()
                .with_order(EdgeOrder::Random(1))
                .name(),
            "EBV-random-1"
        );
    }

    #[test]
    fn single_partition_keeps_everything_local() {
        let g = named::two_triangles();
        let result = EbvPartitioner::new().partition(&g, 1).unwrap();
        let m = PartitionMetrics::compute(&g, &result).unwrap();
        assert!((m.replication_factor - 1.0).abs() < 1e-12);
        assert!((m.edge_imbalance - 1.0).abs() < 1e-12);
    }
}
