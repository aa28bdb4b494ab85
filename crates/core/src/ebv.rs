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

/// How many edges [`EbvPartitioner::partition_with_trace`] gathers from the
/// edge list at a time before scoring them.
const GATHER_BLOCK: usize = 1024;

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

    /// Creates the online form of this partitioner: an insert/delete-driven
    /// partitioner with the same `α`/`β` configuration whose maintained
    /// state stays exact under deletions; see [`crate::dynamic`]. The
    /// configured edge order is ignored — a stream is consumed in arrival
    /// order. With exact cardinality hints in `config`, an insert-only
    /// sequence is bit-identical to [`Partitioner::partition`] under
    /// [`EdgeOrder::Input`].
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
        let mut assignment = vec![PartitionId::default(); num_edges];

        // The two balance terms of every partition. An assignment changes
        // the counters of the chosen partition only, so only its pair is
        // refreshed — with the expressions the evaluation function is
        // defined by, which keeps every score the same f64 as recomputing
        // all 2p terms per edge.
        let eterm_of = |edges: usize| self.alpha * edges as f64 / edges_per_part;
        let vterm_of = |vertices: usize| self.beta * vertices as f64 / vertices_per_part;
        let mut eterm = vec![eterm_of(0); num_partitions];
        let mut vterm = vec![vterm_of(0); num_partitions];

        let sample_every = (num_edges / self.trace_samples).max(1);
        let mut until_sample = sample_every;
        let mut trace = EbvTrace::with_capacity(self.trace_samples + 2, self.order.label());

        // The order scatters reads over the edge list. Gathering a block of
        // endpoints first lets those cache misses overlap each other instead
        // of each one stalling a scoring step.
        let edges = graph.edges();
        let order = self.order.arrange_indices(graph);
        let mut block = Vec::with_capacity(GATHER_BLOCK);
        let mut processed = 0usize;
        for indices in order.chunks(GATHER_BLOCK) {
            block.clear();
            block.extend(indices.iter().map(|&i| edges[i].endpoints()));
            for (&edge_index, &(u, v)) in indices.iter().zip(&block) {
                // Lowest score wins, ties toward the lowest partition index.
                // One 64-partition word of each endpoint's row at a time.
                let mut best_part = 0usize;
                let mut best_score = f64::INFINITY;
                let rows = keep.row(u).iter().zip(keep.row(v));
                let terms = eterm.chunks(64).zip(vterm.chunks(64));
                for (word, ((&kept_u, &kept_v), (eterms, vterms))) in rows.zip(terms).enumerate() {
                    let mut missing_u = !kept_u;
                    let mut missing_v = !kept_v;
                    for (bit, (&eterm, &vterm)) in eterms.iter().zip(vterms).enumerate() {
                        let new_replicas = (missing_u & 1) + (missing_v & 1);
                        let score = new_replicas as f64 + eterm + vterm;
                        if score < best_score {
                            best_score = score;
                            best_part = 64 * word + bit;
                        }
                        missing_u >>= 1;
                        missing_v >>= 1;
                    }
                }

                let part = PartitionId::from_index(best_part);
                assignment[edge_index] = part;
                ecount[best_part] += 1;
                keep.insert(u, part);
                keep.insert(v, part);
                eterm[best_part] = eterm_of(ecount[best_part]);
                vterm[best_part] = vterm_of(keep.partition_size(part));

                processed += 1;
                until_sample -= 1;
                if until_sample == 0 {
                    until_sample = sample_every;
                    trace.push(
                        processed,
                        keep.total_replicas() as f64 / num_vertices as f64,
                    );
                }
            }
        }
        // The trace always ends at the final state.
        if !num_edges.is_multiple_of(sample_every) {
            trace.push(
                num_edges,
                keep.total_replicas() as f64 / num_vertices as f64,
            );
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
    use crate::ordering::tests::random_multigraph;
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};

    /// Algorithm 1 as [`EbvPartitioner::partition_with_trace`] ran it before
    /// the balance terms were cached: all `2p` terms recomputed (two
    /// divisions each) and one membership bit tested per partition and
    /// endpoint, for every edge. Kept as the reference the cached loop is
    /// checked against.
    fn recomputing_partition_with_trace(
        ebv: &EbvPartitioner,
        graph: &Graph,
        num_partitions: usize,
    ) -> (Vec<PartitionId>, Vec<TracePoint>) {
        let num_edges = graph.num_edges();
        let num_vertices = graph.num_vertices();
        let edges_per_part = num_edges as f64 / num_partitions as f64;
        let vertices_per_part = num_vertices as f64 / num_partitions as f64;

        let mut keep = MembershipMatrix::new(num_vertices, num_partitions);
        let mut ecount = vec![0usize; num_partitions];
        let mut vcount = vec![0usize; num_partitions];
        let mut assignment = vec![PartitionId::default(); num_edges];
        let sample_every = (num_edges / ebv.trace_samples).max(1);
        let mut points = Vec::new();

        let order = ebv.order.arrange_indices(graph);
        for (processed, &edge_index) in order.iter().enumerate() {
            let (u, v) = graph.edges()[edge_index].endpoints();
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
                score += ebv.alpha * ecount[i] as f64 / edges_per_part;
                score += ebv.beta * vcount[i] as f64 / vertices_per_part;
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
                points.push(TracePoint {
                    edges_processed: processed + 1,
                    replication_factor: keep.total_replicas() as f64 / num_vertices as f64,
                });
            }
        }
        (assignment, points)
    }

    #[test]
    fn cached_terms_match_the_recomputing_loop_bit_for_bit() {
        let weights = [0.0, 0.5, 1.0, 3.7];
        let orders = [
            EdgeOrder::DegreeSumAscending,
            EdgeOrder::DegreeSumDescending,
            EdgeOrder::Input,
            EdgeOrder::Random(7),
        ];
        let mut compared = 0usize;
        for seed in 0..160u64 {
            let graph = random_multigraph(seed);
            // p > 64 exercises multi-word membership rows.
            for p in [1, 2, 8, 64, 65, 130] {
                if check_partition_count(&graph, p).is_err() {
                    continue;
                }
                let pick = seed as usize + p;
                let ebv = EbvPartitioner::new()
                    .with_alpha(weights[pick % 4])
                    .with_beta(weights[pick / 4 % 4])
                    .with_order(orders[pick / 16 % 4])
                    .with_trace_samples(1 + pick % 9);
                let (partition, trace) = ebv.partition_with_trace(&graph, p).unwrap();
                let (assignment, points) = recomputing_partition_with_trace(&ebv, &graph, p);
                let context = format!("seed {seed}, p {p}, {ebv:?}");
                assert_eq!(partition.assignment(), assignment, "{context}");
                assert_eq!(trace.points().len(), points.len(), "{context}");
                for (got, want) in trace.points().iter().zip(&points) {
                    assert_eq!(got.edges_processed, want.edges_processed, "{context}");
                    assert_eq!(
                        got.replication_factor.to_bits(),
                        want.replication_factor.to_bits(),
                        "{context}"
                    );
                }
                compared += 1;
            }
        }
        assert!(compared > 400, "only {compared} configurations ran");
    }

    #[test]
    fn cached_terms_match_the_recomputing_loop_on_a_power_law_graph() {
        // Long enough that the counters reach values whose terms round, and
        // every α, β pair is hit.
        let graph = RmatGenerator::new(9, 8).with_seed(6).generate().unwrap();
        for alpha in [0.0, 0.5, 1.0, 3.7] {
            for beta in [0.0, 0.5, 1.0, 3.7] {
                for p in [8, 65] {
                    let ebv = EbvPartitioner::new().with_alpha(alpha).with_beta(beta);
                    let (partition, trace) = ebv.partition_with_trace(&graph, p).unwrap();
                    let (assignment, points) = recomputing_partition_with_trace(&ebv, &graph, p);
                    assert_eq!(
                        partition.assignment(),
                        assignment,
                        "α {alpha} β {beta} p {p}"
                    );
                    assert_eq!(trace.points(), points, "α {alpha} β {beta} p {p}");
                }
            }
        }
    }

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
