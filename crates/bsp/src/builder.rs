//! Streaming construction: edges arrive already assigned, one at a time,
//! and are routed straight to their worker's edge list.
//!
//! Invariant owned here: the builder only accumulates per-partition edge
//! lists in arrival order and hands them to the same `assemble` step as the
//! batch build, so a streamed distribution is structurally identical to the
//! batch distribution of the same assignment — and to a mutated one over
//! the same surviving stream.

use ebv_graph::Edge;
use ebv_partition::PartitionId;

use crate::distributed::{assemble, DistributedGraph};
use crate::error::{BspError, Result};
use crate::lanes::Lanes;
use crate::replica::MasterRule;

impl DistributedGraph {
    /// Assembles a distributed graph directly from a stream of already
    /// assigned edges — the vertex-cut path of [`DistributedGraph::build`]
    /// without ever materializing a global [`Graph`](ebv_graph::Graph) or
    /// edge vector.
    ///
    /// `num_vertices` optionally declares the vertex universe so that
    /// isolated vertices (never mentioned by the stream) still get a home
    /// worker; when `None` the universe is implied by the largest endpoint
    /// streamed. Feed it the `(Edge, PartitionId)` pairs an online
    /// partitioner's `insert` assigns to an `ebv_graph::EdgeSource`'s edges.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidParameter`] for a zero partition count and
    /// [`BspError::PartitionMismatch`] when the stream references a
    /// partition `>= num_partitions`.
    pub fn build_streaming<I>(
        num_partitions: usize,
        num_vertices: Option<usize>,
        assigned_edges: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (Edge, PartitionId)>,
    {
        let mut builder = DistributedGraphBuilder::new(num_partitions)?;
        if let Some(n) = num_vertices {
            builder = builder.with_num_vertices(n);
        }
        for (edge, part) in assigned_edges {
            builder.add_edge(edge, part)?;
        }
        builder.finish()
    }

    /// Incrementally assembles a distributed graph; see
    /// [`DistributedGraphBuilder`].
    pub fn builder(num_partitions: usize) -> Result<DistributedGraphBuilder> {
        DistributedGraphBuilder::new(num_partitions)
    }
}

/// Incremental, streaming-friendly construction of a [`DistributedGraph`].
///
/// Edges arrive one at a time, already assigned to their partition (for
/// example by
/// [`ebv_partition::DynamicPartitioner::insert`]); the builder routes each edge
/// to its worker's edge list immediately, so peak memory is the final
/// per-worker state — no global edge vector is ever held. Master election
/// and replica bookkeeping happen once, in [`finish`](Self::finish), through
/// the same assembly step as the batch [`DistributedGraph::build`], so a
/// streamed distribution is structurally identical to the batch
/// distribution of the same assignment.
///
/// # Examples
///
/// ```
/// use ebv_bsp::DistributedGraph;
/// use ebv_graph::Edge;
/// use ebv_partition::PartitionId;
///
/// # fn main() -> Result<(), ebv_bsp::BspError> {
/// let mut builder = DistributedGraph::builder(2)?;
/// builder.add_edge(Edge::from((0u64, 1u64)), PartitionId::new(0))?;
/// builder.add_edge(Edge::from((1u64, 2u64)), PartitionId::new(1))?;
/// let distributed = builder.finish()?;
/// assert_eq!(distributed.num_workers(), 2);
/// assert_eq!(distributed.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DistributedGraphBuilder {
    num_partitions: usize,
    num_vertices_hint: Option<usize>,
    edges_per_part: Vec<Vec<Edge>>,
    max_vertex_exclusive: usize,
    num_edges: usize,
    epoch: usize,
}

impl DistributedGraphBuilder {
    /// Creates a builder for `num_partitions` workers.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::InvalidParameter`] when `num_partitions` is zero.
    pub fn new(num_partitions: usize) -> Result<Self> {
        if num_partitions == 0 {
            return Err(BspError::InvalidParameter {
                parameter: "num_partitions",
                message: "at least one partition is required".to_string(),
            });
        }
        Ok(DistributedGraphBuilder {
            num_partitions,
            num_vertices_hint: None,
            edges_per_part: vec![Vec::new(); num_partitions],
            max_vertex_exclusive: 0,
            num_edges: 0,
            epoch: 0,
        })
    }

    /// Declares the vertex universe `0..n` up front, so vertices never
    /// mentioned by the stream are still placed as isolated masters.
    pub fn with_num_vertices(mut self, n: usize) -> Self {
        self.num_vertices_hint = Some(n);
        self
    }

    /// Stamps the finished distribution with `epoch` instead of 0.
    ///
    /// The mutation epoch is the one field of a [`DistributedGraph`] that
    /// is *not* derivable from the edge assignment — it counts applied
    /// batches. Checkpoint recovery rebuilds the graph through this
    /// builder and must resume the lineage at the checkpointed epoch, not
    /// restart it at zero.
    pub fn with_epoch(mut self, epoch: usize) -> Self {
        self.epoch = epoch;
        self
    }

    /// Routes one assigned edge to its worker.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::PartitionMismatch`] when `part` is out of range.
    pub fn add_edge(&mut self, edge: Edge, part: PartitionId) -> Result<()> {
        if part.index() >= self.num_partitions {
            return Err(BspError::PartitionMismatch {
                message: format!(
                    "edge assigned to partition {part} but only {} partitions exist",
                    self.num_partitions
                ),
            });
        }
        let needed = edge.src.index().max(edge.dst.index()) + 1;
        if needed > self.max_vertex_exclusive {
            self.max_vertex_exclusive = needed;
        }
        self.edges_per_part[part.index()].push(edge);
        self.num_edges += 1;
        Ok(())
    }

    /// Number of edges routed so far.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Elects masters, fills the replica table and produces the
    /// [`DistributedGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`BspError::PartitionMismatch`] when a declared vertex count
    /// is smaller than the largest streamed endpoint.
    pub fn finish(self) -> Result<DistributedGraph> {
        let n = match self.num_vertices_hint {
            Some(hint) => {
                if hint < self.max_vertex_exclusive {
                    return Err(BspError::PartitionMismatch {
                        message: format!(
                            "declared {hint} vertices but the stream references vertex {}",
                            self.max_vertex_exclusive - 1
                        ),
                    });
                }
                hint
            }
            None => self.max_vertex_exclusive,
        };
        let owned_per_part = vec![Vec::new(); self.num_partitions];
        Ok(assemble(
            Lanes::host(),
            n,
            self.num_edges,
            self.edges_per_part,
            owned_per_part,
            MasterRule::IncidentMajority,
            self.epoch,
        ))
    }
}
