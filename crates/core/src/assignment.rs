//! Partition assignment representations.
//!
//! The paper distinguishes the two classical families (Section III-B):
//!
//! * **vertex-cut (edge partitioning)** — the edge set is split into `p`
//!   disjoint subsets; vertices touched by several subsets are *replicated*.
//!   Represented here by [`EdgePartition`].
//! * **edge-cut (vertex partitioning)** — the vertex set is split into `p`
//!   disjoint subsets; edges crossing subsets are *replicated*. Represented
//!   here by [`VertexPartition`].
//!
//! [`PartitionResult`] wraps either so that frameworks and metrics can
//! handle the two families uniformly.

use ebv_graph::{Edge, Graph, VertexId};

use crate::error::{PartitionError, Result};
use crate::membership::MembershipMatrix;
use crate::types::PartitionId;

/// A vertex-cut (edge partitioning) result: every edge of the graph is
/// assigned to exactly one partition, in the same order as
/// [`Graph::edges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    num_partitions: usize,
    /// `assignment[i]` is the partition of `graph.edges()[i]`.
    assignment: Vec<PartitionId>,
}

impl EdgePartition {
    /// Creates an edge partition from a per-edge assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InconsistentAssignment`] when any entry
    /// references a partition `>= num_partitions`, and
    /// [`PartitionError::InvalidPartitionCount`] when `num_partitions == 0`.
    pub fn new(num_partitions: usize, assignment: Vec<PartitionId>) -> Result<Self> {
        if num_partitions == 0 {
            return Err(PartitionError::InvalidPartitionCount {
                requested: 0,
                message: "at least one partition is required".to_string(),
            });
        }
        if let Some(bad) = assignment.iter().find(|p| p.index() >= num_partitions) {
            return Err(PartitionError::InconsistentAssignment {
                message: format!(
                    "edge assigned to partition {bad} but only {num_partitions} partitions exist"
                ),
            });
        }
        Ok(EdgePartition {
            num_partitions,
            assignment,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of assigned edges.
    pub fn num_edges(&self) -> usize {
        self.assignment.len()
    }

    /// The partition of the `edge_index`-th edge of the graph.
    pub fn part_of(&self, edge_index: usize) -> PartitionId {
        self.assignment[edge_index]
    }

    /// The raw per-edge assignment, aligned with [`Graph::edges`].
    pub fn assignment(&self) -> &[PartitionId] {
        &self.assignment
    }

    /// Number of edges assigned to each partition — the paper's
    /// `ecount[i]` after the final edge.
    pub fn edge_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for p in &self.assignment {
            counts[p.index()] += 1;
        }
        counts
    }

    /// Computes which vertices each partition covers (`V_i` in the paper):
    /// a vertex belongs to every partition that received one of its incident
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different number of edges than this
    /// assignment; use [`EdgePartition::validate`] for a fallible check.
    pub(crate) fn vertex_membership(&self, graph: &Graph) -> MembershipMatrix {
        assert_eq!(
            graph.num_edges(),
            self.assignment.len(),
            "graph and assignment describe different edge sets"
        );
        let mut membership = MembershipMatrix::new(graph.num_vertices(), self.num_partitions);
        for (edge, part) in graph.edges().iter().zip(&self.assignment) {
            membership.insert(edge.src, *part);
            membership.insert(edge.dst, *part);
        }
        membership
    }

    /// The edges assigned to `part`, in graph order.
    pub fn edges_of<'a>(&'a self, graph: &'a Graph, part: PartitionId) -> Vec<Edge> {
        graph
            .edges()
            .iter()
            .zip(&self.assignment)
            .filter(|(_, &p)| p == part)
            .map(|(e, _)| *e)
            .collect()
    }

    /// Checks that this assignment covers exactly the edges of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InconsistentAssignment`] on a length
    /// mismatch.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if graph.num_edges() != self.assignment.len() {
            return Err(PartitionError::InconsistentAssignment {
                message: format!(
                    "assignment covers {} edges but the graph has {}",
                    self.assignment.len(),
                    graph.num_edges()
                ),
            });
        }
        Ok(())
    }
}

/// An edge-cut (vertex partitioning) result: every vertex is assigned to
/// exactly one partition; edges whose endpoints live in different partitions
/// are replicated in both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPartition {
    num_partitions: usize,
    /// `assignment[v]` is the partition owning vertex `v`.
    assignment: Vec<PartitionId>,
}

impl VertexPartition {
    /// Creates a vertex partition from a per-vertex assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InconsistentAssignment`] when any entry
    /// references a partition `>= num_partitions`, and
    /// [`PartitionError::InvalidPartitionCount`] when `num_partitions == 0`.
    pub fn new(num_partitions: usize, assignment: Vec<PartitionId>) -> Result<Self> {
        if num_partitions == 0 {
            return Err(PartitionError::InvalidPartitionCount {
                requested: 0,
                message: "at least one partition is required".to_string(),
            });
        }
        if let Some(bad) = assignment.iter().find(|p| p.index() >= num_partitions) {
            return Err(PartitionError::InconsistentAssignment {
                message: format!(
                    "vertex assigned to partition {bad} but only {num_partitions} partitions exist"
                ),
            });
        }
        Ok(VertexPartition {
            num_partitions,
            assignment,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of assigned vertices.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The partition owning vertex `v`.
    pub fn part_of(&self, v: VertexId) -> PartitionId {
        self.assignment[v.index()]
    }

    /// The raw per-vertex assignment, indexed by vertex.
    pub fn assignment(&self) -> &[PartitionId] {
        &self.assignment
    }

    /// Number of vertices owned by each partition.
    pub fn vertex_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for p in &self.assignment {
            counts[p.index()] += 1;
        }
        counts
    }

    /// Number of edges held by each partition under the paper's edge-cut
    /// definition `E_i = {(u,v) | u ∈ V_i ∨ v ∈ V_i}` (cross-partition edges
    /// count in both partitions).
    pub fn edge_counts(&self, graph: &Graph) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for e in graph.edges() {
            let ps = self.part_of(e.src);
            let pd = self.part_of(e.dst);
            counts[ps.index()] += 1;
            if ps != pd {
                counts[pd.index()] += 1;
            }
        }
        counts
    }

    /// Number of edges crossing partition boundaries (the classical edge-cut
    /// objective value).
    #[cfg(test)]
    pub(crate) fn cut_edges(&self, graph: &Graph) -> usize {
        graph
            .edges()
            .iter()
            .filter(|e| self.part_of(e.src) != self.part_of(e.dst))
            .count()
    }

    /// Checks that this assignment covers exactly the vertices of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InconsistentAssignment`] on a length
    /// mismatch.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if graph.num_vertices() != self.assignment.len() {
            return Err(PartitionError::InconsistentAssignment {
                message: format!(
                    "assignment covers {} vertices but the graph has {}",
                    self.assignment.len(),
                    graph.num_vertices()
                ),
            });
        }
        Ok(())
    }
}

/// Either family of partition result, handled uniformly by metrics, the BSP
/// engine and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionResult {
    /// A vertex-cut (edge partitioning) result.
    VertexCut(EdgePartition),
    /// An edge-cut (vertex partitioning) result.
    EdgeCut(VertexPartition),
}

impl PartitionResult {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match self {
            PartitionResult::VertexCut(p) => p.num_partitions(),
            PartitionResult::EdgeCut(p) => p.num_partitions(),
        }
    }

    /// Whether this is a vertex-cut result.
    pub fn is_vertex_cut(&self) -> bool {
        matches!(self, PartitionResult::VertexCut(_))
    }

    /// Borrows the vertex-cut assignment, if this is one.
    pub fn as_vertex_cut(&self) -> Option<&EdgePartition> {
        match self {
            PartitionResult::VertexCut(p) => Some(p),
            PartitionResult::EdgeCut(_) => None,
        }
    }

    /// Borrows the edge-cut assignment, if this is one.
    pub fn as_edge_cut(&self) -> Option<&VertexPartition> {
        match self {
            PartitionResult::EdgeCut(p) => Some(p),
            PartitionResult::VertexCut(_) => None,
        }
    }

    /// Number of edges held by each partition (replicated edges counted per
    /// holder for edge-cut results).
    pub fn edge_counts(&self, graph: &Graph) -> Vec<usize> {
        match self {
            PartitionResult::VertexCut(p) => p.edge_counts(),
            PartitionResult::EdgeCut(p) => p.edge_counts(graph),
        }
    }

    /// Number of vertices held by each partition (covered vertices for
    /// vertex-cut, owned vertices for edge-cut).
    pub fn vertex_counts(&self, graph: &Graph) -> Vec<usize> {
        match self {
            PartitionResult::VertexCut(p) => {
                let membership = p.vertex_membership(graph);
                (0..p.num_partitions())
                    .map(|i| membership.partition_size(PartitionId::from_index(i)))
                    .collect()
            }
            PartitionResult::EdgeCut(p) => p.vertex_counts(),
        }
    }

    /// Checks the assignment against the graph it claims to partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InconsistentAssignment`] when the assignment
    /// does not match the graph's edge or vertex count.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        match self {
            PartitionResult::VertexCut(p) => p.validate(graph),
            PartitionResult::EdgeCut(p) => p.validate(graph),
        }
    }
}

impl From<EdgePartition> for PartitionResult {
    fn from(p: EdgePartition) -> Self {
        PartitionResult::VertexCut(p)
    }
}

impl From<VertexPartition> for PartitionResult {
    fn from(p: VertexPartition) -> Self {
        PartitionResult::EdgeCut(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::Graph;

    fn square() -> Graph {
        // 0 -> 1 -> 2 -> 3 -> 0
        Graph::from_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    fn pid(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn edge_partition_counts_and_lookup() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        assert_eq!(part.num_partitions(), 2);
        assert_eq!(part.num_edges(), 4);
        assert_eq!(part.edge_counts(), vec![2, 2]);
        assert_eq!(part.part_of(2), pid(1));
        assert_eq!(part.edges_of(&g, pid(0)).len(), 2);
        assert!(part.validate(&g).is_ok());
    }

    #[test]
    fn edge_partition_vertex_membership_covers_endpoints() {
        let g = square();
        let part = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        let m = part.vertex_membership(&g);
        // Partition 0 holds edges (0,1), (1,2): vertices {0, 1, 2}.
        assert_eq!(m.partition_size(pid(0)), 3);
        // Partition 1 holds edges (2,3), (3,0): vertices {2, 3, 0}.
        assert_eq!(m.partition_size(pid(1)), 3);
        // Vertices 0 and 2 are replicated.
        assert_eq!(m.replica_count(VertexId::new(0)), 2);
        assert_eq!(m.replica_count(VertexId::new(1)), 1);
    }

    #[test]
    fn edge_partition_rejects_bad_input() {
        assert!(EdgePartition::new(0, vec![]).is_err());
        assert!(EdgePartition::new(2, vec![pid(5)]).is_err());
        let g = square();
        let short = EdgePartition::new(2, vec![pid(0)]).unwrap();
        assert!(short.validate(&g).is_err());
    }

    #[test]
    fn vertex_partition_counts() {
        let g = square();
        let part = VertexPartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)]).unwrap();
        assert_eq!(part.vertex_counts(), vec![2, 2]);
        assert_eq!(part.part_of(VertexId::new(3)), pid(1));
        // Edges (1,2) and (3,0) cross; each is counted in both partitions.
        assert_eq!(part.cut_edges(&g), 2);
        assert_eq!(part.edge_counts(&g), vec![3, 3]);
        assert!(part.validate(&g).is_ok());
    }

    #[test]
    fn vertex_partition_rejects_bad_input() {
        assert!(VertexPartition::new(0, vec![]).is_err());
        assert!(VertexPartition::new(2, vec![pid(3)]).is_err());
        let g = square();
        let short = VertexPartition::new(2, vec![pid(0)]).unwrap();
        assert!(short.validate(&g).is_err());
    }

    #[test]
    fn partition_result_unifies_both_families() {
        let g = square();
        let vc: PartitionResult = EdgePartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)])
            .unwrap()
            .into();
        let ec: PartitionResult = VertexPartition::new(2, vec![pid(0), pid(0), pid(1), pid(1)])
            .unwrap()
            .into();
        assert!(vc.is_vertex_cut());
        assert!(!ec.is_vertex_cut());
        assert!(vc.as_vertex_cut().is_some());
        assert!(ec.as_edge_cut().is_some());
        assert_eq!(vc.num_partitions(), 2);
        assert_eq!(vc.edge_counts(&g), vec![2, 2]);
        assert_eq!(ec.edge_counts(&g), vec![3, 3]);
        assert_eq!(vc.vertex_counts(&g), vec![3, 3]);
        assert_eq!(ec.vertex_counts(&g), vec![2, 2]);
        assert!(vc.validate(&g).is_ok());
        assert!(ec.validate(&g).is_ok());
    }
}
