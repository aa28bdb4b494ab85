//! Compact vertex-to-partition membership matrix.
//!
//! Several partitioners (EBV, Ginger, HDRF, NE) and the metrics module need
//! to answer "is vertex `v` already kept by partition `i`?" millions of
//! times. A dense bitset with one row per vertex and one bit per partition
//! answers that in O(1) with `|V| · p / 8` bytes of memory.

use crate::types::PartitionId;
use ebv_graph::VertexId;

/// A `|V| × p` bit matrix recording which partitions keep which vertices —
/// the `keep[i]` sets of Algorithm 1 in the paper.
#[derive(Debug, Clone)]
pub(crate) struct MembershipMatrix {
    num_vertices: usize,
    num_partitions: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Number of set bits per partition (the paper's `vcount[i]`).
    per_partition_counts: Vec<usize>,
}

impl MembershipMatrix {
    /// Creates an empty membership matrix for `num_vertices` vertices and
    /// `num_partitions` partitions.
    pub(crate) fn new(num_vertices: usize, num_partitions: usize) -> Self {
        let words_per_row = num_partitions.div_ceil(64).max(1);
        MembershipMatrix {
            num_vertices,
            num_partitions,
            words_per_row,
            bits: vec![0; num_vertices * words_per_row],
            per_partition_counts: vec![0; num_partitions],
        }
    }

    #[inline]
    fn cell(&self, v: VertexId, part: PartitionId) -> (usize, u64) {
        debug_assert!(v.index() < self.num_vertices, "vertex out of range");
        debug_assert!(part.index() < self.num_partitions, "partition out of range");
        let word = v.index() * self.words_per_row + part.index() / 64;
        let mask = 1u64 << (part.index() % 64);
        (word, mask)
    }

    /// Returns `true` when `part` keeps vertex `v`.
    #[inline]
    pub(crate) fn contains(&self, v: VertexId, part: PartitionId) -> bool {
        let (word, mask) = self.cell(v, part);
        self.bits[word] & mask != 0
    }

    /// The membership row of `v`: bit `i % 64` of word `i / 64` is set when
    /// partition `i` keeps the vertex. Lets a scoring loop read the row once
    /// per edge instead of testing one bit per partition.
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> &[u64] {
        let start = v.index() * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Marks vertex `v` as kept by `part`. Returns `true` if the vertex was
    /// newly added (i.e. it was not already a member).
    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId, part: PartitionId) -> bool {
        let (word, mask) = self.cell(v, part);
        let newly = self.bits[word] & mask == 0;
        if newly {
            self.bits[word] |= mask;
            self.per_partition_counts[part.index()] += 1;
        }
        newly
    }

    /// Number of vertices kept by `part` — the paper's `vcount[i]`.
    #[inline]
    pub(crate) fn partition_size(&self, part: PartitionId) -> usize {
        self.per_partition_counts[part.index()]
    }

    /// Number of partitions that keep vertex `v` (its replica count).
    #[cfg(test)]
    pub(crate) fn replica_count(&self, v: VertexId) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sum of `partition_size` over all partitions: `Σ |V_i|`, the numerator
    /// of the replication factor.
    pub(crate) fn total_replicas(&self) -> usize {
        self.per_partition_counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> VertexId {
        VertexId::new(i)
    }

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn insert_and_contains() {
        let mut m = MembershipMatrix::new(10, 4);
        assert!(!m.contains(v(3), p(2)));
        assert!(m.insert(v(3), p(2)));
        assert!(m.contains(v(3), p(2)));
        // Second insert is a no-op.
        assert!(!m.insert(v(3), p(2)));
        assert_eq!(m.partition_size(p(2)), 1);
    }

    #[test]
    fn counts_track_insertions() {
        let mut m = MembershipMatrix::new(5, 3);
        m.insert(v(0), p(0));
        m.insert(v(1), p(0));
        m.insert(v(1), p(1));
        m.insert(v(1), p(2));
        assert_eq!(m.partition_size(p(0)), 2);
        assert_eq!(m.partition_size(p(1)), 1);
        assert_eq!(m.replica_count(v(1)), 3);
        assert_eq!(m.replica_count(v(0)), 1);
        assert_eq!(m.replica_count(v(4)), 0);
        assert_eq!(m.total_replicas(), 4);
    }

    #[test]
    fn works_with_more_than_64_partitions() {
        let mut m = MembershipMatrix::new(4, 130);
        m.insert(v(1), p(0));
        m.insert(v(1), p(64));
        m.insert(v(1), p(129));
        assert!(m.contains(v(1), p(0)));
        assert!(m.contains(v(1), p(64)));
        assert!(m.contains(v(1), p(129)));
        assert!(!m.contains(v(1), p(128)));
        assert_eq!(m.replica_count(v(1)), 3);
    }
}
