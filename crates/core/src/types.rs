//! Identifier types for partitions.

use std::fmt;

/// Identifier of a partition (subgraph / worker).
///
/// Partition identifiers are dense: partitioning into `p` subgraphs uses the
/// identifiers `0..p`, matching the paper's `i ∈ [1, p]` (shifted to
/// zero-based indexing).
///
/// # Examples
///
/// ```
/// use ebv_partition::PartitionId;
///
/// let p = PartitionId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(u32);

/// A placed edge copy, the element of every `(edge, partition)` list: the
/// 8-byte [`Edge`](ebv_graph::Edge) plus the partition, no padding.
const _: () = assert!(std::mem::size_of::<(ebv_graph::Edge, PartitionId)>() == 12);

impl PartitionId {
    /// Creates a partition identifier from its dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        PartitionId(raw)
    }

    /// Creates a partition identifier from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits (far beyond any realistic
    /// worker count).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        PartitionId(u32::try_from(index).expect("partition index exceeds u32::MAX"))
    }

    /// Returns the raw 32-bit value of this identifier.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize` suitable for indexing
    /// per-partition arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for PartitionId {
    fn from(raw: u32) -> Self {
        PartitionId(raw)
    }
}

impl From<PartitionId> for u32 {
    fn from(id: PartitionId) -> Self {
        id.0
    }
}

impl From<PartitionId> for usize {
    fn from(id: PartitionId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_conversions() {
        let p = PartitionId::new(5);
        assert_eq!(p.raw(), 5);
        assert_eq!(p.index(), 5);
        assert_eq!(u32::from(p), 5);
        assert_eq!(usize::from(p), 5);
        assert_eq!(PartitionId::from(5u32), p);
        assert_eq!(PartitionId::from_index(5), p);
    }

    #[test]
    fn ordering_and_display() {
        assert!(PartitionId::new(1) < PartitionId::new(2));
        assert_eq!(PartitionId::new(7).to_string(), "7");
        assert_eq!(PartitionId::default(), PartitionId::new(0));
    }

    #[test]
    #[should_panic(expected = "partition index exceeds")]
    fn from_index_panics_on_overflow() {
        let _ = PartitionId::from_index(usize::MAX);
    }
}
