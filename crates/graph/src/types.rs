//! Core identifier and edge types shared by every crate in the workspace.

use std::fmt;

/// Identifier of a vertex inside a [`Graph`](crate::Graph).
///
/// Vertex identifiers are dense: a graph with `n` vertices uses the
/// identifiers `0..n`. External (sparse) identifiers are remapped by
/// [`GraphBuilder`](crate::GraphBuilder) when the graph is constructed.
///
/// An identifier is stored in 32 bits, so the range is
/// `0..=`[`VertexId::MAX_RAW`] (2³² − 1) and an [`Edge`] takes 8 bytes.
/// The accessors still speak `u64` and `usize`. [`VertexId::new`] and the
/// conversions from `u64` and `usize` panic on a raw value past the range,
/// like an out-of-bounds index; code that reads identifiers from outside
/// the program checks them with [`VertexId::try_new`] (or
/// [`Edge::try_from_raw`]) and reports a typed error instead.
///
/// # Examples
///
/// ```
/// use ebv_graph::VertexId;
///
/// let v = VertexId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(format!("{v}"), "7");
/// assert_eq!(VertexId::try_new(u64::from(u32::MAX)), Some(VertexId::new(4_294_967_295)));
/// assert_eq!(VertexId::try_new(1 << 32), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u32);

const _: () = assert!(std::mem::size_of::<VertexId>() == 4);
const _: () = assert!(std::mem::size_of::<Edge>() == 8);

impl VertexId {
    /// The largest raw value a vertex identifier can hold.
    pub const MAX_RAW: u64 = u32::MAX as u64;

    /// Creates a vertex identifier from its dense index.
    ///
    /// # Panics
    ///
    /// When `raw` exceeds [`VertexId::MAX_RAW`].
    #[inline]
    #[track_caller]
    pub const fn new(raw: u64) -> Self {
        match Self::try_new(raw) {
            Some(id) => id,
            None => panic!("vertex id out of the 32-bit range"),
        }
    }

    /// Creates a vertex identifier from its dense index, or `None` when
    /// `raw` exceeds [`VertexId::MAX_RAW`]. Readers of external input use
    /// this to turn an out-of-range id into their own typed error.
    #[inline]
    pub const fn try_new(raw: u64) -> Option<Self> {
        if raw <= Self::MAX_RAW {
            Some(VertexId(raw as u32))
        } else {
            None
        }
    }

    /// Returns the raw value of this identifier, widened to 64 bits.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0 as u64
    }

    /// Returns the identifier as a `usize` suitable for indexing
    /// per-vertex arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Panics past [`VertexId::MAX_RAW`], like [`VertexId::new`].
impl From<u64> for VertexId {
    #[track_caller]
    fn from(raw: u64) -> Self {
        VertexId::new(raw)
    }
}

impl From<u32> for VertexId {
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

/// Panics past [`VertexId::MAX_RAW`], like [`VertexId::new`].
impl From<usize> for VertexId {
    #[track_caller]
    fn from(raw: usize) -> Self {
        VertexId::new(raw as u64)
    }
}

impl From<VertexId> for u64 {
    fn from(id: VertexId) -> Self {
        id.raw()
    }
}

impl From<VertexId> for u32 {
    fn from(id: VertexId) -> Self {
        id.0
    }
}

impl From<VertexId> for usize {
    fn from(id: VertexId) -> Self {
        id.index()
    }
}

/// A directed edge `(src, dst)`.
///
/// Undirected input graphs are represented, as in the paper, by two directed
/// edges with opposite directions (see
/// [`GraphBuilder::undirected`](crate::GraphBuilder::undirected)).
///
/// # Examples
///
/// ```
/// use ebv_graph::{Edge, VertexId};
///
/// let e = Edge::new(VertexId::new(0), VertexId::new(1));
/// assert_eq!(e.reversed(), Edge::new(VertexId::new(1), VertexId::new(0)));
/// assert!(!e.is_self_loop());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Target vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Creates a new directed edge from `src` to `dst`.
    #[inline]
    pub const fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// Creates an edge from raw endpoint ids, or `None` when either exceeds
    /// [`VertexId::MAX_RAW`].
    #[inline]
    pub const fn try_from_raw(src: u64, dst: u64) -> Option<Self> {
        match (VertexId::try_new(src), VertexId::try_new(dst)) {
            (Some(src), Some(dst)) => Some(Edge { src, dst }),
            _ => None,
        }
    }

    /// Returns the edge with its direction flipped.
    #[inline]
    pub const fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Returns `true` when both endpoints are the same vertex.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.src == self.dst
    }

    /// Returns both endpoints as a pair `(src, dst)`.
    #[inline]
    pub const fn endpoints(self) -> (VertexId, VertexId) {
        (self.src, self.dst)
    }

    /// Returns the endpoints ordered by identifier, which gives a canonical
    /// representation for treating the edge as undirected.
    #[inline]
    pub fn canonical(self) -> (VertexId, VertexId) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

/// Panics when an endpoint exceeds [`VertexId::MAX_RAW`].
impl From<(u64, u64)> for Edge {
    #[track_caller]
    fn from((src, dst): (u64, u64)) -> Self {
        Edge::new(VertexId::new(src), VertexId::new(dst))
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge::new(src, dst)
    }
}

/// Whether a graph's edge list should be interpreted as directed or
/// undirected.
///
/// The subgraph-centric framework in the paper operates on directed graphs;
/// undirected graphs are expanded into two opposite directed edges before
/// partitioning ([Section III-C of the paper]).
///
/// [Section III-C of the paper]: https://arxiv.org/abs/2010.09007
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Each input edge is a single directed edge.
    Directed,
    /// Each input edge stands for a pair of opposite directed edges.
    Undirected,
}

impl GraphKind {
    /// Returns `true` for [`GraphKind::Undirected`].
    pub(crate) fn is_undirected(self) -> bool {
        matches!(self, GraphKind::Undirected)
    }
}

impl fmt::Display for GraphKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphKind::Directed => write!(f, "directed"),
            GraphKind::Undirected => write!(f, "undirected"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.raw(), 42);
        assert_eq!(v.index(), 42);
        assert_eq!(u64::from(v), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(usize::from(v), 42);
        assert_eq!(VertexId::from(42u64), v);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(VertexId::from(42usize), v);
    }

    #[test]
    fn vertex_id_range_is_32_bit() {
        let top = VertexId::new(VertexId::MAX_RAW);
        assert_eq!(top.raw(), u64::from(u32::MAX));
        assert_eq!(top.index(), u32::MAX as usize);
        assert_eq!(VertexId::try_new(VertexId::MAX_RAW), Some(top));
        assert_eq!(VertexId::try_new(VertexId::MAX_RAW + 1), None);
        assert_eq!(VertexId::try_new(u64::MAX), None);
        assert!(std::panic::catch_unwind(|| VertexId::new(1 << 32)).is_err());
        assert!(std::panic::catch_unwind(|| Edge::from((0, u64::MAX))).is_err());
        assert_eq!(
            Edge::try_from_raw(0, VertexId::MAX_RAW),
            Some(Edge::new(VertexId::new(0), top))
        );
        assert_eq!(Edge::try_from_raw(1 << 32, 0), None);
    }

    #[test]
    fn vertex_id_ordering_and_display() {
        let a = VertexId::new(1);
        let b = VertexId::new(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "1");
        assert_eq!(VertexId::default(), VertexId::new(0));
    }

    #[test]
    fn edge_reversal_and_self_loop() {
        let e = Edge::from((3u64, 5u64));
        assert_eq!(e.reversed().src, VertexId::new(5));
        assert_eq!(e.reversed().dst, VertexId::new(3));
        assert!(!e.is_self_loop());
        assert!(Edge::from((4u64, 4u64)).is_self_loop());
    }

    #[test]
    fn edge_canonical_orders_endpoints() {
        let e = Edge::from((9u64, 2u64));
        assert_eq!(e.canonical(), (VertexId::new(2), VertexId::new(9)));
        assert_eq!(e.reversed().canonical(), e.canonical());
    }

    #[test]
    fn edge_display_and_endpoints() {
        let e = Edge::from((1u64, 2u64));
        assert_eq!(e.to_string(), "(1 -> 2)");
        assert_eq!(e.endpoints(), (VertexId::new(1), VertexId::new(2)));
    }

    #[test]
    fn graph_kind_display() {
        assert_eq!(GraphKind::Directed.to_string(), "directed");
        assert_eq!(GraphKind::Undirected.to_string(), "undirected");
        assert!(GraphKind::Undirected.is_undirected());
        assert!(!GraphKind::Directed.is_undirected());
    }
}
