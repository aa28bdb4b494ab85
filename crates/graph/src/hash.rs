//! The workspace's one fast hasher for vertex- and edge-keyed maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cheap multiply-xor hasher for maps keyed by [`VertexId`](crate::VertexId),
/// [`Edge`](crate::Edge) or small tuples of them — the assignment log of the
/// dynamic partitioner, `Subgraph`'s local index, the removal matching of
/// `apply_mutations`, the in-batch cancellation multiset and the WAL resume.
///
/// The keys are dense program-generated 32-bit ids, so a strong-mixing
/// multiply beats SipHash by a wide margin while staying deterministic. It
/// offers no protection against keys crafted to collide and must never be
/// used where iteration order is observable.
///
/// [`write_u32`](Hasher::write_u32) widens to [`write_u64`](Hasher::write_u64),
/// so a key hashes to the same value whether its ids are stored in 32 or
/// 64 bits: narrowing `VertexId` changed no hash, and so no map's
/// iteration order.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// A `HashMap` hashed through [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, VertexId};

    #[test]
    fn id_hash_map_behaves_like_a_map_over_ids_edges_and_pairs() {
        let mut by_vertex: IdHashMap<VertexId, u64> = IdHashMap::default();
        let mut by_pair: IdHashMap<(Edge, u32), u32> = IdHashMap::default();
        for i in 0..10_000u64 {
            by_vertex.insert(VertexId::new(i), i);
            *by_pair
                .entry((Edge::from((i % 100, i / 100)), (i % 7) as u32))
                .or_insert(0) += 1;
        }
        assert_eq!(by_vertex.len(), 10_000);
        assert_eq!(by_vertex[&VertexId::new(4_321)], 4_321);
        assert_eq!(by_pair.len(), 10_000);
        assert_eq!(by_pair[&(Edge::from((21u64, 43u64)), 2)], 1);
        assert!(!by_pair.contains_key(&(Edge::from((21u64, 43u64)), 3)));
    }

    #[test]
    fn hashing_is_deterministic_and_order_sensitive() {
        let hash = |words: &[u64]| {
            let mut hasher = IdHasher::default();
            words.iter().for_each(|&w| hasher.write_u64(w));
            hasher.finish()
        };
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        let mut narrow = IdHasher::default();
        narrow.write_u32(9);
        assert_eq!(narrow.finish(), hash(&[9]));
    }
}
