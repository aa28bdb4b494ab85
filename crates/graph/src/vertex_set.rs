//! The workspace's one set of raw vertex ids.

use std::collections::BTreeSet;
use std::fmt;

/// A set of raw vertex ids, one bit per id of a sized universe `0..n` —
/// the warm-start frontiers of `ebv-bsp` and `ebv-algorithms` (seed
/// vertices, dirty component labels, SSSP invalidation cones).
///
/// The ids are dense program-generated keys, so a bit test beats hashing:
/// [`insert`](Self::insert) and [`contains`](Self::contains) are a shift
/// and a mask. Size the set from the universe the caller already knows
/// ([`new`](Self::new) or [`grow_universe`](Self::grow_universe)) and no
/// insert reallocates. An id past the universe — a vertex the universe has
/// since grown by, or caller data such as a label of `u64::MAX - 1` — is
/// neither lost nor allowed to grow the bits to its magnitude: it goes to an
/// ordered spill set beside them.
#[derive(Clone, Default)]
pub struct VertexSet {
    /// Bit `id % 64` of word `id / 64` is set iff `id` is a member.
    words: Vec<u64>,
    /// Members at or past `words.len() * 64`.
    spill: BTreeSet<u64>,
    len: usize,
}

impl VertexSet {
    /// An empty set whose bits cover the ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        VertexSet {
            words: vec![0; universe.div_ceil(64)],
            spill: BTreeSet::new(),
            len: 0,
        }
    }

    /// Widens the bits to cover at least `0..universe`, moving spilled
    /// members that now fall inside them. Never shrinks.
    pub fn grow_universe(&mut self, universe: usize) {
        let words = universe.div_ceil(64);
        if words <= self.words.len() {
            return;
        }
        self.words.resize(words, 0);
        let beyond = self.spill.split_off(&(words as u64).saturating_mul(64));
        for id in std::mem::replace(&mut self.spill, beyond) {
            self.words[(id / 64) as usize] |= 1 << (id % 64);
        }
    }

    /// Adds `id`; returns whether it was new.
    pub fn insert(&mut self, id: u64) -> bool {
        let fresh = match word_index(id).and_then(|w| self.words.get_mut(w)) {
            Some(word) => {
                let bit = 1 << (id % 64);
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            None => self.spill.insert(id),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        match word_index(id).and_then(|w| self.words.get(w)) {
            Some(word) => word >> (id % 64) & 1 != 0,
            None => self.spill.contains(&id),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let bits = self.words.iter().enumerate().flat_map(|(index, &word)| {
            let base = index as u64 * 64;
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    base + u64::from(bit)
                })
            })
        });
        bits.chain(self.spill.iter().copied())
    }
}

/// The word holding `id`'s bit, if that index is addressable at all.
#[inline]
fn word_index(id: u64) -> Option<usize> {
    usize::try_from(id / 64).ok()
}

/// Set equality: the same members, whatever universe each was sized for.
impl PartialEq for VertexSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|id| other.contains(id))
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Collects into bits covering at most one word per distinct member, so no
/// id's magnitude sizes the set; larger ids spill.
impl FromIterator<u64> for VertexSet {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        let mut ids: Vec<u64> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut set = VertexSet::new(ids.len().saturating_mul(64));
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    /// Ids mostly inside a universe of up to 256, some just past it and
    /// some near `u64::MAX`.
    fn id() -> impl Strategy<Value = u64> {
        (0u64..10, 0u64..400).prop_map(|(kind, id)| match kind {
            0 => u64::MAX - id,
            1 => id << 40,
            _ => id,
        })
    }

    proptest! {
        #[test]
        fn vertex_set_behaves_like_a_hash_set(
            universe in 0usize..256,
            inserts in proptest::collection::vec(id(), 0..200),
            probes in proptest::collection::vec(id(), 0..50),
            other_universe in 0usize..512,
        ) {
            let mut set = VertexSet::new(universe);
            let mut reference = HashSet::new();
            for &id in &inserts {
                prop_assert_eq!(set.insert(id), reference.insert(id));
            }
            prop_assert_eq!(set.len(), reference.len());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
            for &id in inserts.iter().chain(&probes) {
                prop_assert_eq!(set.contains(id), reference.contains(&id));
            }
            let mut expected: Vec<u64> = reference.iter().copied().collect();
            expected.sort_unstable();
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), expected.clone());

            // The same members sized for another universe, collected, or
            // with the universe grown afterwards: all equal.
            let mut resized = VertexSet::new(other_universe);
            inserts.iter().rev().for_each(|&id| { resized.insert(id); });
            prop_assert_eq!(&resized, &set);
            prop_assert_eq!(&inserts.iter().copied().collect::<VertexSet>(), &set);
            resized.grow_universe(other_universe + 300);
            prop_assert_eq!(resized.iter().collect::<Vec<_>>(), expected);
            prop_assert_eq!(&resized, &set);

            // One member more or less is a different set.
            if let Some(&probe) = probes.iter().find(|&&id| !reference.contains(&id)) {
                resized.insert(probe);
                prop_assert_ne!(&resized, &set);
            }
        }
    }

    #[test]
    fn ids_past_the_universe_spill_without_sizing_the_set() {
        let mut set = VertexSet::new(100);
        assert!(!set.contains(100) && !set.contains(u64::MAX));
        assert!(set.insert(u64::MAX - 1) && set.insert(7) && set.insert(1 << 50));
        assert!(!set.insert(u64::MAX - 1));
        assert_eq!(set.words.len(), 2, "the bits stay sized for 0..100");
        assert_eq!(
            set.spill.iter().copied().collect::<Vec<_>>(),
            vec![1 << 50, u64::MAX - 1]
        );
        assert!(set.contains(u64::MAX - 1) && !set.contains(u64::MAX));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![7, 1 << 50, u64::MAX - 1]
        );
        assert_eq!(
            format!("{set:?}"),
            format!("{{7, {}, {}}}", 1u64 << 50, u64::MAX - 1)
        );
        assert_eq!(VertexSet::default().iter().count(), 0);
    }
}
