//! [`CopyLog`]: the live edge copies, and the one rule for which copy a
//! delete or a migration takes.

use std::collections::hash_map::Entry;

use ebv_graph::{Edge, IdHashMap};

use crate::types::PartitionId;

/// Once the log reaches this length, removals compact it whenever dead
/// entries outnumber live ones (the classic doubling argument bounds the
/// amortized cost at O(1) per removal).
const COMPACT_FLOOR: usize = 1024;

/// "No older live copy": the bottom of an edge's copy stack.
const NO_COPY: u32 = u32::MAX;

/// The link of a removed copy: the live flag folded into the link keeps an
/// entry at 16 bytes.
const DEAD: u32 = u32::MAX - 1;

/// One appended copy. Removed copies are marked [`DEAD`] in place so that
/// surviving copies keep their insertion order, and are dropped wholesale
/// by [`CopyLog::compact`].
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    edge: Edge,
    part: PartitionId,
    /// Log position of the next-older live copy of `edge`, [`NO_COPY`], or
    /// [`DEAD`].
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<LogEntry>() == 16);

/// Every live `(edge, partition)` copy in insertion order, with the copies
/// of one edge threaded into a LIFO stack.
///
/// This is the one implementation of the copy rule every layer follows:
/// an insertion appends, a deletion takes the *newest* live copy of the
/// edge, and a removal that names a partition takes the newest live copy
/// on that partition. A migration is such a removal followed by an
/// append, so the log order — which
/// [`DynamicPartitioner::surviving`](crate::DynamicPartitioner::surviving)
/// yields, a checkpoint stores and WAL replay reproduces — filtered to one
/// partition is the order in which that partition's worker holds its
/// edges.
///
/// # Examples
///
/// ```
/// use ebv_graph::Edge;
/// use ebv_partition::{CopyLog, PartitionId};
///
/// let (e, p0, p1) = (Edge::from((0u64, 1u64)), PartitionId::new(0), PartitionId::new(1));
/// let mut log = CopyLog::default();
/// log.push(e, p0);
/// log.push(e, p1);
/// log.push(e, p0);
/// // Move a copy from 1 to 0: remove the newest copy on 1, append on 0.
/// assert_eq!(log.remove(e, Some(p1)), Some(p1));
/// log.push(e, p0);
/// assert_eq!(log.iter().collect::<Vec<_>>(), vec![(e, p0); 3]);
/// assert_eq!(log.remove(e, Some(p1)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CopyLog {
    entries: Vec<LogEntry>,
    /// Log position of the newest live copy of each edge — the top of its
    /// copy stack; older copies hang off [`LogEntry::prev`].
    heads: IdHashMap<Edge, u32>,
    live: usize,
}

impl CopyLog {
    /// Number of live copies.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no copy is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Reserves room for `copies` more copies of at most `edges` edges not
    /// in the log yet.
    pub fn reserve(&mut self, copies: usize, edges: usize) {
        self.entries.reserve(copies);
        self.heads.reserve(edges);
    }

    /// Appends a live copy of `edge` on `part`: the newest copy of `edge`.
    pub fn push(&mut self, edge: Edge, part: PartitionId) {
        let position = u32::try_from(self.entries.len())
            .ok()
            .filter(|&position| position < DEAD)
            .expect("the copy log holds fewer than u32::MAX - 1 entries");
        let prev = self.heads.insert(edge, position).unwrap_or(NO_COPY);
        self.entries.push(LogEntry { edge, part, prev });
        self.live += 1;
    }

    /// Removes the newest live copy of `edge` — or, with `Some(part)`, the
    /// newest live copy of `edge` on `part`, unlinking it from the middle
    /// of the stack when newer copies live elsewhere — and returns its
    /// partition. Returns `None`, changing nothing, when no such copy is
    /// live.
    pub fn remove(&mut self, edge: Edge, part: Option<PartitionId>) -> Option<PartitionId> {
        let Entry::Occupied(mut head) = self.heads.entry(edge) else {
            return None;
        };
        // Walk down from the top, remembering the newer copy whose link has
        // to skip the removed one.
        let (mut newer, mut at) = (None, *head.get() as usize);
        while part.is_some_and(|part| self.entries[at].part != part) {
            newer = Some(at);
            at = match self.entries[at].prev {
                NO_COPY => return None,
                prev => prev as usize,
            };
        }
        let entry = &mut self.entries[at];
        let (found, prev) = (entry.part, std::mem::replace(&mut entry.prev, DEAD));
        match newer {
            Some(newer) => self.entries[newer].prev = prev,
            None if prev == NO_COPY => {
                head.remove();
            }
            None => *head.get_mut() = prev,
        }
        self.live -= 1;
        if self.entries.len() >= COMPACT_FLOOR && self.entries.len() >= 2 * self.live {
            self.compact();
        }
        Some(found)
    }

    /// Drops dead entries and rebuilds the copy stacks, preserving the
    /// insertion order (and therefore the stacks) of every live copy.
    /// [`remove`](Self::remove) triggers it once dead entries outnumber
    /// live ones, so the log stays O(live copies) — a windowed stream can
    /// run forever — at amortized O(1) per removal.
    fn compact(&mut self) {
        self.entries.retain(|entry| entry.prev != DEAD);
        self.heads.clear();
        for (position, entry) in self.entries.iter_mut().enumerate() {
            // Fits: positions only shrink under compaction.
            entry.prev = self
                .heads
                .insert(entry.edge, position as u32)
                .unwrap_or(NO_COPY);
        }
    }

    /// The live copies in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, PartitionId)> + '_ {
        self.entries
            .iter()
            .filter(|entry| entry.prev != DEAD)
            .map(|entry| (entry.edge, entry.part))
    }

    /// The live copies in insertion order, collected into the log's own
    /// buffer: a pair (12 bytes) is smaller than an entry (16 bytes) and
    /// shares its alignment, so the pairs reuse the allocation, which then
    /// holds a third more pairs than it held entries.
    pub fn into_pairs(self) -> Vec<(Edge, PartitionId)> {
        let live = self.entries.into_iter().filter(|entry| entry.prev != DEAD);
        live.map(|entry| (entry.edge, entry.part)).collect()
    }

    /// Bytes held by the log and its stack heads, from their capacities.
    pub(crate) fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<LogEntry>()
            + self.heads.capacity() * size_of::<(Edge, u32)>()
    }

    /// Log entries held, dead ones included.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(s: u64, d: u64) -> Edge {
        Edge::from((s, d))
    }

    fn part(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    /// `remove` against a plain vector: the last live match goes.
    fn remove_by_scan(
        pairs: &mut Vec<(Edge, PartitionId)>,
        edge: Edge,
        on: Option<PartitionId>,
    ) -> Option<PartitionId> {
        let at = pairs
            .iter()
            .rposition(|&(e, p)| e == edge && on.is_none_or(|on| on == p))?;
        Some(pairs.remove(at).1)
    }

    #[test]
    fn removals_follow_the_scan_through_compactions() {
        let (mut log, mut scan) = (CopyLog::default(), Vec::new());
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut compactions = 0;
        for step in 0..8_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (e, p) = (
                edge((lcg >> 33) % 6, (lcg >> 45) % 6),
                part((lcg >> 20) as u32 % 3),
            );
            let before = log.entries();
            match (lcg >> 10) % 10 {
                0..=4 if log.len() < 400 => {
                    log.push(e, p);
                    scan.push((e, p));
                }
                0..=6 => assert_eq!(
                    log.remove(e, Some(p)),
                    remove_by_scan(&mut scan, e, Some(p)),
                    "step {step}"
                ),
                _ => assert_eq!(
                    log.remove(e, None),
                    remove_by_scan(&mut scan, e, None),
                    "step {step}"
                ),
            }
            compactions += usize::from(log.entries() < before);
            assert_eq!(log.len(), scan.len(), "step {step}");
        }
        assert!(compactions >= 2, "{compactions} compactions");
        assert_eq!(log.iter().collect::<Vec<_>>(), scan);
    }

    #[test]
    fn a_move_unlinks_a_copy_below_the_top() {
        let mut log = CopyLog::default();
        for i in [0, 1, 2, 1] {
            log.push(edge(0, 1), part(i));
        }
        log.push(edge(1, 2), part(1));
        // The newest copy on 1 is the fourth; the copy on 0 is the bottom.
        assert_eq!(log.remove(edge(0, 1), Some(part(1))), Some(part(1)));
        assert_eq!(log.remove(edge(0, 1), Some(part(0))), Some(part(0)));
        log.push(edge(0, 1), part(0));
        assert_eq!(
            log.iter().collect::<Vec<_>>(),
            vec![
                (edge(0, 1), part(1)),
                (edge(0, 1), part(2)),
                (edge(1, 2), part(1)),
                (edge(0, 1), part(0)),
            ]
        );
        // The stack still pops newest first.
        let popped: Vec<_> = (0..4).map(|_| log.remove(edge(0, 1), None)).collect();
        assert_eq!(
            popped,
            vec![Some(part(0)), Some(part(2)), Some(part(1)), None]
        );
        assert_eq!(log.len(), 1);
    }
}
