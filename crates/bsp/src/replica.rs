//! Replica bookkeeping and master election.
//!
//! Invariant owned here: every vertex of the universe has a *holder list* —
//! one `(partition, live incident edges, local index)` entry per replica,
//! strictly ascending by partition — and exactly one master among them. A
//! vertex with no live edge is *isolated*: its one entry is a zero-count
//! replica in its round-robin home partition `v % p`, its master, so that
//! every vertex is processed by exactly one worker; every other count is
//! positive. Counts are taken at assembly ([`ReplicaTable::count`]), moved
//! one edge at a time by an epoch ([`ReplicaTable::bump`]) and read by the
//! one election rule ([`ReplicaTable::elect`]); local indices are written
//! by [`ReplicaTable::place`] once the holding worker is (re)built, so the
//! entry of a worker an epoch keeps stays valid across it. Routing,
//! re-election's flag patch and `holders_of` all find a replica here.

use ebv_graph::{Edge, VertexId};
use ebv_partition::{PartitionId, VertexPartition};

use crate::subgraph::Subgraph;

/// The local index of an entry whose worker has not been (re)built since
/// the entry appeared.
const UNPLACED: u32 = u32::MAX;

/// How the master replica of a vertex with at least one holder is elected.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MasterRule<'a> {
    /// Vertex-cut: the replica holding the most incident edges (ties toward
    /// the lower partition id).
    IncidentMajority,
    /// Edge-cut: the partition owning the vertex.
    Owner(&'a VertexPartition),
}

/// One replica of a vertex: the partition holding it, how many of the
/// vertex's live edges it holds, and its index in that worker's vertex
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Holder {
    part: PartitionId,
    count: u32,
    local: u32,
}

impl Holder {
    /// A replica on `part` that awaits [`ReplicaTable::place`].
    fn unplaced(part: PartitionId, count: u32) -> Self {
        Holder {
            part,
            count,
            local: UNPLACED,
        }
    }

    /// The replica as `(worker, local index)`.
    fn location(&self) -> (usize, usize) {
        (self.part.index(), self.local as usize)
    }
}

/// Replica bookkeeping shared by all workers: which partitions hold each
/// vertex, how many of its live edges each holds, at which local index,
/// and which one is the master.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    master: Vec<PartitionId>,
    /// Per vertex, its holders. A sorted inline list beats a hash map here:
    /// almost every vertex has one or two holders, a lookup is a short
    /// binary search, and the resident and clone cost is a fraction of a
    /// map per vertex.
    holders: Vec<Vec<Holder>>,
}

impl ReplicaTable {
    /// The holder lists of the universe `0..n` over the per-partition edge
    /// lists, with nothing elected or placed yet.
    pub(crate) fn count(n: usize, edges_per_part: &[Vec<Edge>]) -> Self {
        // Partitions are visited in ascending order, so a vertex's entry for
        // the current partition, if it has one, is the last of its list:
        // bump it or append — the lists come out sorted without a search.
        let mut holders: Vec<Vec<Holder>> = vec![Vec::new(); n];
        for (i, edges) in edges_per_part.iter().enumerate() {
            let part = PartitionId::from_index(i);
            for v in edges.iter().flat_map(|e| [e.src, e.dst]) {
                match holders[v.index()].last_mut() {
                    Some(holder) if holder.part == part => holder.count += 1,
                    _ => holders[v.index()].push(Holder::unplaced(part, 1)),
                }
            }
        }
        debug_assert!(
            holders
                .iter()
                .all(|list| list.windows(2).all(|w| w[0].part < w[1].part)),
            "holder lists are strictly ascending by partition"
        );
        ReplicaTable {
            master: vec![PartitionId::default(); n],
            holders,
        }
    }

    /// Grows the universe to `0..n`; the new vertices hold nothing and
    /// await election.
    pub(crate) fn grow(&mut self, n: usize) {
        self.master.resize(n, PartitionId::default());
        self.holders.resize_with(n, Vec::new);
    }

    /// Moves the count of `v`'s live edges on `part` by one: up when an
    /// edge copy is `added` (a new holder is inserted in order, unplaced),
    /// down when one is removed (a holder whose count falls to zero is
    /// dropped). The caller re-elects `v` afterwards.
    pub(crate) fn bump(&mut self, v: VertexId, part: PartitionId, added: bool) {
        let holders = &mut self.holders[v.index()];
        let slot = holders.binary_search_by_key(&part, |holder| holder.part);
        if added {
            match slot {
                Ok(slot) => holders[slot].count += 1,
                Err(slot) => holders.insert(slot, Holder::unplaced(part, 1)),
            }
        } else {
            let slot = slot.expect("a validated removal implies live incidence");
            holders[slot].count -= 1;
            if holders[slot].count == 0 {
                holders.remove(slot);
            }
        }
    }

    /// The election rule: the master of `v` is chosen among its holders by
    /// `rule`. A vertex with no positive count left is isolated: it gets an
    /// unplaced zero-count entry at its home `v % p` and is mastered there;
    /// any other vertex drops such an entry. Returns whether `v` is
    /// isolated.
    ///
    /// An isolated vertex never has a placed home entry to keep here: at
    /// assembly it holds nothing, and an epoch re-elects it only when it is
    /// new or has lost its last edge (an isolated vertex an epoch touches
    /// gains one).
    pub(crate) fn elect(&mut self, v: VertexId, p: usize, rule: MasterRule<'_>) -> bool {
        let home = PartitionId::from_index(v.index() % p);
        let holders = &mut self.holders[v.index()];
        holders.retain(|holder| holder.count > 0);
        let isolated = holders.is_empty();
        if isolated {
            holders.push(Holder::unplaced(home, 0));
        }
        self.master[v.index()] = match rule {
            _ if isolated => home,
            MasterRule::Owner(owners) => owners.part_of(v),
            MasterRule::IncidentMajority => {
                let majority = holders
                    .iter()
                    .max_by_key(|holder| (holder.count, std::cmp::Reverse(holder.part)));
                majority.expect("a held vertex has holders").part
            }
        };
        isolated
    }

    /// Records where each worker flagged in `rebuilt` holds each of its
    /// vertices: one pass over those workers' vertex tables. Afterwards no
    /// entry awaits placement.
    pub(crate) fn place(&mut self, subgraphs: &[Subgraph], rebuilt: &[bool]) {
        for sg in subgraphs.iter().filter(|sg| rebuilt[sg.part().index()]) {
            for (local, &v) in (0u32..).zip(sg.vertices()) {
                let holders = &mut self.holders[v.index()];
                let slot = holders.binary_search_by_key(&sg.part(), |holder| holder.part);
                holders[slot.expect("the table lists every replica a worker holds")].local = local;
            }
        }
        debug_assert!(
            self.holders.iter().flatten().all(|h| h.local != UNPLACED),
            "the subgraphs hold exactly the replicas the table counts"
        );
    }

    /// Whether both tables elect the same masters over the same holders,
    /// placed at the same local indices.
    pub(crate) fn same_structure(&self, other: &Self) -> bool {
        self.master == other.master && self.holders == other.holders
    }

    /// The holder list of `v` as `(partition, live incident edges)`, for
    /// the structural suites.
    #[cfg(test)]
    pub(crate) fn counts(&self, v: VertexId) -> Vec<(PartitionId, u32)> {
        let holders = self.holders[v.index()].iter();
        holders.map(|holder| (holder.part, holder.count)).collect()
    }

    /// The master partition of vertex `v`.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master[v.index()]
    }

    /// Every partition holding a replica of `v` (including the master), in
    /// increasing partition order.
    pub fn replicas_of(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        self.holders[v.index()].iter().map(|holder| holder.part)
    }

    /// Number of replicas of `v`.
    pub fn replica_count(&self, v: VertexId) -> usize {
        self.holders[v.index()].len()
    }

    /// Total number of replicas across all vertices (`Σ_i |V_i|`).
    pub fn total_replicas(&self) -> usize {
        self.holders.iter().map(Vec::len).sum()
    }

    /// Every replica of `v` as `(worker, local index)`, ascending by
    /// worker; none past the universe.
    pub(crate) fn locations(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        let holders = self.holders.get(v.index()).map_or(&[][..], Vec::as_slice);
        holders.iter().map(Holder::location)
    }

    /// The `(worker, local index)` of `v`'s master replica; `None` past the
    /// universe.
    pub(crate) fn master_at(&self, v: VertexId) -> Option<(usize, usize)> {
        let master = *self.master.get(v.index())?;
        let holders = &self.holders[v.index()];
        let slot = holders.binary_search_by_key(&master, |holder| holder.part);
        Some(holders[slot.expect("the master holds a replica")].location())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How a row changes its vertex's holder list before the election.
    enum Step {
        /// Replace the list by the row's holders outright.
        Set,
        /// One edge copy on the partition added (`true`) or removed.
        Bump(u32, bool),
    }

    #[test]
    fn election_rule_table() {
        use Step::{Bump, Set};
        let part = PartitionId::new;
        let mut table = ReplicaTable::count(9, &[]);
        // As assembly does: every vertex elected, here all isolated.
        for v in 0..9 {
            assert!(table.elect(VertexId::new(v), 4, MasterRule::IncidentMajority));
        }
        // Applies `step` to `v`, elects it with p = 4 and checks the holder
        // list (an isolated vertex's is its zero-count home entry), the
        // master and the replicas.
        let mut check =
            |v: u64, step: Step, holders: &[(u32, u32)], master: u32, replicas: &[u32]| {
                let v = VertexId::new(v);
                let holders: Vec<_> = holders.iter().map(|&(p, c)| (part(p), c)).collect();
                match step {
                    Set => {
                        let set = holders.iter().map(|&(p, c)| Holder::unplaced(p, c));
                        table.holders[v.index()] = set.collect();
                    }
                    Bump(p, added) => table.bump(v, part(p), added),
                }
                let isolated = table.elect(v, 4, MasterRule::IncidentMajority);
                let home = vec![(part(v.raw() as u32 % 4), 0)];
                let expected = if holders.is_empty() { home } else { holders };
                assert_eq!(table.counts(v), expected, "vertex {v}");
                assert_eq!(isolated, expected[0].1 == 0, "vertex {v}");
                assert_eq!(table.master_of(v), part(master), "vertex {v}");
                let replicas: Vec<_> = replicas.iter().copied().map(part).collect();
                assert_eq!(
                    table.replicas_of(v).collect::<Vec<_>>(),
                    replicas,
                    "vertex {v}"
                );
                assert_eq!(table.replica_count(v), replicas.len(), "vertex {v}");
            };
        check(0, Set, &[(2, 1)], 2, &[2]);
        // Count tie: the lower partition wins.
        check(1, Set, &[(1, 3), (3, 3)], 1, &[1, 3]);
        // A higher count beats a lower id.
        check(2, Set, &[(0, 1), (2, 4), (3, 2)], 2, &[0, 2, 3]);
        // No holders: one zero-count entry at home `v % p`, the master.
        check(7, Set, &[], 3, &[3]);
        check(8, Set, &[], 0, &[0]);
        // Re-electing replaces the previous outcome instead of appending.
        check(7, Set, &[(1, 1)], 1, &[1]);
        // A new holder is inserted in order (and wins the tie).
        check(0, Bump(0, true), &[(0, 1), (2, 1)], 0, &[0, 2]);
        // A held count is incremented.
        check(0, Bump(2, true), &[(0, 1), (2, 2)], 2, &[0, 2]);
        // A count that falls to zero drops its holder.
        check(0, Bump(0, false), &[(2, 2)], 2, &[2]);
        check(0, Bump(2, false), &[(2, 1)], 2, &[2]);
        // Losing the last holder isolates the vertex at home.
        check(0, Bump(2, false), &[], 0, &[0]);
        // The home entry gives way to a first edge elsewhere…
        check(8, Bump(2, true), &[(2, 1)], 2, &[2]);
        // …and counts a first edge at home itself.
        check(4, Bump(0, true), &[(0, 1)], 0, &[0]);
        check(4, Bump(0, false), &[], 0, &[0]);
        // Vertices 1 and 2 hold two and three replicas, the other seven one.
        assert_eq!(table.total_replicas(), 2 + 3 + 7);
    }

    #[test]
    fn count_reads_the_edge_lists_in_partition_order() {
        let part = PartitionId::new;
        let e = |s: u64, d: u64| Edge::from((s, d));
        // A self-loop counts on both ends; vertex 3 touches no edge.
        let edges = [vec![e(0, 1), e(1, 1)], Vec::new(), vec![e(2, 1), e(1, 0)]];
        let table = ReplicaTable::count(4, &edges);
        let lists: Vec<_> = (0..4).map(|v| table.counts(VertexId::new(v))).collect();
        assert_eq!(
            lists,
            [
                vec![(part(0), 1), (part(2), 1)],
                vec![(part(0), 3), (part(2), 2)],
                vec![(part(2), 1)],
                vec![],
            ]
        );
    }
}
