//! Replica bookkeeping and master election.
//!
//! Invariant owned here: every vertex of the universe has a *holder list* —
//! `(partition, live incident edges)` pairs, strictly ascending by
//! partition, every count positive — and exactly one master. The lists are
//! counted once at assembly ([`ReplicaTable::count`]), moved one edge at a
//! time by a mutation epoch ([`ReplicaTable::bump`]), and read by the one
//! election rule ([`ReplicaTable::elect`]). A vertex with no holder is
//! *isolated*: its only replica is its master, in its round-robin home
//! partition `v % p`, so that every vertex is processed by exactly one
//! worker.

use ebv_graph::{Edge, VertexId};
use ebv_partition::{PartitionId, VertexPartition};

/// How the master replica of a vertex with at least one holder is elected.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MasterRule<'a> {
    /// Vertex-cut: the replica holding the most incident edges (ties toward
    /// the lower partition id).
    IncidentMajority,
    /// Edge-cut: the partition owning the vertex.
    Owner(&'a VertexPartition),
}

/// Replica bookkeeping shared by all workers: which partitions hold each
/// vertex, how many of its live edges each holds, and which one is the
/// master.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    master: Vec<PartitionId>,
    /// Per vertex, its holders as `(partition, live incident edges)`. A
    /// sorted inline list beats a hash map here: almost every vertex has
    /// one or two holders, a lookup is a short binary search, and the
    /// resident and clone cost is a fraction of a map per vertex.
    holders: Vec<Vec<(PartitionId, u32)>>,
}

impl ReplicaTable {
    /// The holder lists of the universe `0..n` over the per-partition edge
    /// lists, with nothing elected yet.
    pub(crate) fn count(n: usize, edges_per_part: &[Vec<Edge>]) -> Self {
        // Partitions are visited in ascending order, so a vertex's entry for
        // the current partition, if it has one, is the last of its list:
        // bump it or append — the lists come out sorted without a search.
        let mut holders: Vec<Vec<(PartitionId, u32)>> = vec![Vec::new(); n];
        for (i, edges) in edges_per_part.iter().enumerate() {
            let part = PartitionId::from_index(i);
            for v in edges.iter().flat_map(|e| [e.src, e.dst]) {
                match holders[v.index()].last_mut() {
                    Some((holder, count)) if *holder == part => *count += 1,
                    _ => holders[v.index()].push((part, 1)),
                }
            }
        }
        debug_assert!(
            holders
                .iter()
                .all(|list| list.windows(2).all(|w| w[0].0 < w[1].0)),
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
    /// edge copy is `added` (a new holder is inserted in order), down when
    /// one is removed (a holder whose count falls to zero is dropped). The
    /// caller re-elects `v` afterwards.
    pub(crate) fn bump(&mut self, v: VertexId, part: PartitionId, added: bool) {
        let holders = &mut self.holders[v.index()];
        let slot = holders.binary_search_by_key(&part, |&(holder, _)| holder);
        if added {
            match slot {
                Ok(slot) => holders[slot].1 += 1,
                Err(slot) => holders.insert(slot, (part, 1)),
            }
        } else {
            let slot = slot.expect("a validated removal implies live incidence");
            holders[slot].1 -= 1;
            if holders[slot].1 == 0 {
                holders.remove(slot);
            }
        }
    }

    /// The election rule: the master of `v` is chosen among its holders by
    /// `rule`; a vertex with no holders is isolated and mastered at its
    /// home `v % p`. Returns whether `v` is isolated.
    pub(crate) fn elect(&mut self, v: VertexId, p: usize, rule: MasterRule<'_>) -> bool {
        let majority = self.holders[v.index()]
            .iter()
            .max_by_key(|&&(part, count)| (count, std::cmp::Reverse(part)));
        self.master[v.index()] = match (majority, rule) {
            (None, _) => PartitionId::from_index(v.index() % p),
            (Some(_), MasterRule::Owner(owners)) => owners.part_of(v),
            (Some(&(part, _)), MasterRule::IncidentMajority) => part,
        };
        majority.is_none()
    }

    /// Whether both tables elect the same masters over the same holders.
    pub(crate) fn same_structure(&self, other: &Self) -> bool {
        self.master == other.master && self.holders == other.holders
    }

    /// The holder list of `v`, for the structural suites.
    #[cfg(test)]
    pub(crate) fn holders(&self, v: VertexId) -> &[(PartitionId, u32)] {
        &self.holders[v.index()]
    }

    /// The master partition of vertex `v`.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master[v.index()]
    }

    /// Every partition holding a replica of `v` (including the master), in
    /// increasing partition order: its holders, or its master alone when it
    /// is isolated.
    pub fn replicas_of(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        let holders = &self.holders[v.index()];
        let isolated = holders.is_empty().then(|| self.master[v.index()]);
        holders.iter().map(|&(part, _)| part).chain(isolated)
    }

    /// Number of replicas of `v`.
    pub fn replica_count(&self, v: VertexId) -> usize {
        self.holders[v.index()].len().max(1)
    }

    /// Total number of replicas across all vertices (`Σ_i |V_i|`).
    pub fn total_replicas(&self) -> usize {
        self.holders.iter().map(|list| list.len().max(1)).sum()
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
        // Applies `step` to `v`, elects it with p = 4 and checks the holder
        // list, the master and the replicas.
        let mut check =
            |v: u64, step: Step, holders: &[(u32, u32)], master: u32, replicas: &[u32]| {
                let v = VertexId::new(v);
                let holders: Vec<_> = holders.iter().map(|&(p, c)| (part(p), c)).collect();
                match step {
                    Set => table.holders[v.index()] = holders.clone(),
                    Bump(p, added) => table.bump(v, part(p), added),
                }
                let isolated = table.elect(v, 4, MasterRule::IncidentMajority);
                assert_eq!(table.holders(v), holders.as_slice(), "vertex {v}");
                assert_eq!(isolated, holders.is_empty(), "vertex {v}");
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
        // No holders: home `v % p`, as a one-element replica list.
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
        let lists: Vec<_> = (0..4)
            .map(|v| table.holders(VertexId::new(v)).to_vec())
            .collect();
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
