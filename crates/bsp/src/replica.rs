//! Replica bookkeeping and master election.
//!
//! Invariant owned here: every vertex of the universe has a non-empty
//! replica list, strictly ascending by partition, and exactly one of those
//! partitions is its master. The lists are derived from *holder lists* —
//! `(partition, live incident edges)` pairs, themselves strictly ascending
//! by partition — by the one election rule, [`ReplicaTable::elect`], which
//! fresh assembly and incremental mutation epochs both call.

use ebv_graph::VertexId;
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
/// vertex and which one is the master.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    master: Vec<PartitionId>,
    replicas: Vec<Vec<PartitionId>>,
}

impl ReplicaTable {
    /// A table over the universe `0..n` with nothing elected yet.
    pub(crate) fn new(n: usize) -> Self {
        ReplicaTable {
            master: vec![PartitionId::default(); n],
            replicas: vec![Vec::new(); n],
        }
    }

    /// Grows the universe to `0..n`; the new vertices await election.
    pub(crate) fn grow(&mut self, n: usize) {
        self.master.resize(n, PartitionId::default());
        self.replicas.resize_with(n, Vec::new);
    }

    /// The election rule. The replicas of `v` are its `holders` (already in
    /// ascending partition order) and its master is chosen by `rule`; a
    /// vertex with no holders is *isolated* and gets a single master replica
    /// in its round-robin home partition `v % p`, so that every vertex is
    /// processed by exactly one worker. Returns whether `v` is isolated.
    pub(crate) fn elect(
        &mut self,
        v: VertexId,
        holders: &[(PartitionId, u32)],
        p: usize,
        rule: MasterRule<'_>,
    ) -> bool {
        let replicas = &mut self.replicas[v.index()];
        replicas.clear();
        if replicas.capacity() == 0 {
            // A first election sizes the list exactly — assembly elects
            // every vertex once, almost all of them with one or two
            // holders; a re-elected list keeps its amortised growth.
            replicas.reserve_exact(holders.len().max(1));
        }
        replicas.extend(holders.iter().map(|&(part, _)| part));
        let majority = holders
            .iter()
            .max_by_key(|&&(part, count)| (count, std::cmp::Reverse(part)));
        self.master[v.index()] = match (majority, rule) {
            (None, _) => {
                let home = PartitionId::from_index(v.index() % p);
                replicas.push(home);
                home
            }
            (Some(_), MasterRule::Owner(owners)) => owners.part_of(v),
            (Some(&(part, _)), MasterRule::IncidentMajority) => part,
        };
        majority.is_none()
    }

    /// Whether both tables elect the same masters over the same replicas.
    pub(crate) fn same_structure(&self, other: &Self) -> bool {
        self.master == other.master && self.replicas == other.replicas
    }

    /// The master partition of vertex `v`.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master[v.index()]
    }

    /// Every partition holding a replica of `v` (including the master), in
    /// increasing partition order.
    pub fn replicas_of(&self, v: VertexId) -> &[PartitionId] {
        &self.replicas[v.index()]
    }

    /// Number of replicas of `v`.
    pub fn replica_count(&self, v: VertexId) -> usize {
        self.replicas[v.index()].len()
    }

    /// Total number of replicas across all vertices (`Σ_i |V_i|`).
    pub fn total_replicas(&self) -> usize {
        self.replicas.iter().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_rule_table() {
        let part = PartitionId::new;
        let mut table = ReplicaTable::new(9);
        // Elects `v` over `holders` with p = 4 and checks the outcome.
        let mut check = |v: u64, holders: &[(u32, u32)], master: u32, replicas: &[u32]| {
            let v = VertexId::new(v);
            let holders: Vec<_> = holders.iter().map(|&(p, c)| (part(p), c)).collect();
            let replicas: Vec<_> = replicas.iter().copied().map(part).collect();
            let isolated = table.elect(v, &holders, 4, MasterRule::IncidentMajority);
            assert_eq!(isolated, holders.is_empty(), "vertex {v}");
            assert_eq!(table.master_of(v), part(master), "vertex {v}");
            assert_eq!(table.replicas_of(v), replicas.as_slice(), "vertex {v}");
        };
        check(0, &[(2, 1)], 2, &[2]);
        // Count tie: the lower partition wins.
        check(1, &[(1, 3), (3, 3)], 1, &[1, 3]);
        // A higher count beats a lower id.
        check(2, &[(0, 1), (2, 4), (3, 2)], 2, &[0, 2, 3]);
        // No holders: home `v % p`, as a one-element replica list.
        check(7, &[], 3, &[3]);
        check(8, &[], 0, &[0]);
        // Re-electing replaces the previous outcome instead of appending.
        check(7, &[(1, 1)], 1, &[1]);
        assert_eq!(table.total_replicas(), 1 + 2 + 3 + 1 + 1);
    }
}
