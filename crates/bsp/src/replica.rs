//! Replica bookkeeping and master election.
//!
//! Invariant owned here: the [`ReplicaTable`] is derived from the workers'
//! vertex tables, never maintained beside them. Per vertex it holds one run
//! of `(worker, live incident edges, local index)` entries, one per worker
//! whose vertex table lists the vertex, ascending by worker: the count is
//! that replica's local degree (out + in, so a self-loop counts twice) and
//! the local index its position in that vertex table. Exactly one entry of
//! the run is the master. A vertex no worker's edges touch is *isolated*:
//! it sits in the tail of its round-robin home worker `v % p`'s vertex
//! table, so its run is one zero-count entry there, its master, and every
//! vertex is processed by exactly one worker; every other count is
//! positive. [`ReplicaTable::derive`] writes the runs, and decides the
//! isolated tails, at assembly and in every epoch alike, once the workers
//! are (re)built; then it elects every vertex by [`ReplicaTable::elect`],
//! the one election rule, and writes every worker's master flags, their
//! one write path. Routing, the master flags and `holders_of` all find a
//! replica here; past the universe every reader but `master_of` finds
//! none.

use ebv_graph::VertexId;
use ebv_partition::{PartitionId, VertexPartition};

use crate::subgraph::Subgraph;

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
    /// Per vertex, where its run starts in `holders`; one entry longer.
    offsets: Vec<u32>,
    /// Every replica, vertex-major.
    holders: Vec<Holder>,
}

impl ReplicaTable {
    /// A table over no vertex, for [`derive`](Self::derive) to fill.
    pub(crate) fn new() -> Self {
        ReplicaTable {
            master: Vec::new(),
            offsets: vec![0],
            holders: Vec::new(),
        }
    }

    /// The one derivation, at assembly and in every epoch once the workers
    /// are (re)built: the runs of the universe `0..n`, read off the
    /// workers' vertex tables into the buffers the table already holds;
    /// then every vertex is elected and every worker's master flags are
    /// written ([`Subgraph::write_masters`]). Elections are deterministic,
    /// so a vertex no epoch touched is re-elected where it was.
    ///
    /// The runs take two passes. The first counts, per vertex, the workers
    /// whose edges touch it; a worker's isolated tail that no longer lists
    /// exactly the vertices homed there that none touches is rewritten
    /// ([`place_isolated`](Self::place_isolated)) and marked `touched`.
    /// After a prefix sum, the second walks the workers in ascending order
    /// and writes each replica at its vertex's cursor, so every run ascends
    /// by worker.
    pub(crate) fn derive(
        &mut self,
        subgraphs: &mut [Subgraph],
        n: usize,
        touched: &mut [bool],
        rule: MasterRule<'_>,
    ) {
        let p = subgraphs.len();
        // Pass 1: `offsets[v + 1]` counts the workers whose edges touch `v`.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for v in subgraphs.iter().flat_map(Subgraph::held) {
            self.offsets[v.index() + 1] += 1;
        }
        self.place_isolated(subgraphs, n, touched);
        // `offsets[v + 1]` becomes the start of `v`'s run (an isolated
        // vertex's is one entry long), then its fill cursor, then its end.
        let mut start = 0u32;
        for slot in &mut self.offsets[1..] {
            let len = (*slot).max(1);
            *slot = start;
            start = start.checked_add(len).expect("replica count fits u32");
        }
        let (part, count, local) = (PartitionId::default(), 0, u32::MAX);
        self.holders.clear();
        self.holders
            .resize(start as usize, Holder { part, count, local });
        for (sg, part) in subgraphs.iter().zip((0..p).map(PartitionId::from_index)) {
            for ((v, count), local) in sg.local_degrees().zip(0u32..) {
                let cursor = &mut self.offsets[v.index() + 1];
                self.holders[*cursor as usize] = Holder { part, count, local };
                *cursor += 1;
            }
        }
        debug_assert!(self.holders.iter().all(|holder| holder.local != u32::MAX));
        self.master.resize(n, PartitionId::default());
        for v in (0..n).map(VertexId::from) {
            self.elect(v, rule);
        }
        for sg in subgraphs.iter_mut() {
            sg.write_masters(self);
        }
    }

    /// Lists every vertex of `0..n` that pass 1 counted no holder for in
    /// the tail of its home worker `v % p`, ascending, and marks `touched`
    /// each worker whose tail that changed.
    ///
    /// Each worker's tail is first sized for what will be listed there, so
    /// neither its vertex table nor its components grow while it is
    /// written. Then one ascending walk, the home stepping round the
    /// workers beside it: a worker's tail is compared entry by entry until
    /// the first mismatch and written from there on
    /// ([`Subgraph::put_isolated`]), so a stale tail is rewritten in the
    /// same walk that finds it stale. A tail that is stale or whose length
    /// changed is then cut to what was listed ([`Subgraph::end_isolated`]).
    fn place_isolated(&self, subgraphs: &mut [Subgraph], n: usize, touched: &mut [bool]) {
        let p = subgraphs.len();
        let mut room = vec![0usize; p];
        for (v, &counts) in self.offsets[1..=n].iter().enumerate() {
            if counts == 0 {
                room[v % p] += 1;
            }
        }
        for (sg, &len) in subgraphs.iter_mut().zip(&room) {
            sg.reserve_isolated(len);
        }
        let (mut listed, mut stale) = (vec![0usize; p], vec![false; p]);
        let mut home = 0;
        for (v, counts) in self.offsets[1..=n].iter().enumerate() {
            if *counts == 0 {
                let (sg, at, v) = (&mut subgraphs[home], listed[home], VertexId::from(v));
                stale[home] = stale[home] || sg.isolated().get(at) != Some(&v);
                if stale[home] {
                    sg.put_isolated(at, v);
                }
                listed[home] += 1;
            }
            home += 1;
            if home == p {
                home = 0;
            }
        }
        for (i, sg) in subgraphs.iter_mut().enumerate() {
            if stale[i] || listed[i] != sg.isolated().len() {
                sg.end_isolated(listed[i]);
                touched[i] = true;
            }
        }
    }

    /// The pass [`place_isolated`](Self::place_isolated) replaced: the home
    /// of each isolated vertex by division, and each stale tail rewritten by
    /// two strided walks of its own.
    #[cfg(test)]
    fn place_isolated_by_division(
        &self,
        subgraphs: &mut [Subgraph],
        n: usize,
        touched: &mut [bool],
    ) {
        let p = subgraphs.len();
        let isolated = |offsets: &[u32], v: usize| offsets[v + 1] == 0;
        let (mut listed, mut stale) = (vec![0usize; p], vec![false; p]);
        for v in (0..n).filter(|&v| isolated(&self.offsets, v)) {
            let tail = subgraphs[v % p].isolated();
            stale[v % p] |= tail.get(listed[v % p]) != Some(&VertexId::from(v));
            listed[v % p] += 1;
        }
        for (i, sg) in subgraphs.iter_mut().enumerate() {
            if stale[i] || listed[i] != sg.isolated().len() {
                let homed = (i..n).step_by(p).filter(|&v| isolated(&self.offsets, v));
                sg.set_isolated(homed.map(VertexId::from));
                touched[i] = true;
            }
        }
    }

    /// The run of vertex index `v`; empty past the universe.
    fn run(&self, v: usize) -> &[Holder] {
        match self.offsets.get(v..).unwrap_or_default() {
            &[start, end, ..] => &self.holders[start as usize..end as usize],
            _ => &[],
        }
    }

    /// The election rule: the master of `v` is chosen among its holders by
    /// `rule`. A vertex with one replica — an isolated vertex's is at its
    /// home — is mastered there under either rule.
    fn elect(&mut self, v: VertexId, rule: MasterRule<'_>) {
        let run = self.run(v.index());
        self.master[v.index()] = match rule {
            _ if run.len() == 1 => run[0].part,
            MasterRule::Owner(owners) => owners.part_of(v),
            MasterRule::IncidentMajority => {
                let majority = run
                    .iter()
                    .max_by_key(|holder| (holder.count, std::cmp::Reverse(holder.part)));
                majority.expect("a held vertex has holders").part
            }
        };
    }

    /// Whether both tables elect the same masters over the same holders,
    /// placed at the same local indices.
    pub(crate) fn same_structure(&self, other: &Self) -> bool {
        self.master == other.master
            && self.offsets == other.offsets
            && self.holders == other.holders
    }

    /// The run of `v` as `(partition, live incident edges)`, for the
    /// structural suites.
    #[cfg(test)]
    pub(crate) fn counts(&self, v: VertexId) -> Vec<(PartitionId, u32)> {
        let holders = self.run(v.index()).iter();
        holders.map(|holder| (holder.part, holder.count)).collect()
    }

    /// The master partition of vertex `v`.
    ///
    /// # Panics
    ///
    /// If `v` is past the universe.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master[v.index()]
    }

    /// Every partition holding a replica of `v` (including the master), in
    /// increasing partition order; none past the universe.
    pub fn replicas_of(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        self.run(v.index()).iter().map(|holder| holder.part)
    }

    /// Number of replicas of `v`; zero past the universe.
    pub fn replica_count(&self, v: VertexId) -> usize {
        self.run(v.index()).len()
    }

    /// Total number of replicas across all vertices (`Σ_i |V_i|`).
    pub fn total_replicas(&self) -> usize {
        self.holders.len()
    }

    /// Every replica of `v` as `(worker, local index)`, ascending by
    /// worker; none past the universe.
    pub(crate) fn locations(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        self.run(v.index()).iter().map(Holder::location)
    }

    /// The `(worker, local index)` of `v`'s master replica; `None` past the
    /// universe.
    pub(crate) fn master_at(&self, v: VertexId) -> Option<(usize, usize)> {
        let master = *self.master.get(v.index())?;
        let run = self.run(v.index());
        let slot = run.binary_search_by_key(&master, |holder| holder.part);
        Some(run[slot.expect("the master holds a replica")].location())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::LocalComponents;
    use ebv_graph::Edge;

    /// How a row changes its vertex's holder list before the election.
    enum Step {
        /// Replace the list by the row's holders outright.
        Set,
        /// One edge copy on the partition added (`true`) or removed.
        Bump(u32, bool),
    }

    /// A table laid out from per-vertex holder lists as `(partition, live
    /// incident edges)`, an empty list standing for an isolated vertex at
    /// home `v % p`, every vertex elected.
    fn table_of(lists: &[Vec<(PartitionId, u32)>], p: usize) -> ReplicaTable {
        let mut table = ReplicaTable::new();
        for (v, list) in lists.iter().enumerate() {
            let home = [(PartitionId::from_index(v % p), 0)];
            let run = if list.is_empty() { &home[..] } else { list };
            let holders = run.iter().map(|&(part, count)| Holder {
                part,
                count,
                local: 0,
            });
            table.holders.extend(holders);
            table.offsets.push(table.holders.len() as u32);
            table.master.push(PartitionId::default());
        }
        for v in (0..lists.len()).map(VertexId::from) {
            table.elect(v, MasterRule::IncidentMajority);
        }
        table
    }

    #[test]
    fn election_rule_table() {
        use Step::{Bump, Set};
        let part = PartitionId::new;
        // As assembly does: every vertex elected, here all isolated.
        let mut lists: Vec<Vec<(PartitionId, u32)>> = vec![Vec::new(); 9];
        let mut table = table_of(&lists, 4);
        // Applies `step` to `v`'s list, lays the table out again with every
        // vertex elected (p = 4) and checks the run (an isolated vertex's is
        // its zero-count home entry), the master and the replicas.
        let mut check =
            |v: u64, step: Step, holders: &[(u32, u32)], master: u32, replicas: &[u32]| {
                let v = VertexId::new(v);
                let holders: Vec<_> = holders.iter().map(|&(p, c)| (part(p), c)).collect();
                let list = &mut lists[v.index()];
                match step {
                    Set => list.clone_from(&holders),
                    Bump(p, added) => {
                        let slot = list.binary_search_by_key(&part(p), |&(p, _)| p);
                        match (slot, added) {
                            (Ok(slot), true) => list[slot].1 += 1,
                            (Err(slot), true) => list.insert(slot, (part(p), 1)),
                            (Ok(slot), false) => list[slot].1 -= 1,
                            (Err(_), false) => panic!("vertex {v} holds nothing on {p}"),
                        }
                        list.retain(|&(_, count)| count > 0);
                    }
                }
                table = table_of(&lists, 4);
                let home = vec![(part(v.raw() as u32 % 4), 0)];
                let expected = if holders.is_empty() { home } else { holders };
                assert_eq!(table.counts(v), expected, "vertex {v}");
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
        // A self-loop counts on both ends; vertex 3 touches no edge, so it
        // is isolated at home 3 % 3 = 0.
        let edge_lists = [vec![e(0, 1), e(1, 1)], Vec::new(), vec![e(2, 1), e(1, 0)]];
        let mut scratch = Subgraph::build_scratch(4, 2);
        let mut subgraphs: Vec<Subgraph> = (0..3)
            .map(|i| {
                Subgraph::build(
                    part(i),
                    edge_lists[i as usize].clone(),
                    Vec::new(),
                    &mut scratch,
                )
            })
            .collect();
        let mut table = ReplicaTable::new();
        // As assembly does: every worker is new.
        let mut touched = [true; 3];
        let rule = MasterRule::IncidentMajority;
        table.derive(&mut subgraphs, 4, &mut touched, rule);
        let lists: Vec<_> = (0..4).map(|v| table.counts(VertexId::new(v))).collect();
        assert_eq!(
            lists,
            [
                vec![(part(0), 1), (part(2), 1)],
                vec![(part(0), 3), (part(2), 2)],
                vec![(part(2), 1)],
                vec![(part(0), 0)],
            ]
        );
        // The isolated vertex sits at its home worker's tail.
        assert_eq!(subgraphs[0].vertices(), [0, 1, 3].map(VertexId::new));
        assert_eq!(subgraphs[0].isolated(), [VertexId::new(3)]);
        // Every entry's local index is its vertex's position in that
        // worker's vertex table, and the runs ascend by worker.
        for v in (0..4).map(VertexId::new) {
            let at: Vec<_> = table.locations(v).collect();
            assert!(at.windows(2).all(|w| w[0].0 < w[1].0), "vertex {v}: {at:?}");
            for (worker, local) in at {
                assert_eq!(subgraphs[worker].vertex_at(local), v, "vertex {v}");
            }
        }
        assert_eq!(table.total_replicas(), 6);

        // Deriving again over kept workers changes nothing and writes no
        // tail.
        let before = table.clone();
        let mut touched = [false; 3];
        table.derive(&mut subgraphs, 4, &mut touched, rule);
        assert!(table.same_structure(&before));
        assert_eq!(touched, [false; 3]);
    }

    /// Workers over the universe `0..n` built from `lists`, each with the
    /// isolated tail `tails` gives it, and a table whose offsets hold pass
    /// 1's holder counts over them.
    fn counted(lists: &[Vec<Edge>], tails: &[Vec<u64>], n: usize) -> (ReplicaTable, Vec<Subgraph>) {
        let mut scratch = Subgraph::build_scratch(n, 0);
        let subgraphs: Vec<Subgraph> = lists
            .iter()
            .zip(tails)
            .enumerate()
            .map(|(i, (edges, tail))| {
                let part = PartitionId::from_index(i);
                let mut sg = Subgraph::build(part, edges.clone(), Vec::new(), &mut scratch);
                sg.set_isolated(tail.iter().map(|&v| VertexId::new(v)));
                sg
            })
            .collect();
        let mut table = ReplicaTable::new();
        table.offsets.resize(n + 1, 0);
        for v in subgraphs.iter().flat_map(Subgraph::held) {
            table.offsets[v.index() + 1] += 1;
        }
        (table, subgraphs)
    }

    #[test]
    fn one_walk_places_the_tails_the_division_walks_placed() {
        // SplitMix64: a value below `bound` (0 when it is 0).
        let mut state = 36u64;
        let mut draw = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        };
        let mut rewritten = 0;
        for case in 0..400 {
            let (p, n) = (1 + draw(5), draw(40));
            let edges = draw(3 * n + 1);
            let mut lists = vec![Vec::new(); p];
            for _ in 0..edges.min(n * n) {
                let (s, d) = (draw(n) as u64, draw(n) as u64);
                lists[draw(p)].push(Edge::from((s, d)));
            }
            // Each worker's tail before the walk: some of the vertices homed
            // there, some of them held somewhere and some missing, so tails
            // are kept, cut, grown and rewritten from the middle.
            let tails: Vec<Vec<u64>> = (0..p)
                .map(|i| {
                    (i..n)
                        .step_by(p)
                        .filter(|_| draw(3) != 0)
                        .map(|v| v as u64)
                        .collect()
                })
                .collect();
            let (table, mut walked) = counted(&lists, &tails, n);
            let mut by_division = walked.clone();
            let (mut touched, mut expected) = (vec![false; p], vec![false; p]);
            table.place_isolated(&mut walked, n, &mut touched);
            table.place_isolated_by_division(&mut by_division, n, &mut expected);
            assert_eq!(touched, expected, "case {case}");
            for (i, (sg, oracle)) in walked.iter().zip(&by_division).enumerate() {
                assert!(sg.same_structure(oracle), "case {case} worker {i}");
                assert_eq!(sg.isolated(), oracle.isolated(), "case {case} worker {i}");
                let (got, want) = (sg.local_components(), oracle.local_components());
                assert_eq!(got, want, "case {case} worker {i}");
                assert_eq!(got, &LocalComponents::build(sg), "case {case} worker {i}");
            }
            rewritten += touched.iter().filter(|&&t| t).count();
        }
        assert!(rewritten > 100, "only {rewritten} tails rewritten");
    }

    #[test]
    fn the_readers_find_nothing_past_the_universe() {
        let edges = vec![Edge::from((0u64, 1u64)), Edge::from((2u64, 3u64))];
        let mut scratch = Subgraph::build_scratch(4, 2);
        let part = PartitionId::new(0);
        let mut subgraphs = [Subgraph::build(part, edges, Vec::new(), &mut scratch)];
        let mut table = ReplicaTable::new();
        let rule = MasterRule::IncidentMajority;
        table.derive(&mut subgraphs, 4, &mut [true], rule);
        let last = VertexId::new(3);
        assert_eq!(table.replicas_of(last).collect::<Vec<_>>(), [part]);
        assert_eq!(table.master_at(last), Some((0, 3)));
        let past = VertexId::new(4);
        assert_eq!(table.replicas_of(past).count(), 0);
        assert_eq!(table.replica_count(past), 0);
        assert_eq!(table.locations(past).len(), 0);
        assert_eq!(table.master_at(past), None);
    }
}
