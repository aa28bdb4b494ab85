//! The served global out-adjacency: one CSR read off the distribution's
//! per-subgraph CSRs when a commit is prepared — in an epoch loop, while
//! the epoch's programs run — either built from scratch or patched forward
//! from the previous commit's (see
//! [`SnapshotStore::prepare_epoch`](crate::SnapshotStore)).

use ebv_bsp::DistributedGraph;
use ebv_graph::VertexId;

/// Global out-neighborhoods in CSR form, read off the distribution's
/// per-subgraph CSRs when a commit is prepared (under a vertex-cut every
/// edge lives in exactly one subgraph; lists are sorted and deduplicated
/// so edge-cut distributions and parallel copies serve correctly too).
/// Targets are stored as 32-bit vertex ids, half the bytes of a `u64`.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    pub(crate) offsets: Vec<usize>,
    pub(crate) targets: Vec<u32>,
    /// [`Lineage::state`](ebv_bsp::Lineage::state) of the distribution
    /// these lists describe; 0 — no state — for the empty default. This is
    /// what lets a commit *know* whether the adjacency it holds is the new
    /// state's own, its parent's, or neither.
    pub(crate) state: u64,
}

impl Adjacency {
    /// Builds the global out-adjacency of `distributed` from scratch: a
    /// two-pass counting sort into one CSR (degree histogram, scatter),
    /// then each list sorted and deduplicated in place.
    pub fn from_distributed(distributed: &DistributedGraph) -> Adjacency {
        let n = distributed.num_vertices();
        let mut offsets = vec![0usize; n + 1];
        for sg in distributed.subgraphs() {
            for (local, v) in sg.vertices().iter().enumerate() {
                offsets[v.index() + 1] += sg.out_neighbors(local).len();
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        for sg in distributed.subgraphs() {
            for (local, v) in sg.vertices().iter().enumerate() {
                let at = &mut cursor[v.index()];
                for &neighbor in sg.out_neighbors(local) {
                    targets[*at] = sg.vertex_at(neighbor as usize).into();
                    *at += 1;
                }
            }
        }
        // Sort each list, then compact the survivors of its dedup down over
        // the gaps earlier lists left (`kept` never passes the read index).
        let mut kept = 0;
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1];
            targets[start..end].sort_unstable();
            let list_start = kept;
            for i in start..end {
                let target = targets[i];
                if kept == list_start || targets[kept - 1] != target {
                    targets[kept] = target;
                    kept += 1;
                }
            }
            offsets[v + 1] = kept;
            start = end;
        }
        targets.truncate(kept);
        Adjacency {
            offsets,
            targets,
            state: distributed.lineage().state,
        }
    }

    /// The adjacency of `distributed`, given that `self` describes the
    /// state its last batch was applied to and `affected` (ascending) is
    /// that batch's affected list: every other vertex's list is copied
    /// forward, a run at a time, and only the affected sources are re-read
    /// from their holders — sorted and deduplicated exactly as
    /// [`from_distributed`](Self::from_distributed) does, which is what
    /// keeps the neighbour of a removed edge whose parallel copy survives.
    pub(crate) fn patched(&self, distributed: &DistributedGraph, affected: &[usize]) -> Adjacency {
        let n = distributed.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len() + affected.len());
        offsets.push(0);
        // Copies the lists of the unaffected run `from..to` (vertices the
        // previous state already had: a created vertex is always affected).
        let copy_run =
            |offsets: &mut Vec<usize>, targets: &mut Vec<u32>, from: usize, to: usize| {
                if from == to {
                    return;
                }
                let (lo, base) = (self.offsets[from], targets.len());
                targets.extend_from_slice(&self.targets[lo..self.offsets[to]]);
                offsets.extend(
                    self.offsets[from + 1..=to]
                        .iter()
                        .map(|&end| base + (end - lo)),
                );
            };
        let mut next = 0;
        let mut list = Vec::new();
        for &vertex in affected {
            copy_run(&mut offsets, &mut targets, next, vertex);
            let v = VertexId::from(vertex);
            list.clear();
            for (sg, local) in distributed.holders_of(v) {
                let neighbors = sg.out_neighbors(local).iter();
                list.extend(neighbors.map(|&neighbor| u32::from(sg.vertex_at(neighbor as usize))));
            }
            list.sort_unstable();
            list.dedup();
            targets.extend_from_slice(&list);
            offsets.push(targets.len());
            next = vertex + 1;
        }
        copy_run(&mut offsets, &mut targets, next, n);
        Adjacency {
            offsets,
            targets,
            state: distributed.lineage().state,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The sorted out-neighbors of `vertex`, as raw 32-bit vertex ids.
    pub fn neighbors(&self, vertex: usize) -> &[u32] {
        &self.targets[self.offsets[vertex]..self.offsets[vertex + 1]]
    }
}
