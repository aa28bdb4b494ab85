//! A multilevel edge-cut partitioner in the style of METIS
//! (Karypis & Kumar): coarsen by heavy-edge matching, partition the coarsest
//! graph by greedy region growing, then uncoarsen with boundary
//! Kernighan–Lin/Fiduccia–Mattheyses refinement.
//!
//! This is a from-scratch reimplementation of the *algorithmic family*, not a
//! binding to the METIS library: the paper uses METIS as "the local-based
//! edge-cut baseline that balances vertices only", and that is precisely the
//! objective implemented here. Its failure mode on power-law graphs — vertex
//! counts balanced, edge counts wildly imbalanced — is what Tables II/III/V
//! of the paper document, and what the experiments in this repository
//! reproduce.

use std::collections::HashMap;

use ebv_graph::Graph;

use crate::assignment::{PartitionResult, VertexPartition};
use crate::error::Result;
use crate::partitioner::{check_partition_count, Partitioner};
use crate::types::PartitionId;

/// Coarsening stops once the graph has at most `COARSEN_FACTOR × p`
/// vertices.
const COARSEN_FACTOR: usize = 30;
/// Allowed vertex-weight imbalance during refinement (METIS' ubfactor): any
/// part may hold at most 3% more than the average weight.
const BALANCE_TOLERANCE: f64 = 0.03;
/// Number of boundary-refinement passes per level.
const REFINEMENT_PASSES: usize = 4;

/// The multilevel edge-cut (vertex partitioning) baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetisLikePartitioner;

impl MetisLikePartitioner {
    /// Creates the partitioner with METIS-like defaults (coarsen to ~30·p
    /// vertices, 3% imbalance tolerance, 4 refinement passes).
    pub fn new() -> Self {
        MetisLikePartitioner
    }
}

/// Converts a neighbour→weight map into an adjacency list with a
/// deterministic (sorted) neighbour order, so that the whole multilevel
/// pipeline is reproducible run to run despite using hash maps internally.
fn sorted_adjacency(map: HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut list: Vec<(usize, usize)> = map.into_iter().collect();
    list.sort_unstable();
    list
}

/// An undirected weighted graph used internally by the multilevel scheme.
#[derive(Debug, Clone)]
struct Level {
    vertex_weights: Vec<usize>,
    /// Adjacency as (neighbour, edge weight); no self loops.
    adjacency: Vec<Vec<(usize, usize)>>,
    /// Mapping from the finer level's vertices to this level's vertices
    /// (empty for level 0).
    fine_to_coarse: Vec<usize>,
}

impl Level {
    fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut weights: Vec<HashMap<usize, usize>> = vec![HashMap::new(); n];
        for e in graph.edges() {
            let (a, b) = (e.src.index(), e.dst.index());
            if a == b {
                continue;
            }
            *weights[a].entry(b).or_insert(0) += 1;
            *weights[b].entry(a).or_insert(0) += 1;
        }
        Level {
            vertex_weights: vec![1; n],
            adjacency: weights.into_iter().map(sorted_adjacency).collect(),
            fine_to_coarse: Vec::new(),
        }
    }

    /// Heavy-edge matching followed by contraction. Returns `None` when the
    /// matching no longer shrinks the graph meaningfully.
    fn coarsen(&self) -> Option<Level> {
        let n = self.num_vertices();
        let mut matched = vec![usize::MAX; n];
        // Visit vertices from lowest degree so leaves match early.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| self.adjacency[v].len());
        for &v in &order {
            if matched[v] != usize::MAX {
                continue;
            }
            let mut best: Option<(usize, usize)> = None;
            for &(u, w) in &self.adjacency[v] {
                if matched[u] == usize::MAX && Some(w) > best.map(|(_, bw)| bw) {
                    best = Some((u, w));
                }
            }
            match best {
                Some((u, _)) => {
                    matched[v] = u;
                    matched[u] = v;
                }
                None => matched[v] = v,
            }
        }

        // Assign coarse identifiers.
        let mut fine_to_coarse = vec![usize::MAX; n];
        let mut next = 0usize;
        for v in 0..n {
            if fine_to_coarse[v] != usize::MAX {
                continue;
            }
            let mate = matched[v];
            fine_to_coarse[v] = next;
            if mate != v && mate != usize::MAX {
                fine_to_coarse[mate] = next;
            }
            next += 1;
        }
        if next as f64 > 0.95 * n as f64 {
            return None; // matching stalled
        }

        let mut vertex_weights = vec![0usize; next];
        for v in 0..n {
            vertex_weights[fine_to_coarse[v]] += self.vertex_weights[v];
        }
        let mut edge_maps: Vec<HashMap<usize, usize>> = vec![HashMap::new(); next];
        for v in 0..n {
            let cv = fine_to_coarse[v];
            for &(u, w) in &self.adjacency[v] {
                let cu = fine_to_coarse[u];
                if cu == cv {
                    continue;
                }
                *edge_maps[cv].entry(cu).or_insert(0) += w;
            }
        }
        // Each undirected edge was visited from both sides; halve the weight.
        let adjacency = edge_maps
            .into_iter()
            .map(|m| {
                sorted_adjacency(
                    m.into_iter()
                        .map(|(u, w)| (u, w.div_ceil(2)))
                        .collect::<HashMap<_, _>>(),
                )
            })
            .collect();
        Some(Level {
            vertex_weights,
            adjacency,
            fine_to_coarse,
        })
    }

    /// Greedy region-growing initial partition balancing vertex weight.
    fn initial_partition(&self, p: usize) -> Vec<usize> {
        let n = self.num_vertices();
        let total_weight: usize = self.vertex_weights.iter().sum();
        let target = total_weight as f64 / p as f64;
        let mut part = vec![usize::MAX; n];
        let mut part_weight = vec![0usize; p];
        let mut current = 0usize;

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| self.adjacency[v].len());
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut cursor = 0usize;

        let mut assigned = 0usize;
        while assigned < n {
            let v = match queue.pop_front() {
                Some(v) if part[v] == usize::MAX => v,
                Some(_) => continue,
                None => {
                    while cursor < n && part[order[cursor]] != usize::MAX {
                        cursor += 1;
                    }
                    if cursor >= n {
                        break;
                    }
                    order[cursor]
                }
            };
            if part[v] != usize::MAX {
                continue;
            }
            part[v] = current;
            part_weight[current] += self.vertex_weights[v];
            assigned += 1;
            for &(u, _) in &self.adjacency[v] {
                if part[u] == usize::MAX {
                    queue.push_back(u);
                }
            }
            if part_weight[current] as f64 >= target && current + 1 < p {
                current += 1;
                queue.clear();
            }
        }
        // Anything left (isolated vertices) goes to the lightest part.
        for (v, home) in part.iter_mut().enumerate() {
            if *home == usize::MAX {
                let lightest = (0..p).min_by_key(|&i| part_weight[i]).unwrap_or(0);
                *home = lightest;
                part_weight[lightest] += self.vertex_weights[v];
            }
        }
        part
    }

    /// Boundary KL/FM-style refinement: greedily move boundary vertices to
    /// the neighbouring part with the largest cut-weight gain, subject to the
    /// vertex-weight balance constraint.
    fn refine(&self, part: &mut [usize], p: usize) {
        let total_weight: usize = self.vertex_weights.iter().sum();
        let max_weight =
            ((total_weight as f64 / p as f64) * (1.0 + BALANCE_TOLERANCE)).ceil() as usize;
        let mut part_weight = vec![0usize; p];
        for v in 0..self.num_vertices() {
            part_weight[part[v]] += self.vertex_weights[v];
        }

        for _ in 0..REFINEMENT_PASSES {
            let mut moved = 0usize;
            for v in 0..self.num_vertices() {
                let own = part[v];
                // Connectivity of v to each part.
                let mut link = vec![0usize; p];
                for &(u, w) in &self.adjacency[v] {
                    link[part[u]] += w;
                }
                let internal = link[own];
                let mut best_gain = 0isize;
                let mut best_part = own;
                for candidate in 0..p {
                    if candidate == own {
                        continue;
                    }
                    if part_weight[candidate] + self.vertex_weights[v] > max_weight {
                        continue;
                    }
                    let gain = link[candidate] as isize - internal as isize;
                    if gain > best_gain {
                        best_gain = gain;
                        best_part = candidate;
                    }
                }
                if best_part != own {
                    part_weight[own] -= self.vertex_weights[v];
                    part_weight[best_part] += self.vertex_weights[v];
                    part[v] = best_part;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }

        // Balance pass: the greedy initial partition can overshoot the
        // target weight; force every part back under the cap by moving its
        // least-connected vertices to the lightest part, accepting cut-size
        // regressions (METIS likewise prioritizes the balance constraint).
        let mut safety = 4 * self.num_vertices();
        loop {
            safety = safety.saturating_sub(1);
            if safety == 0 {
                break;
            }
            let Some(over) = (0..p).find(|&i| part_weight[i] > max_weight) else {
                break;
            };
            let lightest = (0..p)
                .min_by_key(|&i| part_weight[i])
                .expect("at least one partition");
            if lightest == over {
                break;
            }
            let mut best: Option<(isize, usize)> = None;
            for v in 0..self.num_vertices() {
                if part[v] != over {
                    continue;
                }
                let mut to_lightest = 0usize;
                let mut internal = 0usize;
                for &(u, w) in &self.adjacency[v] {
                    if part[u] == lightest {
                        to_lightest += w;
                    } else if part[u] == over {
                        internal += w;
                    }
                }
                let gain = to_lightest as isize - internal as isize;
                if best.map(|(g, _)| gain > g).unwrap_or(true) {
                    best = Some((gain, v));
                }
            }
            let Some((_, v)) = best else { break };
            part_weight[over] -= self.vertex_weights[v];
            part_weight[lightest] += self.vertex_weights[v];
            part[v] = lightest;
        }
    }
}

impl Partitioner for MetisLikePartitioner {
    fn name(&self) -> String {
        "METIS-like".to_string()
    }

    fn partition(&self, graph: &Graph, num_partitions: usize) -> Result<PartitionResult> {
        check_partition_count(graph, num_partitions)?;
        let p = num_partitions;

        // Phase 1: coarsen.
        let mut levels = vec![Level::from_graph(graph)];
        let stop_at = (COARSEN_FACTOR * p).max(p * 2);
        while levels.last().expect("non-empty").num_vertices() > stop_at {
            match levels.last().expect("non-empty").coarsen() {
                Some(coarser) => levels.push(coarser),
                None => break,
            }
        }

        // Phase 2: initial partition of the coarsest level.
        let coarsest = levels.last().expect("non-empty");
        let mut part = coarsest.initial_partition(p);
        coarsest.refine(&mut part, p);

        // Phase 3: uncoarsen and refine level by level.
        for window in (1..levels.len()).rev() {
            let coarse = &levels[window];
            let fine = &levels[window - 1];
            let mut fine_part = vec![0usize; fine.num_vertices()];
            for v in 0..fine.num_vertices() {
                fine_part[v] = part[coarse.fine_to_coarse[v]];
            }
            fine.refine(&mut fine_part, p);
            part = fine_part;
        }

        let assignment = part
            .into_iter()
            .map(PartitionId::from_index)
            .collect::<Vec<_>>();
        Ok(VertexPartition::new(p, assignment)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomEdgeCutPartitioner;
    use crate::metrics::PartitionMetrics;
    use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
    use ebv_graph::VertexId;

    #[test]
    fn produces_a_complete_vertex_assignment() {
        let g = RmatGenerator::new(9, 8).with_seed(1).generate().unwrap();
        let result = MetisLikePartitioner::new().partition(&g, 8).unwrap();
        let ec = result.as_edge_cut().unwrap();
        assert_eq!(ec.num_vertices(), g.num_vertices());
        assert_eq!(ec.vertex_counts().iter().sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn vertex_balance_is_tight() {
        let g = RmatGenerator::new(10, 8).with_seed(3).generate().unwrap();
        let m =
            PartitionMetrics::compute(&g, &MetisLikePartitioner::new().partition(&g, 8).unwrap())
                .unwrap();
        assert!(
            m.vertex_imbalance < 1.25,
            "vertex imbalance {}",
            m.vertex_imbalance
        );
    }

    #[test]
    fn cuts_fewer_edges_than_random_placement() {
        let g = GridGenerator::new(30, 30).generate().unwrap();
        let metis = MetisLikePartitioner::new().partition(&g, 4).unwrap();
        let random = RandomEdgeCutPartitioner::new().partition(&g, 4).unwrap();
        let metis_cut = metis.as_edge_cut().unwrap().cut_edges(&g);
        let random_cut = random.as_edge_cut().unwrap().cut_edges(&g);
        assert!(
            metis_cut < random_cut / 2,
            "metis cut {metis_cut} vs random cut {random_cut}"
        );
    }

    #[test]
    fn grid_partition_is_spatially_coherent() {
        // On a mesh the replication factor (Σ|E_i|/|E|) should stay close to
        // 1: few edges cross tiles.
        let g = GridGenerator::new(32, 32).generate().unwrap();
        let m =
            PartitionMetrics::compute(&g, &MetisLikePartitioner::new().partition(&g, 4).unwrap())
                .unwrap();
        assert!(m.replication_factor < 1.2, "rf {}", m.replication_factor);
    }

    #[test]
    fn edge_imbalance_grows_with_skew() {
        let skewed = RmatGenerator::new(11, 16).with_seed(7).generate().unwrap();
        let road = GridGenerator::new(60, 60).generate().unwrap();
        let m_skewed = PartitionMetrics::compute(
            &skewed,
            &MetisLikePartitioner::new().partition(&skewed, 8).unwrap(),
        )
        .unwrap();
        let m_road = PartitionMetrics::compute(
            &road,
            &MetisLikePartitioner::new().partition(&road, 8).unwrap(),
        )
        .unwrap();
        assert!(
            m_skewed.edge_imbalance > m_road.edge_imbalance,
            "skewed {} vs road {}",
            m_skewed.edge_imbalance,
            m_road.edge_imbalance
        );
    }

    #[test]
    fn figure1_graph_partitions_without_panicking() {
        let g = named::figure1_graph();
        let result = MetisLikePartitioner::new().partition(&g, 2).unwrap();
        result.validate(&g).unwrap();
        let ec = result.as_edge_cut().unwrap();
        // Both partitions are non-empty.
        assert!(ec.vertex_counts().iter().all(|&c| c > 0));
        // Every vertex has a valid owner.
        for v in g.vertices() {
            assert!(ec.part_of(v).index() < 2);
        }
        let _ = ec.part_of(VertexId::new(0));
    }
}
