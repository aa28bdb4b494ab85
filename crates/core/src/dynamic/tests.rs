//! The online partitioner's own suite: insert-only runs against batch
//! EBV, deletions and the copy rule, maintained metrics against a recount
//! under churn, restore, rebalancing and compaction.

use super::*;
use crate::{EbvPartitioner, HdrfPartitioner, Partitioner, RandomVertexCutPartitioner};
use ebv_graph::generators::{GraphGenerator, RmatGenerator};
use ebv_graph::GraphBuilder;
use std::collections::HashMap;

fn edge(s: u64, d: u64) -> Edge {
    Edge::from((s, d))
}

/// Recomputes the maintained metrics from scratch over the survivors.
fn reference_metrics(partitioner: &DynamicPartitioner) -> PartitionMetrics {
    let mut builder = GraphBuilder::directed();
    for (e, _) in partitioner.surviving() {
        builder.add_edge(e);
    }
    builder.num_vertices(partitioner.num_vertices());
    let graph = builder.build().unwrap();
    let result = partitioner.snapshot().unwrap();
    PartitionMetrics::compute(&graph, &result).unwrap()
}

fn assert_bit_identical(a: PartitionMetrics, b: PartitionMetrics) {
    assert!(
        a.edge_imbalance == b.edge_imbalance
            && a.vertex_imbalance == b.vertex_imbalance
            && a.replication_factor == b.replication_factor,
        "maintained {a:?} != recomputed {b:?}"
    );
}

/// An insert-only stream reproduces the single pass of batch EBV (input
/// order) and batch HDRF: every insert's partition, the snapshot and
/// the maintained metrics.
#[test]
fn insert_only_matches_streaming_bit_for_bit() {
    let g = RmatGenerator::new(8, 8).with_seed(21).generate().unwrap();
    let config = StreamConfig::new(5)
        .with_expected_vertices(g.num_vertices())
        .with_expected_edges(g.num_edges());
    let batch_ebv = EbvPartitioner::new().unsorted().partition(&g, 5).unwrap();
    let batch_hdrf = HdrfPartitioner::new().partition(&g, 5).unwrap();
    for (mut dynamic, batch) in [
        (EbvPartitioner::new().dynamic(config).unwrap(), batch_ebv),
        (HdrfPartitioner::new().dynamic(config).unwrap(), batch_hdrf),
    ] {
        let name = dynamic.name();
        let assignment = batch.as_vertex_cut().unwrap().assignment();
        for (&e, &expected) in g.edges().iter().zip(assignment) {
            assert_eq!(dynamic.insert(e), expected, "{name} edge {e}");
        }
        assert_eq!(dynamic.snapshot().unwrap(), batch, "{name}");
        let metrics = PartitionMetrics::compute(&g, &batch).unwrap();
        assert_bit_identical(dynamic.metrics(), metrics);
    }
}

#[test]
fn deletion_reverts_state_exactly() {
    let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(3)).unwrap();
    for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
        dynamic.insert(edge(s, d));
    }
    let before = dynamic.metrics();
    let part = dynamic.insert(edge(4, 5));
    assert_eq!(dynamic.delete(edge(4, 5)).unwrap(), part);
    let after = dynamic.metrics();
    assert_eq!(dynamic.live_edges(), 5);
    // The universe grew (vertices 4 and 5 were observed), so the
    // replication factor denominator changed; load and cover state are
    // identical.
    assert_eq!(before.edge_imbalance, after.edge_imbalance);
    assert_eq!(before.vertex_imbalance, after.vertex_imbalance);
    assert_bit_identical(after, reference_metrics(&dynamic));
}

#[test]
fn duplicate_copies_form_a_multiset_with_lifo_deletion() {
    let mut dynamic = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(4))
        .unwrap();
    let e = edge(7, 9);
    let p1 = dynamic.insert(e);
    let p2 = dynamic.insert(e);
    assert_eq!(p1, p2, "edge-hash placement is copy-independent");
    assert_eq!(dynamic.live_edges(), 2);
    dynamic.delete(e).unwrap();
    assert_eq!(dynamic.live_edges(), 1);
    assert!(dynamic.covers(VertexId::new(7), p1));
    dynamic.delete(e).unwrap();
    assert!(!dynamic.covers(VertexId::new(7), p1));
    assert!(matches!(
        dynamic.delete(e),
        Err(PartitionError::EdgeNotPresent { .. })
    ));
}

#[test]
fn metrics_stay_exact_under_interleaved_churn() {
    let g = RmatGenerator::new(7, 8).with_seed(3).generate().unwrap();
    let mut dynamic = HdrfPartitioner::new()
        .dynamic(StreamConfig::new(4))
        .unwrap();
    let mut live: Vec<Edge> = Vec::new();
    for (i, &e) in g.edges().iter().enumerate() {
        dynamic.insert(e);
        live.push(e);
        if i % 3 == 2 {
            let victim = live.swap_remove((i * 7) % live.len());
            dynamic.delete(victim).unwrap();
        }
    }
    assert_eq!(dynamic.live_edges(), live.len());
    assert_bit_identical(dynamic.metrics(), reference_metrics(&dynamic));
}

#[test]
fn dynamic_random_is_history_oblivious() {
    let g = RmatGenerator::new(7, 6).with_seed(5).generate().unwrap();
    let mut dynamic = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(6))
        .unwrap();
    for &e in g.edges() {
        dynamic.insert(e);
    }
    for &e in g.edges().iter().step_by(2) {
        dynamic.delete(e).unwrap();
    }
    let survivors: Vec<(Edge, PartitionId)> = dynamic.surviving().collect();
    let mut fresh = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(6))
        .unwrap();
    for &(e, expected) in &survivors {
        assert_eq!(fresh.insert(e), expected, "edge {e}");
    }
    assert_eq!(fresh.snapshot().unwrap(), dynamic.snapshot().unwrap());
}

/// Churns a partitioner and returns the edges that are still live (in
/// an arbitrary but deterministic order usable for further deletes).
fn churn(dynamic: &mut DynamicPartitioner, graph_seed: u64) -> Vec<Edge> {
    let g = RmatGenerator::new(7, 8)
        .with_seed(graph_seed)
        .generate()
        .unwrap();
    let mut live: Vec<Edge> = Vec::new();
    for (i, &e) in g.edges().iter().enumerate() {
        dynamic.insert(e);
        live.push(e);
        if i % 4 == 3 {
            let victim = live.swap_remove((i * 13) % live.len());
            dynamic.delete(victim).unwrap();
        }
    }
    live
}

#[test]
#[allow(clippy::type_complexity)]
fn restored_partitioner_continues_bit_identically() {
    let cases: [(fn() -> DynamicPartitioner, &str); 3] = [
        (
            || {
                EbvPartitioner::new()
                    .dynamic(StreamConfig::new(4).with_expected_edges(200))
                    .unwrap()
            },
            "ebv",
        ),
        (
            || {
                HdrfPartitioner::new()
                    .dynamic(StreamConfig::new(4))
                    .unwrap()
            },
            "hdrf",
        ),
        (
            || {
                RandomVertexCutPartitioner::new()
                    .dynamic(StreamConfig::new(4))
                    .unwrap()
            },
            "random",
        ),
    ];
    for (make, name) in cases {
        let mut original = make();
        let mut live = churn(&mut original, 17);

        let survivors: Vec<(Edge, PartitionId)> = original.surviving().collect();
        let mut restored = make();
        restored
            .restore(original.num_vertices(), survivors.iter().copied())
            .unwrap();
        assert_eq!(restored.live_edges(), original.live_edges(), "{name}");
        assert_eq!(restored.num_vertices(), original.num_vertices(), "{name}");
        assert_eq!(
            restored.snapshot().unwrap(),
            original.snapshot().unwrap(),
            "{name}"
        );

        // Future churn must place and delete bit-identically.
        let extra = RmatGenerator::new(6, 8).with_seed(23).generate().unwrap();
        for (i, &e) in extra.edges().iter().enumerate() {
            assert_eq!(original.insert(e), restored.insert(e), "{name} edge {e}");
            live.push(e);
            if i % 3 == 1 {
                let victim = live.swap_remove((i * 11) % live.len());
                assert_eq!(
                    original.delete(victim).unwrap(),
                    restored.delete(victim).unwrap(),
                    "{name} delete {victim}"
                );
            }
        }
        assert_eq!(
            original.snapshot().unwrap(),
            restored.snapshot().unwrap(),
            "{name} final"
        );
        assert_bit_identical(original.metrics(), restored.metrics());
        assert_bit_identical(restored.metrics(), reference_metrics(&restored));
    }
}

#[test]
fn restore_rejects_non_fresh_state_and_bad_pairs() {
    let mut used = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
    used.insert(edge(0, 1));
    assert!(matches!(
        used.restore(4, [(edge(1, 2), PartitionId::new(0))]),
        Err(PartitionError::InvalidParameter { .. })
    ));

    let mut fresh = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
    assert!(matches!(
        fresh.restore(4, [(edge(0, 1), PartitionId::new(7))]),
        Err(PartitionError::InconsistentAssignment { .. })
    ));
    let mut fresh = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
    assert!(matches!(
        fresh.restore(2, [(edge(0, 5), PartitionId::new(0))]),
        Err(PartitionError::InconsistentAssignment { .. })
    ));
}

#[test]
fn rebalancer_restores_edge_balance() {
    let g = RmatGenerator::new(8, 8).with_seed(13).generate().unwrap();
    let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
    for &e in g.edges() {
        dynamic.insert(e);
    }
    // Starve three partitions: delete most of their edges so the
    // remaining load concentrates on partition 0.
    let victims: Vec<Edge> = dynamic
        .surviving()
        .filter(|(_, part)| part.index() != 0)
        .map(|(e, _)| e)
        .collect();
    for e in victims.iter().take(victims.len() * 9 / 10) {
        dynamic.delete(*e).unwrap();
    }
    let config = RebalanceConfig::new()
        .with_max_edge_imbalance(1.2)
        .with_target_edge_imbalance(1.05);
    let before = dynamic.metrics();
    assert!(before.edge_imbalance > 1.2, "setup is skewed: {before:?}");
    assert!(dynamic.needs_rebalance(&config));
    let plan = dynamic.rebalance(&config).unwrap();
    assert!(!plan.is_empty());
    let after = dynamic.metrics();
    assert!(
        after.edge_imbalance < before.edge_imbalance,
        "rebalance must reduce imbalance: {} -> {}",
        before.edge_imbalance,
        after.edge_imbalance
    );
    assert!(!dynamic.needs_rebalance(&config), "after {after:?}");
    // The migrated state is still exactly consistent.
    assert_bit_identical(after, reference_metrics(&dynamic));
    // And the plan replays: every move names a partition in range.
    for m in plan.moves() {
        assert!(m.from.index() < 4 && m.to.index() < 4 && m.from != m.to);
    }
}

#[test]
fn consolidation_sweep_reduces_replication() {
    // Scatter copies of a small clique across partitions by hashing, then
    // ask the rebalancer to consolidate.
    let mut dynamic = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(4))
        .unwrap();
    for s in 0..6u64 {
        for d in 0..6u64 {
            if s != d {
                dynamic.insert(edge(s, d));
            }
        }
    }
    let before = dynamic.metrics();
    let config = RebalanceConfig::new()
        .with_max_edge_imbalance(4.0)
        .with_target_edge_imbalance(1.4)
        .with_max_replication_factor(1.0);
    let plan = dynamic.rebalance(&config).unwrap();
    let after = dynamic.metrics();
    assert!(!plan.is_empty());
    assert!(
        after.replication_factor < before.replication_factor,
        "consolidation must free replicas: {} -> {}",
        before.replication_factor,
        after.replication_factor
    );
    assert_bit_identical(after, reference_metrics(&dynamic));
}

#[test]
fn rebalance_handles_tiny_and_near_empty_graphs() {
    let aggressive = RebalanceConfig::new()
        .with_max_edge_imbalance(1.0)
        .with_target_edge_imbalance(1.0);

    // Empty graph: nothing to migrate, nothing to panic over.
    let mut empty = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
    assert!(!empty.needs_rebalance(&aggressive));
    assert!(empty.rebalance(&aggressive).unwrap().is_empty());

    // One-edge graph: the single copy cannot be split; the epoch must
    // terminate with the copy intact.
    let mut single = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
    single.insert(edge(0, 1));
    let plan = single.rebalance(&aggressive).unwrap();
    assert!(plan.is_empty(), "one edge in one partition is feasible");
    assert_eq!(single.live_edges(), 1);
    assert_bit_identical(single.metrics(), reference_metrics(&single));

    // More partitions than edges (`average < 1`): without the clamp the
    // scaled target floors to a zero cap that blocks every receiver.
    // Three copies of one edge hash to the same partition (the Random
    // policy is copy-independent), giving a deterministic skew; the
    // epoch must spread them to one copy per partition.
    let mut sparse = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(8))
        .unwrap();
    for _ in 0..3 {
        sparse.insert(edge(0, 1));
    }
    assert_eq!(*sparse.edge_counts().iter().max().unwrap(), 3);
    assert!(sparse.needs_rebalance(&aggressive));
    let plan = sparse.rebalance(&aggressive).unwrap();
    assert_eq!(plan.len(), 2, "two copies migrate to empty partitions");
    assert_eq!(*sparse.edge_counts().iter().max().unwrap(), 1);
    assert_bit_identical(sparse.metrics(), reference_metrics(&sparse));
}

#[test]
fn below_threshold_epoch_is_a_no_op() {
    let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
    for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        dynamic.insert(edge(s, d));
    }
    let plan = dynamic
        .rebalance(&RebalanceConfig::new().with_max_edge_imbalance(8.0))
        .unwrap();
    assert!(plan.is_empty());
}

#[test]
fn invalid_configs_are_rejected() {
    assert!(EbvPartitioner::new().dynamic(StreamConfig::new(0)).is_err());
    assert!(EbvPartitioner::new()
        .with_alpha(-1.0)
        .dynamic(StreamConfig::new(2))
        .is_err());
    let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(2)).unwrap();
    dynamic.insert(edge(0, 1));
    let bad = RebalanceConfig::new()
        .with_max_edge_imbalance(1.1)
        .with_target_edge_imbalance(2.0);
    assert!(dynamic.rebalance(&bad).is_err());
    assert!(RebalanceConfig::new()
        .with_max_edge_imbalance(0.5)
        .validate()
        .is_err());
}

#[test]
fn empty_partitioner_reports_unit_metrics() {
    let dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(3)).unwrap();
    let m = dynamic.metrics();
    assert_eq!(m.edge_imbalance, 1.0);
    assert_eq!(m.vertex_imbalance, 1.0);
    assert_eq!(m.replication_factor, 1.0);
    assert!(dynamic.is_empty());
    assert_eq!(dynamic.name(), "EBV-dynamic");
    assert!(dynamic.state_bytes() >= 3 * std::mem::size_of::<usize>());
}

#[test]
fn compaction_bounds_state_by_live_edges() {
    let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap();
    // A window-like workload: 50k arrivals, live set capped at 100 by
    // deleting the oldest edge on every arrival past the cap.
    let mut live: std::collections::VecDeque<Edge> = std::collections::VecDeque::new();
    for i in 0..50_000u64 {
        let e = edge(i % 997, (i * 7 + 1) % 997);
        dynamic.insert(e);
        live.push_back(e);
        if live.len() > 100 {
            dynamic.delete(live.pop_front().unwrap()).unwrap();
        }
    }
    assert_eq!(dynamic.live_edges(), 100);
    // Without compaction the log alone would hold 50k entries
    // (~1.7 MB); compaction keeps resident state proportional to the
    // live set.
    assert!(
        dynamic.state_bytes() < 100_000,
        "state not compacted: {} bytes",
        dynamic.state_bytes()
    );
    // The compacted state is still exactly consistent and usable.
    assert_bit_identical(dynamic.metrics(), reference_metrics(&dynamic));
    let (expected_edge, expected_part) = dynamic.surviving().next().unwrap();
    assert_eq!(dynamic.delete(expected_edge).unwrap(), expected_part);
}

/// The state layout [`DynamicPartitioner`] had before its dense
/// refcounts and intrusive copy stacks: one incidence map per
/// partition, one position stack per edge, HDRF degrees in a map. Kept
/// as the reference the dense layout is checked against; it scores
/// through the same [`CoverLookup`] formulas, so any divergence in
/// `covers`/`vcount` shows up as a different placement.
struct MapOracle {
    policy: OraclePolicy,
    num_partitions: usize,
    log: Vec<(Edge, PartitionId, bool)>,
    copies: HashMap<Edge, Vec<usize>>,
    ecount: Vec<usize>,
    live_edges: usize,
    incidence: Vec<HashMap<VertexId, usize>>,
    max_vertex_exclusive: usize,
    expected_vertices: Option<usize>,
    expected_edges: Option<usize>,
}

enum OraclePolicy {
    Ebv { alpha: f64, beta: f64 },
    Hdrf { degree: HashMap<VertexId, usize> },
    Random,
}

impl CoverLookup for MapOracle {
    fn covers(&self, v: VertexId, i: usize) -> bool {
        self.incidence[i].contains_key(&v)
    }

    fn vcount(&self, i: usize) -> usize {
        self.incidence[i].len()
    }

    fn ecount(&self) -> &[usize] {
        &self.ecount
    }
}

impl MapOracle {
    /// An empty oracle with the policy and hints of `like`.
    fn like(like: &DynamicPartitioner) -> Self {
        let policy = match &like.policy {
            Policy::Ebv { alpha, beta } => OraclePolicy::Ebv {
                alpha: *alpha,
                beta: *beta,
            },
            Policy::Hdrf { .. } => OraclePolicy::Hdrf {
                degree: HashMap::new(),
            },
            Policy::Random => OraclePolicy::Random,
        };
        MapOracle {
            policy,
            num_partitions: like.num_partitions,
            log: Vec::new(),
            copies: HashMap::new(),
            ecount: vec![0; like.num_partitions],
            live_edges: 0,
            incidence: vec![HashMap::new(); like.num_partitions],
            max_vertex_exclusive: 0,
            expected_vertices: like.expected_vertices,
            expected_edges: like.expected_edges,
        }
    }

    fn num_vertices(&self) -> usize {
        self.expected_vertices
            .unwrap_or(0)
            .max(self.max_vertex_exclusive)
    }

    fn bump_degrees(&mut self, edge: Edge) {
        if let OraclePolicy::Hdrf { degree } = &mut self.policy {
            *degree.entry(edge.src).or_insert(0) += 1;
            *degree.entry(edge.dst).or_insert(0) += 1;
        }
    }

    fn insert(&mut self, edge: Edge) -> PartitionId {
        let needed = edge.src.index().max(edge.dst.index()) + 1;
        self.max_vertex_exclusive = self.max_vertex_exclusive.max(needed);
        let p = self.num_partitions;
        let (u, v) = edge.endpoints();
        self.bump_degrees(edge);
        let part = match &self.policy {
            OraclePolicy::Ebv { alpha, beta } => {
                let edges_per_part = match self.expected_edges {
                    Some(e) => e as f64 / p as f64,
                    None => (self.live_edges + 1) as f64 / p as f64,
                };
                let vertices_per_part = self.num_vertices() as f64 / p as f64;
                ebv_best_part(self, *alpha, *beta, edges_per_part, vertices_per_part, u, v)
            }
            OraclePolicy::Hdrf { degree } => {
                hdrf_best_part(self, degree[&u] as f64, degree[&v] as f64, u, v)
            }
            OraclePolicy::Random => dynamic_random_part(p, edge),
        };
        self.record(edge, part);
        part
    }

    fn record(&mut self, edge: Edge, part: PartitionId) {
        self.copies.entry(edge).or_default().push(self.log.len());
        self.log.push((edge, part, true));
        self.ecount[part.index()] += 1;
        self.live_edges += 1;
        *self.incidence[part.index()].entry(edge.src).or_insert(0) += 1;
        if edge.dst != edge.src {
            *self.incidence[part.index()].entry(edge.dst).or_insert(0) += 1;
        }
    }

    fn delete(&mut self, edge: Edge) -> Option<PartitionId> {
        let stack = self.copies.get_mut(&edge)?;
        let position = stack.pop()?;
        if stack.is_empty() {
            self.copies.remove(&edge);
        }
        self.log[position].2 = false;
        let part = self.log[position].1;
        self.ecount[part.index()] -= 1;
        self.live_edges -= 1;
        let endpoints = if edge.dst == edge.src {
            vec![edge.src]
        } else {
            vec![edge.src, edge.dst]
        };
        for v in endpoints {
            let map = &mut self.incidence[part.index()];
            *map.get_mut(&v).unwrap() -= 1;
            if map[&v] == 0 {
                map.remove(&v);
            }
        }
        if let OraclePolicy::Hdrf { degree } = &mut self.policy {
            for v in [edge.src, edge.dst] {
                *degree.get_mut(&v).unwrap() -= 1;
                if degree[&v] == 0 {
                    degree.remove(&v);
                }
            }
        }
        Some(part)
    }

    /// `DynamicPartitioner::restore` over the map layout.
    fn restored(
        like: &DynamicPartitioner,
        universe: usize,
        pairs: impl IntoIterator<Item = (Edge, PartitionId)>,
    ) -> Self {
        let mut oracle = MapOracle::like(like);
        for (edge, part) in pairs {
            oracle.record(edge, part);
            oracle.bump_degrees(edge);
        }
        oracle.max_vertex_exclusive = universe;
        oracle
    }

    fn surviving(&self) -> Vec<(Edge, PartitionId)> {
        let live = self.log.iter().filter(|entry| entry.2);
        live.map(|&(edge, part, _)| (edge, part)).collect()
    }

    fn vertex_counts(&self) -> Vec<usize> {
        self.incidence.iter().map(|m| m.len()).collect()
    }

    fn metrics(&self) -> PartitionMetrics {
        maintained_metrics(
            &self.ecount,
            &self.vertex_counts(),
            self.live_edges,
            self.num_vertices(),
        )
    }
}

/// Every observable of the dense layout equals the map oracle's.
fn assert_matches_oracle(dynamic: &DynamicPartitioner, oracle: &MapOracle, context: &str) {
    assert_eq!(
        dynamic.surviving().collect::<Vec<_>>(),
        oracle.surviving(),
        "{context}"
    );
    assert_eq!(dynamic.live_edges(), oracle.live_edges, "{context}");
    assert_eq!(dynamic.num_vertices(), oracle.num_vertices(), "{context}");
    assert_eq!(dynamic.edge_counts(), oracle.ecount.as_slice(), "{context}");
    assert_eq!(dynamic.vertex_counts(), oracle.vertex_counts(), "{context}");
    // One vertex past the universe too: an unobserved vertex is covered
    // nowhere.
    for v in 0..=dynamic.num_vertices() {
        let v = VertexId::from(v);
        for i in 0..dynamic.num_partitions() {
            assert_eq!(
                dynamic.covers(v, PartitionId::from_index(i)),
                CoverLookup::covers(oracle, v, i),
                "{context}: vertex {v} partition {i}"
            );
        }
    }
    assert_bit_identical(dynamic.metrics(), oracle.metrics());
    if let (Policy::Hdrf { degree: dense, .. }, OraclePolicy::Hdrf { degree: map, .. }) =
        (&dynamic.policy, &oracle.policy)
    {
        for (v, &d) in dense.iter().enumerate() {
            let expected = map.get(&VertexId::from(v)).copied().unwrap_or(0);
            assert_eq!(d, expected, "{context}: HDRF degree of vertex {v}");
        }
        assert!(map.keys().all(|v| v.index() < dense.len()), "{context}");
    }
}

mod layout_differential {
    use proptest::prelude::*;

    use super::*;

    fn make(policy: u8, hinted: bool) -> DynamicPartitioner {
        // An exact-looking hint that the stream then outgrows, or none.
        let mut config = StreamConfig::new(3);
        if hinted {
            config = config.with_expected_vertices(4).with_expected_edges(24);
        }
        match policy {
            0 => EbvPartitioner::new().dynamic(config).unwrap(),
            1 => HdrfPartitioner::new().dynamic(config).unwrap(),
            _ => RandomVertexCutPartitioner::new().dynamic(config).unwrap(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random insert/delete/rebalance/restore sequences — duplicate
        /// copies, self-loops, deletes of dead edges, universes that
        /// grow mid-stream past (or without) a hint, all three policies
        /// — leave the dense layout and the map oracle with identical
        /// placements, survivors, covers, counts, metric bits and HDRF
        /// degrees.
        #[test]
        fn dense_state_matches_the_map_oracle(
            policy in 0u8..3,
            hinted in any::<bool>(),
            ops in proptest::collection::vec((0u8..10, 0u64..7, 0u64..7), 1..120),
        ) {
            let mut dynamic = make(policy, hinted);
            let mut oracle = MapOracle::like(&dynamic);
            for (step, (kind, a, b)) in ops.into_iter().enumerate() {
                // The universe widens as the sequence advances.
                let widen = (step / 24) as u64;
                let edge = edge(a + widen, if kind == 9 { a + widen } else { b });
                let context = format!("policy {policy} hinted {hinted} step {step}");
                match kind {
                    0..=4 | 9 => {
                        prop_assert_eq!(dynamic.insert(edge), oracle.insert(edge), "{}", context);
                    }
                    5..=6 => {
                        prop_assert_eq!(
                            dynamic.delete(edge).ok(),
                            oracle.delete(edge),
                            "{}", context
                        );
                    }
                    7 => {
                        // Migrations happen on the dense state; the
                        // oracle re-derives everything from the migrated
                        // survivors, so the maintained refcounts must
                        // equal a from-scratch recount.
                        let aggressive = RebalanceConfig::new()
                            .with_max_edge_imbalance(1.0)
                            .with_target_edge_imbalance(1.0)
                            .with_max_replication_factor(1.0);
                        dynamic.rebalance(&aggressive).unwrap();
                        oracle = MapOracle::restored(
                            &dynamic,
                            dynamic.num_vertices(),
                            dynamic.surviving(),
                        );
                    }
                    _ => {
                        // Checkpoint-style restore of both sides.
                        let survivors: Vec<_> = dynamic.surviving().collect();
                        let universe = dynamic.num_vertices();
                        let mut restored = make(policy, hinted);
                        restored.restore(universe, survivors.iter().copied()).unwrap();
                        dynamic = restored;
                        oracle = MapOracle::restored(&dynamic, universe, survivors);
                    }
                }
                assert_matches_oracle(&dynamic, &oracle, &context);
            }
        }
    }
}

/// Long enough to compact the log several times while duplicate copies
/// are stacked: the rebuilt `prev` chains must keep deleting copies in
/// the oracle's LIFO order.
#[test]
fn copy_stacks_survive_compaction_like_the_oracle() {
    for policy in 0u8..3 {
        let mut dynamic = match policy {
            0 => EbvPartitioner::new().dynamic(StreamConfig::new(4)).unwrap(),
            1 => HdrfPartitioner::new()
                .dynamic(StreamConfig::new(4))
                .unwrap(),
            _ => RandomVertexCutPartitioner::new()
                .dynamic(StreamConfig::new(4))
                .unwrap(),
        };
        let mut oracle = MapOracle::like(&dynamic);
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(policy);
        let mut compactions = 0;
        for step in 0..6_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = edge((lcg >> 33) % 12, (lcg >> 45) % 12);
            // Insert-heavy until ~300 live copies, then delete-heavy.
            let insert = (lcg >> 20) % 100 < if dynamic.live_edges() < 300 { 70 } else { 30 };
            if insert {
                assert_eq!(dynamic.insert(e), oracle.insert(e), "step {step}");
            } else {
                let before = dynamic.log.entries();
                assert_eq!(dynamic.delete(e).ok(), oracle.delete(e), "step {step}");
                compactions += usize::from(dynamic.log.entries() < before);
            }
        }
        assert!(
            compactions >= 2,
            "policy {policy}: {compactions} compactions"
        );
        assert_matches_oracle(&dynamic, &oracle, &format!("policy {policy}"));
    }
}

#[test]
fn self_loops_count_one_replica() {
    let mut dynamic = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(2))
        .unwrap();
    let part = dynamic.insert(edge(3, 3));
    assert_eq!(dynamic.vertex_counts()[part.index()], 1);
    dynamic.delete(edge(3, 3)).unwrap();
    assert_eq!(dynamic.vertex_counts()[part.index()], 0);
}
