//! The distribution layer's structural suite: `Subgraph`, replica table,
//! batch and streaming assembly, and mutation epochs, checked against each
//! other (`assert_same_distribution`: a mutated distribution equals a fresh
//! `build_streaming` of the survivors). `MutationBatch`'s own tests live
//! beside it, in `mutation_batch/tests.rs`.

use super::*;
use crate::routing::RoutingTable;
use crate::BspError;
use ebv_graph::Graph;
use ebv_partition::{EbvPartitioner, MetisLikePartitioner, Partitioner};

fn square() -> Graph {
    Graph::from_edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
}

#[test]
fn vertex_cut_distribution_covers_all_edges_once() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    assert_eq!(dg.num_workers(), 2);
    let total_edges: usize = dg.subgraphs().iter().map(|s| s.num_edges()).sum();
    assert_eq!(total_edges, g.num_edges());
}

#[test]
fn every_vertex_has_exactly_one_master() {
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for v in g.vertices() {
        let master = dg.replicas().master_of(v);
        let master_count = dg
            .subgraphs()
            .iter()
            .filter(|s| s.local_index_of(v).map(|i| s.is_master(i)).unwrap_or(false))
            .count();
        if dg.replicas().replica_count(v) > 0 {
            assert_eq!(master_count, 1, "vertex {v}");
            assert!(dg.replicas().replicas_of(v).any(|part| part == master));
        }
    }
}

#[test]
fn replica_table_matches_subgraph_contents() {
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for v in g.vertices() {
        let holders: Vec<PartitionId> = dg
            .subgraphs()
            .iter()
            .filter(|s| s.local_index_of(v).is_some())
            .map(|s| s.part())
            .collect();
        assert_eq!(holders, replicas_of(&dg, v), "vertex {v}");
    }
    let rf = dg.replication_factor();
    assert!(rf >= 1.0 - 1e-9);
}

#[test]
fn edge_cut_distribution_replicates_crossing_edges() {
    let g = square();
    let partition = MetisLikePartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let total_edges: usize = dg.subgraphs().iter().map(|s| s.num_edges()).sum();
    assert!(total_edges >= g.num_edges());
    // Masters come from the edge-cut ownership.
    let ec = partition.as_edge_cut().unwrap();
    for v in g.vertices() {
        assert_eq!(dg.replicas().master_of(v), ec.part_of(v));
    }
    // Each original edge is owned by exactly one subgraph copy.
    let owned_edges: usize = dg
        .subgraphs()
        .iter()
        .map(|s| (0..s.num_edges()).filter(|&i| s.owns_edge(i)).count())
        .sum();
    assert_eq!(owned_edges, g.num_edges());
}

#[test]
fn vertex_cut_subgraphs_own_every_local_edge() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for s in dg.subgraphs() {
        assert!((0..s.num_edges()).all(|i| s.owns_edge(i)));
    }
}

#[test]
fn local_adjacency_is_consistent() {
    let g = ebv_graph::generators::named::two_triangles();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for s in dg.subgraphs() {
        for (li, v) in s.vertices().iter().enumerate() {
            assert_eq!(s.local_index_of(*v), Some(li));
            assert_eq!(s.vertex_at(li), *v);
            let out_edges = s.edges().iter().filter(|e| e.src == *v).count();
            assert_eq!(s.out_neighbors(li).len(), out_edges);
            let in_edges = s.edges().iter().filter(|e| e.dst == *v).count();
            assert_eq!(s.in_neighbors(li).len(), in_edges);
        }
        assert!(s.masters().len() <= s.num_vertices());
    }
}

#[test]
fn streaming_builder_matches_batch_build() {
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
    let batch = DistributedGraph::build(&g, &partition).unwrap();
    let vc = partition.as_vertex_cut().unwrap();
    let streamed = DistributedGraph::build_streaming(
        3,
        Some(g.num_vertices()),
        g.edges()
            .iter()
            .copied()
            .zip(vc.assignment().iter().copied()),
    )
    .unwrap();
    assert_eq!(streamed.num_workers(), batch.num_workers());
    assert_eq!(streamed.num_vertices(), batch.num_vertices());
    assert_eq!(streamed.num_edges(), batch.num_edges());
    for v in g.vertices() {
        assert_eq!(
            streamed.replicas().master_of(v),
            batch.replicas().master_of(v),
            "vertex {v}"
        );
        assert_eq!(
            replicas_of(&streamed, v),
            replicas_of(&batch, v),
            "vertex {v}"
        );
    }
    for (s, b) in streamed.subgraphs().iter().zip(batch.subgraphs()) {
        assert_eq!(s.edges(), b.edges());
        assert_eq!(s.vertices(), b.vertices());
    }
    assert_same_holder_lists(&streamed, &batch);
}

/// Every partition holding a replica of `v`, ascending.
fn replicas_of(dg: &DistributedGraph, v: VertexId) -> Vec<PartitionId> {
    dg.replicas().replicas_of(v).collect()
}

/// The replica table's per-vertex holder lists (partition, live
/// incidence, local index) themselves, not only the masters elected from
/// them: `apply_mutations` binary searches these, so they must come out of
/// every construction path identical and strictly ascending by partition,
/// every count positive but an isolated vertex's one home entry.
fn assert_same_holder_lists(a: &DistributedGraph, b: &DistributedGraph) {
    assert!(
        a.replicas.same_structure(&b.replicas),
        "holder lists diverged"
    );
    let p = a.num_workers();
    for v in (0..a.num_vertices()).map(VertexId::from) {
        let holders = a.replicas.counts(v);
        assert!(
            holders.windows(2).all(|w| w[0].0 < w[1].0),
            "holders of vertex {v} are not strictly ascending: {holders:?}"
        );
        let home = PartitionId::from_index(v.index() % p);
        assert!(
            holders.iter().all(|&(_, count)| count > 0) || holders == [(home, 0)],
            "vertex {v}: {holders:?}"
        );
    }
}

#[test]
fn in_neighbor_ownership_is_empty_for_vertex_cut_and_aligned_for_edge_cut() {
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    let all_empty = |dg: &DistributedGraph| {
        dg.subgraphs()
            .iter()
            .all(|sg| sg.in_owned.is_empty() && sg.in_edges().owned.is_empty())
    };
    assert!(all_empty(&dg));
    // A re-assembled (touched) worker still owns every edge.
    let mut batch = MutationBatch::new();
    batch.record_delete(g.edges()[0], partition.as_vertex_cut().unwrap().part_of(0));
    batch.record_insert(Edge::from((2u64, 11u64)), PartitionId::new(1));
    let stats = dg.apply_mutations(&batch).unwrap();
    assert!(stats.workers_touched >= 1);
    assert!(all_empty(&dg));

    // Edge-cut: the flat view's flags are `owns_edge` in in-CSR order.
    // In-neighbours of a target are listed in local-edge order, so walking
    // the edge list with one cursor per target visits the same positions.
    let ec = MetisLikePartitioner::new().partition(&g, 3).unwrap();
    let ec_dg = DistributedGraph::build(&g, &ec).unwrap();
    let mut unowned = 0usize;
    for sg in ec_dg.subgraphs() {
        let in_edges = sg.in_edges();
        let mut cursor: Vec<usize> = sg.in_offsets[..sg.num_vertices()]
            .iter()
            .map(|&start| start as usize)
            .collect();
        for (edge_index, edge) in sg.edges().iter().enumerate() {
            let target = sg.local_index_of(edge.dst).unwrap();
            let k = cursor[target];
            cursor[target] += 1;
            assert_eq!(in_edges.rows[k] as usize, target);
            assert_eq!(
                in_edges.sources[k] as usize,
                sg.local_index_of(edge.src).unwrap()
            );
            let owned = in_edges.owned.get(k).copied();
            assert_eq!(owned.unwrap_or(true), sg.owns_edge(edge_index));
            unowned += usize::from(!sg.owns_edge(edge_index));
        }
    }
    assert!(
        unowned > 0,
        "the edge-cut build replicated no crossing edge"
    );
}

#[test]
fn streaming_builder_places_isolated_vertices() {
    let streamed = DistributedGraph::build_streaming(
        2,
        Some(5),
        vec![(Edge::from((0u64, 1u64)), PartitionId::new(0))],
    )
    .unwrap();
    assert_eq!(streamed.num_vertices(), 5);
    // Vertices 2..5 are isolated; each still has exactly one master.
    for v in 2..5u64 {
        assert_eq!(streamed.replicas().replica_count(VertexId::new(v)), 1);
    }
}

/// Assembly sizes each worker's isolated tail once, before writing it: on
/// tails far longer than a quarter of the held prefix, the vertex table and
/// the local components end exactly as long as what they list, not at
/// whatever a doubling `Vec` reached.
#[test]
fn assembly_sizes_isolated_tails_exactly() {
    // Vertices 3..50 touch no edge.
    let g = Graph::from_edges(vec![(0, 1), (1, 2), (2, 0), (50, 51)]).unwrap();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for (i, sg) in dg.subgraphs().iter().enumerate() {
        assert!(sg.isolated().len() > 20, "worker {i}");
        assert_eq!(sg.vertices.capacity(), sg.vertices.len(), "worker {i}");
        let components = &sg.components;
        for (len, capacity) in [
            (
                components.component_of.len(),
                components.component_of.capacity(),
            ),
            (components.members.len(), components.members.capacity()),
            (components.offsets.len(), components.offsets.capacity()),
        ] {
            assert_eq!(capacity, len, "worker {i}");
        }
    }
}

#[test]
fn streaming_builder_rejects_bad_input() {
    assert!(DistributedGraphBuilder::new(0).is_err());
    let mut builder = DistributedGraphBuilder::new(2).unwrap();
    assert!(builder
        .add_edge(Edge::from((0u64, 1u64)), PartitionId::new(5))
        .is_err());
    builder
        .add_edge(Edge::from((0u64, 9u64)), PartitionId::new(1))
        .unwrap();
    assert_eq!(builder.num_edges(), 1);
    // Hint smaller than the largest streamed endpoint.
    let too_small = builder.clone().with_num_vertices(3);
    assert!(too_small.finish().is_err());
}

#[test]
fn empty_stream_with_hint_yields_isolated_only_workers() {
    let streamed = DistributedGraph::build_streaming(3, Some(4), Vec::new()).unwrap();
    assert_eq!(streamed.num_workers(), 3);
    assert_eq!(streamed.num_edges(), 0);
    assert_eq!(streamed.num_vertices(), 4);
    let total_vertices: usize = streamed.subgraphs().iter().map(|s| s.num_vertices()).sum();
    assert_eq!(total_vertices, 4);
}

#[test]
fn mismatched_partition_is_rejected() {
    let g = square();
    let other = Graph::from_edges(vec![(0, 1)]).unwrap();
    let partition = EbvPartitioner::new().partition(&other, 1).unwrap();
    assert!(DistributedGraph::build(&g, &partition).is_err());
}

fn assert_same_distribution(a: &DistributedGraph, b: &DistributedGraph) {
    assert_eq!(a.num_workers(), b.num_workers());
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    for v in 0..a.num_vertices() {
        let v = VertexId::from(v);
        assert_eq!(a.replicas().master_of(v), b.replicas().master_of(v));
        assert_eq!(replicas_of(a, v), replicas_of(b, v));
    }
    for (sa, sb) in a.subgraphs().iter().zip(b.subgraphs()) {
        assert_eq!(sa.edges(), sb.edges());
        assert_eq!(sa.vertices(), sb.vertices());
    }
    // The routing table the epochs re-derived must be structurally
    // identical to the from-scratch build (routing staleness after
    // `apply_mutations` would surface here).
    assert_eq!(a.routing(), b.routing(), "routing tables diverged");
    assert_same_holder_lists(a, b);
}

#[test]
fn apply_mutations_equals_fresh_build_of_survivors() {
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
    let vc = partition.as_vertex_cut().unwrap();
    let initial = DistributedGraph::build(&g, &partition).unwrap();
    assert_eq!(initial.epoch(), 0);

    // Remove every third edge and add two new ones.
    let assigned: Vec<(Edge, PartitionId)> = g
        .edges()
        .iter()
        .copied()
        .zip(vc.assignment().iter().copied())
        .collect();
    let mut batch = MutationBatch::new();
    for (edge, part) in assigned.iter().step_by(3) {
        batch.record_delete(*edge, *part);
    }
    let additions = [
        (Edge::from((0u64, 9u64)), PartitionId::new(2)),
        (Edge::from((4u64, 12u64)), PartitionId::new(1)),
    ];
    for (edge, part) in additions {
        batch.record_insert(edge, part);
    }
    let mut mutated = initial.clone();
    let stats = mutated.apply_mutations(&batch).unwrap();
    assert_eq!(mutated.epoch(), 1);
    assert_eq!(stats, mutated.last_mutation());
    assert_eq!(stats.edges_added, 2);
    assert!(stats.workers_touched >= 1 && stats.workers_touched <= 3);

    // The surviving stream in order: the undeleted originals, then the
    // batch additions.
    let survivors = assigned
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, &pair)| pair)
        .chain(additions);
    let fresh =
        DistributedGraph::build_streaming(3, Some(mutated.num_vertices()), survivors).unwrap();
    assert_same_distribution(&mutated, &fresh);
}

#[test]
fn apply_mutations_removes_the_latest_duplicate_copy() {
    let e = Edge::from((0u64, 1u64));
    let stream = vec![
        (e, PartitionId::new(0)),
        (Edge::from((1u64, 2u64)), PartitionId::new(1)),
        (e, PartitionId::new(0)),
    ];
    let mut mutated = DistributedGraph::build_streaming(2, None, stream).unwrap();
    let mut batch = MutationBatch::new();
    batch.record_delete(e, PartitionId::new(0));
    mutated.apply_mutations(&batch).unwrap();
    assert_eq!(mutated.num_edges(), 2);
    assert_eq!(mutated.subgraph(PartitionId::new(0)).edges(), &[e]);
}

#[test]
fn apply_mutations_rejects_bad_batches() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    let pristine = dg.clone();

    let mut missing = MutationBatch::new();
    missing.record_delete(Edge::from((7u64, 8u64)), PartitionId::new(0));
    assert!(matches!(
        dg.apply_mutations(&missing),
        Err(BspError::InvalidMutation { .. })
    ));

    let mut out_of_range = MutationBatch::new();
    out_of_range.record_insert(Edge::from((0u64, 1u64)), PartitionId::new(9));
    assert!(matches!(
        dg.apply_mutations(&out_of_range),
        Err(BspError::PartitionMismatch { .. })
    ));

    // Rejected batches leave the distribution untouched.
    assert_eq!(dg.epoch(), 0);
    assert_same_distribution(&dg, &pristine);

    // Edge-cut distributions replicate crossing edges and cannot absorb
    // edge-level mutations.
    let ec = MetisLikePartitioner::new().partition(&g, 2).unwrap();
    let mut ec_dg = DistributedGraph::build(&g, &ec).unwrap();
    assert!(!ec_dg.is_vertex_cut());
    let mut non_empty = MutationBatch::new();
    non_empty.record_insert(Edge::from((0u64, 2u64)), PartitionId::new(0));
    assert!(matches!(
        ec_dg.apply_mutations(&non_empty),
        Err(BspError::InvalidMutation { .. })
    ));
}

#[test]
fn missing_edge_error_is_deterministic() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    // Several missing edges in the same partition: the message must name
    // the smallest one, independent of HashMap iteration order.
    let mut batch = MutationBatch::new();
    for (s, d) in [(9u64, 9u64), (7u64, 8u64), (8u64, 7u64)] {
        batch.record_delete(Edge::from((s, d)), PartitionId::new(1));
    }
    let err = dg.apply_mutations(&batch).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid mutation: partition 1 holds no copy of edge (7 -> 8) to remove"
    );
    // The lowest-numbered failing partition wins when several fail.
    let mut multi = MutationBatch::new();
    multi.record_delete(Edge::from((9u64, 9u64)), PartitionId::new(1));
    multi.record_delete(Edge::from((5u64, 5u64)), PartitionId::new(0));
    let err = dg.apply_mutations(&multi).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid mutation: partition 0 holds no copy of edge (5 -> 5) to remove"
    );
}

#[test]
fn mutation_stats_display_is_one_line() {
    assert_eq!(
        MutationStats::default().to_string(),
        "no-op epoch (0 workers touched)"
    );
    let stats = MutationStats {
        workers_touched: 3,
        edges_rebuilt: 1200,
        edges_added: 45,
        edges_removed: 12,
        apply_seconds: 0.00525,
    };
    let line = stats.to_string();
    assert_eq!(
        line,
        "3 workers touched, 1200 edges rebuilt (+45/-12 edge copies) in 5.25ms"
    );
    assert!(!line.contains('\n'));
}

#[test]
fn empty_batch_is_a_no_op_and_does_not_advance_the_epoch() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    let pristine = dg.clone();
    let edges_buffer = dg.subgraph(PartitionId::new(0)).edges().as_ptr();

    // Literally empty.
    let stats = dg.apply_mutations(&MutationBatch::new()).unwrap();
    assert_eq!(stats, MutationStats::default());

    // Fully cancelled in-batch: insert then delete of the same copy.
    let mut cancelled = MutationBatch::new();
    let e = Edge::from((0u64, 3u64));
    cancelled.record_insert(e, PartitionId::new(1));
    cancelled.record_delete(e, PartitionId::new(1));
    assert!(cancelled.is_empty());
    let stats = dg.apply_mutations(&cancelled).unwrap();
    assert_eq!(stats.workers_touched, 0);
    assert_eq!(stats.edges_rebuilt, 0);

    assert_eq!(dg.epoch(), 0, "no-op batches do not advance the epoch");
    assert_same_distribution(&dg, &pristine);
    // The subgraphs were not even re-allocated.
    assert_eq!(
        dg.subgraph(PartitionId::new(0)).edges().as_ptr(),
        edges_buffer
    );
}

#[test]
fn apply_mutations_rebuilds_only_touched_workers() {
    // Four chain components, one per partition, so a batch naming two
    // partitions cannot affect the other two.
    let stream: Vec<(Edge, PartitionId)> = (0..4u64)
        .flat_map(|part| {
            let base = 10 * part;
            [
                (Edge::from((base, base + 1)), PartitionId::new(part as u32)),
                (
                    Edge::from((base + 1, base + 2)),
                    PartitionId::new(part as u32),
                ),
            ]
        })
        .collect();
    let mut dg = DistributedGraph::build_streaming(4, None, stream.clone()).unwrap();
    let untouched_buffers: Vec<*const Edge> = [2usize, 3]
        .iter()
        .map(|&i| dg.subgraphs()[i].edges().as_ptr())
        .collect();

    let mut batch = MutationBatch::new();
    batch.record_delete(Edge::from((0u64, 1u64)), PartitionId::new(0));
    batch.record_insert(Edge::from((11u64, 13u64)), PartitionId::new(1));
    let stats = dg.apply_mutations(&batch).unwrap();
    assert_eq!(stats.workers_touched, 2, "only partitions 0 and 1 rebuild");
    assert_eq!(dg.epoch(), 1);

    // The untouched workers kept their exact allocations.
    for (&i, &buffer) in [2usize, 3].iter().zip(&untouched_buffers) {
        assert_eq!(dg.subgraphs()[i].edges().as_ptr(), buffer, "worker {i}");
    }

    // And the whole distribution still equals a fresh build of the
    // survivors.
    let survivors: Vec<(Edge, PartitionId)> = stream
        .into_iter()
        .filter(|&(e, part)| !(e == Edge::from((0u64, 1u64)) && part == PartitionId::new(0)))
        .chain([(Edge::from((11u64, 13u64)), PartitionId::new(1))])
        .collect();
    let fresh = DistributedGraph::build_streaming(4, Some(dg.num_vertices()), survivors).unwrap();
    assert_same_distribution(&dg, &fresh);
}

#[test]
fn isolation_changes_touch_the_home_worker() {
    // Worker 1 holds (8, 10) and is home to the odd vertices; 1, 5, 7, 9
    // and 11 touch no edge, so they form its isolated tail. Vertex 3 is
    // held by worker 0 alone, vertex 10 by both. Removing vertex 3's only
    // edge re-homes it as an isolated vertex in worker 1, so both workers
    // are touched.
    let part = PartitionId::new;
    let e = |s: u64, d: u64| Edge::from((s, d));
    let mut survivors = vec![
        (e(0, 2), part(0)),
        (e(2, 3), part(0)),
        (e(2, 10), part(0)),
        (e(8, 10), part(1)),
    ];
    let mut dg = DistributedGraph::build_streaming(2, Some(12), survivors.clone()).unwrap();
    let tail = |dg: &DistributedGraph| dg.subgraphs()[1].isolated().to_vec();
    assert_eq!(tail(&dg), [1, 5, 7, 9, 11].map(VertexId::new));
    let kept_edges = dg.subgraphs()[1].edges().as_ptr();

    // Isolating vertex 3 puts it in the middle of worker 1's tail; worker
    // 1's edges are not re-indexed, only its tail is rewritten.
    let mut batch = MutationBatch::new();
    batch.record_delete(e(2, 3), part(0));
    let stats = dg.apply_mutations(&batch).unwrap();
    survivors.retain(|&(edge, _)| edge != e(2, 3));
    assert_eq!((stats.workers_touched, stats.edges_rebuilt), (2, 2));
    assert_eq!(tail(&dg), [1, 3, 5, 7, 9, 11].map(VertexId::new));
    assert_eq!(dg.subgraphs()[1].edges().as_ptr(), kept_edges);
    let check = |dg: &DistributedGraph, survivors: &[(Edge, PartitionId)]| {
        let fresh =
            DistributedGraph::build_streaming(2, Some(12), survivors.iter().copied()).unwrap();
        assert_same_distribution(dg, &fresh);
        assert!(dg.same_structure(&fresh));
        assert_eq!(
            dg.routing(),
            &crate::routing::oracle::build_worker_major(dg)
        );
    };
    check(&dg, &survivors);

    // A later batch un-isolates it: the tail loses its middle entry.
    let mut batch = MutationBatch::new();
    batch.record_insert(e(0, 3), part(0));
    let stats = dg.apply_mutations(&batch).unwrap();
    survivors.push((e(0, 3), part(0)));
    assert_eq!((stats.workers_touched, stats.edges_rebuilt), (2, 3));
    assert_eq!(tail(&dg), [1, 5, 7, 9, 11].map(VertexId::new));
    assert_eq!(dg.subgraphs()[1].edges().as_ptr(), kept_edges);
    check(&dg, &survivors);

    // An edge on its home worker un-isolates vertex 5 there.
    let mut batch = MutationBatch::new();
    batch.record_insert(e(5, 8), part(1));
    assert_eq!(dg.apply_mutations(&batch).unwrap().workers_touched, 1);
    survivors.push((e(5, 8), part(1)));
    assert_eq!(tail(&dg), [1, 7, 9, 11].map(VertexId::new));
    check(&dg, &survivors);
}

#[test]
fn master_flags_are_patched_in_untouched_workers() {
    // Vertex 1 is replicated in partitions 0 (two incident edges) and 1
    // (one incident edge): partition 0 masters it. Adding two more
    // incident edges to partition 1 flips the master to partition 1
    // while partition 0's edge list never changes.
    let stream = vec![
        (Edge::from((0u64, 1u64)), PartitionId::new(0)),
        (Edge::from((1u64, 2u64)), PartitionId::new(0)),
        (Edge::from((1u64, 3u64)), PartitionId::new(1)),
    ];
    let mut dg = DistributedGraph::build_streaming(2, None, stream.clone()).unwrap();
    let v1 = VertexId::new(1);
    assert_eq!(dg.replicas().master_of(v1), PartitionId::new(0));

    let additions = [
        (Edge::from((1u64, 4u64)), PartitionId::new(1)),
        (Edge::from((1u64, 5u64)), PartitionId::new(1)),
    ];
    let mut batch = MutationBatch::new();
    for (e, part) in additions {
        batch.record_insert(e, part);
    }
    let stats = dg.apply_mutations(&batch).unwrap();
    assert_eq!(stats.workers_touched, 1, "only partition 1 rebuilds");
    assert_eq!(dg.replicas().master_of(v1), PartitionId::new(1));
    // The untouched worker's replica flag was re-written in place.
    let sg0 = dg.subgraph(PartitionId::new(0));
    let local = sg0.local_index_of(v1).unwrap();
    assert!(!sg0.is_master(local));
    let fresh = DistributedGraph::build_streaming(
        2,
        Some(dg.num_vertices()),
        stream.into_iter().chain(additions),
    )
    .unwrap();
    assert_same_distribution(&dg, &fresh);
}

#[test]
fn incremental_masters_match_fresh_build_under_random_churn() {
    // A randomized cross-check on a denser graph: several mutation
    // epochs, then full structural equality including masters.
    let g = ebv_graph::generators::named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let vc = partition.as_vertex_cut().unwrap();
    let mut assigned: Vec<(Edge, PartitionId)> = g
        .edges()
        .iter()
        .copied()
        .zip(vc.assignment().iter().copied())
        .collect();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    let mut next_vertex = g.num_vertices() as u64;
    for round in 0..5 {
        let mut batch = MutationBatch::new();
        // Delete a deterministic third of the survivors.
        let victims: Vec<(Edge, PartitionId)> = assigned
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % 3 == round % 3)
            .map(|(_, pair)| pair)
            .collect();
        for &(e, part) in &victims {
            batch.record_delete(e, part);
        }
        assigned.retain(|pair| !victims.contains(pair));
        // Add edges, including ones growing the universe.
        let additions = [
            (
                Edge::from((round as u64, next_vertex)),
                PartitionId::new((round % 4) as u32),
            ),
            (
                Edge::from((next_vertex, next_vertex + 1)),
                PartitionId::new(((round + 1) % 4) as u32),
            ),
        ];
        next_vertex += 2;
        for (e, part) in additions {
            batch.record_insert(e, part);
            assigned.push((e, part));
        }
        dg.apply_mutations(&batch).unwrap();
        let fresh =
            DistributedGraph::build_streaming(4, Some(dg.num_vertices()), assigned.iter().copied())
                .unwrap();
        assert_same_distribution(&dg, &fresh);
        for v in 0..dg.num_vertices() {
            let v = VertexId::from(v);
            for sg in dg.subgraphs() {
                if let Some(local) = sg.local_index_of(v) {
                    assert_eq!(
                        sg.is_master(local),
                        dg.replicas().master_of(v) == sg.part(),
                        "round {round} vertex {v} worker {}",
                        sg.part()
                    );
                }
            }
        }
    }
}

#[test]
fn epochs_accumulate_across_batches() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    for expected in 1..=3 {
        let mut batch = MutationBatch::new();
        batch.record_insert(Edge::from((0u64, 2u64)), PartitionId::new(0));
        dg.apply_mutations(&batch).unwrap();
        assert_eq!(dg.epoch(), expected);
    }
    assert_eq!(dg.num_edges(), g.num_edges() + 3);
}

#[test]
fn one_touched_worker_repoints_the_routes_of_the_holders_it_leaves_alone() {
    // A batch that names one worker while vertices it changes are also
    // held by workers that are kept: the epoch re-derives the kept
    // workers' routes from the locals the replica table recorded for them,
    // beside the rebuilt worker's new ones (for its unaffected vertices)
    // and the affected vertices' new replica sets. The table the epoch
    // derived must equal `RoutingTable::build` of the state.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut below = |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % n as u64) as usize
    };
    for p in [2usize, 3, 5] {
        // Dense enough over 24 vertices that most are replicated everywhere.
        let mut survivors: Vec<(Edge, PartitionId)> = (0..40 * p)
            .map(|_| {
                let edge = Edge::from((below(24) as u64, below(24) as u64));
                (edge, PartitionId::from_index(below(p)))
            })
            .collect();
        let mut dg = DistributedGraph::build_streaming(p, None, survivors.clone()).unwrap();
        let mut shared_affected = 0;
        for round in 0..12 {
            let only = PartitionId::from_index(round % p);
            let mut batch = MutationBatch::new();
            for _ in 0..1 + below(3) {
                let held: Vec<usize> = (0..survivors.len())
                    .filter(|&i| survivors[i].1 == only)
                    .collect();
                // Removal is LIFO: the latest copy equal to the pick goes.
                let victim = survivors[held[below(held.len())]];
                let latest = survivors.iter().rposition(|&pair| pair == victim);
                survivors.remove(latest.expect("the pick itself matches"));
                batch.record_delete(victim.0, victim.1);
            }
            for _ in 0..1 + below(3) {
                // Every third round one insert grows the universe.
                let dst = if round.is_multiple_of(3) {
                    dg.num_vertices() as u64
                } else {
                    below(24) as u64
                };
                let edge = Edge::from((below(24) as u64, dst));
                batch.record_insert(edge, only);
                survivors.push((edge, only));
            }
            let stats = dg.apply_mutations(&batch).unwrap();
            assert!(stats.workers_touched < p, "p={p} round {round}: {stats}");
            let lineage = dg.lineage();
            shared_affected += lineage
                .affected
                .iter()
                .filter(|&&v| {
                    dg.replicas()
                        .replicas_of(VertexId::from(v))
                        .any(|holder| holder != only)
                })
                .count();
            let rebuilt =
                RoutingTable::build(&dg.subgraphs, &dg.replicas, dg.num_vertices(), dg.epoch());
            assert_eq!(dg.routing(), &rebuilt, "p={p} round {round}");
            let fresh = DistributedGraph::build_streaming(
                p,
                Some(dg.num_vertices()),
                survivors.iter().copied(),
            )
            .unwrap();
            assert_same_distribution(&dg, &fresh);
        }
        assert!(
            shared_affected > 0,
            "p={p}: no affected vertex had a kept holder"
        );
    }
}

#[test]
fn lineage_names_each_state_once_and_clones_share_it() {
    let g = square();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let mut dg = DistributedGraph::build(&g, &partition).unwrap();
    let built = dg.lineage().state;
    assert_ne!(built, 0);
    assert_eq!(dg.lineage().parent, 0);
    assert!(dg.lineage().affected.is_empty());
    let other = DistributedGraph::build(&g, &partition).unwrap();
    assert_ne!(
        other.lineage().state,
        built,
        "equal content, distinct builds"
    );
    assert!(other.same_structure(&dg), "lineage is not structure");

    // An empty batch changes nothing, the token included.
    dg.apply_mutations(&MutationBatch::new()).unwrap();
    assert_eq!(dg.lineage().state, built);

    let mut twin = dg.clone();
    assert_eq!(twin.lineage().state, built, "a clone is the same state");
    let mut batch = MutationBatch::new();
    batch.record_insert(Edge::from((0u64, 5u64)), PartitionId::new(1));
    dg.apply_mutations(&batch).unwrap();
    let lineage = dg.lineage();
    assert_eq!(lineage.parent, built);
    assert!(lineage.state != built && lineage.state != 0);
    assert_eq!(
        lineage.affected,
        [0, 4, 5],
        "endpoints plus created vertices"
    );
    let applied = lineage.state;

    // The clone diverges from the same parent into a state of its own.
    twin.apply_mutations(&batch).unwrap();
    assert_eq!(twin.lineage().parent, built);
    assert_ne!(twin.lineage().state, applied);
    assert!(twin.same_structure(&dg));

    // A rejected batch leaves the state, and so its name, alone.
    let mut bad = MutationBatch::new();
    bad.record_delete(Edge::from((7u64, 8u64)), PartitionId::new(0));
    assert!(dg.apply_mutations(&bad).is_err());
    assert_eq!(dg.lineage().state, applied);
}
