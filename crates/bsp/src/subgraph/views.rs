//! The cached views PageRank's flat pull reads: [`Subgraph::in_edges`]
//! (the in-CSR as `(source, row)` positions with their ownership flags) and
//! [`Subgraph::masters`] / [`Subgraph::mirrors`], checked against the
//! row-by-row CSR and the master flags, and the lifecycle they share with
//! [`Subgraph::local_components`].

use super::oracle::graphs;
use super::*;
use crate::{DistributedGraph, MutationBatch};
use ebv_partition::{EbvPartitioner, MetisLikePartitioner, Partitioner};

/// Every worker of every test graph at p ∈ {1, 2, 4, 7}, vertex-cut and
/// edge-cut, with a label.
fn distributions() -> Vec<(String, DistributedGraph)> {
    let partitioners: [(&str, Box<dyn Partitioner>); 2] = [
        ("vertex-cut", Box::new(EbvPartitioner::new())),
        ("edge-cut", Box::new(MetisLikePartitioner::new())),
    ];
    let mut out = Vec::new();
    for (name, graph) in graphs() {
        for p in [1usize, 2, 4, 7] {
            for (cut, partitioner) in &partitioners {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                out.push((format!("{name} p={p} {cut}"), dg));
            }
        }
    }
    out
}

#[test]
fn in_edges_list_the_in_csr_rows_in_position_order_with_their_ownership() {
    let (mut unowned, mut multi_edge_rows) = (0usize, 0usize);
    for (what, dg) in distributions() {
        for (i, sg) in dg.subgraphs().iter().enumerate() {
            let what = format!("{what} worker {i}");
            let view = sg.in_edges();
            assert_eq!(view.sources.len(), sg.num_edges(), "{what}");
            assert_eq!(view.rows.len(), sg.num_edges(), "{what}");
            assert!(view.rows.windows(2).all(|w| w[0] <= w[1]), "{what}: rows");
            // Row by row, the positions of row `t` are `in_neighbors(t)`.
            let mut start = 0;
            for t in 0..sg.num_vertices() {
                let row = sg.in_neighbors(t);
                let end = start + row.len();
                assert_eq!(&view.sources[start..end], row, "{what}: row {t}");
                assert!(view.rows[start..end].iter().all(|&r| r as usize == t));
                multi_edge_rows += usize::from(row.len() > 1);
                start = end;
            }
            assert_eq!(start, sg.num_edges(), "{what}");

            // The flags are `owns_edge` of the edge behind each position:
            // one cursor per row, advanced in local-edge order.
            assert_eq!(view.owned.is_empty(), sg.owns_every_edge(), "{what}");
            let local_of: IdHashMap<VertexId, usize> = (0..sg.num_vertices())
                .map(|local| (sg.vertex_at(local), local))
                .collect();
            let mut cursor = sg.in_offsets.clone();
            for (edge_index, edge) in sg.edges().iter().enumerate() {
                let target = local_of[&edge.dst];
                let k = cursor[target] as usize;
                cursor[target] += 1;
                assert_eq!(view.rows[k] as usize, target, "{what}");
                assert_eq!(view.sources[k] as usize, local_of[&edge.src], "{what}");
                let owned = view.owned.get(k).copied().unwrap_or(true);
                assert_eq!(owned, sg.owns_edge(edge_index), "{what}: edge {edge_index}");
                unowned += usize::from(!owned);
            }
        }
    }
    assert!(unowned > 0, "no edge-cut case held an unowned copy");
    assert!(multi_edge_rows > 0, "no row had two positions");
}

#[test]
fn masters_and_mirrors_partition_the_local_vertices_ascending() {
    let mut mirrors_seen = 0usize;
    for (what, dg) in distributions() {
        for (i, sg) in dg.subgraphs().iter().enumerate() {
            let what = format!("{what} worker {i}");
            let (masters, mirrors) = (sg.masters(), sg.mirrors());
            assert!(masters.windows(2).all(|w| w[0] < w[1]), "{what}: masters");
            assert!(mirrors.windows(2).all(|w| w[0] < w[1]), "{what}: mirrors");
            assert!(masters.iter().all(|&m| sg.is_master(m as usize)), "{what}");
            assert!(mirrors.iter().all(|&m| !sg.is_master(m as usize)), "{what}");
            assert_eq!(masters.len() + mirrors.len(), sg.num_vertices(), "{what}");
            mirrors_seen += mirrors.len();
        }
    }
    assert!(mirrors_seen > 0, "no case replicated a vertex");
}

/// Which of a worker's two lazily built views are there: the in-CSR row
/// index and the role lists.
fn built(sg: &Subgraph) -> (bool, bool) {
    (sg.in_rows.get().is_some(), sg.roles.get().is_some())
}

fn built_per_worker(dg: &DistributedGraph) -> Vec<(bool, bool)> {
    dg.subgraphs().iter().map(built).collect()
}

#[test]
fn the_views_are_cached_until_their_worker_is_rebuilt_or_a_flag_flips() {
    // Batch assembly builds neither view.
    for (what, dg) in distributions() {
        let unbuilt = vec![(false, false); dg.num_workers()];
        assert_eq!(built_per_worker(&dg), unbuilt, "{what}");
    }

    // Vertex 1 is held by worker 0 (two incident edges, its master) and
    // worker 1 (one); worker 2 holds a path of its own.
    let part = PartitionId::new;
    let stream = [
        ((0u64, 1u64), 0),
        ((1, 2), 0),
        ((1, 3), 1),
        ((4, 5), 2),
        ((5, 6), 2),
    ]
    .map(|(edge, worker)| (Edge::from(edge), part(worker)));
    let mut dg = DistributedGraph::build_streaming(3, None, stream).unwrap();
    assert_eq!(
        built_per_worker(&dg),
        [(false, false); 3],
        "streaming assembly"
    );
    let v1 = VertexId::new(1);
    let held = dg
        .subgraph(part(0))
        .vertices()
        .iter()
        .position(|&v| v == v1);
    let held = held.expect("worker 0 holds vertex 1");
    assert!(dg.subgraph(part(0)).is_master(held));

    let rows_before: Vec<*const u32> = dg
        .subgraphs()
        .iter()
        .map(|sg| sg.in_edges().rows.as_ptr())
        .collect();
    let masters_before: Vec<Vec<u32>> = dg
        .subgraphs()
        .iter()
        .map(|sg| sg.masters().to_vec())
        .collect();
    assert_eq!(built_per_worker(&dg), [(true, true); 3]);
    assert_eq!(
        built_per_worker(&dg.clone()),
        [(true, true); 3],
        "clones carry both"
    );

    // Two more incident edges on worker 1 move vertex 1's master there.
    // Worker 1 is rebuilt and starts empty; worker 0 is kept but its flag
    // flips, so it keeps its row index and drops its role lists; worker 2
    // keeps both.
    let mut batch = MutationBatch::new();
    batch.record_insert(Edge::from((1u64, 7u64)), part(1));
    batch.record_insert(Edge::from((1u64, 8u64)), part(1));
    assert_eq!(dg.apply_mutations(&batch).unwrap().workers_touched, 1);
    assert_eq!(dg.replicas().master_of(v1), part(1));
    assert!(!dg.subgraph(part(0)).is_master(held), "the flag flipped");
    assert_eq!(
        built_per_worker(&dg),
        [(true, false), (false, false), (true, true)]
    );
    for worker in [0, 2] {
        let sg = &dg.subgraphs()[worker];
        assert_eq!(sg.in_edges().rows.as_ptr(), rows_before[worker], "{worker}");
    }
    // Rebuilt on demand from the re-written flags.
    let masters_0 = dg.subgraph(part(0)).masters();
    assert!(!masters_0.contains(&(held as u32)));
    assert_eq!(masters_0.len() + 1, masters_before[0].len());
    assert_eq!(dg.subgraph(part(2)).masters(), masters_before[2]);

    // Writing unchanged flags keeps the lists; a table in which one of the
    // worker's vertices changes master drops them.
    let mut sg = dg.subgraphs()[0].clone();
    sg.write_masters(dg.replicas());
    assert_eq!(built(&sg), (true, true));
    let mut flipped = dg.clone();
    let mut batch = MutationBatch::new();
    for dst in [9u64, 10] {
        batch.record_insert(Edge::from((0u64, dst)), part(2));
    }
    flipped.apply_mutations(&batch).unwrap();
    assert_eq!(flipped.replicas().master_of(VertexId::new(0)), part(2));
    sg.write_masters(flipped.replicas());
    assert_eq!(built(&sg), (true, false));
}
