//! The derivation [`derive_routes`] replaced, kept as its reference: route
//! tables built worker by worker, each walking its vertex table in local
//! (first-appearance) order and appending the vertex's routes. The tests
//! below hold the vertex-order derivation — from-scratch and maintained —
//! and [`DistributedGraph::holders_of`], which reads the table, to it.

use super::*;
use crate::{DistributedGraph, MutationBatch};
use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
use ebv_graph::Edge;
use ebv_partition::{EbvPartitioner, MetisLikePartitioner, PartitionId, Partitioner};

impl WorkerRoutes {
    /// The full route set of one worker, in local-index order.
    fn build_worker_major(
        worker: u32,
        sg: &Subgraph,
        replicas: &ReplicaTable,
        locations: &ReplicaLocations,
    ) -> Self {
        let mut offsets = vec![0u32];
        let mut routes = Vec::new();
        for &v in sg.vertices() {
            push_routes(worker, v, replicas, locations, &mut routes);
            offsets.push(u32::try_from(routes.len()).expect("route count fits u32"));
        }
        WorkerRoutes { offsets, routes }
    }
}

/// Appends the routes of vertex `v` as seen from `worker` — the layout
/// invariant as the worker-major build wrote it, independent of
/// [`routes_from`].
fn push_routes(
    worker: u32,
    v: VertexId,
    replicas: &ReplicaTable,
    locations: &ReplicaLocations,
    out: &mut Vec<Route>,
) {
    let master = replicas.master_of(v).raw();
    let held = locations.of(v);
    if master != worker {
        let at_master = held.iter().find(|replica| replica.worker == master);
        out.push(*at_master.expect("the master holds a replica"));
    }
    out.extend(
        held.iter()
            .filter(|replica| replica.worker != worker && replica.worker != master),
    );
}

/// Worker `worker` holds `v` at `local`, which is `v`'s master location
/// exactly when that worker is its elected master. Every vertex has exactly
/// one master replica, so offering all of its replicas settles its entry.
fn record_if_master(
    master_location: &mut [Route],
    replicas: &ReplicaTable,
    v: VertexId,
    worker: u32,
    local: usize,
) {
    if replicas.master_of(v).raw() == worker {
        master_location[v.index()] = Route {
            worker,
            local: u32::try_from(local).expect("local index fits u32"),
        };
    }
}

/// The whole table, worker-major.
fn build_worker_major(dg: &DistributedGraph) -> RoutingTable {
    let (subgraphs, replicas, n) = (dg.subgraphs(), dg.replicas(), dg.num_vertices());
    let locations = ReplicaLocations::build(subgraphs, replicas, n);
    let mut workers = Vec::new();
    let mut master_location = vec![ABSENT; n];
    for (d, sg) in subgraphs.iter().enumerate() {
        let d = d as u32;
        workers.push(WorkerRoutes::build_worker_major(
            d, sg, replicas, &locations,
        ));
        for (local, &v) in sg.vertices().iter().enumerate() {
            record_if_master(&mut master_location, replicas, v, d, local);
        }
    }
    RoutingTable {
        workers,
        master_location,
        epoch: dg.epoch(),
    }
}

/// A deterministic stream of small numbers.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// One churned epoch over `survivors`: `per_worker` LIFO deletions and as
/// many insertions on each worker in `workers`, the inserts among vertices
/// `0..span` with every fourth one growing the universe.
fn churn(
    dg: &mut DistributedGraph,
    survivors: &mut Vec<(Edge, PartitionId)>,
    workers: &[usize],
    per_worker: usize,
    span: usize,
    rng: &mut Lcg,
) {
    let mut batch = MutationBatch::new();
    let mut universe = dg.num_vertices();
    for &w in workers {
        let part = PartitionId::from_index(w);
        for k in 0..per_worker {
            let held: Vec<usize> = (0..survivors.len())
                .filter(|&i| survivors[i].1 == part)
                .collect();
            if let Some(&pick) = held.get(rng.below(held.len().max(1))) {
                // Removal is LIFO: the latest copy equal to the pick goes.
                let victim = survivors[pick];
                let latest = survivors.iter().rposition(|&pair| pair == victim);
                survivors.remove(latest.expect("the pick itself matches"));
                batch.record_delete(victim.0, victim.1);
            }
            let dst = if k % 4 == 3 {
                universe += 1;
                universe - 1
            } else {
                rng.below(span)
            };
            let edge = Edge::from((rng.below(span) as u64, dst as u64));
            batch.record_insert(edge, part);
            survivors.push((edge, part));
        }
    }
    dg.apply_mutations(&batch).unwrap();
}

/// A streamed vertex-cut distribution of `edges` random edges over `span`
/// vertices, dense enough that most vertices are replicated.
fn random_distribution(
    p: usize,
    span: usize,
    edges: usize,
    rng: &mut Lcg,
) -> (DistributedGraph, Vec<(Edge, PartitionId)>) {
    let survivors: Vec<(Edge, PartitionId)> = (0..edges)
        .map(|_| {
            let edge = Edge::from((rng.below(span) as u64, rng.below(span) as u64));
            (edge, PartitionId::from_index(rng.below(p)))
        })
        .collect();
    let dg = DistributedGraph::build_streaming(p, None, survivors.clone()).unwrap();
    (dg, survivors)
}

#[test]
fn vertex_order_build_equals_the_worker_major_build() {
    let graphs = [
        RmatGenerator::new(9, 8).with_seed(24).generate().unwrap(),
        GridGenerator::new(12, 17).generate().unwrap(),
        named::path_graph(33).unwrap(),
        named::small_social_graph(),
    ];
    let partitioners: [Box<dyn Partitioner>; 2] = [
        Box::new(EbvPartitioner::new()),
        Box::new(MetisLikePartitioner::new()),
    ];
    for graph in &graphs {
        for p in [1usize, 2, 4, 7] {
            for partitioner in &partitioners {
                let partition = partitioner.partition(graph, p).unwrap();
                let dg = DistributedGraph::build(graph, &partition).unwrap();
                let what = format!("{} p={p}", partitioner.name());
                assert_eq!(dg.routing(), &build_worker_major(&dg), "{what}");
            }
        }
    }
}

#[test]
fn maintained_table_equals_the_worker_major_build_after_churn() {
    let mut rng = Lcg(0x2545_F491_4F6C_DD1D);
    for p in [2usize, 3, 5] {
        // Every worker touched, every epoch.
        let (mut dg, mut survivors) = random_distribution(p, 40, 60 * p, &mut rng);
        let everyone: Vec<usize> = (0..p).collect();
        for round in 0..8 {
            churn(&mut dg, &mut survivors, &everyone, 4, 40, &mut rng);
            assert_eq!(dg.last_mutation().workers_touched, p, "p={p} round {round}");
            assert_eq!(
                dg.routing(),
                &build_worker_major(&dg),
                "p={p} round {round}"
            );
        }
        // One worker touched while the vertices it changes keep holders
        // elsewhere: `patch_dest` and the splice on top of the derivation.
        let (mut dg, mut survivors) = random_distribution(p, 24, 40 * p, &mut rng);
        let mut shared_affected = 0;
        for round in 0..12 {
            let only = round % p;
            churn(&mut dg, &mut survivors, &[only], 2, 24, &mut rng);
            assert!(
                dg.last_mutation().workers_touched < p,
                "p={p} round {round}"
            );
            // Kept workers had their master flags patched through the
            // pre-batch table's holders; a fresh build elects them anew.
            let n = Some(dg.num_vertices());
            let fresh = DistributedGraph::build_streaming(p, n, survivors.clone()).unwrap();
            assert!(dg.same_structure(&fresh), "p={p} round {round}");
            shared_affected += (dg.lineage().affected.iter())
                .filter(|&&v| {
                    dg.replicas()
                        .replicas_of(VertexId::from(v))
                        .any(|holder| holder.index() != only)
                })
                .count();
            assert_eq!(
                dg.routing(),
                &build_worker_major(&dg),
                "p={p} round {round}"
            );
        }
        assert!(
            shared_affected > 0,
            "p={p}: no affected vertex kept a holder"
        );
    }
}

#[test]
fn holders_of_lists_the_master_then_the_mirrors_ascending() {
    // Vertex 1 on workers 0, 2 and 3 (two edges on 2, so mastered there);
    // vertex 6 touches no edge and lives on its home worker, 6 % 4.
    let part = PartitionId::new;
    let stream = [
        (Edge::from((0u64, 1u64)), part(0)),
        (Edge::from((1u64, 2u64)), part(2)),
        (Edge::from((3u64, 1u64)), part(2)),
        (Edge::from((1u64, 4u64)), part(3)),
        (Edge::from((4u64, 5u64)), part(1)),
    ];
    let dg = DistributedGraph::build_streaming(4, Some(7), stream).unwrap();
    let holders = |raw: u64| -> Vec<(u32, VertexId)> {
        dg.holders_of(VertexId::new(raw))
            .map(|(sg, local)| (sg.part().raw(), sg.vertex_at(local)))
            .collect()
    };
    let v = VertexId::new;
    assert_eq!(holders(1), [(2, v(1)), (0, v(1)), (3, v(1))]);
    assert_eq!(holders(6), [(2, v(6))]);
    assert_eq!(holders(7), [], "one past the universe");
    assert_eq!(holders(u64::from(u32::MAX)), [], "far past the universe");
    assert_eq!(dg.routing().master_location(7), None);
}

#[test]
fn holders_of_equals_the_replica_table_joined_with_the_hash_index() {
    let mut rng = Lcg(24);
    let p = 5;
    let (mut dg, mut survivors) = random_distribution(p, 60, 300, &mut rng);
    let everyone: Vec<usize> = (0..p).collect();
    for round in 0..10 {
        churn(&mut dg, &mut survivors, &everyone, 6, 60, &mut rng);
        for raw in 0..dg.num_vertices() {
            let v = VertexId::from(raw);
            let mut read: Vec<(usize, usize)> = dg
                .holders_of(v)
                .map(|(sg, local)| (sg.part().index(), local))
                .collect();
            // Master first; as a set, the replica list in its own order.
            assert_eq!(read[0].0, dg.replicas().master_of(v).index());
            read.sort_unstable();
            let probed: Vec<(usize, usize)> = dg
                .replicas()
                .replicas_of(v)
                .map(|part| {
                    let local = dg.subgraph(part).local_index_of(v);
                    (part.index(), local.expect("a replica holds the vertex"))
                })
                .collect();
            assert_eq!(read, probed, "round {round} vertex {v}");
        }
    }
}
