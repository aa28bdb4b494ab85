//! The derivation [`RoutingTable::derive_routes`] replaced, kept as its
//! reference: route tables built worker by worker, each walking its vertex
//! table in local (first-appearance) order and appending the vertex's
//! routes. It finds a replica's local index through the holder's hash index
//! ([`Subgraph::local_index_of`]), not through the local indices the
//! replica table records, so comparing against it checks those too. The
//! tests below hold the vertex-order derivation — at assembly and after
//! epochs that rebuild every, one or several workers — and
//! [`DistributedGraph::holders_of`], which reads the replica table, to it.

use super::*;
use crate::{DistributedGraph, MutationBatch};
use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
use ebv_graph::{Edge, GraphBuilder};
use ebv_partition::{EbvPartitioner, MetisLikePartitioner, PartitionId, Partitioner};

/// Every replica of `v` as a route, ascending by worker: the partitions the
/// replica table lists, joined with each holder's hash index.
fn probed_replicas(dg: &DistributedGraph, v: VertexId) -> Vec<Route> {
    let probe = |part: PartitionId| {
        let local = dg.subgraph(part).local_index_of(v);
        Route {
            worker: part.raw(),
            local: local.expect("a replica holds the vertex") as u32,
        }
    };
    dg.replicas().replicas_of(v).map(probe).collect()
}

/// Appends the routes of a vertex with replicas `held` (ascending by
/// worker) and master `master` as seen from `worker` — the layout invariant
/// as the worker-major build wrote it, independent of [`routes_from`].
fn push_routes(worker: u32, master: u32, held: &[Route], out: &mut Vec<Route>) {
    if master != worker {
        let at_master = held.iter().find(|replica| replica.worker == master);
        out.push(*at_master.expect("the master holds a replica"));
    }
    out.extend(
        held.iter()
            .filter(|replica| replica.worker != worker && replica.worker != master),
    );
}

/// The whole table, worker-major.
pub(crate) fn build_worker_major(dg: &DistributedGraph) -> RoutingTable {
    let mut workers = Vec::new();
    for (d, sg) in dg.subgraphs().iter().enumerate() {
        let mut offsets = vec![0u32];
        let mut routes = Vec::new();
        for &v in sg.vertices() {
            let master = dg.replicas().master_of(v).raw();
            push_routes(d as u32, master, &probed_replicas(dg, v), &mut routes);
            offsets.push(u32::try_from(routes.len()).expect("route count fits u32"));
        }
        workers.push(WorkerRoutes { offsets, routes });
    }
    RoutingTable {
        workers,
        epoch: dg.epoch(),
    }
}

/// [`DistributedGraph::holders_of`] lists every vertex of the universe,
/// master first and then the mirrors ascending, and as a set its replicas
/// are exactly the replica table's partitions joined with the holders' hash
/// indices.
fn assert_holders_joined(dg: &DistributedGraph, what: &str) {
    for raw in 0..dg.num_vertices() {
        let v = VertexId::from(raw);
        let mut read: Vec<Route> = dg
            .holders_of(v)
            .map(|(sg, local)| Route {
                worker: sg.part().raw(),
                local: local as u32,
            })
            .collect();
        let master = dg.replicas().master_of(v).raw();
        let first = read.first().map(|route| route.worker);
        assert_eq!(first, Some(master), "{what}: vertex {v}");
        let mirrors = &read[1..];
        assert!(mirrors.windows(2).all(|w| w[0].worker < w[1].worker));
        read.sort_unstable_by_key(|route| route.worker);
        assert_eq!(read, probed_replicas(dg, v), "{what}: vertex {v}");
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
        // elsewhere: the epoch re-derives the kept workers' routes from the
        // locals the replica table recorded for them.
        let (mut dg, mut survivors) = random_distribution(p, 24, 40 * p, &mut rng);
        let mut shared_affected = 0;
        for round in 0..12 {
            let only = round % p;
            churn(&mut dg, &mut survivors, &[only], 2, 24, &mut rng);
            assert!(
                dg.last_mutation().workers_touched < p,
                "p={p} round {round}"
            );
            assert_rederived(&dg, &survivors, &format!("p={p} round {round}"));
            shared_affected += (dg.lineage().affected.iter())
                .filter(|&&v| {
                    dg.replicas()
                        .replicas_of(VertexId::from(v))
                        .any(|holder| holder.index() != only)
                })
                .count();
        }
        assert!(
            shared_affected > 0,
            "p={p}: no affected vertex kept a holder"
        );
        // A random 2..p-1 of the workers touched: several rebuilt workers'
        // new locals beside the kept workers' recorded ones.
        if p > 2 {
            let (mut dg, mut survivors) = random_distribution(p, 24, 40 * p, &mut rng);
            for round in 0..12 {
                let mut workers: Vec<usize> = (0..p).collect();
                let count = 2 + rng.below(p - 2);
                for i in 0..count {
                    workers.swap(i, i + rng.below(p - i));
                }
                workers.truncate(count);
                workers.sort_unstable();
                churn(&mut dg, &mut survivors, &workers, 2, 24, &mut rng);
                let what = format!("p={p} partial round {round} over {workers:?}");
                assert!(dg.last_mutation().workers_touched < p, "{what}");
                assert_rederived(&dg, &survivors, &what);
            }
        }
    }
}

/// The routes an epoch derived equal the worker-major build, and the
/// distribution a fresh streamed build of `survivors`: the epoch and the
/// fresh build elect every vertex and write every worker's master flags
/// alike.
fn assert_rederived(dg: &DistributedGraph, survivors: &[(Edge, PartitionId)], what: &str) {
    assert_eq!(dg.routing(), &build_worker_major(dg), "{what}");
    let n = Some(dg.num_vertices());
    let fresh = DistributedGraph::build_streaming(dg.num_workers(), n, survivors.to_vec());
    assert!(dg.same_structure(&fresh.unwrap()), "{what}");
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
    assert_eq!(dg.replicas().master_at(v(7)), None);
}

#[test]
fn every_vertex_is_held_and_mastered_first() {
    // Vertices 6..10 touch no edge.
    let mut builder = GraphBuilder::directed();
    builder.num_vertices(10);
    builder.extend_edges([(0u64, 1u64), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
    let graph = builder.build().unwrap();
    let partitioners: [Box<dyn Partitioner>; 2] = [
        Box::new(EbvPartitioner::new()),
        Box::new(MetisLikePartitioner::new()),
    ];
    for partitioner in &partitioners {
        for p in [1usize, 3, 4] {
            let partition = partitioner.partition(&graph, p).unwrap();
            let dg = DistributedGraph::build(&graph, &partition).unwrap();
            assert_holders_joined(&dg, &format!("{} p={p}", partitioner.name()));
        }
    }

    // A declared universe past the last streamed endpoint.
    let part = PartitionId::new;
    let stream = [
        (Edge::from((0u64, 1u64)), part(0)),
        (Edge::from((1u64, 2u64)), part(1)),
        (Edge::from((2u64, 3u64)), part(2)),
    ];
    let mut dg = DistributedGraph::build_streaming(3, Some(9), stream).unwrap();
    assert_holders_joined(&dg, "declared universe");

    // An epoch growing the universe, one isolating vertex 3 (its home 0
    // gains it) and one re-attaching it on another worker.
    let mut batch = MutationBatch::new();
    batch.record_insert(Edge::from((1u64, 12u64)), part(2));
    dg.apply_mutations(&batch).unwrap();
    assert_eq!(dg.num_vertices(), 13);
    assert_holders_joined(&dg, "grown universe");
    let mut batch = MutationBatch::new();
    batch.record_delete(Edge::from((2u64, 3u64)), part(2));
    dg.apply_mutations(&batch).unwrap();
    assert_eq!(dg.replicas().master_of(VertexId::new(3)), part(0));
    assert_holders_joined(&dg, "isolated vertex");
    let mut batch = MutationBatch::new();
    batch.record_insert(Edge::from((3u64, 4u64)), part(1));
    dg.apply_mutations(&batch).unwrap();
    assert_eq!(dg.replicas().master_of(VertexId::new(3)), part(1));
    assert_holders_joined(&dg, "re-attached vertex");
}

#[test]
fn holders_of_equals_the_replica_table_joined_with_the_hash_index() {
    let mut rng = Lcg(24);
    let p = 5;
    let (mut dg, mut survivors) = random_distribution(p, 60, 300, &mut rng);
    let everyone: Vec<usize> = (0..p).collect();
    for round in 0..10 {
        churn(&mut dg, &mut survivors, &everyone, 6, 60, &mut rng);
        assert_holders_joined(&dg, &format!("round {round}"));
    }
    // One worker per round, so the kept workers' recorded local indices are
    // read after the epoch.
    for round in 0..10 {
        churn(&mut dg, &mut survivors, &[round % p], 2, 60, &mut rng);
        assert!(dg.last_mutation().workers_touched < p, "one-worker {round}");
        assert_holders_joined(&dg, &format!("one-worker round {round}"));
    }
    // Isolate a vertex by deleting every edge copy it touches, then
    // re-attach it: once on its home worker, once elsewhere.
    for (round, v) in [7usize, 18, 29, 41].into_iter().enumerate() {
        let mut batch = MutationBatch::new();
        survivors.retain(|&(edge, part)| {
            let incident = edge.src.index() == v || edge.dst.index() == v;
            if incident {
                batch.record_delete(edge, part);
            }
            !incident
        });
        dg.apply_mutations(&batch).unwrap();
        let home = PartitionId::from_index(v % p);
        let vertex = VertexId::from(v);
        assert_eq!(
            dg.replicas().replicas_of(vertex).collect::<Vec<_>>(),
            [home]
        );
        assert_holders_joined(&dg, &format!("isolated {v}"));

        let part = PartitionId::from_index((v + round % 2) % p);
        let edge = Edge::from((v as u64, rng.below(60) as u64));
        let mut batch = MutationBatch::new();
        batch.record_insert(edge, part);
        survivors.push((edge, part));
        dg.apply_mutations(&batch).unwrap();
        assert!(dg.last_mutation().workers_touched < p, "re-attached {v}");
        assert_holders_joined(&dg, &format!("re-attached {v}"));
    }
    let n = Some(dg.num_vertices());
    let fresh = DistributedGraph::build_streaming(p, n, survivors).unwrap();
    assert!(dg.same_structure(&fresh));
}
