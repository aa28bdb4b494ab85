//! Property tests: the evolving-graph subsystem is exactly equivalent to
//! rebuilding from scratch.
//!
//! The correctness anchors, mirroring how PR 1 anchored streaming:
//!
//! 1. after *any* event sequence (inserts + deletes, windowed or churned),
//!    the maintained [`PartitionMetrics`] are **bit-identical** to
//!    materializing the surviving edge multiset into a graph and
//!    recomputing the metrics from scratch;
//! 2. for the history-oblivious dynamic Random policy, the *assignment*
//!    itself equals a from-scratch partition of the surviving edges in
//!    insertion order;
//! 3. a [`DistributedGraph`] mutated batch-by-batch is structurally
//!    identical to a fresh streaming build of the survivors, and Connected
//!    Components over both are equal;
//! 4. the imbalance-triggered rebalancer restores the edge balance past its
//!    threshold, and the migrated distribution still agrees with a fresh
//!    build on CC.

use proptest::prelude::*;

use ebv_algorithms::ConnectedComponents;
use ebv_bsp::{BspEngine, DistributedGraph, MutationBatch};
use ebv_dynamic::{
    batch_from_plan, events, ChurnStream, EventPipeline, EventSource, GraphEvent, InsertEvents,
    SlidingWindow,
};
use ebv_graph::generators::{ErdosRenyiGenerator, GraphGenerator};
use ebv_graph::{pairs, Edge, EdgeSource, GraphBuilder, RmatEdgeStream};
use ebv_partition::{
    DynamicPartitioner, EbvPartitioner, HdrfPartitioner, PartitionMetrics, Partitioner,
    RandomVertexCutPartitioner, RebalanceConfig, StreamConfig,
};

/// The three wrapped policies, constructed fresh on demand.
fn make_partitioner(algo: u8, p: usize) -> DynamicPartitioner {
    let config = StreamConfig::new(p);
    match algo % 3 {
        0 => EbvPartitioner::new().dynamic(config).unwrap(),
        1 => HdrfPartitioner::new().dynamic(config).unwrap(),
        _ => RandomVertexCutPartitioner::new().dynamic(config).unwrap(),
    }
}

/// An arbitrary mutation stream: a power-law (R-MAT) or uniform
/// (Erdős–Rényi) edge stream pushed through churn, a sliding window or a
/// tumbling window, so the event sequence mixes inserts and deletes across
/// multiple windows.
#[derive(Debug, Clone)]
struct StreamSpec {
    family: u8,
    scale: u32,
    num_edges: usize,
    seed: u64,
    shape: u8,
    window: usize,
    churn: f64,
}

fn arbitrary_stream() -> impl Strategy<Value = StreamSpec> {
    (
        0u8..2,
        5u32..9,
        50usize..600,
        0u64..1000,
        0u8..4,
        10usize..200,
        1u32..6,
    )
        .prop_map(
            |(family, scale, num_edges, seed, shape, window, churn)| StreamSpec {
                family,
                scale,
                num_edges,
                seed,
                shape,
                window,
                churn: churn as f64 / 10.0,
            },
        )
}

/// Drives the spec's event stream into `partitioner`, returning the events.
fn drive(spec: &StreamSpec, partitioner: &mut DynamicPartitioner) -> Vec<GraphEvent> {
    fn collect<S: EventSource>(
        mut source: S,
        partitioner: &mut DynamicPartitioner,
    ) -> Vec<GraphEvent> {
        let mut events = Vec::new();
        while let Some(event) = source.next_event() {
            let event = event.unwrap();
            match event {
                GraphEvent::Insert(edge) => {
                    partitioner.insert(edge);
                }
                GraphEvent::Delete(edge) => {
                    partitioner.delete(edge).unwrap();
                }
            }
            events.push(event);
        }
        events
    }

    macro_rules! with_edges {
        ($edges:expr) => {{
            let edges = $edges;
            match spec.shape % 4 {
                0 => collect(InsertEvents::new(edges), partitioner),
                1 => collect(
                    ChurnStream::new(edges, spec.churn)
                        .unwrap()
                        .with_seed(spec.seed),
                    partitioner,
                ),
                2 => collect(SlidingWindow::new(edges, spec.window).unwrap(), partitioner),
                _ => collect(events(tumbling(edges, spec.window)), partitioner),
            }
        }};
    }

    if spec.family == 0 {
        with_edges!(RmatEdgeStream::new(spec.scale, spec.num_edges).with_seed(spec.seed))
    } else {
        let graph = ErdosRenyiGenerator::new(1 << spec.scale, spec.num_edges)
            .with_seed(spec.seed)
            .generate()
            .unwrap();
        let edges: Vec<(u64, u64)> = graph
            .edges()
            .iter()
            .map(|edge| (edge.src.raw(), edge.dst.raw()))
            .collect();
        with_edges!(pairs(edges))
    }
}

/// A tumbling window: back-to-back windows of `window` edges. When one is
/// full, the next arrival first evicts the whole window, oldest first, so
/// the stream deletes a window's worth of edges in one run of events.
fn tumbling(mut edges: impl EdgeSource, window: usize) -> Vec<GraphEvent> {
    let (mut events, mut live) = (Vec::new(), Vec::new());
    while let Some(edge) = edges.next_edge() {
        let edge = edge.unwrap();
        if live.len() == window {
            events.extend(live.drain(..).map(GraphEvent::Delete));
        }
        live.push(edge);
        events.push(GraphEvent::Insert(edge));
    }
    events
}

/// Recomputes the maintained metrics from scratch over the survivors.
fn reference_metrics(partitioner: &DynamicPartitioner) -> PartitionMetrics {
    let mut builder = GraphBuilder::directed();
    for (edge, _) in partitioner.surviving() {
        builder.add_edge(edge);
    }
    builder.num_vertices(partitioner.num_vertices());
    let graph = builder.build().unwrap();
    PartitionMetrics::compute(&graph, &partitioner.snapshot().unwrap()).unwrap()
}

/// Asserts `a` and `b` describe the same distribution over their common
/// vertex prefix. The universes may differ when an edge referencing the
/// highest vertex was inserted and deleted within one batch (the
/// distribution never saw it, while the partitioner's monotone universe
/// did); vertices beyond the prefix are isolated in the larger build and
/// cannot influence the shared structure.
fn assert_distributions_equal(a: &DistributedGraph, b: &DistributedGraph) {
    assert_eq!(a.num_workers(), b.num_workers());
    assert_eq!(a.num_edges(), b.num_edges());
    let common = a.num_vertices().min(b.num_vertices());
    for v in 0..common {
        let v = ebv_graph::VertexId::from(v);
        assert_eq!(a.replicas().master_of(v), b.replicas().master_of(v), "{v}");
        let replicas = |dg: &DistributedGraph| dg.replicas().replicas_of(v).collect::<Vec<_>>();
        assert_eq!(replicas(a), replicas(b), "{v}");
    }
    for (sa, sb) in a.subgraphs().iter().zip(b.subgraphs()) {
        assert_eq!(sa.edges(), sb.edges());
    }
}

/// Runs CC over a distribution and returns the global component labels.
fn cc_labels(distributed: &DistributedGraph) -> Vec<u64> {
    BspEngine::sequential()
        .run(distributed, &ConnectedComponents::new())
        .unwrap()
        .values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Anchor 1: maintained metrics are bit-identical to a from-scratch
    /// recomputation over the surviving edge multiset, for every policy and
    /// every event-stream shape.
    #[test]
    fn maintained_metrics_are_exact(spec in arbitrary_stream(), algo in 0u8..3, p in 1usize..7) {
        let mut partitioner = make_partitioner(algo, p);
        drive(&spec, &mut partitioner);
        prop_assume!(partitioner.live_edges() > 0);
        let maintained = partitioner.metrics();
        let recomputed = reference_metrics(&partitioner);
        prop_assert!(
            maintained.edge_imbalance == recomputed.edge_imbalance
                && maintained.vertex_imbalance == recomputed.vertex_imbalance
                && maintained.replication_factor == recomputed.replication_factor,
            "algo {} maintained {:?} != recomputed {:?}",
            algo, maintained, recomputed
        );
    }

    /// Anchor 2: the history-oblivious Random policy reproduces a
    /// from-scratch partition of the survivors — identical assignment, not
    /// just identical metrics.
    #[test]
    fn dynamic_random_equals_from_scratch(spec in arbitrary_stream(), p in 1usize..7) {
        let mut partitioner = make_partitioner(2, p);
        drive(&spec, &mut partitioner);
        let survivors: Vec<(Edge, ebv_partition::PartitionId)> =
            partitioner.surviving().collect();
        // Pin the universe: the original observed every inserted edge, the
        // replay only sees survivors, and the universe never shrinks.
        let mut fresh = RandomVertexCutPartitioner::new()
            .dynamic(
                StreamConfig::new(p).with_expected_vertices(partitioner.num_vertices()),
            )
            .unwrap();
        for &(edge, expected) in &survivors {
            prop_assert_eq!(fresh.insert(edge), expected, "edge {}", edge);
        }
        prop_assert_eq!(fresh.snapshot().unwrap(), partitioner.snapshot().unwrap());
        let a = fresh.metrics();
        let b = partitioner.metrics();
        prop_assert!(a.edge_imbalance == b.edge_imbalance
            && a.replication_factor == b.replication_factor);
    }

    /// An insert-only stream read straight off an [`EdgeSource`], with the
    /// source's own hints and a plain insert loop, reproduces batch EBV
    /// under input order over the materialized graph bit for bit:
    /// every insert's partition, the snapshot and the maintained metrics.
    #[test]
    fn insert_only_equals_streaming(
        scale in 5u32..9,
        num_edges in 50usize..800,
        seed in 0u64..500,
        p in 1usize..7,
    ) {
        let stream = || RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut builder = GraphBuilder::directed();
        let mut source = stream();
        while let Some(edge) = source.next_edge() {
            builder.add_edge(edge.unwrap());
        }
        builder.num_vertices(1 << scale);
        let graph = builder.build().unwrap();
        let batch = EbvPartitioner::new().unsorted().partition(&graph, p).unwrap();
        let assignment = batch.as_vertex_cut().unwrap().assignment();

        let mut dynamic = EbvPartitioner::new().dynamic(StreamConfig::for_source(&stream(), p)).unwrap();
        let mut source = stream();
        let mut position = 0;
        while let Some(edge) = source.next_edge() {
            let edge = edge.unwrap();
            prop_assert_eq!(dynamic.insert(edge), assignment[position], "edge {}", edge);
            position += 1;
        }
        prop_assert_eq!(position, graph.num_edges());
        prop_assert_eq!(dynamic.snapshot().unwrap(), batch.clone());
        prop_assert_eq!(dynamic.metrics(), PartitionMetrics::compute(&graph, &batch).unwrap());
    }

    /// Anchor 3: a distribution mutated batch-by-batch through the event
    /// pipeline is structurally identical to a fresh streaming build of the
    /// survivors, and CC over both agrees.
    #[test]
    fn mutated_distribution_equals_fresh_build(
        spec in arbitrary_stream(),
        algo in 0u8..3,
        p in 2usize..6,
        batch_size in 16usize..400,
    ) {
        let mut partitioner = make_partitioner(algo, p);
        let mut distributed = DistributedGraph::build_streaming(p, None, Vec::new()).unwrap();
        let mut partitioner_for_pipeline = make_partitioner(algo, p);
        let spec2 = spec.clone();
        drive(&spec, &mut partitioner); // reference state, same deterministic stream

        // Pipeline-driven copy applying every batch to the distribution
        // through the incremental path. Empty (fully cancelled) batches are
        // no-ops and do not advance the epoch.
        let source = EventCollector::new(&spec2);
        let mut absorbed = 0usize;
        EventPipeline::new(batch_size)
            .run_applied(
                source,
                &mut partitioner_for_pipeline,
                &mut distributed,
                |_, batch, _, stats| {
                    if batch.is_empty() {
                        assert_eq!(stats.workers_touched, 0);
                    } else {
                        absorbed += 1;
                        assert!(stats.workers_touched >= 1);
                        assert!(stats.workers_touched <= p);
                    }
                    Ok(())
                },
            )
            .unwrap();
        prop_assume!(partitioner.live_edges() > 0);
        prop_assert_eq!(distributed.epoch(), absorbed);
        prop_assert_eq!(distributed.num_edges(), partitioner.live_edges());

        let fresh = DistributedGraph::build_streaming(
            p,
            Some(partitioner.num_vertices()),
            partitioner.surviving(),
        )
        .unwrap();
        assert_distributions_equal(&distributed, &fresh);
        // CC labels agree over the common prefix; vertices beyond it are
        // isolated in the fresh build and keep their own label.
        let common = distributed.num_vertices().min(fresh.num_vertices());
        let a = cc_labels(&distributed);
        let b = cc_labels(&fresh);
        prop_assert_eq!(&a[..common], &b[..common]);
        prop_assert!(b[common..].iter().enumerate().all(|(i, &l)| l == (common + i) as u64));
    }
}

/// Replays the deterministic event stream of a [`StreamSpec`] — a helper
/// to feed the same sequence into the pipeline and into a reference
/// partitioner.
struct EventCollector {
    events: std::vec::IntoIter<GraphEvent>,
}

impl EventCollector {
    fn new(spec: &StreamSpec) -> Self {
        // Materialize via a throwaway partitioner drive (the stream shapes
        // are deterministic for a fixed spec).
        let mut scratch = make_partitioner(2, 1);
        let events = drive(spec, &mut scratch);
        EventCollector {
            events: events.into_iter(),
        }
    }
}

impl EventSource for EventCollector {
    fn next_event(&mut self) -> Option<ebv_dynamic::Result<GraphEvent>> {
        self.events.next().map(Ok)
    }
}

/// Anchor 4: the rebalancer demonstrably restores edge balance past its
/// threshold, and the migrated distribution still agrees with a fresh
/// build on CC.
#[test]
fn rebalance_epoch_restores_balance_and_preserves_cc() {
    let p = 4;
    let stream = RmatEdgeStream::new(10, 8_000).with_seed(77);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, p))
        .unwrap();
    let mut distributed = DistributedGraph::build_streaming(p, None, Vec::new()).unwrap();
    let churn = ChurnStream::new(stream, 0.2).unwrap().with_seed(5);
    EventPipeline::new(1_000)
        .run_applied(churn, &mut partitioner, &mut distributed, |_, _, _, _| {
            Ok(())
        })
        .unwrap();

    // Starve partitions 1..p so the load concentrates on partition 0.
    let victims: Vec<Edge> = partitioner
        .surviving()
        .filter(|(_, part)| part.index() != 0)
        .map(|(edge, _)| edge)
        .collect();
    let mut batch = MutationBatch::new();
    for edge in victims.iter().take(victims.len() * 9 / 10) {
        let part = partitioner.delete(*edge).unwrap();
        batch.record_delete(*edge, part);
    }
    distributed.apply_mutations(&batch).unwrap();

    let config = RebalanceConfig::new()
        .with_max_edge_imbalance(1.25)
        .with_target_edge_imbalance(1.05);
    let before = partitioner.metrics();
    assert!(before.edge_imbalance > 1.25, "skew holds: {before:?}");
    let plan = partitioner.rebalance(&config).unwrap();
    assert!(!plan.is_empty());
    let after = partitioner.metrics();
    assert!(
        after.edge_imbalance <= config.max_edge_imbalance(),
        "restored: {} -> {}",
        before.edge_imbalance,
        after.edge_imbalance
    );

    // Replay the migrations downstream and cross-check against a fresh
    // build of the post-migration survivors. Migrations concentrate on the
    // overloaded/underloaded workers, so the incremental epoch reports its
    // touched set.
    let stats = distributed
        .apply_mutations(&batch_from_plan(&plan))
        .unwrap();
    assert!(stats.workers_touched >= 1 && stats.workers_touched <= p);
    assert_eq!(distributed.num_edges(), partitioner.live_edges());
    // A move is a delete plus an insert on both sides, so every worker
    // holds exactly the survivors on it, in the partitioner's order.
    for sg in distributed.subgraphs() {
        let on_worker = partitioner
            .surviving()
            .filter(|&(_, part)| part == sg.part())
            .map(|(edge, _)| edge);
        assert!(
            sg.edges().iter().copied().eq(on_worker),
            "worker {}",
            sg.part()
        );
    }
    let fresh = DistributedGraph::build_streaming(
        p,
        Some(distributed.num_vertices()),
        partitioner.surviving(),
    )
    .unwrap();
    assert_eq!(cc_labels(&distributed), cc_labels(&fresh));

    // The maintained metrics still recompute exactly after migration.
    let recomputed = reference_metrics(&partitioner);
    assert!(
        after.edge_imbalance == recomputed.edge_imbalance
            && after.replication_factor == recomputed.replication_factor
    );
}
