//! The store's own suite: reads and their errors, carry-forward, the
//! adjacency routes a commit takes, prepared commits, and concurrent
//! readers against flips.

use super::*;
use ebv_bsp::MutationBatch;
use ebv_graph::Edge;
use ebv_partition::PartitionId;
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;
use std::thread;

fn store_with_cc() -> (SnapshotStore, QueryHandle) {
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let handle = store.handle();
    store.stage(Series {
        name: "cc".to_string(),
        data: SeriesData::U64 {
            values: vec![0, 0, 0, 3, 3, 3],
            absent: None,
        },
    });
    store.commit(1, 6, None);
    (store, handle)
}

#[test]
fn reads_before_the_first_commit_are_not_ready() {
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let handle = store.handle();
    assert_eq!(handle.lookup("cc", 0), Err(QueryError::NotReady));
    assert_eq!(handle.topk("cc", 3, true), Err(QueryError::NotReady));
    assert_eq!(handle.snapshot().unwrap_err(), QueryError::NotReady);
    // A read attempt is counted — and sampled — whether or not it
    // finds an epoch; `snapshot()` is not a read.
    assert_eq!(registry.counter("ebv_query_reads_total").get(), 2);
    assert_eq!(registry.histogram("ebv_query_read_seconds").count(), 1);
}

#[test]
fn lookup_topk_and_errors() {
    let (_store, handle) = store_with_cc();
    assert_eq!(handle.lookup("cc", 4), Ok(QueryValue::U64(3)));
    assert_eq!(handle.lookup("cc", 99), Err(QueryError::UnknownVertex));
    assert_eq!(handle.lookup("nope", 0), Err(QueryError::UnknownSeries));
    assert_eq!(handle.neighbors(0), Err(QueryError::NoAdjacency));

    // Descending top-2: the two lowest vertices labeled 3, ties by id.
    let top = handle.topk("cc", 2, true).unwrap();
    assert_eq!(top, vec![(3, QueryValue::U64(3)), (4, QueryValue::U64(3))]);
    // Ascending top-2: label-0 vertices first.
    let bottom = handle.topk("cc", 2, false).unwrap();
    assert_eq!(
        bottom,
        vec![(0, QueryValue::U64(0)), (1, QueryValue::U64(0))]
    );
    // k larger than the series serves everything.
    assert_eq!(handle.topk("cc", 100, true).unwrap().len(), 6);
    assert_eq!(handle.topk("cc", 0, true).unwrap(), vec![]);
}

#[test]
fn absent_sentinels_serve_null_and_are_skipped_by_topk() {
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let handle = store.handle();
    store.stage(Series {
        name: "sssp".to_string(),
        data: SeriesData::U64 {
            values: vec![0, 1, u64::MAX, 2],
            absent: Some(u64::MAX),
        },
    });
    store.commit(1, 4, None);
    assert_eq!(handle.lookup("sssp", 2), Ok(QueryValue::Null));
    assert_eq!(QueryValue::Null.to_json(), "null");
    let top = handle.topk("sssp", 10, true).unwrap();
    assert_eq!(top.len(), 3, "the unreachable vertex is skipped");
    assert_eq!(top[0], (3, QueryValue::U64(2)));
}

#[test]
fn commits_carry_forward_unstaged_series_and_bump_metrics() {
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let handle = store.handle();
    store.stage(Series {
        name: "cc".to_string(),
        data: u64::pack(&[7, 7]),
    });
    store.commit(1, 2, None);
    // Epoch 2 stages only a rank series; cc must still serve.
    store.stage(Series {
        name: "rank".to_string(),
        data: f64::pack(&[0.5, 0.5]),
    });
    store.commit(2, 2, None);
    let snapshot = handle.snapshot().unwrap();
    assert_eq!(snapshot.epoch, 2);
    assert_eq!(snapshot.series_names(), vec!["rank", "cc"]);
    assert_eq!(handle.lookup("cc", 0), Ok(QueryValue::U64(7)));
    assert_eq!(handle.lookup("rank", 1), Ok(QueryValue::F64(0.5)));

    // Every read is counted by the one counter whose previous value is
    // its sampling tick: one in 64 is timed, the first included.
    let reads = || registry.counter("ebv_query_reads_total").get();
    let timed = || registry.histogram("ebv_query_read_seconds").count();
    assert_eq!(reads(), 2, "snapshot() is not a read; the two lookups are");
    assert_eq!(timed(), 1, "the first read is timed");
    for r in 3..=300u64 {
        assert!(handle.lookup("cc", r % 2).is_ok());
        assert_eq!(reads(), r);
        assert_eq!(timed(), r.div_ceil(64), "after {r} reads");
    }
    assert_eq!(registry.gauge("ebv_query_epoch").get(), 2.0);
    assert_eq!(registry.counter("ebv_query_commits_total").get(), 2);
}

/// A store serving adjacency, with the registry its derivation counters
/// report to.
fn adjacency_store() -> (SnapshotStore, MetricsRegistry) {
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    store.serve_adjacency(true);
    (store, registry)
}

/// `(patched, rebuilt)` commits so far.
fn derivations(registry: &MetricsRegistry) -> (u64, u64) {
    (
        registry.counter("ebv_query_adjacency_patches_total").get(),
        registry.counter("ebv_query_adjacency_rebuilds_total").get(),
    )
}

fn served(store: &SnapshotStore) -> Arc<Adjacency> {
    let snapshot = store.shared.current();
    Arc::clone(snapshot.adjacency.as_ref().expect("adjacency is served"))
}

/// The served adjacency is list for list what a from-scratch build of
/// `graph` gives, and says it describes `graph`'s state.
fn assert_serves(store: &SnapshotStore, graph: &DistributedGraph, context: &str) {
    let (held, rebuilt) = (served(store), Adjacency::from_distributed(graph));
    assert_eq!(held.offsets, rebuilt.offsets, "{context}");
    assert_eq!(held.targets, rebuilt.targets, "{context}");
    assert_eq!(held.state, graph.lineage().state, "{context}");
}

fn lcg(state: &mut u64, n: usize) -> usize {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    ((*state >> 33) % n as u64) as usize
}

/// A random multigraph over `n` vertices and 3 workers: `copies` edge
/// copies drawn from few enough pairs that parallel copies, on the same
/// worker and across workers, are common.
fn multigraph(n: usize, copies: usize, rng: &mut u64) -> Vec<(Edge, PartitionId)> {
    (0..copies)
        .map(|_| {
            let src = lcg(rng, n) as u64;
            let edge = Edge::from((src, (src + 1 + lcg(rng, 3) as u64) % n as u64));
            (edge, PartitionId::from_index(lcg(rng, 3)))
        })
        .collect()
}

/// One small churn batch over `live`: a few deletions (LIFO), a few
/// insertions, and every fifth epoch a vertex past the universe.
fn small_batch(
    live: &mut Vec<(Edge, PartitionId)>,
    n: usize,
    epoch: usize,
    rng: &mut u64,
) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for _ in 0..1 + lcg(rng, 3) {
        let pick = live[lcg(rng, live.len())];
        let latest = live.iter().rposition(|&pair| pair == pick).unwrap();
        live.remove(latest);
        batch.record_delete(pick.0, pick.1);
    }
    for _ in 0..1 + lcg(rng, 3) {
        let (edge, part) = multigraph(n, 1, rng)[0];
        batch.record_insert(edge, part);
        live.push((edge, part));
    }
    if epoch.is_multiple_of(5) {
        let edge = Edge::from((lcg(rng, n) as u64, (n + epoch) as u64));
        batch.record_insert(edge, PartitionId::new(0));
        live.push((edge, PartitionId::new(0)));
    }
    batch
}

#[test]
fn thirty_patched_epochs_equal_thirty_rebuilds() {
    let mut rng = 0xD1B5_4A32_D192_ED03u64;
    let n = 240;
    let mut live = multigraph(n, 900, &mut rng);
    let mut graph = DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
    let (store, registry) = adjacency_store();
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "first commit");
    assert_eq!(derivations(&registry), (0, 1), "nothing to patch yet");
    for epoch in 1..=30 {
        let batch = small_batch(&mut live, n, epoch, &mut rng);
        graph.apply_mutations(&batch).unwrap();
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, &format!("epoch {epoch}"));
        assert_eq!(derivations(&registry), (epoch as u64, 1), "epoch {epoch}");
    }
    // And the state really is the multigraph's: a fresh build of the
    // survivors serves the same lists.
    let fresh = DistributedGraph::build_streaming(3, Some(graph.num_vertices()), live).unwrap();
    let rebuilt = Adjacency::from_distributed(&fresh);
    assert_eq!(served(&store).targets, rebuilt.targets);
}

#[test]
fn a_commit_rebuilds_unless_it_knows_the_previous_adjacency_is_the_parent() {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let n = 240;
    let mut live = multigraph(n, 900, &mut rng);
    let mut graph = DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
    let (store, registry) = adjacency_store();
    store.commit_epoch(&graph);
    assert_eq!(derivations(&registry), (0, 1), "first commit");

    // An empty batch is the same state: the same adjacency, by pointer.
    let before = served(&store);
    graph.apply_mutations(&MutationBatch::new()).unwrap();
    store.commit_epoch(&graph);
    assert!(Arc::ptr_eq(&before, &served(&store)));
    assert_eq!(
        derivations(&registry),
        (0, 1),
        "neither patched nor rebuilt"
    );

    // Two applies between commits: the store holds the grandparent.
    for epoch in 1..=2 {
        let batch = small_batch(&mut live, n, epoch, &mut rng);
        graph.apply_mutations(&batch).unwrap();
    }
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "epoch gap");
    assert_eq!(derivations(&registry), (0, 2));

    // A clone that diverges after the last commit: same epoch number as
    // the committed successor, a different batch, the same parent.
    let mut twin_live = live.clone();
    let mut twin = graph.clone();
    graph
        .apply_mutations(&small_batch(&mut live, n, 3, &mut rng))
        .unwrap();
    twin.apply_mutations(&small_batch(&mut twin_live, n, 4, &mut rng))
        .unwrap();
    store.commit_epoch(&graph);
    assert_eq!(derivations(&registry), (1, 2), "one batch past the commit");
    assert_eq!(twin.epoch(), graph.epoch());
    store.commit_epoch(&twin);
    assert_serves(&store, &twin, "diverged clone");
    assert_eq!(derivations(&registry), (1, 3), "epoch + 1 proves nothing");
    // Back on the original line the store now holds a stranger's state.
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "back from the clone");
    assert_eq!(derivations(&registry), (1, 4));

    // A batch over the size rule: more than one vertex in eight.
    let mut big = MutationBatch::new();
    for v in 0..n as u64 / 8 + 1 {
        let edge = Edge::from((v, (v + 7) % n as u64));
        big.record_insert(edge, PartitionId::new(1));
    }
    graph.apply_mutations(&big).unwrap();
    assert!(graph.lineage().affected.len() * PATCH_MAX_AFFECTED_SHARE > graph.num_vertices());
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "big batch");
    assert_eq!(derivations(&registry), (1, 5));

    // Adjacency off for an epoch: the stale one is carried (as before),
    // and turning it back on cannot patch from it.
    store.serve_adjacency(false);
    graph
        .apply_mutations(&small_batch(&mut live, n, 6, &mut rng))
        .unwrap();
    let stale = served(&store);
    store.commit_epoch(&graph);
    assert!(Arc::ptr_eq(&stale, &served(&store)));
    store.serve_adjacency(true);
    graph
        .apply_mutations(&small_batch(&mut live, n, 7, &mut rng))
        .unwrap();
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "adjacency back on");
    assert_eq!(derivations(&registry), (1, 6));
    // From here the line is unbroken again.
    graph
        .apply_mutations(&small_batch(&mut live, n, 8, &mut rng))
        .unwrap();
    store.commit_epoch(&graph);
    assert_serves(&store, &graph, "patched again");
    assert_eq!(derivations(&registry), (2, 6));
}

/// One batch inserting `n / 4` random copies: more than one vertex in
/// eight is affected, so it cannot be patched.
fn large_batch(live: &mut Vec<(Edge, PartitionId)>, n: usize, rng: &mut u64) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for (edge, part) in multigraph(n, n / 4, rng) {
        batch.record_insert(edge, part);
        live.push((edge, part));
    }
    batch
}

#[test]
fn prepared_commits_serve_what_inline_commits_serve() {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let n = 240;
    let mut live = multigraph(n, 900, &mut rng);
    let mut graph = DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
    let (inline, inline_registry) = adjacency_store();
    let (prepared, prepared_registry) = adjacency_store();
    let commit_both = |graph: &DistributedGraph, context: &str| {
        inline.commit_epoch(graph);
        let before = prepared.shared.current();
        let commit = prepared.prepare_epoch(graph);
        assert!(
            Arc::ptr_eq(&before, &prepared.shared.current()),
            "a prepare publishes nothing: {context}"
        );
        commit();
        assert_serves(&inline, graph, context);
        assert_serves(&prepared, graph, context);
        assert_eq!(
            derivations(&prepared_registry),
            derivations(&inline_registry),
            "{context}"
        );
    };
    commit_both(&graph, "first commit");
    for epoch in 1..=33 {
        // Every eleventh epoch is large: rebuilt, then patched onward.
        let batch = if epoch % 11 == 0 {
            let batch = large_batch(&mut live, n, &mut rng);
            graph.apply_mutations(&batch).unwrap();
            let affected = graph.lineage().affected.len();
            assert!(affected * PATCH_MAX_AFFECTED_SHARE > n, "epoch {epoch}");
            batch
        } else {
            let batch = small_batch(&mut live, n, epoch, &mut rng);
            graph.apply_mutations(&batch).unwrap();
            batch
        };
        assert!(!batch.is_empty());
        commit_both(&graph, &format!("epoch {epoch}"));
    }
    assert_eq!(derivations(&prepared_registry), (30, 4));
}

#[test]
fn a_prepare_of_another_state_is_dropped_and_counted() {
    let mut rng = 0xBF58_476D_1CE4_E5B9u64;
    let n = 240;
    let mut live = multigraph(n, 900, &mut rng);
    let base = DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
    let (store, registry) = adjacency_store();
    store.commit_epoch(&base);
    let commits = || registry.counter("ebv_query_commits_total").get();

    // Two clones of one state, one batch apart in different directions.
    let (mut a, mut b) = (base.clone(), base);
    let mut b_live = live.clone();
    a.apply_mutations(&small_batch(&mut live, n, 1, &mut rng))
        .unwrap();
    b.apply_mutations(&small_batch(&mut b_live, n, 2, &mut rng))
        .unwrap();
    assert_eq!(a.epoch(), b.epoch());
    let published = store.shared.current();
    drop(store.prepare_epoch(&a));
    assert!(
        Arc::ptr_eq(&published, &store.shared.current()),
        "a dropped commit publishes nothing"
    );
    assert_eq!(commits(), 1);
    assert_eq!(derivations(&registry), (0, 1), "and counts nothing");

    // B's own commit serves B, patched from the published parent.
    store.commit_epoch(&b);
    assert_serves(&store, &b, "committed B after dropping A's commit");
    assert_eq!(commits(), 2);
    assert_eq!(derivations(&registry), (1, 1), "B was patched once");
}

#[test]
fn without_adjacency_a_prepare_parks_nothing() {
    let mut rng = 11u64;
    let graph =
        DistributedGraph::build_streaming(3, Some(32), multigraph(32, 90, &mut rng)).unwrap();
    let registry = MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let commit = store.prepare_epoch(&graph);
    commit();
    assert!(store.shared.current().adjacency.is_none());
    assert_eq!(derivations(&registry), (0, 0));
}

#[test]
fn carry_forward_shares_the_previous_snapshots_arrays() {
    let mut rng = 7u64;
    let live = multigraph(32, 90, &mut rng);
    let graph = DistributedGraph::build_streaming(3, Some(32), live).unwrap();
    let (store, _registry) = adjacency_store();
    let handle = store.handle();
    store.stage(Series {
        name: "cc".to_string(),
        data: u64::pack(&[1; 32]),
    });
    store.commit_epoch(&graph);
    let first = handle.snapshot().unwrap();
    store.commit(graph.epoch() as u64 + 1, 32, None);
    let second = handle.snapshot().unwrap();
    assert_eq!(second.epoch, first.epoch + 1);
    let busiest = (0..32u64)
        .max_by_key(|&v| first.neighbors(v).unwrap().len())
        .unwrap();
    assert!(!first.neighbors(busiest).unwrap().is_empty());
    assert_eq!(
        first.neighbors(busiest).unwrap().as_ptr(),
        second.neighbors(busiest).unwrap().as_ptr(),
        "the adjacency is carried forward as a pointer"
    );
    let (old, new) = (first.series("cc").unwrap(), second.series("cc").unwrap());
    assert!(std::ptr::eq(old, new), "so is a series nobody re-staged");
}

#[test]
fn a_carried_forward_series_keeps_its_zone_map_and_a_restaged_one_gets_a_fresh_one() {
    let store = SnapshotStore::with_registry(&MetricsRegistry::new());
    let committed = |name: &str| {
        let snapshot = store.shared.current();
        let found = snapshot.series.iter().find(|c| c.series.name == name);
        Arc::clone(found.expect("series is committed"))
    };
    store.stage(Series {
        name: "cc".to_string(),
        data: u64::pack(&(0..200).collect::<Vec<u64>>()),
    });
    store.stage(Series {
        name: "rank".to_string(),
        data: f64::pack(&[0.25; 200]),
    });
    store.commit(1, 200, None);
    let (cc, rank) = (committed("cc"), committed("rank"));
    let restaged = f64::pack(&(0..200).map(|v| v as f64).collect::<Vec<_>>());
    store.stage(Series {
        name: "rank".to_string(),
        data: restaged.clone(),
    });
    store.commit(2, 200, None);
    assert!(Arc::ptr_eq(&cc, &committed("cc")), "carried with its map");
    let fresh = committed("rank");
    assert!(!Arc::ptr_eq(&rank, &fresh));
    assert_eq!(fresh.zones, ZoneMap::build(&restaged));
    assert_ne!(
        fresh.zones, rank.zones,
        "the old map went with the old values"
    );
}

#[test]
fn pagerank_values_publish_as_normalized_ranks() {
    let values = vec![
        PageRankValue {
            rank: 0.25,
            partial: 0.0,
        },
        PageRankValue {
            rank: 0.75,
            partial: 0.0,
        },
    ];
    match PageRankValue::pack(&values) {
        SeriesData::F64(ranks) => assert_eq!(ranks, ebv_algorithms::ranks(&values)),
        other => panic!("expected F64 ranks, got {other:?}"),
    }
}

/// Commits `epoch` with one 64-element series holding `epoch` in every
/// slot, so a snapshot mixing two epochs is detectable from its values.
fn commit_uniform(store: &SnapshotStore, epoch: u64) {
    store.stage(Series {
        name: "v".to_string(),
        data: u64::pack(&[epoch; 64]),
    });
    store.commit(epoch, 64, None);
}

fn uniform_values(snapshot: &GraphSnapshot) -> &[u64] {
    match &snapshot.series("v").expect("series v is committed").data {
        SeriesData::U64 { values, .. } => values,
        other => panic!("expected a u64 series, got {other:?}"),
    }
}

/// The core torn-read property: each committed snapshot is internally
/// consistent (all elements equal the epoch), so any mixed vector
/// observed by a reader would prove a torn flip.
///
/// The interleaving is forced rather than hoped for: the writer starts
/// only once every reader has completed a load, and follows each commit
/// with a wait for a further load, so reads race every one of the 500
/// flips even when the scheduler would let the writer finish first.
#[test]
fn concurrent_readers_never_observe_a_torn_value() {
    let store = SnapshotStore::with_registry(&MetricsRegistry::new());
    commit_uniform(&store, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let all_reading = Arc::new(Barrier::new(5));
    let total_loads = Arc::new(AtomicU64::new(0));
    let shared_handle = store.handle();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = shared_handle.clone();
            let stop = Arc::clone(&stop);
            let all_reading = Arc::clone(&all_reading);
            let total_loads = Arc::clone(&total_loads);
            thread::spawn(move || {
                let mut last = 0u64;
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = handle.snapshot().expect("epoch 0 is committed");
                    let values = uniform_values(&snapshot);
                    let first = values[0];
                    assert!(
                        values.iter().all(|&x| x == first),
                        "torn snapshot: {first} mixed with another epoch"
                    );
                    assert_eq!(snapshot.epoch, first, "values belong to their epoch tag");
                    assert!(first >= last, "flips must be monotonic");
                    last = first;
                    // The same through the handle's own pin: a point
                    // read and a top-k, each from one epoch, never
                    // older than the last one this reader saw.
                    let Ok(QueryValue::U64(point)) = handle.lookup("v", loads % 64) else {
                        panic!("epoch 0 is committed")
                    };
                    assert!(point >= last, "a pinned read went back in time");
                    last = point;
                    let top = handle
                        .topk("v", 3, loads.is_multiple_of(2))
                        .expect("committed");
                    let ids: Vec<u64> = top.iter().map(|&(vertex, _)| vertex).collect();
                    assert_eq!(ids, vec![0, 1, 2], "ties go to the lower ids");
                    let QueryValue::U64(best) = top[0].1 else {
                        panic!("a u64 series")
                    };
                    assert!(
                        top.iter().all(|&(_, value)| value == QueryValue::U64(best)),
                        "torn top-k: {top:?}"
                    );
                    assert!(best >= last, "a pinned top-k went back in time");
                    last = best;
                    loads += 1;
                    total_loads.fetch_add(1, Ordering::SeqCst);
                    if loads == 1 {
                        all_reading.wait();
                    }
                }
                loads
            })
        })
        .collect();
    all_reading.wait();
    for epoch in 1..=500u64 {
        let before = total_loads.load(Ordering::SeqCst);
        commit_uniform(&store, epoch);
        while total_loads.load(Ordering::SeqCst) == before {
            thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers made progress");
    let last = store.handle().snapshot().unwrap();
    assert_eq!(uniform_values(&last), vec![500u64; 64]);
}

#[test]
fn writers_are_serialized_and_last_store_wins() {
    let store = SnapshotStore::with_registry(&MetricsRegistry::new());
    thread::scope(|scope| {
        for w in 0..4u64 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..100u64 {
                    store.commit(w * 1000 + i, 0, None);
                }
            });
        }
    });
    // One of the writers' final values survived (no corruption).
    let last = store.handle().snapshot().unwrap().epoch;
    assert!((0..4).any(|w| last == w * 1000 + 99), "last = {last}");
}
