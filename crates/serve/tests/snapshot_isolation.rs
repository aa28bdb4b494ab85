//! The PR 9 acceptance property: **snapshot isolation at epoch
//! granularity**. Readers hammering a [`QueryHandle`] while the committing
//! `EventPipeline::run_applied_opts` loop churns the graph through ≥10
//! applied epochs must only ever observe *complete* epoch-N value sets —
//! for any observed epoch tag, every served value is bit-identical to the
//! values the engine computed for exactly that epoch, and the observed
//! epoch sequence is monotone per reader (a flip never goes backwards).
//!
//! The harness records each epoch's expected CC labels in `on_epoch`,
//! *before* the pipeline commits the epoch (commit happens after
//! `on_epoch` returns `Ok`), so by the time any reader can see epoch N
//! its expected values are already on file — a snapshot that mixes two
//! epochs' values, or leaks a half-staged series, fails the comparison.
//! The store serves adjacency too, so every epoch's prepare runs beside
//! the CC program and its commit publishes what that prepare derived.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use proptest::prelude::*;

use ebv_algorithms::ConnectedComponents;
use ebv_bsp::{BspEngine, DistributedGraph, RunOptions};
use ebv_dynamic::{ChurnStream, EpochOptions, EventPipeline};
use ebv_graph::RmatEdgeStream;
use ebv_partition::{EbvPartitioner, StreamConfig};
use ebv_serve::{Adjacency, QueryError, SeriesData, SnapshotStore};

/// One churned pipeline run publishing CC labels per epoch, with `readers`
/// threads validating every snapshot they can observe against the recorded
/// per-epoch expectation.
fn run_churned_epochs(scale: u32, num_edges: usize, seed: u64, churn: f64, batch: usize) {
    let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = DistributedGraph::build_streaming(4, None, Vec::new()).unwrap();
    let churned = ChurnStream::new(stream, churn)
        .unwrap()
        .with_seed(seed ^ 0x9e37);

    let registry = ebv_obs::MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    // Served adjacency makes every commit publish what its prepare derived
    // beside the epoch's programs.
    store.serve_adjacency(true);
    let handle = store.handle();
    let engine = BspEngine::sequential();

    // epoch → the exact CC labels the engine published for that epoch.
    let expected: Arc<Mutex<HashMap<u64, Vec<u64>>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let handle = handle.clone();
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    match handle.snapshot() {
                        Err(QueryError::NotReady) => {}
                        Err(other) => panic!("unexpected read error: {other}"),
                        Ok(snapshot) => {
                            assert!(
                                snapshot.epoch >= last_epoch,
                                "epoch went backwards: {} after {last_epoch}",
                                snapshot.epoch
                            );
                            last_epoch = snapshot.epoch;
                            let series = snapshot
                                .series("cc")
                                .unwrap_or_else(|| panic!("epoch {} lost cc", snapshot.epoch));
                            let SeriesData::U64 { values, .. } = &series.data else {
                                panic!("cc must be a u64 series");
                            };
                            let guard = expected.lock().unwrap();
                            let want = guard.get(&snapshot.epoch).unwrap_or_else(|| {
                                panic!("epoch {} visible before it was recorded", snapshot.epoch)
                            });
                            assert_eq!(
                                values, want,
                                "epoch {}: served values are not the epoch's values",
                                snapshot.epoch
                            );
                            observed += 1;
                        }
                    }
                    if done {
                        return (last_epoch, observed);
                    }
                    thread::yield_now();
                }
            })
        })
        .collect();

    let pipeline_result = EventPipeline::new(batch).run_applied_opts(
        churned,
        &mut partitioner,
        &mut distributed,
        |dg, batch, _, _| {
            if batch.is_empty() {
                return Ok(());
            }
            let outcome = engine
                .run_opts(
                    dg,
                    &ConnectedComponents::new(),
                    RunOptions::new().publish_to(&store.series_sink::<u64>("cc")),
                )
                .unwrap();
            expected
                .lock()
                .unwrap()
                .insert(dg.epoch() as u64, outcome.values);
            Ok(())
        },
        EpochOptions::new().committer(&store),
    );
    stop.store(true, Ordering::Relaxed);
    let reader_results: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    pipeline_result.unwrap();

    let epochs = distributed.epoch() as u64;
    assert!(epochs >= 10, "need ≥10 churned epochs, got {epochs}");

    // Post-flip determinism: the final published snapshot is bit-identical
    // to the final epoch's recorded values.
    let final_snapshot = handle.snapshot().unwrap();
    assert_eq!(final_snapshot.epoch, epochs);
    let SeriesData::U64 { values, .. } = &final_snapshot.series("cc").unwrap().data else {
        panic!("cc must be a u64 series");
    };
    assert_eq!(values, &expected.lock().unwrap()[&epochs]);
    // Every commit published its epoch's prepared adjacency, and the store
    // serves the final graph's lists.
    let counter = |name: &'static str| registry.counter(name).get();
    assert_eq!(
        counter("ebv_query_adjacency_patches_total")
            + counter("ebv_query_adjacency_rebuilds_total"),
        epochs,
        "one derivation per committed epoch"
    );
    let rebuilt = Adjacency::from_distributed(&distributed);
    for vertex in 0..distributed.num_vertices() {
        assert_eq!(
            final_snapshot.neighbors(vertex as u64).unwrap(),
            rebuilt.neighbors(vertex)
        );
    }
    for (last_epoch, _) in reader_results {
        assert!(last_epoch <= epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent readers during churned epoch flips only ever observe
    /// complete, bit-identical epoch-N value sets.
    #[test]
    fn readers_only_observe_complete_epoch_value_sets(
        scale in 7u32..9,
        num_edges in 2_400usize..4_000,
        seed in 0u64..1_000,
        churn in 0.05f64..0.3,
    ) {
        // batch 200 over ≥2400 events → ≥12 batches; churn keeps most
        // batches non-empty, comfortably clearing the 10-epoch floor.
        run_churned_epochs(scale, num_edges, seed, churn, 200);
    }
}

/// A deterministic always-on instance of the property, so the acceptance
/// run does not depend on proptest's seeding.
#[test]
fn ten_churned_epochs_serve_isolated_snapshots() {
    run_churned_epochs(8, 3_000, 42, 0.2, 200);
}
