//! Pool persistence across epochs (PR 8 satellite): the shared worker pool
//! behind `ExecutionMode::Threaded` is spawned once and parked between
//! supersteps *and* between mutation epochs — warm epochs are spawn-free.
//!
//! This lives in its own integration binary on purpose: it asserts on the
//! process-wide [`ebv_bsp::pool_threads_spawned`] counter, which would race
//! with other tests creating run-local pools in the same process.

use ebv_algorithms::{ConnectedComponents, IncrementalConnectedComponents};
use ebv_bsp::{shared_worker_pool, BspEngine, DistributedGraph, RunOptions};
use ebv_dynamic::{ChurnStream, EventPipeline};
use ebv_partition::EbvPartitioner;
use ebv_stream::{EdgeSource, RmatEdgeStream};

/// Ten churned epochs of warm connected components reuse the exact same
/// pool threads: the spawn counter moves only when the shared pool is
/// first touched, and never again.
#[test]
fn ten_epochs_reuse_the_same_pool_threads() {
    let p = 4usize;
    let scale = 6u32;
    let stream = RmatEdgeStream::new(scale, 800).with_seed(42);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(stream.stream_config(p))
        .unwrap();
    let mut distributed =
        DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();

    let engine = BspEngine::threaded();
    let mut labels = engine
        .run(&distributed, &ConnectedComponents::new())
        .unwrap()
        .values;
    let spawned_after_first = ebv_bsp::pool_threads_spawned();
    assert_eq!(
        spawned_after_first,
        shared_worker_pool().threads() as u64,
        "the shared pool spawns exactly its configured thread count"
    );

    // Warm epochs over a churned stream: zero additional spawns.
    let churned = ChurnStream::new(stream, 0.3).unwrap().with_seed(43);
    let mut epochs = 0usize;
    EventPipeline::new(64)
        .run_applied(
            churned,
            &mut partitioner,
            &mut distributed,
            |dg, batch, _, _| {
                let cc = IncrementalConnectedComponents::from_batch(&labels, batch);
                labels = engine
                    .run_opts(dg, &cc, RunOptions::new().warm_seed(&labels))
                    .unwrap()
                    .values;
                epochs += 1;
                assert_eq!(
                    ebv_bsp::pool_threads_spawned(),
                    spawned_after_first,
                    "epoch {epochs} spawned new threads"
                );
                Ok(())
            },
        )
        .unwrap();
    assert!(epochs >= 10, "expected at least 10 epochs, got {epochs}");

    // The warm runs still compute the right thing: bit-identical to a
    // cold sequential run over the final distribution.
    let seq = BspEngine::sequential()
        .run(&distributed, &ConnectedComponents::new())
        .unwrap();
    assert_eq!(labels, seq.values);
}
