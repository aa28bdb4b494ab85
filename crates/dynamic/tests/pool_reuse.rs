//! Pool ownership and persistence: a pooled [`BspEngine`] spawns its
//! threads once, at construction, and every run of that engine or of its
//! clones — across supersteps, cold runs *and* mutation epochs — reuses
//! them. Warm epochs are spawn-free for any driver that keeps its engine.
//!
//! This lives in its own single-test integration binary on purpose: it
//! asserts on the process-wide [`ebv_bsp::pool_threads_spawned`] counter,
//! which would race with other tests creating engines in the same process.

use ebv_algorithms::{ConnectedComponents, IncrementalConnectedComponents};
use ebv_bsp::{pool_threads_spawned, BspEngine, DistributedGraph, ExecutionMode, RunOptions};
use ebv_dynamic::{ChurnStream, EventPipeline};
use ebv_partition::EbvPartitioner;
use ebv_stream::{EdgeSource, RmatEdgeStream};

/// `pooled(n)` raises the spawn counter by exactly `n`; ten churned epochs
/// of warm connected components, clones of the engine and repeated cold
/// runs never move it again.
#[test]
fn ten_epochs_reuse_the_same_pool_threads() {
    let p = 4usize;
    let scale = 6u32;
    let threads = 3usize;
    let stream = RmatEdgeStream::new(scale, 800).with_seed(42);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(stream.stream_config(p))
        .unwrap();
    let mut distributed =
        DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();

    let before = pool_threads_spawned();
    let engine = BspEngine::pooled(threads);
    let spawned = pool_threads_spawned();
    assert_eq!(
        spawned,
        before + threads as u64,
        "pooled(n) spawns exactly n threads, at construction"
    );
    assert_eq!(engine.mode(), ExecutionMode::Pooled(threads));

    let mut labels = engine
        .run(&distributed, &ConnectedComponents::new())
        .unwrap()
        .values;
    assert_eq!(pool_threads_spawned(), spawned, "the first run spawned");

    // Warm epochs over a churned stream, alternating between the engine
    // and a clone of it: zero additional spawns.
    let clone = engine.clone();
    let churned = ChurnStream::new(stream, 0.3).unwrap().with_seed(43);
    let mut epochs = 0usize;
    EventPipeline::new(64)
        .run_applied(
            churned,
            &mut partitioner,
            &mut distributed,
            |dg, batch, _, _| {
                let cc = IncrementalConnectedComponents::from_batch(&labels, batch);
                let runner = [&engine, &clone][epochs % 2];
                labels = runner
                    .run_opts(dg, &cc, RunOptions::new().warm_seed(&labels))
                    .unwrap()
                    .values;
                epochs += 1;
                assert_eq!(
                    pool_threads_spawned(),
                    spawned,
                    "epoch {epochs} spawned new threads"
                );
                Ok(())
            },
        )
        .unwrap();
    assert!(epochs >= 10, "expected at least 10 epochs, got {epochs}");

    // Repeated cold runs, on the original after its clone is gone: still
    // the same threads, and still the right answer — bit-identical to a
    // cold sequential run over the final distribution.
    drop(clone);
    let seq = BspEngine::sequential()
        .run(&distributed, &ConnectedComponents::new())
        .unwrap();
    for _ in 0..3 {
        let cold = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap();
        assert_eq!(cold.values, seq.values);
        assert_eq!(cold.stats, seq.stats);
    }
    assert_eq!(labels, seq.values);
    assert_eq!(pool_threads_spawned(), spawned, "cold runs spawned");
}
