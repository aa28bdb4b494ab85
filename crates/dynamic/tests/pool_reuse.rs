//! One pooled [`BspEngine`] and its clones across churned epochs: each run
//! opens its own lanes, so an engine kept across epochs, a clone of it and
//! a fresh sequential engine give the same values and counters, epoch
//! after epoch.

use ebv_algorithms::{ConnectedComponents, IncrementalConnectedComponents};
use ebv_bsp::{BspEngine, DistributedGraph, ExecutionMode, RunOptions};
use ebv_dynamic::{ChurnStream, EventPipeline};
use ebv_graph::RmatEdgeStream;
use ebv_partition::{EbvPartitioner, StreamConfig};

/// Ten churned epochs of warm connected components, alternating between a
/// pooled engine and its clone, each equal to the same warm run on a
/// sequential engine in values and stats; repeated cold runs equal a cold
/// sequential run.
#[test]
fn ten_epochs_alternating_an_engine_and_its_clone_equal_sequential() {
    let p = 4usize;
    let scale = 6u32;
    let threads = 3usize;
    let stream = RmatEdgeStream::new(scale, 800).with_seed(42);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, p))
        .unwrap();
    let mut distributed =
        DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();

    let engine = BspEngine::pooled(threads);
    assert_eq!(engine.mode(), ExecutionMode::Pooled(threads));
    let sequential = BspEngine::sequential();
    let mut labels = engine
        .run(&distributed, &ConnectedComponents::new())
        .unwrap()
        .values;

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
                let options = RunOptions::new().warm_seed(&labels);
                let warm = runner.run_opts(dg, &cc, options).unwrap();
                let reference = sequential.run_opts(dg, &cc, options).unwrap();
                assert_eq!(warm.values, reference.values, "epoch {epochs}");
                assert_eq!(warm.stats, reference.stats, "epoch {epochs}");
                labels = warm.values;
                epochs += 1;
                Ok(())
            },
        )
        .unwrap();
    assert!(epochs >= 10, "expected at least 10 epochs, got {epochs}");

    // Repeated cold runs on the original: still the right answer,
    // bit-identical to a cold sequential run over the final distribution.
    let seq = sequential
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
}
