//! Property tests for warm-started BSP re-execution across mutation
//! epochs, over seeded churned R-MAT streams:
//!
//! 1. warm-started Connected Components
//!    ([`IncrementalConnectedComponents`] via `RunOptions::warm_seed`) is
//!    **bit-identical** to a cold [`ConnectedComponents`] run after *every*
//!    insert/delete epoch — the final labels are the per-component minimum
//!    vertex ids, a pure function of the surviving graph;
//! 2. warm-started SSSP ([`IncrementalSssp`]), through its invalidation
//!    cone, is **bit-identical** to cold runs
//!    after every churned epoch, including deletion-heavy batches that
//!    disconnect previously-settled vertices (their distances must re-settle
//!    to unreachable, never keep a stale finite value);
//! 3. the incremental epochs driving them never rebuild more workers than
//!    the distribution has.

use proptest::prelude::*;

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
    UNREACHABLE,
};
use ebv_bsp::{BspEngine, DistributedGraph, MutationBatch, RunOptions};
use ebv_dynamic::{ChurnStream, EventPipeline, InsertEvents};
use ebv_graph::{RmatEdgeStream, VertexId};
use ebv_partition::{EbvPartitioner, StreamConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm CC equals cold CC bit-for-bit after every churned epoch.
    #[test]
    fn warm_cc_is_bit_identical_across_churned_epochs(
        scale in 5u32..8,
        num_edges in 60usize..400,
        seed in 0u64..400,
        churn in 1u32..6,
        p in 2usize..6,
        batch_size in 24usize..160,
    ) {
        let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream, p))
            .unwrap();
        let mut distributed =
            DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();
        let engine = BspEngine::sequential();
        let mut labels = engine
            .run(&distributed, &ConnectedComponents::new())
            .unwrap()
            .values;

        let churned = ChurnStream::new(stream, churn as f64 / 10.0)
            .unwrap()
            .with_seed(seed + 1);
        let mut epochs = 0usize;
        EventPipeline::new(batch_size)
            .run(churned, &mut partitioner, |batch, _| {
                let program = IncrementalConnectedComponents::from_batch(&labels, batch);
                let stats = distributed.apply_mutations(batch)?;
                assert!(stats.workers_touched <= p);
                let warm = engine
                    .run_opts(&distributed, &program, RunOptions::new().warm_seed(&labels))
                    .unwrap();
                let cold = engine
                    .run(&distributed, &ConnectedComponents::new())
                    .unwrap();
                assert_eq!(
                    warm.values, cold.values,
                    "warm CC diverged at epoch {}",
                    distributed.epoch()
                );
                labels = warm.values;
                epochs += 1;
                Ok(())
            })
            .unwrap();
        prop_assert!(epochs >= 1);
        prop_assert_eq!(distributed.num_edges(), partitioner.live_edges());
    }

    /// Warm SSSP distances equal cold runs bit-for-bit after every churned
    /// epoch, from both constructors, driven through the incremental
    /// `EventPipeline::run_applied` loop.
    #[test]
    fn warm_sssp_and_bfs_equal_cold_across_churned_epochs(
        scale in 5u32..8,
        num_edges in 60usize..400,
        seed in 0u64..400,
        churn in 1u32..6,
        p in 2usize..6,
        batch_size in 24usize..160,
    ) {
        let source = VertexId::new(0);
        let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream, p))
            .unwrap();
        let mut distributed =
            DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();
        let engine = BspEngine::sequential();
        let mut distances = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap()
            .values;

        let churned = ChurnStream::new(stream, churn as f64 / 10.0)
            .unwrap()
            .with_seed(seed + 1);
        let mut epochs = 0usize;
        EventPipeline::new(batch_size)
            .run_applied(churned, &mut partitioner, &mut distributed, |dg, batch, _, stats| {
                assert!(stats.workers_touched <= p);
                // `run_applied` hands the post-mutation distribution the
                // constructor expects.
                let cone = IncrementalSssp::from_distributed(source, dg, &distances, batch);
                let cold = engine
                    .run(dg, &SingleSourceShortestPath::new(source))
                    .unwrap();
                let warm_cone = engine
                    .run_opts(dg, &cone, RunOptions::new().warm_seed(&distances))
                    .unwrap();
                assert_eq!(
                    warm_cone.values, cold.values,
                    "warm SSSP (cone) diverged at epoch {}",
                    dg.epoch()
                );
                distances = warm_cone.values;
                epochs += 1;
                Ok(())
            })
            .unwrap();
        prop_assert!(epochs >= 1);
        prop_assert_eq!(distributed.num_edges(), partitioner.live_edges());
    }

    /// Deletion-heavy batches that disconnect previously-settled vertices:
    /// after deleting every `step`-th surviving edge (step 1 = all of them)
    /// warm SSSP still equals a cold run, and every settled vertex severed
    /// from the source re-settles to unreachable instead of keeping its
    /// stale finite distance.
    #[test]
    fn deletion_heavy_batches_resettle_disconnected_vertices(
        scale in 5u32..8,
        num_edges in 60usize..300,
        seed in 0u64..400,
        p in 2usize..6,
        step in 1usize..4,
    ) {
        let source = VertexId::new(0);
        let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream, p))
            .unwrap();
        let mut distributed =
            DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();
        let engine = BspEngine::sequential();
        EventPipeline::new(64)
            .run_applied(
                InsertEvents::new(stream),
                &mut partitioner,
                &mut distributed,
                |_, _, _, _| Ok(()),
            )
            .unwrap();
        let prior_sssp = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap()
            .values;

        // One deletion-heavy batch over the survivors.
        let victims: Vec<_> = partitioner.surviving().collect();
        let mut batch = MutationBatch::new();
        for &(edge, _) in victims.iter().step_by(step) {
            batch.record_delete(edge, partitioner.delete(edge).unwrap());
        }
        distributed.apply_mutations(&batch).unwrap();
        let sssp = IncrementalSssp::from_distributed(source, &distributed, &prior_sssp, &batch);

        let warm = engine
            .run_opts(&distributed, &sssp, RunOptions::new().warm_seed(&prior_sssp))
            .unwrap();
        let cold = engine
            .run(&distributed, &SingleSourceShortestPath::new(source))
            .unwrap();
        prop_assert_eq!(&warm.values, &cold.values, "deletion-heavy warm SSSP diverged");

        if step == 1 {
            // Every edge is gone: all previously-settled vertices except the
            // source itself must have re-settled to unreachable.
            for (v, (&prior, &now)) in prior_sssp.iter().zip(&warm.values).enumerate() {
                if v as u64 != source.raw() && prior != UNREACHABLE {
                    prop_assert_eq!(now, UNREACHABLE, "vertex {} kept a stale distance", v);
                }
            }
        }
    }
}
