//! Crash-at-any-point recovery (the PR 10 robustness core).
//!
//! One deterministic evolving-graph pipeline — churned R-MAT stream,
//! dynamic EBV partitioner, incremental `apply_mutations` epochs,
//! warm-carried CC labels and SSSP distances published to the query plane
//! — runs twice over the same durable state directory:
//!
//! 1. a **reference** run with a disarmed [`Failpoint`], which completes
//!    and records how many durable units (bytes + renames) the whole run
//!    writes;
//! 2. a **crashed** run armed to fail after `k` units, for `k` sampled
//!    across `[0, total)` — the write-ahead log or a checkpoint is torn at
//!    an arbitrary byte — followed by a recovery run that reopens the
//!    directory, resumes the world (`RecoveredState::resume`: newest valid
//!    checkpoint, WAL suffix replayed through the same epoch body the
//!    live loop runs), fast-forwards the event stream by the recovered
//!    `events_seen`, and continues to completion.
//!
//! The recovered run must be **bit-identical** to the reference: graph
//! structure (including the routing table), epoch counter, warm CC/SSSP
//! value vectors, partitioner surviving set / metrics / snapshot, and the
//! served query-plane snapshot. Anything less means a crash window exists
//! in which durability silently forks the lineage.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
    UNREACHABLE,
};
use ebv_bsp::{BspEngine, DistributedGraph, MutationBatch, MutationStats, RunOptions};
use ebv_dynamic::{ChurnStream, DynamicError, EventPipeline, EventSource};
use ebv_graph::{Edge, RmatEdgeStream, VertexId};
use ebv_obs::NoopRecorder;
use ebv_partition::{EbvPartitioner, PartitionId, PartitionMetrics, PartitionResult, StreamConfig};
use ebv_serve::{GraphSnapshot, SeriesData, SnapshotStore};
use ebv_state::{DurableState, Failpoint, ResumeError, SeriesValues, StateError};

const SCALE: u32 = 7; // 128 vertices
const EDGES: usize = 700;
const WORKERS: usize = 4;
const CHURN: f64 = 0.25;
const BATCH: usize = 64; // ~15 applied epochs per run
const SEED: u64 = 20_210_707;
const SOURCE: u64 = 0;
const CHECKPOINT_EVERY: usize = 3;

/// Everything the recovered run must reproduce bit-for-bit.
struct Final {
    graph: DistributedGraph,
    labels: Vec<u64>,
    distances: Vec<u64>,
    surviving: Vec<(Edge, PartitionId)>,
    metrics: PartitionMetrics,
    snapshot: PartitionResult,
    served_epoch: u64,
    served_cc: Vec<u64>,
    served_sssp: Vec<u64>,
    events_total: u64,
}

fn state_err(err: StateError) -> DynamicError {
    DynamicError::Durability(err.into())
}

fn served_u64(snapshot: &GraphSnapshot, name: &str) -> Vec<u64> {
    match &snapshot.series(name).expect("series published").data {
        SeriesData::U64 { values, .. } => values.clone(),
        other => panic!("{name} must serve as u64, got {other:?}"),
    }
}

/// Runs the full pipeline over `dir`: recover whatever the directory
/// holds, continue to the end of the event stream, return the final
/// state. With an armed failpoint this returns the injected-crash error
/// at some arbitrary point instead.
fn run_to_completion(dir: &Path, failpoint: Failpoint) -> Result<Final, DynamicError> {
    let engine = BspEngine::sequential();
    let source = VertexId::new(SOURCE);
    let (store, recovered) =
        DurableState::open_with_failpoint(dir, CHECKPOINT_EVERY, failpoint).map_err(state_err)?;

    let stream = RmatEdgeStream::new(SCALE, EDGES).with_seed(SEED);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, WORKERS))
        .expect("partitioner config");
    let empty = DistributedGraph::build_streaming(WORKERS, Some(1 << SCALE), Vec::new())
        .expect("empty distribution");

    // Warm seeds: the checkpointed series, or (fresh start / WAL-only
    // recovery) the cold values of the empty distribution — exactly what
    // the reference run started from.
    let mut labels = match recovered.series_u64("cc").map_err(state_err)? {
        Some(labels) => labels,
        None => {
            engine
                .run(&empty, &ConnectedComponents::new())
                .expect("cold CC")
                .values
        }
    };
    let mut distances = match recovered.series_u64("sssp").map_err(state_err)? {
        Some(distances) => distances,
        None => {
            engine
                .run(&empty, &SingleSourceShortestPath::new(source))
                .expect("cold SSSP")
                .values
        }
    };

    // The one epoch body: `resume` replays the WAL suffix through it, then
    // the durable loop runs it for every new epoch.
    let snapshots = SnapshotStore::new();
    let mut on_epoch = |dg: &DistributedGraph,
                        batch: &MutationBatch,
                        _: PartitionMetrics,
                        _: MutationStats|
     -> Result<(), DynamicError> {
        let cc_program = IncrementalConnectedComponents::from_batch(&labels, batch);
        labels = engine
            .run_opts(
                dg,
                &cc_program,
                RunOptions::new()
                    .warm_seed(&labels)
                    .publish_to(&snapshots.series_sink::<u64>("cc")),
            )?
            .values;
        let sssp_program = IncrementalSssp::from_distributed(source, dg, &distances, batch);
        distances = engine
            .run_opts(
                dg,
                &sssp_program,
                RunOptions::new().warm_seed(&distances).publish_to(
                    &snapshots
                        .series_sink::<u64>("sssp")
                        .with_absent(UNREACHABLE),
                ),
            )?
            .values;
        store.stage_series("cc", SeriesValues::U64(labels.clone()));
        store.stage_series("sssp", SeriesValues::U64(distances.clone()));
        Ok(())
    };
    let mut distributed = recovered
        .resume(empty, &mut partitioner, Some(&snapshots), &mut on_epoch)
        .map_err(|err| match err {
            ResumeError::State(err) => state_err(err),
            ResumeError::Epoch(err) => err,
        })?;

    // Fast-forward the deterministic event stream past everything the
    // recovered state already absorbed, then continue durably.
    let mut churn = ChurnStream::new(RmatEdgeStream::new(SCALE, EDGES).with_seed(SEED), CHURN)
        .expect("churn config")
        .with_seed(SEED);
    for _ in 0..recovered.events_seen() {
        churn
            .next_event()
            .expect("recovered position lies within the stream")?;
    }

    let events_start = recovered.events_seen();
    let report = EventPipeline::new(BATCH).run_applied_durable(
        churn,
        &mut partitioner,
        &mut distributed,
        &snapshots,
        &store,
        events_start,
        &mut on_epoch,
        &NoopRecorder,
    )?;

    let served = snapshots.handle().snapshot().expect("an epoch was served");
    Ok(Final {
        served_epoch: served.epoch,
        served_cc: served_u64(&served, "cc"),
        served_sssp: served_u64(&served, "sssp"),
        labels,
        distances,
        surviving: partitioner.surviving().collect(),
        metrics: partitioner.metrics(),
        snapshot: partitioner.snapshot().expect("snapshot"),
        events_total: events_start + (report.total_inserts() + report.total_deletes()) as u64,
        graph: distributed,
    })
}

/// The reference run and the total durable unit count, computed once.
fn reference() -> &'static (Final, u64) {
    static REFERENCE: OnceLock<(Final, u64)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = fresh_dir("reference");
        let failpoint = Failpoint::disarmed();
        let final_state =
            run_to_completion(&dir, failpoint.clone()).expect("the reference run completes");
        let total = failpoint.units_used();
        assert!(
            final_state.graph.epoch() >= 10,
            "the scenario must churn at least 10 applied epochs, got {}",
            final_state.graph.epoch()
        );
        let _ = std::fs::remove_dir_all(&dir);
        (final_state, total)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ebv-crash-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Crashes a run after `budget` durable units, recovers from the torn
/// directory, and asserts the completed recovery equals the reference.
fn crash_recover_and_compare(budget: u64) {
    let (reference, total) = reference();
    assert!(budget < *total);
    let dir = fresh_dir("run");

    let crashed = run_to_completion(&dir, Failpoint::crash_after(budget));
    match crashed {
        Err(DynamicError::Durability(err)) => {
            assert!(
                err.to_string().contains("injected crash"),
                "budget {budget}: unexpected durability failure {err}"
            );
        }
        Err(other) => panic!("budget {budget}: wrong error family {other}"),
        Ok(_) => panic!("budget {budget} < total {total} must crash"),
    }

    let recovered = run_to_completion(&dir, Failpoint::disarmed())
        .unwrap_or_else(|err| panic!("budget {budget}: recovery failed: {err}"));

    assert!(
        recovered.graph.same_structure(&reference.graph),
        "budget {budget}: recovered graph structure diverged"
    );
    assert_eq!(
        recovered.graph.epoch(),
        reference.graph.epoch(),
        "budget {budget}: epoch counter diverged"
    );
    assert_eq!(
        recovered.labels, reference.labels,
        "budget {budget}: warm CC labels diverged"
    );
    assert_eq!(
        recovered.distances, reference.distances,
        "budget {budget}: warm SSSP distances diverged"
    );
    assert_eq!(
        recovered.surviving, reference.surviving,
        "budget {budget}: partitioner surviving set diverged"
    );
    assert_eq!(
        recovered.metrics, reference.metrics,
        "budget {budget}: partitioner metrics diverged"
    );
    assert_eq!(
        recovered.snapshot, reference.snapshot,
        "budget {budget}: partitioner snapshot diverged"
    );
    assert_eq!(
        recovered.served_epoch, reference.served_epoch,
        "budget {budget}: served snapshot epoch diverged"
    );
    assert_eq!(
        recovered.served_cc, reference.served_cc,
        "budget {budget}: served CC series diverged"
    );
    assert_eq!(
        recovered.served_sssp, reference.served_sssp,
        "budget {budget}: served SSSP series diverged"
    );
    assert_eq!(
        recovered.events_total, reference.events_total,
        "budget {budget}: cumulative event count diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash after an arbitrary durable unit anywhere in the run; the
    /// recovered run is bit-identical to the never-crashed reference.
    #[test]
    fn recovery_is_bit_identical_at_arbitrary_crash_points(fraction in 0.0f64..1.0) {
        let (_, total) = reference();
        let budget = ((fraction * *total as f64) as u64).min(total - 1);
        crash_recover_and_compare(budget);
    }
}

/// The boundary crash points the uniform sample is unlikely to hit: the
/// very first durable byte (nothing survives; recovery is a full re-run)
/// and the very last unit (everything but the final write survives).
#[test]
fn recovery_is_bit_identical_at_the_boundaries() {
    let (_, total) = reference();
    crash_recover_and_compare(0);
    crash_recover_and_compare(total - 1);
}

/// A crash mid-run whose recovery itself crashes, recovered again: the
/// double-crash lineage still converges to the reference.
#[test]
fn recovery_survives_a_second_crash() {
    let (reference_final, total) = reference();
    let dir = fresh_dir("double");
    // First crash roughly mid-run, second shortly after resume.
    let first = total / 2;
    assert!(matches!(
        run_to_completion(&dir, Failpoint::crash_after(first)),
        Err(DynamicError::Durability(_))
    ));
    let second = (total / 16).max(1);
    assert!(matches!(
        run_to_completion(&dir, Failpoint::crash_after(second)),
        Err(DynamicError::Durability(_))
    ));
    let recovered = run_to_completion(&dir, Failpoint::disarmed()).expect("third run completes");
    assert!(recovered.graph.same_structure(&reference_final.graph));
    assert_eq!(recovered.graph.epoch(), reference_final.graph.epoch());
    assert_eq!(recovered.labels, reference_final.labels);
    assert_eq!(recovered.distances, reference_final.distances);
    assert_eq!(recovered.events_total, reference_final.events_total);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold CC over `dg`, staged into `snapshots` as series `cc`.
fn stage_cc(engine: &BspEngine, dg: &DistributedGraph, snapshots: &SnapshotStore) -> Vec<u64> {
    engine
        .run_opts(
            dg,
            &ConnectedComponents::new(),
            RunOptions::new().publish_to(&snapshots.series_sink::<u64>("cc")),
        )
        .expect("CC")
        .values
}

/// A failed epoch's batch stays in the lineage. The durable loop logs a
/// batch before it applies it, so when `on_epoch` fails at epoch 3 the run
/// returns the error, readers stay on epoch 2 and the WAL holds frame 3.
/// Recovery replays frame 3, re-runs its programs and commits it, serving
/// what a run that never failed computed at epoch 3.
#[test]
fn a_failed_epoch_stays_logged_and_recovery_commits_it() {
    use ebv_dynamic::EpochOptions;
    use ebv_obs::MetricsRegistry;
    use ebv_serve::Adjacency;
    use std::collections::BTreeMap;

    const FAILING: usize = 3;
    let engine = BspEngine::sequential();
    let stream = || RmatEdgeStream::new(SCALE, EDGES).with_seed(SEED);
    let churn = || {
        ChurnStream::new(stream(), CHURN)
            .expect("churn config")
            .with_seed(SEED)
    };
    let partitioner = || {
        EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream(), WORKERS))
            .expect("partitioner config")
    };
    let empty = || {
        DistributedGraph::build_streaming(WORKERS, Some(1 << SCALE), Vec::new())
            .expect("empty distribution")
    };
    let store = || SnapshotStore::with_registry(&MetricsRegistry::new());

    // The run that never fails, kept at the epochs either side of the
    // failure.
    let mut kept = BTreeMap::new();
    let reference = store();
    EventPipeline::new(BATCH)
        .run_applied_opts(
            churn(),
            &mut partitioner(),
            &mut empty(),
            |dg, _, _, _| {
                if (FAILING - 1..=FAILING).contains(&dg.epoch()) {
                    kept.insert(dg.epoch(), (dg.clone(), stage_cc(&engine, dg, &reference)));
                }
                Ok(())
            },
            EpochOptions::new(),
        )
        .expect("the reference run completes");
    assert!(kept.contains_key(&FAILING));

    // The same run, durable and served, with epoch 3's programs failing
    // after they staged their values.
    let dir = fresh_dir("failed-epoch");
    let (durable, recovered) = DurableState::open(&dir, 1_000).expect("open");
    assert!(recovered.is_empty());
    let live = store();
    live.serve_adjacency(true);
    let readers = live.handle();
    let mut distributed = empty();
    let err = EventPipeline::new(BATCH)
        .run_applied_opts(
            churn(),
            &mut partitioner(),
            &mut distributed,
            |dg, _, _, _| {
                stage_cc(&engine, dg, &live);
                if dg.epoch() == FAILING {
                    return Err(DynamicError::InvalidParameter {
                        parameter: "on_epoch",
                        message: "program failed".to_string(),
                    });
                }
                Ok(())
            },
            EpochOptions::new().committer(&live).durability(&durable, 0),
        )
        .expect_err("epoch 3's programs fail");
    assert!(err.to_string().contains("program failed"), "{err}");
    assert_eq!(distributed.epoch(), FAILING, "the failed batch was applied");
    let served = readers.snapshot().expect("epochs 1 and 2 were committed");
    let (graph, labels) = &kept[&(FAILING - 1)];
    assert_eq!(served.epoch, FAILING as u64 - 1);
    assert_eq!(served_u64(&served, "cc"), *labels);
    let adjacency = Adjacency::from_distributed(graph);
    for vertex in 0..graph.num_vertices() {
        assert_eq!(
            served.neighbors(vertex as u64).unwrap(),
            adjacency.neighbors(vertex),
            "epoch 3's prepared adjacency was dropped unpublished"
        );
    }
    drop(durable);

    // Recovery replays the logged frame through the same body, now
    // succeeding, and commits epoch 3.
    let (_durable, recovered) = DurableState::open(&dir, 1_000).expect("reopen");
    let logged: Vec<u64> = recovered.frames.iter().map(|frame| frame.epoch).collect();
    assert_eq!(logged, vec![1, 2, 3], "the failed epoch's frame is logged");
    let snapshots = store();
    let resumed = recovered
        .resume(
            empty(),
            &mut partitioner(),
            Some(&snapshots),
            |dg, _, _, _| {
                stage_cc(&engine, dg, &snapshots);
                Ok::<_, std::convert::Infallible>(())
            },
        )
        .expect("recovery replays the failed epoch");
    let (graph, labels) = &kept[&FAILING];
    assert!(resumed.same_structure(graph));
    let served = snapshots.handle().snapshot().expect("recovery commits");
    assert_eq!(served.epoch, FAILING as u64);
    assert_eq!(served_u64(&served, "cc"), *labels);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rebalance is just another durable epoch: churn over duplicated edges,
/// checkpoint, skew the load, rebalance with the migration batch logged as
/// a WAL frame, run a delete-heavy epoch over the duplicates, then restart
/// from disk. Every layer takes the same copy on a move, so the resumed
/// world equals the live one — structure, survivor order, and the
/// partition every later delete takes its copy from.
#[test]
fn a_logged_rebalance_recovers() {
    use ebv_bsp::DurabilityHook;
    use ebv_dynamic::batch_from_plan;
    use ebv_partition::{DynamicPartitioner, RebalanceConfig, StreamConfig};

    const P: usize = 4;
    const UNIVERSE: u64 = 20;
    let fresh = || -> DynamicPartitioner {
        EbvPartitioner::new()
            .dynamic(StreamConfig::new(P).with_expected_vertices(UNIVERSE as usize))
            .expect("partitioner config")
    };
    let empty = || {
        DistributedGraph::build_streaming(P, Some(UNIVERSE as usize), Vec::new())
            .expect("empty distribution")
    };
    let dir = fresh_dir("rebalance");
    let (store, _) = DurableState::open(&dir, 1_000).expect("open");
    let mut partitioner = fresh();
    let mut distributed = empty();
    let mut events = 0u64;
    // Log, then apply: the durable loop's order.
    let mut durable_epoch = |distributed: &mut DistributedGraph, batch: &MutationBatch| {
        events += batch.len() as u64;
        store
            .log_batch(distributed.epoch() as u64 + 1, events, batch)
            .expect("log");
        distributed.apply_mutations(batch).expect("apply");
        events
    };
    let mut lcg = 0x0005_DEEC_E66D_u64;
    let mut next = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % bound
    };

    // Churn over a 20-vertex universe, so most edges hold several copies.
    let mut events_seen = 0;
    for _ in 0..3 {
        let mut batch = MutationBatch::new();
        for _ in 0..150 {
            let edge = Edge::from((next(UNIVERSE), next(UNIVERSE / 2)));
            if next(10) < 3 {
                if let Ok(part) = partitioner.delete(edge) {
                    batch.record_delete(edge, part);
                }
            } else {
                batch.record_insert(edge, partitioner.insert(edge));
            }
        }
        events_seen = durable_epoch(&mut distributed, &batch);
    }
    store
        .checkpoint_now(&distributed, &partitioner, events_seen)
        .expect("checkpoint");

    // Skew the load onto partition 0, then rebalance — load phase and
    // consolidation sweep both — logging the migrations as one frame.
    let mut batch = MutationBatch::new();
    let victims: Vec<Edge> = partitioner
        .surviving()
        .filter(|(_, part)| part.index() != 0)
        .map(|(edge, _)| edge)
        .collect();
    for &edge in &victims[..victims.len() * 3 / 4] {
        batch.record_delete(edge, partitioner.delete(edge).expect("live"));
    }
    durable_epoch(&mut distributed, &batch);
    let plan = partitioner
        .rebalance(
            &RebalanceConfig::new()
                .with_max_edge_imbalance(1.25)
                .with_target_edge_imbalance(1.05)
                .with_max_replication_factor(1.0),
        )
        .expect("rebalance");
    assert!(plan.len() >= 20, "the skew migrates copies: {}", plan.len());
    durable_epoch(&mut distributed, &batch_from_plan(&plan));

    // Delete-heavy: every other surviving copy of each duplicated edge.
    let survivors: Vec<Edge> = partitioner.surviving().map(|(edge, _)| edge).collect();
    let duplicated: Vec<Edge> = survivors
        .iter()
        .copied()
        .filter(|edge| survivors.iter().filter(|e| *e == edge).count() >= 2)
        .step_by(2)
        .collect();
    assert!(duplicated.len() >= 10, "duplicates: {}", duplicated.len());
    let mut batch = MutationBatch::new();
    for &edge in &duplicated {
        batch.record_delete(edge, partitioner.delete(edge).expect("live"));
    }
    batch.record_insert(duplicated[0], partitioner.insert(duplicated[0]));
    durable_epoch(&mut distributed, &batch);
    drop(store);

    let (_store, recovered) = DurableState::open(&dir, 1_000).expect("reopen");
    assert_eq!(recovered.frames.len(), 3, "skew, rebalance, deletes");
    let mut restored = fresh();
    let mut resumed = recovered
        .resume(empty(), &mut restored, None, |_, _, _, _| {
            Ok::<_, std::convert::Infallible>(())
        })
        .expect("a logged rebalance replays");
    assert!(resumed.same_structure(&distributed));
    assert!(restored.surviving().eq(partitioner.surviving()));

    // Both sides keep deleting the same copies, down to the last one.
    let mut batch = MutationBatch::new();
    for (edge, _) in partitioner.surviving().collect::<Vec<_>>() {
        let live = partitioner.delete(edge).expect("live");
        assert_eq!(restored.delete(edge).expect("restored"), live, "{edge:?}");
        batch.record_delete(edge, live);
    }
    distributed
        .apply_mutations(&batch)
        .expect("live deletes apply");
    resumed
        .apply_mutations(&batch)
        .expect("resumed deletes apply");
    assert!(resumed.same_structure(&distributed));
    let _ = std::fs::remove_dir_all(&dir);
}
