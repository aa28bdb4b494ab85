//! End-to-end evolving-graph pipeline: churned R-MAT mutation stream →
//! dynamic EBV (exact decremental maintenance) → **incremental**
//! `apply_mutations` epochs (only touched workers re-assemble) →
//! **warm-started** BSP re-execution (CC labels carried across epochs) →
//! imbalance-triggered rebalance, with from-scratch equality checks at
//! every stage.
//!
//! The demo exercises the subsystem's central guarantees:
//!
//! * the maintained partition metrics after arbitrary insert/delete churn
//!   are *bit-identical* to recomputing them from scratch over the
//!   surviving edges;
//! * each mutation epoch re-assembles only the workers its batch touches
//!   (reported as `touched/p` per epoch), and the incrementally mutated
//!   `DistributedGraph` equals a fresh batch build of the survivors;
//! * warm-started Connected Components carried across every epoch are
//!   *bit-identical* to a cold run, at a fraction of the cost;
//! * warm-started SSSP distances carried across the same epochs
//!   (delta-stepping-style re-activation of the precise deletion cones)
//!   are *bit-identical* to cold runs from the same source;
//! * a sliding window bounds the live edge set regardless of stream
//!   length.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example evolving_graph
//! ```
//!
//! All knobs come from the consolidated [`EnvConfig`]:
//! `EBV_MODE=sequential` runs every BSP execution on the calling thread;
//! the default (`EBV_MODE=threaded` or unset) runs the workers on as many
//! lanes as the host has available parallelism, exercising the parallel
//! two-phase message exchange end-to-end (and `pooled:<n>` caps the lanes
//! at `n`). Each execution opens its lanes and joins them before it
//! returns. Every mode produces bit-identical values and counters.
//!
//! The whole run is traced through the `ebv-obs` telemetry plane:
//! `EBV_TRACE=out.json` writes a Chrome trace-event file (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) with one span per
//! (epoch, superstep, worker, phase), `EBV_METRICS=out.prom` writes the
//! live metrics (including the per-worker `ebv_worker_phase_seconds`
//! families) in Prometheus text exposition format, and a compact snapshot
//! summary is always printed at the end. `EBV_OBS_ADDR=host:port`
//! additionally serves the run *live* over HTTP while the churn loop is
//! executing — the telemetry plane (`GET /metrics`, `/healthz`,
//! `/trace.json`, `/epochs.json`) *and* the epoch-versioned query plane
//! (`GET /query`, `/query/<series>/<vertex>`, `/topk`,
//! `/neighbors/<vertex>`) on one listener: each applied epoch's CC
//! labels and SSSP distances are published to the snapshot store and
//! flipped atomically at the epoch boundary, so reads are never
//! torn and the churn loop waits on a reader for one pointer clone at
//! most. Tracing and serving never perturb the values — every exactness
//! check holds with or without them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ebv::algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
};
use ebv::bsp::{
    BspEngine, BspOutcome, DistributedGraph, EnvConfig, MutationBatch, MutationStats, RunOptions,
};
use ebv::dynamic::{
    batch_from_plan, ChurnStream, EpochOptions, EventPipeline, EventSource, SlidingWindow,
};
use ebv::graph::{GraphBuilder, RmatEdgeStream, VertexId};
use ebv::obs::{
    telemetry_router, MetricsRegistry, ObsServer, ObsServerConfig, Phase, Recorder, SpanCtx,
    Telemetry,
};
use ebv::partition::{EbvPartitioner, PartitionMetrics, RebalanceConfig, StreamConfig};
use ebv::serve::{register_query_routes, SnapshotStore};
use ebv::state::{DurableState, RecoveredState, SeriesValues};

const SCALE: u32 = 16; // 65 536 vertices
const NUM_EDGES: usize = 400_000;
const WORKERS: usize = 8;
const CHURN: f64 = 0.25;
const BATCH: usize = 50_000;
const WINDOW: usize = 100_000;
const SEED: u64 = 20_210_707;
/// Root of the warm-carried SSSP outcome (the R-MAT hub vertex).
const SOURCE: u64 = 0;

/// The consolidated `EBV_*` environment configuration (used by CI to
/// drive the parallel exchange path end-to-end). A malformed value is
/// rejected loudly rather than silently falling back, so a misspelt mode
/// cannot fake a measurement.
fn env_config() -> EnvConfig {
    EnvConfig::from_env().unwrap_or_else(|err| panic!("{err}"))
}

fn cc(
    engine: &BspEngine,
    distributed: &DistributedGraph,
    telemetry: &Telemetry,
) -> BspOutcome<u64> {
    engine
        .run_opts(
            distributed,
            &ConnectedComponents::new(),
            RunOptions::new().recorder(telemetry),
        )
        .expect("CC converges")
}

fn fresh_build(
    partitioner: &ebv::partition::DynamicPartitioner,
) -> Result<DistributedGraph, Box<dyn std::error::Error>> {
    Ok(DistributedGraph::build_streaming(
        WORKERS,
        Some(partitioner.num_vertices()),
        partitioner.surviving(),
    )?)
}

fn assert_metrics_recompute_exactly(
    partitioner: &ebv::partition::DynamicPartitioner,
) -> Result<PartitionMetrics, Box<dyn std::error::Error>> {
    let mut builder = GraphBuilder::directed();
    for (edge, _) in partitioner.surviving() {
        builder.add_edge(edge);
    }
    builder.num_vertices(partitioner.num_vertices());
    let graph = builder.build()?;
    let recomputed = PartitionMetrics::compute(&graph, &partitioner.snapshot()?)?;
    let maintained = partitioner.metrics();
    assert!(
        maintained.edge_imbalance == recomputed.edge_imbalance
            && maintained.vertex_imbalance == recomputed.vertex_imbalance
            && maintained.replication_factor == recomputed.replication_factor,
        "maintained metrics drifted: {maintained:?} vs {recomputed:?}"
    );
    Ok(maintained)
}

/// FNV-1a over a value vector: the order-sensitive fingerprint printed in
/// the `durable summary` line, which the CI crash-recovery smoke compares
/// between a SIGKILLed-and-restarted run and a clean reference run.
fn fingerprint(values: &[u64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325_u64, |acc, value| {
        (acc ^ value).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The one engine of the run, used by every execution below — cold,
    // warm, replayed. It holds no thread: each run opens its own lanes.
    let engine = env_config().engine();
    println!(
        "evolving graph: {NUM_EDGES} R-MAT arrivals over 2^{SCALE} vertices, churn {CHURN}, \
         {WORKERS} workers, batches of {BATCH}, {:?} engine\n",
        engine.mode(),
    );

    // The telemetry plane observes the whole run: spans from every BSP
    // execution, mutation epoch and warm-start below land in one ring
    // (sized for the ~30k spans this pipeline produces), metrics in the
    // process-wide registry, applied epochs in the bounded journal. The
    // `Arc` exists only for the optional live server; the run itself works
    // through a plain shared reference.
    let telemetry_arc = Arc::new(Telemetry::with_capacity(
        MetricsRegistry::global().clone(),
        1 << 17,
    ));
    let telemetry: &Telemetry = &telemetry_arc;

    // The epoch-versioned query plane: every applied epoch below publishes
    // its CC labels and SSSP distances into this store, and
    // the pipeline's epoch commit flips them into readers' view atomically.
    // Read metrics (`ebv_query_*`) land in the same global registry as
    // everything else.
    let store = SnapshotStore::new();
    store.serve_adjacency(true);
    let query = store.handle();

    // `EBV_OBS_ADDR=host:port` serves the run live while the churn loop
    // runs: the four telemetry routes and the query plane on one listener.
    // A bad address is rejected loudly, like a bad `EBV_MODE`.
    let obs_server = env_config().obs_addr.map(|addr| {
        let obs_config = ObsServerConfig::default();
        let mut router = telemetry_router(Arc::clone(&telemetry_arc), &obs_config);
        register_query_routes(&mut router, query.clone());
        let server = ObsServer::bind_with_router(addr.as_str(), router, obs_config)
            .unwrap_or_else(|err| panic!("EBV_OBS_ADDR {addr:?} did not bind: {err}"));
        println!(
            "live observability on http://{}/ — /metrics /healthz /trace.json /epochs.json \
             /query /topk /neighbors\n",
            server.local_addr(),
        );
        server
    });

    // ── Phase 1: churned ingestion through `run_applied` — one
    //    *incremental* apply_mutations epoch per batch; CC labels and SSSP
    //    distances both *warm-started* across every epoch ──────────────────
    // `EBV_STATE_DIR` turns on the durable state plane: every applied
    // batch is write-ahead logged before it mutates the distribution, the
    // whole world (graph, partitioner inputs, warm value series) is
    // checkpointed every `EBV_CHECKPOINT_EVERY` applied epochs, and a
    // restart over the same directory recovers the newest valid
    // checkpoint plus the WAL suffix before continuing the stream.
    let (durable, recovered) = match env_config().state_dir {
        Some(dir) => {
            let (state, recovered) = DurableState::open(&dir, env_config().checkpoint_every)?;
            println!(
                "durable state plane at {} (checkpoint every {} epochs): recovered {}\n",
                dir.display(),
                env_config().checkpoint_every,
                match (recovered.checkpoint.as_ref(), recovered.frames.len()) {
                    (None, 0) => "nothing — fresh start".to_string(),
                    (checkpoint, frames) => format!(
                        "checkpoint epoch {} + {frames} WAL epoch(s)",
                        checkpoint.map(|c| c.epoch).unwrap_or(0),
                    ),
                },
            );
            (Some(state), recovered)
        }
        None => (None, RecoveredState::default()),
    };

    let stream = RmatEdgeStream::new(SCALE, NUM_EDGES).with_seed(SEED);
    let mut partitioner =
        EbvPartitioner::new().dynamic(StreamConfig::for_source(&stream, WORKERS))?;
    // Declare the generator's full vertex universe up front so the
    // distribution and the partitioner agree on it at every epoch. A
    // resume replaces this empty distribution with the recovered one.
    let empty = DistributedGraph::build_streaming(WORKERS, Some(1 << SCALE), Vec::new())?;
    let source = VertexId::new(SOURCE);

    // Warm seeds: the checkpointed value series on resume, otherwise the
    // values of the empty distribution — every vertex its own component,
    // everything but the source unreachable.
    let mut labels = match recovered.series_u64("cc")? {
        Some(labels) => labels,
        None => cc(&engine, &empty, telemetry).values,
    };
    let mut distances = match recovered.series_u64("sssp")? {
        Some(distances) => distances,
        None => {
            engine
                .run_opts(
                    &empty,
                    &SingleSourceShortestPath::new(source),
                    RunOptions::new().recorder(telemetry),
                )?
                .values
        }
    };

    // Fast-forward the deterministic event stream past everything the
    // recovered state already absorbed; WAL frame stamps count raw events
    // *before* batch cancellation, so this replays the exact draw
    // sequence.
    let events_already_seen = recovered.events_seen();
    let mut churn = ChurnStream::new(stream, CHURN)?.with_seed(SEED);
    for _ in 0..events_already_seen {
        churn
            .next_event()
            .expect("recovered position lies within the stream")?;
    }
    let mut warm_cc_time = Duration::ZERO;
    let mut warm_sssp_time = Duration::ZERO;

    println!(
        "epoch  live-edges  ins     del     rf      e-imb   touched  rebuilt  apply-ms  sssp-cone"
    );
    let mut on_epoch = |dg: &DistributedGraph,
                        batch: &MutationBatch,
                        metrics: PartitionMetrics,
                        stats: MutationStats|
     -> Result<(), ebv::dynamic::DynamicError> {
        // Incremental assembly already happened: `dg` is the
        // post-mutation distribution, only touched workers rebuilt.
        // Warm-started re-execution re-activates only the disturbed
        // region for both carried outcomes; each timed window
        // covers program construction (dirty sets, deletion cones)
        // plus the warm BSP run. The constructions — the invalidation
        // work proper — are additionally recorded as
        // `warm_invalidation` spans on the engine-side track.
        let warm_ctx = SpanCtx {
            epoch: dg.epoch() as u32,
            superstep: 0,
            worker: WORKERS as u32,
        };
        let warm_started = Instant::now();
        let span = telemetry.start();
        // Each warm run *stages* its values into the snapshot store
        // (`publish_to`); the pipeline commits them together once this
        // closure returns, so live readers flip from epoch N−1's
        // complete answers to epoch N's in one atomic step.
        let cc_program = IncrementalConnectedComponents::from_batch(&labels, batch);
        telemetry.span(span, warm_ctx, Phase::WarmInvalidation);
        labels = engine
            .run_opts(
                dg,
                &cc_program,
                RunOptions::new()
                    .recorder(telemetry)
                    .warm_seed(&labels)
                    .publish_to(&store.series_sink::<u64>("cc")),
            )?
            .values;
        warm_cc_time += warm_started.elapsed();
        let warm_started = Instant::now();
        let span = telemetry.start();
        let sssp_program = IncrementalSssp::from_distributed(source, dg, &distances, batch);
        telemetry.span(span, warm_ctx, Phase::WarmInvalidation);
        distances = engine
            .run_opts(
                dg,
                &sssp_program,
                RunOptions::new()
                    .recorder(telemetry)
                    .warm_seed(&distances)
                    .publish_to(
                        &store
                            .series_sink::<u64>("sssp")
                            .with_absent(ebv::algorithms::UNREACHABLE),
                    ),
            )?
            .values;
        warm_sssp_time += warm_started.elapsed();
        // Durable runs stage the post-epoch warm series so the next
        // cadenced checkpoint snapshots them alongside the graph and
        // a restart can re-seed the warm programs exactly.
        if let Some(state) = durable.as_ref() {
            state.stage_series("cc", SeriesValues::U64(labels.clone()));
            state.stage_series("sssp", SeriesValues::U64(distances.clone()));
        }
        println!(
            "{:>5}  {:>10}  {:>6}  {:>6}  {:.4}  {:.4}  {:>4}/{WORKERS}  {:>7}  {:>8.2}  {:>9}",
            dg.epoch(),
            dg.num_edges(),
            batch.added().len(),
            batch.removed().len(),
            metrics.replication_factor,
            metrics.edge_imbalance,
            stats.workers_touched,
            stats.edges_rebuilt,
            stats.apply_seconds * 1e3,
            sssp_program.cone_vertices(),
        );
        Ok(())
    };

    // Resume whatever the state directory held through the same epoch
    // body as the live loop: rebuild, replay the WAL suffix, commit each
    // replayed epoch to the query plane. Without durable state this hands
    // back the empty distribution untouched.
    let mut distributed = recovered.resume(empty, &mut partitioner, Some(&store), &mut on_epoch)?;

    let started = Instant::now();
    let mut stages = EpochOptions::new().recorder(telemetry).committer(&store);
    if let Some(state) = durable.as_ref() {
        stages = stages.durability(state, events_already_seen);
    }
    let report = EventPipeline::new(BATCH).run_applied_opts(
        churn,
        &mut partitioner,
        &mut distributed,
        &mut on_epoch,
        stages,
    )?;
    let elapsed = started.elapsed();
    let events = report.total_inserts() + report.total_deletes();
    println!(
        "\nprocessed {events} events ({} inserts, {} deletes) in {elapsed:.2?} \
         ({:.2e} events/s)",
        report.total_inserts(),
        report.total_deletes(),
        events as f64 / elapsed.as_secs_f64(),
    );
    assert_eq!(distributed.num_edges(), partitioner.live_edges());

    // The deterministic end-of-ingestion state in one line: the CI
    // crash-recovery smoke SIGKILLs a durable run mid-churn, restarts it,
    // and asserts this line matches a never-killed reference run.
    println!(
        "durable summary: epoch={} edges={} events={} cc={:016x} sssp={:016x}",
        distributed.epoch(),
        distributed.num_edges(),
        events_already_seen + (report.total_inserts() + report.total_deletes()) as u64,
        fingerprint(&labels),
        fingerprint(&distances),
    );

    // The query plane serves the final epoch: the committed snapshot is
    // tagged with the last applied epoch and its values are bit-identical
    // to the warm-carried outcomes above.
    let served = query.snapshot()?;
    assert_eq!(served.epoch, distributed.epoch() as u64);
    match &served.series("cc").expect("cc is published").data {
        ebv::serve::SeriesData::U64 { values, .. } => {
            assert_eq!(values, &labels, "served CC labels are the epoch's labels");
        }
        other => panic!("cc must serve as a u64 series, got {other:?}"),
    }
    let hottest = query.topk("cc", 3, true)?;
    println!(
        "query plane @ epoch {}: {} series published, top-3 cc labels {:?}",
        served.epoch,
        served.series_names().len(),
        hottest
            .iter()
            .map(|(vertex, value)| format!("v{vertex}={}", value.to_json()))
            .collect::<Vec<_>>(),
    );

    // Exactness check 1: maintained metrics recompute bit-identically.
    let maintained = assert_metrics_recompute_exactly(&partitioner)?;
    println!("maintained metrics == from-scratch recompute: {maintained}");

    // Exactness check 2: the warm-started labels carried across every epoch
    // are bit-identical to a cold CC run, which in turn equals CC on a
    // fresh batch build of the survivors.
    let cold_started = Instant::now();
    let cc_cold = cc(&engine, &distributed, telemetry);
    let cold_cc_time = cold_started.elapsed();
    assert_eq!(labels, cc_cold.values, "warm CC must be bit-identical");
    assert_eq!(
        cc_cold.values,
        cc(&engine, &fresh_build(&partitioner)?, telemetry).values
    );
    let mut components = labels.clone();
    components.sort_unstable();
    components.dedup();
    println!(
        "warm CC across {} epochs == cold CC == CC(fresh build): {} components",
        distributed.epoch(),
        components.len()
    );
    println!("cold CC counters: {}", cc_cold.stats);
    let epochs = distributed.epoch() as u32;
    println!(
        "warm CC {:.2?}/epoch (churn disturbs ~10% of the graph) vs cold {cold_cc_time:.2?}",
        warm_cc_time / epochs,
    );

    // Exactness check 3: the warm-carried SSSP distances are bit-identical
    // to a cold run on the final distribution.
    let cold_started = Instant::now();
    let sssp_cold = engine.run_opts(
        &distributed,
        &SingleSourceShortestPath::new(source),
        RunOptions::new().recorder(telemetry),
    )?;
    let sssp_cold_time = cold_started.elapsed();
    assert_eq!(
        distances, sssp_cold.values,
        "warm SSSP must be distance-equal"
    );
    let reachable = distances
        .iter()
        .filter(|&&d| d != ebv::algorithms::UNREACHABLE)
        .count();
    println!(
        "warm SSSP across {} epochs == cold SSSP ({reachable} reachable vertices): \
         {:.2?}/epoch vs cold {sssp_cold_time:.2?}\n",
        distributed.epoch(),
        warm_sssp_time / epochs,
    );

    // ── Localized epoch: mutations confined to one worker ────────────────
    // `confined_deletion_batch` picks deletions so no endpoint loses its
    // last edge (which would re-home it as an isolated vertex elsewhere):
    // the epoch re-assembles exactly one of the eight workers.
    let local_batch = ebv::dynamic::confined_deletion_batch(
        &mut partitioner,
        ebv::partition::PartitionId::new(0),
        1_000,
    )?;
    let local_program = IncrementalConnectedComponents::from_batch(&labels, &local_batch);
    let local_started = Instant::now();
    let stats = distributed.apply_mutations_with(&local_batch, telemetry)?;
    labels = engine
        .run_opts(
            &distributed,
            &local_program,
            RunOptions::new().warm_seed(&labels).recorder(telemetry),
        )?
        .values;
    assert_eq!(
        stats.workers_touched, 1,
        "single-worker batch re-assembles one worker"
    );
    println!(
        "localized epoch: {} deletions confined to worker 0 — {stats} \
         (epoch+warm CC in {:.2?})\n",
        local_batch.len(),
        local_started.elapsed(),
    );

    // ── Phase 2: one more churned epoch ──────────────────────────────────
    let extra = ChurnStream::new(
        RmatEdgeStream::new(SCALE, BATCH / 2).with_seed(SEED + 11),
        CHURN,
    )?
    .with_seed(SEED + 12);
    let mut extra_cc_program = IncrementalConnectedComponents::new();
    let cc_prior = labels.clone();
    EventPipeline::new(BATCH).run(extra, &mut partitioner, |batch, _| {
        extra_cc_program.absorb(&cc_prior, batch);
        distributed.apply_mutations_with(batch, telemetry)?;
        Ok(())
    })?;
    // Warm CC absorbed the same extra batches and still agrees.
    let warm_cc = engine.run_opts(
        &distributed,
        &extra_cc_program,
        RunOptions::new().warm_seed(&cc_prior).recorder(telemetry),
    )?;
    labels = warm_cc.values;
    assert_eq!(labels, cc(&engine, &distributed, telemetry).values);
    println!("warm CC re-validated after the extra churn epoch\n");

    // ── Phase 3: skew + one rebalance epoch ──────────────────────────────
    // Starve every partition but 0 to push the edge balance past the
    // trigger, then let the rebalancer emit a migration plan.
    let victims: Vec<_> = partitioner
        .surviving()
        .filter(|(_, part)| part.index() != 0)
        .map(|(edge, _)| edge)
        .collect();
    let mut skew_batch = ebv::bsp::MutationBatch::new();
    for edge in victims.iter().take(victims.len() * 4 / 5) {
        let part = partitioner.delete(*edge)?;
        skew_batch.record_delete(*edge, part);
    }
    let skew_program = IncrementalConnectedComponents::from_batch(&labels, &skew_batch);
    distributed.apply_mutations_with(&skew_batch, telemetry)?;

    let config = RebalanceConfig::new()
        .with_max_edge_imbalance(1.25)
        .with_target_edge_imbalance(1.05);
    let before = partitioner.metrics();
    assert!(partitioner.needs_rebalance(&config));
    let started = Instant::now();
    let plan = partitioner.rebalance(&config)?;
    let after = partitioner.metrics();
    println!(
        "rebalance epoch: edge imbalance {:.4} -> {:.4} via {} migrations ({:.2?})",
        before.edge_imbalance,
        after.edge_imbalance,
        plan.len(),
        started.elapsed(),
    );
    assert!(after.edge_imbalance <= config.max_edge_imbalance());
    assert!(!partitioner.needs_rebalance(&config));

    // Replay the migrations downstream (another incremental epoch) and
    // re-check both guarantees with a warm start across skew + migration.
    let labels_before_skew = labels.clone();
    let mut rebalance_program = skew_program;
    let migration_batch = batch_from_plan(&plan);
    rebalance_program.absorb(&labels_before_skew, &migration_batch);
    let stats = distributed.apply_mutations_with(&migration_batch, telemetry)?;
    println!("migration epoch: {stats}");
    assert_eq!(distributed.num_edges(), partitioner.live_edges());
    assert_metrics_recompute_exactly(&partitioner)?;
    let labels_after = engine
        .run_opts(
            &distributed,
            &rebalance_program,
            RunOptions::new()
                .warm_seed(&labels_before_skew)
                .recorder(telemetry),
        )?
        .values;
    assert_eq!(labels_after, cc(&engine, &distributed, telemetry).values);
    assert_eq!(
        labels_after,
        cc(&engine, &fresh_build(&partitioner)?, telemetry).values
    );
    println!(
        "warm CC(rebalanced, epoch {}) == cold == CC(fresh build): migration preserved every \
         label\n",
        distributed.epoch()
    );

    // ── Phase 4: sliding-window ingestion bounds the live set ────────────
    let mut window = SlidingWindow::new(
        RmatEdgeStream::new(SCALE, 3 * WINDOW / 2).with_seed(SEED + 1),
        WINDOW,
    )?;
    let mut windowed =
        EbvPartitioner::new().dynamic(StreamConfig::new(WORKERS).with_expected_edges(WINDOW))?;
    let mut peak = 0usize;
    while let Some(event) = window.next_event() {
        match event? {
            ebv::dynamic::GraphEvent::Insert(edge) => {
                windowed.insert(edge);
            }
            ebv::dynamic::GraphEvent::Delete(edge) => {
                windowed.delete(edge)?;
            }
        }
        peak = peak.max(windowed.live_edges());
    }
    assert_eq!(peak, WINDOW, "the window caps the live edge set");
    assert_eq!(windowed.live_edges(), WINDOW);
    assert_metrics_recompute_exactly(&windowed)?;
    println!(
        "sliding window: {} arrivals, live set capped at {WINDOW} edges ({})",
        3 * WINDOW / 2,
        windowed.metrics(),
    );
    println!("\nevolving-graph pipeline: every exactness check passed");

    // ── Telemetry export ─────────────────────────────────────────────────
    // The span ring and the registry observed every BSP execution,
    // mutation epoch and warm invalidation above.
    let snapshot = telemetry.registry().snapshot();
    println!(
        "\ntelemetry snapshot ({} spans dropped):",
        telemetry.dropped()
    );
    print!("{snapshot}");
    println!("measured wall-clock per phase:");
    for (phase, seconds) in telemetry.phase_totals() {
        if seconds > 0.0 {
            println!("  {:<17} {seconds:>9.4}s", phase.name());
        }
    }
    let journal = telemetry.journal();
    println!(
        "epoch journal: {} epochs recorded ({} retained), last superstep straggler ratio {:.2}",
        journal.recorded_total(),
        journal.len(),
        telemetry.straggler_ratio(),
    );
    if let Some(path) = env_config().trace_out {
        let trace = telemetry.chrome_trace();
        std::fs::write(&path, &trace)?;
        println!(
            "wrote Chrome trace ({} events) to {} — load it in chrome://tracing or \
             https://ui.perfetto.dev",
            trace.matches("\"ph\":\"X\"").count(),
            path.display(),
        );
    }
    if let Some(path) = env_config().metrics_out {
        // The live exposition: the registry snapshot plus the labeled
        // per-worker attribution families — exactly what `/metrics` serves.
        std::fs::write(&path, telemetry.prometheus())?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    if let Some(server) = obs_server {
        println!(
            "obs server on http://{}/ served {} requests; shutting down",
            server.local_addr(),
            server.requests_served(),
        );
        server.shutdown();
    }
    Ok(())
}
