//! `churn_window` and `churn_trickle`: the steady-state evolving graph.
//! A sliding window of R-MAT edges is filled during set-up; one step is one
//! durable epoch — events → dynamic partitioner → WAL append →
//! `apply_mutations` → warm CC/SSSP/BFS staged → snapshot commit →
//! cadenced checkpoint — followed by the read block.
//!
//! The two differ only in events per epoch. At 32,768 the per-event ingest
//! cost is most of the step; at 256 the partitioner is idle and the
//! per-epoch fixed costs (re-indexing touched workers, the O(E) adjacency
//! rebuild at commit, program construction) are all that is left, so a
//! batching change that pays per epoch to save per event shows its cost.
//!
//! Untraced passes drive each epoch through the product's own
//! `EventPipeline::run_applied_durable`; the traced pass runs
//! [`unrolled_epoch`], a call-for-call copy of that loop with a span around
//! every public call.

use std::path::Path;

use ebv_algorithms::{
    BreadthFirstSearch, ConnectedComponents, IncrementalBfs, IncrementalConnectedComponents,
    IncrementalSssp, SingleSourceShortestPath, UNREACHABLE,
};
use ebv_bsp::{
    BspError, DistributedGraph, DurabilityHook, EpochCommitter, MutationBatch, RunOptions,
};
use ebv_dynamic::{events, EventPipeline, EventSource, GraphEvent, SlidingWindow};
use ebv_graph::{GraphBuilder, VertexId};
use ebv_obs::{MetricsRegistry, NoopRecorder, Recorder};
use ebv_partition::{DynamicPartitioner, EbvPartitioner, PartitionMetrics, StreamConfig};
use ebv_serve::SnapshotStore;
use ebv_state::{DurableState, SeriesValues};
use ebv_stream::RmatEdgeStream;

use crate::harness::{
    engine, Check, Counters, Fingerprint, Meter, PassRecord, Result, Workload, WORKERS,
};
use crate::machine::Machine;
use crate::reads::{read_block, Expected, ReadScratch};
use crate::trace::Tracer;

pub const SCALE: u32 = 16;
/// Live edges in the sliding window.
const WINDOW: usize = 400_000;
/// Events per `run_applied` batch while the window fills during set-up.
const FILL_BATCH: usize = 1 << 16;
/// Epochs between checkpoints, as `evolving_graph`'s durable mode defaults.
pub const CHECKPOINT_EVERY: usize = 8;
/// Root of the warm-carried SSSP and BFS: the R-MAT hub.
pub const SOURCE: u64 = 0;

pub struct Churn {
    pub events_per_epoch: usize,
    pub steps: usize,
}

pub struct ChurnInput {
    /// The window's fill (inserts only), then `1 + steps` epochs of
    /// delete-oldest/insert pairs; the first of those is the warm-up.
    events: Vec<GraphEvent>,
    lcg: u64,
}

/// The values carried warm from epoch to epoch.
#[derive(Clone, PartialEq)]
pub struct WarmValues {
    pub labels: Vec<u64>,
    pub distances: Vec<u64>,
    pub depths: Vec<u64>,
}

impl WarmValues {
    /// Cold CC, SSSP and BFS on `distributed`.
    pub fn cold(distributed: &DistributedGraph) -> std::result::Result<Self, BspError> {
        let engine = engine();
        let source = VertexId::new(SOURCE);
        Ok(WarmValues {
            labels: engine.run(distributed, &ConnectedComponents::new())?.values,
            distances: engine
                .run(distributed, &SingleSourceShortestPath::new(source))?
                .values,
            depths: engine
                .run(distributed, &BreadthFirstSearch::new(source))?
                .values,
        })
    }

    pub fn expected(&self) -> [Expected<'_>; 3] {
        [
            Expected::U64 {
                name: "cc",
                values: &self.labels,
                absent: None,
            },
            Expected::U64 {
                name: "sssp",
                values: &self.distances,
                absent: Some(UNREACHABLE),
            },
            Expected::U64 {
                name: "bfs",
                values: &self.depths,
                absent: Some(UNREACHABLE),
            },
        ]
    }

    pub fn digest(&self, fingerprint: &mut Fingerprint) {
        fingerprint.words(&self.labels);
        fingerprint.words(&self.distances);
        fingerprint.words(&self.depths);
    }
}

/// The evolving world: what a pass clones and mutates.
#[derive(Clone)]
pub struct World {
    pub partitioner: DynamicPartitioner,
    pub distributed: DistributedGraph,
    pub values: WarmValues,
    /// Raw events consumed so far (the WAL frame stamp).
    pub events_seen: u64,
}

/// A fresh partitioner configured for `expected_edges` live edges.
pub fn new_partitioner(expected_edges: usize) -> Result<DynamicPartitioner> {
    let config = StreamConfig::new(WORKERS)
        .with_expected_vertices(1 << SCALE)
        .with_expected_edges(expected_edges);
    Ok(EbvPartitioner::new().dynamic(config)?)
}

/// Where one epoch publishes and reports.
pub struct EpochSinks<'a, R> {
    pub store: &'a SnapshotStore,
    pub recorder: &'a R,
    pub tracer: &'a Tracer,
}

/// Re-runs warm CC, SSSP and BFS on the post-mutation distribution and
/// stages their values: the `on_epoch` body of `evolving_graph`. `durable`
/// receives the warm series for the next checkpoint; WAL replay, which
/// checkpoints nothing, passes `None`.
pub fn warm_epoch<R: Recorder>(
    sinks: &EpochSinks<'_, R>,
    durable: Option<&DurableState>,
    distributed: &DistributedGraph,
    batch: &MutationBatch,
    values: &mut WarmValues,
    counters: &mut Counters,
) -> std::result::Result<(), BspError> {
    let (store, recorder, tracer) = (sinks.store, sinks.recorder, sinks.tracer);
    let engine = engine();
    let source = VertexId::new(SOURCE);

    let program = tracer.time("algorithms.warm_build", || {
        IncrementalConnectedComponents::from_batch(&values.labels, batch)
    });
    let outcome = tracer.time("algorithms.warm_cc", || {
        engine.run_opts(
            distributed,
            &program,
            RunOptions::new()
                .recorder(recorder)
                .warm_seed(&values.labels)
                .publish_to(&store.series_sink::<u64>("cc")),
        )
    })?;
    counters.absorb_run(&outcome.stats);
    values.labels = outcome.values;

    let program = tracer.time("algorithms.warm_build", || {
        IncrementalSssp::from_distributed(source, distributed, &values.distances, batch)
    });
    let outcome = tracer.time("algorithms.warm_sssp", || {
        engine.run_opts(
            distributed,
            &program,
            RunOptions::new()
                .recorder(recorder)
                .warm_seed(&values.distances)
                .publish_to(&store.series_sink::<u64>("sssp").with_absent(UNREACHABLE)),
        )
    })?;
    counters.absorb_run(&outcome.stats);
    counters.cone_vertices += program.cone_vertices() as u64;
    values.distances = outcome.values;

    let program = tracer.time("algorithms.warm_build", || {
        IncrementalBfs::from_distributed(source, distributed, &values.depths, batch)
    });
    let outcome = tracer.time("algorithms.warm_bfs", || {
        engine.run_opts(
            distributed,
            &program,
            RunOptions::new()
                .recorder(recorder)
                .warm_seed(&values.depths)
                .publish_to(&store.series_sink::<u64>("bfs").with_absent(UNREACHABLE)),
        )
    })?;
    counters.absorb_run(&outcome.stats);
    values.depths = outcome.values;

    if let Some(durable) = durable {
        let _span = tracer.span("state.stage");
        durable.stage_series("cc", SeriesValues::U64(values.labels.clone()));
        durable.stage_series("sssp", SeriesValues::U64(values.distances.clone()));
        durable.stage_series("bfs", SeriesValues::U64(values.depths.clone()));
    }
    Ok(())
}

/// Durable epochs of `batch_size` events each through the product's entry
/// point.
pub fn product_epochs<R: Recorder>(
    world: &mut World,
    epoch_events: &[GraphEvent],
    batch_size: usize,
    sinks: &EpochSinks<'_, R>,
    durable: &DurableState,
    counters: &mut Counters,
) -> Result<()> {
    let World {
        partitioner,
        distributed,
        values,
        events_seen,
    } = world;
    EventPipeline::new(batch_size).run_applied_durable(
        events(epoch_events.iter().copied()),
        partitioner,
        distributed,
        sinks.store,
        durable,
        *events_seen,
        |distributed, batch, _metrics, stats| {
            counters.absorb_apply(&stats);
            counters.cancelled_events += batch_size.saturating_sub(batch.len()) as u64;
            Ok(warm_epoch(
                sinks,
                Some(durable),
                distributed,
                batch,
                values,
                counters,
            )?)
        },
        sinks.recorder,
    )?;
    *events_seen += epoch_events.len() as u64;
    counters.events += epoch_events.len() as u64;
    Ok(())
}

/// The same epoch, call for call as `EventPipeline::run_applied_inner`
/// makes them, with a span around each public call.
fn unrolled_epoch<R: Recorder>(
    world: &mut World,
    epoch_events: &[GraphEvent],
    sinks: &EpochSinks<'_, R>,
    durable: &DurableState,
    counters: &mut Counters,
) -> Result<()> {
    let tracer = sinks.tracer;
    let mut batch = MutationBatch::new();
    {
        let _span = tracer.span("partition.dynamic");
        for event in epoch_events {
            match *event {
                GraphEvent::Insert(edge) => {
                    let part = world.partitioner.insert(edge);
                    batch.record_insert(edge, part);
                }
                GraphEvent::Delete(edge) => {
                    let part = world.partitioner.delete(edge)?;
                    batch.record_delete(edge, part);
                }
            }
        }
        std::hint::black_box(world.partitioner.metrics());
    }
    world.events_seen += epoch_events.len() as u64;
    counters.events += epoch_events.len() as u64;
    counters.cancelled_events += (epoch_events.len() - batch.len()) as u64;
    let applied = !batch.is_empty();
    if applied {
        let _span = tracer.span("state.wal_append");
        durable.log_batch(
            world.distributed.epoch() as u64 + 1,
            world.events_seen,
            &batch,
        )?;
    }
    let stats = tracer.time("bsp.apply", || {
        world
            .distributed
            .apply_mutations_with(&batch, sinks.recorder)
    })?;
    counters.absorb_apply(&stats);
    warm_epoch(
        sinks,
        Some(durable),
        &world.distributed,
        &batch,
        &mut world.values,
        counters,
    )?;
    if applied {
        tracer.time("serve.commit", || {
            sinks.store.commit_epoch(&world.distributed)
        });
        let _span = tracer.span("state.checkpoint");
        durable.epoch_durable(&world.distributed, &world.partitioner, world.events_seen)?;
    }
    Ok(())
}

/// Opens an empty durable state directory.
pub fn open_fresh(dir: &Path) -> Result<DurableState> {
    let (durable, recovered) = DurableState::open(dir, CHECKPOINT_EVERY)?;
    if !recovered.is_empty() {
        return Err(format!("{} already holds durable state", dir.display()).into());
    }
    Ok(durable)
}

/// Total size of the `checkpoint-*.ckpt` files in `dir` and their count.
fn checkpoint_files(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut count) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|ext| ext == "ckpt") {
            bytes += entry.metadata()?.len();
            count += 1;
        }
    }
    Ok((bytes, count))
}

/// Bytes the WAL has appended in this process so far.
pub fn wal_bytes_total() -> u64 {
    MetricsRegistry::global()
        .counter("ebv_wal_bytes_total")
        .get()
}

/// The reference checks every evolving workload ends with: the warm-carried
/// values equal cold runs on the same distribution and on a fresh build of
/// the survivors, and the maintained partition quality equals a from-scratch
/// recompute.
pub fn verify_world(world: &World) -> Result<Vec<Check>> {
    let cold = WarmValues::cold(&world.distributed)?;
    let fresh = DistributedGraph::build_streaming(
        WORKERS,
        Some(world.partitioner.num_vertices()),
        world.partitioner.surviving(),
    )?;
    let rebuilt = WarmValues::cold(&fresh)?;
    let mut builder = GraphBuilder::directed();
    world.partitioner.surviving().for_each(|(edge, _)| {
        builder.add_edge(edge);
    });
    builder.num_vertices(world.partitioner.num_vertices());
    let recomputed = PartitionMetrics::compute(&builder.build()?, &world.partitioner.snapshot()?)?;
    Ok(vec![
        Check {
            name: "warm == cold",
            ok: world.values == cold,
        },
        Check {
            name: "cold == fresh build of the survivors",
            ok: cold == rebuilt,
        },
        Check {
            name: "maintained metrics == PartitionMetrics::compute",
            ok: world.partitioner.metrics() == recomputed,
        },
        Check {
            name: "distribution and partitioner agree on live edges",
            ok: world.distributed.num_edges() == world.partitioner.live_edges(),
        },
    ])
}

impl Churn {
    fn epoch_events<'a>(&self, input: &'a ChurnInput, epoch: usize) -> &'a [GraphEvent] {
        let start = WINDOW + epoch * self.events_per_epoch;
        &input.events[start..start + self.events_per_epoch]
    }
}

impl Workload for Churn {
    type Input = ChurnInput;
    type State = World;
    type End = World;

    fn steps(&self) -> usize {
        self.steps
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn generate(&self, seed: u64, _dir: &Path) -> Result<ChurnInput> {
        let churned = (1 + self.steps) * self.events_per_epoch;
        // Once the window is full every arrival is a delete plus an insert.
        let arrivals = WINDOW + churned.div_ceil(2);
        let stream = RmatEdgeStream::new(SCALE, arrivals).with_seed(seed);
        let mut window = SlidingWindow::new(stream, WINDOW)?;
        let mut events = Vec::with_capacity(WINDOW + churned);
        while events.len() < WINDOW + churned {
            let event = window.next_event().ok_or("the window source ran dry")??;
            events.push(event);
        }
        Ok(ChurnInput { events, lcg: seed })
    }

    fn setup(&self, input: &ChurnInput, dir: &Path, _tracer: &Tracer) -> Result<World> {
        let mut partitioner = new_partitioner(WINDOW)?;
        let mut distributed = DistributedGraph::build_streaming(WORKERS, Some(1 << SCALE), [])?;
        EventPipeline::new(FILL_BATCH).run_applied(
            events(input.events[..WINDOW].iter().copied()),
            &mut partitioner,
            &mut distributed,
            |_, _, _, _| Ok(()),
        )?;
        let values = WarmValues::cold(&distributed)?;
        let mut world = World {
            partitioner,
            distributed,
            values,
            events_seen: WINDOW as u64,
        };
        // Warm-up: one full durable epoch, so every lazily initialised path
        // of the step has run before anything is timed.
        let store = SnapshotStore::new();
        store.serve_adjacency(true);
        let durable = open_fresh(dir)?;
        let sinks = EpochSinks {
            store: &store,
            recorder: &NoopRecorder,
            tracer: &Tracer::disabled(),
        };
        product_epochs(
            &mut world,
            self.epoch_events(input, 0),
            self.events_per_epoch,
            &sinks,
            &durable,
            &mut Counters::default(),
        )?;
        Ok(world)
    }

    fn pass<R: Recorder>(
        &self,
        input: &ChurnInput,
        state: &World,
        dir: &Path,
        recorder: &R,
        tracer: &Tracer,
        machine: &Machine,
    ) -> Result<(PassRecord, World)> {
        let mut world = state.clone();
        let mut counters = Counters::default();
        let mut scratch = ReadScratch::new();
        let mut fingerprint = Fingerprint::new();
        let mut step_ms = Vec::with_capacity(self.steps);
        let mut reads = Vec::with_capacity(self.steps);
        let mut alloc_bytes = 0;

        let store = SnapshotStore::new();
        store.serve_adjacency(true);
        let handle = store.handle();
        let durable = open_fresh(dir)?;
        let wal_before = wal_bytes_total();
        let sinks = EpochSinks {
            store: &store,
            recorder,
            tracer,
        };
        for step in 0..self.steps {
            let epoch_events = self.epoch_events(input, 1 + step);
            tracer.set_step(step);
            machine.sample();
            let meter = Meter::start();
            {
                let _span = tracer.span("step");
                if tracer.is_enabled() {
                    unrolled_epoch(&mut world, epoch_events, &sinks, &durable, &mut counters)?;
                } else {
                    product_epochs(
                        &mut world,
                        epoch_events,
                        self.events_per_epoch,
                        &sinks,
                        &durable,
                        &mut counters,
                    )?;
                }
            }
            let (ms, step_bytes) = meter.stop();
            step_ms.push(ms);

            let lcg = input.lcg ^ (step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let meter = Meter::start();
            let read = read_block(
                &handle,
                &world.values.expected(),
                &world.distributed,
                lcg,
                &mut scratch,
                tracer,
            );
            let (_, read_bytes) = meter.stop();
            reads.push(read);
            alloc_bytes += step_bytes + read_bytes;
            world.values.digest(&mut fingerprint);
        }
        counters.wal_bytes = wal_bytes_total() - wal_before;
        (counters.checkpoint_bytes, counters.checkpoints) = checkpoint_files(dir)?;
        counters.partitioner_state_bytes = world.partitioner.state_bytes() as u64;

        let quality = world.partitioner.metrics();
        fingerprint.quality(&quality);
        fingerprint.word(counters.messages);
        fingerprint.word(world.distributed.epoch() as u64);
        fingerprint.word(world.distributed.num_edges() as u64);
        let record = PassRecord {
            step_ms,
            reads,
            alloc_bytes,
            quality,
            fingerprint: fingerprint.finish(),
            counters,
        };
        Ok((record, world))
    }

    fn verify(&self, _input: &ChurnInput, _state: &World, end: &World) -> Result<Vec<Check>> {
        verify_world(end)
    }

    fn end_graph<'a>(&self, end: &'a World) -> &'a DistributedGraph {
        &end.distributed
    }
}
