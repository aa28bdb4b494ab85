//! `restart`: crash-to-serving. Set-up runs a durable churn that stops six
//! epochs past its last checkpoint and drops everything but the state
//! directory; one step is the recovery a restarted process performs —
//! `DurableState::open` → `Checkpoint::rebuild_graph` →
//! `resume_partition_state` + `DynamicPartitioner::restore` → warm values
//! from the checkpoint series → replay of each WAL frame
//! (`apply_mutations` + warm CC/SSSP/BFS + commit) → read block.
//!
//! This is the state plane's read side, and `apply_mutations` used as replay
//! rather than live. The recovered world must equal the live one the churn
//! ended on.

use std::path::{Path, PathBuf};

use ebv_bsp::{DistributedGraph, EpochCommitter};
use ebv_dynamic::{ChurnStream, EventSource, GraphEvent};
use ebv_obs::{NoopRecorder, Recorder};
use ebv_serve::SnapshotStore;
use ebv_state::{Checkpoint, DurableState, SeriesValues};
use ebv_stream::RmatEdgeStream;

use crate::churn::{
    new_partitioner, open_fresh, product_epochs, verify_world, warm_epoch, EpochSinks, WarmValues,
    World, CHECKPOINT_EVERY, SCALE,
};
use crate::harness::{Check, Counters, Fingerprint, Meter, PassRecord, Result, Workload, WORKERS};
use crate::machine::Machine;
use crate::reads::{read_block, ReadScratch};
use crate::trace::Tracer;

const EPOCH_EVENTS: usize = 8_192;
/// Checkpoints land on epochs 8 and 16; the churn stops at 22, leaving six
/// WAL frames to replay.
const EPOCHS: usize = 2 * CHECKPOINT_EVERY + REPLAYED_FRAMES;
const REPLAYED_FRAMES: usize = 6;
/// Share of arrivals followed by the deletion of a random live edge.
const DELETE_RATIO: f64 = 0.25;

pub struct Restart;

pub struct RestartInput {
    events: Vec<GraphEvent>,
    inserts: usize,
    lcg: u64,
}

pub struct RestartState {
    /// The state directory the churn left behind; passes only read it.
    dir: PathBuf,
    /// The world the churn ended on, which recovery must reproduce.
    live: World,
}

fn checkpoint_series(checkpoint: &Checkpoint, name: &str) -> Result<Vec<u64>> {
    match checkpoint.series.iter().find(|(n, _)| n == name) {
        Some((_, SeriesValues::U64(values))) => Ok(values.clone()),
        _ => Err(format!("checkpoint misses the u64 warm series {name:?}").into()),
    }
}

impl Restart {
    fn recover<R: Recorder>(
        &self,
        input: &RestartInput,
        state: &RestartState,
        recorder: &R,
        tracer: &Tracer,
    ) -> Result<(PassRecord, World)> {
        let mut counters = Counters::default();
        let mut scratch = ReadScratch::new();
        tracer.set_step(0);

        let meter = Meter::start();
        let step = tracer.span("step");
        let (_durable, recovered) = tracer.time("state.open", || {
            DurableState::open(&state.dir, CHECKPOINT_EVERY)
        })?;
        let checkpoint = recovered
            .checkpoint
            .as_ref()
            .ok_or("the state directory holds no checkpoint")?;
        if recovered.frames.len() != REPLAYED_FRAMES {
            return Err(format!(
                "expected {REPLAYED_FRAMES} WAL frames past the checkpoint, found {}",
                recovered.frames.len()
            )
            .into());
        }
        let mut distributed = tracer.time("state.rebuild", || checkpoint.rebuild_graph())?;
        let mut partitioner = new_partitioner(input.inserts)?;
        tracer.time("partition.restore", || -> Result<()> {
            let (universe, pairs) = recovered.resume_partition_state()?;
            Ok(partitioner.restore(universe, pairs)?)
        })?;
        let mut values = tracer.time("state.seed", || -> Result<WarmValues> {
            Ok(WarmValues {
                labels: checkpoint_series(checkpoint, "cc")?,
                distances: checkpoint_series(checkpoint, "sssp")?,
                depths: checkpoint_series(checkpoint, "bfs")?,
            })
        })?;
        let store = SnapshotStore::new();
        store.serve_adjacency(true);
        let sinks = EpochSinks {
            store: &store,
            recorder,
            tracer,
        };
        {
            let _span = tracer.span("state.replay");
            for frame in &recovered.frames {
                let stats = tracer.time("bsp.apply", || {
                    distributed.apply_mutations_with(&frame.batch, recorder)
                })?;
                counters.absorb_apply(&stats);
                warm_epoch(
                    &sinks,
                    None,
                    &distributed,
                    &frame.batch,
                    &mut values,
                    &mut counters,
                )?;
                tracer.time("serve.commit", || store.commit_epoch(&distributed));
            }
        }
        drop(step);
        let (step_ms, step_bytes) = meter.stop();
        counters.replayed_frames = recovered.frames.len() as u64;
        counters.partitioner_state_bytes = partitioner.state_bytes() as u64;

        let handle = store.handle();
        let meter = Meter::start();
        let read = read_block(
            &handle,
            &values.expected(),
            &distributed,
            input.lcg,
            &mut scratch,
            tracer,
        );
        let (_, read_bytes) = meter.stop();

        let quality = partitioner.metrics();
        let mut fingerprint = Fingerprint::new();
        values.digest(&mut fingerprint);
        fingerprint.quality(&quality);
        fingerprint.word(counters.messages);
        fingerprint.word(distributed.epoch() as u64);
        fingerprint.word(distributed.num_edges() as u64);
        let record = PassRecord {
            step_ms: vec![step_ms],
            reads: vec![read],
            alloc_bytes: step_bytes + read_bytes,
            quality,
            fingerprint: fingerprint.finish(),
            counters,
        };
        let end = World {
            partitioner,
            distributed,
            values,
            events_seen: recovered.events_seen(),
        };
        Ok((record, end))
    }
}

impl Workload for Restart {
    type Input = RestartInput;
    type State = RestartState;
    type End = World;

    fn steps(&self) -> usize {
        1
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn generate(&self, seed: u64, _dir: &Path) -> Result<RestartInput> {
        let wanted = EPOCHS * EPOCH_EVENTS;
        // Every arrival yields at least one event, so `wanted` arrivals are
        // always enough.
        let stream = RmatEdgeStream::new(SCALE, wanted).with_seed(seed);
        let mut churn = ChurnStream::new(stream, DELETE_RATIO)?.with_seed(seed ^ 0x5EED);
        let mut events = Vec::with_capacity(wanted);
        while events.len() < wanted {
            events.push(churn.next_event().ok_or("the churn source ran dry")??);
        }
        let inserts = events.iter().filter(|event| event.is_insert()).count();
        Ok(RestartInput {
            events,
            inserts,
            lcg: seed,
        })
    }

    fn setup(&self, input: &RestartInput, dir: &Path, _tracer: &Tracer) -> Result<RestartState> {
        let distributed = DistributedGraph::build_streaming(WORKERS, Some(1 << SCALE), [])?;
        let mut live = World {
            partitioner: new_partitioner(input.inserts)?,
            values: WarmValues::cold(&distributed)?,
            distributed,
            events_seen: 0,
        };
        {
            let store = SnapshotStore::new();
            store.serve_adjacency(true);
            let durable = open_fresh(dir)?;
            let sinks = EpochSinks {
                store: &store,
                recorder: &NoopRecorder,
                tracer: &Tracer::disabled(),
            };
            product_epochs(
                &mut live,
                &input.events,
                EPOCH_EVENTS,
                &sinks,
                &durable,
                &mut Counters::default(),
            )?;
        }
        let state = RestartState {
            dir: dir.to_path_buf(),
            live,
        };
        // Warm-up: one untimed recovery.
        self.recover(input, &state, &NoopRecorder, &Tracer::disabled())?;
        Ok(state)
    }

    fn pass<R: Recorder>(
        &self,
        input: &RestartInput,
        state: &RestartState,
        _dir: &Path,
        recorder: &R,
        tracer: &Tracer,
        machine: &Machine,
    ) -> Result<(PassRecord, World)> {
        machine.sample();
        self.recover(input, state, recorder, tracer)
    }

    fn verify(
        &self,
        _input: &RestartInput,
        state: &RestartState,
        end: &World,
    ) -> Result<Vec<Check>> {
        let live = &state.live;
        let mut checks = vec![
            Check {
                name: "recovered structure == live",
                ok: end.distributed.same_structure(&live.distributed)
                    && end.distributed.epoch() == live.distributed.epoch(),
            },
            Check {
                name: "recovered values == live",
                ok: end.values == live.values,
            },
            Check {
                name: "recovered partitioner == live",
                ok: end.partitioner.surviving().eq(live.partitioner.surviving())
                    && end.partitioner.metrics() == live.partitioner.metrics()
                    && end.events_seen == live.events_seen,
            },
            Check {
                name: "live and recovered both ended on the last epoch",
                ok: live.distributed.epoch() == EPOCHS && end.distributed.epoch() == EPOCHS,
            },
        ];
        checks.extend(verify_world(end)?);
        Ok(checks)
    }

    fn end_graph<'a>(&self, end: &'a World) -> &'a DistributedGraph {
        &end.distributed
    }
}
