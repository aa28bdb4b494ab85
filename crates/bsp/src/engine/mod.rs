//! The bulk-synchronous-parallel execution engine.
//!
//! The public [`BspEngine`] API and the superstep loop: seeding, the
//! quiescence/convergence protocol, statistics and result extraction. Each
//! superstep is one round of the run's lane crew (`crate::lanes`): one
//! owned job per worker, run on the calling thread alone or on
//! `min(n, workers)` scoped lanes, lane `l` of `L` running workers
//! `l, l + L, …` in every superstep.
//!
//! A job's buffers — its worker's value vector and
//! [`WorkerMail`](crate::exchange::WorkerMail) — outlive a *warm* run: a
//! run started with [`RunOptions::warm_seed`] that returns `Ok` empties
//! them, keeping every capacity, and leaves them in the graph it ran on,
//! where the next run with the same value and message types and worker
//! count starts from them. A cold run takes them too but drops them at the
//! end, as does a run that errors or panics, so only a graph that warm
//! programs run on holds a plane between runs: one warm run's buffers at
//! their high-water capacity. Values and [`ExecutionStats`] do not depend
//! on which buffers a run starts from.

use std::iter::repeat;
use std::time::Instant;

use ebv_obs::{NoopRecorder, Phase, Recorder, SpanCtx};

use crate::distributed::DistributedGraph;
use crate::error::{BspError, Result};
use crate::exchange::{self, WorkerMail};
use crate::lanes::{crew, panic_message, Crew};
use crate::program::{SubgraphContext, SubgraphProgram};
use crate::publish::ValueSink;
use crate::stats::{ExecutionStats, SuperstepStats, WorkerSuperstepStats};
use crate::subgraph::Subgraph;

/// Options for one engine run: telemetry, a warm-start seed and snapshot
/// publication are each an optional stage of [`BspEngine::run_opts`]; the
/// execution mode belongs to the engine.
///
/// `V` is the program's value type, `R` the recorder
/// ([`NoopRecorder`] until [`recorder`](RunOptions::recorder) swaps it —
/// statically, so an untelemetered run still pays nothing).
///
/// # Examples
///
/// ```
/// use ebv_bsp::RunOptions;
/// use ebv_obs::Telemetry;
///
/// // A warm-started, traced run: `engine.run_opts(&dg, &program, options)`.
/// # fn demo(prior: &[u64], telemetry: &Telemetry) {
/// let _options: RunOptions<'_, u64, Telemetry> =
///     RunOptions::new().warm_seed(prior).recorder(telemetry);
/// # }
/// # demo(&[0], &Telemetry::new());
/// ```
#[derive(Clone, Copy)]
pub struct RunOptions<'a, V, R: Recorder = NoopRecorder> {
    /// Telemetry destination for phase spans and counters.
    recorder: &'a R,
    /// Warm-start seed: a previous epoch's global values.
    warm: Option<&'a [V]>,
    /// Snapshot publication: receives the finished run's values.
    sink: Option<&'a dyn ValueSink<V>>,
}

impl<V> Default for RunOptions<'_, V, NoopRecorder> {
    fn default() -> Self {
        RunOptions::new()
    }
}

impl<V> RunOptions<'_, V, NoopRecorder> {
    /// Options for a plain cold run: no telemetry, no warm seed, no
    /// publication.
    pub fn new() -> Self {
        RunOptions {
            recorder: &NoopRecorder,
            warm: None,
            sink: None,
        }
    }
}

impl<'a, V, R: Recorder> RunOptions<'a, V, R> {
    /// Reports phase spans (compute, scatter, barrier) and message
    /// counters through `recorder`. Instrumentation does not perturb
    /// execution: values and [`ExecutionStats`] stay bit-identical.
    pub fn recorder<R2: Recorder>(self, recorder: &'a R2) -> RunOptions<'a, V, R2> {
        RunOptions {
            recorder,
            warm: self.warm,
            sink: self.sink,
        }
    }

    /// Warm-starts the run from `prior` — the global per-vertex values of a
    /// previous epoch's [`BspOutcome`] — instead of
    /// [`SubgraphProgram::initial_value`].
    ///
    /// Every replica of vertex `v` with `v < prior.len()` is seeded with
    /// [`SubgraphProgram::warm_value`]`(v, &prior[v], subgraph)`; vertices
    /// beyond `prior` (the universe may have grown across mutation epochs)
    /// fall back to `initial_value`. Combined with an incremental program
    /// (e.g. `ebv_algorithms::IncrementalConnectedComponents`) this re-runs
    /// a fixpoint from the previous epoch's answer, activating only the
    /// region the mutations disturbed.
    ///
    /// The run's output starts as a copy of `prior` (cut or extended to the
    /// universe), and the engine writes only the vertices whose master
    /// changed: one past `prior`, one whose seed differs from its prior
    /// value (`!=`, see [`SubgraphProgram::Value`]), and one the run set
    /// with [`SubgraphContext::set_value`](crate::SubgraphContext::set_value).
    /// Beyond the supersteps, a warm run therefore costs one seeding pass
    /// over the local replicas, the copy, one bitmap word per 64 replicas
    /// and its changed masters, where a cold run moves every master's value.
    ///
    /// A warm run that succeeds leaves its emptied buffers in the graph for
    /// the next run on it (see [`BspEngine::run_opts`]), so a series of warm
    /// epochs on one graph does not regrow its message plane every run; the
    /// graph holds that memory, at the run's high-water size, until a later
    /// run takes it.
    pub fn warm_seed(mut self, prior: &'a [V]) -> Self {
        self.warm = Some(prior);
        self
    }

    /// Publishes the finished run's global values (and its
    /// [`ExecutionStats`]) to `sink` before returning — the engine half of
    /// epoch-snapshot publication (see [`crate::publish`]).
    pub fn publish_to(mut self, sink: &'a dyn ValueSink<V>) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// One worker's state through a run, a crew job every superstep: what the
/// worker writes, owned, so it can move to its lane and back.
struct WorkerJob<V, M> {
    worker: usize,
    superstep: usize,
    /// When the job was handed to the crew (`None` under a recorder that
    /// does not time): the start of its queue wait.
    enqueued: Option<Instant>,
    values: Vec<V>,
    mail: WorkerMail<M>,
    /// `(work, changes, sent)` of the last superstep it ran.
    result: (u64, usize, usize),
}

impl<V, M> AsMut<WorkerMail<M>> for WorkerJob<V, M> {
    fn as_mut(&mut self) -> &mut WorkerMail<M> {
        &mut self.mail
    }
}

/// The superstep job of a program.
type JobOf<P> = WorkerJob<<P as SubgraphProgram>::Value, <P as SubgraphProgram>::Message>;

/// One worker's whole superstep: run the program over the subgraph with
/// the shards routed to this worker at the end of the previous superstep as
/// its mail (compute), then fan the outbox out into the worker's own row of
/// per-destination shards along the precomputed routes (scatter). Touches
/// only the job's own state, so lanes run it lock-free.
fn run_worker<P: SubgraphProgram, R: Recorder>(
    program: &P,
    epoch: u32,
    recorder: &R,
    subgraph: &Subgraph,
    routes: &crate::routing::WorkerRoutes,
    job: &mut JobOf<P>,
) {
    if let Some(enqueued) = job.enqueued {
        recorder.observe_seconds(
            "ebv_bsp_pool_queue_wait_seconds",
            enqueued.elapsed().as_secs_f64(),
        );
    }
    let span_ctx = SpanCtx {
        epoch,
        superstep: job.superstep as u32,
        worker: job.worker as u32,
    };
    let mail = &mut job.mail;
    let started = recorder.start();
    let mut ctx = SubgraphContext::new(
        subgraph,
        routes,
        &mut job.values,
        &mail.inbound,
        &mut mail.outbox,
        &mut mail.scratch,
        &mut mail.dirty,
    );
    program.run_superstep(&mut ctx, job.superstep);
    let (work, changes) = ctx.finish();
    // Delivered once, read or not: the transpose hands this row back as
    // next superstep's scatter shards, and what it still held would be
    // sent again.
    mail.inbound.iter_mut().for_each(Vec::clear);
    recorder.span(started, span_ctx, Phase::Compute);

    let started = recorder.start();
    let sent = exchange::scatter(routes, &mut mail.outbox, &mut mail.outbound);
    recorder.span(started, span_ctx, Phase::Scatter);
    job.result = (work, changes, sent);
}

/// Seeds one worker's values for a warm run from `prior` and marks in
/// `dirty` every local whose seed is not its prior: one past the prior
/// (the universe grew), which starts from `initial_value`, and one whose
/// `warm_value` differs from it. The mark is branch-free, since a reset
/// such as warm CC's marks most locals; `dirty` is sized here and each of
/// its words written once.
fn seed_warm<P: SubgraphProgram>(
    program: &P,
    sg: &Subgraph,
    prior: &[P::Value],
    values: &mut Vec<P::Value>,
    dirty: &mut Vec<u64>,
) {
    let vertices = sg.vertices();
    dirty.resize(vertices.len().div_ceil(64), 0);
    for (chunk, word) in vertices.chunks(64).zip(dirty.iter_mut()) {
        let mut bits = 0;
        values.extend(chunk.iter().zip(0..).map(|(&v, bit)| {
            let (value, changed) = match prior.get(v.index()) {
                Some(prior) => {
                    let value = program.warm_value(v, prior, sg);
                    let changed = value != *prior;
                    (value, changed)
                }
                None => (program.initial_value(v, sg), true),
            };
            bits |= u64::from(changed) << bit;
            value
        }));
        *word = bits;
    }
}

/// A cold run's global values: every master's value, moved out of its
/// job into its vertex's slot. Every vertex of the universe has exactly
/// one master, so the scatter over the workers' master flags writes every
/// slot; a walk in vertex order would look each master up in the replica
/// table instead, one scattered read per vertex. The oracle a warm run's
/// [`patch_prior`] is checked against in debug builds.
fn walk_masters<V: Clone, M>(
    subgraphs: &[Subgraph],
    jobs: &mut [WorkerJob<V, M>],
    num_vertices: usize,
) -> Vec<V> {
    let mut global_values = match jobs.iter().flat_map(|job| &job.values).next() {
        Some(any) => vec![any.clone(); num_vertices],
        None => Vec::new(),
    };
    let mut written = 0;
    for (sg, job) in subgraphs.iter().zip(jobs) {
        for (local, value) in job.values.drain(..).enumerate() {
            if sg.is_master(local) {
                global_values[sg.vertex_at(local).index()] = value;
                written += 1;
            }
        }
    }
    debug_assert_eq!(written, global_values.len(), "one master per vertex");
    global_values
}

/// A warm run's global values: a copy of `prior`, its grown tail filled,
/// then rewritten at the masters the run marked dirty (see
/// [`seed_warm`]), clearing each dirty word as it goes. A master left
/// clean holds its prior value, so the result equals [`walk_masters`]'s,
/// at the cost of the copy, one word per 64 locals and the dirty masters.
fn patch_prior<V: Clone, M>(
    prior: &[V],
    subgraphs: &[Subgraph],
    jobs: &mut [WorkerJob<V, M>],
    num_vertices: usize,
) -> Vec<V> {
    let mut global_values = Vec::with_capacity(num_vertices);
    global_values.extend_from_slice(&prior[..prior.len().min(num_vertices)]);
    // Every master of the grown tail is dirty, so any value fills it.
    if let Some(any) = jobs.iter().flat_map(|job| &job.values).next() {
        global_values.resize(num_vertices, any.clone());
    }
    for (sg, job) in subgraphs.iter().zip(jobs) {
        for (at, word) in job.mail.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let local = 64 * at + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if sg.is_master(local) {
                    global_values[sg.vertex_at(local).index()] = job.values[local].clone();
                }
            }
        }
    }
    global_values
}

/// Checks that a warm run's patched output is what [`walk_masters`] would
/// write: every master's final value in its vertex's slot, by the `==` the
/// patch trusts. It compares instead of writing, so it allocates nothing
/// and every warm run of a debug build is checked against the walk. A
/// value unequal to itself (a NaN) is always dirty, hence written, and has
/// nothing to compare.
#[cfg(debug_assertions)]
#[allow(clippy::eq_op)]
fn assert_the_walk_writes_the_same<V: PartialEq + std::fmt::Debug, M>(
    patched: &[V],
    subgraphs: &[Subgraph],
    jobs: &[WorkerJob<V, M>],
) {
    for (sg, job) in subgraphs.iter().zip(jobs) {
        let masters = job
            .values
            .iter()
            .enumerate()
            .filter(|&(local, _)| sg.is_master(local));
        for (local, value) in masters {
            let slot = &patched[sg.vertex_at(local).index()];
            assert!(
                slot == value || value != value,
                "worker {} local {local}: the walk writes {value:?}, the patch left {slot:?}",
                job.worker
            );
        }
    }
}

/// How the workers of a superstep are executed.
///
/// Every mode is bit-identical to every other in program values and
/// [`ExecutionStats`] — workers are independent within a superstep and the
/// engine folds their results in worker order — so the choice is purely a
/// performance/debuggability trade-off, and the mode-equivalence property
/// suites gate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Workers run one after another on the calling thread. Deterministic
    /// reference mode; the statistics are identical to the parallel modes.
    #[default]
    Sequential,
    /// Workers run on up to this many lanes (`0` is clamped to `1`):
    /// each run opens one thread scope of `min(n, workers)` lanes, the
    /// calling thread being the first, that loop over the run's
    /// supersteps, lane `l` of `L` running workers `l, l + L, …` in every
    /// one. Constructing the engine spawns nothing. The property
    /// suites sweep this mode over lane counts to prove
    /// placement-independence.
    Pooled(usize),
}

/// The host's available parallelism (`1` when it cannot be determined) —
/// the pool size `threaded` stands for, in [`BspEngine::threaded`] and in
/// `EBV_MODE`.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The subgraph-centric BSP engine.
///
/// The engine drives a [`SubgraphProgram`] over a [`DistributedGraph`]
/// through the three stages of each superstep described in Section IV-B of
/// the paper: computation (each worker runs the sequential algorithm on its
/// subgraph), communication (replica messages are routed between workers)
/// and synchronization (a barrier). It records the per-worker work and
/// message counters that the evaluation tables are built from.
///
/// An engine is only its [`ExecutionMode`]: it holds no thread. A pooled
/// engine's [`run`](BspEngine::run)/[`run_opts`](BspEngine::run_opts)
/// spawns its lanes for that run and joins them before returning, so
/// borrowing the program and the graph for the run is all it needs.
///
/// # Examples
///
/// ```
/// use ebv_bsp::{BspEngine, DistributedGraph};
/// use ebv_graph::generators::named;
/// use ebv_partition::{EbvPartitioner, Partitioner};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = named::two_triangles();
/// let partition = EbvPartitioner::new().partition(&graph, 2)?;
/// let distributed = DistributedGraph::build(&graph, &partition)?;
/// // `ebv-algorithms` provides ready-made programs (CC, SSSP, PageRank).
/// assert_eq!(distributed.num_workers(), 2);
/// let _engine = BspEngine::sequential();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BspEngine {
    mode: ExecutionMode,
}

/// The result of executing a program: the global per-vertex values (taken
/// from each vertex's master replica) plus the execution counters.
#[derive(Debug, Clone)]
pub struct BspOutcome<V> {
    /// Final value of every vertex, indexed by vertex id.
    pub values: Vec<V>,
    /// Per-superstep, per-worker counters.
    pub stats: ExecutionStats,
    /// Number of supersteps executed.
    pub supersteps: usize,
}

impl BspEngine {
    /// Creates an engine that runs workers sequentially.
    pub fn sequential() -> Self {
        BspEngine {
            mode: ExecutionMode::Sequential,
        }
    }

    /// Shorthand for [`pooled`](BspEngine::pooled) with one thread per unit
    /// of the host's available parallelism.
    pub fn threaded() -> Self {
        BspEngine::pooled(host_parallelism())
    }

    /// Creates an engine that runs workers on up to `threads` lanes per
    /// run (see [`ExecutionMode::Pooled`]); it spawns nothing here.
    pub fn pooled(threads: usize) -> Self {
        BspEngine {
            mode: ExecutionMode::Pooled(threads.max(1)),
        }
    }

    /// The execution mode this engine was built in.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Executes `program` over `distributed` until quiescence (or the
    /// program's superstep limit for fixed-iteration programs).
    ///
    /// # Errors
    ///
    /// Returns [`BspError::DidNotConverge`] when a quiescence-halting program
    /// exhausts [`SubgraphProgram::max_supersteps`].
    pub fn run<P: SubgraphProgram>(
        &self,
        distributed: &DistributedGraph,
        program: &P,
    ) -> Result<BspOutcome<P::Value>> {
        self.run_opts(distributed, program, RunOptions::new())
    }

    /// Executes `program` over `distributed` with explicit [`RunOptions`] —
    /// the one entry point; [`run`](BspEngine::run) is its no-options
    /// shorthand.
    ///
    /// When [`RunOptions::publish_to`] is set, the finished run's global
    /// values and [`ExecutionStats`] are handed to the sink *before* this
    /// returns, so a snapshot store has staged the values by the time the
    /// caller sees the outcome.
    ///
    /// The run takes whatever buffers `distributed` holds and starts from
    /// them when they are of `P`'s value and message types over as many
    /// workers; otherwise it allocates fresh ones. A run started with
    /// [`RunOptions::warm_seed`] that returns `Ok` empties its buffers,
    /// keeping their capacities, and leaves them in `distributed`; any other
    /// run drops them. Until a later run takes them, the graph holds that
    /// memory: the outbox, the `p × p` shard rows and the worklist scratch
    /// at the largest size the run reached, plus one value per local
    /// replica. Values and [`ExecutionStats`] are the same whichever buffers
    /// a run starts from.
    ///
    /// A cold run writes every vertex's value from its master replica. A
    /// warm run copies its prior and writes only the masters it changed
    /// (see [`RunOptions::warm_seed`]), tracked in one dirty bitmap per
    /// worker that lives in the buffers above: `Σ|V_i| / 8` bytes, kept all
    /// zero between runs.
    ///
    /// # Errors
    ///
    /// Returns [`BspError::DidNotConverge`] when a quiescence-halting program
    /// exhausts [`SubgraphProgram::max_supersteps`].
    pub fn run_opts<P: SubgraphProgram, R: Recorder>(
        &self,
        distributed: &DistributedGraph,
        program: &P,
        options: RunOptions<'_, P::Value, R>,
    ) -> Result<BspOutcome<P::Value>> {
        let recorder = options.recorder;
        let prior = options.warm;
        let num_workers = distributed.num_workers();
        if num_workers == 0 {
            return Err(BspError::InvalidParameter {
                parameter: "distributed",
                message: "the distributed graph has no workers".to_string(),
            });
        }
        let routing = distributed.routing();
        debug_assert_eq!(
            routing.epoch(),
            distributed.epoch(),
            "routing table is stale"
        );

        // Per-worker state, one job per worker for the whole run; every
        // message buffer lives in its mail and is reused across supersteps
        // (steady-state supersteps perform no per-message allocation). The
        // buffers are the ones the graph's last warm run handed back when
        // that run had these types, and fresh ones otherwise; either way
        // the graph holds none while this run does.
        let (mails, values) = distributed.plane.take(num_workers).unzip();
        let (mut mails, mut values) = (mails.into_iter().flatten(), values.into_iter().flatten());
        let mut jobs: Vec<JobOf<P>> = (distributed.subgraphs().iter().enumerate())
            .map(|(worker, sg)| {
                let mut values: Vec<P::Value> = values.next().unwrap_or_default();
                let mut mail = mails.next().unwrap_or_else(|| WorkerMail::new(num_workers));
                values.clear();
                // Cold runs seed from `initial_value` and track nothing, warm
                // runs from `warm_value` over the previous epoch's outcome.
                match prior {
                    None => {
                        mail.dirty.clear();
                        values.extend(sg.vertices().iter().map(|&v| program.initial_value(v, sg)));
                    }
                    Some(prior) => seed_warm(program, sg, prior, &mut values, &mut mail.dirty),
                }
                WorkerJob {
                    worker,
                    superstep: 0,
                    enqueued: None,
                    values,
                    mail,
                    result: (0, 0, 0),
                }
            })
            .collect();

        let mutation = distributed.last_mutation();
        let mut stats = ExecutionStats {
            num_workers,
            epoch: distributed.epoch(),
            workers_touched: mutation.workers_touched,
            edges_rebuilt: mutation.edges_rebuilt,
            supersteps: Vec::new(),
        };

        let max_supersteps = program.max_supersteps();
        let epoch = distributed.epoch() as u32;
        // Engine-side (barrier) spans use worker == p by convention.
        let engine_worker = num_workers as u32;
        // Reused across supersteps: per-destination delivery counts.
        let mut received: Vec<usize> = Vec::with_capacity(num_workers);

        let (subgraphs, tables) = (distributed.subgraphs(), routing.worker_tables());
        let work = |_: &mut (), job: &mut JobOf<P>| {
            let (subgraph, routes) = (&subgraphs[job.worker], &tables[job.worker]);
            run_worker(program, epoch, recorder, subgraph, routes, job);
        };
        let lanes = match self.mode {
            ExecutionMode::Sequential => 1,
            ExecutionMode::Pooled(n) => n,
        };
        let supersteps = |crew: &mut Crew<'_, (), JobOf<P>>| -> Result<bool> {
            for superstep in 0..max_supersteps {
                // --- Worker phase: computation + scatter ---------------------
                // One crew round: each worker's job runs the program over its
                // subgraph, reading the shards routed to it at the end of the
                // previous superstep in place, and fans its outbox out into
                // its own row of per-destination shards along the
                // precomputed routes — purely job-local state, which moves to
                // its lane and back. A worker runs on the same lane every
                // superstep; placement cannot affect results.
                for job in &mut jobs {
                    job.superstep = superstep;
                    job.enqueued = recorder.start();
                }
                let panics = crew.round(&mut jobs);
                // Panics come back by worker: report the lowest panicking
                // worker, with its own message.
                if let Some((worker, panic)) = panics.into_iter().next() {
                    let message = panic_message(panic);
                    return Err(BspError::WorkerPanicked { worker, message });
                }
                let busiest = crew.busiest(num_workers) as f64;
                recorder.gauge_set("ebv_bsp_pool_chunk_workers", busiest);

                // --- Exchange hand-off ---------------------------------------
                // Hand this superstep's scattered shards to the destination
                // side (a `Vec` swap per cell, no message moves);
                // destinations read them during the next superstep, in
                // ascending source order, so values and counters are
                // identical across modes. The per-destination delivery
                // counts fall out of the same pass — no message needs to be
                // touched to count them.
                let barrier_started = recorder.start();
                exchange::transpose_into(&mut jobs, &mut received);

                // --- Statistics / synchronization ----------------------------
                let mut superstep_stats = SuperstepStats {
                    per_worker: vec![WorkerSuperstepStats::default(); num_workers],
                };
                let mut total_messages = 0usize;
                let mut total_changes = 0usize;
                for (per_worker, job) in superstep_stats.per_worker.iter_mut().zip(&jobs) {
                    let (work, changes, sent) = job.result;
                    per_worker.work = work;
                    per_worker.updates = changes;
                    per_worker.messages_sent = sent;
                    per_worker.messages_received = received[job.worker];
                    total_changes += changes;
                    total_messages += sent;
                }
                stats.supersteps.push(superstep_stats);
                let span_ctx = SpanCtx {
                    epoch,
                    superstep: superstep as u32,
                    worker: engine_worker,
                };
                recorder.span(barrier_started, span_ctx, Phase::Barrier);
                recorder.counter_add("ebv_bsp_messages_total", total_messages as u64);
                recorder.counter_add("ebv_bsp_supersteps_total", 1);

                if program.halt_on_quiescence() && total_messages == 0 && total_changes == 0 {
                    return Ok(true);
                }
            }
            Ok(false)
        };
        let converged = crew(lanes, num_workers, repeat(()), &work, supersteps)?;

        if program.halt_on_quiescence() && !converged {
            return Err(BspError::DidNotConverge { max_supersteps });
        }

        // The counted work-skew counterpart of the wall-clock straggler
        // gauge; `max_mean_ratio` is total (1.0 on empty or all-zero
        // input), so zero-work runs cannot emit NaN/inf into /metrics.
        recorder.gauge_set("ebv_bsp_work_max_mean_ratio", stats.work_max_mean_ratio());

        // Extract the global result from each vertex's master replica: a
        // cold run walks every master, a warm run patches the prior where
        // its masters changed.
        let num_vertices = distributed.num_vertices();
        let global_values = match prior {
            None => walk_masters(subgraphs, &mut jobs, num_vertices),
            Some(prior) => {
                let patched = patch_prior(prior, subgraphs, &mut jobs, num_vertices);
                #[cfg(debug_assertions)]
                assert_the_walk_writes_the_same(&patched, subgraphs, &jobs);
                patched
            }
        };

        // A warm run hands its plane back, emptied, for the graph's next
        // run; a cold run drops it (see `run_opts`). Each transpose swaps
        // every shard with its partner cell's, so after an odd number of
        // supersteps one more brings every shard home: an identical next
        // run then finds each buffer where it grew.
        if prior.is_some() {
            if stats.supersteps.len() % 2 == 1 {
                exchange::transpose_into(&mut jobs, &mut received);
            }
            let plane = jobs.into_iter().map(|mut job| {
                job.mail.empty();
                job.values.clear();
                (job.mail, job.values)
            });
            distributed.plane.put::<P::Message, P::Value>(plane.unzip());
        }

        let outcome = BspOutcome {
            values: global_values,
            supersteps: stats.supersteps.len(),
            stats,
        };
        if let Some(sink) = options.sink {
            sink.publish(&outcome.values, &outcome.stats);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests;
