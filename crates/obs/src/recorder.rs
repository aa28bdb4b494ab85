//! The [`Recorder`] trait — the single instrumentation surface every
//! runtime crate reports through — and its zero-cost no-op default.

use std::time::Instant;

use crate::journal::EpochMark;

/// The instrumented phases of the runtime, the `name` a span carries into
/// the Chrome trace and the per-phase latency histograms.
///
/// The span hierarchy follows the paper's evaluation structure — epoch →
/// superstep → worker → phase — so a trace can attribute wall-clock time to
/// exactly the quantities the modeled `CostModel` breakdown of `ebv-bsp`
/// predicts: `Compute`/`Scatter` are the two stages of one worker's
/// superstep, `Barrier` is the engine-side synchronization slice,
/// and the remaining phases cover the mutation, warm-start and streaming
/// paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Running the subgraph program over one worker's subgraph. Workers
    /// read their inbound shards in place here, so the receive side of the
    /// exchange has no phase of its own.
    Compute,
    /// Fanning the outbox out along the precomputed routes.
    Scatter,
    /// The engine-side synchronization slice of one superstep: thread
    /// joins, the shard-matrix transpose and the counter fold.
    Barrier,
    /// One `DistributedGraph::apply_mutations` epoch.
    MutationApply,
    /// The route derivation inside a mutation epoch: every worker's route
    /// table re-derived from the replica table. Its label stays
    /// `routing_patch`, because journals and trace consumers key on it.
    RoutingPatch,
    /// Warm-start invalidation: building the dirty set / deletion cone an
    /// incremental program re-activates.
    WarmInvalidation,
    /// The partition decision of one `EventPipeline` batch: pulling its
    /// events, placing every insert and retiring every delete in the
    /// `DynamicPartitioner`, and in-batch cancellation.
    PartitionDecide,
    /// Absorbing one `EventPipeline::run_applied` batch into the
    /// distribution (`apply_mutations`, which nests `mutation_apply`); the
    /// partition decision before it is [`Phase::PartitionDecide`].
    EpochApply,
}

impl Phase {
    /// Number of phases (one past the last variant): every per-phase array,
    /// [`Phase::ALL`] included, is sized from it.
    pub(crate) const COUNT: usize = Phase::EpochApply as usize + 1;

    /// Every phase, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Compute,
        Phase::Scatter,
        Phase::Barrier,
        Phase::MutationApply,
        Phase::RoutingPatch,
        Phase::WarmInvalidation,
        Phase::PartitionDecide,
        Phase::EpochApply,
    ];

    /// The phase's position in [`Phase::ALL`] (its declaration index).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`index`](Phase::index): `None` past the last phase.
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }

    /// The stable snake_case name used as the Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Scatter => "scatter",
            Phase::Barrier => "barrier",
            Phase::MutationApply => "mutation_apply",
            Phase::RoutingPatch => "routing_patch",
            Phase::WarmInvalidation => "warm_invalidation",
            Phase::PartitionDecide => "partition_decide",
            Phase::EpochApply => "epoch_apply",
        }
    }

    /// The Chrome-trace category (`cat`) the phase belongs to.
    pub(crate) fn category(self) -> &'static str {
        match self {
            Phase::Compute | Phase::Scatter | Phase::Barrier => "bsp",
            Phase::MutationApply | Phase::RoutingPatch => "mutation",
            Phase::WarmInvalidation | Phase::PartitionDecide | Phase::EpochApply => "dynamic",
        }
    }

    /// The name of the per-phase latency histogram the tracer feeds.
    pub(crate) fn histogram_name(self) -> &'static str {
        match self {
            Phase::Compute => "ebv_phase_compute_seconds",
            Phase::Scatter => "ebv_phase_scatter_seconds",
            Phase::Barrier => "ebv_phase_barrier_seconds",
            Phase::MutationApply => "ebv_phase_mutation_apply_seconds",
            Phase::RoutingPatch => "ebv_phase_routing_patch_seconds",
            Phase::WarmInvalidation => "ebv_phase_warm_invalidation_seconds",
            Phase::PartitionDecide => "ebv_phase_partition_decide_seconds",
            Phase::EpochApply => "ebv_phase_epoch_apply_seconds",
        }
    }
}

/// Where in the execution hierarchy a span sits: mutation epoch of the
/// distribution it ran on, superstep within the run (or chunk/batch index
/// for streaming spans) and worker (partition) index.
///
/// By convention engine-side spans that belong to no single worker (the
/// superstep [`Phase::Barrier`], mutation epochs) use `worker == p`, one
/// past the last worker row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// Mutation epoch of the distributed graph (0 for fresh builds).
    pub epoch: u32,
    /// Superstep within the run; chunk or batch index for streaming spans.
    pub superstep: u32,
    /// Worker (partition) index; `p` for engine-side spans.
    pub worker: u32,
}

/// The instrumentation surface of the runtime crates.
///
/// Every hook has an empty `#[inline]` default, so the bundled
/// [`NoopRecorder`] is a unit struct whose calls monomorphize to nothing —
/// in particular [`start`](Recorder::start) returns `None` without ever
/// reading the clock, so an uninstrumented run performs **zero** timing
/// syscalls. [`Telemetry`](crate::Telemetry) overrides every hook with the
/// real registry + tracer.
///
/// Recorders must be [`Sync`]: the threaded BSP engine calls
/// [`span`](Recorder::span) from its worker threads.
pub trait Recorder: Sync {
    /// Samples the clock for a span about to begin. The no-op default
    /// returns `None`, which makes the matching [`span`](Recorder::span)
    /// call free.
    #[inline]
    fn start(&self) -> Option<Instant> {
        None
    }

    /// Records a span that began at `started` (from [`start`]) and ends
    /// now. A `None` start is ignored.
    ///
    /// [`start`]: Recorder::start
    #[inline]
    fn span(&self, _started: Option<Instant>, _ctx: SpanCtx, _phase: Phase) {}

    /// Adds `delta` to the named monotonic counter.
    #[inline]
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    /// Sets the named gauge to `value`.
    #[inline]
    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    /// Records one observation into the named latency histogram.
    #[inline]
    fn observe_seconds(&self, _name: &'static str, _seconds: f64) {}

    /// Reports one applied mutation epoch. The epoch driver
    /// (`EventPipeline::run_applied_opts`) calls this once per non-empty
    /// batch, after the mutations landed; [`Telemetry`](crate::Telemetry)
    /// turns the mark into an [`EpochSnapshot`](crate::EpochSnapshot) in
    /// its bounded [`EpochJournal`](crate::EpochJournal).
    #[inline]
    fn epoch_applied(&self, _mark: &EpochMark) {}
}

/// The zero-cost default recorder: every hook is an empty inline body, so
/// instrumented code paths compile down to exactly the uninstrumented
/// code. The equivalence property suite additionally asserts that enabling
/// a real recorder changes no program value and no `ExecutionStats`
/// counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_never_samples_the_clock() {
        let recorder = NoopRecorder;
        assert!(recorder.start().is_none());
        // The remaining hooks are no-ops; exercising them documents that
        // they are safe to call unconditionally.
        recorder.span(None, SpanCtx::default(), Phase::Compute);
        recorder.counter_add("x", 1);
        recorder.gauge_set("y", 2.0);
        recorder.observe_seconds("z", 0.5);
    }

    #[test]
    fn phase_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
        for (index, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), index);
            assert_eq!(Phase::from_index(index), Some(phase));
        }
        assert_eq!(Phase::from_index(Phase::COUNT), None);
        assert_eq!(Phase::PartitionDecide.name(), "partition_decide");
        assert_eq!(Phase::PartitionDecide.category(), "dynamic");
        assert_eq!(Phase::Compute.name(), "compute");
        assert_eq!(Phase::Compute.category(), "bsp");
        assert!(Phase::Barrier.histogram_name().ends_with("_seconds"));
    }
}
