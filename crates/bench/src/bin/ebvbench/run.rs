//! The run: generate inputs, repeat set-up, replay passes for the requested
//! time, verify, and assemble either the end-to-end or the per-layer
//! metrics.
//!
//! Load is closed-loop from this one thread: each step starts when the
//! previous step and its read block have finished.

use std::collections::BTreeMap;
use std::time::Instant;

use ebv_algorithms::ConnectedComponents;
use ebv_bsp::BspEngine;
use ebv_obs::{NoopRecorder, Telemetry};

use crate::alloc::peak_rss_mb;
use crate::estimator::{iqr_share, median, pass_step_estimate, percentile};
use crate::harness::{PassRecord, Result, WorkDir, Workload};
use crate::machine::{Machine, REFERENCE_MS};
use crate::reads::{ReadTiming, LOOKUPS, NEIGHBORS, READS, TOPKS};
use crate::report::Report;
use crate::trace::{chrome_trace, totals_by_name, LayerTotal, Span, Tracer};

/// Untraced passes a run makes at least, however short `--seconds` is: the
/// estimator needs a median across passes.
const MIN_PASSES: usize = 3;
/// The traced pass's layers must cover this share of its wall time.
const MIN_ATTRIBUTED: f64 = 0.97;

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn unit_ms<'a>(passes: impl IntoIterator<Item = &'a PassRecord>) -> f64 {
    let matrix: Vec<Vec<f64>> = passes
        .into_iter()
        .map(|pass| pass.step_ms.clone())
        .collect();
    pass_step_estimate(&matrix)
}

fn read_matrix(passes: &[PassRecord], pick: impl Fn(&ReadTiming) -> f64) -> f64 {
    let matrix: Vec<Vec<f64>> = passes
        .iter()
        .map(|pass| pass.reads.iter().map(&pick).collect())
        .collect();
    pass_step_estimate(&matrix)
}

/// Operations attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts the steps and reads of `pass` and compares it with `first`.
    fn pass(&mut self, kind: &str, index: usize, pass: &PassRecord, first: &PassRecord) {
        self.attempted += (pass.step_ms.len() * (1 + READS)) as u64;
        let wrong_reads: u64 = pass.reads.iter().map(|read| read.failed).sum();
        if wrong_reads > 0 {
            self.failed += wrong_reads;
            self.notes.push(format!(
                "FAILED: {wrong_reads} wrong reads in {kind} pass {index}"
            ));
        }
        self.check(pass.fingerprint == first.fingerprint, || {
            format!(
                "{kind} pass {index} fingerprint {:016x} != {:016x}",
                pass.fingerprint, first.fingerprint
            )
        });
    }
}

/// Everything a run measured, before it is turned into metrics.
struct Measured {
    setup_s: Vec<f64>,
    /// Span totals of each set-up repetition (empty unless tracing).
    setup_layers: Vec<BTreeMap<&'static str, LayerTotal>>,
    untraced: Vec<PassRecord>,
    traced: Vec<(PassRecord, Vec<Span>)>,
    recorded: Vec<PassRecord>,
    spans_dropped: u64,
}

pub fn run<W: Workload>(workload: &W, args: &RunArgs<'_>) -> Result<Report> {
    let work = WorkDir::create()?;
    let machine = Machine::new();
    let input = workload.generate(args.seed, work.path())?;
    let steps = workload.steps();
    let mut measured = Measured {
        setup_s: Vec::new(),
        setup_layers: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        recorded: Vec::new(),
        spans_dropped: 0,
    };

    // Set-up, repeated; the state of the last repetition is the one used.
    let setup_tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut state = None;
    for rep in 0..workload.setup_reps() {
        // One state at a time, so repetitions do not raise the peak RSS.
        drop(state.take());
        let dir = work.fresh("setup", rep)?;
        let started = Instant::now();
        state = Some(workload.setup(&input, &dir, &setup_tracer)?);
        measured.setup_s.push(started.elapsed().as_secs_f64());
        measured
            .setup_layers
            .push(totals_by_name(&setup_tracer.take_spans()));
    }
    let state = state.ok_or("a workload sets up at least once")?;

    // Passes. Every round makes one untraced pass through the product's
    // entry points; a traced run adds one pass through the unrolled,
    // span-wrapped copy and one with a live telemetry recorder.
    let off = Tracer::disabled();
    let mut end = None;
    let mut longest_round = 0.0f64;
    let measuring = Instant::now();
    let min_rounds = if args.trace { 1 } else { MIN_PASSES };
    while measured.untraced.len() < min_rounds
        || measuring.elapsed().as_secs_f64() + longest_round <= args.seconds
    {
        let round = Instant::now();
        let index = measured.untraced.len();
        // The previous end state is only needed if that pass was the last.
        drop(end.take());
        let dir = work.fresh("pass", index)?;
        let (record, pass_end) =
            workload.pass(&input, &state, &dir, &NoopRecorder, &off, &machine)?;
        measured.untraced.push(record);
        end = Some(pass_end);
        if args.trace {
            let tracer = Tracer::enabled();
            let dir = work.fresh("traced", index)?;
            let (record, _) =
                workload.pass(&input, &state, &dir, &NoopRecorder, &tracer, &machine)?;
            measured.traced.push((record, tracer.take_spans()));

            let telemetry = Telemetry::isolated();
            let dir = work.fresh("recorded", index)?;
            let (record, _) = workload.pass(&input, &state, &dir, &telemetry, &off, &machine)?;
            measured.recorded.push(record);
            measured.spans_dropped += telemetry.dropped();
        }
        longest_round = longest_round.max(round.elapsed().as_secs_f64());
    }
    let end = end.ok_or("at least one pass ran")?;

    // Verification.
    let mut tally = Tally::default();
    let first = &measured.untraced[0];
    for (index, pass) in measured.untraced.iter().enumerate() {
        tally.pass("untraced", index, pass, first);
        tally.check(pass.alloc_bytes == first.alloc_bytes, || {
            format!(
                "pass {index} requested {} bytes, pass 0 requested {}",
                pass.alloc_bytes, first.alloc_bytes
            )
        });
    }
    for (index, (pass, _)) in measured.traced.iter().enumerate() {
        tally.pass("traced", index, pass, first);
    }
    for (index, pass) in measured.recorded.iter().enumerate() {
        tally.pass("recorded", index, pass, first);
    }
    for check in workload.verify(&input, &state, &end)? {
        tally.check(check.ok, || check.name.to_string());
    }

    let mut report = Report::new();
    if args.trace {
        let layers = Layers::new(&measured.traced, steps);
        tally.check(layers.unattributed() <= 1.0 - MIN_ATTRIBUTED, || {
            format!(
                "only {:.2}% of the traced pass is attributed to named layers",
                (1.0 - layers.unattributed()) * 100.0
            )
        });
        per_layer(&mut report, workload, &state, &end, &measured, &layers)?;
        report.push("machine.gather_ms", machine.gather_ms());
        if let Some((_, spans)) = measured.traced.last() {
            let path = work.trace_path(args.workload);
            std::fs::write(&path, chrome_trace(spans))?;
            report.note(format!("wrote {} spans to {}", spans.len(), path.display()));
        }
    } else {
        end_to_end(&mut report, &measured, steps, machine.to_reference())?;
    }

    report.note(format!(
        "workload={} seed={} seconds={} trace={} steps={} setups={} passes={} (+{} traced, {} recorded)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        steps,
        measured.setup_s.len(),
        measured.untraced.len(),
        measured.traced.len(),
        measured.recorded.len(),
    ));
    report.note(format!(
        "machine: gather kernel median {:.2} ms over the run (reference {REFERENCE_MS} ms), \
         timings scaled by {:.4}",
        machine.gather_ms(),
        machine.to_reference(),
    ));
    report.note(format!(
        "mean step ms per untraced pass: {}",
        measured
            .untraced
            .iter()
            .map(|pass| format!("{:.1}", pass.step_ms.iter().sum::<f64>() / steps as f64))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.append(&mut tally.notes);
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    Ok(report)
}

/// The ten end-to-end metrics, from the untraced passes. The three timings
/// are multiplied by `to_reference` (see `machine.rs`).
fn end_to_end(
    report: &mut Report,
    measured: &Measured,
    steps: usize,
    to_reference: f64,
) -> Result<()> {
    let untraced = &measured.untraced;
    let first = &untraced[0];
    report.push("setup_s", median(&measured.setup_s) * to_reference);
    report.push("unit_ms", unit_ms(untraced) * to_reference);
    report.push(
        "read_ns",
        read_matrix(untraced, ReadTiming::total_ns) / READS as f64 * to_reference,
    );
    report.push(
        "alloc_mb_per_unit",
        first.alloc_bytes as f64 / steps as f64 / 1e6,
    );
    report.push("peak_rss_mb", peak_rss_mb()?);
    report.push("replication_factor", first.quality.replication_factor);
    report.push("edge_imbalance", first.quality.edge_imbalance);
    report.push("vertex_imbalance", first.quality.vertex_imbalance);
    report.push("comm_messages", first.counters.messages as f64);
    report.push("msg_imbalance", first.counters.message_imbalance());
    Ok(())
}

/// The per-layer metrics: span self times of the traced passes, exact
/// counters of the untraced ones, and a few probes made here.
fn per_layer<W: Workload>(
    report: &mut Report,
    workload: &W,
    state: &W::State,
    end: &W::End,
    measured: &Measured,
    layers: &Layers,
) -> Result<()> {
    let steps = layers.steps;
    let untraced = &measured.untraced;
    let counters = &untraced[0].counters;
    let base_ms = unit_ms(untraced);
    let traced_ms = unit_ms(measured.traced.iter().map(|(pass, _)| pass));
    let setup_ms = |name: &str| {
        let samples: Vec<f64> = measured
            .setup_layers
            .iter()
            .map(|totals| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6))
            .collect();
        median(&samples)
    };
    let per_unit = |count: u64| count as f64 / steps as f64;
    let per_epoch = |count: u64| count as f64 / counters.epochs.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let engine_ms: f64 = [
        "algorithms.cc",
        "algorithms.sssp",
        "algorithms.pr",
        "algorithms.warm_cc",
        "algorithms.warm_sssp",
        "algorithms.warm_bfs",
    ]
    .iter()
    .map(|name| layers.self_ms(name))
    .sum();
    let dynamic_ms = layers.self_ms("partition.dynamic");
    let cold_cc_ms = |engine: BspEngine| -> Result<f64> {
        let graph = workload.end_graph(end);
        let mut samples = Vec::new();
        for _ in 0..3 {
            let started = Instant::now();
            std::hint::black_box(engine.run(graph, &ConnectedComponents::new())?);
            samples.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&samples))
    };
    let all_steps: Vec<f64> = untraced.iter().flat_map(|p| p.step_ms.clone()).collect();
    let pass_means: Vec<f64> = untraced
        .iter()
        .map(|pass| pass.step_ms.iter().sum::<f64>() / steps as f64)
        .collect();
    let wrong_reads: u64 = untraced
        .iter()
        .flat_map(|pass| pass.reads.iter().map(|read| read.failed))
        .sum();

    // Input and batch partitioning.
    report.push("stream.read_ms", setup_ms("stream.read"));
    report.push("graph.build_ms", setup_ms("graph.build"));
    report.push("partition.batch_ms", layers.self_ms("partition.batch"));
    report.push("partition.order_ms", workload.partition_order_ms(state));
    report.push("partition.metrics_ms", layers.self_ms("partition.metrics"));
    // Dynamic partitioning.
    report.push("partition.dynamic_ms", dynamic_ms);
    report.push(
        "partition.dynamic_events_per_s",
        ratio(per_unit(counters.events), dynamic_ms / 1e3),
    );
    report.push(
        "partition.state_mb",
        counters.partitioner_state_bytes as f64 / 1e6,
    );
    report.push("partition.restore_ms", layers.self_ms("partition.restore"));
    // Distributed graph and engine.
    report.push("bsp.build_ms", layers.self_ms("bsp.build"));
    report.push("bsp.apply_ms", layers.self_ms("bsp.apply"));
    report.push(
        "bsp.apply_workers_touched",
        per_epoch(counters.workers_touched),
    );
    report.push(
        "bsp.apply_rebuild_ratio",
        ratio(counters.edges_rebuilt as f64, counters.edges_changed as f64),
    );
    report.push("bsp.engine_ms", engine_ms);
    report.push("bsp.supersteps", per_unit(counters.supersteps));
    report.push("bsp.messages", per_unit(counters.messages));
    report.push(
        "bsp.us_per_superstep",
        ratio(engine_ms * 1e3, per_unit(counters.supersteps)),
    );
    report.push(
        "bsp.ns_per_message",
        ratio(engine_ms * 1e6, per_unit(counters.messages)),
    );
    // Reported only: threads on two shared vCPUs do not repeat.
    report.push("bsp.seq_cc_ms", cold_cc_ms(BspEngine::sequential())?);
    report.push("bsp.pooled2_cc_ms", cold_cc_ms(BspEngine::pooled(2))?);
    // Programs.
    for (metric, span) in [
        ("algorithms.cc_ms", "algorithms.cc"),
        ("algorithms.sssp_ms", "algorithms.sssp"),
        ("algorithms.pr_ms", "algorithms.pr"),
        ("algorithms.warm_build_ms", "algorithms.warm_build"),
        ("algorithms.warm_cc_ms", "algorithms.warm_cc"),
        ("algorithms.warm_sssp_ms", "algorithms.warm_sssp"),
        ("algorithms.warm_bfs_ms", "algorithms.warm_bfs"),
    ] {
        report.push(metric, layers.self_ms(span));
    }
    report.push(
        "algorithms.cone_vertices",
        per_epoch(counters.cone_vertices),
    );
    // Pipeline, state and serving. `dynamic.pipeline_ms` is the product's
    // own loop against the benchmark's unrolled copy of it: what the
    // pipeline costs beyond the calls it makes.
    let unrolled_ms = layers.total_ms("step") - layers.self_ms("step");
    report.push(
        "dynamic.pipeline_ms",
        if dynamic_ms > 0.0 {
            base_ms - unrolled_ms
        } else {
            0.0
        },
    );
    report.push(
        "dynamic.cancelled_events",
        per_epoch(counters.cancelled_events),
    );
    report.push("state.wal_append_ms", layers.self_ms("state.wal_append"));
    report.push(
        "state.wal_kb_per_epoch",
        per_epoch(counters.wal_bytes) / 1e3,
    );
    report.push("state.stage_ms", layers.self_ms("state.stage"));
    report.push("state.checkpoint_ms", layers.self_ms("state.checkpoint"));
    report.push(
        "state.checkpoint_mb",
        ratio(
            counters.checkpoint_bytes as f64 / 1e6,
            counters.checkpoints as f64,
        ),
    );
    report.push("state.open_ms", layers.self_ms("state.open"));
    report.push(
        "state.rebuild_ms",
        layers.self_ms("state.rebuild") + layers.self_ms("state.seed"),
    );
    report.push("state.replay_ms", layers.total_ms("state.replay"));
    report.push("state.replayed_frames", per_unit(counters.replayed_frames));
    report.push("serve.commit_ms", layers.self_ms("serve.commit"));
    report.push(
        "serve.lookup_ns",
        read_matrix(untraced, |read| read.lookup_ns) / LOOKUPS as f64,
    );
    report.push(
        "serve.topk_us",
        read_matrix(untraced, |read| read.topk_ns) / TOPKS as f64 / 1e3,
    );
    report.push(
        "serve.neighbors_ns",
        read_matrix(untraced, |read| read.neighbors_ns) / NEIGHBORS as f64,
    );
    report.push("serve.read_errors", wrong_reads as f64);
    // Overheads and spread.
    report.push(
        "obs.recorder_overhead_pct",
        (unit_ms(&measured.recorded) - base_ms) / base_ms * 100.0,
    );
    report.push("obs.spans_dropped", measured.spans_dropped as f64);
    report.push(
        "trace.overhead_pct",
        (traced_ms - base_ms) / base_ms * 100.0,
    );
    report.push("trace.unattributed_pct", layers.unattributed() * 100.0);
    report.push("unit.ms_p50", percentile(&all_steps, 50.0));
    report.push("unit.ms_p95", percentile(&all_steps, 95.0));
    report.push("unit.ms_spread_pct", iqr_share(&pass_means) * 100.0);
    Ok(())
}

/// Per-layer times of the traced passes: the median across passes of each
/// layer's time per step.
struct Layers {
    passes: Vec<BTreeMap<&'static str, LayerTotal>>,
    steps: usize,
}

impl Layers {
    fn new(traced: &[(PassRecord, Vec<Span>)], steps: usize) -> Self {
        Layers {
            passes: traced
                .iter()
                .map(|(_, spans)| totals_by_name(spans))
                .collect(),
            steps,
        }
    }

    fn per_step_ms(&self, name: &str, pick: impl Fn(&LayerTotal) -> u64) -> f64 {
        let samples: Vec<f64> = self
            .passes
            .iter()
            .map(|totals| totals.get(name).map_or(0, &pick) as f64 / 1e6 / self.steps as f64)
            .collect();
        median(&samples)
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.per_step_ms(name, |total| total.self_ns)
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.per_step_ms(name, |total| total.total_ns)
    }

    /// Share of the traced wall time (steps plus read blocks) that belongs
    /// to no named layer: the self time of the two root spans.
    fn unattributed(&self) -> f64 {
        let total = self.total_ms("step") + self.total_ms("read");
        if total > 0.0 {
            (self.self_ms("step") + self.self_ms("read")) / total
        } else {
            1.0
        }
    }
}
