//! The span tracer: the [`Telemetry`] recorder and its bounded ring of
//! timed phase spans, exportable as Chrome trace-event JSON (loadable in
//! `chrome://tracing` or Perfetto), with per-worker phase attribution, a
//! per-superstep straggler gauge and a bounded [`EpochJournal`] of applied
//! mutation epochs. The ring, the per-worker totals and the straggler
//! window sit under one `Mutex`; the ring loses a span only by evicting
//! its oldest when full.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::journal::{EpochJournal, EpochMark};
use crate::recorder::{Phase, Recorder, SpanCtx};
use crate::registry::{Histogram, MetricsRegistry};

/// One completed span: a phase with its hierarchy coordinates and its
/// start/duration relative to the tracer's origin instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The instrumented phase.
    pub phase: Phase,
    /// Where in the epoch → superstep → worker hierarchy the span sits.
    pub ctx: SpanCtx,
    /// Start offset from the tracer's origin, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
}

/// Default span-ring capacity (spans) of a [`Telemetry`] built with
/// [`Telemetry::new`] / [`Telemetry::isolated`].
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Cap on per-worker attribution tracks; spans from worker indices past
/// the cap are folded into the last track.
const MAX_WORKER_TRACKS: usize = 1024;

/// The rolling per-superstep compute window behind the straggler gauge:
/// compute-span durations accumulate per `(epoch, superstep)` key and the
/// window finalizes (publishing max/mean) when the key advances — sound
/// because the engine's barrier joins order every superstep-`S` compute
/// span before the first span of `S + 1`.
#[derive(Debug, Default)]
struct StragglerWindow {
    key: Option<(u32, u32)>,
    compute_nanos: Vec<u64>,
    last_ratio: f64,
}

impl StragglerWindow {
    fn observe(&mut self, registry: &MetricsRegistry, ctx: SpanCtx, duration_nanos: u64) {
        let key = (ctx.epoch, ctx.superstep);
        if self.key != Some(key) {
            self.finalize(registry);
            self.key = Some(key);
        }
        self.compute_nanos.push(duration_nanos);
    }

    /// Publishes the window's max/mean compute ratio (if it holds any
    /// spans) to the `ebv_bsp_straggler_ratio` gauge and resets it.
    fn finalize(&mut self, registry: &MetricsRegistry) {
        self.key = None;
        if self.compute_nanos.is_empty() {
            return;
        }
        let max = *self.compute_nanos.iter().max().expect("non-empty") as f64;
        let mean = self.compute_nanos.iter().sum::<u64>() as f64 / self.compute_nanos.len() as f64;
        self.last_ratio = if mean > 0.0 { max / mean } else { 1.0 };
        self.compute_nanos.clear();
        registry
            .gauge("ebv_bsp_straggler_ratio")
            .set(self.last_ratio);
    }
}

/// Everything a span writes, kept under [`Telemetry`]'s one lock.
#[derive(Debug)]
struct TraceState {
    /// The newest `capacity` spans, oldest first.
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    /// Spans pushed out of the front of a full ring.
    evicted: u64,
    /// Cumulative recorded nanoseconds per (worker, phase).
    worker_nanos: Vec<[u64; Phase::COUNT]>,
    straggler: StragglerWindow,
}

impl TraceState {
    fn push(&mut self, record: SpanRecord) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.evicted += 1;
        }
        self.spans.push_back(record);
        let worker = (record.ctx.worker as usize).min(MAX_WORKER_TRACKS - 1);
        if self.worker_nanos.len() <= worker {
            self.worker_nanos.resize(worker + 1, [0; Phase::COUNT]);
        }
        self.worker_nanos[worker][record.phase.index()] += record.duration_nanos;
    }

    /// Cumulative recorded nanoseconds per phase (summed over workers), in
    /// [`Phase::ALL`] order.
    fn phase_nanos(&self) -> [u64; Phase::COUNT] {
        let mut out = [0u64; Phase::COUNT];
        for track in &self.worker_nanos {
            for (total, nanos) in out.iter_mut().zip(track) {
                *total += nanos;
            }
        }
        out
    }
}

/// The real [`Recorder`]: spans land in a bounded ring with `Instant`
/// timings *and* feed per-phase latency histograms, per-(worker, phase)
/// wall-clock totals and the per-superstep straggler gauge;
/// counters/gauges/histograms go to a [`MetricsRegistry`]; applied
/// mutation epochs land in a bounded [`EpochJournal`]. Every read-side
/// accessor takes `&self`, so an [`ObsServer`](crate::ObsServer) can
/// export live from other threads while the run is hot.
///
/// The ring, the totals and the straggler window share one `Mutex`, which
/// a span takes once. A span is lost only when the full ring evicts it
/// ([`Telemetry::dropped`]).
///
/// [`Telemetry::new`] reports into the process-wide
/// [`MetricsRegistry::global`]; [`Telemetry::isolated`] uses a private
/// registry (tests, overhead benchmarks).
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    /// Each phase's latency histogram in `registry`, by
    /// [`Phase::index`], resolved by the phase's first span: a span then
    /// observes it without a registry lookup, and a phase nothing recorded
    /// stays out of `/metrics`.
    histograms: [OnceLock<Arc<Histogram>>; Phase::COUNT],
    /// All span timestamps are offsets from this instant.
    origin: Instant,
    state: Mutex<TraceState>,
    journal: EpochJournal,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A tracer over the process-wide global registry with the default
    /// ring capacity.
    pub fn new() -> Self {
        Telemetry::with_capacity(MetricsRegistry::global().clone(), DEFAULT_RING_CAPACITY)
    }

    /// A tracer over a fresh private registry (no cross-talk with the
    /// global one) with the default ring capacity.
    pub fn isolated() -> Self {
        Telemetry::with_capacity(MetricsRegistry::new(), DEFAULT_RING_CAPACITY)
    }

    /// A tracer over `registry` with a ring of `capacity` spans (rounded
    /// up to 1).
    pub fn with_capacity(registry: MetricsRegistry, capacity: usize) -> Self {
        Telemetry {
            registry,
            histograms: Default::default(),
            origin: Instant::now(),
            state: Mutex::new(TraceState {
                spans: VecDeque::new(),
                capacity: capacity.max(1),
                evicted: 0,
                worker_nanos: Vec::new(),
                straggler: StragglerWindow::default(),
            }),
            journal: EpochJournal::default(),
        }
    }

    /// The registry this tracer reports metrics into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The journal of applied mutation epochs this tracer maintains.
    pub fn journal(&self) -> &EpochJournal {
        &self.journal
    }

    /// Seconds elapsed since the tracer's origin instant (the time base of
    /// every span timestamp and journal record).
    pub(crate) fn elapsed_seconds(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Spans the full ring evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.lock().evicted
    }

    /// The retained spans, oldest first, copied without draining the ring.
    /// Writers wait while the copy holds the lock: about 0.2 ms for a full
    /// 65,536-span ring (medians 0.17–0.22 ms, p90 under 0.25 ms, over six
    /// runs of 201 copies; release build, 2-vCPU Xeon). `/trace.json`
    /// renders its ~8 MB of JSON from the copy, after the lock is released.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.iter().copied().collect()
    }

    /// Total recorded wall-clock seconds per phase since the tracer was
    /// created — the measured counterpart of the `CostModel` breakdown.
    /// Returned in [`Phase::ALL`] order. Unlike the span ring this is
    /// cumulative: it never forgets evicted spans.
    pub fn phase_totals(&self) -> Vec<(Phase, f64)> {
        let nanos = self.lock().phase_nanos();
        Phase::ALL
            .iter()
            .map(|&phase| (phase, nanos[phase.index()] as f64 / 1e9))
            .collect()
    }

    /// Cumulative recorded wall-clock seconds per (worker, phase), indexed
    /// `[worker][phase.index()]` — the data behind the labeled
    /// `ebv_worker_phase_seconds` Prometheus families.
    pub fn worker_phase_seconds(&self) -> Vec<[f64; Phase::COUNT]> {
        self.lock()
            .worker_nanos
            .iter()
            .map(|track| track.map(|nanos| nanos as f64 / 1e9))
            .collect()
    }

    /// The most recently finalized per-superstep straggler ratio: max/mean
    /// worker compute wall-clock of one superstep (1.0 = perfectly even;
    /// 0.0 until a superstep has been finalized).
    pub fn straggler_ratio(&self) -> f64 {
        self.lock().straggler.last_ratio
    }

    /// Renders the ring as a Chrome trace-event JSON document into `out`
    /// (complete `ph: "X"` duration events; microsecond timestamps),
    /// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
    /// Workers map to `tid`s so each worker gets its own track;
    /// engine-side spans (`worker == p`) land on their own track above the
    /// workers. Non-destructive and repeatable; the rendering runs on a
    /// copy, outside the lock.
    pub(crate) fn chrome_trace_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let spans = self.spans();
        out.write_str("{\"traceEvents\":[")?;
        for (i, span) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"epoch\":{},\"superstep\":{},\"worker\":{}}}}}",
                span.phase.name(),
                span.phase.category(),
                span.start_nanos / 1_000,
                (span.duration_nanos / 1_000).max(1),
                span.ctx.worker,
                span.ctx.epoch,
                span.ctx.superstep,
                span.ctx.worker,
            )?;
        }
        out.write_str("\n]}\n")
    }

    /// The recorded spans as a Chrome trace-event JSON document in a fresh
    /// `String`. Non-destructive and repeatable.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::new();
        self.chrome_trace_into(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Renders the live registry in the Prometheus text exposition format
    /// into `out`, followed by the labeled per-worker attribution families
    /// (`ebv_worker_phase_seconds{worker="3",phase="compute"}`) the
    /// bare-name registry cannot hold.
    pub(crate) fn prometheus_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.registry.snapshot().to_prometheus_into(out)?;
        let workers = self.worker_phase_seconds();
        if workers
            .iter()
            .any(|track| track.iter().any(|&seconds| seconds > 0.0))
        {
            writeln!(out, "# TYPE ebv_worker_phase_seconds counter")?;
            for (worker, track) in workers.iter().enumerate() {
                for (i, &seconds) in track.iter().enumerate() {
                    if seconds > 0.0 {
                        writeln!(
                            out,
                            "ebv_worker_phase_seconds{{worker=\"{worker}\",phase=\"{}\"}} \
                             {seconds:.9}",
                            Phase::ALL[i].name(),
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The live registry in the Prometheus text exposition format, followed
    /// by the labeled per-worker attribution families, in a fresh `String`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        self.prometheus_into(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Records one finished span: the ring, the worker totals and (for a
    /// compute span) the straggler window, under one lock.
    fn record(&self, record: SpanRecord) {
        let mut state = self.lock();
        state.push(record);
        if record.phase == Phase::Compute {
            state
                .straggler
                .observe(&self.registry, record.ctx, record.duration_nanos);
        }
    }

    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().expect("telemetry lock poisoned")
    }
}

impl Recorder for Telemetry {
    #[inline]
    fn start(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    fn span(&self, started: Option<Instant>, ctx: SpanCtx, phase: Phase) {
        let Some(started) = started else { return };
        let duration = started.elapsed();
        let histogram = self.histograms[phase.index()]
            .get_or_init(|| self.registry.histogram(phase.histogram_name()));
        histogram.observe(duration.as_secs_f64());
        self.record(SpanRecord {
            phase,
            ctx,
            start_nanos: started.saturating_duration_since(self.origin).as_nanos() as u64,
            duration_nanos: duration.as_nanos() as u64,
        });
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    fn observe_seconds(&self, name: &'static str, seconds: f64) {
        self.registry.histogram(name).observe(seconds);
    }

    fn epoch_applied(&self, mark: &EpochMark) {
        let (phase_nanos, straggler_ratio, dropped) = {
            let mut state = self.lock();
            state.straggler.finalize(&self.registry);
            (
                state.phase_nanos(),
                state.straggler.last_ratio,
                state.evicted,
            )
        };
        let messages = self.registry.counter("ebv_bsp_messages_total").get();
        self.journal.record(
            *mark,
            self.elapsed_seconds(),
            phase_nanos,
            messages,
            straggler_ratio,
            dropped,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The `index`-th span of a test sequence: its superstep is `index`,
    /// its worker and duration are the caller's.
    fn numbered(index: u32, worker: u32, duration_nanos: u64) -> SpanRecord {
        SpanRecord {
            phase: Phase::Scatter,
            ctx: SpanCtx {
                epoch: 0,
                superstep: index,
                worker,
            },
            start_nanos: index as u64 * 10,
            duration_nanos,
        }
    }

    fn supersteps(spans: &[SpanRecord]) -> Vec<u32> {
        spans.iter().map(|span| span.ctx.superstep).collect()
    }

    /// A span whose duration the test controls: `started` is synthesized
    /// `millis` in the past, so `started.elapsed()` measures ≈ `millis`.
    fn timed_span(telemetry: &Telemetry, ctx: SpanCtx, phase: Phase, millis: u64) {
        let started = Instant::now()
            .checked_sub(Duration::from_millis(millis))
            .expect("the clock reaches back a few milliseconds");
        telemetry.span(Some(started), ctx, phase);
    }

    /// A compute span of exactly `duration_nanos`.
    fn compute_span(telemetry: &Telemetry, ctx: SpanCtx, duration_nanos: u64) {
        telemetry.record(SpanRecord {
            phase: Phase::Compute,
            ctx,
            start_nanos: 0,
            duration_nanos,
        });
    }

    #[test]
    fn ring_preserves_order_and_wraps() {
        let telemetry = Telemetry::with_capacity(MetricsRegistry::new(), 4);
        for i in 0..6 {
            telemetry.record(numbered(i, 0, 5));
        }
        assert_eq!(supersteps(&telemetry.spans()), vec![2, 3, 4, 5]);
        assert_eq!(telemetry.dropped(), 2);
        // The totals are cumulative: the evicted spans still count.
        assert_eq!(telemetry.lock().phase_nanos()[Phase::Scatter.index()], 30);
    }

    #[test]
    fn ring_accepts_concurrent_writers() {
        let telemetry = Telemetry::with_capacity(MetricsRegistry::new(), 1 << 12);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let telemetry = &telemetry;
                scope.spawn(move || {
                    for i in 0..500 {
                        telemetry.record(numbered(i, worker, worker as u64 + 1));
                    }
                });
            }
        });
        let spans = telemetry.spans();
        assert_eq!(spans.len(), 2_000);
        assert_eq!(telemetry.dropped(), 0);
        let scatter = Phase::Scatter.index();
        let state = telemetry.lock();
        assert_eq!(state.worker_nanos.len(), 4);
        for worker in 0..4u32 {
            let mine: Vec<u32> = spans
                .iter()
                .filter(|span| span.ctx.worker == worker)
                .map(|span| span.ctx.superstep)
                .collect();
            // Each writer's spans survive whole and in its own push order.
            assert_eq!(mine, (0..500).collect::<Vec<u32>>());
            let nanos = state.worker_nanos[worker as usize];
            let expected = 500 * (worker as u64 + 1);
            assert_eq!(nanos[scatter], expected);
            assert_eq!(nanos.iter().sum::<u64>(), expected);
        }
    }

    #[test]
    fn snapshot_is_non_destructive_and_concurrent_with_writers() {
        const CAPACITY: usize = 1 << 8;
        const PUSHES: u32 = 20_000;
        let telemetry = Telemetry::with_capacity(MetricsRegistry::new(), CAPACITY);
        // The writer hands the reader a turn every 1,000 pushes (a
        // rendezvous channel), so at least 20 snapshots overlap the writes.
        let (turn, turns) = std::sync::mpsc::sync_channel::<()>(0);
        std::thread::scope(|scope| {
            let telemetry_ref = &telemetry;
            scope.spawn(move || {
                for i in 0..PUSHES {
                    if i % 1_000 == 500 {
                        turn.send(()).expect("the reader waits for every turn");
                    }
                    telemetry_ref.record(numbered(i, 0, 5));
                }
            });
            // Span `i` is the `i`-th push, so a snapshot must read
            // `first, first + 1, …`, full once anything was evicted, and
            // start at the eviction count of its own instant.
            let mut snapshots = 0;
            for () in turns {
                let evicted_before = telemetry.dropped();
                let spans = supersteps(&telemetry.spans());
                let evicted_after = telemetry.dropped();
                let first = spans[0];
                let run: Vec<u32> = (first..first + spans.len() as u32).collect();
                assert_eq!(spans, run);
                assert!((evicted_before..=evicted_after).contains(&(first as u64)));
                if first > 0 {
                    assert_eq!(spans.len(), CAPACITY);
                }
                snapshots += 1;
            }
            assert_eq!(snapshots, 20);
        });
        // Non-destructive: repeated snapshots agree once writers are done.
        assert_eq!(telemetry.spans(), telemetry.spans());
        let last = PUSHES - CAPACITY as u32;
        assert_eq!(
            supersteps(&telemetry.spans()),
            (last..PUSHES).collect::<Vec<u32>>()
        );
        assert_eq!(telemetry.dropped(), last as u64);
    }

    #[test]
    fn telemetry_records_spans_and_histograms() {
        let telemetry = Telemetry::isolated();
        let started = telemetry.start();
        assert!(started.is_some());
        let ctx = SpanCtx {
            epoch: 2,
            superstep: 7,
            worker: 3,
        };
        telemetry.span(started, ctx, Phase::Compute);
        telemetry.counter_add("probe_total", 2);
        telemetry.gauge_set("probe_gauge", 1.5);

        let snapshot = telemetry.registry().snapshot();
        assert_eq!(snapshot.counters, vec![("probe_total".to_string(), 2)]);
        assert_eq!(
            snapshot
                .histograms
                .iter()
                .map(|h| h.name.as_str())
                .collect::<Vec<_>>(),
            vec![Phase::Compute.histogram_name()]
        );
        assert_eq!(snapshot.histograms[0].count, 1);

        let spans = telemetry.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::Compute);
        assert_eq!(spans[0].ctx, ctx);
    }

    /// A tracer resolves each phase histogram once, and it is the
    /// registry's: two tracers over one registry, and later spans of one
    /// tracer, observe into the same histogram.
    #[test]
    fn phase_histograms_are_the_registrys() {
        let registry = MetricsRegistry::new();
        let tracers = [0, 1].map(|_| Telemetry::with_capacity(registry.clone(), 4));
        for telemetry in tracers.iter().chain(&tracers) {
            telemetry.span(telemetry.start(), SpanCtx::default(), Phase::Barrier);
        }
        let histogram = registry.histogram(Phase::Barrier.histogram_name());
        assert_eq!(histogram.count(), 4);
        assert_eq!(registry.snapshot().histograms.len(), 1);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let telemetry = Telemetry::isolated();
        for worker in 0..2 {
            let started = telemetry.start();
            telemetry.span(
                started,
                SpanCtx {
                    epoch: 1,
                    superstep: 4,
                    worker,
                },
                Phase::Compute,
            );
        }
        let json = telemetry.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"cat\":\"bsp\""));
        assert!(json.contains("\"superstep\":4"));
        // Durations are clamped to ≥ 1µs so Perfetto renders them.
        assert!(!json.contains("\"dur\":0"));
        // Non-destructive: a second render sees the same spans.
        assert_eq!(json, telemetry.chrome_trace());
    }

    #[test]
    fn phase_totals_sum_durations() {
        let telemetry = Telemetry::isolated();
        let ctx = SpanCtx::default();
        for _ in 0..3 {
            timed_span(&telemetry, ctx, Phase::Barrier, 2);
        }
        let totals = telemetry.phase_totals();
        let barrier = totals
            .iter()
            .find(|(phase, _)| *phase == Phase::Barrier)
            .expect("barrier total present")
            .1;
        assert!(
            barrier >= 3e-3,
            "3 × 2ms spans should sum past 3ms, got {barrier}"
        );
        let compute = totals.iter().find(|(p, _)| *p == Phase::Compute).unwrap().1;
        assert_eq!(compute, 0.0);
    }

    #[test]
    fn worker_attribution_feeds_labeled_families_and_straggler_gauge() {
        let telemetry = Telemetry::isolated();
        // Superstep 0: worker 1 computes 4× longer than workers 0 and 2.
        for (worker, millis) in [(0u32, 5u64), (1, 20), (2, 5)] {
            let ctx = SpanCtx {
                epoch: 0,
                superstep: 0,
                worker,
            };
            timed_span(&telemetry, ctx, Phase::Compute, millis);
        }
        // The first span of superstep 1 finalizes superstep 0's window.
        timed_span(
            &telemetry,
            SpanCtx {
                epoch: 0,
                superstep: 1,
                worker: 0,
            },
            Phase::Compute,
            5,
        );

        let workers = telemetry.worker_phase_seconds();
        assert_eq!(workers.len(), 3);
        // Worker 0 computed 5ms twice (supersteps 0 and 1), worker 1 20ms.
        let compute = Phase::Compute.index();
        assert!(workers[1][compute] > workers[0][compute] * 1.5);

        // max/mean of (5, 20, 5) = 20/10 = 2, measured with real clocks.
        let ratio = telemetry.straggler_ratio();
        assert!((1.5..3.0).contains(&ratio), "straggler ratio {ratio}");
        assert_eq!(
            telemetry.registry().gauge("ebv_bsp_straggler_ratio").get(),
            ratio
        );

        let prometheus = telemetry.prometheus();
        assert!(prometheus.contains("# TYPE ebv_worker_phase_seconds counter"));
        assert!(prometheus.contains("ebv_worker_phase_seconds{worker=\"1\",phase=\"compute\"}"));
        assert!(prometheus.contains("# TYPE ebv_bsp_straggler_ratio gauge"));
    }

    #[test]
    fn epoch_applied_records_into_the_journal() {
        let telemetry = Telemetry::isolated();
        timed_span(&telemetry, SpanCtx::default(), Phase::Compute, 3);
        telemetry.counter_add("ebv_bsp_messages_total", 42);
        let mark = EpochMark {
            epoch: 1,
            batch_index: 0,
            apply_seconds: 0.004,
            workers_touched: 2,
            edges_rebuilt: 120,
            edges_added: 50,
            edges_removed: 10,
            live_edges: 4000,
            replication_factor: 1.4,
            edge_imbalance: 1.1,
        };
        telemetry.epoch_applied(&mark);
        assert_eq!(telemetry.journal().len(), 1);
        let snapshot = telemetry.journal().last().expect("one epoch recorded");
        assert_eq!(snapshot.mark, mark);
        assert_eq!(snapshot.messages_delta, 42);
        assert!(snapshot.phase_seconds[Phase::Compute.index()] >= 2e-3);
        // The pending compute window was force-finalized by the epoch.
        assert!(snapshot.straggler_ratio > 0.0);
        assert!(snapshot.at_seconds >= 0.0);
    }

    /// Zero-work guard: a superstep whose compute spans all measure zero
    /// wall-clock (trivial subgraphs, quiesced worklists) must finalize to
    /// the neutral ratio 1.0 — never `0/0 = NaN` — in both the gauge and
    /// the accessor.
    #[test]
    fn straggler_ratio_is_finite_for_zero_duration_supersteps() {
        let telemetry = Telemetry::isolated();
        for worker in 0..3u32 {
            compute_span(
                &telemetry,
                SpanCtx {
                    epoch: 0,
                    superstep: 0,
                    worker,
                },
                0,
            );
        }
        // Advancing the window key finalizes superstep 0's all-zero window.
        compute_span(
            &telemetry,
            SpanCtx {
                epoch: 0,
                superstep: 1,
                worker: 0,
            },
            0,
        );
        let ratio = telemetry.straggler_ratio();
        assert!(ratio.is_finite(), "ratio {ratio} must be finite");
        assert_eq!(ratio, 1.0, "all-zero compute is perfectly even");
        let gauge = telemetry.registry().gauge("ebv_bsp_straggler_ratio").get();
        assert!(gauge.is_finite());
        assert_eq!(gauge, 1.0);
    }

    /// Zero-worker guard: an epoch that ran no compute spans at all (an
    /// empty mutation batch, or a graph whose workers were all idle) must
    /// not disturb the last finite ratio, and everything it journals stays
    /// finite.
    #[test]
    fn empty_compute_windows_journal_finite_straggler_ratios() {
        let telemetry = Telemetry::isolated();
        let mark = EpochMark {
            epoch: 1,
            ..EpochMark::default()
        };
        // No compute span was ever recorded: the window is empty.
        telemetry.epoch_applied(&mark);
        let snapshot = telemetry.journal().last().expect("epoch recorded");
        assert!(snapshot.straggler_ratio.is_finite());
        assert_eq!(snapshot.straggler_ratio, 0.0, "no superstep finalized yet");

        // A real superstep, then another empty epoch: the finalized ratio
        // must survive unchanged (and finite) through the empty window.
        for (worker, nanos) in [(0u32, 1_000_000u64), (1, 3_000_000)] {
            compute_span(
                &telemetry,
                SpanCtx {
                    epoch: 2,
                    superstep: 0,
                    worker,
                },
                nanos,
            );
        }
        telemetry.epoch_applied(&EpochMark {
            epoch: 2,
            ..EpochMark::default()
        });
        let finalized = telemetry.straggler_ratio();
        assert!((finalized - 1.5).abs() < 1e-12, "max/mean of (1, 3) ms");
        telemetry.epoch_applied(&EpochMark {
            epoch: 3,
            ..EpochMark::default()
        });
        assert_eq!(telemetry.straggler_ratio(), finalized);
        let snapshot = telemetry.journal().last().expect("epoch recorded");
        assert!(snapshot.straggler_ratio.is_finite());
        assert_eq!(snapshot.straggler_ratio, finalized);
    }
}
