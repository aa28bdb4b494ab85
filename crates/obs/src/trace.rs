//! The span tracer: a bounded lock-free ring of timed phase spans and the
//! [`Telemetry`] recorder that feeds it, exportable as Chrome trace-event
//! JSON (loadable in `chrome://tracing` or Perfetto), with per-worker
//! phase attribution, a per-superstep straggler gauge and a bounded
//! [`EpochJournal`] of applied mutation epochs.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use crate::journal::{EpochJournal, EpochMark};
use crate::recorder::{Phase, Recorder, SpanCtx};
use crate::registry::MetricsRegistry;

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

/// Sentinel sequence value marking a slot a writer currently owns.
const WRITING: u64 = u64::MAX;

/// One ring slot. The payload is four plain atomic words (context packed
/// as `epoch << 32 | superstep`, metadata as `worker << 32 | phase index`)
/// so readers can take a *seqlock-style* snapshot concurrently with
/// writers: no `UnsafeCell`, no `unsafe`, torn reads detected and
/// discarded by re-checking `seq`.
#[derive(Debug)]
struct Slot {
    /// `0` = never written, `ticket + 1` = committed by that ticket,
    /// [`WRITING`] = a writer owns the slot right now.
    seq: AtomicU64,
    /// `epoch << 32 | superstep`.
    ctx_bits: AtomicU64,
    /// `worker << 32 | phase index` (into [`Phase::ALL`]).
    meta_bits: AtomicU64,
    start_nanos: AtomicU64,
    duration_nanos: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ctx_bits: AtomicU64::new(0),
            meta_bits: AtomicU64::new(0),
            start_nanos: AtomicU64::new(0),
            duration_nanos: AtomicU64::new(0),
        }
    }
}

/// A bounded lock-free multi-producer ring of [`SpanRecord`]s.
///
/// Writers take a ticket with one `fetch_add`, claim their slot with a
/// `swap`, and drop the span (counting it) if another writer still owns
/// the slot — no spinning, no locks on the hot path. When the ring wraps,
/// the oldest spans are overwritten; [`SpanRing::dropped`] reports spans
/// lost to slot contention. [`SpanRing::snapshot`] reads the committed
/// spans *without* stopping writers — slots that change mid-read are
/// detected via their sequence word and skipped, so a live HTTP scrape
/// never blocks or corrupts the hot path.
#[derive(Debug)]
pub(crate) struct SpanRing {
    slots: Box<[Slot]>,
    /// Next ticket; slot index is `ticket % slots.len()`.
    head: AtomicU64,
    /// Spans dropped because their slot was still owned by another writer.
    dropped: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding up to `capacity` spans (rounded up to 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans dropped because of slot contention (distinct from the silent
    /// overwrite of old spans when the ring wraps).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pushes one span. Lock-free: on slot contention the span is dropped
    /// and counted rather than waited for.
    pub(crate) fn push(&self, record: SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        if slot.seq.swap(WRITING, Ordering::Acquire) == WRITING {
            // Another writer owns this slot (the ring lapped it mid-write);
            // losing one span beats blocking a worker thread.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ctx_bits = (record.ctx.epoch as u64) << 32 | record.ctx.superstep as u64;
        let meta_bits = (record.ctx.worker as u64) << 32 | record.phase.index() as u64;
        slot.ctx_bits.store(ctx_bits, Ordering::Relaxed);
        slot.meta_bits.store(meta_bits, Ordering::Relaxed);
        slot.start_nanos
            .store(record.start_nanos, Ordering::Relaxed);
        slot.duration_nanos
            .store(record.duration_nanos, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Reads the committed spans in ticket order (oldest surviving span
    /// first) **without** draining the ring or stopping writers. Each slot
    /// is validated seqlock-style: read the sequence word, read the
    /// payload, re-check the sequence word — a slot a writer touched in
    /// between fails the re-check and is skipped, exactly like a span
    /// dropped to contention.
    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        let oldest = head.saturating_sub(capacity);
        let mut out = Vec::with_capacity((head - oldest) as usize);
        for ticket in oldest..head {
            let slot = &self.slots[(ticket % capacity) as usize];
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue; // dropped, lapped, mid-write, or never committed
            }
            let ctx_bits = slot.ctx_bits.load(Ordering::Relaxed);
            let meta_bits = slot.meta_bits.load(Ordering::Relaxed);
            let start_nanos = slot.start_nanos.load(Ordering::Relaxed);
            let duration_nanos = slot.duration_nanos.load(Ordering::Relaxed);
            // The fence orders the payload loads before the sequence
            // re-check: if `seq` is unchanged, no writer overlapped the
            // reads above and the payload is a consistent commit.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != ticket + 1 {
                continue;
            }
            let Some(phase) = Phase::from_index((meta_bits & u32::MAX as u64) as usize) else {
                continue;
            };
            out.push(SpanRecord {
                phase,
                ctx: SpanCtx {
                    epoch: (ctx_bits >> 32) as u32,
                    superstep: ctx_bits as u32,
                    worker: (meta_bits >> 32) as u32,
                },
                start_nanos,
                duration_nanos,
            });
        }
        out
    }
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

/// The real [`Recorder`]: spans land in a bounded lock-free span ring
/// with `Instant` timings *and* feed per-phase latency histograms, per-
/// (worker, phase) wall-clock totals and the per-superstep straggler
/// gauge; counters/gauges/histograms go to a [`MetricsRegistry`]; applied
/// mutation epochs land in a bounded [`EpochJournal`]. Every read-side
/// accessor takes `&self`, so an [`ObsServer`](crate::ObsServer) can
/// export live from other threads while the run is hot.
///
/// [`Telemetry::new`] reports into the process-wide
/// [`MetricsRegistry::global`]; [`Telemetry::isolated`] uses a private
/// registry (tests, overhead benchmarks).
#[derive(Debug)]
pub struct Telemetry {
    ring: SpanRing,
    registry: MetricsRegistry,
    /// All span timestamps are offsets from this instant.
    origin: Instant,
    /// Cumulative recorded nanoseconds per (worker, phase). Read-locked on
    /// the span path; write-locked only to grow to a new worker index.
    worker_totals: RwLock<Vec<[AtomicU64; Phase::COUNT]>>,
    straggler: Mutex<StragglerWindow>,
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

    /// A tracer over `registry` with a ring of `capacity` spans.
    pub fn with_capacity(registry: MetricsRegistry, capacity: usize) -> Self {
        Telemetry {
            ring: SpanRing::new(capacity),
            registry,
            origin: Instant::now(),
            worker_totals: RwLock::new(Vec::new()),
            straggler: Mutex::new(StragglerWindow::default()),
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

    /// Spans dropped on ring-slot contention.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The committed spans in ticket order (oldest first), read without
    /// draining the ring or stopping writers.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Cumulative recorded nanoseconds per phase (summed over workers), in
    /// [`Phase::ALL`] order.
    pub(crate) fn phase_nanos(&self) -> [u64; Phase::COUNT] {
        let tracks = self.lock_tracks_read();
        let mut out = [0u64; Phase::COUNT];
        for track in tracks.iter() {
            for (total, cell) in out.iter_mut().zip(track.iter()) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total recorded wall-clock seconds per phase since the tracer was
    /// created — the measured counterpart of the `CostModel` breakdown.
    /// Returned in [`Phase::ALL`] order. Unlike the span ring this is
    /// cumulative: it never forgets spans to wrapping or contention.
    pub fn phase_totals(&self) -> Vec<(Phase, f64)> {
        let nanos = self.phase_nanos();
        Phase::ALL
            .iter()
            .map(|&phase| (phase, nanos[phase.index()] as f64 / 1e9))
            .collect()
    }

    /// Cumulative recorded wall-clock seconds per (worker, phase), indexed
    /// `[worker][phase.index()]` — the data behind the labeled
    /// `ebv_worker_phase_seconds` Prometheus families.
    pub fn worker_phase_seconds(&self) -> Vec<[f64; Phase::COUNT]> {
        self.lock_tracks_read()
            .iter()
            .map(|track| {
                let mut seconds = [0.0f64; Phase::COUNT];
                for (out, cell) in seconds.iter_mut().zip(track.iter()) {
                    *out = cell.load(Ordering::Relaxed) as f64 / 1e9;
                }
                seconds
            })
            .collect()
    }

    /// The most recently finalized per-superstep straggler ratio: max/mean
    /// worker compute wall-clock of one superstep (1.0 = perfectly even;
    /// 0.0 until a superstep has been finalized).
    pub fn straggler_ratio(&self) -> f64 {
        self.lock_straggler().last_ratio
    }

    /// Renders the ring as a Chrome trace-event JSON document into `out`
    /// (complete `ph: "X"` duration events; microsecond timestamps),
    /// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
    /// Workers map to `tid`s so each worker gets its own track;
    /// engine-side spans (`worker == p`) land on their own track above the
    /// workers. Non-destructive: concurrent with writers and repeatable.
    pub(crate) fn chrome_trace_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let spans = self.ring.snapshot();
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
    /// `String`. Non-destructive: concurrent with writers and repeatable.
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

    fn attribute(&self, worker: u32, phase: Phase, duration_nanos: u64) {
        let index = (worker as usize).min(MAX_WORKER_TRACKS - 1);
        {
            let tracks = self.lock_tracks_read();
            if let Some(track) = tracks.get(index) {
                track[phase.index()].fetch_add(duration_nanos, Ordering::Relaxed);
                return;
            }
        }
        let mut tracks = self
            .worker_totals
            .write()
            .expect("worker totals lock poisoned");
        while tracks.len() <= index {
            tracks.push(std::array::from_fn(|_| AtomicU64::new(0)));
        }
        tracks[index][phase.index()].fetch_add(duration_nanos, Ordering::Relaxed);
    }

    fn observe_compute(&self, ctx: SpanCtx, duration_nanos: u64) {
        let mut window = self.lock_straggler();
        let key = (ctx.epoch, ctx.superstep);
        if window.key != Some(key) {
            Telemetry::finalize_window(&self.registry, &mut window);
            window.key = Some(key);
        }
        window.compute_nanos.push(duration_nanos);
    }

    /// Publishes the window's max/mean compute ratio (if it holds any
    /// spans) to the `ebv_bsp_straggler_ratio` gauge and resets it.
    fn finalize_window(registry: &MetricsRegistry, window: &mut StragglerWindow) {
        window.key = None;
        if window.compute_nanos.is_empty() {
            return;
        }
        let max = *window.compute_nanos.iter().max().expect("non-empty") as f64;
        let mean =
            window.compute_nanos.iter().sum::<u64>() as f64 / window.compute_nanos.len() as f64;
        window.last_ratio = if mean > 0.0 { max / mean } else { 1.0 };
        window.compute_nanos.clear();
        registry
            .gauge("ebv_bsp_straggler_ratio")
            .set(window.last_ratio);
    }

    fn lock_tracks_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<[AtomicU64; Phase::COUNT]>> {
        self.worker_totals
            .read()
            .expect("worker totals lock poisoned")
    }

    fn lock_straggler(&self) -> std::sync::MutexGuard<'_, StragglerWindow> {
        self.straggler.lock().expect("straggler lock poisoned")
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
        let start_nanos = started.saturating_duration_since(self.origin).as_nanos() as u64;
        let duration_nanos = duration.as_nanos() as u64;
        self.ring.push(SpanRecord {
            phase,
            ctx,
            start_nanos,
            duration_nanos,
        });
        self.registry
            .histogram(phase.histogram_name())
            .observe(duration.as_secs_f64());
        self.attribute(ctx.worker, phase, duration_nanos);
        if phase == Phase::Compute {
            self.observe_compute(ctx, duration_nanos);
        }
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
        {
            let mut window = self.lock_straggler();
            Telemetry::finalize_window(&self.registry, &mut window);
        }
        let messages = self.registry.counter("ebv_bsp_messages_total").get();
        self.journal.record(
            *mark,
            self.elapsed_seconds(),
            self.phase_nanos(),
            messages,
            self.straggler_ratio(),
            self.dropped(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(ticket_hint: u64) -> SpanRecord {
        SpanRecord {
            phase: Phase::Compute,
            ctx: SpanCtx {
                epoch: 0,
                superstep: ticket_hint as u32,
                worker: 0,
            },
            start_nanos: ticket_hint * 10,
            duration_nanos: 5,
        }
    }

    /// A span whose duration the test controls: `started` is synthesized
    /// `millis` in the past, so `started.elapsed()` measures ≈ `millis`.
    fn timed_span(telemetry: &Telemetry, ctx: SpanCtx, phase: Phase, millis: u64) {
        let started = Instant::now()
            .checked_sub(Duration::from_millis(millis))
            .expect("the clock reaches back a few milliseconds");
        telemetry.span(Some(started), ctx, phase);
    }

    #[test]
    fn ring_preserves_order_and_wraps() {
        let ring = SpanRing::new(4);
        for i in 0..6 {
            ring.push(record(i));
        }
        let spans = ring.snapshot();
        // Capacity 4, pushed 6: the oldest two were overwritten.
        assert_eq!(spans.len(), 4);
        let supersteps: Vec<u32> = spans.iter().map(|s| s.ctx.superstep).collect();
        assert_eq!(supersteps, vec![2, 3, 4, 5]);
        assert_eq!(ring.head.load(Ordering::Relaxed), 6);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_accepts_concurrent_writers() {
        let ring = SpanRing::new(1 << 12);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500 {
                        ring.push(SpanRecord {
                            phase: Phase::Scatter,
                            ctx: SpanCtx {
                                epoch: 0,
                                superstep: i,
                                worker,
                            },
                            start_nanos: 0,
                            duration_nanos: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(ring.head.load(Ordering::Relaxed), 2000);
        // Nothing wrapped, so every span not dropped to contention survives.
        assert_eq!(ring.snapshot().len() as u64 + ring.dropped(), 2000);
    }

    #[test]
    fn snapshot_is_non_destructive_and_concurrent_with_writers() {
        let ring = SpanRing::new(1 << 8);
        std::thread::scope(|scope| {
            let writer = {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        ring.push(record(i));
                    }
                })
            };
            // Scrape repeatedly while the writer laps the ring many times;
            // every span a snapshot surfaces must be internally consistent.
            while !writer.is_finished() {
                for span in ring.snapshot() {
                    assert_eq!(span.phase, Phase::Compute);
                    assert_eq!(span.start_nanos, span.ctx.superstep as u64 * 10);
                    assert_eq!(span.duration_nanos, 5);
                }
            }
        });
        // Non-destructive: repeated snapshots agree once writers are done.
        assert_eq!(ring.snapshot(), ring.snapshot());
        assert_eq!(ring.snapshot().len(), 1 << 8);
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
            telemetry.observe_compute(
                SpanCtx {
                    epoch: 0,
                    superstep: 0,
                    worker,
                },
                0,
            );
        }
        // Advancing the window key finalizes superstep 0's all-zero window.
        telemetry.observe_compute(
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
            telemetry.observe_compute(
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
