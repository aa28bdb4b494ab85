//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files (the product is not
//! instrumented for this): every public call of the traced pass is wrapped
//! in a [`Tracer::span`], kept in memory, aggregated by *self time* (a
//! span's duration minus the part its children cover) and written out as
//! Chrome trace-event JSON when the run ends. A disabled tracer reads no
//! clock and stores nothing, so untraced passes share the code path.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `bsp.apply`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The step (epoch) the span belongs to: spans of one step share it.
    pub step: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Sum of self times, in nanoseconds.
    pub self_ns: u64,
    /// Sum of full durations, in nanoseconds.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    step: Cell<u32>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            step: Cell::new(0),
        }
    }

    /// A tracer whose spans cost one branch and record nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with `step`.
    pub fn set_step(&self, step: usize) {
        self.step.set(step as u32);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: open.last().copied(),
            step: self.step.get(),
        });
        open.push(index);
        // Read the clock last so the bookkeeping above lands in the parent.
        spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `call` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        call()
    }

    /// Takes the closed spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        assert!(
            self.open.borrow().is_empty(),
            "spans are taken between steps, with none open"
        );
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.origin.elapsed().as_nanos() as u64;
            self.tracer.spans.borrow_mut()[index].end_ns = now;
            let closed = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }
}

/// Self time, total time and count per span name. A span's self time is its
/// duration minus the durations of its direct children.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = totals.entry(span.name).or_default();
        entry.self_ns += span.duration_ns().saturating_sub(children);
        entry.total_ns += span.duration_ns();
        entry.count += 1;
    }
    totals
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the step as `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ebvbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.step,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("engine", 40, 90, Some(0)),
            // A grandchild shortens `engine`'s self time, not `step`'s.
            span("exchange", 50, 70, Some(2)),
            span("apply", 100, 110, None),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["step"],
            LayerTotal {
                self_ns: 20,
                total_ns: 100,
                count: 1
            }
        );
        assert_eq!(
            totals["apply"],
            LayerTotal {
                self_ns: 40,
                total_ns: 40,
                count: 2
            }
        );
        assert_eq!(totals["engine"].self_ns, 30);
        assert_eq!(totals["exchange"].self_ns, 20);
        // Self times partition the roots' wall time exactly.
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 110);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let tracer = Tracer::enabled();
        tracer.set_step(3);
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || std::hint::black_box(1 + 1));
        }
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.step == 3));
        assert!(tracer.take_spans().is_empty());

        let off = Tracer::disabled();
        off.time("ignored", || ());
        assert!(off.take_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let json = chrome_trace(&[
            span("a.b", 1_000, 3_500, None),
            span("c", 2_000, 3_000, Some(0)),
        ]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"a.b\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.starts_with("{\"traceEvents\":[") && json.trim_end().ends_with("]}"));
    }
}
