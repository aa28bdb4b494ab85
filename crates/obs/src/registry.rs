//! The process-wide metrics registry: atomic counters, gauges and
//! fixed-bucket latency histograms, snapshot-able to JSON and renderable
//! in the Prometheus text exposition format.
//!
//! Everything is `std`-only and lock-free on the hot path: metric handles
//! are plain atomics behind `Arc`s; the registry maps names to handles
//! under an `RwLock` that is only write-locked the first time a name is
//! seen.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Upper bucket bounds (seconds) of every latency histogram: a 1-2-5
/// ladder from 1µs to 100s. Latencies above the last bound land in the
/// implicit overflow (`+Inf`) bucket.
pub const BUCKET_BOUNDS: [f64; 25] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
];

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds `delta` to the counter and returns the value before the add —
    /// one atomic read-modify-write that both counts and numbers an event.
    #[inline]
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, Ordering::Relaxed)
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as its bit pattern in
/// an atomic word).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS`] plus an
/// overflow bucket, with total count and sum, supporting quantile
/// extraction (p50/p99) by linear interpolation within the hit bucket.
#[derive(Debug)]
pub struct Histogram {
    /// One count per bound, plus the trailing overflow bucket.
    counts: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of all observations, in nanoseconds (a u64 holds > 500 years).
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, seconds: f64) {
        let seconds = seconds.max(0.0);
        let bucket = BUCKET_BOUNDS
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated from the buckets: the
    /// target rank is located in its bucket and linearly interpolated
    /// between the bucket's bounds. Observations in the overflow bucket
    /// report the last finite bound. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let previous = cumulative;
            cumulative += count;
            if cumulative >= target {
                if i >= BUCKET_BOUNDS.len() {
                    return BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1];
                }
                let lower = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
                let upper = BUCKET_BOUNDS[i];
                let within = (target - previous) as f64 / count as f64;
                return lower + (upper - lower) * within;
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
    }
}

/// The name-keyed metric maps. `BTreeMap` keeps snapshots in a
/// deterministic (sorted) order.
#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// A registry of named metrics. Cheap to clone (the clone shares the same
/// metrics); [`MetricsRegistry::global`] is the process-wide instance every
/// default [`Telemetry`](crate::Telemetry) reports into.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

fn get_or_register<T: Default>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
) -> Arc<T> {
    if let Some(found) = map.read().expect("metrics lock poisoned").get(name) {
        return Arc::clone(found);
    }
    Arc::clone(
        map.write()
            .expect("metrics lock poisoned")
            .entry(name)
            .or_default(),
    )
}

impl MetricsRegistry {
    /// Creates an empty, private registry (tests and overhead benchmarks
    /// use this to avoid cross-talk with the global instance).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The named counter, registered on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        get_or_register(&self.inner.counters, name)
    }

    /// The named gauge, registered on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        get_or_register(&self.inner.gauges, name)
    }

    /// The named histogram, registered on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        get_or_register(&self.inner.histograms, name)
    }

    /// A point-in-time copy of every registered metric, in sorted name
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, counter)| (name.to_string(), counter.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, gauge)| (name.to_string(), gauge.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, histogram)| {
                let buckets: Vec<(f64, u64)> = BUCKET_BOUNDS
                    .iter()
                    .enumerate()
                    .map(|(i, &bound)| (bound, histogram.counts[i].load(Ordering::Relaxed)))
                    .collect();
                let overflow = histogram.counts[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
                HistogramSnapshot {
                    name: name.to_string(),
                    count: histogram.count(),
                    sum_seconds: histogram.sum_seconds(),
                    p50: histogram.quantile(0.50),
                    p99: histogram.quantile(0.99),
                    buckets,
                    overflow,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations in seconds.
    pub sum_seconds: f64,
    /// Estimated median latency in seconds.
    pub p50: f64,
    /// Estimated 99th-percentile latency in seconds.
    pub p99: f64,
    /// Per-bucket `(upper_bound_seconds, count)` pairs (non-cumulative).
    pub buckets: Vec<(f64, u64)>,
    /// Observations above the last finite bound.
    pub overflow: u64,
}

/// A point-in-time copy of a whole registry, in sorted name order —
/// serializable to JSON ([`to_json`](MetricsSnapshot::to_json)) or the
/// Prometheus text exposition format
/// ([`to_prometheus`](MetricsSnapshot::to_prometheus)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` of every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` of every gauge.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

fn assert_bare_name(name: &str) -> &str {
    debug_assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "metric names are bare identifiers: {name:?}"
    );
    name
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON document into `out` (hand-rolled:
    /// no JSON crate is available offline). Writing into a
    /// caller-supplied sink lets HTTP handlers and large exports stream
    /// without building intermediate strings.
    pub fn to_json_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\n  \"counters\": {")?;
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\n    \"{}\": {value}", assert_bare_name(name))?;
        }
        out.write_str("\n  },\n  \"gauges\": {")?;
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\n    \"{}\": {value:.9}", assert_bare_name(name))?;
        }
        out.write_str("\n  },\n  \"histograms\": [")?;
        for (i, histogram) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"count\": {}, \"sum_seconds\": {:.9}, \
                 \"p50_seconds\": {:.9}, \"p99_seconds\": {:.9}}}",
                assert_bare_name(&histogram.name),
                histogram.count,
                histogram.sum_seconds,
                histogram.p50,
                histogram.p99,
            )?;
        }
        out.write_str("\n  ]\n}\n")
    }

    /// [`to_json_into`](Self::to_json_into) into a fresh `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format into
    /// `out` (counters, gauges and cumulative histogram buckets with
    /// `+Inf`).
    pub fn to_prometheus_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        for (name, value) in &self.counters {
            let name = assert_bare_name(name);
            writeln!(out, "# TYPE {name} counter")?;
            writeln!(out, "{name} {value}")?;
        }
        for (name, value) in &self.gauges {
            let name = assert_bare_name(name);
            writeln!(out, "# TYPE {name} gauge")?;
            writeln!(out, "{name} {value}")?;
        }
        for histogram in &self.histograms {
            let name = assert_bare_name(&histogram.name);
            writeln!(out, "# TYPE {name} histogram")?;
            let mut cumulative = 0u64;
            for &(bound, count) in &histogram.buckets {
                cumulative += count;
                writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}")?;
            }
            cumulative += histogram.overflow;
            writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}")?;
            writeln!(out, "{name}_sum {}", histogram.sum_seconds)?;
            writeln!(out, "{name}_count {}", histogram.count)?;
        }
        Ok(())
    }

    /// [`to_prometheus_into`](Self::to_prometheus_into) into a fresh
    /// `String`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        self.to_prometheus_into(&mut out)
            .expect("writing to a String cannot fail");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    /// A compact human-readable summary: one line per metric, histograms
    /// reduced to count/p50/p99.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name} {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "{name} {value:.4}")?;
        }
        for histogram in &self.histograms {
            writeln!(
                f,
                "{} count {} sum {:.6}s p50 {:.6}s p99 {:.6}s",
                histogram.name,
                histogram.count,
                histogram.sum_seconds,
                histogram.p50,
                histogram.p99
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        registry.counter("events_total").add(3);
        registry.counter("events_total").add(4);
        registry.gauge("live_edges").set(42.5);
        assert_eq!(registry.counter("events_total").get(), 7);
        assert_eq!(registry.gauge("live_edges").get(), 42.5);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters, vec![("events_total".to_string(), 7)]);
        assert_eq!(snapshot.gauges, vec![("live_edges".to_string(), 42.5)]);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        // 100 observations spread evenly inside the (1ms, 2ms] bucket.
        for _ in 0..100 {
            h.observe(1.5e-3);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(p50 > 1e-3 && p50 <= 2e-3, "p50 {p50} outside its bucket");
        let p99 = h.quantile(0.99);
        assert!(p99 > p50 && p99 <= 2e-3);
        // An empty histogram reports zero, overflow reports the last bound.
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        let huge = Histogram::default();
        huge.observe(1e6);
        assert_eq!(huge.quantile(0.5), BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
        assert_eq!(huge.count(), 1);
    }

    #[test]
    fn histogram_sum_accumulates_seconds() {
        let h = Histogram::default();
        h.observe(0.25);
        h.observe(0.5);
        assert!((h.sum_seconds() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let registry = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = registry.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        registry.counter("shared_total").add(1);
                        registry.histogram("lat_seconds").observe(1e-4);
                    }
                });
            }
        });
        assert_eq!(registry.counter("shared_total").get(), 4000);
        assert_eq!(registry.histogram("lat_seconds").count(), 4000);
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let registry = MetricsRegistry::new();
        registry.counter("msgs_total").add(5);
        registry.gauge("imbalance").set(1.25);
        registry.histogram("run_seconds").observe(3e-3);
        let snapshot = registry.snapshot();

        let json = snapshot.to_json();
        assert!(json.contains("\"msgs_total\": 5"));
        assert!(json.contains("\"imbalance\": 1.25"));
        assert!(json.contains("\"run_seconds\""));
        assert!(json.contains("\"p99_seconds\""));

        let prom = snapshot.to_prometheus();
        assert!(prom.contains("# TYPE msgs_total counter"));
        assert!(prom.contains("msgs_total 5"));
        assert!(prom.contains("# TYPE imbalance gauge"));
        assert!(prom.contains("# TYPE run_seconds histogram"));
        assert!(prom.contains("run_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("run_seconds_count 1"));

        let display = snapshot.to_string();
        assert!(display.contains("msgs_total 5"));
        assert!(display.contains("p99"));
    }

    #[test]
    fn global_registry_is_shared() {
        MetricsRegistry::global()
            .counter("global_probe_total")
            .add(1);
        let again = MetricsRegistry::global().counter("global_probe_total");
        assert!(again.get() >= 1);
    }
}
