//! The epoch journal: a bounded ring of per-epoch [`EpochSnapshot`]s fed
//! from the epoch driver through [`Recorder::epoch_applied`], turning the
//! live registry into a *time series* — per-epoch deltas of the phase
//! wall-clock and message counters next to the apply-cost and partition-
//! quality facts of each mutation epoch, exportable as hand-rolled JSON
//! (served live as `GET /epochs.json` by the
//! [`ObsServer`](crate::ObsServer)).
//!
//! [`Recorder::epoch_applied`]: crate::Recorder::epoch_applied

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use crate::recorder::Phase;

/// Default capacity (epochs) of the journal a
/// [`Telemetry`](crate::Telemetry) carries.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// The facts one applied mutation epoch reports through
/// [`Recorder::epoch_applied`](crate::Recorder::epoch_applied): the
/// apply-cost counters of the batch plus the maintained partition-quality
/// metrics after it. Everything here is known to the epoch driver; the
/// telemetry-derived fields (per-phase deltas, straggler ratio, span
/// evictions) are added by the journal when the mark is recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochMark {
    /// Mutation epoch of the distribution *after* the batch applied.
    pub epoch: u64,
    /// 0-based index of the batch within the pipeline run.
    pub batch_index: u32,
    /// Wall-clock seconds the epoch took to apply.
    pub apply_seconds: f64,
    /// Workers whose subgraph was re-built this epoch.
    pub workers_touched: u32,
    /// Total local edges of the re-built workers.
    pub edges_rebuilt: u64,
    /// Edge copies the batch added.
    pub edges_added: u64,
    /// Edge copies the batch removed.
    pub edges_removed: u64,
    /// Live edges of the distribution after the batch.
    pub live_edges: u64,
    /// Maintained replication factor after the batch.
    pub replication_factor: f64,
    /// Maintained edge imbalance after the batch.
    pub edge_imbalance: f64,
}

/// One journal entry: the driver's [`EpochMark`] plus the
/// telemetry-derived deltas attributed to the epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// The driver-reported epoch facts.
    pub mark: EpochMark,
    /// Offset of the record from the tracer's origin, in seconds.
    pub at_seconds: f64,
    /// Recorded wall-clock seconds per phase since the previous snapshot
    /// (the whole history for the first one), in [`Phase::ALL`] order —
    /// the compute/communication/apply time attributable to this epoch's
    /// window.
    pub phase_seconds: [f64; Phase::COUNT],
    /// Routed BSP messages since the previous snapshot.
    pub messages_delta: u64,
    /// The most recent per-superstep straggler ratio (max/mean worker
    /// compute wall-clock; 0.0 until a superstep has been finalized).
    pub straggler_ratio: f64,
    /// Cumulative spans the full span ring had evicted at record time.
    pub spans_dropped: u64,
}

/// The mutable state: the ring plus the cumulative watermarks the
/// per-epoch deltas are computed against.
#[derive(Debug, Default)]
struct JournalInner {
    snapshots: VecDeque<EpochSnapshot>,
    recorded_total: u64,
    last_phase_nanos: [u64; Phase::COUNT],
    last_messages: u64,
}

/// A bounded ring of [`EpochSnapshot`]s: when full, recording a new epoch
/// evicts the oldest. All methods take `&self` (a `Mutex` guards the
/// ring), so the journal can be fed from the epoch loop while HTTP
/// handler threads export it.
#[derive(Debug)]
pub struct EpochJournal {
    capacity: usize,
    inner: Mutex<JournalInner>,
}

impl EpochJournal {
    /// A journal holding up to `capacity` epochs (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        EpochJournal {
            capacity: capacity.max(1),
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Maximum retained epochs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Epochs currently retained.
    pub fn len(&self) -> usize {
        self.lock().snapshots.len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().snapshots.is_empty()
    }

    /// Total epochs ever recorded (including evicted ones).
    pub fn recorded_total(&self) -> u64 {
        self.lock().recorded_total
    }

    /// Records one applied epoch. `phase_nanos` and `messages` are
    /// *cumulative* telemetry totals at record time; the journal stores
    /// their deltas against the previous record, so each snapshot carries
    /// the wall-clock and traffic attributable to its own window.
    pub fn record(
        &self,
        mark: EpochMark,
        at_seconds: f64,
        phase_nanos: [u64; Phase::COUNT],
        messages: u64,
        straggler_ratio: f64,
        spans_dropped: u64,
    ) {
        let mut inner = self.lock();
        let mut phase_seconds = [0.0f64; Phase::COUNT];
        for (i, seconds) in phase_seconds.iter_mut().enumerate() {
            *seconds = phase_nanos[i].saturating_sub(inner.last_phase_nanos[i]) as f64 / 1e9;
        }
        let messages_delta = messages.saturating_sub(inner.last_messages);
        inner.last_phase_nanos = phase_nanos;
        inner.last_messages = messages;
        if inner.snapshots.len() == self.capacity {
            inner.snapshots.pop_front();
        }
        inner.snapshots.push_back(EpochSnapshot {
            mark,
            at_seconds,
            phase_seconds,
            messages_delta,
            straggler_ratio,
            spans_dropped,
        });
        inner.recorded_total += 1;
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<EpochSnapshot> {
        self.lock().snapshots.iter().cloned().collect()
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<EpochSnapshot> {
        self.lock().snapshots.back().cloned()
    }

    /// Origin offset of the most recent snapshot (the staleness anchor of
    /// the `/healthz` route).
    pub(crate) fn last_at_seconds(&self) -> Option<f64> {
        self.lock().snapshots.back().map(|s| s.at_seconds)
    }

    /// Writes the journal as a JSON document into `out` (hand-rolled: no
    /// JSON crate is available offline). Schema:
    ///
    /// ```json
    /// {"recorded_total": 9, "capacity": 1024, "epochs": [
    ///   {"epoch": 1, "batch_index": 0, "at_seconds": 0.51, ...,
    ///    "phase_seconds": {"compute": 0.001, ...}}]}
    /// ```
    pub(crate) fn to_json_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let snapshots = self.snapshots();
        write!(
            out,
            "{{\n  \"recorded_total\": {},\n  \"capacity\": {},\n  \"epochs\": [",
            self.recorded_total(),
            self.capacity,
        )?;
        for (i, snapshot) in snapshots.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let m = &snapshot.mark;
            write!(
                out,
                "{sep}\n    {{\"epoch\": {}, \"batch_index\": {}, \"at_seconds\": {:.9}, \
                 \"apply_seconds\": {:.9}, \"workers_touched\": {}, \"edges_rebuilt\": {}, \
                 \"edges_added\": {}, \"edges_removed\": {}, \"live_edges\": {}, \
                 \"replication_factor\": {:.9}, \"edge_imbalance\": {:.9}, \
                 \"messages_delta\": {}, \"straggler_ratio\": {:.9}, \"spans_dropped\": {}, \
                 \"phase_seconds\": {{",
                m.epoch,
                m.batch_index,
                snapshot.at_seconds,
                m.apply_seconds,
                m.workers_touched,
                m.edges_rebuilt,
                m.edges_added,
                m.edges_removed,
                m.live_edges,
                m.replication_factor,
                m.edge_imbalance,
                snapshot.messages_delta,
                snapshot.straggler_ratio,
                snapshot.spans_dropped,
            )?;
            for (j, phase) in Phase::ALL.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                write!(
                    out,
                    "{sep}\"{}\": {:.9}",
                    phase.name(),
                    snapshot.phase_seconds[j]
                )?;
            }
            write!(out, "}}}}")?;
        }
        writeln!(out, "\n  ]\n}}")
    }

    /// The journal rendered as a JSON document into a fresh `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner.lock().expect("epoch journal lock poisoned")
    }
}

impl Default for EpochJournal {
    fn default() -> Self {
        EpochJournal::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(epoch: u64) -> EpochMark {
        EpochMark {
            epoch,
            batch_index: (epoch - 1) as u32,
            apply_seconds: 0.01,
            workers_touched: 3,
            edges_rebuilt: 100,
            edges_added: 40,
            edges_removed: 10,
            live_edges: 1000 + epoch,
            replication_factor: 1.5,
            edge_imbalance: 1.05,
        }
    }

    fn nanos(compute: u64) -> [u64; Phase::COUNT] {
        let mut out = [0u64; Phase::COUNT];
        out[Phase::Compute.index()] = compute;
        out
    }

    #[test]
    fn deltas_are_computed_against_the_previous_record() {
        let journal = EpochJournal::new(8);
        journal.record(mark(1), 0.5, nanos(2_000_000_000), 100, 1.2, 0);
        journal.record(mark(2), 1.0, nanos(5_000_000_000), 130, 1.3, 0);
        let snapshots = journal.snapshots();
        assert_eq!(snapshots.len(), 2);
        assert!((snapshots[0].phase_seconds[Phase::Compute.index()] - 2.0).abs() < 1e-9);
        assert_eq!(snapshots[0].messages_delta, 100);
        assert!((snapshots[1].phase_seconds[Phase::Compute.index()] - 3.0).abs() < 1e-9);
        assert_eq!(snapshots[1].messages_delta, 30);
        assert_eq!(journal.last().unwrap().mark.epoch, 2);
        assert_eq!(journal.last_at_seconds(), Some(1.0));
        assert_eq!(journal.recorded_total(), 2);
    }

    #[test]
    fn the_ring_is_bounded_and_counts_evictions() {
        let journal = EpochJournal::new(2);
        for epoch in 1..=5u64 {
            journal.record(mark(epoch), epoch as f64, nanos(epoch), epoch, 0.0, 0);
        }
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.recorded_total(), 5);
        let kept: Vec<u64> = journal.snapshots().iter().map(|s| s.mark.epoch).collect();
        assert_eq!(kept, vec![4, 5]);
    }

    #[test]
    fn json_export_carries_one_entry_per_epoch_with_phase_seconds() {
        let journal = EpochJournal::new(8);
        journal.record(mark(1), 0.25, nanos(1_500_000_000), 10, 1.1, 2);
        let json = journal.to_json();
        assert!(json.contains("\"recorded_total\": 1"));
        assert!(json.contains("\"epoch\": 1"));
        assert!(json.contains("\"phase_seconds\": {"));
        assert!(json.contains("\"compute\": 1.5"));
        assert!(json.contains("\"scatter\": 0.0"));
        assert!(json.contains("\"spans_dropped\": 2"));
        // Every phase key appears exactly once per entry.
        for phase in Phase::ALL {
            assert_eq!(json.matches(&format!("\"{}\":", phase.name())).count(), 1);
        }
        // An empty journal still renders a well-formed document.
        let empty = EpochJournal::new(1).to_json();
        assert!(empty.contains("\"epochs\": [\n  ]"));
    }
}
