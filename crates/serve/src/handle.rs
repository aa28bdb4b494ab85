//! The read half of the query plane: [`QueryHandle`], with the snapshot
//! pin each handle keeps and the one counter every read pays.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

use crate::store::{ready, GraphSnapshot, QueryError, QueryValue, StoreShared};

/// One read in this many is timed into `ebv_query_read_seconds` (see
/// [`QueryHandle`] for why).
const READ_SAMPLE_EVERY: u64 = 64;

/// The read half of the query plane: cheap to clone, usable from any
/// thread (scrapers, HTTP handlers, benchmark hammers).
///
/// A handle keeps its own pinned snapshot, filed under the store
/// generation it was current at: a read loads the generation once and
/// re-pins only when a commit has moved it, so between commits a read does
/// no atomic read-modify-write on the store's shared lines except its one
/// count. The pin sits behind a `Mutex` the read takes with `try_lock`; if
/// it is busy — one handle shared across threads, or a read nested in
/// another on the same handle — the read pins the published snapshot for
/// itself instead, so a reader never waits for another reader. A clone
/// starts its own pin. A handle keeps the snapshot it last read alive until
/// its next read or its drop (the retention rule on
/// [`SnapshotStore`](crate::SnapshotStore)).
///
/// Every read attempt, `NotReady` ones included, is counted into the
/// store's registry (`ebv_query_reads_total`, exact), and the count before
/// it is its sampling tick: a fixed systematic sample of one attempt in 64
/// — the first, the 65th, … of the store's attempts, whichever handle made
/// them — is timed into `ebv_query_read_seconds`. A clock read costs about
/// twice the lookup itself, so timing every read would make the latency it
/// reports mostly the cost of measuring it; the sample keeps p50/p99 for
/// the one relaxed counter increment each read pays anyway. A sampled
/// read's clock starts before the snapshot is pinned, so lock waits stay
/// in the sample.
pub struct QueryHandle {
    shared: Arc<StoreShared>,
    /// The snapshot this handle last read and the generation it was
    /// current at. Only a cache: a poisoned lock is recovered.
    pin: Mutex<(u64, Arc<GraphSnapshot>)>,
}

// Handles are cloned into reader threads and shared by the obs server's
// accept threads.
const _: fn() = || {
    fn shareable<T: Clone + Send + Sync>() {}
    shareable::<QueryHandle>();
};

impl Clone for QueryHandle {
    /// A handle on the same store with a pin of its own.
    fn clone(&self) -> QueryHandle {
        QueryHandle::new(Arc::clone(&self.shared))
    }
}

impl QueryHandle {
    pub(crate) fn new(shared: Arc<StoreShared>) -> QueryHandle {
        let pin = Mutex::new(shared.pin());
        QueryHandle { shared, pin }
    }

    /// Runs `read` on the current snapshot: the handle's pin, re-pinned
    /// first if a commit has moved the generation, or — when the pin is
    /// busy — a pin of the published snapshot taken for this read alone.
    fn with_current<T>(&self, read: impl FnOnce(&Arc<GraphSnapshot>) -> T) -> T {
        let mut pin = match self.pin.try_lock() {
            Ok(pin) => pin,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return read(&self.shared.current()),
        };
        let generation = self.shared.generation.load(Ordering::Acquire);
        if pin.0 != generation {
            *pin = (generation, self.shared.current());
        }
        read(&pin.1)
    }

    /// The current epoch's complete snapshot — the zero-copy entry point
    /// for batched reads; the `Arc` keeps the epoch alive against later
    /// flips.
    ///
    /// # Errors
    ///
    /// [`QueryError::NotReady`] before the first commit.
    pub fn snapshot(&self) -> Result<Arc<GraphSnapshot>, QueryError> {
        self.with_current(|snapshot| ready(snapshot).map(|_| Arc::clone(snapshot)))
    }

    /// Point lookup: vertex `vertex`'s value in series `name`.
    ///
    /// # Errors
    ///
    /// [`QueryError`] as for [`GraphSnapshot::lookup`].
    pub fn lookup(&self, name: &str, vertex: u64) -> Result<QueryValue, QueryError> {
        self.timed(|snapshot| snapshot.lookup(name, vertex))
    }

    /// Top-k query — see [`GraphSnapshot::topk`].
    ///
    /// # Errors
    ///
    /// [`QueryError`] as for [`GraphSnapshot::topk`].
    pub fn topk(
        &self,
        name: &str,
        k: usize,
        descending: bool,
    ) -> Result<Vec<(u64, QueryValue)>, QueryError> {
        self.timed(|snapshot| snapshot.topk(name, k, descending))
    }

    /// Neighborhood query: `vertex`'s sorted out-neighbors.
    ///
    /// # Errors
    ///
    /// [`QueryError`] as for [`GraphSnapshot::neighbors`].
    pub fn neighbors(&self, vertex: u64) -> Result<Vec<u64>, QueryError> {
        self.timed(|snapshot| snapshot.neighbors(vertex).map(|n| n.to_vec()))
    }

    /// Runs `read` against one snapshot, counting it — and, if it falls on
    /// the 1-in-64 sample, timing it — as a single read attempt. The HTTP
    /// handlers use this too, so a whole response (epoch tag + values)
    /// comes from one epoch and every read path follows one metering rule.
    pub(crate) fn timed<T>(
        &self,
        read: impl FnOnce(&GraphSnapshot) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let tick = self.shared.reads.fetch_add(1);
        let started = tick.is_multiple_of(READ_SAMPLE_EVERY).then(Instant::now);
        let result = self.with_current(|snapshot| read(ready(snapshot)?));
        if let Some(started) = started {
            self.shared
                .read_seconds
                .observe(started.elapsed().as_secs_f64());
        }
        result
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("epoch", &self.shared.current().epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Series, SeriesData, SeriesValue, SnapshotStore};
    use ebv_obs::MetricsRegistry;

    /// Commits `epoch` with one 64-element series `v` holding `epoch` in
    /// every slot.
    fn commit_uniform(store: &SnapshotStore, epoch: u64) {
        store.stage(Series {
            name: "v".to_string(),
            data: u64::pack(&[epoch; 64]),
        });
        store.commit(epoch, 64, None);
    }

    fn store_with_cc() -> (SnapshotStore, QueryHandle) {
        let store = SnapshotStore::with_registry(&MetricsRegistry::new());
        let handle = store.handle();
        store.stage(Series {
            name: "cc".to_string(),
            data: SeriesData::U64 {
                values: vec![0, 0, 0, 3, 3, 3],
                absent: None,
            },
        });
        store.commit(1, 6, None);
        (store, handle)
    }

    #[test]
    fn after_each_commit_a_handle_reads_the_new_epoch() {
        let store = SnapshotStore::with_registry(&MetricsRegistry::new());
        let handle = store.handle();
        for epoch in 1..=20u64 {
            commit_uniform(&store, epoch);
            assert_eq!(handle.lookup("v", 5), Ok(QueryValue::U64(epoch)));
            assert_eq!(
                handle.topk("v", 1, true),
                Ok(vec![(0, QueryValue::U64(epoch))])
            );
            assert_eq!(handle.snapshot().unwrap().epoch, epoch);
            // A clone made now starts from the same epoch, on a pin of its
            // own.
            assert_eq!(handle.clone().lookup("v", 63), Ok(QueryValue::U64(epoch)));
        }
    }

    #[test]
    fn a_read_nested_in_a_read_takes_the_shared_path_and_agrees() {
        let (store, handle) = store_with_cc();
        let outer = handle.timed(|snapshot| {
            assert!(
                matches!(handle.pin.try_lock(), Err(TryLockError::WouldBlock)),
                "the outer read holds the handle's pin"
            );
            let inner = handle.lookup("cc", 4);
            assert_eq!(inner, snapshot.lookup("cc", 4));
            assert_eq!(handle.topk("cc", 2, false), snapshot.topk("cc", 2, false));
            assert_eq!(handle.snapshot().unwrap().epoch, snapshot.epoch);
            inner
        });
        assert_eq!(outer, Ok(QueryValue::U64(3)));
        // A commit made while the pin is held is served by the nested read
        // at once, and by the handle's own pin from its next read.
        let stale = handle.timed(|snapshot| {
            store.stage(Series {
                name: "cc".to_string(),
                data: u64::pack(&[9; 6]),
            });
            store.commit(2, 6, None);
            assert_eq!(handle.lookup("cc", 0), Ok(QueryValue::U64(9)));
            Ok(snapshot.epoch)
        });
        assert_eq!(stale, Ok(1));
        assert_eq!(handle.lookup("cc", 0), Ok(QueryValue::U64(9)));
    }

    #[test]
    fn a_handle_whose_pin_is_poisoned_still_serves() {
        let (store, handle) = store_with_cc();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.timed(|_| -> Result<(), QueryError> { panic!("a read that panics") })
        }));
        assert!(panicked.is_err());
        assert!(handle.pin.is_poisoned());
        assert_eq!(handle.lookup("cc", 4), Ok(QueryValue::U64(3)));
        store.stage(Series {
            name: "cc".to_string(),
            data: u64::pack(&[5; 6]),
        });
        store.commit(2, 6, None);
        assert_eq!(handle.lookup("cc", 4), Ok(QueryValue::U64(5)));
        assert_eq!(handle.snapshot().unwrap().epoch, 2);
    }
}
