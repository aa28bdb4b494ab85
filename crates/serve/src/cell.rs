//! [`EpochCell`]: the guarded two-slot publication cell the snapshot store
//! flips on.
//!
//! The serving requirement is asymmetric: reads are hot (scraper threads,
//! HTTP handlers, benchmark hammers) and must never block behind the
//! writer; writes are rare (one per applied epoch) and may wait. A
//! `RwLock` fails the first requirement — a writer in the critical section
//! stalls every reader for the duration of the swap. The cell instead
//! double-buffers: two slots, an atomic index naming the *current* one,
//! and per-slot reader-guard counters, so
//!
//! * a reader pins the current slot (guard increment), re-checks that it
//!   is still current, clones the `Arc` out and unpins — a handful of
//!   atomic operations, no lock, no waiting on the writer ever;
//! * the writer (serialized by a mutex) prepares the *non-current* slot,
//!   waiting only for stale readers still pinning it (bounded: those
//!   readers are mid-clone), then flips the index.
//!
//! The re-check is the torn-read defense: a reader that pinned slot `s`
//! after the writer started rewriting it will observe `current != s` and
//! retry, never dereferencing the slot mid-write. Everything is `SeqCst` —
//! flips happen once per epoch, so ordering cost is irrelevant next to the
//! correctness argument being easy to state.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One slot: the published value plus the count of readers pinning it.
struct Slot<T> {
    guards: AtomicUsize,
    value: UnsafeCell<Arc<T>>,
}

/// A two-slot atomically-flipped publication cell. Readers [`load`]
/// lock-free and wait-free with respect to the writer; [`store`] is
/// serialized and waits only for readers still pinning the retired slot.
///
/// [`load`]: EpochCell::load
/// [`store`]: EpochCell::store
pub struct EpochCell<T> {
    slots: [Slot<T>; 2],
    /// Index of the slot readers should take (0 or 1).
    current: AtomicUsize,
    /// Serializes writers; readers never touch it.
    writer: Mutex<()>,
}

// SAFETY: the cell hands out only `Arc<T>` clones; the `UnsafeCell` is
// written exclusively by the single writer (mutex-serialized) after the
// slot's guard count has drained to zero, and read only under a held guard
// with a current-index re-check (see `load`). `T: Send + Sync` makes the
// shared `Arc<T>` sound across threads.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// A cell whose readers see `initial` until the first [`store`].
    ///
    /// [`store`]: EpochCell::store
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell {
            slots: [
                Slot {
                    guards: AtomicUsize::new(0),
                    value: UnsafeCell::new(Arc::clone(&initial)),
                },
                Slot {
                    guards: AtomicUsize::new(0),
                    value: UnsafeCell::new(initial),
                },
            ],
            current: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Returns the currently published value. Never blocks on the writer:
    /// the retry loop only iterates when a flip landed between the pin and
    /// the re-check, and a flip happens at most once per applied epoch.
    pub fn load(&self) -> Arc<T> {
        loop {
            let cur = self.current.load(Ordering::SeqCst);
            let slot = &self.slots[cur];
            slot.guards.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == cur {
                // Pinned while still current: the writer cannot rewrite
                // this slot until our guard drops (it drains the
                // *non-current* slot's guards before writing, and the slot
                // cannot become non-current and be rewritten while the
                // guard is held — `store` waits for exactly this count).
                // SAFETY: no concurrent `&mut` exists (writer is excluded
                // by the guard protocol above), so a shared read is sound.
                let value = unsafe { Arc::clone(&*slot.value.get()) };
                slot.guards.fetch_sub(1, Ordering::SeqCst);
                return value;
            }
            // A flip raced us: unpin the stale slot without touching its
            // value and take the new current slot instead.
            slot.guards.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes `value`: rewrites the non-current slot once its stale
    /// readers have unpinned, then flips the current index so subsequent
    /// [`load`]s take it.
    ///
    /// [`load`]: EpochCell::load
    pub fn store(&self, value: Arc<T>) {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let next = 1 - self.current.load(Ordering::SeqCst);
        let slot = &self.slots[next];
        // Drain readers still pinning the retired slot. Each is at most a
        // few instructions from unpinning (pin → re-check → clone → unpin),
        // so this spin is bounded and short; new readers pin the *current*
        // slot and cannot re-enter this one until the flip below.
        while slot.guards.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: `next` is not current (readers aren't directed here), its
        // guard count is zero (no stale reader mid-clone), and `_writer`
        // excludes every other writer — this is the only access.
        unsafe {
            *slot.value.get() = value;
        }
        self.current.store(next, Ordering::SeqCst);
    }
}

impl<T> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("current", &self.current.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn load_returns_the_initial_value_then_each_store() {
        let cell = EpochCell::new(Arc::new(0u64));
        assert_eq!(*cell.load(), 0);
        for i in 1..=5u64 {
            cell.store(Arc::new(i));
            assert_eq!(*cell.load(), i);
        }
    }

    /// The core torn-read property at the cell level: each published value
    /// is internally consistent (all elements equal), so any mixed vector
    /// observed by a reader would prove a torn flip.
    ///
    /// The interleaving is forced rather than hoped for: the writer starts
    /// only once every reader has completed a load, and follows each store
    /// with a wait for a further load, so reads race every one of the 500
    /// flips even when the scheduler would let the writer finish first.
    #[test]
    fn concurrent_readers_never_observe_a_torn_value() {
        let cell = Arc::new(EpochCell::new(Arc::new(vec![0u64; 64])));
        let stop = Arc::new(AtomicBool::new(false));
        let all_reading = Arc::new(Barrier::new(5));
        let total_loads = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let all_reading = Arc::clone(&all_reading);
                let total_loads = Arc::clone(&total_loads);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = cell.load();
                        let first = snapshot[0];
                        assert!(
                            snapshot.iter().all(|&x| x == first),
                            "torn snapshot: {first} mixed with another epoch"
                        );
                        assert!(first >= last, "flips must be monotonic");
                        last = first;
                        loads += 1;
                        total_loads.fetch_add(1, Ordering::SeqCst);
                        if loads == 1 {
                            all_reading.wait();
                        }
                    }
                    loads
                })
            })
            .collect();
        all_reading.wait();
        for epoch in 1..=500u64 {
            let before = total_loads.load(Ordering::SeqCst);
            cell.store(Arc::new(vec![epoch; 64]));
            while total_loads.load(Ordering::SeqCst) == before {
                thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
        assert_eq!(*cell.load(), vec![500u64; 64]);
    }

    #[test]
    fn writers_are_serialized_and_last_store_wins() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    for i in 0..100u64 {
                        cell.store(Arc::new(w * 1000 + i));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        // One of the writers' final values survived (no corruption).
        let last = *cell.load();
        assert!((0..4).any(|w| last == w * 1000 + 99), "last = {last}");
    }
}
