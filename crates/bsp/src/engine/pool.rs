//! The persistent worker pool: a fixed set of OS threads parked across
//! supersteps, runs and mutation epochs, fed superstep tasks over
//! `std::sync::mpsc` channels.
//!
//! Spawning one OS thread per worker-chunk per superstep lets spawn cost
//! dominate the barrier on small graphs. The pool amortizes that cost to
//! zero in the steady state: threads are created once, in
//! [`WorkerPool::new`] — which a [`BspEngine`](crate::BspEngine) calls at
//! construction and never again — and every superstep only moves closures
//! through channels.
//!
//! Each submitted task reports its own completion — including a captured
//! panic payload — over a per-call completion channel, which gives the
//! engine **exact** per-worker panic attribution and doubles as the safety
//! fence for the lifetime erasure described on [`WorkerPool::run_tasks`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// A type-erased, `'static` pool job as it travels through a lane channel.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's superstep closure, tagged with the worker (partition) index
/// the completion message reports.
pub(crate) struct PoolTask<'env> {
    /// Worker (partition) index, for panic attribution.
    pub(crate) worker: usize,
    /// The work itself; may borrow engine state for `'env`.
    pub(crate) run: Box<dyn FnOnce() + Send + 'env>,
}

/// Total pool threads ever spawned by this process, across every
/// [`WorkerPool`]. Test hook for the pool-reuse guarantee: across the runs
/// of one engine the counter must not move.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Returns the total number of pool threads this process has ever spawned.
///
/// This is the observable side of the pool-persistence guarantee:
/// [`BspEngine::pooled(n)`](crate::BspEngine::pooled) raises the counter by
/// exactly `n`, and no run, mutation epoch or clone of that engine moves it
/// again.
pub fn pool_threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// A fixed pool of named OS threads (`ebv-pool-<i>`), one mpsc lane each.
///
/// Threads are created once in [`new`](WorkerPool::new) and parked on their
/// lane's `recv` between tasks; dropping the pool closes the lanes and
/// joins every thread. Callers on several threads may share one pool (every
/// `run_tasks` call owns its completion channel); their tasks then queue
/// behind each other on the lanes. The superstep scheduler assigns each
/// worker task to a lane (see `engine::schedule`), so one lane runs its
/// tasks in submission order while distinct lanes run concurrently.
#[derive(Debug)]
pub struct WorkerPool {
    lanes: Vec<mpsc::Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool of `threads` parked worker threads (clamped to at
    /// least one).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let mut lanes = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = thread::Builder::new()
                .name(format!("ebv-pool-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn a pool worker thread");
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            lanes.push(tx);
            handles.push(handle);
        }
        WorkerPool { lanes, handles }
    }

    /// Number of pool threads (= lanes the scheduler can fill).
    pub fn threads(&self) -> usize {
        self.lanes.len()
    }

    /// Runs one superstep's tasks, `assignments[lane]` in order on lane
    /// `lane`, and blocks until every task has completed. Returns the
    /// panics that occurred, `(worker, message)` in ascending worker order;
    /// an empty vector means every task ran to completion.
    ///
    /// Tasks may borrow engine state (`'env`): the borrow is erased to
    /// `'static` to cross the lane channels, and re-fenced by blocking —
    /// see the safety argument inline.
    pub(crate) fn run_tasks<'env>(
        &self,
        assignments: Vec<Vec<PoolTask<'env>>>,
    ) -> Vec<(usize, String)> {
        debug_assert!(assignments.len() <= self.lanes.len());
        let (done_tx, done_rx) = mpsc::channel::<(usize, Option<String>)>();
        let mut panics: Vec<(usize, String)> = Vec::new();
        let mut submitted = 0usize;
        for (lane, tasks) in assignments.into_iter().enumerate() {
            for task in tasks {
                let PoolTask { worker, run } = task;
                let done = done_tx.clone();
                // The wrapper consumes `run` (dropping every `'env` borrow it
                // captured) *before* sending the completion message, so a
                // received completion proves the borrows are dead.
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(run));
                    let _ = done.send((worker, result.err().map(panic_message)));
                });
                // SAFETY: the erased job never outlives `'env`. Every job is
                // either (a) executed by its lane thread, which consumes the
                // closure and then sends on `done`, or (b) dropped
                // immediately below on a failed send, or (c) dropped by a
                // lane thread exiting — impossible while this `&self` borrow
                // is live, because lanes only close in `Drop` (which needs
                // exclusive access). This function does not return until it
                // has received one completion per submitted job or the
                // completion channel disconnected — and disconnection
                // requires every outstanding job (each owning a `done`
                // clone) to have been consumed or dropped. Either way no
                // borrow captured by a job survives past this call, and the
                // channel hand-offs provide the release/acquire ordering
                // that makes the workers' writes visible to the caller.
                #[allow(unsafe_code)]
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                match self.lanes[lane].send(job) {
                    Ok(()) => submitted += 1,
                    // The lane is gone (poisoned pool); the unsent job —
                    // and its borrows — died with the `SendError`.
                    Err(_) => panics.push((worker, "pool worker thread unavailable".to_string())),
                }
            }
        }
        drop(done_tx);
        for _ in 0..submitted {
            match done_rx.recv() {
                Ok((worker, Some(message))) => panics.push((worker, message)),
                Ok((_, None)) => {}
                Err(_) => break,
            }
        }
        panics.sort_unstable_by_key(|&(worker, _)| worker);
        panics
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: closing the lanes ends each thread's `recv` loop;
    /// joining ensures no pool thread outlives the pool.
    fn drop(&mut self) {
        self.lanes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Turns a captured panic payload into a readable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "worker thread panicked".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn tasks_run_and_borrow_caller_state() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Vec<PoolTask<'_>>> = (0..2)
            .map(|lane| {
                (0..5)
                    .map(|i| PoolTask {
                        worker: lane * 5 + i,
                        run: Box::new(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }),
                    })
                    .collect()
            })
            .collect();
        let panics = pool.run_tasks(tasks);
        assert!(panics.is_empty());
        // `run_tasks` returning proves every task completed.
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panics_are_attributed_per_task_in_worker_order() {
        let pool = WorkerPool::new(1);
        // Three tasks on one lane; the middle and last panic. Both must be
        // reported, exactly attributed, in ascending worker order — and the
        // lane must survive to run the non-panicking task in between.
        let ran = AtomicUsize::new(0);
        let tasks = vec![vec![
            PoolTask {
                worker: 7,
                run: Box::new(|| panic!("seven exploded")),
            },
            PoolTask {
                worker: 3,
                run: Box::new(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            },
            PoolTask {
                worker: 5,
                run: Box::new(|| panic!("five exploded")),
            },
        ]];
        let panics = pool.run_tasks(tasks);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(panics.len(), 2);
        assert_eq!(panics[0], (5, "five exploded".to_string()));
        assert_eq!(panics[1], (7, "seven exploded".to_string()));
    }

    #[test]
    fn ten_rounds_reuse_the_same_lanes() {
        // The per-process spawn counter is asserted in a single-test
        // integration binary (`crates/dynamic/tests/pool_reuse.rs`) where
        // no concurrent test creates pools; here we prove ten back-to-back
        // batches on one pool all complete and stay exactly attributed.
        let pool = WorkerPool::new(3);
        for round in 0..10 {
            let hits = AtomicUsize::new(0);
            let tasks = vec![
                vec![PoolTask {
                    worker: 0,
                    run: Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }),
                }],
                vec![PoolTask {
                    worker: 1,
                    run: Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }),
                }],
            ];
            assert!(pool.run_tasks(tasks).is_empty(), "round {round}");
            assert_eq!(hits.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn panic_messages_are_readable() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new("boom".to_string())), "boom");
        assert_eq!(panic_message(Box::new(42u32)), "worker thread panicked");
    }
}
