//! The [`SuperstepExecutor`] seam: how one superstep's independent worker
//! tasks are placed onto compute resources.
//!
//! The engine (`engine::mod`) prepares one boxed task per worker per
//! superstep — compute + scatter over purely worker-local state —
//! and hands the batch to an executor. Everything above the seam is
//! transport-agnostic: the planned multi-process TCP runtime plugs in here
//! as another `SuperstepExecutor` whose "lanes" are remote worker
//! processes, while every in-process mode below keeps gating it
//! bit-identically.
//!
//! Two implementations ship today:
//!
//! * [`SequentialExecutor`] — tasks run in worker order on the caller
//!   thread (the determinism reference);
//! * [`PooledExecutor`] — tasks run on a persistent [`WorkerPool`], placed
//!   by the work-aware LPT scheduler (`engine::schedule`).
//!
//! Both executors report per-task panics exactly (worker id + payload) in
//! ascending worker order, and neither can affect program values or
//! `ExecutionStats`: workers are independent within a superstep, and the
//! engine folds their results in worker order afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::pool::{panic_message, PoolTask, WorkerPool};
use super::schedule::lpt_schedule;

/// One worker's whole superstep, packaged for placement: the closure plus
/// the inputs the scheduler places it by.
pub struct WorkerTask<'a> {
    /// Worker (partition) index — panic attribution and result slot.
    pub worker: usize,
    /// Scheduler cost estimate (CSR edge count for the first superstep,
    /// previous `work` + inbound messages afterwards); never affects
    /// results, only placement.
    pub cost: u64,
    /// The compute + scatter closure over worker-local state.
    pub run: Box<dyn FnOnce() + Send + 'a>,
}

/// What one superstep's execution reported back to the engine.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Per-task panics, `(worker, message)` in ascending worker order;
    /// empty when every worker completed.
    pub panics: Vec<(usize, String)>,
    /// The largest number of workers any lane (thread/chunk) ran — the
    /// `ebv_bsp_pool_chunk_workers` gauge.
    pub max_lane_workers: usize,
}

/// Places and runs one superstep's worker tasks.
///
/// Implementations must run every task exactly once before returning and
/// report panics per task; they are free to choose any placement and any
/// per-lane order, because worker tasks share no state within a superstep.
pub trait SuperstepExecutor {
    /// Runs `tasks` (one per worker, in ascending worker order) to
    /// completion and reports the outcome.
    fn execute(&mut self, tasks: Vec<WorkerTask<'_>>) -> StepOutcome;
}

/// Runs tasks in worker order on the calling thread — the reference
/// executor every parallel mode is property-tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl SuperstepExecutor for SequentialExecutor {
    fn execute(&mut self, tasks: Vec<WorkerTask<'_>>) -> StepOutcome {
        let mut outcome = StepOutcome {
            panics: Vec::new(),
            max_lane_workers: tasks.len(),
        };
        for task in tasks {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task.run)) {
                outcome.panics.push((task.worker, panic_message(payload)));
            }
        }
        outcome.panics.sort_unstable_by_key(|&(worker, _)| worker);
        outcome
    }
}

/// Runs tasks on a persistent [`WorkerPool`], placed by the LPT scheduler.
///
/// The executor only holds a reference to the pool: the threads belong to
/// whoever created it (a [`BspEngine`](crate::BspEngine) and its clones)
/// and are joined when the last reference drops, so creating an executor
/// per run spawns nothing.
#[derive(Debug)]
pub struct PooledExecutor {
    pool: Arc<WorkerPool>,
}

impl PooledExecutor {
    /// An executor placing tasks on `pool`.
    pub fn new(pool: Arc<WorkerPool>) -> PooledExecutor {
        PooledExecutor { pool }
    }
}

impl SuperstepExecutor for PooledExecutor {
    fn execute(&mut self, tasks: Vec<WorkerTask<'_>>) -> StepOutcome {
        let costs: Vec<u64> = tasks.iter().map(|t| t.cost).collect();
        let schedule = lpt_schedule(&costs, self.pool.threads());
        let mut slots: Vec<Option<WorkerTask<'_>>> = tasks.into_iter().map(Some).collect();
        let assignments: Vec<Vec<PoolTask<'_>>> = schedule
            .lanes
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|&index| {
                        let task = slots[index].take().expect("each task placed once");
                        PoolTask {
                            worker: task.worker,
                            run: task.run,
                        }
                    })
                    .collect()
            })
            .collect();
        StepOutcome {
            panics: self.pool.run_tasks(assignments),
            max_lane_workers: schedule.max_lane_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_tasks(counter: &AtomicUsize, n: usize) -> Vec<WorkerTask<'_>> {
        (0..n)
            .map(|worker| WorkerTask {
                worker,
                cost: (worker as u64 + 1) * 10,
                run: Box::new(move || {
                    counter.fetch_add(worker + 1, Ordering::Relaxed);
                }),
            })
            .collect()
    }

    fn pooled(threads: usize) -> PooledExecutor {
        PooledExecutor::new(Arc::new(WorkerPool::new(threads)))
    }

    fn exercise(executor: &mut dyn SuperstepExecutor) {
        let counter = AtomicUsize::new(0);
        let outcome = executor.execute(counting_tasks(&counter, 6));
        assert!(outcome.panics.is_empty());
        assert!(outcome.max_lane_workers >= 1);
        assert_eq!(counter.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn all_executors_run_every_task() {
        exercise(&mut SequentialExecutor);
        exercise(&mut pooled(1));
        exercise(&mut pooled(2));
        exercise(&mut pooled(9));
        // Two executors over one pool: the threads are the pool's, not the
        // executor's.
        let shared = Arc::new(WorkerPool::new(2));
        exercise(&mut PooledExecutor::new(Arc::clone(&shared)));
        exercise(&mut PooledExecutor::new(shared));
    }

    #[test]
    fn executors_attribute_every_panic_in_worker_order() {
        let make_tasks = || -> Vec<WorkerTask<'static>> {
            (0..4)
                .map(|worker| WorkerTask {
                    worker,
                    cost: 1,
                    run: Box::new(move || {
                        if worker % 2 == 1 {
                            panic!("worker {worker} exploded");
                        }
                    }),
                })
                .collect()
        };
        let mut executors: Vec<Box<dyn SuperstepExecutor>> = vec![
            Box::new(SequentialExecutor),
            Box::new(pooled(1)),
            Box::new(pooled(3)),
        ];
        for executor in executors.iter_mut() {
            let outcome = executor.execute(make_tasks());
            let expected = vec![
                (1usize, "worker 1 exploded".to_string()),
                (3, "worker 3 exploded".to_string()),
            ];
            assert_eq!(outcome.panics, expected);
        }
    }

    #[test]
    fn empty_superstep_is_a_no_op() {
        for executor in [
            &mut SequentialExecutor as &mut dyn SuperstepExecutor,
            &mut pooled(2),
        ] {
            let outcome = executor.execute(Vec::new());
            assert!(outcome.panics.is_empty());
            assert_eq!(outcome.max_lane_workers, 0);
        }
    }
}
