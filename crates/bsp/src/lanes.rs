//! Worker construction on the host's cores.
//!
//! Invariant owned here: a job (re)builds one worker from its own edge list
//! with its lane's [`BuildScratch`], which every build hands back clean, so
//! no job reads another's output and which lane builds which worker — and
//! how many lanes there are — is invisible in the result, bit for bit.
//! Every worker construction goes through [`Lanes::rebuild`]: assembly
//! (batch, streaming and checkpoint rebuilds alike) and the rebuild step of
//! every mutation epoch. A job fills the worker's CSRs and then, on the same
//! lane while they are in cache, its [`LocalComponents`](crate::LocalComponents).
//!
//! The lanes are `min(host parallelism, jobs)` scoped threads, the calling
//! thread being the first, so one lane spawns nothing. Jobs are placed
//! longest first on the least-loaded lane (LPT, priced by edge count). The
//! scratches live in the [`DistributedGraph`](crate::DistributedGraph)
//! between epochs, one per lane, so only the first construction after an
//! assembly or a clone allocates them.

use std::cmp::Reverse;

use ebv_graph::Edge;

use crate::engine::host_parallelism;
use crate::subgraph::{BuildScratch, Subgraph};

/// One worker to build: the subgraph whose buffers it refills, its new
/// edge list and the ownership flags (empty: every edge owned).
pub(crate) struct Job<'a> {
    pub(crate) worker: &'a mut Subgraph,
    pub(crate) edges: Vec<Edge>,
    pub(crate) owned: Vec<bool>,
}

/// One lane's work: its jobs in placement order, on its scratch.
fn run_plan(plan: Vec<Job<'_>>, scratch: &mut BuildScratch) {
    for job in plan {
        job.worker.rebuild(job.edges, job.owned, scratch);
    }
}

/// The lanes worker construction runs on and their scratches.
pub(crate) struct Lanes {
    count: usize,
    scratch: Vec<BuildScratch>,
}

impl Lanes {
    /// As many lanes as the host runs threads at once.
    pub(crate) fn host() -> Self {
        Lanes::new(host_parallelism())
    }

    /// At most `count` lanes (`0` is clamped to `1`), no scratch yet.
    pub(crate) fn new(count: usize) -> Self {
        Lanes {
            count: count.max(1),
            scratch: Vec::new(),
        }
    }

    /// Runs every job, over the universe `0..n`.
    ///
    /// # Panics
    ///
    /// Re-raises a job's panic once every lane has stopped.
    pub(crate) fn rebuild(&mut self, n: usize, mut jobs: Vec<Job<'_>>) {
        let lanes = self.count.min(jobs.len());
        if lanes == 0 {
            return;
        }
        // Longest first, ties in worker order, each on the least-loaded
        // lane (ties toward the lower lane).
        jobs.sort_by_key(|job| Reverse(job.edges.len()));
        let mut plans: Vec<Vec<Job<'_>>> = (0..lanes).map(|_| Vec::new()).collect();
        let mut loads = vec![0usize; lanes];
        for job in jobs {
            let lane = (0..lanes).min_by_key(|&lane| loads[lane]).unwrap_or(0);
            loads[lane] += job.edges.len() + 1;
            plans[lane].push(job);
        }
        if self.scratch.len() < lanes {
            self.scratch.resize_with(lanes, BuildScratch::default);
        }
        for (scratch, plan) in self.scratch.iter_mut().zip(&plans) {
            scratch.cover(n, plan.first().map_or(0, |job| job.edges.len()));
        }
        if lanes == 1 {
            return run_plan(plans.swap_remove(0), &mut self.scratch[0]);
        }
        let mut lanes = plans.into_iter().zip(&mut self.scratch);
        let (own, own_scratch) = lanes.next().expect("at least two lanes");
        std::thread::scope(|scope| {
            let spawned: Vec<_> = lanes
                .map(|(plan, scratch)| scope.spawn(move || run_plan(plan, scratch)))
                .collect();
            run_plan(own, own_scratch);
            for lane in spawned {
                lane.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            }
        });
    }
}

/// A clone runs on as many lanes and allocates its scratch when it first
/// builds: the scratch is working memory, not state.
impl Clone for Lanes {
    fn clone(&self) -> Self {
        Lanes::new(self.count)
    }
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes")
            .field("count", &self.count)
            .field("scratches", &self.scratch.len())
            .finish()
    }
}

#[cfg(test)]
mod tests;
