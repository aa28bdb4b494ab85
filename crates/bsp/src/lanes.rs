//! The lane crew every threaded worker job of `ebv-bsp` runs on.
//!
//! A [`Crew`] is `min(requested, jobs)` lanes inside one
//! `std::thread::scope`, the calling thread being lane 0, so one lane
//! spawns nothing. It runs rounds: every job of a round runs exactly once,
//! its panic is caught and handed back with its index, and the jobs come
//! back in index order, so nothing downstream can tell which lane ran
//! which job. One lane runs a round in index order, in place; more lanes
//! place it by [`lpt_schedule`] (cost descending, ties by index, each job
//! on the least-loaded lane). Jobs are owned values that move to their
//! lane and back through a mutex-guarded board; what they share — the
//! graph, the program, the recorder — is borrowed for the scope, and so
//! are the lanes' own states.
//!
//! Two callers open a crew: [`Lanes::rebuild`], one round per worker
//! construction, and [`BspEngine::run_opts`](crate::BspEngine::run_opts),
//! one round per superstep of the run.
//!
//! Invariant owned by [`Lanes`]: a build job (re)builds one worker from its
//! own edge list with its lane's [`BuildScratch`], which every build hands
//! back clean, so no job reads another's output and which lane builds which
//! worker — and how many lanes there are — is invisible in the result, bit
//! for bit. Every worker construction goes through [`Lanes::rebuild`]:
//! assembly (batch, streaming and checkpoint rebuilds alike) and the
//! rebuild step of every mutation epoch. A job fills the worker's CSRs and
//! then, on the same lane while they are in cache, its
//! [`LocalComponents`](crate::LocalComponents). The scratches live in the
//! [`DistributedGraph`](crate::DistributedGraph) between epochs, one per
//! lane, so only the first construction after an assembly or a clone
//! allocates them.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use ebv_graph::Edge;

use crate::engine::host_parallelism;
use crate::engine::schedule::lpt_schedule;
use crate::subgraph::{BuildScratch, Subgraph};

/// What a lane does to one job, on its own state.
type Work<'w, L, J> = &'w (dyn Fn(&mut L, &mut J) + Sync);

/// A caught panic's payload.
pub(crate) type Panic = Box<dyn Any + Send>;

/// Runs `work` on `job`, catching its panic.
fn run<L, J>(work: Work<'_, L, J>, state: &mut L, job: &mut J) -> Option<Panic> {
    catch_unwind(AssertUnwindSafe(|| work(state, job))).err()
}

/// What the calling lane posts and the spawned lanes hand back. Waiting on
/// it allocates nothing (a futex), so a run requests the same bytes
/// however its lanes interleave.
struct Board<J> {
    rounds: Mutex<Rounds<J>>,
    /// Signalled when a round is posted or the crew closes.
    posted: Condvar,
    /// Signalled when the last spawned lane finished its share of a round.
    finished: Condvar,
}

/// The round in flight.
struct Rounds<J> {
    /// Rounds posted so far.
    posted: u64,
    closed: bool,
    /// Spawned lane `l`'s share, `plans[l - 1]`, taken by the lane.
    plans: Vec<Vec<(usize, J)>>,
    /// Spawned lanes still working on their share.
    running: usize,
    /// Every job, back by index once it ran.
    done: Vec<Option<J>>,
    /// The panics of the round, by job index.
    panics: Vec<(usize, Panic)>,
}

impl<J> Board<J> {
    /// Jobs run outside the lock and every update under it is one step,
    /// so a poisoned lock still guards a valid board.
    fn lock(&self) -> MutexGuard<'_, Rounds<J>> {
        self.rounds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one lane's share of a round, handing each job back.
    fn work<L>(&self, work: Work<'_, L, J>, state: &mut L, plan: Vec<(usize, J)>) {
        for (index, mut job) in plan {
            let panic = run(work, state, &mut job);
            let mut rounds = self.lock();
            rounds.done[index] = Some(job);
            rounds.panics.extend(panic.map(|panic| (index, panic)));
        }
    }

    /// Spawned lane `lane`'s loop: its share of each posted round, until
    /// the crew closes.
    fn lane<L>(&self, lane: usize, work: Work<'_, L, J>, mut state: L) {
        let mut seen = 0;
        loop {
            let plan = {
                let mut rounds = self.lock();
                while rounds.posted == seen && !rounds.closed {
                    rounds = self
                        .posted
                        .wait(rounds)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if rounds.closed {
                    return;
                }
                seen = rounds.posted;
                std::mem::take(&mut rounds.plans[lane - 1])
            };
            self.work(work, &mut state, plan);
            let mut rounds = self.lock();
            rounds.running -= 1;
            if rounds.running == 0 {
                self.finished.notify_one();
            }
        }
    }
}

/// The lanes of one scope, between rounds (see the module docs).
pub(crate) struct Crew<'w, L, J> {
    /// Lane 0's state: the calling thread's.
    own: L,
    work: Work<'w, L, J>,
    /// Shared with lanes 1 onward.
    board: &'w Board<J>,
    lanes: usize,
    /// The most jobs one lane ran in the last round.
    busiest: usize,
}

/// Runs `body` with a crew of `min(requested, jobs)` lanes (at least one)
/// that run `work` on the jobs of each round. Lane `l` works on the `l`-th
/// of `states`, which must yield one per lane. The lanes stop and are
/// joined when `body` returns or unwinds.
pub(crate) fn crew<L: Send, J: Send, T>(
    requested: usize,
    jobs: usize,
    states: impl IntoIterator<Item = L>,
    work: Work<'_, L, J>,
    body: impl FnOnce(&mut Crew<'_, L, J>) -> T,
) -> T {
    let mut states = states.into_iter().take(requested.min(jobs).max(1));
    let own = states.next().expect("a state per lane");
    let board = Board {
        rounds: Mutex::new(Rounds {
            posted: 0,
            closed: false,
            plans: Vec::new(),
            running: 0,
            done: Vec::new(),
            panics: Vec::new(),
        }),
        posted: Condvar::new(),
        finished: Condvar::new(),
    };
    thread::scope(|scope| {
        let mut lanes = 1;
        for state in states {
            let (lane, board) = (lanes, &board);
            scope.spawn(move || board.lane(lane, work, state));
            lanes += 1;
        }
        // Dropped on return or unwind, before the scope joins: that closes
        // the board and so ends every lane's loop.
        let board = &board;
        body(&mut Crew {
            own,
            work,
            board,
            lanes,
            busiest: 0,
        })
    })
}

impl<L, J> Crew<'_, L, J> {
    /// Runs `work` on every job of `jobs` exactly once, job `i` priced
    /// `costs[i]` for placement, and leaves them where they were. Returns
    /// the panics, `(job index, payload)` in ascending index order; a job
    /// that panicked is handed back as its panic left it.
    pub(crate) fn round(&mut self, jobs: &mut Vec<J>, costs: &[u64]) -> Vec<(usize, Panic)> {
        debug_assert_eq!(jobs.len(), costs.len());
        if self.lanes == 1 {
            self.busiest = jobs.len();
            let (work, own) = (self.work, &mut self.own);
            let panics = jobs.iter_mut().map(|job| run(work, own, job));
            let panics = panics
                .enumerate()
                .filter_map(|(i, panic)| Some((i, panic?)));
            return panics.collect();
        }
        let schedule = lpt_schedule(costs, self.lanes);
        self.busiest = schedule.max_lane_tasks;
        let mut slots: Vec<Option<J>> = jobs.drain(..).map(Some).collect();
        let mut plans: Vec<Vec<(usize, J)>> = (schedule.lanes.iter())
            .map(|lane| {
                let job = |&index: &usize| (index, slots[index].take().expect("placed once"));
                lane.iter().map(job).collect()
            })
            .collect();
        plans.resize_with(self.lanes, Vec::new);
        let own = plans.remove(0);
        let board = self.board;
        {
            let mut rounds = board.lock();
            rounds.done = slots;
            rounds.plans = plans;
            rounds.running = self.lanes - 1;
            rounds.posted += 1;
        }
        board.posted.notify_all();
        board.work(self.work, &mut self.own, own);
        let mut rounds = board.lock();
        while rounds.running > 0 {
            rounds = board
                .finished
                .wait(rounds)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let done = std::mem::take(&mut rounds.done).into_iter();
        jobs.extend(done.map(|job| job.expect("every job ran")));
        let mut panics = std::mem::take(&mut rounds.panics);
        panics.sort_unstable_by_key(|&(index, _)| index);
        panics
    }

    /// The most jobs one lane ran in the last round.
    pub(crate) fn busiest(&self) -> usize {
        self.busiest
    }
}

/// Closing the board ends every spawned lane's loop once it has handed
/// back what it holds.
impl<L, J> Drop for Crew<'_, L, J> {
    fn drop(&mut self) {
        self.board.lock().closed = true;
        self.board.posted.notify_all();
    }
}

/// Turns a caught panic payload into a readable message.
pub(crate) fn panic_message(payload: Panic) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "worker thread panicked".to_string(),
        },
    }
}

/// One worker to build: the subgraph whose buffers it refills, its new
/// edge list and the ownership flags (empty: every edge owned).
pub(crate) struct Job<'a> {
    pub(crate) worker: &'a mut Subgraph,
    pub(crate) edges: Vec<Edge>,
    pub(crate) owned: Vec<bool>,
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

    /// Runs every job, over the universe `0..n`, in one crew round priced
    /// by edge count. Every lane readies its scratch for the longest job.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest job's panic once every lane has stopped.
    pub(crate) fn rebuild(&mut self, n: usize, mut jobs: Vec<Job<'_>>) {
        let lanes = self.count.min(jobs.len());
        if lanes == 0 {
            return;
        }
        if self.scratch.len() < lanes {
            self.scratch.resize_with(lanes, BuildScratch::default);
        }
        let longest = jobs.iter().map(|job| job.edges.len()).max().unwrap_or(0);
        let costs: Vec<u64> = jobs.iter().map(|job| job.edges.len() as u64 + 1).collect();
        let build = |scratch: &mut &mut BuildScratch, job: &mut Job<'_>| {
            // Sized once per lane, on the lane's own thread.
            scratch.cover(n, longest);
            let (edges, owned) = (
                std::mem::take(&mut job.edges),
                std::mem::take(&mut job.owned),
            );
            job.worker.rebuild(edges, owned, scratch);
        };
        let (count, scratch) = (self.count, self.scratch.iter_mut());
        let panics = crew(count, jobs.len(), scratch, &build, |crew| {
            crew.round(&mut jobs, &costs)
        });
        if let Some((_, panic)) = panics.into_iter().next() {
            resume_unwind(panic);
        }
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
