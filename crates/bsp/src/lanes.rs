//! The lane crew every threaded worker job of `ebv-bsp` runs on.
//!
//! A [`Crew`] is `min(requested, jobs)` lanes inside one
//! `std::thread::scope`, the calling thread being lane 0, so one lane
//! spawns nothing. It runs rounds: every job of a round runs exactly once,
//! its panic is caught and handed back with its index, and the jobs come
//! back in index order, so nothing downstream can tell which lane ran
//! which job. Placement is a fixed stride: of `L` lanes, lane `l` runs jobs
//! `l, l + L, l + 2L, …` in index order, in every round, so a worker keeps
//! its lane from superstep to superstep and every lane has a job whenever
//! a round has as many jobs as lanes. EBV balances the workers' edges and
//! vertices, so no run-time placement is needed on top (paper §III). Jobs
//! are owned values that move to their lane and back through the slots of
//! a mutex-guarded board, kept from round to round; what they share — the
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
/// it allocates nothing (a futex) and its slots are kept from round to
/// round, so only a crew's first round allocates, and a run requests the
/// same bytes however its lanes interleave.
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
    /// Every job of the round by index, out of its slot while its lane
    /// runs it.
    slots: Vec<Option<J>>,
    /// Spawned lanes still working on their share.
    running: usize,
    /// The panics of the round, by job index.
    panics: Vec<(usize, Panic)>,
}

impl<J> Rounds<J> {
    /// Takes job `index` out of its slot, if the round has that many jobs.
    fn take(&mut self, index: usize) -> Option<(usize, J)> {
        let job = self.slots.get_mut(index)?.take().expect("taken once");
        Some((index, job))
    }
}

impl<J> Board<J> {
    /// Jobs run outside the lock and every update under it is one step,
    /// so a poisoned lock still guards a valid board.
    fn lock(&self) -> MutexGuard<'_, Rounds<J>> {
        self.rounds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one lane's share of a round, every `lanes`-th job from `next`
    /// on, handing each job back.
    fn work<L>(
        &self,
        work: Work<'_, L, J>,
        state: &mut L,
        mut next: Option<(usize, J)>,
        lanes: usize,
    ) {
        while let Some((index, mut job)) = next {
            let panic = run(work, state, &mut job);
            let mut rounds = self.lock();
            rounds.slots[index] = Some(job);
            rounds.panics.extend(panic.map(|panic| (index, panic)));
            next = rounds.take(index + lanes);
        }
    }

    /// Spawned lane `lane`'s loop: its share of each posted round, until
    /// the crew closes.
    fn lane<L>(&self, lane: usize, lanes: usize, work: Work<'_, L, J>, mut state: L) {
        let mut seen = 0;
        loop {
            let first = {
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
                rounds.take(lane)
            };
            self.work(work, &mut state, first, lanes);
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
    let lanes = requested.min(jobs).max(1);
    let mut states = states.into_iter();
    let own = states.next().expect("a state per lane");
    let board = Board {
        rounds: Mutex::new(Rounds {
            posted: 0,
            closed: false,
            slots: Vec::new(),
            running: 0,
            panics: Vec::new(),
        }),
        posted: Condvar::new(),
        finished: Condvar::new(),
    };
    thread::scope(|scope| {
        let board = &board;
        // Dropped on return or unwind, before the scope joins: that closes
        // the board and so ends every lane's loop.
        let mut crew = Crew {
            own,
            work,
            board,
            lanes,
        };
        for lane in 1..lanes {
            let state = states.next().expect("a state per lane");
            scope.spawn(move || board.lane(lane, lanes, work, state));
        }
        body(&mut crew)
    })
}

impl<L, J> Crew<'_, L, J> {
    /// Runs `work` on every job of `jobs` exactly once and leaves them
    /// where they were. Of `L` lanes, lane `l` runs jobs `l, l + L, …` in
    /// index order. Returns the panics, `(job index, payload)` in ascending
    /// index order; a job that panicked is handed back as its panic left
    /// it.
    pub(crate) fn round(&mut self, jobs: &mut Vec<J>) -> Vec<(usize, Panic)> {
        if self.lanes == 1 {
            let (work, own) = (self.work, &mut self.own);
            let panics = jobs.iter_mut().map(|job| run(work, own, job));
            let panics = panics
                .enumerate()
                .filter_map(|(i, panic)| Some((i, panic?)));
            return panics.collect();
        }
        let board = self.board;
        let first = {
            let mut rounds = board.lock();
            rounds.slots.extend(jobs.drain(..).map(Some));
            rounds.running = self.lanes - 1;
            rounds.posted += 1;
            rounds.take(0)
        };
        board.posted.notify_all();
        board.work(self.work, &mut self.own, first, self.lanes);
        let mut rounds = board.lock();
        while rounds.running > 0 {
            rounds = board
                .finished
                .wait(rounds)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let done = rounds
            .slots
            .drain(..)
            .map(|job| job.expect("every job ran"));
        jobs.extend(done);
        let mut panics = std::mem::take(&mut rounds.panics);
        panics.sort_unstable_by_key(|&(index, _)| index);
        panics
    }

    /// The most jobs one lane runs in a round of `jobs`: `⌈jobs / lanes⌉`.
    pub(crate) fn busiest(&self, jobs: usize) -> usize {
        jobs.div_ceil(self.lanes)
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

    /// Runs every job, over the universe `0..n`, in one crew round. Every
    /// lane readies its scratch for the longest job.
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
            crew.round(&mut jobs)
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
