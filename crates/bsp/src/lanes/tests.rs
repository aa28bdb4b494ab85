//! The crew runs every job of a round once, hands each panic back with its
//! index and keeps job `i` on lane `i mod L` from round to round; and the
//! lane count is invisible: assembly and every mutation epoch give the same
//! distribution on one lane as on three, and every worker's local
//! components equal a fresh [`LocalComponents::build`] of it.

use std::collections::HashSet;
use std::iter::repeat;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, ThreadId};
use std::time::Duration;

use proptest::prelude::*;

use super::*;
use crate::distributed::assemble;
use crate::replica::MasterRule;
use crate::subgraph::LocalComponents;
use crate::{DistributedGraph, MutationBatch};
use ebv_partition::PartitionId;

/// Every worker's components are the ones a fresh build finds.
fn assert_components_fresh(dg: &DistributedGraph, what: &str) {
    for (i, sg) in dg.subgraphs().iter().enumerate() {
        let fresh = LocalComponents::build(sg);
        assert_eq!(sg.local_components(), &fresh, "{what}: worker {i}");
    }
}

/// The same assigned edges assembled on `count` lanes over the universe
/// `0..n`.
fn assembled(count: usize, p: usize, n: usize, stream: &[(Edge, PartitionId)]) -> DistributedGraph {
    let mut edges_per_part = vec![Vec::new(); p];
    for &(edge, part) in stream {
        edges_per_part[part.index()].push(edge);
    }
    let owned = vec![Vec::new(); p];
    let rule = MasterRule::IncidentMajority;
    let dg = assemble(
        Lanes::new(count),
        n,
        stream.len(),
        edges_per_part,
        owned,
        rule,
        0,
    );
    assert_eq!(dg.lanes.count, count);
    dg
}

/// A crew test's job: its index, and the thread it ran on.
type Probe = (usize, Option<ThreadId>);

fn probes(n: usize) -> Vec<Probe> {
    (0..n).map(|index| (index, None)).collect()
}

/// Records each job's thread, then panics on the jobs `panics` names.
fn record(panics: &[usize]) -> impl Fn(&mut (), &mut Probe) + Sync + '_ {
    move |_, job| {
        job.1 = Some(thread::current().id());
        if panics.contains(&job.0) {
            panic!("job {} exploded", job.0);
        }
    }
}

/// The threads a round's jobs ran on.
fn threads(jobs: &[Probe]) -> HashSet<ThreadId> {
    jobs.iter().filter_map(|job| job.1).collect()
}

/// A round's panics, each with its message.
fn messages(panics: Vec<(usize, Panic)>) -> Vec<(usize, String)> {
    let message = |(index, panic)| (index, panic_message(panic));
    panics.into_iter().map(message).collect()
}

#[test]
fn every_job_runs_once_and_comes_back_in_index_order() {
    let count = 8;
    for lanes in [1, 2, 3, 9] {
        // The jobs are owned; the state they share is borrowed for the
        // scope.
        let runs = AtomicUsize::new(0);
        let work = |_: &mut (), job: &mut (usize, usize)| {
            runs.fetch_add(1, Ordering::Relaxed);
            job.1 += 1;
        };
        let mut jobs: Vec<(usize, usize)> = (0..count).map(|job| (job, 0)).collect();
        crew(lanes, count, repeat(()), &work, |crew| {
            assert!(crew.round(&mut jobs).is_empty());
            assert_eq!(crew.busiest(count), count.div_ceil(lanes), "{lanes} lanes");
        });
        let once: Vec<(usize, usize)> = (0..count).map(|job| (job, 1)).collect();
        assert_eq!(jobs, once, "{lanes} lanes");
        assert_eq!(runs.load(Ordering::Relaxed), count, "{lanes} lanes");
    }
}

#[test]
fn owned_jobs_run_once_while_lane_states_borrow_the_callers_counters() {
    // Each lane's state borrows one of the caller's counters, and the work
    // borrows a shared one: ten owned jobs on two lanes add up in both.
    let shared = AtomicUsize::new(0);
    let per_lane = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let work = |lane: &mut &AtomicUsize, job: &mut Vec<usize>| {
        lane.fetch_add(1, Ordering::Relaxed);
        shared.fetch_add(job[0], Ordering::Relaxed);
        job.push(job[0]);
    };
    let mut jobs: Vec<Vec<usize>> = (0..10).map(|job| vec![job]).collect();
    crew(2, jobs.len(), per_lane.iter(), &work, |crew| {
        assert!(crew.round(&mut jobs).is_empty());
        assert_eq!(crew.busiest(jobs.len()), 5);
    });
    // The crew returning proves every job completed.
    let lanes = per_lane.each_ref().map(|lane| lane.load(Ordering::Relaxed));
    assert_eq!(lanes, [5, 5]);
    assert_eq!(shared.load(Ordering::Relaxed), (0..10).sum::<usize>());
    assert!(jobs.iter().enumerate().all(|(i, job)| *job == [i, i]));
}

#[test]
fn panics_are_attributed_per_job_lowest_first_with_their_own_message() {
    let here = thread::current().id();
    for lanes in [1, 3] {
        let work = record(&[3, 1]);
        let mut jobs = probes(4);
        let panics = crew(lanes, 4, repeat(()), &work, |crew| crew.round(&mut jobs));
        let expected = [(1, "job 1 exploded"), (3, "job 3 exploded")];
        let expected = expected.map(|(job, message)| (job, message.to_string()));
        assert_eq!(messages(panics), expected, "{lanes} lanes");
        // Every job ran and came back in place, the ones after a panic on
        // the same lane too; lane 0 is the caller.
        assert!(jobs
            .iter()
            .enumerate()
            .all(|(i, job)| job.0 == i && job.1.is_some()));
        assert_eq!(jobs[0].1, Some(here));
    }
}

#[test]
fn a_lane_that_ran_a_panicking_job_runs_the_next_round() {
    let work = record(&[0, 1]);
    crew(2, 2, repeat(()), &work, |crew| {
        let mut first = probes(2);
        assert_eq!(crew.round(&mut first).len(), 2, "both lanes panicked");
        let mut second = vec![(2, None), (3, None)];
        assert!(crew.round(&mut second).is_empty());
        assert_eq!(threads(&second).len(), 2, "both lanes ran again");
        assert_eq!(threads(&second), threads(&first));
    });
}

#[test]
fn rounds_of_one_crew_run_on_the_same_lane_threads() {
    // Job 0 works a hundred times longer than the others: a lane pulling
    // the next free job would take job 3 or 6 off lane 0; the stride keeps
    // every job on its lane.
    let work = |_: &mut (), job: &mut Probe| {
        let micros = if job.0 == 0 { 2_000 } else { 20 };
        thread::sleep(Duration::from_micros(micros));
        job.1 = Some(thread::current().id());
    };
    let here = thread::current().id();
    crew(3, 7, repeat(()), &work, |crew| {
        let mut first = probes(7);
        assert!(crew.round(&mut first).is_empty());
        assert_eq!(first[0].1, Some(here));
        assert_eq!(threads(&first).len(), 3);
        // Job `i` runs on lane `i mod 3`, round after round.
        for (i, job) in first.iter().enumerate() {
            assert_eq!(job.1, first[i % 3].1, "job {i}");
        }
        for round in 1..10 {
            let mut again = probes(7);
            assert!(crew.round(&mut again).is_empty());
            assert_eq!(again, first, "round {round}");
        }
    });
}

#[test]
fn an_empty_round_does_nothing() {
    for lanes in [1, 2] {
        let runs = AtomicUsize::new(0);
        let work = |_: &mut (), _: &mut ()| {
            runs.fetch_add(1, Ordering::Relaxed);
        };
        crew(lanes, 2, repeat(()), &work, |crew| {
            assert!(crew.round(&mut Vec::new()).is_empty());
            assert_eq!(crew.busiest(0), 0);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 0, "{lanes} lanes");
    }
}

/// A crew asked for more lanes than it has jobs runs one lane per job at
/// most, so a large request spawns no more threads than a small one, and
/// one job runs on the caller alone.
#[test]
fn a_crew_runs_one_lane_per_job_at_most() {
    let work = record(&[]);
    for jobs in [1, 3] {
        let seen = crew(64, jobs, repeat(()), &work, |crew| {
            let mut seen = HashSet::new();
            for _ in 0..4 {
                let mut round = probes(jobs);
                assert!(crew.round(&mut round).is_empty());
                seen.extend(threads(&round));
            }
            seen
        });
        assert_eq!(seen.len(), jobs, "64 lanes asked over {jobs} jobs");
        if jobs == 1 {
            assert!(seen.contains(&thread::current().id()));
        }
    }
}

#[test]
fn panic_messages_are_readable() {
    assert_eq!(panic_message(Box::new("boom")), "boom");
    assert_eq!(panic_message(Box::new("boom".to_string())), "boom");
    assert_eq!(panic_message(Box::new(42u32)), "worker thread panicked");
}

#[test]
fn one_lane_per_job_at_most() {
    let e = |s: u64, d: u64| Edge::from((s, d));
    let stream: Vec<_> = [(e(0, 1), 0), (e(1, 2), 1), (e(2, 0), 1), (e(3, 4), 2)]
        .map(|(edge, part)| (edge, PartitionId::new(part)))
        .to_vec();
    let mut lanes = Lanes::new(8);
    let mut workers: Vec<Subgraph> = (0..3).map(PartitionId::new).map(Subgraph::empty).collect();
    let jobs = workers.iter_mut().enumerate().map(|(i, worker)| Job {
        worker,
        edges: stream
            .iter()
            .filter(|&&(_, part)| part.index() == i)
            .map(|&(edge, _)| edge)
            .collect(),
        owned: Vec::new(),
    });
    lanes.rebuild(6, jobs.collect());
    assert_eq!(lanes.scratch.len(), 3, "three jobs, three lanes of eight");
    assert_eq!(workers[1].num_edges(), 2);
    assert_eq!(workers[1].local_components().len(), 1);
    // Every scratch is handed back clean, ready for the next epoch.
    let one = assembled(1, 3, 6, &stream);
    let three = assembled(3, 3, 6, &stream);
    assert!(one.same_structure(&three));
    assert_eq!(
        format!("{:?}", three.lanes),
        "Lanes { count: 3, scratches: 3 }"
    );
    // A clone runs on as many lanes and allocates its scratches itself.
    assert_eq!(
        format!("{:?}", three.clone().lanes),
        "Lanes { count: 3, scratches: 0 }"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random batches over a small universe — duplicate copies, deletes
    /// that isolate vertices and so rewrite isolated tails, inserts past
    /// the universe that grow it — applied on one lane and on three give
    /// the same structure, lineage and counters after every epoch, and
    /// every worker's components stay those of a fresh build.
    #[test]
    fn one_lane_and_three_build_the_same_distribution(
        p in 1usize..6,
        initial in proptest::collection::vec((0u64..24, 0u64..24, 0u32..6), 0..80),
        ops in proptest::collection::vec((0u8..3, 0u64..40, 0u64..40, 0u32..6, 0usize..1000), 1..120),
        epoch_every in 1usize..24,
    ) {
        let part = |raw: u32| PartitionId::new(raw % p as u32);
        let mut live: Vec<(Edge, PartitionId)> = initial
            .iter()
            .map(|&(s, d, raw)| (Edge::from((s, d)), part(raw)))
            .collect();
        let mut one = assembled(1, p, 26, &live);
        let mut three = assembled(3, p, 26, &live);
        prop_assert!(one.same_structure(&three));
        assert_components_fresh(&one, "assembled on one lane");
        assert_components_fresh(&three, "assembled on three lanes");

        let mut batch = MutationBatch::new();
        for (step, &(kind, s, d, raw, pick)) in ops.iter().enumerate() {
            if kind == 0 || live.is_empty() {
                let edge = Edge::from((s, d));
                batch.record_insert(edge, part(raw));
                live.push((edge, part(raw)));
            } else {
                let (edge, at) = live.swap_remove(pick % live.len());
                batch.record_delete(edge, at);
            }
            if (step + 1) % epoch_every != 0 && step + 1 != ops.len() {
                continue;
            }
            let stats = one.apply_mutations(&batch).unwrap();
            let other = three.apply_mutations(&batch).unwrap();
            prop_assert!(one.same_structure(&three), "step {}", step);
            prop_assert_eq!(one.lineage().affected, three.lineage().affected);
            prop_assert_eq!(
                (stats.workers_touched, stats.edges_rebuilt),
                (other.workers_touched, other.edges_rebuilt)
            );
            assert_components_fresh(&one, "one lane");
            assert_components_fresh(&three, "three lanes");
            batch = MutationBatch::new();
        }
    }
}
