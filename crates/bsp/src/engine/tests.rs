//! The engine's own suite: a toy min-label program run sequentially and on
//! crews of several sizes, the run options, and the error surface.

use super::*;
use crate::exchange::GroupedMail;
use crate::program::SubgraphContext;
use crate::subgraph::Subgraph;
use ebv_graph::generators::named;
use ebv_graph::{Graph, VertexId};
use ebv_partition::{EbvPartitioner, Partitioner};

/// Minimal test program: propagate the minimum vertex id over the graph
/// (a toy connected-components kernel defined inline so the engine can
/// be tested without depending on `ebv-algorithms`).
struct MinLabel;

impl SubgraphProgram for MinLabel {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _superstep: usize) -> usize {
        let n = ctx.subgraph().num_vertices();
        // Merge incoming replica values, through the per-vertex view.
        let grouped = GroupedMail::group(ctx.mail(), n);
        let mut changed: Vec<bool> = vec![false; n];
        for (i, was_changed) in changed.iter_mut().enumerate() {
            let incoming_min = grouped.messages(i).iter().copied().min();
            if let Some(m) = incoming_min {
                if m < *ctx.value(i) {
                    ctx.set_value(i, m);
                    *was_changed = true;
                }
            }
        }
        // Local propagation until fixpoint.
        loop {
            let mut any = false;
            for e in 0..ctx.subgraph().num_edges() {
                let edge = ctx.subgraph().edges()[e];
                let (Some(s), Some(d)) = (
                    ctx.subgraph().local_index_of(edge.src),
                    ctx.subgraph().local_index_of(edge.dst),
                ) else {
                    continue;
                };
                ctx.add_work(1);
                let sv = *ctx.value(s);
                let dv = *ctx.value(d);
                let min = sv.min(dv);
                if sv > min {
                    ctx.set_value(s, min);
                    changed[s] = true;
                    any = true;
                }
                if dv > min {
                    ctx.set_value(d, min);
                    changed[d] = true;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        // Ship changed boundary values to the other replicas.
        for (i, &was_changed) in changed.iter().enumerate() {
            if was_changed {
                let value = *ctx.value(i);
                ctx.send_to_replicas(i, value);
            }
        }
        changed.iter().filter(|&&c| c).count()
    }
}

fn run_min_label(graph: &Graph, p: usize, engine: &BspEngine) -> BspOutcome<u64> {
    let partition = EbvPartitioner::new().partition(graph, p).unwrap();
    let dg = DistributedGraph::build(graph, &partition).unwrap();
    engine.run(&dg, &MinLabel).unwrap()
}

#[test]
fn min_label_converges_on_two_triangles() {
    let g = named::two_triangles();
    let outcome = run_min_label(&g, 2, &BspEngine::sequential());
    assert_eq!(outcome.values, vec![0, 0, 0, 3, 3, 3]);
    assert!(outcome.supersteps >= 1);
}

#[test]
fn sequential_and_threaded_agree() {
    let g = named::small_social_graph();
    let seq = run_min_label(&g, 4, &BspEngine::sequential());
    let threaded = BspEngine::threaded();
    let thr = run_min_label(&g, 4, &threaded);
    assert_eq!(seq.values, thr.values);
    // The whole counter structure — per worker, per superstep — is
    // bit-identical, not just the totals.
    assert_eq!(seq.stats, thr.stats);
    assert_eq!(seq.supersteps, thr.supersteps);
    assert_eq!(threaded.mode(), ExecutionMode::Pooled(host_parallelism()));
    assert_eq!(BspEngine::default().mode(), ExecutionMode::Sequential);
}

#[test]
fn every_mode_agrees_with_sequential() {
    let g = named::small_social_graph();
    let seq = run_min_label(&g, 4, &BspEngine::sequential());
    for engine in [
        BspEngine::pooled(1),
        BspEngine::pooled(2),
        BspEngine::pooled(4),
        BspEngine::pooled(7),
        // `pooled(0)` is clamped to one thread rather than rejected.
        BspEngine::pooled(0),
    ] {
        // A clone runs the same, and both stay usable run after run.
        for engine in [&engine, &engine.clone(), &engine] {
            let other = run_min_label(&g, 4, engine);
            assert_eq!(seq.values, other.values, "{:?}", engine.mode());
            assert_eq!(seq.stats, other.stats, "{:?}", engine.mode());
            assert_eq!(seq.supersteps, other.supersteps, "{:?}", engine.mode());
        }
    }
    assert_eq!(BspEngine::pooled(3).mode(), ExecutionMode::Pooled(3));
    assert_eq!(BspEngine::pooled(0).mode(), ExecutionMode::Pooled(1));
}

/// A program that panics on a fixed set of workers: the engine must
/// surface a typed error instead of aborting the process.
struct PanicsOnWorkers(&'static [usize]);

impl SubgraphProgram for PanicsOnWorkers {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        0
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _superstep: usize) -> usize {
        let worker = ctx.subgraph().part().index();
        if self.0.contains(&worker) {
            panic!("worker {worker} exploded");
        }
        0
    }
}

#[test]
fn threaded_worker_panics_surface_as_typed_errors() {
    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let err = BspEngine::threaded()
        .run(&dg, &PanicsOnWorkers(&[1]))
        .unwrap_err();
    match err {
        BspError::WorkerPanicked { worker, message } => {
            assert_eq!(worker, 1);
            assert_eq!(message, "worker 1 exploded");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

/// Regression for the PR 5 first-missing-result attribution: with two
/// panicking workers forced into the *same* lane (one lane) the error
/// must name the lowest panicking worker with its own message — exactly,
/// not by chunk-position inference.
#[test]
fn two_panics_in_one_chunk_attribute_the_lowest_worker_exactly() {
    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for engine in [
        BspEngine::pooled(1),
        BspEngine::pooled(4),
        BspEngine::sequential(),
    ] {
        let err = engine.run(&dg, &PanicsOnWorkers(&[2, 1])).unwrap_err();
        match err {
            BspError::WorkerPanicked { worker, message } => {
                assert_eq!(worker, 1, "{:?}", engine.mode());
                assert_eq!(message, "worker 1 exploded", "{:?}", engine.mode());
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}

#[test]
fn single_worker_sends_no_messages() {
    let g = named::two_triangles();
    let outcome = run_min_label(&g, 1, &BspEngine::sequential());
    assert_eq!(outcome.stats.total_messages(), 0);
    assert_eq!(outcome.values, vec![0, 0, 0, 3, 3, 3]);
}

#[test]
fn stats_record_work_and_messages() {
    let g = named::small_social_graph();
    let outcome = run_min_label(&g, 4, &BspEngine::sequential());
    assert!(outcome.stats.total_work() > 0);
    assert!(outcome.stats.total_messages() > 0);
    assert_eq!(outcome.stats.num_workers, 4);
    assert_eq!(outcome.stats.num_supersteps(), outcome.supersteps);
}

/// A program that never converges must hit the superstep limit.
struct NeverConverges;

impl SubgraphProgram for NeverConverges {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        0
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        ctx.set_value(0, superstep as u64);
        1
    }

    fn max_supersteps(&self) -> usize {
        5
    }
}

#[test]
fn non_convergence_is_reported() {
    let g = named::two_triangles();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let err = BspEngine::sequential()
        .run(&dg, &NeverConverges)
        .unwrap_err();
    assert!(matches!(
        err,
        BspError::DidNotConverge { max_supersteps: 5 }
    ));
}

/// A fixed-iteration program runs exactly `max_supersteps` supersteps.
struct FixedIterations;

impl SubgraphProgram for FixedIterations {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        0
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, _superstep: usize) -> usize {
        let current = *ctx.value(0);
        ctx.set_value(0, current + 1);
        1
    }

    fn max_supersteps(&self) -> usize {
        7
    }

    fn halt_on_quiescence(&self) -> bool {
        false
    }
}

/// Sends every local value to the other replicas in superstep 0 and
/// never folds what arrives; logs how much mail each later superstep
/// finds.
struct SendsOnceNeverReads {
    mail_seen: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl SubgraphProgram for SendsOnceNeverReads {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, _subgraph: &Subgraph) -> u64 {
        vertex.raw()
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        match superstep {
            0 => {
                for local in 0..ctx.subgraph().num_vertices() {
                    let value = *ctx.value(local);
                    ctx.send_to_replicas(local, value);
                }
            }
            // The mail of superstep 0 is here now, and is left unread.
            1 => {}
            _ => self
                .mail_seen
                .lock()
                .unwrap()
                .push((superstep, ctx.mail().count())),
        }
        0
    }

    fn max_supersteps(&self) -> usize {
        4
    }

    fn halt_on_quiescence(&self) -> bool {
        false
    }
}

#[test]
fn unread_mail_is_delivered_once_not_resent() {
    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
        let program = SendsOnceNeverReads {
            mail_seen: std::sync::Mutex::new(Vec::new()),
        };
        let outcome = engine.run(&dg, &program).unwrap();
        let per_step: Vec<(usize, usize)> = outcome
            .stats
            .supersteps
            .iter()
            .map(|step| {
                let sent = step.per_worker.iter().map(|w| w.messages_sent).sum();
                let received = step.per_worker.iter().map(|w| w.messages_received).sum();
                (sent, received)
            })
            .collect();
        let sent = per_step[0].0;
        assert!(sent > 0, "the partition replicates no vertex");
        // An uncleared row would come back as scatter shards and be
        // delivered again in superstep 1's exchange.
        assert_eq!(per_step, vec![(sent, sent), (0, 0), (0, 0), (0, 0)]);
        let mail_seen = program.mail_seen.into_inner().unwrap();
        assert_eq!(mail_seen.len(), 2 * dg.num_workers());
        assert!(mail_seen.iter().all(|&(_, count)| count == 0));
    }
}

#[test]
fn run_opts_publishes_the_returned_values() {
    use crate::publish::ValueSink;
    use std::sync::Mutex;

    struct Captured {
        published: Mutex<Vec<(Vec<u64>, usize)>>,
    }
    impl ValueSink<u64> for Captured {
        fn publish(&self, values: &[u64], stats: &ExecutionStats) {
            self.published
                .lock()
                .unwrap()
                .push((values.to_vec(), stats.num_supersteps()));
        }
    }

    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 4).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let baseline = BspEngine::sequential().run(&dg, &MinLabel).unwrap();

    let sink = Captured {
        published: Mutex::new(Vec::new()),
    };
    let outcome = BspEngine::threaded()
        .run_opts(&dg, &MinLabel, RunOptions::new().publish_to(&sink))
        .unwrap();
    assert_eq!(outcome.values, baseline.values);
    assert_eq!(outcome.stats, baseline.stats);
    // The sink saw exactly the returned values, before `run_opts`
    // returned.
    let published = sink.published.lock().unwrap();
    assert_eq!(published.len(), 1);
    assert_eq!(published[0].0, outcome.values);
    assert_eq!(published[0].1, outcome.stats.num_supersteps());
}

#[test]
fn warm_seed_at_the_fixpoint_converges_in_one_quiet_superstep() {
    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let cold = BspEngine::sequential().run(&dg, &MinLabel).unwrap();
    let warm = BspEngine::sequential()
        .run_opts(&dg, &MinLabel, RunOptions::new().warm_seed(&cold.values))
        .unwrap();
    assert_eq!(warm.values, cold.values);
    assert_eq!(warm.supersteps, 1);
    assert_eq!(warm.stats.total_messages(), 0);
}

#[test]
fn fixed_iteration_programs_run_to_their_limit() {
    let g = named::two_triangles();
    let partition = EbvPartitioner::new().partition(&g, 2).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let outcome = BspEngine::sequential().run(&dg, &FixedIterations).unwrap();
    assert_eq!(outcome.supersteps, 7);
}

/// A warm run writes its prior's copy and only the masters that changed,
/// and every such run checks that against the walk of every master (in
/// debug builds, inside `run_opts`). The priors here are short (the
/// universe grew past them), long, empty, at the fixpoint and far from it;
/// every mode agrees, and the plane handed back keeps an all-zero dirty
/// bitmap for the next run.
#[test]
fn a_warm_run_patches_its_prior_where_the_walk_writes() {
    let g = named::small_social_graph();
    let partition = EbvPartitioner::new().partition(&g, 3).unwrap();
    let dg = DistributedGraph::build(&g, &partition).unwrap();
    let n = dg.num_vertices();
    let cold = BspEngine::sequential().run(&dg, &MinLabel).unwrap();
    let reversed: Vec<u64> = (0..n as u64).rev().collect();
    let long: Vec<u64> = cold.values.iter().copied().chain([0, 1, 2]).collect();
    let priors = [
        cold.values.clone(),
        cold.values[..n - 4].to_vec(),
        reversed[..n / 2].to_vec(),
        reversed,
        long,
        Vec::new(),
    ];
    for prior in &priors {
        let options = RunOptions::new().warm_seed(prior);
        let sequential = BspEngine::sequential()
            .run_opts(&dg, &MinLabel, options)
            .unwrap();
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let warm = engine.run_opts(&dg, &MinLabel, options).unwrap();
            assert_eq!(warm.values, sequential.values, "{:?}", engine.mode());
            assert_eq!(warm.stats, sequential.stats, "{:?}", engine.mode());
        }
        assert_eq!(sequential.values.len(), n);
        // Unchanged masters keep the prior: where the prior holds each
        // component's minimum, so does the outcome.
        if prior == &cold.values {
            assert_eq!(sequential.values, cold.values);
        }
        let (mails, _) = dg.plane.take::<u64, u64>(dg.num_workers()).unwrap();
        for (mail, sg) in mails.iter().zip(dg.subgraphs()) {
            assert_eq!(mail.dirty.len(), sg.num_vertices().div_ceil(64));
            assert!(mail.dirty.iter().all(|&word| word == 0));
        }
    }
}
