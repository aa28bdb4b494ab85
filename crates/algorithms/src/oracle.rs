//! What the test oracles share: the per-vertex mailboxes the sweeps fold,
//! and the recorder that compares a program with its sweep superstep by
//! superstep and worker by worker.

use std::sync::Mutex;

use ebv_bsp::{
    BspEngine, BspOutcome, DistributedGraph, RunOptions, Subgraph, SubgraphContext, SubgraphProgram,
};
use ebv_graph::VertexId;

/// The per-vertex mailboxes the engine used to hand a program, rebuilt
/// from the mail: every local vertex's messages in arrival order. The
/// oracles fold these (`min`, `last`, `sum`) the way every program did
/// before programs folded arrivals, which is what the arrival-order folds
/// are checked against.
pub(crate) fn mailboxes<V, M: Clone>(ctx: &SubgraphContext<'_, V, M>) -> Vec<Vec<M>> {
    let mut mailboxes = vec![Vec::new(); ctx.subgraph().num_vertices()];
    for (local, message) in ctx.mail() {
        mailboxes[local].push(message.clone());
    }
    mailboxes
}

/// What one worker's superstep left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StepRecord {
    pub(crate) superstep: usize,
    pub(crate) worker: usize,
    /// `run_superstep`'s return value: the vertices whose value changed.
    pub(crate) updates: usize,
    pub(crate) values: Vec<u64>,
    /// Capacities of the scratch's flags, queue and changed-list.
    pub(crate) capacities: [usize; 3],
}

/// Runs `P` unchanged and logs a [`StepRecord`] per worker superstep,
/// asserting the "returned clean" half of the scratch contract.
struct Recording<P> {
    inner: P,
    log: Mutex<Vec<StepRecord>>,
}

impl<P: SubgraphProgram<Value = u64, Message = u64>> SubgraphProgram for Recording<P> {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, vertex: VertexId, subgraph: &Subgraph) -> u64 {
        self.inner.initial_value(vertex, subgraph)
    }

    fn warm_value(&self, vertex: VertexId, prior: &u64, subgraph: &Subgraph) -> u64 {
        self.inner.warm_value(vertex, prior, subgraph)
    }

    fn run_superstep(&self, ctx: &mut SubgraphContext<'_, u64, u64>, superstep: usize) -> usize {
        let updates = self.inner.run_superstep(ctx, superstep);
        let scratch = ctx.scratch();
        assert!(scratch.flags.iter().all(|&flags| flags == 0));
        assert!(scratch.queue.is_empty() && scratch.changed.is_empty());
        let capacities = [
            scratch.flags.capacity(),
            scratch.queue.capacity(),
            scratch.changed.capacity(),
        ];
        self.log.lock().unwrap().push(StepRecord {
            superstep,
            worker: ctx.subgraph().part().index(),
            updates,
            values: ctx.values().to_vec(),
            capacities,
        });
        updates
    }
}

/// Runs `program` on the sequential engine — warm-started from `prior`
/// when given — and returns its outcome with the per-worker step log.
pub(crate) fn run_recorded<P: SubgraphProgram<Value = u64, Message = u64>>(
    distributed: &DistributedGraph,
    program: P,
    prior: Option<&[u64]>,
) -> (BspOutcome<u64>, Vec<StepRecord>) {
    let program = Recording {
        inner: program,
        log: Mutex::new(Vec::new()),
    };
    let options = match prior {
        Some(prior) => RunOptions::new().warm_seed(prior),
        None => RunOptions::new(),
    };
    let outcome = BspEngine::sequential()
        .run_opts(distributed, &program, options)
        .unwrap();
    (outcome, program.log.into_inner().unwrap())
}

/// How a program's `work` is checked against its sweep oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// The distance kernel never makes more edge relaxations.
    AtMostTheSweep,
    /// The component superstep's exact identity: local edges + local
    /// vertices at superstep 0, then the members relabelled (which is the
    /// changed count).
    Components,
}

/// A program and its sweep oracle agree on everything but `work`,
/// `updates` and the scratch, superstep by superstep and worker by worker:
/// values, changed count, messages sent and received, supersteps. `work`
/// is checked as `work` says. Both run warm from `prior` when it is given.
pub(crate) fn assert_equals_oracle<K, O>(
    distributed: &DistributedGraph,
    (program, oracle): (K, O),
    prior: Option<&[u64]>,
    work: Work,
    what: &str,
) -> BspOutcome<u64>
where
    K: SubgraphProgram<Value = u64, Message = u64>,
    O: SubgraphProgram<Value = u64, Message = u64>,
{
    let (got, got_log) = run_recorded(distributed, program, prior);
    let (want, want_log) = run_recorded(distributed, oracle, prior);
    assert_eq!(got.values, want.values, "{what}: final values");
    assert_eq!(got.supersteps, want.supersteps, "{what}: supersteps");
    assert_eq!(got_log.len(), want_log.len(), "{what}");
    for (g, w) in got_log.iter().zip(&want_log) {
        let at = format!("{what}, superstep {} worker {}", w.superstep, w.worker);
        assert_eq!((g.superstep, g.worker), (w.superstep, w.worker), "{at}");
        assert_eq!(g.updates, w.updates, "{at}: updates");
        assert_eq!(g.values, w.values, "{at}: values");
        let (got_stats, want_stats) = (
            &got.stats.supersteps[g.superstep].per_worker[g.worker],
            &want.stats.supersteps[w.superstep].per_worker[w.worker],
        );
        assert_eq!(
            got_stats.messages_sent, want_stats.messages_sent,
            "{at}: sent"
        );
        assert_eq!(
            got_stats.messages_received, want_stats.messages_received,
            "{at}: received"
        );
        if work == Work::Components {
            let sg = &distributed.subgraphs()[g.worker];
            let expected = match g.superstep {
                0 => sg.num_edges() + sg.num_vertices(),
                _ => g.updates,
            };
            assert_eq!(got_stats.work, expected as u64, "{at}: work");
        }
    }
    if work == Work::AtMostTheSweep {
        assert!(
            got.stats.total_work() <= want.stats.total_work(),
            "{what}: kernel work {} > sweep work {}",
            got.stats.total_work(),
            want.stats.total_work()
        );
    }
    got
}
