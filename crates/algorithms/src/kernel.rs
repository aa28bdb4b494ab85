//! The gated worklist kernel: the distance superstep behind cold and warm
//! SSSP, whose unit-weight distances are BFS depths. (CC does not
//! propagate along edges at all: it relabels whole local components, see
//! `cc.rs`.)
//!
//! Both compute a minimum fixpoint over `u64` hop distances with
//! min-folded replica messages, so one superstep is always the same three
//! moves:
//!
//! 1. fold the mail in arrival order, lowering a receiver once per message
//!    below its value (minimum wins, whatever the order) — receivers whose
//!    value fell join the frontier;
//! 2. on the first superstep, additionally activate the program's
//!    [`Activation`] set plus the seed vertices — found by a scan of every
//!    local (cold SSSP) or from the warm program's start set, the locals
//!    whose activations can be non-empty;
//! 3. relax out-edges from the worklist to the local fixpoint (a distance
//!    plus one along each edge, source to destination), touching only
//!    edges leaving active vertices, then ship only *changed* values to
//!    the other replicas (the message gating).
//!
//! # Contract
//!
//! * **First in, first out.** The worklist is a queue. From a single
//!   source that is breadth-first order, which settles each vertex once; a
//!   stack re-relaxes whole regions every time a shorter path turns up
//!   (70x the edge visits on a cold scale-16 R-MAT SSSP). The result does
//!   not depend on the discipline: within a superstep values only fall and
//!   the local fixpoint is unique, so a vertex is *changed* exactly when
//!   its final value is below its starting one, whatever the visiting
//!   order. Values, the changed set, message and superstep counts
//!   therefore equal those of a full-subgraph sweep to the fixpoint (the
//!   `#[cfg(test)]` oracle in `sssp.rs`); only `work` differs.
//! * **The scratch is borrowed clean and returned clean.** Flags, queue
//!   and changed-list live in the engine's per-worker
//!   [`WorklistScratch`]: flags all zero, queue and list empty, on entry
//!   and on exit. Only the entries the changed-list names are cleared, so
//!   a superstep costs its frontier, not its subgraph, and from the second
//!   superstep on the kernel allocates only if a list outgrows its
//!   capacity.
//! * **A start set changes nothing but the cost.** Warm SSSP hands the
//!   first superstep a bitmap of the locals that may activate anything
//!   (its seeds, cone, vertices past the prior and source). Visiting them
//!   in ascending local order runs the scan's per-local body on the only
//!   locals where it does something, so the queue, and with it `work`,
//!   `updates` and every message, equals the scan's; debug builds assert
//!   the queue against the scan, without allocating. The superstep then
//!   costs the batch, not the subgraph.
//! * **One message per changed vertex per replica**, shipped in discovery
//!   order, unsorted. A vertex then never receives two messages from one
//!   source worker in a superstep, and mail arrives by source worker, so
//!   the sequence a vertex receives does not depend on the order of the
//!   outbox — and its fold, a minimum, not even on that sequence.

use ebv_bsp::{Subgraph, SubgraphContext, WorklistScratch};

/// The "cannot propagate" value: an unreached distance.
const INFINITY: u64 = u64::MAX;

/// [`WorklistScratch::flags`] bit: the vertex is in the changed-list.
const CHANGED: u8 = 1;
/// [`WorklistScratch::flags`] bit: the vertex is in the queue.
const QUEUED: u8 = 2;

/// Which vertices the first superstep activates, beyond message receivers
/// and seed vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    /// Every vertex that holds a finite distance — the source alone, for
    /// cold SSSP.
    Propagating,
    /// Propagation-capable vertices with at least one unreached
    /// out-neighbor — the settled rim of the reset cone that must re-relax
    /// into it (warm SSSP).
    DistanceFrontier,
}

/// Puts `v` on the queue unless it is already waiting there.
#[inline]
fn activate(scratch: &mut WorklistScratch, v: usize) {
    if scratch.flags[v] & QUEUED == 0 {
        scratch.flags[v] |= QUEUED;
        scratch.queue.push_back(v as u32);
    }
}

/// Records that the value of `v` fell: `v` joins the changed-list once per
/// superstep, and the queue.
#[inline]
fn lowered(scratch: &mut WorklistScratch, v: usize) {
    if scratch.flags[v] & CHANGED == 0 {
        scratch.flags[v] |= CHANGED;
        scratch.changed.push(v as u32);
    }
    activate(scratch, v);
}

/// The first superstep's activations from the local vertex `local`, in
/// order: the vertex itself when it is a seed or (cold) holds a finite
/// distance, then (warm) when it is unreached, its settled in-neighbours.
/// The rim is found from its unreached side: few edges lead to unreached
/// vertices, whereas every settled vertex would scan all its out-edges to
/// learn that none does.
#[inline]
fn first_activations(
    sg: &Subgraph,
    values: &[u64],
    local: usize,
    is_seed: &impl Fn(u64) -> bool,
    activation: Activation,
    mut activate: impl FnMut(usize),
) {
    let value = values[local];
    if is_seed(sg.vertex_at(local).raw())
        || (activation == Activation::Propagating && value != INFINITY)
    {
        activate(local);
    }
    if activation == Activation::DistanceFrontier && value == INFINITY {
        for &u in sg.in_neighbors(local) {
            if values[u as usize] != INFINITY {
                activate(u as usize);
            }
        }
    }
}

/// The locals whose bits are set in `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(at, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let local = 64 * at + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                local
            })
        })
    })
}

/// Checks that the full scan of the first superstep queues what the start
/// set queued, in the same order, without allocating: the scan marks each
/// vertex it would queue with a spare flag bit, matches it against the
/// queue and clears the bits through the queue afterwards.
#[cfg(debug_assertions)]
fn assert_the_scan_queues_the_same(
    sg: &Subgraph,
    values: &[u64],
    is_seed: &impl Fn(u64) -> bool,
    activation: Activation,
    scratch: &mut WorklistScratch,
) {
    const SCANNED: u8 = 4;
    let mut matched = 0;
    for local in 0..sg.num_vertices() {
        first_activations(sg, values, local, is_seed, activation, |v| {
            if scratch.flags[v] & SCANNED == 0 {
                scratch.flags[v] |= SCANNED;
                assert_eq!(
                    scratch.queue.get(matched),
                    Some(&(v as u32)),
                    "the scan queues local {v} where the start set queued another: \
                     is the start set the program's, on this graph?"
                );
                matched += 1;
            }
        });
    }
    assert_eq!(matched, scratch.queue.len(), "the start set queued more");
    for &v in &scratch.queue {
        scratch.flags[v as usize] &= !SCANNED;
    }
}

/// Runs one gated distance-relaxation superstep and returns the number of
/// local vertices whose value changed. `is_seed` is raw-id membership in a
/// warm program's seed set (cold programs have none). `start`, when given,
/// is a bitmap over the locals that holds every vertex whose first-step
/// activations are not empty (see `IncrementalSssp`): the first superstep
/// then visits those alone, in ascending order, and queues what the scan
/// of every local would — asserted in debug builds.
pub(crate) fn gated_min_superstep(
    ctx: &mut SubgraphContext<'_, u64, u64>,
    superstep: usize,
    is_seed: impl Fn(u64) -> bool,
    activation: Activation,
    start: Option<&[u64]>,
) -> usize {
    let sg = ctx.subgraph();
    let n = sg.num_vertices();
    // Taken so the context stays usable below; put back before returning.
    let mut scratch = std::mem::take(ctx.scratch());
    debug_assert!(scratch.queue.is_empty() && scratch.changed.is_empty());
    scratch.flags.resize(n, 0);

    // Fold replica values received during the previous communication stage
    // as they arrive; receivers whose value fell join the propagation
    // frontier. A vertex with several messages is lowered by each one below
    // its value so far and ends at their minimum.
    for (local, &message) in ctx.mail() {
        if message < *ctx.value(local) {
            ctx.set_value(local, message);
            lowered(&mut scratch, local);
        }
    }

    // First superstep: activate the program's starting frontier only, from
    // the start set's locals or from a scan of all of them.
    if superstep == 0 {
        let values = ctx.values();
        match start.filter(|words| words.len() == n.div_ceil(64)) {
            Some(words) => {
                for local in ones(words) {
                    first_activations(sg, values, local, &is_seed, activation, |v| {
                        activate(&mut scratch, v);
                    });
                }
                #[cfg(debug_assertions)]
                assert_the_scan_queues_the_same(sg, values, &is_seed, activation, &mut scratch);
            }
            None => {
                for local in 0..n {
                    first_activations(sg, values, local, &is_seed, activation, |v| {
                        activate(&mut scratch, v);
                    });
                }
            }
        }
    }

    // Worklist relaxation to the local fixpoint, touching only the out-edges
    // of the active frontier, one CSR neighbour slice each.
    while let Some(u) = scratch.queue.pop_front() {
        let u = u as usize;
        scratch.flags[u] &= !QUEUED;
        let neighbors = sg.out_neighbors(u);
        ctx.add_work(neighbors.len() as u64);
        // Only `w`s are lowered, never `u` (a self-loop cannot shorten).
        let candidate = match *ctx.value(u) {
            INFINITY => continue,
            distance => distance + 1,
        };
        for &w in neighbors {
            let w = w as usize;
            if candidate < *ctx.value(w) {
                ctx.set_value(w, candidate);
                lowered(&mut scratch, w);
            }
        }
    }

    // Ship changed values to the other replicas (the gating: an unchanged
    // vertex is silent even when it re-scans its edges), clearing exactly
    // the flags this superstep set.
    for &local in &scratch.changed {
        let local = local as usize;
        scratch.flags[local] = 0;
        let value = *ctx.value(local);
        ctx.send_to_replicas(local, value);
    }
    let updates = scratch.changed.len();
    scratch.changed.clear();
    *ctx.scratch() = scratch;
    updates
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph};
    use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
    use ebv_graph::{Graph, VertexId};
    use ebv_partition::{paper_partitioners, EbvPartitioner, Partitioner};

    use crate::cc::oracle::SweepConnectedComponents;
    use crate::oracle::{assert_equals_oracle, run_recorded, StepRecord, Work};
    use crate::sssp::oracle::SweepShortestPath;
    use crate::{ConnectedComponents, SingleSourceShortestPath};

    fn sample_graph(kind: usize, seed: u64) -> Graph {
        match kind {
            0 => RmatGenerator::new(7, 5).with_seed(seed).generate().unwrap(),
            1 => GridGenerator::new(9 + seed as usize % 5, 11)
                .with_deletion_probability(0.1)
                .with_seed(seed)
                .generate()
                .unwrap(),
            _ => named::path_graph(20 + seed as usize % 60).unwrap(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(9))]

        /// Cold SSSP on the worklist kernel, and cold CC on the component
        /// superstep, equal the full-subgraph sweeps they replaced, for
        /// vertex-cut and edge-cut partitioners alike.
        #[test]
        fn kernel_equals_the_sweep_oracles(kind in 0usize..3, seed in 0u64..1_000) {
            let graph = sample_graph(kind, seed);
            let source = VertexId::new(seed % graph.num_vertices() as u64);
            for partitioner in paper_partitioners() {
                for p in [1usize, 2, 4, 7] {
                    let partition = partitioner.partition(&graph, p).unwrap();
                    let dg = DistributedGraph::build(&graph, &partition).unwrap();
                    let what = |program: &str| {
                        format!("{program}, {} p={p}, graph kind {kind} seed {seed}", partitioner.name())
                    };
                    assert_equals_oracle(
                        &dg,
                        (ConnectedComponents::new(), SweepConnectedComponents),
                        None,
                        Work::Components,
                        &what("CC"),
                    );
                    assert_equals_oracle(
                        &dg,
                        (SingleSourceShortestPath::new(source), SweepShortestPath(source)),
                        None,
                        Work::AtMostTheSweep,
                        &what("SSSP"),
                    );
                }
            }
        }
    }

    /// One vertex lowered three times by one superstep's mail: the hub `9`
    /// sits on all four workers, next to `7`, `5` and `3` on the first
    /// three, so in superstep 1 the fourth worker's copy receives 7, 5, 3
    /// in that (arrival) order.
    #[test]
    fn several_falling_messages_lower_a_vertex_once_in_the_changed_list() {
        use ebv_graph::Edge;
        use ebv_partition::PartitionId;

        let assigned = [(7u64, 9u64), (5, 9), (3, 9), (9, 10)]
            .into_iter()
            .zip(0u32..)
            .map(|(edge, worker)| (Edge::from(edge), PartitionId::new(worker)));
        let dg = DistributedGraph::build_streaming(4, None, assigned).unwrap();
        assert_equals_oracle(
            &dg,
            (ConnectedComponents::new(), SweepConnectedComponents),
            None,
            Work::Components,
            "falling messages",
        );

        let (components, log) = run_recorded(&dg, ConnectedComponents::new(), None);
        let (sweep, _) = run_recorded(&dg, SweepConnectedComponents, None);
        let sg = &dg.subgraphs()[3];
        let hub = sg.local_index_of(VertexId::new(9)).unwrap();
        let leaf = sg.local_index_of(VertexId::new(10)).unwrap();
        let step = |superstep: usize| {
            log.iter()
                .find(|r| (r.superstep, r.worker) == (superstep, 3))
                .unwrap()
        };
        // Superstep 0 leaves the hub at its own id; superstep 1 folds
        // 7, 5, 3 into it and passes the 3 on to the leaf.
        assert_eq!(step(0).values[hub], 9);
        assert_eq!((step(1).values[hub], step(1).values[leaf]), (3, 3));
        // The hub is one changed vertex (the leaf is the other), and ships
        // one message to each of its three other replicas.
        assert_eq!(step(1).updates, 2);
        let stats = |outcome: &BspOutcome<u64>| outcome.stats.supersteps[1].per_worker[3];
        assert_eq!(
            components.stats.supersteps[0].per_worker[3].messages_received,
            3
        );
        assert_eq!(stats(&components).messages_sent, 3);
        assert_eq!(stats(&sweep).messages_sent, 3);
        // `updates` in the engine's statistics counts `set_value` calls: the
        // component superstep lowers the hub's label three times and
        // relabels the leaf once; the sweep folds the minimum first and
        // lowers each once.
        assert_eq!(stats(&components).updates, 4);
        assert_eq!(stats(&sweep).updates, 2);
        assert_eq!(components.values[9], 3);
    }

    fn road_grid_at_8() -> DistributedGraph {
        let graph = GridGenerator::new(160, 150)
            .with_deletion_probability(0.05)
            .with_seed(101)
            .generate()
            .unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 8).unwrap();
        DistributedGraph::build(&graph, &partition).unwrap()
    }

    /// The high-diameter case, pinned by exact counts rather than a timer.
    /// The full sweeps made 35,913,295 (CC) and 19,359,152 (SSSP) edge
    /// visits over the same supersteps and messages; the FIFO kernel
    /// 3,413,383 and 714,442. SSSP still runs that kernel; CC relabels
    /// components instead and does 754,963 units (local edges +
    /// vertices once, then the members relabelled). The bounds sit 5%
    /// above, so a change of queue discipline or of the component rule
    /// fails here before it shows in a benchmark.
    #[test]
    fn road_grid_work_follows_the_frontier() {
        let dg = road_grid_at_8();
        let engine = BspEngine::sequential();

        let cc = engine.run(&dg, &ConnectedComponents::new()).unwrap();
        assert_eq!(cc.supersteps, 35);
        assert_eq!(cc.stats.total_messages(), 536_468);
        assert!(
            cc.stats.total_work() <= 793_000,
            "{}",
            cc.stats.total_work()
        );

        let sssp = engine
            .run(&dg, &SingleSourceShortestPath::new(VertexId::new(0)))
            .unwrap();
        assert_eq!(sssp.supersteps, 53);
        assert_eq!(sssp.stats.total_messages(), 214_508);
        assert!(
            sssp.stats.total_work() <= 750_000,
            "{}",
            sssp.stats.total_work()
        );
    }

    /// Every record of `log` from `from` on has the capacities of that
    /// worker's first such record.
    fn assert_capacities_stable(log: &[StepRecord], from: usize, what: &str) {
        for record in log.iter().filter(|r| r.superstep >= from) {
            let first = log
                .iter()
                .find(|r| r.superstep == from && r.worker == record.worker)
                .unwrap();
            assert_eq!(
                record.capacities, first.capacities,
                "{what}: worker {} reallocated its scratch in superstep {}",
                record.worker, record.superstep
            );
        }
    }

    /// The message plane's zero-allocation guarantee, extended to the
    /// programs' scratch: CC's component superstep sizes flags and queue to
    /// the component count in the first superstep that folds mail
    /// (superstep 1) and never again; SSSP's kernel sizes its flags in the
    /// first superstep and never again.
    #[test]
    fn scratch_capacities_are_stable_after_the_first_superstep() {
        let graph = GridGenerator::new(30, 30).generate().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();

        let (outcome, log) = run_recorded(&dg, ConnectedComponents::new(), None);
        assert!(outcome.supersteps >= 4, "needs steady-state supersteps");
        for record in log.iter().filter(|r| r.superstep == 1) {
            let components = dg.subgraphs()[record.worker].local_components().len();
            assert!(record.capacities[0] >= components && record.capacities[1] >= components);
        }
        assert_capacities_stable(&log, 1, "CC");

        // SSSP's queue and changed-list follow its frontier, which starts
        // at one vertex, so only the flags are sized up front.
        let sssp = SingleSourceShortestPath::new(VertexId::new(0));
        let (outcome, log) = run_recorded(&dg, sssp, None);
        assert!(outcome.supersteps >= 3, "needs steady-state supersteps");
        for record in &log {
            let vertices = dg.subgraphs()[record.worker].num_vertices();
            assert_eq!(record.capacities[0], log[record.worker].capacities[0]);
            assert!(record.capacities[0] >= vertices, "SSSP flags");
        }
    }
}
