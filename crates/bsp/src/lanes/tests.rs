//! The lane count is invisible: assembly and every mutation epoch give the
//! same distribution on one lane as on three, and every worker's local
//! components equal a fresh [`LocalComponents::build`] of it.

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
