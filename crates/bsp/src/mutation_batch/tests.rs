//! `MutationBatch`'s in-batch cancellation, checked against the scanning
//! batch it replaced (`ScanBatch`).

use super::*;

#[test]
fn mutation_batch_cancels_same_batch_deletions() {
    let mut batch = MutationBatch::new();
    let e = Edge::from((0u64, 1u64));
    batch.record_insert(e, PartitionId::new(0));
    batch.record_insert(e, PartitionId::new(1));
    batch.record_delete(e, PartitionId::new(1));
    assert_eq!(batch.added(), &[(e, PartitionId::new(0))]);
    assert!(batch.removed().is_empty());
    batch.record_delete(e, PartitionId::new(1));
    assert_eq!(batch.removed(), &[(e, PartitionId::new(1))]);
    assert_eq!(batch.len(), 2);
    assert!(!batch.is_empty());
    batch.record_move(
        Edge::from((2u64, 3u64)),
        PartitionId::new(0),
        PartitionId::new(1),
    );
    assert_eq!(batch.len(), 4);
}

/// The in-batch cancellation [`MutationBatch`] had before its pending
/// multiset: every deletion scans the additions. Kept as the reference
/// the O(1)-miss implementation is checked against.
#[derive(Default)]
struct ScanBatch {
    added: Vec<(Edge, PartitionId)>,
    removed: Vec<(Edge, PartitionId)>,
}

impl ScanBatch {
    fn record_insert(&mut self, edge: Edge, part: PartitionId) {
        self.added.push((edge, part));
    }

    fn record_delete(&mut self, edge: Edge, part: PartitionId) {
        match self.added.iter().rposition(|&pair| pair == (edge, part)) {
            Some(index) => {
                self.added.remove(index);
            }
            None => self.removed.push((edge, part)),
        }
    }

    fn record_move(&mut self, edge: Edge, from: PartitionId, to: PartitionId) {
        self.record_delete(edge, from);
        self.record_insert(edge, to);
    }
}

fn assert_same_batch(batch: &MutationBatch, oracle: &ScanBatch) {
    assert_eq!(batch.added(), oracle.added.as_slice());
    assert_eq!(batch.removed(), oracle.removed.as_slice());
    assert_eq!(batch.len(), oracle.added.len() + oracle.removed.len());
    assert_eq!(
        batch.is_empty(),
        oracle.added.is_empty() && oracle.removed.is_empty()
    );
}

#[test]
fn delete_then_reinsert_of_a_pre_batch_pair_sits_in_both_lists() {
    let pair = (Edge::from((4u64, 2u64)), PartitionId::new(1));
    let mut batch = MutationBatch::new();
    batch.record_delete(pair.0, pair.1);
    batch.record_insert(pair.0, pair.1);
    assert_eq!(batch.added(), &[pair]);
    assert_eq!(batch.removed(), &[pair]);

    // The round trip keeps both, and a further delete cancels the
    // re-insert rather than the pre-batch removal.
    let mut decoded = MutationBatch::from_parts(batch.added().to_vec(), batch.removed().to_vec());
    assert_eq!(decoded, batch);
    decoded.record_delete(pair.0, pair.1);
    assert!(decoded.added().is_empty());
    assert_eq!(decoded.removed(), &[pair]);
    // Nothing pending any more: the next delete is a plain removal.
    decoded.record_delete(pair.0, pair.1);
    assert_eq!(decoded.removed(), &[pair, pair]);
}

#[test]
fn rebalance_plans_replay_through_record_move_like_the_scan() {
    use ebv_partition::{RandomVertexCutPartitioner, RebalanceConfig, StreamConfig};

    // Duplicate copies hash to one partition, so a rebalance migrates
    // several copies of the same edge: moves whose `from` matches an
    // earlier move's `to` cancel in-batch.
    let mut partitioner = RandomVertexCutPartitioner::new()
        .dynamic(StreamConfig::new(4))
        .unwrap();
    for round in 0..6u64 {
        for v in 0..5u64 {
            partitioner.insert(Edge::from((v, (v + round) % 5)));
        }
    }
    let aggressive = RebalanceConfig::new()
        .with_max_edge_imbalance(1.0)
        .with_target_edge_imbalance(1.0)
        .with_max_replication_factor(1.0);
    let (mut batch, mut oracle) = (MutationBatch::new(), ScanBatch::default());
    for _ in 0..3 {
        let plan = partitioner.rebalance(&aggressive).unwrap();
        for m in plan.moves() {
            batch.record_move(m.edge, m.from, m.to);
            oracle.record_move(m.edge, m.from, m.to);
        }
    }
    assert!(!batch.is_empty(), "the skewed setup migrates something");
    assert_same_batch(&batch, &oracle);
}

mod batch_differential {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/delete/move sequences over a universe small
        /// enough that duplicate copies, same-batch cancellations and
        /// delete-then-reinsert of a pre-batch pair are all frequent,
        /// with a `from_parts` round trip at a random point: the
        /// multiset-backed batch and the scanning oracle agree on both
        /// lists after every operation.
        #[test]
        fn multiset_cancellation_matches_the_scan(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..4, 0u64..4, 0u32..3, 0u32..3),
                1..160,
            ),
            round_trip_at in 0usize..160,
        ) {
            let (mut batch, mut oracle) = (MutationBatch::new(), ScanBatch::default());
            for (step, (kind, src, dst, part, other)) in ops.into_iter().enumerate() {
                if step == round_trip_at {
                    batch = MutationBatch::from_parts(
                        batch.added().to_vec(),
                        batch.removed().to_vec(),
                    );
                }
                let edge = Edge::from((src, dst));
                let (part, other) = (PartitionId::new(part), PartitionId::new(other));
                match kind {
                    0 => {
                        batch.record_insert(edge, part);
                        oracle.record_insert(edge, part);
                    }
                    1 => {
                        batch.record_delete(edge, part);
                        oracle.record_delete(edge, part);
                    }
                    2 => {
                        batch.record_move(edge, part, other);
                        oracle.record_move(edge, part, other);
                    }
                    _ => {
                        // Retire a copy and put the same pair back.
                        batch.record_delete(edge, part);
                        batch.record_insert(edge, part);
                        oracle.record_delete(edge, part);
                        oracle.record_insert(edge, part);
                    }
                }
                assert_same_batch(&batch, &oracle);
            }
        }
    }
}
