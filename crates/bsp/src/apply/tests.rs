//! The epoch steps against the code they replaced: the filtered reverse
//! sweep against a probe per edge, the bitmap's affected list against a
//! sorted and deduplicated one.

use proptest::prelude::*;

use super::*;
use ebv_partition::PartitionId;

/// The pending multiset of `removals`, as `validate_removals` groups it.
fn pending_of(removals: &[(u64, u64)]) -> IdHashMap<Edge, usize> {
    let mut pending = IdHashMap::default();
    for &(s, d) in removals {
        *pending.entry(Edge::from((s, d))).or_insert(0) += 1;
    }
    pending
}

#[test]
fn a_filter_refilled_smaller_forgets_the_larger_batch() {
    let mut filter = EdgeFilter::default();
    let many: Vec<Edge> = (0..500u64).map(|i| Edge::from((i, i + 1))).collect();
    filter.fill(many.iter().copied(), many.len());
    assert!(many.iter().all(|&edge| filter.may_contain(edge)));
    assert_eq!(
        filter.words.len(),
        8192 / 64,
        "16 bits per removal, rounded up"
    );
    let few = [Edge::from((7u64, 3u64))];
    filter.fill(few.iter().copied(), few.len());
    assert_eq!(filter.words.len(), 1);
    assert!(filter.may_contain(few[0]));
    let passed = many
        .iter()
        .filter(|&&edge| filter.may_contain(edge))
        .count();
    assert!(passed < many.len(), "every bit of the larger fill survived");
}

#[test]
fn the_affected_list_counts_every_created_vertex() {
    let mut batch = MutationBatch::new();
    batch.record_insert(Edge::from((9u64, 2u64)), PartitionId::new(0));
    batch.record_delete(Edge::from((2u64, 0u64)), PartitionId::new(1));
    assert_eq!(affected_vertices(&batch, 6, 10), [0, 2, 6, 7, 8, 9]);
    assert_eq!(affected_vertices(&batch, 10, 10), [0, 2, 9]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edge lists and removals over a universe small enough that duplicate
    /// copies, removals of several copies of one edge and removals of edges
    /// the worker does not hold are all frequent: the filtered sweep keeps
    /// and takes the same copies as a probe per edge and leaves the same
    /// counts unmatched.
    #[test]
    fn the_filtered_sweep_equals_a_probe_per_edge(
        edges in proptest::collection::vec((0u64..6, 0u64..6), 0..200),
        removals in proptest::collection::vec((0u64..8, 0u64..8), 1..60),
    ) {
        let edges: Vec<Edge> = edges.into_iter().map(Edge::from).collect();
        let (mut filtered, mut probed) = (pending_of(&removals), pending_of(&removals));
        let mut filter = EdgeFilter::default();
        filter.fill(filtered.keys().copied(), removals.len());
        let keep = sweep(&edges, &mut filtered, &filter);
        prop_assert_eq!(keep, sweep_probing_every_edge(&edges, &mut probed));
        prop_assert_eq!(filtered, probed);
    }

    /// Random inserts and deletes, some past the old universe: the bitmap's
    /// list equals the sorted, deduplicated endpoints plus the created
    /// vertices.
    #[test]
    fn affected_vertices_equal_the_sorted_endpoints(
        ops in proptest::collection::vec((any::<bool>(), 0u64..300, 0u64..300), 0..80),
        old_n in 0usize..300,
    ) {
        let mut batch = MutationBatch::new();
        let mut n = old_n;
        for &(insert, s, d) in &ops {
            let edge = Edge::from((s, d));
            if insert {
                batch.record_insert(edge, PartitionId::new(0));
                n = n.max(s.max(d) as usize + 1);
            } else if s.max(d) < old_n as u64 {
                batch.record_delete(edge, PartitionId::new(1));
            }
        }
        prop_assert_eq!(affected_vertices(&batch, old_n, n), affected_by_sorting(&batch, old_n, n));
    }
}
