//! Pins the hash partitioners' assignments bit for bit.
//!
//! Random-VC, Random-EC, CVC, DBH and Ginger place edges (or vertices) by
//! `mix64` hashes, and the online Random policy hashes each edge's
//! endpoints. The paper goldens run only some of them, so this suite
//! fingerprints every assignment on one fixed R-MAT graph at two partition
//! counts: any change to a hash input moves a constant here.

use ebv_graph::generators::{GraphGenerator, RmatGenerator};
use ebv_graph::Graph;
use ebv_partition::{
    CvcPartitioner, DbhPartitioner, GingerPartitioner, PartitionId, Partitioner,
    RandomEdgeCutPartitioner, RandomVertexCutPartitioner, StreamConfig,
};

/// Word-wise FNV-1a over partition indices, in assignment order.
fn fingerprint(parts: impl IntoIterator<Item = PartitionId>) -> u64 {
    parts
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |acc, part| {
            (acc ^ part.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn graph() -> Graph {
    RmatGenerator::new(10, 8).with_seed(57).generate().unwrap()
}

fn batch(partitioner: &dyn Partitioner, graph: &Graph, p: usize) -> u64 {
    let result = partitioner.partition(graph, p).unwrap();
    match result.as_vertex_cut() {
        Some(edges) => fingerprint(edges.assignment().iter().copied()),
        None => fingerprint(result.as_edge_cut().unwrap().assignment().iter().copied()),
    }
}

#[test]
fn batch_hash_partitioners_are_pinned() {
    let graph = graph();
    let partitioners: [(&dyn Partitioner, [u64; 2]); 5] = [
        (
            &RandomVertexCutPartitioner::new(),
            [0xc35e_e6e0_a2fa_a543, 0x0350_3102_fddc_8fdb],
        ),
        (
            &RandomEdgeCutPartitioner::new(),
            [0xfe2b_4bba_69ac_55a6, 0xd27e_b71b_9200_b733],
        ),
        (
            &CvcPartitioner::new(),
            [0xc66e_4a5b_85ef_921e, 0x727b_040a_3615_9c7c],
        ),
        (
            &DbhPartitioner::new(),
            [0x244a_9de1_ad37_d6af, 0x9826_82a9_1300_2a2a],
        ),
        (
            &GingerPartitioner::new(),
            [0x43eb_858a_97a9_8e47, 0xfaf3_4598_2d67_1064],
        ),
    ];
    for (partitioner, pins) in partitioners {
        for (p, pin) in [3, 8].into_iter().zip(pins) {
            let got = batch(partitioner, &graph, p);
            assert_eq!(got, pin, "{} at p = {p}: {got:#018x}", partitioner.name());
        }
    }
}

#[test]
fn online_random_placements_are_pinned() {
    let graph = graph();
    for (p, pin) in [(3, 0xc18e_ef51_003f_f9fd), (8, 0xe4d1_61ed_5a75_2bbb)] {
        let mut online = RandomVertexCutPartitioner::new()
            .dynamic(StreamConfig::new(p))
            .unwrap();
        let got = fingerprint(graph.edges().iter().map(|&edge| online.insert(edge)));
        assert_eq!(got, pin, "online Random at p = {p}: {got:#018x}");
    }
}
