//! Shape checks for the paper's headline claims, run on the synthetic
//! substitutes.
//!
//! The absolute numbers of the paper (21.8% replication reduction, 23.7%
//! fewer messages, 16.8% faster than Ginger) were measured on billion-edge
//! SNAP graphs on a 4-node cluster; these tests assert the *direction and
//! rough magnitude* of each claim on the laptop-scale substitutes, which is
//! what a reproduction on different data can meaningfully check.
//!
//! This file asserts thresholds on its own R-MAT(12,16) graph; it pins no
//! exact value. The exact values of the paper's reports (`paper <name>` in
//! `ebv-bench`) are pinned byte for byte by `crates/bench/golden/`, checked
//! by `crates/bench/tests/golden.rs`.

use ebv::algorithms::ConnectedComponents;
use ebv::bsp::{BspEngine, CostModel, DistributedGraph};
use ebv::graph::generators::{GraphGenerator, RmatGenerator};
use ebv::graph::Graph;
use ebv::partition::{
    CvcPartitioner, DbhPartitioner, EbvPartitioner, GingerPartitioner, MetisLikePartitioner,
    NePartitioner, PartitionMetrics, Partitioner,
};

fn power_law_graph() -> Graph {
    RmatGenerator::new(12, 16)
        .with_probabilities(0.6, 0.19, 0.16)
        .with_seed(99)
        .generate()
        .unwrap()
}

fn replication(graph: &Graph, partitioner: &dyn Partitioner, p: usize) -> f64 {
    let result = partitioner.partition(graph, p).unwrap();
    PartitionMetrics::compute(graph, &result)
        .unwrap()
        .replication_factor
}

fn cc_messages(graph: &Graph, partitioner: &dyn Partitioner, p: usize) -> usize {
    let partition = partitioner.partition(graph, p).unwrap();
    let distributed = DistributedGraph::build(graph, &partition).unwrap();
    BspEngine::sequential()
        .run(&distributed, &ConnectedComponents::new())
        .unwrap()
        .stats
        .total_messages()
}

fn cc_modeled_time(graph: &Graph, partitioner: &dyn Partitioner, p: usize) -> f64 {
    let partition = partitioner.partition(graph, p).unwrap();
    let distributed = DistributedGraph::build(graph, &partition).unwrap();
    let outcome = BspEngine::sequential()
        .run(&distributed, &ConnectedComponents::new())
        .unwrap();
    CostModel::default()
        .breakdown(&outcome.stats)
        .execution_time
}

/// Claim (abstract): "EBV reduces the replication factor by at least 21.8%
/// ... than other self-based partition algorithms." We check EBV beats every
/// self-based vertex-cut baseline (Ginger, DBH, CVC) by a clear margin.
#[test]
fn ebv_has_the_lowest_replication_factor_of_the_self_based_family() {
    let graph = power_law_graph();
    let p = 16;
    let ebv = replication(&graph, &EbvPartitioner::new(), p);
    let ginger = replication(&graph, &GingerPartitioner::new(), p);
    let dbh = replication(&graph, &DbhPartitioner::new(), p);
    let cvc = replication(&graph, &CvcPartitioner::new(), p);
    assert!(ebv < ginger, "EBV {ebv} vs Ginger {ginger}");
    assert!(ebv < dbh, "EBV {ebv} vs DBH {dbh}");
    assert!(ebv < cvc, "EBV {ebv} vs CVC {cvc}");
    // "at least 21.8%" against the best of them is graph-dependent; require
    // a clearly visible margin (>5%) against the family's best.
    let best_baseline = ginger.min(dbh).min(cvc);
    assert!(
        ebv < 0.95 * best_baseline,
        "EBV {ebv} should undercut the best self-based baseline {best_baseline} by >5%"
    );
}

/// Claim (abstract): "...and communication by at least 23.7% ... than other
/// self-based partition algorithms" — checked through the CC message counts
/// of Table IV.
#[test]
fn ebv_sends_fewer_cc_messages_than_the_self_based_baselines() {
    let graph = power_law_graph();
    let p = 16;
    let ebv = cc_messages(&graph, &EbvPartitioner::new(), p);
    let ginger = cc_messages(&graph, &GingerPartitioner::new(), p);
    let dbh = cc_messages(&graph, &DbhPartitioner::new(), p);
    let cvc = cc_messages(&graph, &CvcPartitioner::new(), p);
    assert!(ebv < ginger, "EBV {ebv} vs Ginger {ginger}");
    assert!(ebv < dbh, "EBV {ebv} vs DBH {dbh}");
    assert!(ebv < cvc, "EBV {ebv} vs CVC {cvc}");
}

/// Claim (Table II / Figure 2): at the worker counts the paper uses for its
/// skewed graphs, EBV's modeled execution time beats every baseline because
/// it balances workload *and* keeps communication low; the local-based
/// baselines additionally show a much larger accumulated synchronization gap
/// ΔC (the mechanism Table II identifies).
#[test]
fn ebv_has_the_lowest_modeled_cc_time_on_the_power_law_graph() {
    let graph = power_law_graph();
    let p = 16;
    let ebv = cc_modeled_time(&graph, &EbvPartitioner::new(), p);
    for baseline in [
        Box::new(GingerPartitioner::new()) as Box<dyn Partitioner>,
        Box::new(DbhPartitioner::new()),
        Box::new(CvcPartitioner::new()),
        Box::new(NePartitioner::new()),
        Box::new(MetisLikePartitioner::new()),
    ] {
        let time = cc_modeled_time(&graph, baseline.as_ref(), p);
        assert!(
            ebv <= time * 1.02,
            "EBV modeled time {ebv} should not exceed {} ({})",
            time,
            baseline.name()
        );
    }

    // The workload-imbalance mechanism: ΔC of the local-based partitioners
    // dwarfs EBV's.
    let delta_c = |partitioner: &dyn Partitioner| {
        let partition = partitioner.partition(&graph, p).unwrap();
        let distributed = DistributedGraph::build(&graph, &partition).unwrap();
        let outcome = BspEngine::sequential()
            .run(&distributed, &ConnectedComponents::new())
            .unwrap();
        CostModel::default().breakdown(&outcome.stats).delta_c
    };
    let ebv_gap = delta_c(&EbvPartitioner::new());
    assert!(delta_c(&NePartitioner::new()) > 2.0 * ebv_gap);
    assert!(delta_c(&MetisLikePartitioner::new()) > 2.0 * ebv_gap);
}

/// Claim (Table III trend): the local-based algorithms lose balance as the
/// graph gets more skewed — NE on vertices, METIS on edges — while EBV keeps
/// both factors near 1 everywhere.
#[test]
fn local_based_baselines_lose_balance_on_skewed_graphs_while_ebv_does_not() {
    let graph = power_law_graph();
    let p = 16;
    let ebv = {
        let r = EbvPartitioner::new().partition(&graph, p).unwrap();
        PartitionMetrics::compute(&graph, &r).unwrap()
    };
    let ne = {
        let r = NePartitioner::new().partition(&graph, p).unwrap();
        PartitionMetrics::compute(&graph, &r).unwrap()
    };
    let metis = {
        let r = MetisLikePartitioner::new().partition(&graph, p).unwrap();
        PartitionMetrics::compute(&graph, &r).unwrap()
    };
    assert!(ebv.edge_imbalance < 1.1 && ebv.vertex_imbalance < 1.1);
    assert!(
        ne.vertex_imbalance > 1.3,
        "NE vertex imbalance {} should blow up on the skewed graph",
        ne.vertex_imbalance
    );
    assert!(
        metis.edge_imbalance > 1.3,
        "METIS-like edge imbalance {} should blow up on the skewed graph",
        metis.edge_imbalance
    );
}

/// Claim (Figure 5): the sorting preprocessing lowers the final replication
/// factor, and the advantage grows with the number of subgraphs. (The paper's
/// own Figure 5 shows the curves nearly coincide at 4 subgraphs, so the
/// check starts at 8.)
#[test]
fn sorting_preprocessing_reduces_replication_and_the_gap_grows_with_p() {
    let graph = power_law_graph();
    let mut gaps = Vec::new();
    for &p in &[8usize, 16, 32] {
        let sorted = replication(&graph, &EbvPartitioner::new(), p);
        let unsorted = replication(&graph, &EbvPartitioner::new().unsorted(), p);
        assert!(
            sorted < unsorted,
            "p={p}: sorted {sorted} vs unsorted {unsorted}"
        );
        gaps.push(unsorted - sorted);
    }
    assert!(
        gaps.windows(2).all(|w| w[1] > w[0]),
        "the sort advantage should grow with the number of subgraphs: {gaps:?}"
    );
}
