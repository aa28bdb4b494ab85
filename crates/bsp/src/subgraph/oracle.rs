//! The build [`Subgraph::build`] replaced, kept as its reference: three
//! walks over the edge list (numbering, degree histogram, fill), each
//! resolving both endpoints through a universe-sized array, and an eager
//! global → local hash index. The differential tests below hold the
//! single-resolve build to it field by field. Beside it, a breadth-first
//! search over both CSRs is the reference for [`LocalComponents`]'
//! union-find.

use std::collections::VecDeque;

use super::*;
use crate::DistributedGraph;
use ebv_graph::generators::{named, GraphGenerator, GridGenerator, RmatGenerator};
use ebv_graph::{Graph, GraphBuilder};
use ebv_partition::{EbvPartitioner, MetisLikePartitioner, Partitioner};

/// The three-pass build. `scratch` covers the universe, all-`ABSENT` on
/// entry and on exit.
fn three_pass_build(
    part: PartitionId,
    edges: Vec<Edge>,
    owns_edge: Vec<bool>,
    isolated: &[VertexId],
    replicas: &ReplicaTable,
    scratch: &mut [u32],
) -> Subgraph {
    let owns_edge = if owns_edge.iter().all(|&owned| owned) {
        Vec::new()
    } else {
        owns_edge
    };
    let mut vertices: Vec<VertexId> = Vec::new();
    let mut number = |v: VertexId, vertices: &mut Vec<VertexId>| {
        let slot = &mut scratch[v.index()];
        if *slot == ABSENT {
            *slot = vertices.len() as u32;
            vertices.push(v);
        }
    };
    for v in edges.iter().flat_map(|e| [e.src, e.dst]) {
        number(v, &mut vertices);
    }
    let tail = vertices.len();
    for &v in isolated {
        number(v, &mut vertices);
    }
    let n = vertices.len();
    let is_master = vertices
        .iter()
        .map(|&v| replicas.master_of(v) == part)
        .collect();
    let mut out_offsets = vec![0u32; n + 1];
    let mut in_offsets = vec![0u32; n + 1];
    for e in &edges {
        out_offsets[scratch[e.src.index()] as usize + 1] += 1;
        in_offsets[scratch[e.dst.index()] as usize + 1] += 1;
    }
    for i in 1..=n {
        out_offsets[i] += out_offsets[i - 1];
        in_offsets[i] += in_offsets[i - 1];
    }
    let mut out_targets = vec![0u32; edges.len()];
    let mut in_targets = vec![0u32; edges.len()];
    let mut in_owned = vec![true; owns_edge.len()];
    let mut out_cursor = out_offsets[..n].to_vec();
    let mut in_cursor = in_offsets[..n].to_vec();
    for (i, e) in edges.iter().enumerate() {
        let s = scratch[e.src.index()];
        let d = scratch[e.dst.index()];
        out_targets[out_cursor[s as usize] as usize] = d;
        out_cursor[s as usize] += 1;
        let slot = in_cursor[d as usize] as usize;
        in_targets[slot] = s;
        if owns_edge.get(i) == Some(&false) {
            in_owned[slot] = false;
        }
        in_cursor[d as usize] += 1;
    }
    let mut local_index: IdHashMap<VertexId, u32> =
        IdHashMap::with_capacity_and_hasher(n, Default::default());
    for &v in &vertices {
        local_index.insert(v, std::mem::replace(&mut scratch[v.index()], ABSENT));
    }
    let mut built = Subgraph {
        part,
        edges,
        owns_edge,
        vertices,
        tail,
        local_index: OnceLock::from(local_index),
        components: LocalComponents::new(),
        is_master,
        roles: OnceLock::new(),
        out_offsets,
        out_targets,
        in_offsets,
        in_targets,
        in_owned,
        in_rows: OnceLock::new(),
    };
    built.components = LocalComponents::build(&built);
    built
}

/// Self-loops, parallel edges (same and opposite direction) and isolated
/// vertices, three of them past the largest endpoint.
fn multigraph() -> Graph {
    GraphBuilder::directed()
        .allow_self_loops(true)
        .num_vertices(14)
        .extend_edges([
            (3, 3),
            (3, 1),
            (1, 3),
            (3, 1),
            (0, 4),
            (4, 4),
            (4, 0),
            (0, 4),
            (6, 1),
            (9, 6),
            (9, 9),
            (6, 9),
            (10, 0),
            (3, 1),
        ])
        .build()
        .unwrap()
}

pub(super) fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "rmat",
            RmatGenerator::new(9, 8).with_seed(24).generate().unwrap(),
        ),
        ("road", GridGenerator::new(12, 17).generate().unwrap()),
        ("path", named::path_graph(33).unwrap()),
        ("multigraph", multigraph()),
    ]
}

fn assert_field_by_field(built: &Subgraph, oracle: &Subgraph, universe: usize, what: &str) {
    assert_eq!(built.part, oracle.part, "{what}");
    assert_eq!(built.edges, oracle.edges, "{what}");
    assert_eq!(built.owns_edge, oracle.owns_edge, "{what}");
    assert_eq!(built.vertices, oracle.vertices, "{what}: vertex table");
    assert_eq!(built.tail, oracle.tail, "{what}: isolated tail");
    assert_eq!(built.is_master, oracle.is_master, "{what}: master flags");
    assert_eq!(built.out_offsets, oracle.out_offsets, "{what}: out offsets");
    assert_eq!(built.out_targets, oracle.out_targets, "{what}: out targets");
    assert_eq!(built.in_offsets, oracle.in_offsets, "{what}: in offsets");
    assert_eq!(built.in_targets, oracle.in_targets, "{what}: in targets");
    assert_eq!(built.in_owned, oracle.in_owned, "{what}: in ownership");
    assert_eq!(
        built.components, oracle.components,
        "{what}: local components"
    );
    // The lazily built index answers what the eager one holds, for every
    // vertex of the universe and one past it.
    let eager = oracle
        .local_index
        .get()
        .expect("the oracle indexes eagerly");
    for raw in 0..=universe {
        let v = VertexId::from(raw);
        let expected = eager.get(&v).map(|&local| local as usize);
        assert_eq!(built.local_index_of(v), expected, "{what}: index of {v}");
    }
}

#[test]
fn single_resolve_build_equals_the_three_pass_build() {
    let partitioners: [(&str, Box<dyn Partitioner>); 2] = [
        ("vertex-cut", Box::new(EbvPartitioner::new())),
        ("edge-cut", Box::new(MetisLikePartitioner::new())),
    ];
    let mut unowned_copies = 0usize;
    for (name, graph) in graphs() {
        for p in [1usize, 2, 4, 7] {
            for (cut, partitioner) in &partitioners {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let n = dg.num_vertices();
                let mut scratch = Subgraph::build_scratch(n, 0);
                let mut oracle_scratch = vec![ABSENT; n];
                let mut capacity: Option<[usize; 4]> = None;
                for (i, assembled) in dg.subgraphs().iter().enumerate() {
                    let what = format!("{name} p={p} {cut} worker {i}");
                    let owned: Vec<bool> = (0..assembled.num_edges())
                        .map(|e| assembled.owns_edge(e))
                        .collect();
                    unowned_copies += owned.iter().filter(|&&owned| !owned).count();
                    let (part, isolated) = (assembled.part, assembled.isolated());
                    let edges = || assembled.edges.clone();
                    let oracle = three_pass_build(
                        part,
                        edges(),
                        owned.clone(),
                        isolated,
                        &dg.replicas,
                        &mut oracle_scratch,
                    );
                    // What assembly produced, and a rebuild on a scratch
                    // shared across this distribution's workers.
                    assert_field_by_field(assembled, &oracle, n, &what);
                    let mut rebuilt = Subgraph::build(part, edges(), owned.clone(), &mut scratch);
                    rebuilt.set_isolated(isolated.iter().copied());
                    rebuilt.write_masters(&dg.replicas);
                    assert_field_by_field(&rebuilt, &oracle, n, &what);
                    // A rebuild in place, over buffers and caches that hold
                    // another edge list's, keeps none of it.
                    let mut reused = assembled.clone();
                    let _ = (
                        reused.local_components(),
                        reused.in_edges(),
                        reused.masters(),
                    );
                    let _ = reused.local_index_of(VertexId::new(0));
                    reused.rebuild(Vec::new(), Vec::new(), &mut scratch);
                    assert!(
                        reused.vertices.is_empty() && reused.out_offsets == [0],
                        "{what}"
                    );
                    assert!(!reused.index_is_built() && reused.components.is_empty());
                    assert!(reused.in_rows.get().is_none() && reused.roles.get().is_none());
                    reused.rebuild(edges(), owned, &mut scratch);
                    reused.set_isolated(isolated.iter().copied());
                    reused.write_masters(&dg.replicas);
                    assert_field_by_field(&reused, &oracle, n, &what);

                    // The hand-back invariant, and buffers that are reused
                    // rather than regrown from nothing.
                    assert!(
                        scratch.local_of.iter().all(|&slot| slot == ABSENT),
                        "{what}"
                    );
                    assert!(oracle_scratch.iter().all(|&slot| slot == ABSENT), "{what}");
                    assert!(
                        scratch.staged.is_empty() && scratch.vertices.is_empty(),
                        "{what}"
                    );
                    assert!(
                        scratch.out_cursor.is_empty() && scratch.in_cursor.is_empty(),
                        "{what}"
                    );
                    let now = [
                        scratch.staged.capacity(),
                        scratch.vertices.capacity(),
                        scratch.out_cursor.capacity(),
                        scratch.in_cursor.capacity(),
                    ];
                    if let Some(before) = capacity {
                        let kept = now.iter().zip(&before).all(|(now, before)| now >= before);
                        assert!(kept, "{what}: a buffer shrank: {before:?} → {now:?}");
                    }
                    assert!(now[1] >= rebuilt.held().len(), "{what}");
                    capacity = Some(now);
                }
            }
        }
    }
    assert!(unowned_copies > 0, "no edge-cut case held an unowned copy");
}

#[test]
fn offsets_from_degrees_leaves_the_range_starts_behind() {
    let mut degrees = [2u32, 0, 3, 1];
    // Written over whatever the buffer held.
    let mut offsets = vec![7, 7];
    offsets_from_degrees(&mut degrees, &mut offsets);
    assert_eq!(offsets, [0, 2, 2, 5, 6]);
    assert_eq!(degrees, [0, 2, 2, 5]);
    offsets_from_degrees(&mut [], &mut offsets);
    assert_eq!(offsets, [0]);
}

/// The local components by breadth-first search over both CSRs, started
/// from each unseen vertex in ascending order: each component's members
/// ascending, components in ascending order of their smallest member.
fn components_by_bfs(subgraph: &Subgraph) -> Vec<Vec<u32>> {
    let n = subgraph.num_vertices();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut members = vec![start as u32];
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let neighbors = subgraph.out_neighbors(u).iter();
            for &w in neighbors.chain(subgraph.in_neighbors(u)) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    members.push(w);
                    queue.push_back(w as usize);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

#[test]
fn local_components_equal_a_bfs_over_both_csrs() {
    let partitioners: [(&str, Box<dyn Partitioner>); 2] = [
        ("vertex-cut", Box::new(EbvPartitioner::new())),
        ("edge-cut", Box::new(MetisLikePartitioner::new())),
    ];
    let mut isolated_singletons = 0usize;
    for (name, graph) in graphs() {
        for p in [1usize, 2, 4, 7] {
            for (cut, partitioner) in &partitioners {
                let partition = partitioner.partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                for (i, sg) in dg.subgraphs().iter().enumerate() {
                    let what = format!("{name} p={p} {cut} worker {i}");
                    let got = sg.local_components();
                    let want = components_by_bfs(sg);
                    assert_eq!(got.len(), want.len(), "{what}: component count");
                    assert_eq!(got.is_empty(), sg.num_vertices() == 0, "{what}");
                    for (c, members) in want.iter().enumerate() {
                        assert_eq!(got.members(c), members.as_slice(), "{what}: component {c}");
                        for &m in members {
                            assert_eq!(got.component_of(m as usize), c, "{what}: vertex {m}");
                        }
                    }
                    // Dense ids in ascending smallest-member order, members
                    // ascending, every local vertex exactly once.
                    let firsts: Vec<u32> = (0..got.len()).map(|c| got.members(c)[0]).collect();
                    assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{what}: id order");
                    let mut all: Vec<u32> = (0..got.len())
                        .flat_map(|c| got.members(c).iter().copied())
                        .collect();
                    assert!(
                        (0..got.len()).all(|c| got.members(c).windows(2).all(|w| w[0] < w[1])),
                        "{what}: members ascending"
                    );
                    all.sort_unstable();
                    assert!(
                        all.iter().copied().eq(0..sg.num_vertices() as u32),
                        "{what}"
                    );
                    // A vertex without a local edge is a singleton.
                    for local in 0..sg.num_vertices() {
                        if sg.out_neighbors(local).is_empty() && sg.in_neighbors(local).is_empty() {
                            let c = got.component_of(local);
                            assert_eq!(got.members(c), [local as u32], "{what}: isolated");
                            isolated_singletons += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(isolated_singletons > 0, "no case held an isolated vertex");
}
