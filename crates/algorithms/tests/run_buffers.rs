//! What a warm run allocates, counted by a global allocator.
//!
//! A warm run leaves its emptied message plane (outbox, shard rows,
//! worklist scratch) and value vectors in the graph it ran on, and the next
//! run on that graph starts from them. This binary holds one test, so no
//! other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
};
use ebv_bsp::{
    BspEngine, BspOutcome, DistributedGraph, MutationBatch, RunOptions, WorkerSuperstepStats,
};
use ebv_graph::generators::{GraphGenerator, RmatGenerator};
use ebv_graph::VertexId;
use ebv_partition::{EbvPartitioner, Partitioner};

/// Bytes requested through `alloc`, `alloc_zeroed` and `realloc` (a
/// `realloc` counts its full new size), as `ebvbench` counts them.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// only addition is a relaxed atomic add that neither allocates nor touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with
        // `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `run` and returns its result with the bytes it requested.
fn counted<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let result = run();
    (result, REQUESTED.load(Ordering::Relaxed) - before)
}

/// The run's own outputs: one value per vertex plus one counter row per
/// worker and superstep.
fn output_bytes(outcome: &BspOutcome<u64>, p: usize) -> u64 {
    let values = outcome.values.len() * size_of::<u64>();
    let stats = outcome.supersteps * p * size_of::<WorkerSuperstepStats>();
    (values + stats) as u64
}

/// On one graph, a second identical warm CC run requests its outputs plus
/// a constant in `p` and the supersteps: the plane the first run kept
/// covers everything else. A clone of that graph keeps nothing, so its
/// first warm run requests exactly what the original's first did; so does
/// a warm run after a cold one, which keeps nothing either. A second
/// identical warm SSSP run is held to the same pin.
#[test]
fn a_second_warm_run_requests_its_outputs_and_a_constant() {
    let p = 4;
    let graph = RmatGenerator::new(11, 8).with_seed(7).generate().unwrap();
    let partition = EbvPartitioner::new().partition(&graph, p).unwrap();
    let dg = DistributedGraph::build(&graph, &partition).unwrap();
    let engine = BspEngine::sequential();

    // Every vertex its own prior label: the warm run relabels the whole
    // graph, so its plane carries every replica message a cold CC would.
    let prior: Vec<u64> = (0..graph.num_vertices() as u64).collect();
    let program = IncrementalConnectedComponents::new();
    let options = RunOptions::new().warm_seed(&prior);
    let warm = |dg: &DistributedGraph| counted(|| engine.run_opts(dg, &program, options).unwrap());

    let (first, first_bytes) = warm(&dg);
    let (second, second_bytes) = warm(&dg);
    assert_eq!(second.values, first.values);
    assert_eq!(second.stats, first.stats);
    assert!(first.stats.total_messages() > 1_000, "too little to carry");

    // Beyond its outputs the second run requests, per worker, its job, a
    // slot in the row of per-destination delivery counts and the plane's
    // two entries it hands back (about 630 B), and per superstep the
    // growth of the superstep list.
    let overhead = second_bytes - output_bytes(&second, p);
    let supersteps = second.supersteps as u64;
    let constant = 768 * p as u64 + 64 * supersteps;
    assert!(
        overhead <= constant,
        "the second run requested {overhead} B beyond its outputs \
         ({supersteps} supersteps); the pin is {constant} B"
    );
    assert!(
        first_bytes > 4 * second_bytes,
        "the first run requested {first_bytes} B, the second {second_bytes} B"
    );

    // A clone of the graph that holds a plane starts from none.
    let clone = dg.clone();
    let (cloned, clone_bytes) = warm(&clone);
    assert_eq!(cloned.values, first.values);
    assert_eq!(clone_bytes, first_bytes, "a clone's first warm run");

    // A cold run takes the plane and drops it.
    engine.run(&dg, &ConnectedComponents::new()).unwrap();
    let (after_cold, after_cold_bytes) = warm(&dg);
    assert_eq!(after_cold.stats, first.stats);
    assert_eq!(after_cold_bytes, first_bytes, "a warm run after a cold one");

    // Warm SSSP after a batch that cuts tight edges: the same pin. Neither
    // the dirty bitmaps the plane keeps nor the program's start bitmaps
    // grow per run.
    let mut dg = dg;
    let source = VertexId::new(0);
    let prior = engine
        .run(&dg, &SingleSourceShortestPath::new(source))
        .unwrap()
        .values;
    let vc = partition.as_vertex_cut().unwrap();
    let mut batch = MutationBatch::new();
    let assigned = graph.edges().iter().zip(vc.assignment());
    for (&edge, &part) in assigned.step_by(64) {
        batch.record_delete(edge, part);
    }
    dg.apply_mutations(&batch).unwrap();
    let program = IncrementalSssp::from_distributed(source, &dg, &prior, &batch);
    assert!(program.cone_vertices() > 0, "the batch cuts no tight edge");
    let options = RunOptions::new().warm_seed(&prior);
    let warm = || counted(|| engine.run_opts(&dg, &program, options).unwrap());
    let (first, _) = warm();
    let (second, second_bytes) = warm();
    assert_eq!(second.values, first.values);
    assert_eq!(second.stats, first.stats);
    assert!(first.stats.total_messages() > 0, "nothing to carry");
    let overhead = second_bytes - output_bytes(&second, p);
    let constant = 768 * p as u64 + 64 * second.supersteps as u64;
    assert!(
        overhead <= constant,
        "the second warm SSSP run requested {overhead} B beyond its outputs; the pin is {constant} B"
    );
}
