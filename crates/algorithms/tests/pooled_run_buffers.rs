//! What a pooled run requests beyond the same sequential run, counted by a
//! global allocator.
//!
//! The lane crew places job `i` on lane `i mod L` through slots it keeps
//! from round to round, so no superstep after the first requests anything
//! for placement: what a pooled run requests beyond the sequential run is a
//! per-run constant (the lanes' threads, the board and its slots), whatever
//! the number of supersteps. This binary holds one test, so no other test
//! thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ebv_algorithms::SingleSourceShortestPath;
use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph};
use ebv_graph::generators::{GraphGenerator, GridGenerator};
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

/// `side`×`side` grid distributed by EBV over eight workers.
fn grid(side: usize) -> DistributedGraph {
    let graph = GridGenerator::new(side, side).generate().unwrap();
    let partition = EbvPartitioner::new().partition(&graph, 8).unwrap();
    DistributedGraph::build(&graph, &partition).unwrap()
}

/// A cold SSSP from vertex 0 on `dg` under `engine`, with the bytes it
/// requested.
fn sssp(engine: &BspEngine, dg: &DistributedGraph) -> (BspOutcome<u64>, u64) {
    let program = SingleSourceShortestPath::new(VertexId::new(0));
    counted(|| engine.run(dg, &program).unwrap())
}

/// On a 20² and a 120² grid — 7 and 17 supersteps — a two-lane run
/// requests the same bytes beyond the sequential run, and two identical
/// two-lane runs request the same bytes.
#[test]
fn a_pooled_run_requests_a_constant_beyond_the_sequential_run() {
    let (sequential, pooled) = (BspEngine::sequential(), BspEngine::pooled(2));
    let (small, large) = (grid(20), grid(120));
    let extra = |dg: &DistributedGraph| {
        let (reference, sequential_bytes) = sssp(&sequential, dg);
        let (outcome, pooled_bytes) = sssp(&pooled, dg);
        assert_eq!(outcome.values, reference.values);
        assert_eq!(outcome.stats, reference.stats);
        (outcome.supersteps, pooled_bytes - sequential_bytes)
    };
    let (short, short_extra) = extra(&small);
    let (long, long_extra) = extra(&large);
    assert!(long > short + 5, "{short} and {long} supersteps");
    assert_eq!(
        long_extra, short_extra,
        "a pooled run's bytes beyond the sequential run over {long} \
         supersteps against {short}"
    );

    let (_, first) = sssp(&pooled, &large);
    let (_, second) = sssp(&pooled, &large);
    assert_eq!(second, first, "two identical pooled runs");
}
