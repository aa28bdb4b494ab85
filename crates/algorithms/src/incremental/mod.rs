//! Warm-start (incremental) variants of the evaluation applications.
//!
//! A mutation epoch (`ebv_bsp::DistributedGraph::apply_mutations`) usually
//! disturbs a tiny fraction of the graph, yet re-running CC, PageRank or
//! SSSP from scratch pays the full cold-start cost every time. The
//! programs here are designed for
//! [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed): they seed every
//! vertex from the previous epoch's outcome and re-activate only the region
//! the mutations disturbed.
//!
//! All three share one epoch shape, factored into the [`ebv_bsp::warm`]
//! harness ([`WarmFrontier`](ebv_bsp::WarmFrontier) +
//! [`InvalidationPolicy`](ebv_bsp::InvalidationPolicy)) and the superstep
//! their cold program runs — the component superstep for CC, the gated
//! worklist kernel for SSSP, started from a smaller frontier — so a new
//! warm-start algorithm only has to state *what a deletion invalidates* and
//! *what a vertex's cold initial value is*:
//!
//! * [`IncrementalConnectedComponents`] converges to labels **bit-identical**
//!   to a cold [`crate::ConnectedComponents`] run: the final label of every
//!   vertex is the minimum vertex id of its component, a pure function of
//!   the graph, so a correct incremental fixpoint cannot differ. Deletions
//!   conservatively reset the components they touched (a deletion may split
//!   a component, and a minimum cannot *raise* stale labels); then the first
//!   superstep lowers each local component to its minimum — which settles
//!   inserted edges inside a worker and reset vertices next to kept ones —
//!   and only the labels that changed travel. A warm epoch therefore costs
//!   the workers' local components (cached on every worker the epoch kept)
//!   plus its messages.
//! * [`IncrementalSssp`] carries hop distances (BFS depths: every edge has
//!   length 1) across epochs with delta-stepping-style re-activation,
//!   **bit-identical** to cold [`crate::SingleSourceShortestPath`] runs.
//!   Inserted-edge endpoints relax downward (an insertion can only
//!   shorten paths); deletions invalidate either everything at or beyond the
//!   deleted edge's head — the graph-free *horizon* of `from_batch` — or,
//!   with `from_distributed`, exactly the *downstream cones* of vertices
//!   whose every tight shortest-path certificate crossed a deleted edge,
//!   found by walking outward from the removed tight edges (the exhaustive
//!   tight-edge scan it replaced checks it in every debug build).
//!   The surviving settled frontier re-settles the reset region. Kept
//!   distances are still valid upper bounds, reset ones restart from
//!   unreachable, so the warm relaxation fixpoint is the cold answer.
//! * [`IncrementalPageRank`] continues the power iteration from the previous
//!   epoch's ranks. Rank mass propagates globally, so instead of a frontier
//!   the win is iteration count: a warm start near the fixpoint needs far
//!   fewer iterations than a cold uniform start to reach the same tolerance,
//!   and bit-exact message gating suppresses replica traffic in regions that
//!   have already re-converged.

mod cc;
mod distance;
mod pagerank;

pub use cc::IncrementalConnectedComponents;
pub use distance::IncrementalSssp;
pub use pagerank::IncrementalPageRank;
