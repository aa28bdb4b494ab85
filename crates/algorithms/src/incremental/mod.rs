//! Warm-start (incremental) variants of the evaluation applications.
//!
//! A mutation epoch (`ebv_bsp::DistributedGraph::apply_mutations`) usually
//! disturbs a tiny fraction of the graph, yet re-running CC or SSSP from
//! scratch pays the full cold-start cost every time. The two programs
//! here are designed for
//! [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed): they seed every
//! vertex from the previous epoch's outcome and re-activate only the region
//! the mutations disturbed.
//!
//! Each program owns its invalidation — *what a deletion invalidates* —
//! and hands the engine a [`warm_value`](ebv_bsp::SubgraphProgram::warm_value)
//! that keeps a clean prior value and resets a dirty one to the vertex's
//! cold initial value; then it runs the superstep its cold program runs —
//! the component superstep for CC, the gated worklist kernel for SSSP,
//! started from a smaller frontier:
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
//!   shorten paths); deletions invalidate exactly the *downstream cones* of
//!   vertices whose every tight shortest-path certificate crossed a deleted
//!   edge, found by `from_distributed` walking outward from the removed
//!   tight edges over the post-mutation graph (the exhaustive tight-edge
//!   scan it replaced checks it in every debug build).
//!   The surviving settled frontier re-settles the reset region. Kept
//!   distances are still valid upper bounds, reset ones restart from
//!   unreachable, so the warm relaxation fixpoint is the cold answer.
//!   `from_distributed` also maps the seeds, the cone, the vertices past
//!   the prior and the source to per-worker bitmaps of local vertices, and
//!   the first superstep visits only those instead of scanning every local.
//!
//! Both run on the engine's warm path, which seeds every replica but
//! writes its output by patching the prior: only masters whose seed
//! differs from their prior value, or that a superstep set, are written
//! (see [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed)). A warm
//! SSSP epoch therefore costs its batch plus one seeding pass and one
//! copy of the prior; warm CC, whose reset dirties most of a giant
//! component, costs about what it did with the full walk.
//!
//! PageRank has no warm program: rank mass propagates globally, so there is
//! no frontier to shrink. [`crate::PageRank`] itself can be seeded from a
//! previous epoch's ranks through `RunOptions::warm_seed`, and then runs
//! its fixed number of iterations from there.

mod cc;
mod distance;
#[cfg(test)]
mod tests;

pub use cc::IncrementalConnectedComponents;
pub use distance::IncrementalSssp;
