//! The warm-start harness: shared dirty-set/seed bookkeeping for
//! incremental (re-activation) programs.
//!
//! Every warm-start program built so far — incremental CC, PageRank and
//! SSSP in `ebv-algorithms` — shares the same epoch shape:
//!
//! 1. **dirty-set computation**: fold the [`MutationBatch`]es applied since
//!    the prior outcome into an algorithm-specific description of which
//!    prior values a deletion may have invalidated;
//! 2. **warm seeding**: hand the engine the prior values
//!    ([`RunOptions::warm_seed`](crate::RunOptions::warm_seed)) and a
//!    [`SubgraphProgram::warm_value`](crate::SubgraphProgram::warm_value)
//!    that carries clean prior values over and resets dirty ones to their
//!    cold initial state;
//! 3. **gated re-activation**: activate only the disturbed region (the
//!    endpoints of inserted edges plus whatever the invalidation reset; CC
//!    instead lowers every local component to its minimum, which reaches
//!    the same region) and ship only changed values between replicas.
//!
//! [`WarmFrontier`] implements steps 1 and 2 once, parameterized by an
//! [`InvalidationPolicy`] that captures the only part that differs between
//! algorithms: *what a deletion invalidates*. Connected components dirty
//! whole prior component labels (a deletion may split a component); shortest
//! paths dirty every distance at or beyond the settled horizon of the
//! deleted edge (a deletion may lengthen any path through it); PageRank
//! dirties nothing (rank mass re-converges from any starting point). Step 3
//! lives next to the programs in `ebv-algorithms`: a gated worklist kernel
//! for SSSP and a component superstep for CC.

use ebv_graph::{Edge, VertexId, VertexSet};

use crate::mutation_batch::MutationBatch;

/// The algorithm-specific half of a warm start: what one deleted edge
/// invalidates, and whether a given prior value survived the accumulated
/// invalidations.
///
/// Implementations are folded over every [`MutationBatch`] applied since the
/// prior outcome by [`WarmFrontier::absorb`], then queried once per vertex
/// replica at warm-seeding time.
pub trait InvalidationPolicy {
    /// The per-vertex value of the program this policy guards.
    type Value;

    /// Records the consequences of one removed edge copy. `src_prior` and
    /// `dst_prior` are the endpoint values in the prior outcome, or `None`
    /// for endpoints that postdate it (the vertex universe may have grown
    /// across epochs).
    fn on_removed_edge(
        &mut self,
        edge: Edge,
        src_prior: Option<&Self::Value>,
        dst_prior: Option<&Self::Value>,
    );

    /// Whether `prior` (the value of `vertex` in the prior outcome) must be
    /// discarded and re-derived from the vertex's cold initial state.
    fn is_dirty(&self, vertex: VertexId, prior: &Self::Value) -> bool;
}

/// Shared warm-start bookkeeping: the seed frontier (vertices incident to
/// inserted edges) plus an [`InvalidationPolicy`] folded over the removed
/// edges of every absorbed batch.
///
/// A warm-start program owns one `WarmFrontier`, absorbs every
/// [`MutationBatch`] applied since its prior outcome (in any order), and
/// delegates its `warm_value` to [`WarmFrontier::retain`].
#[derive(Debug, Clone, Default)]
pub struct WarmFrontier<P> {
    policy: P,
    /// Raw vertex ids, membership only: the distance kernel's superstep 0
    /// probes [`is_seed`](WarmFrontier::is_seed) once per local vertex, so
    /// it is a bit per id, sized to the prior's universe by
    /// [`absorb_seeds`](WarmFrontier::absorb_seeds); endpoints the universe
    /// has since grown by spill beside the bits.
    seeds: VertexSet,
}

impl<P: InvalidationPolicy> WarmFrontier<P> {
    /// Creates an empty frontier around `policy`: nothing seeded, nothing
    /// invalidated, so a warm run converges immediately when the prior
    /// outcome is still valid.
    pub fn new(policy: P) -> Self {
        WarmFrontier {
            policy,
            seeds: VertexSet::default(),
        }
    }

    /// Folds one mutation batch into the frontier. Every batch applied on
    /// top of the graph that produced `prior` must be absorbed before the
    /// warm run.
    ///
    /// Endpoints of inserted edges become seeds (the activation frontier of
    /// the first warm superstep); removed edges are handed to the policy
    /// with their endpoints' prior values. A removed-edge endpoint that
    /// postdates `prior` is also seeded: it starts from its cold initial
    /// value and may still need to propagate it.
    pub fn absorb(&mut self, prior: &[P::Value], batch: &MutationBatch) {
        for &(edge, _) in batch.removed() {
            self.policy.on_removed_edge(
                edge,
                prior.get(edge.src.index()),
                prior.get(edge.dst.index()),
            );
        }
        self.absorb_seeds(prior, batch);
    }

    /// Like [`absorb`](Self::absorb), but only the seed bookkeeping: the
    /// policy never sees the removed edges. For programs that compute a
    /// *precise* invalidation externally (e.g. the SSSP support cone walked
    /// over the distribution itself) instead of folding per-edge
    /// consequences, and install it via [`policy_mut`](Self::policy_mut).
    pub fn absorb_seeds(&mut self, prior: &[P::Value], batch: &MutationBatch) {
        self.seeds.grow_universe(prior.len());
        for &(edge, _) in batch.removed() {
            for v in [edge.src, edge.dst] {
                if prior.get(v.index()).is_none() {
                    self.seeds.insert(v.raw());
                }
            }
        }
        for &(edge, _) in batch.added() {
            self.seeds.insert(edge.src.raw());
            self.seeds.insert(edge.dst.raw());
        }
    }

    /// Whether the raw vertex id is part of the seed frontier.
    pub fn is_seed(&self, raw: u64) -> bool {
        self.seeds.contains(raw)
    }

    /// Number of seed vertices activated in the first warm superstep.
    pub fn seed_vertices(&self) -> usize {
        self.seeds.len()
    }

    /// The policy, for algorithm-specific queries (e.g. dirty counts).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable policy access, for externally computed invalidations (see
    /// [`absorb_seeds`](Self::absorb_seeds)).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The warm-seeding decision: `Some(prior)` if the prior value survived
    /// every absorbed invalidation, `None` if the program must fall back to
    /// the vertex's cold initial value.
    pub fn retain<'v>(&self, vertex: VertexId, prior: &'v P::Value) -> Option<&'v P::Value> {
        if self.policy.is_dirty(vertex, prior) {
            None
        } else {
            Some(prior)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_partition::PartitionId;

    /// A toy policy dirtying any prior equal to the removed edge's src
    /// prior, to observe the plumbing.
    #[derive(Default)]
    struct DirtySrcValue {
        dirty: VertexSet,
    }

    impl InvalidationPolicy for DirtySrcValue {
        type Value = u64;

        fn on_removed_edge(&mut self, _edge: Edge, src: Option<&u64>, _dst: Option<&u64>) {
            if let Some(&v) = src {
                self.dirty.insert(v);
            }
        }

        fn is_dirty(&self, _vertex: VertexId, prior: &u64) -> bool {
            self.dirty.contains(*prior)
        }
    }

    #[test]
    fn absorb_routes_insertions_to_seeds_and_removals_to_the_policy() {
        let prior = vec![10u64, 20, 30];
        let mut batch = MutationBatch::new();
        batch.record_insert(Edge::from((0u64, 1u64)), PartitionId::new(0));
        batch.record_delete(Edge::from((2u64, 0u64)), PartitionId::new(1));
        // Endpoint 7 postdates the prior outcome: seeded, not invalidated.
        batch.record_delete(Edge::from((7u64, 1u64)), PartitionId::new(0));

        let mut frontier = WarmFrontier::new(DirtySrcValue::default());
        frontier.absorb(&prior, &batch);

        assert!(frontier.is_seed(0) && frontier.is_seed(1) && frontier.is_seed(7));
        assert!(!frontier.is_seed(2));
        assert_eq!(frontier.seed_vertices(), 3);
        // src prior of (2,0) is 30 → dirty; src prior of (7,1) unknown.
        assert_eq!(frontier.policy().dirty.len(), 1);
        assert!(frontier.retain(VertexId::new(2), &prior[2]).is_none());
        assert_eq!(frontier.retain(VertexId::new(0), &prior[0]), Some(&10));
    }
}
