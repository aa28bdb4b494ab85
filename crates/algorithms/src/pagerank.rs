//! PageRank in the subgraph-centric model.

use ebv_bsp::{Subgraph, SubgraphContext, SubgraphProgram};
use ebv_graph::{Graph, VertexId};

/// The damping factor of every PageRank program: the conventional 0.85.
pub(crate) const DAMPING: f64 = 0.85;

/// Per-vertex PageRank state: the current rank plus the partial contribution
/// sum accumulated locally during the gather half-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankValue {
    /// Current rank of the vertex.
    pub rank: f64,
    /// Partial Σ rank(u)/outdeg(u) accumulated from local in-edges.
    pub partial: f64,
}

/// Subgraph-centric PageRank, one of the three evaluation applications of
/// the paper.
///
/// Each PageRank iteration takes two supersteps, mirroring the master/mirror
/// protocol of subgraph-centric frameworks:
///
/// 1. **gather** — every worker writes each local source's weight
///    `rank(u) / outdeg(u)` once, then pulls in **one flat pass** over its
///    in-CSR positions ([`Subgraph::in_edges`]: `(source, row)` pairs in
///    local indices, no vertex lookup and no per-row loop), adding each
///    position's source weight into its row's partial sum; mirrors then
///    send their partials to the vertex's master (one message per mirror,
///    walked off [`Subgraph::mirrors`]).
/// 2. **apply + scatter** — the master adds the incoming partials up in
///    arrival order (source worker ascending — a fixed order, so the sum
///    keeps its bits under every executor), adds its own partial to that
///    sum, applies the PageRank update
///    `rank = (1 − d)/|V| + d · Σ partials`, and broadcasts the new rank to
///    its mirrors (one message per mirror).
///
/// The per-iteration message count is therefore `2 · (Σ_i |V_i| − |V|)` —
/// directly proportional to the replication factor, which is exactly the
/// relationship between Table III and Table IV that the paper points out.
///
/// A run seeded through [`RunOptions::warm_seed`](ebv_bsp::RunOptions::warm_seed)
/// starts its power iteration from the prior ranks and sends the same
/// messages: the default `warm_value` carries each prior value over, and
/// the first gather overwrites every partial before anything reads it.
///
/// Dangling vertices (out-degree 0) simply stop propagating their mass, the
/// same convention used by the sequential reference implementation in
/// [`crate::reference::pagerank_reference`], so the two agree to floating
/// point tolerance. A dangling source's weight is `−0.0`, which the pull
/// adds like any other: `x + (−0.0)` is `x` for every `f64`, `+0.0`
/// included, so that addition has the bits of skipping the edge.
///
/// The flat pass keeps every bit of the row-by-row pull it replaced: a
/// row's positions are contiguous and in local-edge order, which is the
/// order that pull added them in, every partial starts at `+0.0`, and the
/// weight is the same `rank / (outdeg as f64)` division (the degree table
/// is stored as `f64`, exact below 2^53, and each run copies a worker's
/// entries into local order once, so the gather reads them in sequence).
/// Sends go out in ascending local order, as before, so arrival order and
/// every master's fold are unchanged too.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRank {
    iterations: usize,
    num_vertices: usize,
    out_degrees: Vec<f64>,
}

impl PageRank {
    /// Creates a PageRank program for `graph` with the given number of
    /// iterations and the conventional damping factor 0.85.
    ///
    /// The program captures the graph's global out-degree table: a replica
    /// only knows its local edges, but the rank contribution of a vertex is
    /// defined by its *global* out-degree.
    pub fn new(graph: &Graph, iterations: usize) -> Self {
        PageRank {
            iterations,
            num_vertices: graph.num_vertices(),
            out_degrees: graph
                .vertices()
                .map(|v| graph.out_degree(v) as f64)
                .collect(),
        }
    }

    /// The configured number of PageRank iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl SubgraphProgram for PageRank {
    type Value = PageRankValue;
    type Message = f64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> PageRankValue {
        PageRankValue {
            rank: 1.0 / self.num_vertices as f64,
            partial: 0.0,
        }
    }

    fn run_superstep(
        &self,
        ctx: &mut SubgraphContext<'_, PageRankValue, f64>,
        superstep: usize,
    ) -> usize {
        pagerank_superstep(self.num_vertices, &self.out_degrees, ctx, superstep)
    }

    fn max_supersteps(&self) -> usize {
        2 * self.iterations
    }

    fn halt_on_quiescence(&self) -> bool {
        false
    }
}

/// One gather/scatter superstep of [`PageRank`]'s master/mirror protocol.
/// `out_degrees` is the global out-degree table, by vertex id.
///
/// The run's first gather copies every local vertex's global out-degree
/// into [`WorklistScratch::degrees`](ebv_bsp::WorklistScratch::degrees),
/// in local order, and counts the gather's `work` once: the number of
/// owned positions with a live source; in a vertex-cut, where every
/// position is owned, that is the live sources' local out-degrees summed.
/// Both stay for the run, so no later gather reads the global table.
///
/// An even superstep gathers: it adopts the mail (each mirror's new rank),
/// writes every local source's weight into
/// [`WorklistScratch::weights`](ebv_bsp::WorklistScratch::weights) off the
/// local degrees in sequence (`−0.0` for a dangling source), adds
/// `weights[source]` into `sums[row]` for every position of
/// [`Subgraph::in_edges`] in one pass — skipping the copies an edge-cut
/// worker does not own — then writes every partial and ships the mirrors'
/// partials along [`Subgraph::mirrors`]. An odd superstep applies: it
/// folds the mail into
/// [`WorklistScratch::sums`](ebv_bsp::WorklistScratch::sums) and walks
/// [`Subgraph::masters`]. Both scratch buffers go back clean.
///
/// Every mirror sends its partial and every master its new rank, so a run
/// sends `2 · (Σ_i |V_i| − |V|)` messages per iteration, cold or warm.
fn pagerank_superstep(
    num_vertices: usize,
    out_degrees: &[f64],
    ctx: &mut SubgraphContext<'_, PageRankValue, f64>,
    superstep: usize,
) -> usize {
    let mut sums = std::mem::take(&mut ctx.scratch().sums);
    sums.resize(ctx.subgraph().num_vertices(), 0.0);
    let updates = if superstep.is_multiple_of(2) {
        if superstep == 0 {
            let subgraph = ctx.subgraph();
            let scratch = ctx.scratch();
            scratch.degree_work = local_degrees(out_degrees, subgraph, &mut scratch.degrees);
        }
        gather(ctx, &mut sums)
    } else {
        apply(num_vertices, ctx, &mut sums)
    };
    ctx.scratch().sums = sums;
    updates
}

/// Writes the global out-degree of every local vertex into `degrees`, in
/// local order, and returns the gather's work: the owned in-CSR positions
/// whose source is live (out-degree not 0). Neither changes within a run,
/// so [`pagerank_superstep`] calls this on the run's first gather only.
fn local_degrees(out_degrees: &[f64], subgraph: &Subgraph, degrees: &mut Vec<f64>) -> u64 {
    degrees.clear();
    degrees.extend(subgraph.vertices().iter().map(|v| out_degrees[v.index()]));
    let in_edges = subgraph.in_edges();
    if in_edges.owned.is_empty() {
        // Every position is owned: a live source's positions are its local
        // out-edges.
        let live = degrees.iter().enumerate().filter(|&(_, &d)| d != 0.0);
        live.map(|(local, _)| subgraph.out_neighbors(local).len() as u64)
            .sum()
    } else {
        let positions = in_edges.sources.iter().zip(in_edges.owned);
        let live = positions.filter(|&(&source, &owned)| owned && degrees[source as usize] != 0.0);
        live.count() as u64
    }
}

/// The gather half of [`pagerank_superstep`]; `sums` is all zero on entry
/// and on exit, and the scratch holds the run's local degrees.
fn gather(ctx: &mut SubgraphContext<'_, PageRankValue, f64>, sums: &mut [f64]) -> usize {
    // Mirrors first adopt the rank broadcast by the master at the end of
    // the previous iteration (a mirror hears from its one master).
    for (local, &rank) in ctx.mail() {
        let mut value = *ctx.value(local);
        value.rank = rank;
        ctx.set_value(local, value);
    }
    let subgraph = ctx.subgraph();
    let in_edges = subgraph.in_edges();
    // One weight per source, off the local degree table in sequence.
    // Dangling sources propagate nothing: their `−0.0` leaves every sum it
    // is added to bit for bit as it was.
    let scratch = ctx.scratch();
    let (mut weights, degrees) = (
        std::mem::take(&mut scratch.weights),
        std::mem::take(&mut scratch.degrees),
    );
    let work = scratch.degree_work;
    debug_assert!(weights.is_empty());
    debug_assert_eq!(degrees.len(), sums.len(), "filled on the first gather");
    let sources = ctx.values().iter().zip(&degrees);
    weights.extend(sources.map(|(value, &out_degree)| {
        if out_degree == 0.0 {
            -0.0
        } else {
            value.rank / out_degree
        }
    }));
    // The pull, position by position: a row's positions are contiguous
    // and in local-edge order, so each partial is the same sequence of
    // additions as a scan of the edge list.
    if in_edges.owned.is_empty() {
        for (&source, &row) in in_edges.sources.iter().zip(in_edges.rows) {
            sums[row as usize] += weights[source as usize];
        }
    } else {
        // An edge-cut replicates crossing edges; only the source owner's
        // copy contributes, so each edge counts once.
        let positions = in_edges.sources.iter().zip(in_edges.rows);
        for ((&source, &row), &owned) in positions.zip(in_edges.owned) {
            if owned {
                sums[row as usize] += weights[source as usize];
            }
        }
    }
    weights.clear();
    let scratch = ctx.scratch();
    (scratch.weights, scratch.degrees) = (weights, degrees);
    for (local, sum) in sums.iter_mut().enumerate() {
        let mut value = *ctx.value(local);
        // Taking the sum returns the scratch slot to zero.
        value.partial = std::mem::take(sum);
        ctx.set_value(local, value);
    }
    // Mirrors ship their partial to the master replica.
    for &mirror in subgraph.mirrors() {
        let partial = ctx.value(mirror as usize).partial;
        ctx.send_to_master(mirror as usize, partial);
    }
    ctx.add_work(work);
    sums.len()
}

/// The apply half of [`pagerank_superstep`]: masters fold incoming
/// partials and broadcast the new rank to their mirrors. The partials of
/// one master are summed on their own, in arrival order, and only then
/// added to its local partial: `partial + (m1 + m2)`, not
/// `(partial + m1) + m2`. `sums` is all zero on entry and on exit.
fn apply(
    num_vertices: usize,
    ctx: &mut SubgraphContext<'_, PageRankValue, f64>,
    sums: &mut [f64],
) -> usize {
    for (local, &partial) in ctx.mail() {
        sums[local] += partial;
    }
    let masters = ctx.subgraph().masters();
    for &master in masters {
        let master = master as usize;
        // Taking the sum returns the scratch slot to zero.
        let incoming = std::mem::take(&mut sums[master]);
        let mut value = *ctx.value(master);
        let total = value.partial + incoming;
        value.rank = (1.0 - DAMPING) / num_vertices as f64 + DAMPING * total;
        value.partial = 0.0;
        ctx.set_value(master, value);
        ctx.send_to_mirrors(master, value.rank);
    }
    // Only masters are sent partials, so every slot written was taken.
    debug_assert!(sums.iter().all(|&sum| sum == 0.0));
    ctx.add_work(masters.len() as u64);
    masters.len()
}

/// Extracts the plain rank vector from a PageRank outcome.
pub fn ranks(values: &[PageRankValue]) -> Vec<f64> {
    values.iter().map(|v| v.rank).collect()
}

/// The master/mirror protocol with the gather [`pagerank_superstep`] had
/// before it pulled over the in-CSR: a scan of the local edge list that
/// resolves both endpoints of every edge through `local_index_of` and
/// scatters into a per-superstep `partials` vector, and the apply it had
/// before masters summed their mail in arrival order: per-vertex mailboxes
/// ([`crate::oracle::mailboxes`]), each summed on its own. Kept as the
/// reference both — and since the flat pull, its weights and the cached
/// role lists — are checked against; it keeps the integer degree table and
/// skips dangling sources instead of adding their `−0.0`.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct EdgeScanPageRank {
    pub(crate) damping: f64,
    pub(crate) iterations: usize,
    pub(crate) num_vertices: usize,
    pub(crate) out_degrees: Vec<u64>,
}

#[cfg(test)]
impl EdgeScanPageRank {
    /// The oracle of a program with these parameters and degree table.
    pub(crate) fn of(
        damping: f64,
        iterations: usize,
        num_vertices: usize,
        out_degrees: &[f64],
    ) -> Self {
        EdgeScanPageRank {
            damping,
            iterations,
            num_vertices,
            out_degrees: out_degrees.iter().map(|&d| d as u64).collect(),
        }
    }
}

#[cfg(test)]
impl SubgraphProgram for EdgeScanPageRank {
    type Value = PageRankValue;
    type Message = f64;

    fn initial_value(&self, _vertex: VertexId, _subgraph: &Subgraph) -> PageRankValue {
        PageRankValue {
            rank: 1.0 / self.num_vertices as f64,
            partial: 0.0,
        }
    }

    fn warm_value(&self, _: VertexId, prior: &PageRankValue, _: &Subgraph) -> PageRankValue {
        PageRankValue {
            rank: prior.rank,
            partial: 0.0,
        }
    }

    fn run_superstep(
        &self,
        ctx: &mut SubgraphContext<'_, PageRankValue, f64>,
        superstep: usize,
    ) -> usize {
        let n = ctx.subgraph().num_vertices();
        let mailboxes = crate::oracle::mailboxes(ctx);
        let mut updates = 0usize;
        if !superstep.is_multiple_of(2) {
            for (local, mailbox) in mailboxes.iter().enumerate() {
                if !ctx.subgraph().is_master(local) {
                    continue;
                }
                let incoming: f64 = mailbox.iter().sum();
                let mut value = *ctx.value(local);
                let total = value.partial + incoming;
                value.rank = (1.0 - self.damping) / self.num_vertices as f64 + self.damping * total;
                value.partial = 0.0;
                ctx.set_value(local, value);
                ctx.add_work(1);
                updates += 1;
                ctx.send_to_mirrors(local, value.rank);
            }
            return updates;
        }
        for (local, mailbox) in mailboxes.iter().enumerate() {
            if let Some(&rank) = mailbox.last() {
                let mut value = *ctx.value(local);
                value.rank = rank;
                ctx.set_value(local, value);
            }
        }
        let mut partials = vec![0.0f64; n];
        for edge_index in 0..ctx.subgraph().num_edges() {
            if !ctx.subgraph().owns_edge(edge_index) {
                continue;
            }
            let edge = ctx.subgraph().edges()[edge_index];
            let out_degree = self.out_degrees[edge.src.index()];
            if out_degree == 0 {
                continue;
            }
            let (Some(src_local), Some(dst_local)) = (
                ctx.subgraph().local_index_of(edge.src),
                ctx.subgraph().local_index_of(edge.dst),
            ) else {
                continue;
            };
            ctx.add_work(1);
            let contribution = ctx.value(src_local).rank / out_degree as f64;
            partials[dst_local] += contribution;
        }
        for (local, partial) in partials.into_iter().enumerate() {
            let mut value = *ctx.value(local);
            value.partial = partial;
            ctx.set_value(local, value);
            updates += 1;
            if !ctx.subgraph().is_master(local) {
                ctx.send_to_master(local, partial);
            }
        }
        updates
    }

    fn max_supersteps(&self) -> usize {
        2 * self.iterations
    }

    fn halt_on_quiescence(&self) -> bool {
        false
    }
}

/// Asserts two PageRank outcomes equal in every rank and partial bit and
/// in every counter (per-superstep, per-worker work, messages, updates).
#[cfg(test)]
pub(crate) fn assert_same_outcome(
    got: &ebv_bsp::BspOutcome<PageRankValue>,
    want: &ebv_bsp::BspOutcome<PageRankValue>,
    context: &str,
) {
    assert_eq!(got.values.len(), want.values.len(), "{context}");
    for (v, (a, b)) in got.values.iter().zip(&want.values).enumerate() {
        assert_eq!(a.rank.to_bits(), b.rank.to_bits(), "{context}: rank {v}");
        assert_eq!(
            a.partial.to_bits(),
            b.partial.to_bits(),
            "{context}: partial {v}"
        );
    }
    assert_eq!(got.stats, want.stats, "{context}");
    assert_eq!(got.supersteps, want.supersteps, "{context}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank_reference;
    use ebv_bsp::{BspEngine, DistributedGraph};
    use ebv_graph::generators::{named, GraphGenerator, RmatGenerator};
    use ebv_graph::GraphBuilder;
    use ebv_partition::{paper_partitioners, EbvPartitioner, Partitioner};

    fn edge_scan(program: &PageRank) -> EdgeScanPageRank {
        EdgeScanPageRank::of(
            DAMPING,
            program.iterations,
            program.num_vertices,
            &program.out_degrees,
        )
    }

    #[test]
    fn pull_gather_matches_the_edge_scan_on_random_multigraphs() {
        let engines = [BspEngine::sequential(), BspEngine::pooled(2)];
        for seed in 0..24u64 {
            // R-MAT keeps duplicate edges and leaves vertices isolated.
            let graph = RmatGenerator::new(6, 3 + (seed as usize % 5))
                .with_seed(seed)
                .generate()
                .unwrap();
            for p in [1, 3, 8] {
                let partition = EbvPartitioner::new().partition(&graph, p).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                let program = PageRank::new(&graph, 6);
                let reference = edge_scan(&program);
                for engine in &engines {
                    let got = engine.run(&dg, &program).unwrap();
                    let want = engine.run(&dg, &reference).unwrap();
                    assert_same_outcome(&got, &want, &format!("seed {seed}, p {p}, {engine:?}"));
                    assert_eq!(got.stats.num_supersteps(), 12);
                }
            }
        }
    }

    /// `batch_rmat`'s shape — scale-16 R-MAT, 500k edges, 8 workers,
    /// EBV-sort, 10 iterations — where a hub's in-degree is in the
    /// thousands and local rows reach hundreds of positions, far past what
    /// the property graphs above hold.
    #[test]
    fn flat_pull_is_bit_identical_to_the_edge_scan_at_benchmark_scale() {
        let full = RmatGenerator::new(16, 8).with_seed(42).generate().unwrap();
        let mut builder = GraphBuilder::directed();
        builder.allow_self_loops(true).num_vertices(1 << 16);
        builder.extend_edges(
            full.edges()[..500_000]
                .iter()
                .map(|edge| (edge.src.raw(), edge.dst.raw())),
        );
        let graph = builder.build().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 8).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let widest_row = dg
            .subgraphs()
            .iter()
            .flat_map(|sg| (0..sg.num_vertices()).map(|t| sg.in_neighbors(t).len()))
            .max();
        // EBV spreads the hub's 6,126 in-edges over the workers; the
        // widest local row still holds 885 of them.
        let hub = graph.vertices().map(|v| graph.in_degree(v)).max();
        assert!(hub >= Some(1000), "hub in-degree {hub:?}");
        assert!(widest_row >= Some(500), "widest row {widest_row:?}");
        let program = PageRank::new(&graph, 10);
        let reference = edge_scan(&program);
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let got = engine.run(&dg, &program).unwrap();
            let want = engine.run(&dg, &reference).unwrap();
            assert_same_outcome(&got, &want, &format!("{:?}", engine.mode()));
        }
    }

    /// Sinks (out-degree 0), self-loops, duplicate edges and an isolated
    /// vertex.
    fn graph_with_sinks() -> Graph {
        let mut builder = GraphBuilder::directed();
        builder.allow_self_loops(true).num_vertices(12);
        for (src, dst) in [
            (0, 1),
            (0, 2),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 3),
            (3, 4),
            (4, 0),
            (5, 6),
            (6, 7),
            (7, 5),
            (7, 8),
            (1, 9),
            (4, 9),
            (2, 10),
        ] {
            builder.add_edge_ids(src, dst);
        }
        builder.build().unwrap()
    }

    #[test]
    fn every_paper_partitioner_matches_the_edge_scan_and_the_reference() {
        let rmat = RmatGenerator::new(7, 5).with_seed(4).generate().unwrap();
        for (name, graph) in [("sinks", graph_with_sinks()), ("rmat", rmat)] {
            let expected = pagerank_reference(&graph, 9, 0.85);
            let mut edge_cut_copies = 0usize;
            for partitioner in paper_partitioners() {
                let context = format!("{name}, {}", partitioner.name());
                let partition = partitioner.partition(&graph, 4).unwrap();
                let dg = DistributedGraph::build(&graph, &partition).unwrap();
                edge_cut_copies += dg
                    .subgraphs()
                    .iter()
                    .map(|sg| (0..sg.num_edges()).filter(|&i| !sg.owns_edge(i)).count())
                    .sum::<usize>();
                let program = PageRank::new(&graph, 9);
                let got = BspEngine::sequential().run(&dg, &program).unwrap();
                let want = BspEngine::sequential()
                    .run(&dg, &edge_scan(&program))
                    .unwrap();
                assert_same_outcome(&got, &want, &context);
                assert_close(&ranks(&got.values), &expected, 1e-9, &context);
            }
            assert!(
                edge_cut_copies > 0,
                "{name}: the edge-cut partitioners produced no unowned copy"
            );
        }
    }

    /// The fold order of a master's mail, pinned on values where it shows:
    /// vertex 0 has one in-edge on each of four workers, from sources of
    /// out-degree 1, 5, 3 and 6, so its master adds its own partial to three
    /// mirrors' partials whose sum depends on how it is associated.
    #[test]
    fn masters_sum_their_mail_in_arrival_order_then_add_their_own_partial() {
        use ebv_bsp::RunOptions;
        use ebv_graph::Edge;
        use ebv_partition::PartitionId;

        const DEGREES: [u64; 4] = [1, 5, 3, 6];
        // Source `w + 1` lives on worker `w`: its edge to vertex 0, then
        // edges to the shared sinks 5.. up to its out-degree.
        let mut assigned = Vec::new();
        for (worker, degree) in (0u32..).zip(DEGREES) {
            let source = u64::from(worker) + 1;
            let targets = std::iter::once(0).chain(5..5 + degree - 1);
            assigned.extend(
                targets.map(|target| (Edge::from((source, target)), PartitionId::new(worker))),
            );
        }
        let mut builder = GraphBuilder::directed();
        builder.extend_edges(
            assigned
                .iter()
                .map(|(edge, _)| (edge.src.raw(), edge.dst.raw())),
        );
        let graph = builder.build().unwrap();
        let dg = DistributedGraph::build_streaming(4, None, assigned).unwrap();
        assert_eq!(graph.num_vertices(), 10);
        assert_eq!(dg.num_vertices(), 10);

        // The first iteration by hand. Every rank is 1/|V|, so worker `w`
        // contributes `1/|V| / DEGREES[w]`; the master holds its own and
        // receives the other three by ascending worker.
        let master = dg
            .subgraphs()
            .iter()
            .position(|sg| {
                let local = sg.local_index_of(VertexId::new(0)).unwrap();
                sg.is_master(local)
            })
            .unwrap();
        let partial = |worker: usize| 0.1 / DEGREES[worker] as f64;
        let own = partial(master);
        let m: Vec<f64> = (0..4).filter(|&w| w != master).map(partial).collect();
        let arrival_order = own + ((m[0] + m[1]) + m[2]);
        let into_the_partial = ((own + m[0]) + m[1]) + m[2];
        assert_ne!(arrival_order, into_the_partial);
        assert_ne!(arrival_order, own + ((m[2] + m[1]) + m[0]), "reversed");
        let rank = |total: f64| (1.0 - 0.85) / 10.0 + 0.85 * total;
        let expected = rank(arrival_order);
        assert_ne!(expected, rank(into_the_partial));

        let engines = [
            BspEngine::sequential(),
            BspEngine::pooled(1),
            BspEngine::pooled(2),
            BspEngine::pooled(3),
            BspEngine::pooled(8),
        ];
        let program = PageRank::new(&graph, 4);
        let reference = edge_scan(&program);
        let prior = BspEngine::sequential().run(&dg, &program).unwrap().values;
        for engine in &engines {
            let context = format!("{:?}", engine.mode());
            let one = engine.run(&dg, &PageRank::new(&graph, 1)).unwrap();
            assert_eq!(
                one.values[0].rank.to_bits(),
                expected.to_bits(),
                "{context}"
            );

            let got = engine.run(&dg, &program).unwrap();
            let want = engine.run(&dg, &reference).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, cold"));

            let options = RunOptions::new().warm_seed(&prior);
            let got = engine.run_opts(&dg, &program, options).unwrap();
            let want = engine.run_opts(&dg, &reference, options).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, warm"));
        }
    }

    /// The graph a distribution holds: each owned local edge once, parallel
    /// copies and self-loops kept, over the distribution's universe. Its
    /// out-degrees are the table a churned distribution's PageRank reads.
    fn graph_of(distributed: &DistributedGraph) -> Graph {
        let mut builder = GraphBuilder::directed();
        builder
            .allow_self_loops(true)
            .num_vertices(distributed.num_vertices());
        for sg in distributed.subgraphs() {
            for (edge_index, edge) in sg.edges().iter().enumerate() {
                if sg.owns_edge(edge_index) {
                    builder.add_edge(*edge);
                }
            }
        }
        builder.build().unwrap()
    }

    /// The master and mirror lists PageRank walks are cached on the
    /// subgraph, so a batch that moves a vertex's master off a worker it
    /// keeps must drop them there: a stale list would keep the vertex that
    /// worker's master, and its partial would never reach the new master.
    #[test]
    fn a_master_flip_on_a_kept_worker_refreshes_the_cached_role_lists() {
        use ebv_bsp::{MutationBatch, RunOptions};
        use ebv_graph::Edge;
        use ebv_partition::PartitionId;

        let part = PartitionId::new;
        let assigned = |edges: &[((u64, u64), u32)]| -> Vec<(Edge, PartitionId)> {
            edges
                .iter()
                .map(|&(edge, worker)| (Edge::from(edge), part(worker)))
                .collect()
        };
        // Vertex 1 is held by worker 0 (two incident edges, its master)
        // and worker 1 (one); worker 2 holds a cycle of its own.
        let initial = assigned(&[
            ((0, 1), 0),
            ((1, 2), 0),
            ((2, 0), 0),
            ((1, 3), 1),
            ((3, 4), 1),
            ((4, 5), 2),
            ((5, 6), 2),
            ((6, 4), 2),
        ]);
        let additions = assigned(&[((1, 7), 1), ((7, 1), 1)]);
        let mut distributed = DistributedGraph::build_streaming(3, None, initial).unwrap();
        let v1 = VertexId::new(1);
        assert_eq!(distributed.replicas().master_of(v1), part(0));
        // A run fills every worker's role lists.
        let before = PageRank::new(&graph_of(&distributed), 10);
        let prior = BspEngine::sequential().run(&distributed, &before).unwrap();

        let mut batch = MutationBatch::new();
        for &(edge, worker) in &additions {
            batch.record_insert(edge, worker);
        }
        let stats = distributed.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1, "worker 0 is kept");
        assert_eq!(distributed.replicas().master_of(v1), part(1));
        let kept = distributed.subgraph(part(0));
        let local = kept.local_index_of(v1).unwrap();
        assert!(
            !kept.is_master(local),
            "the batch flips a kept worker's flag"
        );

        let program = PageRank::new(&graph_of(&distributed), 10);
        let reference = edge_scan(&program);
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let context = format!("{:?}", engine.mode());
            let got = engine.run(&distributed, &program).unwrap();
            let want = engine.run(&distributed, &reference).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, cold"));

            let options = RunOptions::new().warm_seed(&prior.values);
            let got = engine.run_opts(&distributed, &program, options).unwrap();
            let want = engine.run_opts(&distributed, &reference, options).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, warm"));
        }
    }

    /// A batch that grows the universe and rebuilds one worker: the warm
    /// run starts from a prior shorter than the universe, the rebuilt
    /// worker fills its local degree table afresh from the grown global
    /// table, and the runs, cold and warm, equal the edge scan in every
    /// rank bit and every counter.
    #[test]
    fn a_universe_growing_batch_that_rebuilds_a_worker_matches_the_edge_scan() {
        use ebv_bsp::{MutationBatch, RunOptions};
        use ebv_graph::Edge;
        use ebv_partition::PartitionId;

        let graph = RmatGenerator::new(6, 4).with_seed(3).generate().unwrap();
        let partition = EbvPartitioner::new().partition(&graph, 4).unwrap();
        let mut distributed = DistributedGraph::build(&graph, &partition).unwrap();
        let before = PageRank::new(&graph_of(&distributed), 20);
        let prior = BspEngine::sequential().run(&distributed, &before).unwrap();

        // Two new vertices, a path through them from vertex 0 back to 3,
        // all on worker 2.
        let n = distributed.num_vertices() as u64;
        let mut batch = MutationBatch::new();
        for edge in [(0, n), (n, n + 1), (n + 1, 3)] {
            batch.record_insert(Edge::from(edge), PartitionId::new(2));
        }
        let stats = distributed.apply_mutations(&batch).unwrap();
        assert_eq!(stats.workers_touched, 1);
        assert_eq!(distributed.num_vertices(), n as usize + 2);
        assert_eq!(prior.values.len(), n as usize);

        let program = PageRank::new(&graph_of(&distributed), 20);
        assert_eq!(program.out_degrees[0], before.out_degrees[0] + 1.0);
        let reference = edge_scan(&program);
        for engine in [BspEngine::sequential(), BspEngine::pooled(2)] {
            let context = format!("{:?}", engine.mode());
            let got = engine.run(&distributed, &program).unwrap();
            let want = engine.run(&distributed, &reference).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, cold"));
            let options = RunOptions::new().warm_seed(&prior.values);
            let got = engine.run_opts(&distributed, &program, options).unwrap();
            let want = engine.run_opts(&distributed, &reference, options).unwrap();
            assert_same_outcome(&got, &want, &format!("{context}, warm"));
            assert!(got.values[n as usize + 1].rank > 0.0);
        }
    }

    #[test]
    fn a_zero_out_degree_entry_is_skipped_by_the_degree_test() {
        // A degree table that says "dangling" for sources the distribution
        // does hold out-edges of (a program built from an older, sparser
        // graph): their edges contribute nothing and cost no work, and no
        // division by zero leaks a NaN or an infinity into the ranks.
        let graph = graph_with_sinks();
        let partition = EbvPartitioner::new().partition(&graph, 3).unwrap();
        let dg = DistributedGraph::build(&graph, &partition).unwrap();
        let mut program = PageRank::new(&graph, 5);
        program.out_degrees[0] = 0.0;
        program.out_degrees[7] = 0.0;
        let got = BspEngine::sequential().run(&dg, &program).unwrap();
        let want = BspEngine::sequential()
            .run(&dg, &edge_scan(&program))
            .unwrap();
        assert_same_outcome(&got, &want, "zeroed out-degrees");
        assert!(ranks(&got.values).iter().all(|rank| rank.is_finite()));
        let full = BspEngine::sequential()
            .run(&dg, &PageRank::new(&graph, 5))
            .unwrap();
        assert!(got.stats.total_work() < full.stats.total_work());
    }

    fn run_pagerank(
        graph: &Graph,
        partitioner: &dyn Partitioner,
        p: usize,
        iters: usize,
    ) -> Vec<f64> {
        let partition = partitioner.partition(graph, p).unwrap();
        let dg = DistributedGraph::build(graph, &partition).unwrap();
        let program = PageRank::new(graph, iters);
        let outcome = BspEngine::sequential().run(&dg, &program).unwrap();
        ranks(&outcome.values)
    }

    fn assert_close(a: &[f64], b: &[f64], tolerance: f64, context: &str) {
        assert_eq!(a.len(), b.len(), "{context}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tolerance,
                "{context}: rank of vertex {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_on_small_graphs() {
        for graph in [named::figure1_graph(), named::small_social_graph()] {
            let expected = pagerank_reference(&graph, 10, 0.85);
            for partitioner in paper_partitioners() {
                let got = run_pagerank(&graph, partitioner.as_ref(), 3, 10);
                assert_close(&got, &expected, 1e-9, &partitioner.name());
            }
        }
    }

    #[test]
    fn matches_reference_on_power_law_graph() {
        let graph = RmatGenerator::new(8, 6).with_seed(9).generate().unwrap();
        let expected = pagerank_reference(&graph, 8, 0.85);
        for partitioner in paper_partitioners() {
            let got = run_pagerank(&graph, partitioner.as_ref(), 4, 8);
            assert_close(&got, &expected, 1e-9, &partitioner.name());
        }
    }

    #[test]
    fn hub_ranks_highest_in_a_star() {
        let graph = named::star_graph(20).unwrap();
        let got = run_pagerank(&graph, &EbvPartitioner::new(), 4, 15);
        let hub = got[0];
        for &leaf_rank in &got[1..=20] {
            assert!(hub > leaf_rank, "hub {hub} vs leaf {leaf_rank}");
        }
    }

    #[test]
    fn iteration_accessors() {
        let graph = named::figure1_graph();
        let pr = PageRank::new(&graph, 5);
        assert_eq!(pr.iterations(), 5);
        assert_eq!(pr.max_supersteps(), 10);
        assert!(!pr.halt_on_quiescence());
    }
}
