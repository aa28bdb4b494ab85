//! Degree distributions and histograms.

use std::collections::BTreeMap;

use crate::graph::Graph;

/// The empirical total-degree distribution of a graph.
///
/// Collects, for every observed degree `d`, the number of vertices with that
/// degree. The distribution is the basis for the power-law exponent
/// estimation in [`estimate_graph_eta`](crate::estimate_graph_eta) and for the skew statistics reported in
/// Table I of the paper.
///
/// # Examples
///
/// ```
/// use ebv_graph::{DegreeDistribution, GraphBuilder};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let star = GraphBuilder::undirected()
///     .extend_edges((1..=4).map(|i| (0, i)))
///     .build()?;
/// let dist = DegreeDistribution::of(&star);
/// assert_eq!(dist.count_with_degree(8), 1); // the hub (4 in + 4 out)
/// assert_eq!(dist.count_with_degree(2), 4); // the leaves
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeDistribution {
    counts: BTreeMap<usize, usize>,
    num_vertices: usize,
}

impl DegreeDistribution {
    /// Computes the total-degree distribution of `graph`.
    pub fn of(graph: &Graph) -> Self {
        Self::from_degrees(graph.vertices().map(|v| graph.degree(v)))
    }

    /// Builds a distribution from an iterator of per-vertex degrees.
    pub fn from_degrees<I>(degrees: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        let mut num_vertices = 0usize;
        for d in degrees {
            *counts.entry(d).or_insert(0) += 1;
            num_vertices += 1;
        }
        DegreeDistribution {
            counts,
            num_vertices,
        }
    }

    /// Number of vertices the distribution was computed over.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of vertices with exactly degree `d`.
    pub fn count_with_degree(&self, d: usize) -> usize {
        self.counts.get(&d).copied().unwrap_or(0)
    }

    /// Number of vertices with degree at least `d`.
    pub(crate) fn count_with_degree_at_least(&self, d: usize) -> usize {
        self.counts.range(d..).map(|(_, &count)| count).sum()
    }

    /// The smallest observed degree, or `None` for an empty distribution.
    pub(crate) fn min_degree(&self) -> Option<usize> {
        self.counts.keys().next().copied()
    }

    /// The largest observed degree, or `None` for an empty distribution.
    pub fn max_degree(&self) -> Option<usize> {
        self.counts.keys().next_back().copied()
    }

    /// Iterator over `(degree, vertex count)` pairs in increasing degree
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts.iter().map(|(&d, &c)| (d, c))
    }

    /// Fraction of all edge endpoints that are incident on the top
    /// `fraction` highest-degree vertices. A large value for a small
    /// `fraction` (e.g. 0.01) is a hallmark of power-law graphs.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0`.
    #[cfg(test)]
    pub(crate) fn endpoint_share_of_top(&self, fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must lie in [0, 1]"
        );
        let total_endpoints: usize = self.counts.iter().map(|(&d, &c)| d * c).sum();
        if total_endpoints == 0 {
            return 0.0;
        }
        let mut top_vertices = ((self.num_vertices as f64) * fraction).ceil() as usize;
        let mut covered = 0usize;
        for (&d, &c) in self.counts.iter().rev() {
            if top_vertices == 0 {
                break;
            }
            let take = top_vertices.min(c);
            covered += take * d;
            top_vertices -= take;
        }
        covered as f64 / total_endpoints as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star(leaves: u64) -> Graph {
        GraphBuilder::undirected()
            .extend_edges((1..=leaves).map(|i| (0, i)))
            .build()
            .unwrap()
    }

    #[test]
    fn star_distribution() {
        let dist = DegreeDistribution::of(&star(5));
        assert_eq!(dist.num_vertices(), 6);
        assert_eq!(dist.count_with_degree(10), 1);
        assert_eq!(dist.count_with_degree(2), 5);
        assert_eq!(dist.min_degree(), Some(2));
        assert_eq!(dist.max_degree(), Some(10));
    }

    #[test]
    fn count_at_least_sums_tail() {
        let dist = DegreeDistribution::from_degrees(vec![1, 2, 2, 3, 10]);
        assert_eq!(dist.count_with_degree_at_least(2), 4);
        assert_eq!(dist.count_with_degree_at_least(4), 1);
        assert_eq!(dist.count_with_degree_at_least(11), 0);
    }

    #[test]
    fn empty_distribution_is_well_behaved() {
        let dist = DegreeDistribution::from_degrees(Vec::new());
        assert_eq!(dist.num_vertices(), 0);
        assert_eq!(dist.min_degree(), None);
        assert_eq!(dist.max_degree(), None);
        assert_eq!(dist.endpoint_share_of_top(0.1), 0.0);
    }

    #[test]
    fn endpoint_share_of_top_detects_hub() {
        let dist = DegreeDistribution::of(&star(50));
        // The single hub (top 2% of 51 vertices) touches half of all
        // endpoints in the star.
        let share = dist.endpoint_share_of_top(0.02);
        assert!(share > 0.45, "share was {share}");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn endpoint_share_rejects_bad_fraction() {
        let dist = DegreeDistribution::from_degrees(vec![1, 2]);
        let _ = dist.endpoint_share_of_top(1.5);
    }

    #[test]
    fn iter_is_sorted_by_degree() {
        let dist = DegreeDistribution::from_degrees(vec![5, 1, 3, 3]);
        let degrees: Vec<usize> = dist.iter().map(|(d, _)| d).collect();
        assert_eq!(degrees, vec![1, 3, 5]);
    }
}
