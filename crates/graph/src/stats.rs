//! Whole-graph summary statistics (Table I of the paper).

use std::fmt;

use crate::degree::DegreeDistribution;
use crate::error::Result;
use crate::graph::Graph;
use crate::powerlaw::{estimate_eta, PowerLawFit};
use crate::types::GraphKind;

/// Summary statistics of a graph: the columns of Table I in the paper
/// (type, |V|, |E|, average degree, η) plus a few extras that the analysis
/// sections reference informally (max degree, isolated vertices).
///
/// # Examples
///
/// ```
/// use ebv_graph::{generators::named, GraphStats};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let stats = GraphStats::compute("figure1", &named::figure1_graph())?;
/// assert_eq!(stats.num_vertices, 6);
/// assert_eq!(stats.num_edges, 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Name of the dataset the statistics describe.
    pub name: String,
    /// Whether the graph is directed or undirected.
    pub kind: GraphKind,
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges (undirected inputs count twice).
    pub num_edges: usize,
    /// Number of logical input edges (`num_edges / 2` for undirected graphs).
    pub num_input_edges: usize,
    /// Average total degree `2|E|/|V|`.
    pub average_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Number of vertices with no incident edge.
    pub isolated_vertices: usize,
    /// Fitted power-law exponent η of the degree distribution.
    pub eta: f64,
    /// Whether η indicates a power-law (skewed) graph.
    pub is_power_law: bool,
}

impl GraphStats {
    /// Computes the statistics of `graph`, fitting the power-law exponent
    /// from its total-degree distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when the graph is empty (η cannot be fitted).
    pub fn compute(name: &str, graph: &Graph) -> Result<Self> {
        let dist = DegreeDistribution::of(graph);
        let fit: PowerLawFit = estimate_eta(&dist)?;
        Ok(GraphStats {
            name: name.to_string(),
            kind: graph.kind(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            num_input_edges: graph.num_input_edges(),
            average_degree: graph.average_degree(),
            max_degree: graph.max_degree(),
            isolated_vertices: graph.num_isolated_vertices(),
            eta: fit.eta,
            is_power_law: fit.is_power_law(),
        })
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} vertices, {} edges, avg degree {:.2}, eta {:.2} ({})",
            self.name,
            self.num_vertices,
            self.num_edges,
            self.average_degree,
            self.eta,
            if self.is_power_law {
                "power-law"
            } else {
                "non-power-law"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GraphGenerator, GridGenerator, RmatGenerator};

    #[test]
    fn stats_of_rmat_graph_are_power_law() {
        let g = RmatGenerator::new(10, 16).with_seed(1).generate().unwrap();
        let stats = GraphStats::compute("rmat", &g).unwrap();
        assert_eq!(stats.num_vertices, 1024);
        assert!(stats.is_power_law);
        assert!(stats.max_degree > 100);
        assert!(stats.average_degree > 0.0);
    }

    #[test]
    fn stats_of_grid_graph_are_not_power_law() {
        let g = GridGenerator::new(40, 40).generate().unwrap();
        let stats = GraphStats::compute("grid", &g).unwrap();
        assert!(!stats.is_power_law);
        assert!(stats.average_degree < 5.0);
        assert_eq!(stats.isolated_vertices, 0);
    }

    #[test]
    fn display_is_informative() {
        let g = GridGenerator::new(5, 5).generate().unwrap();
        let stats = GraphStats::compute("tiny", &g).unwrap();
        let s = stats.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("vertices"));
    }

    #[test]
    fn undirected_input_edges_halved() {
        let g = GridGenerator::new(4, 4).generate().unwrap();
        let stats = GraphStats::compute("grid", &g).unwrap();
        assert_eq!(stats.num_input_edges * 2, stats.num_edges);
    }
}
