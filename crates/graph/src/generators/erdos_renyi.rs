//! Erdős–Rényi uniform random graph generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{GraphError, Result};
use crate::generators::GraphGenerator;
use crate::graph::Graph;
use crate::GraphBuilder;

/// Generator for `G(n, m)` Erdős–Rényi graphs: `m` directed edges drawn
/// uniformly at random between `n` vertices.
///
/// The binomial degree distribution of these graphs makes them a useful
/// *non*-power-law control in the partitioner comparisons.
///
/// # Examples
///
/// ```
/// use ebv_graph::generators::{ErdosRenyiGenerator, GraphGenerator};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let graph = ErdosRenyiGenerator::new(100, 500).with_seed(1).generate()?;
/// assert_eq!(graph.num_vertices(), 100);
/// assert_eq!(graph.num_edges(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErdosRenyiGenerator {
    num_vertices: usize,
    num_edges: usize,
    seed: u64,
    undirected: bool,
}

impl ErdosRenyiGenerator {
    /// Creates a generator for `num_vertices` vertices and `num_edges`
    /// uniformly random directed edges.
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        ErdosRenyiGenerator {
            num_vertices,
            num_edges,
            seed: 0,
            undirected: false,
        }
    }

    /// Sets the random seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates undirected edge pairs instead of directed edges.
    pub fn undirected(mut self) -> Self {
        self.undirected = true;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.num_vertices < 2 {
            return Err(GraphError::InvalidParameter {
                parameter: "num_vertices",
                message: "need at least 2 vertices".to_string(),
            });
        }
        if self.num_edges == 0 {
            return Err(GraphError::InvalidParameter {
                parameter: "num_edges",
                message: "need at least 1 edge".to_string(),
            });
        }
        Ok(())
    }
}

impl GraphGenerator for ErdosRenyiGenerator {
    fn generate(&self) -> Result<Graph> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.num_vertices as u64;
        let mut builder = if self.undirected {
            GraphBuilder::undirected()
        } else {
            GraphBuilder::directed()
        };
        builder.num_vertices(self.num_vertices);
        let mut produced = 0;
        while produced < self.num_edges {
            let src = rng.gen_range(0..n);
            let dst = rng.gen_range(0..n);
            if src == dst {
                continue;
            }
            builder.add_edge_ids(src, dst);
            produced += 1;
        }
        builder.build()
    }

    fn describe(&self) -> String {
        format!(
            "Erdos-Renyi(n={}, m={}, seed={}, {})",
            self.num_vertices,
            self.num_edges,
            self.seed,
            if self.undirected {
                "undirected"
            } else {
                "directed"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_counts() {
        let g = ErdosRenyiGenerator::new(50, 200)
            .with_seed(2)
            .generate()
            .unwrap();
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn undirected_variant_doubles_edges() {
        let g = ErdosRenyiGenerator::new(50, 100)
            .undirected()
            .with_seed(2)
            .generate()
            .unwrap();
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let g = ErdosRenyiGenerator::new(500, 10_000)
            .with_seed(3)
            .generate()
            .unwrap();
        let avg = 2.0 * g.average_degree();
        let max = g.max_degree() as f64;
        // Binomial tail: the max degree stays within a small factor of the mean.
        assert!(max < 3.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ErdosRenyiGenerator::new(1, 10).generate().is_err());
        assert!(ErdosRenyiGenerator::new(10, 0).generate().is_err());
    }

    #[test]
    fn describe_mentions_parameters() {
        let d = ErdosRenyiGenerator::new(10, 20).describe();
        assert!(d.contains("n=10"));
        assert!(d.contains("m=20"));
    }
}
